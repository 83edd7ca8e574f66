// Experiment A4 (DESIGN.md §4): algorithmic scaling.
//
// Wall-clock of the start-up scheduler and the full cyclo-compaction loop as
// the task graph and the machine grow.  The paper claims "fast convergence";
// this bench quantifies it: compaction is a few milliseconds for
// paper-sized inputs and stays polynomial as |V| and P scale.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <string>

#include "bench_common.hpp"
#include "core/critical_cycle.hpp"
#include "core/iteration_bound.hpp"
#include "core/list_scheduler.hpp"
#include "core/retiming.hpp"
#include "io/text_format.hpp"
#include "workloads/generator.hpp"

namespace {

using namespace ccs;

Csdfg graph_of_size(std::size_t nodes) {
  RandomDfgConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_layers = std::max<std::size_t>(3, nodes / 6);
  cfg.num_back_edges = std::max<std::size_t>(2, nodes / 8);
  cfg.max_time = 3;
  cfg.max_volume = 3;
  return random_csdfg(cfg, /*seed=*/4242);
}

void BM_StartupVsNodes(benchmark::State& state) {
  const Csdfg g = graph_of_size(static_cast<std::size_t>(state.range(0)));
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  for (auto _ : state)
    benchmark::DoNotOptimize(start_up_schedule(g, topo, comm));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StartupVsNodes)
    ->RangeMultiplier(2)
    ->Range(16, 128)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();

void BM_CompactionVsNodes(benchmark::State& state) {
  const Csdfg g = graph_of_size(static_cast<std::size_t>(state.range(0)));
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithRelaxation;
  for (auto _ : state)
    benchmark::DoNotOptimize(cyclo_compact(g, topo, comm, opt));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CompactionVsNodes)
    ->RangeMultiplier(2)
    ->Range(16, 128)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

// The scale rows of ROADMAP item 4: one relaxation run of cyclo_compact on
// the 1k- and 4k-node generated graphs (seconds each, so outside the CI
// benchmark filter).  compaction.passes is deterministic per graph.
void BM_CompactionAtScale(benchmark::State& state) {
  const Csdfg g = graph_of_size(static_cast<std::size_t>(state.range(0)));
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithRelaxation;
  std::optional<CycloCompactionResult> run;
  for (auto _ : state) {
    run.emplace(cyclo_compact(g, topo, comm, opt));
    benchmark::DoNotOptimize(*run);
  }
  // Every pass that starts appends one length_trace entry.
  state.counters["compaction.passes"] = ::benchmark::Counter(
      static_cast<double>(run->length_trace.size()));
  state.counters["best_length"] =
      ::benchmark::Counter(static_cast<double>(run->best_length()));
  state.counters["best_pass"] =
      ::benchmark::Counter(static_cast<double>(run->best_pass));
}
BENCHMARK(BM_CompactionAtScale)
    ->Arg(1024)
    ->Arg(4096)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_CompactionVsPes(benchmark::State& state) {
  const Csdfg g = graph_of_size(32);
  const Topology topo =
      make_mesh(static_cast<std::size_t>(state.range(0)), 2);
  const StoreAndForwardModel comm(topo);
  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithRelaxation;
  for (auto _ : state)
    benchmark::DoNotOptimize(cyclo_compact(g, topo, comm, opt));
  state.SetLabel(topo.name());
}
BENCHMARK(BM_CompactionVsPes)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

/// Times Φ_min by FEAS probes from the iteration bound (computed once, as
/// GraphFacts memoizes it) and exports the deterministic probe and
/// longest-path round counts, gated in CI against
/// bench/baselines/min_period.json.
void BM_MinPeriodRetiming(benchmark::State& state) {
  const Csdfg g = graph_of_size(static_cast<std::size_t>(state.range(0)));
  const Rational bound = iteration_bound(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(min_period_retiming(g, bound));
  const MinPeriodResult r = min_period_retiming(g, bound);
  state.counters["min_period.probes"] =
      ::benchmark::Counter(static_cast<double>(r.probes));
  state.counters["min_period.rounds"] =
      ::benchmark::Counter(static_cast<double>(r.rounds));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinPeriodRetiming)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

/// Times the strict graph reader on the serialized text of
/// graph_of_size(nodes): every CLI call and serve request parses its graph
/// before any other stage runs.
void BM_ParseCsdfg(benchmark::State& state) {
  const std::string text = serialize_csdfg(
      graph_of_size(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) benchmark::DoNotOptimize(parse_csdfg(text));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ParseCsdfg)
    ->RangeMultiplier(4)
    ->Range(16, 16384)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();

/// The compacted retimed graph of graph_of_size(nodes) on mesh 4 2: the
/// graph the certifier's CCS-S015 check bounds again after a schedule run,
/// with far more delay on its edges than the input.
Csdfg retimed_graph_of_size(std::size_t nodes) {
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithRelaxation;
  return cyclo_compact(graph_of_size(nodes), topo, comm, opt).retimed_graph;
}

/// Exports the deterministic probe count of `g`'s max-cycle-ratio search
/// (one Bellman–Ford probe per candidate ratio), gated in CI against
/// bench/baselines/cycle_ratio.json.
void export_probes(benchmark::State& state, const Csdfg& g) {
  state.counters["cycle_ratio.probes"] =
      ::benchmark::Counter(static_cast<double>(max_cycle_ratio(g).probes));
}

void BM_IterationBound(benchmark::State& state) {
  const Csdfg g = graph_of_size(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(iteration_bound(g));
  export_probes(state, g);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IterationBound)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_CriticalCycle(benchmark::State& state) {
  const Csdfg g = graph_of_size(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(critical_cycle(g));
  export_probes(state, g);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CriticalCycle)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_IterationBoundRetimed(benchmark::State& state) {
  const Csdfg g =
      retimed_graph_of_size(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(iteration_bound(g));
  export_probes(state, g);
}
BENCHMARK(BM_IterationBoundRetimed)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_CriticalCycleRetimed(benchmark::State& state) {
  const Csdfg g =
      retimed_graph_of_size(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(critical_cycle(g));
  export_probes(state, g);
}
BENCHMARK(BM_CriticalCycleRetimed)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return ccs::bench::run_benchmarks(argc, argv);
}
