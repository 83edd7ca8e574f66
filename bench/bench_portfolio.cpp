// Portfolio engine benchmark (DESIGN.md §4, PR 5): wall-clock of the
// parallel portfolio search against the serial cyclo-compaction driver, and
// the route-cache effect on topology construction.
//
// Two roles:
//  * measurement — BM_Portfolio at jobs ∈ {1, 2, 4, 8} against
//    BM_SerialCompaction quantifies the speedup (on a 1-CPU container the
//    jobs>1 rows collapse onto jobs=1: record what the machine gives);
//  * CI gate — print_quality_gate() runs the portfolio on the paper's
//    19-node workload across the five experiment architectures and aborts
//    if the winner is ever longer than the serial driver, so a regression
//    fails the benchmark job before any numbers are reported.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "analysis/bounds.hpp"
#include "bench_common.hpp"
#include "engine/portfolio.hpp"
#include "workloads/generator.hpp"
#include "workloads/library.hpp"

namespace {

using namespace ccs;

Csdfg scaling_graph(std::size_t nodes) {
  RandomDfgConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_layers = std::max<std::size_t>(3, nodes / 6);
  cfg.num_back_edges = std::max<std::size_t>(2, nodes / 8);
  cfg.max_time = 3;
  cfg.max_volume = 3;
  return random_csdfg(cfg, /*seed=*/4242);
}

/// The CI gate: on every paper architecture, the 19-node portfolio winner
/// must not be longer than the serial driver (it runs the serial
/// configuration as attempt 0, so anything else is a bug).  Printed as a
/// table so the BENCH_*.json artifact's stdout shows the actual lengths.
void print_quality_gate() {
  bench::banner("portfolio vs serial, 19-node paper workload (CI gate)");
  const Csdfg g = paper_example19();
  std::cout << "architecture        serial  portfolio  bound  gap  winner\n";
  for (const Topology& topo : bench::paper_architectures()) {
    const StoreAndForwardModel comm(topo);
    const CycloCompactionResult serial = cyclo_compact(g, topo, comm, {});
    PortfolioOptions opt;
    opt.jobs = 0;  // whatever the machine has
    const PortfolioResult folio = portfolio_compact(g, topo, comm, opt);
    const int gap = folio.winner.best.length() - folio.lower_bound;
    std::cout << topo.name();
    for (std::size_t pad = topo.name().size(); pad < 20; ++pad)
      std::cout << ' ';
    std::cout << serial.best.length() << "       " << folio.winner.best.length()
              << "          " << folio.lower_bound << "      " << gap
              << "    #" << folio.winner_attempt << " ("
              << folio.winner_label << ")\n";
    if (gap == 0) {
      // A closed gap is a proof of optimality; show the certificate.
      if (const BoundResult* part = folio.bound.part(folio.bound.dominant))
        std::cout << "  provably optimal: " << part->witness << "\n";
    }
    if (folio.winner.best.length() > serial.best.length()) {
      std::cerr << "PORTFOLIO REGRESSION: winner " << folio.winner.best.length()
                << " > serial " << serial.best.length() << " on "
                << topo.name() << std::endl;
      std::abort();
    }
    if (folio.winner.best.length() < folio.lower_bound) {
      std::cerr << "BOUND UNSOUND: winner " << folio.winner.best.length()
                << " beats the claimed floor " << folio.lower_bound << " ("
                << folio.bound.dominant << ") on " << topo.name()
                << std::endl;
      std::abort();
    }
    if (!folio.certified) {
      std::cerr << "PORTFOLIO WINNER FAILED CERTIFICATION on " << topo.name()
                << std::endl;
      std::abort();
    }
  }
}

/// The serial driver's remap cost on the 19-node paper workload on the 4x2
/// mesh.  The measured time is the whole compaction; the exported counters
/// are the deterministic remap cost accounting of one run (bitset words
/// scanned and AN evaluations), which the committed baseline gates per
/// commit (`report --diff --gate remap.slots_scanned`).
void BM_RemapIncremental(benchmark::State& state) {
  const Csdfg g = paper_example19();
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  for (auto _ : state)
    benchmark::DoNotOptimize(cyclo_compact(g, topo, comm, {}));
  const CycloCompactionResult run = cyclo_compact(g, topo, comm, {});
  state.counters["remap.slots_scanned"] =
      ::benchmark::Counter(static_cast<double>(run.remap_stats.slots_scanned));
  state.counters["an.evaluations"] =
      ::benchmark::Counter(static_cast<double>(run.remap_stats.an_evaluations));
}
BENCHMARK(BM_RemapIncremental)->Unit(benchmark::kMillisecond);

void BM_SerialCompaction(benchmark::State& state) {
  const Csdfg g = scaling_graph(static_cast<std::size_t>(state.range(0)));
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  for (auto _ : state)
    benchmark::DoNotOptimize(cyclo_compact(g, topo, comm, {}));
}
BENCHMARK(BM_SerialCompaction)
    ->Arg(19)->Arg(48)
    ->Unit(benchmark::kMillisecond);

/// The full roster (24 attempts) at a given worker count.  The speedup over
/// BM_SerialCompaction×24 is the engine's parallel efficiency.  The exported
/// metrics are one run's.  At jobs 1 its work counters are deterministic,
/// and the committed baseline gates them per commit (`report --diff --gate
/// remap.slots_scanned,compaction.passes`); with more workers, how far an
/// attempt past the first one at the lower bound gets depends on thread
/// timing, so those rows export the portfolio.* gauges only.
void BM_Portfolio(benchmark::State& state) {
  const Csdfg g = scaling_graph(static_cast<std::size_t>(state.range(0)));
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  PortfolioOptions opt;
  opt.jobs = static_cast<int>(state.range(1));
  opt.certify_winner = false;  // measure the search, not the certifier
  for (auto _ : state)
    benchmark::DoNotOptimize(portfolio_compact(g, topo, comm, opt));
  MetricsRegistry metrics;
  (void)portfolio_compact(g, topo, comm, opt, {nullptr, &metrics});
  if (opt.jobs == 1) {
    bench::export_metrics(state, metrics);
    return;
  }
  for (const auto& [name, value] : metrics.gauges())
    state.counters[name] = ::benchmark::Counter(value);
}
BENCHMARK(BM_Portfolio)
    ->ArgsProduct({{19, 48}, {1, 2, 4, 8}})
    ->ArgNames({"nodes", "jobs"})
    ->Unit(benchmark::kMillisecond);

/// The static bound engine on the 19-node paper workload, one row per
/// paper architecture.  The measured time is compute_bounds itself (it
/// sits on the portfolio's setup path); the exported counters are pure
/// functions of (workload, architecture) — `bound.value` is the composite
/// floor and `bound.gap` the distance of the deterministic jobs=1
/// portfolio winner from it — so a BENCH json diff gated on `bound.gap`
/// (`ccsched report --diff --gate bound.gap`) turns any quality drift of
/// either the bound engine or the search into a CI failure.
void BM_BoundGap(benchmark::State& state) {
  const std::vector<Topology> archs = bench::paper_architectures();
  const Topology& topo = archs[static_cast<std::size_t>(state.range(0))];
  const Csdfg g = paper_example19();
  const StoreAndForwardModel comm(topo);
  for (auto _ : state)
    benchmark::DoNotOptimize(compute_bounds(g, topo, comm, {}));
  PortfolioOptions opt;
  opt.jobs = 1;
  opt.certify_winner = false;
  const PortfolioResult folio = portfolio_compact(g, topo, comm, opt);
  state.counters["bound.value"] =
      ::benchmark::Counter(static_cast<double>(folio.lower_bound));
  state.counters["bound.gap"] = ::benchmark::Counter(
      static_cast<double>(folio.winner.best.length() - folio.lower_bound));
  state.SetLabel(topo.name());
}
BENCHMARK(BM_BoundGap)
    ->DenseRange(0, 4)
    ->ArgNames({"arch"})
    ->Unit(benchmark::kMicrosecond);

/// Topology construction with and without the route cache: the portfolio
/// and the repair ladder construct the same machines over and over, and
/// the memoized tables turn the all-pairs BFS into a map lookup.
void BM_TopologyConstruction(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  RouteCache::global().clear();
  RouteCache::global().set_enabled(cached);
  for (auto _ : state) {
    const Topology topo = make_mesh(8, 8);
    benchmark::DoNotOptimize(topo.diameter());
  }
  const RouteCache::Stats stats = RouteCache::global().stats();
  state.counters["route_cache.hits"] =
      ::benchmark::Counter(static_cast<double>(stats.hits));
  state.counters["route_cache.misses"] =
      ::benchmark::Counter(static_cast<double>(stats.misses));
  RouteCache::global().set_enabled(true);
  state.SetLabel(cached ? "cached" : "uncached");
}
BENCHMARK(BM_TopologyConstruction)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/// A/B overhead of the span profiler on the serial driver: arg 0 runs with
/// a fully disabled ObsContext (the default-constructed context — every
/// span site is one null-pointer test), arg 1 attaches a live SpanProfiler.
/// Comparing the two rows against BM_SerialCompaction pins the acceptance
/// claim that observability-off costs nothing measurable.
void BM_CompactObsOverhead(benchmark::State& state) {
  const bool profiled = state.range(0) != 0;
  const Csdfg g = paper_example19();
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  SpanProfiler profiler;
  ObsContext obs;
  if (profiled) obs.profiler = &profiler;
  for (auto _ : state)
    benchmark::DoNotOptimize(cyclo_compact(g, topo, comm, {}, obs));
  if (profiled) {
    double spans = 0;
    for (const auto& [name, stat] : profiler.stats())
      spans += static_cast<double>(stat.durations.count());
    state.counters["spans.recorded"] = ::benchmark::Counter(spans);
  }
  state.SetLabel(profiled ? "profiled" : "obs-off");
}
BENCHMARK(BM_CompactObsOverhead)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_quality_gate();
  return ccs::bench::run_benchmarks(argc, argv);
}
