// Repair economics: what does surviving a fail-stop processor cost?
//
// For the 19-task workload of Figure 7 on each paper architecture, a single
// PE fails and the harness compares two recovery strategies:
//
//  * repair  — the degradation ladder (robust/repair.hpp): keep surviving
//    placements, re-place only the orphans, fall back to recompaction;
//  * rebuild — schedule the reduced machine from scratch with full
//    cyclo-compaction (the quality ceiling the repair is measured against).
//
// The summary prints, per architecture, which ladder rung won, the repaired
// length against the from-scratch length, and the pre-fault baseline; the
// google-benchmark section measures both latencies so BENCH_*.json records
// the speedup the ladder buys (repair.* counters ride along as user
// counters).
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "robust/fault_plan.hpp"
#include "robust/repair.hpp"
#include "util/text_table.hpp"
#include "workloads/library.hpp"

namespace {

using namespace ccs;

FaultPlan fail_pe_zero() {
  FaultPlan plan;
  plan.pe_faults.push_back({0, 0});
  return plan;
}

/// The reduced machine p0's death leaves behind, for the rebuild arm.
Topology reduced_machine(const Topology& topo) {
  const ReducedMachine rm = reduce_machine(topo, fail_pe_zero());
  if (!rm.connected) {
    std::cerr << "survivors of " << topo.name() << " are disconnected\n";
    std::abort();
  }
  return *rm.topo;
}

void print_summary() {
  const Csdfg g = paper_example19();
  TextTable summary;
  summary.set_header({"architecture", "baseline", "rung", "repaired",
                      "rebuilt", "orphans"});
  for (const Topology& topo : bench::paper_architectures()) {
    const auto base = bench::run_checked(g, topo, RemapPolicy::kWithRelaxation);
    const RepairOutcome outcome =
        repair_schedule(g, {base.retimed_graph, base.best, base.retiming},
                        topo, fail_pe_zero());
    if (!outcome.success) {
      std::cerr << "repair failed on " << topo.name() << ": "
                << outcome.detail << std::endl;
      std::abort();
    }
    const Topology reduced = reduced_machine(topo);
    const auto rebuilt =
        bench::run_checked(g, reduced, RemapPolicy::kWithRelaxation);
    summary.add_row({topo.name(), std::to_string(base.best_length()),
                     std::string(repair_rung_name(outcome.rung)),
                     std::to_string(outcome.schedule->length()),
                     std::to_string(rebuilt.best_length()),
                     std::to_string(outcome.orphans.size())});
  }
  bench::banner(
      "fail p0 @iter 0: degradation-ladder repair vs from-scratch rebuild");
  std::cout << summary.to_string();
}

void BM_RepairAfterFailStop(benchmark::State& state) {
  const Csdfg g = paper_example19();
  const auto archs = bench::paper_architectures();
  const Topology& topo = archs[static_cast<std::size_t>(state.range(0))];
  const auto base = bench::run_checked(g, topo, RemapPolicy::kWithRelaxation);
  const FaultPlan plan = fail_pe_zero();
  for (auto _ : state) {
    const RepairOutcome outcome = repair_schedule(
        g, {base.retimed_graph, base.best, base.retiming}, topo, plan);
    benchmark::DoNotOptimize(outcome.success);
  }
  // One untimed metered run exports the ladder's own accounting
  // (repair.attempts, repair.successes) into BENCH_*.json.
  MetricsRegistry metrics;
  const RepairOutcome metered =
      repair_schedule(g, {base.retimed_graph, base.best, base.retiming}, topo,
                      plan, {}, ObsContext{nullptr, &metrics});
  state.counters["repaired_length"] = ::benchmark::Counter(
      metered.success ? static_cast<double>(metered.schedule->length()) : 0.0);
  bench::export_metrics(state, metrics);
  state.SetLabel(topo.name());
}
BENCHMARK(BM_RepairAfterFailStop)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

void BM_RebuildFromScratch(benchmark::State& state) {
  const Csdfg g = paper_example19();
  const auto archs = bench::paper_architectures();
  const Topology topo =
      reduced_machine(archs[static_cast<std::size_t>(state.range(0))]);
  const StoreAndForwardModel comm(topo);
  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithRelaxation;
  for (auto _ : state)
    benchmark::DoNotOptimize(cyclo_compact(g, topo, comm, opt));
  MetricsRegistry metrics;
  const auto metered =
      cyclo_compact(g, topo, comm, opt, ObsContext{nullptr, &metrics});
  state.counters["rebuilt_length"] =
      ::benchmark::Counter(static_cast<double>(metered.best_length()));
  bench::export_metrics(state, metrics);
  state.SetLabel(topo.name());
}
BENCHMARK(BM_RebuildFromScratch)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_summary();
  return ccs::bench::run_benchmarks(argc, argv);
}
