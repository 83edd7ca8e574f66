// Ablation (DESIGN.md A-series extension): the storage price of speed.
//
// The paper optimizes schedule length only; every rotation that shortens
// the table pushes delays onto edges, and each delay is a live value that
// must be buffered.  This bench traces (length, total buffers) across
// cyclo-compaction passes for the walkthrough graph and the filters,
// quantifying the classic retiming trade-off the paper leaves implicit.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hpp"
#include "core/buffers.hpp"
#include "core/list_scheduler.hpp"
#include "core/remap_engine.hpp"
#include "util/text_table.hpp"
#include "workloads/library.hpp"
#include "workloads/transforms.hpp"

namespace {

using namespace ccs;

/// Re-runs the compaction loop pass by pass, reporting buffers alongside
/// lengths (the driver itself records lengths only).
void trace_passes(const Csdfg& original, const Topology& topo, int passes) {
  const StoreAndForwardModel comm(topo);
  RemapEngine engine(original, comm);
  engine.bind(start_up_schedule(original, topo, comm));

  TextTable t;
  t.set_header({"pass", "length", "total buffers", "max edge", "lower bound"});
  auto report = [&](const std::string& label) {
    const Csdfg& g = engine.graph();
    const BufferReport b = buffer_requirements(g, engine.table(), comm);
    t.add_row({label, std::to_string(engine.length()),
               std::to_string(b.total), std::to_string(b.max_edge),
               std::to_string(buffer_lower_bound(g))});
  };
  report("startup");
  for (int pass = 1; pass <= passes; ++pass) {
    const int previous = engine.length();
    const auto rotated = engine.rotate();
    if (!engine.remap(rotated, previous, RemapPolicy::kWithRelaxation,
                      RemapSelection::kBidirectional))
      break;
    engine.commit();
    report(std::to_string(pass));
  }
  std::cout << t.to_string();
}

void print_tradeoff() {
  bench::banner("storage-vs-length trace: paper walkthrough on mesh(2x2)");
  trace_passes(paper_example6(), make_mesh(2, 2), 8);
  bench::banner("storage-vs-length trace: lattice filter on complete(8)");
  trace_passes(lattice_filter(), make_complete(8), 10);
  bench::banner(
      "storage-vs-length trace: elliptic (slowdown 2) on hypercube(3)");
  trace_passes(slowdown(elliptic_filter(), 2), make_hypercube(3), 12);
  std::cout << "\nReading: every length reduction is purchased with extra "
               "live values (retiming registers); the lower-bound column is "
               "the graph's intrinsic storage floor.\n";
}

void BM_BufferAnalysis(benchmark::State& state) {
  const Csdfg g = lattice_filter();
  const Topology topo = make_complete(8);
  const StoreAndForwardModel comm(topo);
  const ScheduleTable t = start_up_schedule(g, topo, comm);
  for (auto _ : state)
    benchmark::DoNotOptimize(buffer_requirements(g, t, comm));
}
BENCHMARK(BM_BufferAnalysis)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_tradeoff();
  return ccs::bench::run_benchmarks(argc, argv);
}
