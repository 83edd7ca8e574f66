// ccsched — shared helpers for the benchmark harness.
//
// Every bench binary regenerates one of the paper's artifacts (DESIGN.md §4)
// by printing the relevant tables/series to stdout before handing control to
// google-benchmark for the wall-clock measurements.  All binaries run with
// no arguments and terminate in seconds.
#pragma once

#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/validator.hpp"
#include "obs/obs.hpp"

// Injected per-binary by bench/CMakeLists.txt (ccs_bench); the fallbacks
// keep the header compilable in isolation.
#ifndef CCS_BENCH_NAME
#define CCS_BENCH_NAME "unnamed"
#endif
#ifndef CCS_BENCH_OUT_DIR
#define CCS_BENCH_OUT_DIR "."
#endif

namespace ccs::bench {

/// Version of the BENCH_*.json document layout this harness emits.  The
/// regression tooling (`ccsched report --diff`) keys on it; bump when the
/// counter names or the context surgery below change shape.
inline constexpr const char* kBenchSchemaVersion = "1";

/// Inserts `"ccsched_schema_version"` into the google-benchmark "context"
/// object of an already-written JSON report.  google-benchmark offers no
/// hook for custom context fields, so the stamp is string surgery on the
/// serialized document; a file that does not look like a benchmark report
/// is left untouched.
inline void stamp_schema_version(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  in.close();
  const std::size_t key = text.find("\"context\":");
  if (key == std::string::npos) return;
  const std::size_t brace = text.find('{', key);
  if (brace == std::string::npos) return;
  const std::string field = std::string("\n    \"ccsched_schema_version\": \"") +
                            kBenchSchemaVersion + "\",";
  text.insert(brace + 1, field);
  std::ofstream out(path);
  if (!out) return;
  out << text;
}

/// Shared benchmark entry point: forwards to google-benchmark, defaulting
/// the JSON report to <repo-root>/BENCH_<binary>.json (`--out PATH`
/// overrides the destination; a raw --benchmark_out flag is honored
/// verbatim and skips the schema stamp).  Returns the process exit code.
inline int run_benchmarks(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  std::string out_path;
  bool user_out = false;
  std::vector<std::string> forwarded;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
      continue;
    }
    if (a == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
      continue;
    }
    if (a.rfind("--benchmark_out=", 0) == 0) user_out = true;
    forwarded.push_back(a);
  }
  if (!user_out) {
    if (out_path.empty())
      out_path = std::string(CCS_BENCH_OUT_DIR) + "/BENCH_" +
                 CCS_BENCH_NAME + ".json";
    forwarded.push_back("--benchmark_out=" + out_path);
    forwarded.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> cargv;
  cargv.reserve(forwarded.size() + 1);
  for (std::string& s : forwarded) cargv.push_back(s.data());
  cargv.push_back(nullptr);
  int cargc = static_cast<int>(forwarded.size());
  ::benchmark::Initialize(&cargc, cargv.data());
  if (::benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  if (!user_out) stamp_schema_version(out_path);
  return 0;
}

/// The paper's five experiment architectures at 8 PEs (Figure 8).
inline std::vector<Topology> paper_architectures() {
  std::vector<Topology> archs;
  archs.push_back(make_complete(8));
  archs.push_back(make_linear_array(8));
  archs.push_back(make_ring(8));
  archs.push_back(make_mesh(4, 2));
  archs.push_back(make_hypercube(3));
  return archs;
}

/// Runs cyclo-compaction and asserts validity (a bench must never report a
/// broken schedule); returns the result.  When `metrics` is non-null the
/// run's pipeline counters accumulate into it.
inline CycloCompactionResult run_checked(const Csdfg& g, const Topology& topo,
                                         RemapPolicy policy,
                                         MetricsRegistry* metrics = nullptr) {
  const StoreAndForwardModel comm(topo);
  CycloCompactionOptions opt;
  opt.policy = policy;
  CycloCompactionResult res =
      cyclo_compact(g, topo, comm, opt, ObsContext{nullptr, metrics});
  if (metrics != nullptr) metrics->add("validate.calls");
  const auto report = validate_schedule(res.retimed_graph, res.best, comm);
  if (!report.ok()) {
    std::cerr << "INVALID SCHEDULE in bench (" << g.name() << " on "
              << topo.name() << "):\n"
              << report.to_string() << std::endl;
    std::abort();
  }
  return res;
}

/// Publishes a metrics registry as google-benchmark user counters so every
/// `--benchmark_out=BENCH_*.json` run carries the pipeline's own accounting
/// (AN evaluations, PSL rejections, pass counts) next to the wall-clock
/// numbers — the perf trajectory is self-describing.  Counter totals span
/// all iterations of the timing loop; divide by `state.iterations()` for
/// per-run values.
inline void export_metrics(::benchmark::State& state,
                           const MetricsRegistry& metrics) {
  for (const auto& [name, value] : metrics.counters())
    state.counters[name] = ::benchmark::Counter(static_cast<double>(value));
  for (const auto& [name, value] : metrics.gauges())
    state.counters[name] = ::benchmark::Counter(value);
}

/// Section header in the harness output.
inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

}  // namespace ccs::bench
