// Serve-loop benchmark (src/serve, this PR): what a resident `ccsched
// serve` process actually delivers — end-to-end request throughput, the
// microsecond cache-hit fast path the ladder leans on under tight
// deadlines, and the shed rate when the bounded admission queue saturates.
//
// Two roles:
//  * measurement — BM_ServeMixedThroughput streams a mixed corpus (cold
//    solves, cache hits, garbage, expired deadlines) and reports
//    requests/second; BM_ServeCacheHitStream isolates the warm path
//    (codec + admission + try_cached + response render) in us/request;
//    BM_ServeSaturationShed measures how a depth-1 queue sheds a burst.
//  * CI gate — print_quality_gate() runs a 256-line mixed soak and
//    aborts if any line goes unanswered, if the warm stream misses the
//    cache, or if saturation fails to shed: the three load-bearing
//    robustness claims of the serve loop, checked on every bench run.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "engine/solve_cache.hpp"
#include "serve/service.hpp"

namespace {

using namespace ccs;

constexpr const char* kGraph =
    "graph bench\\nnode x 1\\nnode y 2\\nedge x y 0 2\\nedge y x 2 1\\n";

std::string solve_line(const std::string& id, const std::string& extra = "") {
  return "{\"op\":\"solve\",\"id\":\"" + id + "\",\"graph\":\"" + kGraph +
         "\",\"arch\":\"mesh 2 1\"" + extra + "}\n";
}

struct RunResult {
  ServeSummary summary;
  std::string out;
};

RunResult serve_all(const std::string& input, const ServeOptions& opts) {
  std::istringstream in(input);
  std::ostringstream out;
  std::ostringstream err;  // summary line: not part of the measurement
  RunResult r;
  r.summary = run_serve(in, out, err, opts);
  r.out = out.str();
  return r;
}

/// One full-rung solve of the bench graph, so every later identical
/// request rides the tier-1 cache replay.
void warm_cache() {
  SolveCache::global().set_enabled(true);
  ServeOptions opts;
  const RunResult r = serve_all(solve_line("warm"), opts);
  if (r.summary.answered != 1 ||
      r.out.find("\"status\":\"ok\"") == std::string::npos) {
    std::cerr << "WARM SOLVE FAILED: " << r.out << std::endl;
    std::abort();
  }
}

std::string mixed_corpus(int lines) {
  std::string input;
  for (int i = 0; i < lines; ++i) {
    switch (i % 4) {
      case 0:
        input += solve_line(std::string("s").append(std::to_string(i)));
        break;
      case 1:
        input += solve_line(std::string("d").append(std::to_string(i)),
                            ",\"deadline_ms\":40");
        break;
      case 2: input += "this line is not json\n"; break;
      default:
        input += solve_line(std::string("x").append(std::to_string(i)),
                            ",\"deadline_ms\":-1");
        break;
    }
  }
  return input;
}

/// The CI gate: the three robustness claims the serve loop makes.
void print_quality_gate() {
  bench::banner("serve loop: soak, warm fast path, shed under saturation");
  SolveCache::global().clear();
  warm_cache();

  // 1. Mixed soak: every line answered, none lost, loop survives garbage.
  constexpr int kSoak = 256;
  ServeOptions soak_opts;
  soak_opts.jobs = 4;
  soak_opts.queue_depth = 64;
  const RunResult soak = serve_all(mixed_corpus(kSoak), soak_opts);
  std::cout << "soak: " << soak.summary.answered << "/" << kSoak
            << " answered, " << soak.summary.parse_errors
            << " parse errors, " << soak.summary.deadline_rejects
            << " deadline rejects\n";
  if (soak.summary.lines != kSoak || soak.summary.answered != kSoak) {
    std::cerr << "SERVE SOAK LOST REQUESTS: answered "
              << soak.summary.answered << " of " << soak.summary.lines
              << " (expected " << kSoak << ")" << std::endl;
    std::abort();
  }

  // 2. Warm fast path: identical resubmissions must all hit the cache.
  constexpr int kWarm = 64;
  std::string warm_input;
  for (int i = 0; i < kWarm; ++i)
    warm_input += solve_line(std::string("h").append(std::to_string(i)));
  ServeOptions warm_opts;  // jobs=1: pure fast-path latency
  warm_opts.queue_depth = kWarm;  // the reader outpaces one worker: no shed
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult warm = serve_all(warm_input, warm_opts);
  const auto t1 = std::chrono::steady_clock::now();
  const double us_per_req =
      std::chrono::duration<double, std::micro>(t1 - t0).count() / kWarm;
  std::cout << "warm stream: " << us_per_req << " us/request ("
            << warm.summary.cache_hits << "/" << kWarm << " cache hits)\n";
  if (warm.summary.cache_hits != kWarm) {
    std::cerr << "WARM STREAM MISSED THE CACHE: " << warm.summary.cache_hits
              << " hits of " << kWarm << std::endl;
    std::abort();
  }

  // 3. Saturation: a depth-1 queue behind a sleeping worker must shed the
  //    burst with structured `overloaded` responses, not block or drop.
  ServeOptions shed_opts;
  shed_opts.queue_depth = 1;
  std::string burst = "{\"op\":\"sleep\",\"sleep_ms\":120}\n";
  constexpr int kBurst = 16;
  for (int i = 0; i < kBurst; ++i)
    burst += solve_line(std::string("b").append(std::to_string(i)));
  const RunResult shed = serve_all(burst, shed_opts);
  const double shed_rate =
      static_cast<double>(shed.summary.shed) / (kBurst + 1);
  std::cout << "saturation: " << shed.summary.shed << "/" << kBurst + 1
            << " shed (rate " << shed_rate << ")\n";
  if (shed.summary.shed == 0 ||
      shed.summary.answered != shed.summary.lines) {
    std::cerr << "SATURATION DID NOT SHED (shed=" << shed.summary.shed
              << ", answered=" << shed.summary.answered << "/"
              << shed.summary.lines << ")" << std::endl;
    std::abort();
  }
}

/// End-to-end throughput on the mixed corpus: the figure a deployment
/// sizes worker counts against.  `serve.answered_rate` pins losslessness.
void BM_ServeMixedThroughput(benchmark::State& state) {
  SolveCache::global().clear();
  warm_cache();
  const int lines = static_cast<int>(state.range(0));
  const std::string input = mixed_corpus(lines);
  ServeOptions opts;
  opts.jobs = 4;
  opts.queue_depth = 64;
  ServeSummary last;
  for (auto _ : state) {
    const RunResult r = serve_all(input, opts);
    last = r.summary;
    benchmark::DoNotOptimize(r.out);
  }
  state.SetItemsProcessed(state.iterations() * lines);
  state.counters["serve.answered_rate"] = ::benchmark::Counter(
      last.lines > 0
          ? static_cast<double>(last.answered) / static_cast<double>(last.lines)
          : 0);
}
BENCHMARK(BM_ServeMixedThroughput)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// The warm fast path in isolation: every line is an identical certified
/// resubmission, so per-item time is codec + admission + tier-1 replay.
void BM_ServeCacheHitStream(benchmark::State& state) {
  SolveCache::global().clear();
  warm_cache();
  constexpr int kLines = 64;
  std::string input;
  for (int i = 0; i < kLines; ++i)
    input += solve_line(std::string("h").append(std::to_string(i)));
  ServeOptions opts;  // jobs=1: latency, not parallelism
  opts.queue_depth = kLines;  // hold the whole stream: no admission shed
  ServeSummary last;
  for (auto _ : state) {
    const RunResult r = serve_all(input, opts);
    last = r.summary;
    benchmark::DoNotOptimize(r.out);
  }
  state.SetItemsProcessed(state.iterations() * kLines);
  state.counters["serve.hit_rate"] = ::benchmark::Counter(
      last.lines > 0 ? static_cast<double>(last.cache_hits) /
                           static_cast<double>(last.lines)
                     : 0);
}
BENCHMARK(BM_ServeCacheHitStream)->Unit(benchmark::kMillisecond);

/// Admission under overload: a sleeping worker pins a depth-1 queue while
/// a burst arrives.  The shed responses are immediate, so the measured
/// time is dominated by the hog — the exported `serve.shed_rate` is the
/// interesting number.
void BM_ServeSaturationShed(benchmark::State& state) {
  SolveCache::global().clear();
  warm_cache();
  constexpr int kBurst = 16;
  std::string input = "{\"op\":\"sleep\",\"sleep_ms\":50}\n";
  for (int i = 0; i < kBurst; ++i)
    input += solve_line(std::string("b").append(std::to_string(i)));
  ServeOptions opts;
  opts.queue_depth = 1;
  ServeSummary last;
  for (auto _ : state) {
    const RunResult r = serve_all(input, opts);
    last = r.summary;
    benchmark::DoNotOptimize(r.out);
  }
  state.counters["serve.shed_rate"] = ::benchmark::Counter(
      last.lines > 0
          ? static_cast<double>(last.shed) / static_cast<double>(last.lines)
          : 0);
  state.counters["serve.answered_rate"] = ::benchmark::Counter(
      last.lines > 0
          ? static_cast<double>(last.answered) / static_cast<double>(last.lines)
          : 0);
}
BENCHMARK(BM_ServeSaturationShed)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_quality_gate();
  return ccs::bench::run_benchmarks(argc, argv);
}
