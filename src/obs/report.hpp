// ccsched — run-report rendering and regression diffing.
//
// The `ccsched report` CLI mode consumes the JSON documents the rest of the
// observability layer produces — `--stats` metric snapshots, `--profile`
// Chrome-trace timelines, and google-benchmark `BENCH_*.json` outputs — and
// turns them into (a) a self-time-sorted hot-path breakdown and (b) a
// machine-gateable diff of two runs with per-metric deltas and a regression
// threshold.  CI fails a change by exit code, not by eyeballing charts.
//
// Every document is first *flattened* into dotted numeric paths:
//   {"counters":{"an.evaluations":9}}    -> counters.an.evaluations = 9
//   {"spans":{"remap":{"self_ms":1.5}}}  -> spans.remap.self_ms = 1.5
//   {"benchmarks":[{"name":"BM_X", ...}]} -> benchmarks.BM_X.real_time = ...
//   {"traceEvents":[...]}                 -> profile.<span>.self_ms = ...
// (arrays of named objects key by their "name"; trace events aggregate per
// span name).  The diff then works on the union of paths, so stats files
// and bench files gate through the same machinery.
//
// Documents are read with parse_json (obs/json.hpp), which never throws on
// malformed input: it reports one error string and returns false, which the
// CLI maps to an operational failure.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace ccs {

/// A flattened metrics document: dotted numeric paths only (booleans count
/// as 0/1; strings are dropped).
struct FlatMetrics {
  std::map<std::string, double> values;
};

/// Parses `text` (stats JSON, BENCH_*.json, or a Chrome-trace profile) into
/// flat metric paths.  Returns false and fills `error` on malformed JSON.
[[nodiscard]] bool flatten_metrics_json(const std::string& text,
                                        FlatMetrics& out, std::string& error);

/// Self-time-sorted hot-path table of the profiler data (profile.* or
/// spans.* paths); says so when the document carries none.
[[nodiscard]] std::string render_hot_path_report(const FlatMetrics& m);

/// One metric's before/after comparison.
struct MetricDelta {
  std::string name;
  double before = 0.0;
  double after = 0.0;
  double pct = 0.0;        ///< Relative change in percent (after vs before).
  bool gated = false;      ///< The metric's category is being gated.
  bool regression = false; ///< Gated and grew by at least the threshold.
};

struct DiffOptions {
  /// Minimum relative growth (percent) of a gated metric that counts as a
  /// regression.
  double threshold_pct = 5.0;
  /// Comma-separated list of gate tokens; "all" gates every path.  A plain
  /// token gates a whole top-level category ("counters"); a token with a
  /// dot gates every path containing it as a substring ("bound.gap" gates
  /// benchmarks.*.bound.gap.* wherever it sits).  Times are
  /// machine-dependent, so CI diffs of deterministic runs typically gate
  /// "counters" only.
  std::string gate = "counters,spans,benchmarks,profile";
};

struct DiffResult {
  std::vector<MetricDelta> deltas;  ///< Changed/added/removed paths only.
  bool regressed = false;           ///< Any delta crossed the threshold.
};

[[nodiscard]] DiffResult diff_metrics(const FlatMetrics& before,
                                      const FlatMetrics& after,
                                      const DiffOptions& options);

/// Human-readable diff table plus a one-line verdict.
[[nodiscard]] std::string render_diff(const DiffResult& diff,
                                      const DiffOptions& options);

}  // namespace ccs
