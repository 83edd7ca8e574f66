// ccsched — the metrics registry.
//
// A registry of named counters and gauges that the scheduling pipeline
// populates when a caller asks for one (ObsContext), plus the per-span
// summaries the profiler exports into it after a run.  Counters accumulate
// hot-path tallies (AN evaluations, PSL rejections, slots scanned, validate
// calls); stage wall times are spans (obs/span.hpp).  The registry exports
// itself as one JSON document (machine consumption: CLI --stats, the bench
// BENCH_*.json outputs) or as an aligned text table (util/text_table, for
// the CLI's `stats` section).
//
// The registry is a plain value type: no globals, no threads, deterministic
// iteration order (sorted by name).  Metric names are dotted lowercase
// ("an.evaluations", "schedule.best_length"); the full catalogue lives in
// docs/OBSERVABILITY.md.
#pragma once

#include <map>
#include <string>
#include <string_view>

namespace ccs {

class MetricsRegistry {
public:
  /// Exported summary of one profiler span name (obs/span.hpp): counts and
  /// millisecond totals plus the approximate histogram quantiles.  Written
  /// by export_span_stats (obs/profile.hpp) after the run.
  struct SpanSummary {
    long long count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double max_ms = 0.0;
  };

  using CounterMap = std::map<std::string, long long, std::less<>>;
  using GaugeMap = std::map<std::string, double, std::less<>>;
  using SpanMap = std::map<std::string, SpanSummary, std::less<>>;

  /// Adds `delta` to counter `name` (created at 0 on first use).
  void add(std::string_view name, long long delta = 1);

  /// Sets gauge `name` to `value` (last write wins).
  void set(std::string_view name, double value);

  /// Current counter value; 0 when never touched.
  [[nodiscard]] long long counter(std::string_view name) const;

  /// Current gauge value; 0.0 when never set.
  [[nodiscard]] double gauge(std::string_view name) const;

  /// Sets the exported summary for span `name` (last write wins — span
  /// summaries come from one profiler snapshot, already aggregated; merge
  /// profilers with SpanProfiler::absorb *before* exporting).
  void set_span(std::string_view name, const SpanSummary& summary);

  /// Exported span summary; zeroes when never set.
  [[nodiscard]] SpanSummary span(std::string_view name) const;

  [[nodiscard]] const CounterMap& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const GaugeMap& gauges() const noexcept { return gauges_; }
  [[nodiscard]] const SpanMap& spans() const noexcept { return spans_; }

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && spans_.empty();
  }

  /// Adds every counter of `other` into this registry; gauges and span
  /// summaries are overwritten.  Aggregates per-run registries into
  /// one report.
  void merge(const MetricsRegistry& other);

  void clear();

  /// One JSON document:
  ///   {"counters":{...},"gauges":{...},
  ///    "spans":{"name":{"count":N,"total_ms":X,"self_ms":X,
  ///                     "p50_ms":X,"p95_ms":X,"max_ms":X}}}
  /// The "spans" member appears only when at least one summary was set, so
  /// a profile-free stats document holds counters and gauges only.
  [[nodiscard]] std::string to_json() const;

  /// Aligned text table (metric | type | value), one row per metric.
  [[nodiscard]] std::string to_text() const;

private:
  CounterMap counters_;
  GaugeMap gauges_;
  SpanMap spans_;
};

}  // namespace ccs
