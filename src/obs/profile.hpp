// ccsched — span profile exporters.
//
// Two consumers of a SpanProfiler's data (obs/span.hpp):
//
//  * chrome_trace_json renders the full span timeline as a Chrome
//    `trace_event` JSON document — complete ("X") events with microsecond
//    timestamps, one track per recorded thread — loadable directly in
//    chrome://tracing or https://ui.perfetto.dev.
//  * export_span_stats folds the per-name aggregates (count, total, self
//    time, approximate p50/p95, max) into a MetricsRegistry's "spans"
//    section, so `--stats` documents and text tables carry the hot-path
//    histogram summary next to the counters and gauges.
//
// Both are snapshot-based: call them after the instrumented run finishes
// (and after per-worker profilers were absorbed).  docs/OBSERVABILITY.md
// documents the output formats.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace ccs {

/// The profiler's timeline as one Chrome trace_event JSON document
/// ({"traceEvents":[...]}).  Deterministic given the records: events keep
/// recording order, thread-name metadata rows are sorted by tid.
[[nodiscard]] std::string chrome_trace_json(const SpanProfiler& profiler);

/// Writes one SpanSummary per span name into `registry` (overwriting any
/// previous summary of the same name), in milliseconds.
void export_span_stats(const SpanProfiler& profiler,
                       MetricsRegistry& registry);

}  // namespace ccs
