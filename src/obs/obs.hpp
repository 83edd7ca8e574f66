// ccsched — the observability context handed through the pipeline.
//
// Every instrumented entry point (cyclo_compact, RemapEngine::remap,
// start_up_schedule, execute_static/execute_self_timed) takes a trailing
// `const ObsContext& obs = {}`: non-owning pointers to a Tracer, a
// MetricsRegistry, and a SpanProfiler.  The default context is fully
// disabled — hot paths pay one pointer test per instrumentation site and
// nothing else, so the uninstrumented configurations measured in bench/ are
// unaffected.
//
// Ownership stays with the caller (CLI, bench harness, tests); the context
// is trivially copyable and may be passed by value or reference.
#pragma once

#include <string_view>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace ccs {

struct ObsContext {
  Tracer* tracer = nullptr;            ///< Non-owning; nullptr = no tracing.
  MetricsRegistry* metrics = nullptr;  ///< Non-owning; nullptr = no metrics.
  SpanProfiler* profiler = nullptr;    ///< Non-owning; nullptr = no spans.

  /// True when events will actually be written — gate any event-only
  /// computation (e.g. per-decision PSL bounds) on this.
  [[nodiscard]] bool tracing() const noexcept {
    return tracer != nullptr && tracer->enabled();
  }

  /// True when spans will actually be recorded — gate any profiling-only
  /// clock reads (e.g. the per-evaluation AN histogram) on this.
  [[nodiscard]] bool profiling() const noexcept { return profiler != nullptr; }

  /// Counter increment; no-op without a registry.
  void count(std::string_view name, long long delta = 1) const {
    if (metrics != nullptr) metrics->add(name, delta);
  }

  /// RAII profiling span; fully inert without a profiler.  Span begin/end
  /// trace events ride along only when the profiler *and* the tracer are
  /// active, so profile-free traces stay byte-identical to before.
  [[nodiscard]] ObsSpan span(std::string_view name) const {
    return {profiler, name, profiler != nullptr ? tracer : nullptr};
  }

  /// Event emission; no-op without an enabled tracer.
  template <class Event>
  void emit(const Event& e) const {
    if (tracer != nullptr) tracer->emit(e);
  }
};

}  // namespace ccs
