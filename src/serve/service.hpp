// ccsched — the long-running solve service (docs/SERVE.md).
//
// `ccsched serve` turns the one-shot Solver facade into a resident
// request/response loop: JSON Lines in, JSON Lines out, many requests
// multiplexed onto a pool of worker threads that share the process-global
// SolveCache.  The design goal is the robustness ladder, in order:
//
//  1. Admission control.  A bounded queue caps memory; a full queue sheds
//     the request with a structured `overloaded` response instead of
//     stalling the reader or growing without bound.  A request whose
//     deadline_ms is non-positive is refused with CCS-E003 before any
//     work; one that ages out while queued is refused at dequeue.
//
//  2. Graceful degradation.  The remaining wall-clock allowance at
//     dequeue picks a ladder rung: full requested mode -> single-attempt
//     compaction -> start-up list schedule -> bound-only answer (the
//     CCS-B composite lower bound with no schedule, kUncertified).  The
//     answering rung is reported in the response's `degraded` field, and
//     a rung never *upgrades* the request — a "startup" request stays a
//     startup request on every rung that still schedules.
//
//  3. Fault containment.  Malformed, oversized, or hostile lines become
//     structured CCS-coded error responses (io/serve_codec.hpp); a worker
//     exception is contained to that request; the loop itself never dies
//     on input.
//
//  4. Drain semantics.  EOF, {"op":"shutdown"}, SIGINT or SIGTERM stop
//     admission; queued work drains under `drain_ms`, after which
//     in-flight solves are preempted through their BudgetStopToken and
//     still-queued requests get structured draining refusals.  The
//     service always answers every admitted request exactly once.
//
// Responses are emitted in input-line order (a sequencer holds
// out-of-order completions), so a single-worker run without deadlines is
// byte-for-byte deterministic — the property the CI smoke gate pins.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/budget.hpp"
#include "obs/obs.hpp"

namespace ccs {

/// Service configuration; every knob has a production default and every
/// test can shrink it.
struct ServeOptions {
  /// Worker threads solving admitted requests (>= 1).
  int jobs = 1;
  /// Bounded admission queue depth; a full queue sheds (>= 1).
  std::size_t queue_depth = 16;
  /// Drain allowance after admission stops, in ms of real time.  Once
  /// spent, in-flight solves are preempted and queued requests refused.
  long long drain_ms = 2000;
  /// Request-line byte cap; longer lines are refused unparsed.
  std::size_t max_line_bytes = 1 << 20;
  /// Deadline applied to requests that carry none (0 = unlimited).
  long long default_deadline_ms = 0;
  /// Degradation ladder thresholds on remaining_ms at dequeue:
  /// >= full_ms runs the requested mode, >= compact_ms a single
  /// compaction attempt, >= list_ms the start-up list schedule, below
  /// that the bound-only answer.
  long long full_ms = 200;
  long long compact_ms = 50;
  long long list_ms = 5;
  /// Injectable clock for request deadlines; null = steady.  The drain
  /// allowance is always measured on the real clock.
  const BudgetClock* clock = nullptr;
};

/// The ladder rung a request is answered on.
enum class ServeRung { kFull, kCompact, kList, kBound };

/// Picks the rung from the wall-clock allowance left at dequeue.
[[nodiscard]] ServeRung pick_serve_rung(long long remaining_ms,
                                        const ServeOptions& opts);

/// The `degraded` field value: "" (full), "compact", "list-schedule",
/// "bound-only".
[[nodiscard]] std::string_view serve_rung_name(ServeRung rung);

/// End-of-run accounting; also rendered as one JSON summary line on the
/// error stream so stdout stays a pure response stream.
struct ServeSummary {
  long long lines = 0;           ///< non-blank request lines read
  long long admitted = 0;        ///< entered the work queue
  long long answered = 0;        ///< responses emitted (== lines)
  long long shed = 0;            ///< refused by admission control
  long long parse_errors = 0;    ///< malformed lines answered CCS-E001
  long long deadline_rejects = 0;///< CCS-E003 at admission or dequeue
  long long degraded = 0;        ///< answered below the full rung
  long long cache_hits = 0;      ///< served from the SolveCache
  long long worker_faults = 0;   ///< contained worker exceptions
  long long drain_refusals = 0;  ///< refused because the service drained
  std::string stop_cause;        ///< "eof" | "shutdown-op" | "signal"
};

/// Runs the service over a request stream until EOF / shutdown / signal.
/// Never throws.  Counters land in `obs` (serve.* names) and the summary
/// is returned and written to `err`.
ServeSummary run_serve(std::istream& in, std::ostream& out,
                       std::ostream& err, const ServeOptions& opts,
                       const ObsContext& obs = {});

/// Listens on a Unix-domain socket, serving one client connection at a
/// time (each connection is an independent run_serve stream) until a
/// shutdown request or signal.  Returns false with a message on `err`
/// when the socket cannot be bound.
bool run_serve_socket(const std::string& path, const ServeOptions& opts,
                      std::ostream& err, const ObsContext& obs = {});

/// Asks any running serve loop in this process to stop admission and
/// drain — the signal handlers call this, and tests may too.
void request_serve_shutdown() noexcept;

/// Installs SIGINT/SIGTERM handlers that call request_serve_shutdown().
/// CLI-only; libraries embedding run_serve manage their own signals.
void install_serve_signal_handlers();

}  // namespace ccs
