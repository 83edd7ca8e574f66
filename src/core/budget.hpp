// ccsched — run budgets: cooperative cancellation for open-ended searches.
//
// Cyclo-compaction runs a fixed number of rotate-remap passes, but a
// production caller cannot afford "fixed" to mean "minutes": a serving
// deadline, a repair path racing a failover, or a CI job all need the
// driver to stop early and hand back the best schedule found so far.  A
// RunBudget expresses three independent stop conditions checked at pass
// boundaries (the passes themselves are short; finer-grained cancellation
// would buy nothing and cost determinism):
//
//  * max_passes — a hard cap below the configured pass count;
//  * deadline_ms — wall-clock, measured on an *injectable* clock so tests
//    and replay stay deterministic (the default steady clock is only used
//    when no clock is supplied);
//  * patience — stop after this many consecutive passes without a new
//    best length (the paper's examples converge within a handful of
//    passes; the rest is wasted work).
//
// Budgeted runs are never worse than unbudgeted ones in correctness terms:
// the driver always returns the best-so-far schedule, which is valid and
// no longer than the start-up schedule (Theorem 4.4 / best-so-far
// bookkeeping).  With a ManualBudgetClock (or no deadline) the run is
// bit-for-bit deterministic: same graph, options, and budget give the same
// schedule and the same trace.
#pragma once

#include <chrono>

namespace ccs {

/// Clock abstraction for deadline budgets.  Injectable so budgeted runs
/// can be made deterministic (tests drive a ManualBudgetClock).
class BudgetClock {
public:
  virtual ~BudgetClock() = default;
  /// Milliseconds since an arbitrary fixed origin; must be monotone.
  [[nodiscard]] virtual long long now_ms() const = 0;
};

/// The real monotonic clock (used when a deadline is set but no clock is
/// injected).  Nondeterministic by nature — prefer an injected clock
/// anywhere reproducibility matters.
class SteadyBudgetClock final : public BudgetClock {
public:
  [[nodiscard]] long long now_ms() const override {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

/// The process's one SteadyBudgetClock: what a null clock pointer selects
/// wherever a deadline is measured.
[[nodiscard]] inline const BudgetClock& steady_budget_clock() {
  static const SteadyBudgetClock clock;
  return clock;
}

/// A hand-cranked clock for tests: time advances only when told to, so a
/// deadline budget fires at an exactly reproducible pass.
class ManualBudgetClock final : public BudgetClock {
public:
  [[nodiscard]] long long now_ms() const override { return now_; }
  void advance(long long ms) { now_ += ms; }
  void set(long long ms) { now_ = ms; }

private:
  long long now_ = 0;
};

/// Cooperative external stop signal, checked at the same pass boundaries as
/// the budget conditions.  This is how work *outside* the run preempts it:
/// a serving layer signals shutdown (the serve drain token).
/// Implementations receive the caller's current best schedule length so
/// they can decide with full information, and must tolerate being called
/// from the running thread while other threads update the underlying state
/// (the drain token is an atomic flag).
class BudgetStopToken {
public:
  virtual ~BudgetStopToken() = default;
  /// True when the run should stop now and return its best-so-far result.
  /// `current_best` is the length of the caller's best schedule so far.
  [[nodiscard]] virtual bool stop_requested(int current_best) const = 0;
};

/// Stop conditions for cyclo_compact.  Zero values disable a condition;
/// the default budget is fully open (today's behavior).
struct RunBudget {
  /// Hard cap on rotate-remap passes executed (0 = no cap; the options'
  /// pass count still applies).
  int max_passes = 0;
  /// Wall-clock deadline in milliseconds from the start of the run
  /// (0 = none); a portfolio is one run, so its attempts share one
  /// deadline.  Checked at pass boundaries on deadline_clock().
  long long deadline_ms = 0;
  /// Stop after this many consecutive passes without improving the best
  /// length (0 = never).
  int patience = 0;
  /// Non-owning deadline clock; must outlive the run.  Null selects the
  /// real steady clock.
  const BudgetClock* clock = nullptr;
  /// Non-owning external stop signal; must outlive the run.  Null means no
  /// external preemption.  Fires the "preempted" stop reason.
  const BudgetStopToken* stop = nullptr;

  /// `clock`, or the steady clock when it is null.
  [[nodiscard]] const BudgetClock& deadline_clock() const {
    return clock != nullptr ? *clock : steady_budget_clock();
  }

  /// The clock reading the deadline counts from, for a run starting now;
  /// 0 without a deadline, when no clock is read.
  [[nodiscard]] long long start_ms() const {
    return deadline_ms > 0 ? deadline_clock().now_ms() : 0;
  }

  /// True when any stop condition is configured.
  [[nodiscard]] bool active() const noexcept {
    return max_passes > 0 || deadline_ms > 0 || patience > 0 ||
           stop != nullptr;
  }
};

}  // namespace ccs
