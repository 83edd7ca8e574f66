#include "robust/deadline.hpp"

namespace ccs {

RequestDeadline::RequestDeadline(long long deadline_ms,
                                 const BudgetClock* clock)
    : deadline_ms_(deadline_ms),
      clock_(clock != nullptr ? clock : &steady_budget_clock()) {
  admitted_ms_ = clock_->now_ms();
}

long long RequestDeadline::remaining_ms() const {
  if (unlimited()) return kUnlimitedMs;
  const long long spent = clock_->now_ms() - admitted_ms_;
  const long long left = deadline_ms_ - spent;
  return left > 0 ? left : 0;
}

RunBudget RequestDeadline::budget(const BudgetStopToken* stop) const {
  RunBudget b;
  b.stop = stop;
  if (!unlimited()) {
    b.deadline_ms = remaining_ms();
    // The budget measures from the start of the run it governs, so the
    // request clock doubles as the run clock: remaining_ms shrinks as the
    // run spends it.
    b.clock = clock_;
    if (b.deadline_ms <= 0) b.deadline_ms = 1;  // expired -> stop at once
  }
  return b;
}

}  // namespace ccs
