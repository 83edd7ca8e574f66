#include "portfolio_referee.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "analysis/bounds.hpp"

namespace ccs::referee {

namespace {

/// The incumbent rule: an attempt stops when the user's token asks, when
/// its own best sits on the lower bound, or when an earlier attempt's best
/// does — it then loses every tie-break.
class IncumbentRule final : public BudgetStopToken {
 public:
  IncumbentRule(const BudgetStopToken* user, int lower_bound,
                     bool earlier_at_bound)
      : user_(user),
        lower_bound_(lower_bound),
        earlier_at_bound_(earlier_at_bound) {}

  [[nodiscard]] bool stop_requested(int current_best) const override {
    if (user_ != nullptr && user_->stop_requested(current_best)) return true;
    return current_best <= lower_bound_ || earlier_at_bound_;
  }

 private:
  const BudgetStopToken* user_;
  int lower_bound_;
  bool earlier_at_bound_;
};

}  // namespace

PortfolioResult portfolio_compact(const Csdfg& g, const Topology& topo,
                                  const CommModel& comm,
                                  const PortfolioOptions& opt) {
  const std::vector<AttemptConfig> roster = portfolio_attempts(g, opt);
  const CompositeBound bound = compute_bounds(g, topo, comm, opt.base);
  const int lower_bound = std::max(1, bound.value);

  int incumbent = std::numeric_limits<int>::max();
  std::vector<CycloCompactionResult> runs;
  for (const AttemptConfig& attempt : roster) {
    CycloCompactionOptions options = attempt.options;
    const IncumbentRule token(options.budget.stop, lower_bound,
                                   incumbent <= lower_bound);
    options.budget.stop = &token;
    runs.push_back(cyclo_compact(g, topo, comm, options));
    incumbent = std::min(incumbent, runs.back().best.length());
  }

  std::size_t winner = 0;
  for (std::size_t i = 1; i < runs.size(); ++i)
    if (runs[i].best.length() < runs[winner].best.length()) winner = i;

  std::vector<AttemptOutcome> rows;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CycloCompactionResult& run = runs[i];
    AttemptOutcome row;
    row.label = roster[i].label;
    row.length = run.best.length();
    row.startup_length = run.startup.length();
    row.best_pass = run.best_pass;
    row.stop_reason = run.stop_reason;
    row.pruned = run.stop_reason == "preempted";
    row.winner = i == winner;
    row.remap_slots_scanned = run.remap_stats.slots_scanned;
    row.an_evaluations = run.remap_stats.an_evaluations;
    rows.push_back(std::move(row));
  }
  const int serial_length = runs[0].best.length();
  PortfolioResult result{std::move(runs[winner]),
                         winner,
                         roster[winner].label,
                         serial_length,
                         lower_bound,
                         bound,
                         true,
                         {},
                         std::move(rows)};
  return result;
}

}  // namespace ccs::referee
