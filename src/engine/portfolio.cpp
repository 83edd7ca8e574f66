#include "engine/portfolio.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <exception>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "analysis/bounds.hpp"
#include "analysis/certify.hpp"
#include "arch/route_cache.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ccs {

namespace {

/// Per-attempt seed: splitmix-style mixing so neighboring attempt indices
/// land far apart in the generator's state space.
std::uint64_t attempt_seed(std::uint64_t seed, std::size_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const char* policy_tag(RemapPolicy p) {
  return p == RemapPolicy::kWithRelaxation ? "relax" : "strict";
}

const char* selection_tag(RemapSelection s) {
  return s == RemapSelection::kBidirectional ? "bidir" : "an-only";
}

const char* priority_tag(PriorityRule r) {
  switch (r) {
    case PriorityRule::kCommunicationSensitive:
      return "pf";
    case PriorityRule::kMobilityOnly:
      return "mobility";
    case PriorityRule::kFifo:
      return "fifo";
  }
  return "?";
}

/// The fields a grid cell is allowed to vary, as a comparable tuple.
using GridCell = std::tuple<RemapPolicy, RemapSelection, PriorityRule, int>;

GridCell cell_of(const CycloCompactionOptions& o) {
  return {o.policy, o.selection, o.startup.priority, o.passes};
}

std::string grid_label(const CycloCompactionOptions& o, int default_passes) {
  std::ostringstream os;
  os << policy_tag(o.policy) << '/' << selection_tag(o.selection) << '/'
     << priority_tag(o.startup.priority) << '/'
     << (o.passes == default_passes ? "z=3v" : "z=v");
  return os.str();
}

/// Coordination block shared by every worker of one portfolio run.
struct SharedState {
  std::mutex mu;
  int incumbent_length = std::numeric_limits<int>::max();
  std::size_t incumbent_attempt = 0;
};

/// The winner-preserving preemption rule (see portfolio.hpp): an attempt
/// stops early only when (a) its own best already sits on the lower bound —
/// no further pass can improve it — or (b) a *smaller-indexed* attempt has
/// published an incumbent at the lower bound, in which case this attempt
/// loses every possible tie-break and its remaining passes are dead work.
/// Any user-supplied token from the base configuration is honored as well.
class IncumbentStopToken final : public BudgetStopToken {
public:
  IncumbentStopToken(SharedState& shared, int lower_bound, std::size_t attempt,
                     const BudgetStopToken* user)
      : shared_(shared),
        lower_bound_(lower_bound),
        attempt_(attempt),
        user_(user) {}

  [[nodiscard]] bool stop_requested(int current_best) const override {
    if (user_ != nullptr && user_->stop_requested(current_best)) return true;
    if (current_best <= lower_bound_) return true;
    const std::scoped_lock lock(shared_.mu);
    return shared_.incumbent_length <= lower_bound_ &&
           shared_.incumbent_attempt < attempt_;
  }

private:
  SharedState& shared_;
  int lower_bound_;
  std::size_t attempt_;
  const BudgetStopToken* user_;
};

/// Lower-case metric suffix of a CCS-B code: "CCS-B001" -> "b001".
std::string bound_metric_suffix(std::string_view code) {
  std::string suffix;
  for (char c : code.substr(code.rfind('-') + 1))
    suffix.push_back(static_cast<char>(std::tolower(c)));
  return suffix;
}

}  // namespace

std::vector<AttemptConfig> portfolio_attempts(const Csdfg& g,
                                              const PortfolioOptions& opt) {
  std::vector<AttemptConfig> roster;
  roster.push_back({opt.base, "base"});

  const int default_passes = opt.base.passes;
  const int v_passes =
      static_cast<int>(std::max<std::size_t>(1, g.node_count()));

  std::set<GridCell> seen{cell_of(opt.base)};
  const RemapPolicy policies[] = {RemapPolicy::kWithRelaxation,
                                  RemapPolicy::kWithoutRelaxation};
  const RemapSelection selections[] = {RemapSelection::kBidirectional,
                                       RemapSelection::kAnticipationOnly};
  const PriorityRule priorities[] = {PriorityRule::kCommunicationSensitive,
                                     PriorityRule::kMobilityOnly,
                                     PriorityRule::kFifo};
  for (const RemapPolicy policy : policies) {
    for (const RemapSelection selection : selections) {
      for (const PriorityRule priority : priorities) {
        for (const int passes : {default_passes, v_passes}) {
          CycloCompactionOptions o = opt.base;
          o.policy = policy;
          o.selection = selection;
          o.startup.priority = priority;
          o.passes = passes;
          if (!seen.insert(cell_of(o)).second) continue;
          roster.push_back({o, grid_label(o, default_passes)});
        }
      }
    }
  }

  const std::size_t target =
      opt.attempts > 0 ? static_cast<std::size_t>(opt.attempts)
                       : roster.size();
  if (target < roster.size()) {
    roster.resize(std::max<std::size_t>(1, target));
    return roster;
  }
  while (roster.size() < target) {
    // Seed-perturbed tail: each attempt's configuration is a pure function
    // of (seed, index), so growing the roster never reshuffles a prefix.
    const std::size_t index = roster.size();
    Rng rng(attempt_seed(opt.seed, index));
    CycloCompactionOptions o = opt.base;
    // Bias toward relaxation, the paper's recommended configuration.
    o.policy = rng.uniform_int(0, 3) == 0 ? RemapPolicy::kWithoutRelaxation
                                          : RemapPolicy::kWithRelaxation;
    o.selection = rng.uniform_int(0, 1) == 0
                      ? RemapSelection::kBidirectional
                      : RemapSelection::kAnticipationOnly;
    const PriorityRule priorities_tail[] = {
        PriorityRule::kCommunicationSensitive, PriorityRule::kMobilityOnly,
        PriorityRule::kFifo};
    o.startup.priority =
        priorities_tail[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    o.passes = rng.uniform_int(v_passes, 3 * v_passes);
    std::ostringstream label;
    label << "seed#" << index << '/' << policy_tag(o.policy) << '/'
          << selection_tag(o.selection) << '/'
          << priority_tag(o.startup.priority) << "/z=" << o.passes;
    roster.push_back({o, label.str()});
  }
  return roster;
}

PortfolioResult portfolio_compact(const Csdfg& g, const Topology& topo,
                                  const CommModel& comm,
                                  const PortfolioOptions& opt,
                                  const ObsContext& obs) {
  g.require_legal();
  const ObsSpan portfolio_span = obs.span("portfolio");

  const std::vector<AttemptConfig> roster = portfolio_attempts(g, opt);
  // The invariant composite (analysis/bounds.hpp): sound for any schedule
  // of any legal retiming of g, which is exactly what every attempt
  // produces.  The local composite would over-prune — attempts retime.
  const CompositeBound bound = compute_bounds(g, topo, comm, opt.base);
  const int lower_bound = std::max(1, bound.value);

  struct Slot {
    std::optional<CycloCompactionResult> result;
    std::vector<std::string> trace_lines;
    MetricsRegistry metrics;
    SpanProfiler profiler;
    std::exception_ptr error;
  };
  std::vector<Slot> slots(roster.size());

  // One start-up schedule per distinct StartUpOptions (the roster varies
  // only the priority rule, so 3 tables serve 24 attempts): the
  // lowest-indexed attempt using the options lists it under its own obs
  // context and publishes it; later attempts wait for it.  Workers take
  // attempts in index order and an owner never waits, so nothing deadlocks.
  std::vector<std::size_t> owner(roster.size());
  std::vector<std::promise<ScheduleTable>> published(roster.size());
  std::vector<std::shared_future<ScheduleTable>> startups(roster.size());
  for (std::size_t i = 0; i < roster.size(); ++i) {
    owner[i] = i;
    for (std::size_t j = 0; j < i; ++j) {
      if (roster[j].options.startup == roster[i].options.startup) {
        owner[i] = owner[j];
        break;
      }
    }
    if (owner[i] == i) startups[i] = published[i].get_future().share();
  }

  SharedState shared;
  std::atomic<std::size_t> next{0};
  const bool want_traces = obs.tracing();
  const bool want_metrics = obs.metrics != nullptr;
  const bool want_profile = obs.profiling();

  const auto run_attempt = [&](std::size_t i) {
    Slot& slot = slots[i];
    const bool owns_startup = owner[i] == i;
    bool startup_published = false;
    try {
      CycloCompactionOptions options = roster[i].options;
      const IncumbentStopToken token(shared, lower_bound, i,
                                     options.budget.stop);
      options.budget.stop = &token;

      ObsContext attempt_obs;
      if (want_metrics) attempt_obs.metrics = &slot.metrics;
      VectorSink sink;
      Tracer tracer(&sink);
      if (want_traces) {
        tracer.set_attempt(static_cast<int>(i));
        attempt_obs.tracer = &tracer;
      }
      if (want_profile) {
        // Each attempt records into its own profiler so the hot path never
        // contends on the caller's; absorbed in attempt order after join.
        slot.profiler.set_attempt(static_cast<int>(i));
        attempt_obs.profiler = &slot.profiler;
      }
      // The attempt span must close before sink.lines() is harvested, or
      // its span_end line would miss the attempt's trace stream.
      std::optional<CycloCompactionResult> run;
      {
        const ObsSpan attempt_span = attempt_obs.span("portfolio.attempt");
        const ObsSpan compact_span = attempt_obs.span("compact");
        if (owns_startup) {
          published[i].set_value(start_up_schedule(
              g, topo, comm, options.startup, attempt_obs));
          startup_published = true;
        }
        // Through a copy of its own: workers waiting on one state each
        // hold their own shared_future, the documented race-free way.
        const std::shared_future<ScheduleTable> startup = startups[owner[i]];
        run.emplace(
            cyclo_compact_from(g, startup.get(), comm, options, attempt_obs));
      }
      CycloCompactionResult& result = *run;

      {
        const std::scoped_lock lock(shared.mu);
        const int length = result.best.length();
        if (length < shared.incumbent_length ||
            (length == shared.incumbent_length &&
             i < shared.incumbent_attempt)) {
          shared.incumbent_length = length;
          shared.incumbent_attempt = i;
        }
      }
      slot.result.emplace(std::move(result));
      if (want_traces) slot.trace_lines = sink.lines();
    } catch (...) {
      slot.error = std::current_exception();
      // Attempts waiting on this start-up table get the same failure.
      if (owns_startup && !startup_published)
        published[i].set_exception(slot.error);
    }
  };

  const auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= roster.size()) break;
      run_attempt(i);
    }
  };

  int jobs = opt.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  const std::size_t pool_size = std::min<std::size_t>(
      static_cast<std::size_t>(jobs), roster.size());
  if (pool_size <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (std::size_t w = 0; w < pool_size; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // First failure by attempt index wins the rethrow — deterministic even
  // when several attempts failed in parallel.
  for (const Slot& slot : slots)
    if (slot.error) std::rethrow_exception(slot.error);

  // Merge worker observability into the caller's context in attempt order,
  // so the merged stream and counters are independent of completion order.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (want_metrics) obs.metrics->merge(slots[i].metrics);
    if (want_traces)
      for (const std::string& line : slots[i].trace_lines)
        obs.tracer->emit_raw(line);
    if (want_profile) obs.profiler->absorb(slots[i].profiler);
  }

  // The winner: smallest best length, ties to the smallest attempt index.
  std::size_t winner_index = 0;
  for (std::size_t i = 1; i < slots.size(); ++i) {
    if (slots[i].result->best.length() <
        slots[winner_index].result->best.length())
      winner_index = i;
  }

  // Provenance is harvested before the winner is moved out of its slot.
  std::vector<AttemptOutcome> attempts;
  attempts.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const CycloCompactionResult& run = *slots[i].result;
    AttemptOutcome row;
    row.label = roster[i].label;
    row.length = run.best.length();
    row.startup_length = run.startup.length();
    row.best_pass = run.best_pass;
    row.stop_reason = run.stop_reason;
    row.pruned = run.stop_reason == "preempted";
    row.winner = i == winner_index;
    row.remap_slots_scanned = run.remap_stats.slots_scanned;
    row.an_evaluations = run.remap_stats.an_evaluations;
    attempts.push_back(std::move(row));
  }
  const int serial_length = slots[0].result->best.length();

  PortfolioResult result{std::move(*slots[winner_index].result),
                         0,  {}, 0, 0, {}, true, {}, {}};
  result.winner_attempt = winner_index;
  result.winner_label = roster[winner_index].label;
  result.serial_length = serial_length;
  result.lower_bound = lower_bound;
  result.bound = bound;
  result.attempts = std::move(attempts);

  CCS_ENSURES(result.winner.best.length() <= result.serial_length);

  if (opt.certify_winner) {
    result.certified = certify_table(
        result.winner.retimed_graph, result.winner.best, comm,
        "portfolio/" + result.winner_label, result.certification, {});
    result.certification.finalize();
  }

  obs.count("portfolio.attempts", static_cast<long long>(slots.size()));
  long long pruned = 0;
  for (const AttemptOutcome& row : result.attempts)
    if (row.pruned) ++pruned;
  if (pruned > 0) obs.count("portfolio.pruned", pruned);
  if (want_metrics) {
    obs.metrics->set("portfolio.jobs", static_cast<double>(jobs));
    obs.metrics->set("portfolio.winner_attempt",
                     static_cast<double>(winner_index));
    obs.metrics->set("portfolio.winner_length",
                     static_cast<double>(result.winner.best.length()));
    obs.metrics->set("portfolio.serial_length",
                     static_cast<double>(result.serial_length));
    obs.metrics->set("portfolio.lower_bound",
                     static_cast<double>(lower_bound));
    // Per-pass provenance: which derivation produced which floor.
    for (const BoundResult& part : bound.parts)
      obs.metrics->set("portfolio.bound." + bound_metric_suffix(part.code),
                       static_cast<double>(part.value));
    obs.metrics->set("portfolio.bound.local",
                     static_cast<double>(bound.local_value));
    obs.metrics->set(
        "portfolio.gap",
        static_cast<double>(result.winner.best.length() - lower_bound));
    // The winner's remap cost is deterministic across --jobs (preemption
    // only ever stops attempts that provably lose the tie-break).
    obs.metrics->set(
        "portfolio.winner_slots_scanned",
        static_cast<double>(result.winner.remap_stats.slots_scanned));
    obs.metrics->set(
        "portfolio.winner_an_evaluations",
        static_cast<double>(result.winner.remap_stats.an_evaluations));
    const RouteCache::Stats rc = RouteCache::global().stats();
    obs.metrics->set("portfolio.route_cache.hits",
                     static_cast<double>(rc.hits));
    obs.metrics->set("portfolio.route_cache.misses",
                     static_cast<double>(rc.misses));
  }

  return result;
}

}  // namespace ccs
