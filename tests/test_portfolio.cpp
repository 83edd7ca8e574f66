// Tests of the parallel portfolio engine (src/engine/portfolio.hpp) and
// the process-wide route cache backing it (src/arch/route_cache.hpp).
//
// The load-bearing properties:
//  * the attempt roster is a pure function of (graph size, options) and
//    attempt 0 is exactly the caller's base configuration;
//  * the winner is never worse than the serial driver, on every shipped
//    workload and architecture;
//  * the winning schedule is bit-identical across --jobs values and across
//    repeated runs (the determinism contract);
//  * preemption through the BudgetStopToken hook never changes the winner;
//  * route tables are shared between structurally equal topologies, are
//    identical to a from-scratch computation, and survive concurrent
//    construction (the ThreadSanitizer target of tools/check.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/certify.hpp"
#include "arch/comm_model.hpp"
#include "arch/route_cache.hpp"
#include "arch/topology.hpp"
#include "core/list_scheduler.hpp"
#include "engine/portfolio.hpp"
#include "io/schedule_format.hpp"
#include "io/text_format.hpp"
#include "obs/obs.hpp"
#include "portfolio_referee.hpp"
#include "util/error.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

std::string winner_fingerprint(const PortfolioResult& r) {
  return serialize_schedule(r.winner.retimed_graph, r.winner.best,
                            &r.winner.retiming);
}

TEST(PortfolioRoster, AttemptZeroIsTheBaseConfiguration) {
  const Csdfg g = paper_example6();
  PortfolioOptions opt;
  opt.base.policy = RemapPolicy::kWithoutRelaxation;
  opt.base.selection = RemapSelection::kAnticipationOnly;
  opt.base.passes = 7;
  const std::vector<AttemptConfig> roster = portfolio_attempts(g, opt);
  ASSERT_FALSE(roster.empty());
  EXPECT_EQ(roster[0].label, "base");
  EXPECT_EQ(roster[0].options.policy, RemapPolicy::kWithoutRelaxation);
  EXPECT_EQ(roster[0].options.selection, RemapSelection::kAnticipationOnly);
  EXPECT_EQ(roster[0].options.passes, 7);
}

TEST(PortfolioRoster, GridCoversTheConfigurationSpaceWithoutDuplicates) {
  const Csdfg g = paper_example6();
  const std::vector<AttemptConfig> roster =
      portfolio_attempts(g, PortfolioOptions{});
  // 2 policies x 2 selections x 3 priorities x 2 pass budgets = 24 cells;
  // the base occupies one of them.
  EXPECT_EQ(roster.size(), 24u);
  std::set<std::tuple<RemapPolicy, RemapSelection, PriorityRule, int>> cells;
  for (const AttemptConfig& a : roster)
    cells.insert({a.options.policy, a.options.selection,
                  a.options.startup.priority, a.options.passes});
  EXPECT_EQ(cells.size(), roster.size()) << "duplicate grid cells";
}

TEST(PortfolioRoster, SeedTailIsDeterministicAndPrefixStable) {
  const Csdfg g = paper_example6();
  PortfolioOptions opt;
  opt.seed = 42;
  opt.attempts = 32;
  const std::vector<AttemptConfig> a = portfolio_attempts(g, opt);
  const std::vector<AttemptConfig> b = portfolio_attempts(g, opt);
  ASSERT_EQ(a.size(), 32u);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].label, b[i].label) << "attempt " << i;

  // Growing the roster must not reshuffle the prefix.
  opt.attempts = 40;
  const std::vector<AttemptConfig> c = portfolio_attempts(g, opt);
  ASSERT_EQ(c.size(), 40u);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].label, c[i].label) << "attempt " << i;

  // A different seed perturbs the tail, never the grid.
  opt.seed = 43;
  const std::vector<AttemptConfig> d = portfolio_attempts(g, opt);
  for (std::size_t i = 0; i < 24; ++i)
    EXPECT_EQ(a[i].label, d[i].label) << "grid attempt " << i;
}

TEST(PortfolioRoster, TruncationKeepsAtLeastTheBase) {
  const Csdfg g = paper_example6();
  PortfolioOptions opt;
  opt.attempts = 1;
  const std::vector<AttemptConfig> roster = portfolio_attempts(g, opt);
  ASSERT_EQ(roster.size(), 1u);
  EXPECT_EQ(roster[0].label, "base");
}

TEST(PortfolioEngine, WinnerNeverWorseThanSerialOnLibraryWorkloads) {
  const struct {
    Csdfg graph;
    const char* arch;
  } cases[] = {
      {paper_example6(), "mesh"},
      {paper_example19(), "mesh"},
      {elliptic_filter(), "linear"},
      {iir_biquad_cascade(3), "mesh"},
  };
  for (const auto& c : cases) {
    const Topology topo = std::string(c.arch) == "mesh"
                              ? make_mesh(2, 2)
                              : make_linear_array(4);
    const StoreAndForwardModel comm(topo);
    const CycloCompactionResult serial =
        cyclo_compact(c.graph, topo, comm, {});
    PortfolioOptions opt;
    opt.jobs = 2;
    const PortfolioResult r = portfolio_compact(c.graph, topo, comm, opt);
    EXPECT_LE(r.winner.best.length(), serial.best.length())
        << c.graph.name() << " on " << topo.name();
    EXPECT_EQ(r.serial_length, serial.best.length())
        << "attempt 0 must reproduce the serial driver";
    EXPECT_GE(r.winner.best.length(), r.lower_bound);
  }
}

TEST(PortfolioEngine, WinningScheduleIsBitIdenticalAcrossJobs) {
  const Csdfg g = paper_example19();
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  PortfolioOptions opt;
  opt.seed = 7;
  opt.attempts = 28;  // grid + a seed tail

  opt.jobs = 1;
  const PortfolioResult serial = portfolio_compact(g, topo, comm, opt);
  opt.jobs = 8;
  const PortfolioResult wide_a = portfolio_compact(g, topo, comm, opt);
  const PortfolioResult wide_b = portfolio_compact(g, topo, comm, opt);

  EXPECT_EQ(serial.winner_attempt, wide_a.winner_attempt);
  EXPECT_EQ(serial.winner_label, wide_a.winner_label);
  EXPECT_EQ(winner_fingerprint(serial), winner_fingerprint(wide_a));
  EXPECT_EQ(winner_fingerprint(wide_a), winner_fingerprint(wide_b));
  EXPECT_EQ(wide_a.winner_attempt, wide_b.winner_attempt);
  EXPECT_TRUE(wide_a.certified);
  EXPECT_EQ(wide_a.attempts.size(), 28u);
  EXPECT_TRUE(wide_a.attempts[wide_a.winner_attempt].winner);
}

TEST(PortfolioEngine, ProvenanceRowsAlignWithTheRoster) {
  const Csdfg g = paper_example6();
  const Topology topo = make_mesh(2, 2);
  const StoreAndForwardModel comm(topo);
  PortfolioOptions opt;
  opt.jobs = 1;
  const PortfolioResult r = portfolio_compact(g, topo, comm, opt);
  const std::vector<AttemptConfig> roster = portfolio_attempts(g, opt);
  ASSERT_EQ(r.attempts.size(), roster.size());
  std::size_t winners = 0;
  for (std::size_t i = 0; i < r.attempts.size(); ++i) {
    EXPECT_EQ(r.attempts[i].label, roster[i].label);
    EXPECT_GE(r.attempts[i].length, r.winner.best.length());
    EXPECT_LE(r.attempts[i].length, r.attempts[i].startup_length);
    if (r.attempts[i].winner) ++winners;
  }
  EXPECT_EQ(winners, 1u);
  EXPECT_EQ(r.attempts[r.winner_attempt].length, r.winner.best.length());
}

TEST(PortfolioEngine, MergedObsStreamIsDeterministicAndAttemptTagged) {
  const Csdfg g = paper_example6();
  const Topology topo = make_mesh(2, 2);
  const StoreAndForwardModel comm(topo);
  PortfolioOptions opt;

  const auto run = [&](int jobs) {
    opt.jobs = jobs;
    VectorSink sink;
    Tracer tracer(&sink);
    MetricsRegistry metrics;
    const ObsContext obs{&tracer, &metrics};
    (void)portfolio_compact(g, topo, comm, opt, obs);
    return sink.lines();
  };
  // At jobs=1 the incumbent evolves deterministically, so the merged
  // stream is byte-stable across reruns.  (At jobs>1 the *winner* is still
  // deterministic, but when a loser gets preempted depends on thread
  // timing — its trace tail is explicitly outside the contract.)
  const std::vector<std::string> a = run(1);
  const std::vector<std::string> b = run(1);
  EXPECT_EQ(a, b) << "merged jobs=1 trace must be byte-stable";
  ASSERT_FALSE(a.empty());
  for (const std::string& line : a)
    EXPECT_NE(line.find("\"attempt\":"), std::string::npos) << line;
  // Every line of a parallel merge is attempt-tagged too, and the merge
  // order is the roster order regardless of completion order.
  const std::vector<std::string> wide = run(4);
  for (const std::string& line : wide)
    EXPECT_NE(line.find("\"attempt\":"), std::string::npos) << line;

  MetricsRegistry metrics;
  const ObsContext obs{nullptr, &metrics};
  opt.jobs = 4;
  (void)portfolio_compact(g, topo, comm, opt, obs);
  EXPECT_EQ(metrics.counter("portfolio.attempts"), 24);
  EXPECT_GT(metrics.counter("compaction.passes"), 0);
  EXPECT_EQ(metrics.gauge("portfolio.jobs"), 4.0);
}

TEST(PortfolioEngine, LowerBoundIsSound) {
  const Csdfg g = paper_example19();
  for (const Topology& topo :
       {make_mesh(2, 2), make_linear_array(4), make_hypercube(3)}) {
    const StoreAndForwardModel comm(topo);
    const CompositeBound bound = compute_bounds(g, topo, comm, {});
    const PortfolioResult r = portfolio_compact(g, topo, comm, {});
    EXPECT_EQ(r.lower_bound, std::max(1, bound.value)) << topo.name();
    EXPECT_GE(r.winner.best.length(), r.lower_bound) << topo.name();
    // The result carries the full per-pass provenance it pruned with.
    EXPECT_EQ(r.bound.value, bound.value) << topo.name();
    EXPECT_FALSE(r.bound.parts.empty()) << topo.name();
  }
}

TEST(PortfolioEngine, UserStopTokenPreemptsEveryAttempt) {
  class AlwaysStop final : public BudgetStopToken {
  public:
    [[nodiscard]] bool stop_requested(int) const override { return true; }
  };
  const Csdfg g = paper_example6();
  const Topology topo = make_mesh(2, 2);
  const StoreAndForwardModel comm(topo);
  PortfolioOptions opt;
  const AlwaysStop stop;
  opt.base.budget.stop = &stop;
  const PortfolioResult r = portfolio_compact(g, topo, comm, opt);
  // Every attempt yields at its first pass boundary with its startup table.
  for (const AttemptOutcome& row : r.attempts) {
    EXPECT_EQ(row.stop_reason, "preempted") << row.label;
    EXPECT_EQ(row.length, row.startup_length) << row.label;
  }
}

// Each distinct StartUpOptions is list-scheduled once and shared, which
// must be invisible in the answer: on every library workload and paper
// machine, at jobs 1 and 4, each attempt's start-up length is what
// start_up_schedule gives for its own options, and the winner carries
// exactly that table.
TEST(PortfolioEngine, SharedStartupMatchesEachAttemptsOwnListSchedule) {
  const std::vector<Csdfg> workloads = {
      paper_example6(), paper_example19(),       elliptic_filter(),
      lattice_filter(), iir_biquad_cascade(3),   fir_filter(8),
      diffeq_solver(),  correlator(5)};
  const std::vector<Topology> machines = {
      make_complete(8), make_linear_array(8), make_ring(8), make_mesh(4, 2),
      make_hypercube(3)};
  for (const Topology& topo : machines) {
    const StoreAndForwardModel comm(topo);
    for (const Csdfg& g : workloads) {
      PortfolioOptions opt;
      opt.certify_winner = false;
      const std::vector<AttemptConfig> roster = portfolio_attempts(g, opt);
      for (const int jobs : {1, 4}) {
        opt.jobs = jobs;
        const PortfolioResult r = portfolio_compact(g, topo, comm, opt);
        const std::string what = g.name() + " on " + topo.name() +
                                 " jobs " + std::to_string(jobs);
        ASSERT_EQ(r.attempts.size(), roster.size()) << what;
        for (std::size_t i = 0; i < roster.size(); ++i)
          EXPECT_EQ(r.attempts[i].startup_length,
                    start_up_schedule(g, topo, comm,
                                      roster[i].options.startup)
                        .length())
              << what << " attempt " << i;
        EXPECT_EQ(serialize_schedule(g, r.winner.startup),
                  serialize_schedule(
                      g, start_up_schedule(
                             g, topo, comm,
                             roster[r.winner_attempt].options.startup)))
            << what;
      }
    }
  }
}

// The 24-attempt roster varies only the priority rule of its start-up
// options, so a jobs=1 portfolio lists three start-up schedules: the
// startup.* counters are those of the three rules, and the startup_done
// events come from the lowest-indexed attempt of each rule.
TEST(PortfolioEngine, CountsOneStartupPerDistinctPriorityRule) {
  const Csdfg g = paper_example19();
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  PortfolioOptions opt;
  opt.jobs = 1;

  MetricsRegistry expected;
  for (const PriorityRule rule :
       {PriorityRule::kCommunicationSensitive, PriorityRule::kMobilityOnly,
        PriorityRule::kFifo}) {
    StartUpOptions startup;
    startup.priority = rule;
    (void)start_up_schedule(g, topo, comm, startup, {nullptr, &expected});
  }

  VectorSink sink;
  Tracer tracer(&sink);
  MetricsRegistry metrics;
  (void)portfolio_compact(g, topo, comm, opt, {&tracer, &metrics});
  EXPECT_EQ(metrics.counter("startup.control_steps"),
            expected.counter("startup.control_steps"));
  EXPECT_EQ(metrics.counter("startup.candidate_slots"),
            expected.counter("startup.candidate_slots"));

  const std::vector<AttemptConfig> roster = portfolio_attempts(g, opt);
  std::vector<std::string> owners;
  std::set<PriorityRule> seen;
  for (std::size_t i = 0; i < roster.size(); ++i)
    if (seen.insert(roster[i].options.startup.priority).second)
      owners.push_back("\"attempt\":" + std::to_string(i) + ",");
  ASSERT_EQ(owners.size(), 3u);
  std::vector<std::string> startup_events;
  for (const std::string& line : sink.lines())
    if (line.find("\"kind\":\"startup_done\"") != std::string::npos)
      startup_events.push_back(line);
  ASSERT_EQ(startup_events.size(), owners.size());
  for (std::size_t k = 0; k < owners.size(); ++k)
    EXPECT_NE(startup_events[k].find(owners[k]), std::string::npos)
        << startup_events[k];
}

// --- Shared trajectories ---------------------------------------------------

const std::vector<Csdfg>& library_workloads() {
  static const std::vector<Csdfg> workloads = {
      paper_example6(), paper_example19(),     elliptic_filter(),
      lattice_filter(), iir_biquad_cascade(3), fir_filter(8),
      diffeq_solver(),  correlator(5)};
  return workloads;
}

const std::vector<Topology>& paper_machines() {
  static const std::vector<Topology> machines = {
      make_complete(8), make_linear_array(8), make_ring(8), make_mesh(4, 2),
      make_hypercube(3)};
  return machines;
}

/// Every AttemptOutcome field of every row, one line per row.
std::vector<std::string> row_lines(const PortfolioResult& r) {
  std::vector<std::string> lines;
  for (const AttemptOutcome& row : r.attempts) {
    std::ostringstream os;
    os << row.label << " length " << row.length << " startup "
       << row.startup_length << " pass " << row.best_pass << " stop '"
       << row.stop_reason << "' pruned " << row.pruned << " winner "
       << row.winner << " slots " << row.remap_slots_scanned << " an "
       << row.an_evaluations;
    lines.push_back(os.str());
  }
  return lines;
}

void expect_same_answer(const PortfolioResult& got,
                        const PortfolioResult& want, const std::string& what) {
  EXPECT_EQ(row_lines(got), row_lines(want)) << what;
  EXPECT_EQ(got.winner_attempt, want.winner_attempt) << what;
  EXPECT_EQ(got.winner_label, want.winner_label) << what;
  EXPECT_EQ(got.serial_length, want.serial_length) << what;
  EXPECT_EQ(got.lower_bound, want.lower_bound) << what;
  const CycloCompactionResult& a = got.winner;
  const CycloCompactionResult& b = want.winner;
  EXPECT_TRUE(a.best == b.best) << what;
  EXPECT_TRUE(a.startup == b.startup) << what;
  EXPECT_EQ(a.retiming, b.retiming) << what;
  EXPECT_EQ(serialize_csdfg(a.retimed_graph), serialize_csdfg(b.retimed_graph))
      << what;
  EXPECT_EQ(winner_fingerprint(got), winner_fingerprint(want)) << what;
  EXPECT_EQ(a.length_trace, b.length_trace) << what;
  EXPECT_EQ(a.best_pass, b.best_pass) << what;
  EXPECT_EQ(a.stop_reason, b.stop_reason) << what;
  EXPECT_EQ(a.remap_stats.slots_scanned, b.remap_stats.slots_scanned) << what;
  EXPECT_EQ(a.remap_stats.an_evaluations, b.remap_stats.an_evaluations)
      << what;
}

// Attempts that share a start-up table, policy and selection read one
// compaction trajectory at their own pass counts.  That must be invisible in
// the answer: on every library workload and paper machine, for the grid and
// for a seed-perturbed tail, at jobs 1 and 4, every row and the winner equal
// what running each attempt on its own under the incumbent rule gives.  A
// short base pass count makes the tail resume trajectories the grid began.
TEST(PortfolioTrajectories, RowsAndWinnerMatchTheAttemptByAttemptReferee) {
  const struct {
    int attempts;
    int base_passes;
  } rosters[] = {{24, 0}, {64, 0}, {40, 5}};
  for (const Topology& topo : paper_machines()) {
    const StoreAndForwardModel comm(topo);
    for (const Csdfg& g : library_workloads()) {
      for (const auto& roster : rosters) {
        PortfolioOptions opt;
        opt.certify_winner = false;
        opt.attempts = roster.attempts;
        opt.base.passes = roster.base_passes;
        opt.seed = 11;
        const PortfolioResult want =
            referee::portfolio_compact(g, topo, comm, opt);
        for (const int jobs : {1, 4}) {
          opt.jobs = jobs;
          expect_same_answer(
              portfolio_compact(g, topo, comm, opt), want,
              g.name() + " on " + topo.name() + ", " +
                  std::to_string(roster.attempts) + " attempts, base z=" +
                  std::to_string(roster.base_passes) + ", jobs " +
                  std::to_string(jobs));
        }
      }
    }
  }
}

// The rows no longer depend on which worker got how far: the first attempt
// at the lower bound fixes every later row to "preempted" at pass 1.
TEST(PortfolioTrajectories, RowsAreIdenticalAcrossJobs) {
  const Topology machines[] = {make_mesh(2, 2), make_ring(8)};
  for (const Topology& topo : machines) {
    const StoreAndForwardModel comm(topo);
    for (const Csdfg& g : library_workloads()) {
      for (const RemapPolicy policy :
           {RemapPolicy::kWithRelaxation, RemapPolicy::kWithoutRelaxation}) {
        PortfolioOptions opt;
        opt.certify_winner = false;
        opt.attempts = 40;
        opt.seed = 3;
        opt.base.policy = policy;
        opt.jobs = 1;
        const PortfolioResult serial = portfolio_compact(g, topo, comm, opt);
        for (const int jobs : {4, 8}) {
          opt.jobs = jobs;
          expect_same_answer(portfolio_compact(g, topo, comm, opt), serial,
                             g.name() + " on " + topo.name() + " jobs " +
                                 std::to_string(jobs));
        }
      }
    }
  }
}

// Work counters count the passes that ran: at jobs 1 on the default roster,
// once per distinct (start-up table, policy, selection, pass).  Up to the
// first attempt at the bound, each group of attempts runs as far as the
// furthest of them; running every attempt on its own repeats those passes.
TEST(PortfolioTrajectories, EachDistinctPassRunsOnce) {
  class AtBound final : public BudgetStopToken {
   public:
    explicit AtBound(int bound) : bound_(bound) {}
    [[nodiscard]] bool stop_requested(int best) const override {
      return best <= bound_;
    }

   private:
    int bound_;
  };
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  long long all_distinct = 0;
  long long all_attempts = 0;
  for (const Csdfg& g : library_workloads()) {
    PortfolioOptions opt;
    opt.jobs = 1;
    opt.certify_winner = false;
    const std::vector<AttemptConfig> roster = portfolio_attempts(g, opt);
    const int bound =
        std::max(1, compute_bounds(g, topo, comm, opt.base).value);
    const AtBound at_bound(bound);

    struct Group {
      ScheduleTable table;
      RemapPolicy policy;
      RemapSelection selection;
      std::size_t passes = 0;
    };
    std::vector<Group> groups;
    for (const AttemptConfig& attempt : roster) {
      CycloCompactionOptions o = attempt.options;
      o.budget.stop = &at_bound;
      const CycloCompactionResult run = cyclo_compact(g, topo, comm, o);
      auto group =
          std::find_if(groups.begin(), groups.end(), [&](const Group& x) {
            return x.table == run.startup && x.policy == o.policy &&
                   x.selection == o.selection;
          });
      if (group == groups.end()) {
        groups.push_back({run.startup, o.policy, o.selection, 0});
        group = groups.end() - 1;
      }
      group->passes = std::max(group->passes, run.length_trace.size());
      all_attempts += static_cast<long long>(run.length_trace.size());
      if (run.best.length() <= bound) break;
    }
    long long distinct = 0;
    for (const Group& group : groups)
      distinct += static_cast<long long>(group.passes);
    all_distinct += distinct;

    MetricsRegistry metrics;
    (void)portfolio_compact(g, topo, comm, opt, {nullptr, &metrics});
    EXPECT_EQ(metrics.counter("compaction.passes"), distinct) << g.name();
  }
  EXPECT_LT(all_distinct, all_attempts);
}

// With a short base pass count the seed tail asks for more passes than the
// grid ran, so those attempts resume a trajectory and their streams start
// past pass 1.  Each attempt's stream still passes the trace audit.
TEST(PortfolioTrajectories, ResumedAttemptStreamsAuditClean) {
  const Topology topo = make_mesh(2, 2);
  const StoreAndForwardModel comm(topo);
  std::size_t resumed = 0;
  for (const Csdfg& g : library_workloads()) {
    PortfolioOptions opt;
    opt.certify_winner = false;
    opt.attempts = 48;
    opt.seed = 5;
    opt.base.passes = 5;
    VectorSink sink;
    Tracer tracer(&sink);
    (void)portfolio_compact(g, topo, comm, opt, {&tracer, nullptr});
    std::map<long long, std::string> by_attempt;
    for (const std::string& line : sink.lines()) {
      const std::string needle = "\"attempt\":";
      const auto pos = line.find(needle);
      ASSERT_NE(pos, std::string::npos) << line;
      by_attempt[std::stoll(line.substr(pos + needle.size()))] += line + "\n";
    }
    for (const auto& [attempt, text] : by_attempt) {
      const auto first = text.find("\"kind\":\"pass_start\"");
      if (first != std::string::npos &&
          text.find("\"pass\":1,", first) != text.find("\"pass\":", first))
        ++resumed;
      DiagnosticBag bag;
      EXPECT_TRUE(audit_trace(text, "<attempt>", false, bag))
          << g.name() << " attempt " << attempt << '\n'
          << render_text(bag);
    }
  }
  EXPECT_GT(resumed, 0u);
}

/// A clock that advances 1 ms on every reading, safe to read from several
/// workers at once.
class TickingClock final : public BudgetClock {
 public:
  [[nodiscard]] long long now_ms() const override { return ++now_; }
  [[nodiscard]] long long readings() const { return now_.load(); }

 private:
  mutable std::atomic<long long> now_{0};
};

// A deadline bounds the portfolio, not each attempt: the clock starts once,
// when the portfolio does, so the attempts share deadline_ms between them
// instead of each getting all of it.
TEST(PortfolioTrajectories, DeadlineBoundsThePortfolioNotEachAttempt) {
  const Csdfg g = paper_example19();
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  constexpr long long kDeadlineMs = 5;
  for (const int jobs : {1, 4}) {
    const TickingClock clock;
    PortfolioOptions opt;
    opt.jobs = jobs;
    opt.certify_winner = false;
    opt.base.budget.deadline_ms = kDeadlineMs;
    opt.base.budget.clock = &clock;
    MetricsRegistry metrics;
    const PortfolioResult r =
        portfolio_compact(g, topo, comm, opt, {nullptr, &metrics});
    const std::string what = "jobs " + std::to_string(jobs);
    // Each pass boundary reads the clock once, after the portfolio's own
    // reading: only the first deadline_ms - 1 boundaries can start a pass.
    EXPECT_LE(metrics.counter("compaction.passes"), kDeadlineMs - 1) << what;
    EXPECT_LE(clock.readings(),
              1 + kDeadlineMs + static_cast<long long>(r.attempts.size()))
        << what;
    // Nothing reaches the bound in four passes here, so every attempt that
    // did not finish its own passes reads "deadline"; a strict attempt may
    // have finished by rolling back first.
    for (std::size_t i = 0; i < r.attempts.size(); ++i) {
      const AttemptOutcome& row = r.attempts[i];
      if (row.stop_reason.empty()) {
        EXPECT_NE(row.label.find("strict"), std::string::npos)
            << what << " attempt " << i;
      } else {
        EXPECT_EQ(row.stop_reason, "deadline") << what << " attempt " << i;
      }
    }
    EXPECT_EQ(r.attempts[0].stop_reason, "deadline") << what;
  }
}

// --- Route cache ------------------------------------------------------------

TEST(RouteCache, StructurallyEqualTopologiesShareTables) {
  RouteCache::global().clear();
  const Topology a = make_mesh(3, 3);
  const RouteCache::Stats after_first = RouteCache::global().stats();
  const Topology b = make_mesh(3, 3);
  const RouteCache::Stats after_second = RouteCache::global().stats();
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GT(after_second.hits, after_first.hits);
  // Same tables, not merely equal ones: distance reads hit shared memory.
  for (PeId u = 0; u < a.size(); ++u)
    for (PeId v = 0; v < a.size(); ++v)
      EXPECT_EQ(a.distance(u, v), b.distance(u, v));
}

TEST(RouteCache, NameDoesNotSplitEntries) {
  RouteCache::global().clear();
  const Topology named(4, {{0, 1}, {1, 2}, {2, 3}}, false, "alpha");
  const Topology renamed(4, {{0, 1}, {1, 2}, {2, 3}}, false, "beta");
  const RouteCache::Stats stats = RouteCache::global().stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(named.diameter(), renamed.diameter());
}

TEST(RouteCache, CachedTablesMatchFromScratchComputation) {
  for (const Topology& topo :
       {make_mesh(3, 4), make_hypercube(3), make_ring(7),
        make_ring(6, /*bidirectional=*/false), make_star(9),
        make_binary_tree(10)}) {
    const RouteTables fresh = compute_route_tables(
        topo.size(), topo.directed(), topo.links(), topo.name(),
        RouteCache::kNextHopLimit);
    EXPECT_EQ(fresh.diameter, topo.diameter()) << topo.name();
    for (PeId u = 0; u < topo.size(); ++u) {
      for (PeId v = 0; v < topo.size(); ++v) {
        EXPECT_EQ(fresh.dist(u, v), topo.distance(u, v)) << topo.name();
        const std::vector<PeId> path = topo.shortest_path(u, v);
        EXPECT_EQ(path.size(), topo.distance(u, v) + 1) << topo.name();
        if (u != v) {
          EXPECT_EQ(path[1], fresh.next(u, v)) << topo.name();
        }
      }
    }
  }
}

TEST(RouteCache, LargeStructuresSkipTheNextHopTableButPathsStillWork) {
  const Topology big = make_linear_array(RouteCache::kNextHopLimit + 10);
  const std::vector<PeId> path = big.shortest_path(0, big.size() - 1);
  EXPECT_EQ(path.size(), big.size());
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    EXPECT_EQ(path[i + 1], path[i] + 1);
}

TEST(RouteCache, DisabledCacheStillProducesCorrectTopologies) {
  RouteCache::global().set_enabled(false);
  const Topology a = make_mesh(2, 3);
  RouteCache::global().set_enabled(true);
  const Topology b = make_mesh(2, 3);
  for (PeId u = 0; u < a.size(); ++u)
    for (PeId v = 0; v < a.size(); ++v)
      EXPECT_EQ(a.distance(u, v), b.distance(u, v));
}

TEST(RouteCache, ConcurrentConstructionIsSafeAndConsistent) {
  RouteCache::global().clear();
  constexpr int kThreads = 8;
  std::vector<std::size_t> diameters(kThreads, 0);
  {
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([t, &diameters] {
        const Topology topo = make_torus(4, 4);
        std::size_t sum = 0;
        for (PeId u = 0; u < topo.size(); ++u)
          for (PeId v = 0; v < topo.size(); ++v) sum += topo.distance(u, v);
        diameters[static_cast<std::size_t>(t)] = sum + topo.diameter();
      });
    }
    for (std::thread& t : pool) t.join();
  }
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(diameters[static_cast<std::size_t>(t)], diameters[0]);
  const RouteCache::Stats stats = RouteCache::global().stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
}

TEST(RouteCache, DisconnectedStructureStillNamesTheTopology) {
  try {
    const Topology broken(4, {{0, 1}, {2, 3}}, false, "split");
    FAIL() << "disconnected topology must throw";
  } catch (const ArchitectureError& e) {
    EXPECT_NE(std::string(e.what()).find("'split'"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("not connected"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace ccs
