// ccsched — differential tests for RemapEngine against the v1 referee.
//
// The contract under test: the engine (bitset slot tests, delta-maintained
// AN caches) is placement-for-placement identical to the v1 pass kept in
// tests/remap_referee.hpp on every library workload, every paper machine,
// and every driver configuration.  The suite drives both through whole
// cyclo-compaction runs (certifying the result from first principles),
// through randomized lockstep rotate/remap/commit/rollback sequences that
// stress the delta updates, and through single-target placements on
// partial tables (the repair ladder's remap rung).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/certify.hpp"
#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/list_scheduler.hpp"
#include "core/remap_engine.hpp"
#include "core/validator.hpp"
#include "remap_referee.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

struct Machine {
  const char* name;
  Topology topo;
};

std::vector<Machine> paper_machines() {
  std::vector<Machine> machines;
  machines.push_back({"complete8", make_complete(8)});
  machines.push_back({"linear8", make_linear_array(8)});
  machines.push_back({"ring8", make_ring(8)});
  machines.push_back({"mesh4x2", make_mesh(4, 2)});
  machines.push_back({"hypercube3", make_hypercube(3)});
  return machines;
}

std::vector<std::pair<std::string, Csdfg>> library_workloads() {
  std::vector<std::pair<std::string, Csdfg>> w;
  w.emplace_back("paper6", paper_example6());
  w.emplace_back("paper19", paper_example19());
  w.emplace_back("elliptic", elliptic_filter());
  w.emplace_back("lattice", lattice_filter());
  w.emplace_back("biquad3", iir_biquad_cascade(3));
  w.emplace_back("fir8", fir_filter(8));
  w.emplace_back("diffeq", diffeq_solver());
  w.emplace_back("correlator5", correlator(5));
  return w;
}

/// Driver configuration for differential seed s: distinct (policy,
/// selection, startup priority) corners so the parity claim is exercised
/// beyond the default path.
CycloCompactionOptions seed_options(int seed) {
  CycloCompactionOptions opt;
  switch (seed % 3) {
    case 0:
      opt.policy = RemapPolicy::kWithRelaxation;
      opt.selection = RemapSelection::kBidirectional;
      opt.startup.priority = PriorityRule::kCommunicationSensitive;
      break;
    case 1:
      opt.policy = RemapPolicy::kWithoutRelaxation;
      opt.selection = RemapSelection::kBidirectional;
      opt.startup.priority = PriorityRule::kMobilityOnly;
      break;
    default:
      opt.policy = RemapPolicy::kWithRelaxation;
      opt.selection = RemapSelection::kAnticipationOnly;
      opt.startup.priority = PriorityRule::kFifo;
      break;
  }
  return opt;
}

/// Placement-for-placement equality: same grid coordinates for every task
/// and the same advertised length.  Deliberately not ScheduleTable::
/// operator== — the engine materializes tables with normalized column
/// capacity, which is representation, not meaning.
void expect_same_schedule(const ScheduleTable& a, const ScheduleTable& b,
                          const std::string& what) {
  ASSERT_EQ(a.node_count(), b.node_count()) << what;
  EXPECT_EQ(a.length(), b.length()) << what;
  for (NodeId v = 0; v < a.node_count(); ++v) {
    ASSERT_EQ(a.is_placed(v), b.is_placed(v)) << what << " node " << v;
    if (!a.is_placed(v)) continue;
    EXPECT_EQ(a.cb(v), b.cb(v)) << what << " node " << v;
    EXPECT_EQ(a.ce(v), b.ce(v)) << what << " node " << v;
    EXPECT_EQ(a.pe(v), b.pe(v)) << what << " node " << v;
  }
}

void expect_same_graph_delays(const Csdfg& a, const Csdfg& b,
                              const std::string& what) {
  ASSERT_EQ(a.edge_count(), b.edge_count()) << what;
  for (EdgeId e = 0; e < a.edge_count(); ++e)
    EXPECT_EQ(a.edge(e).delay, b.edge(e).delay) << what << " edge " << e;
}

class BackendParity : public ::testing::TestWithParam<std::size_t> {};

// The acceptance check: the engine driver and the referee driver, run
// across every library workload x paper machine x three configuration
// seeds, produce bit-identical schedules, traces, and retimings, and the
// engine's winner certifies clean from first principles (CCS-S).
TEST_P(BackendParity, CycloCompactionIsPlacementIdentical) {
  const Machine machine = paper_machines()[GetParam()];
  const StoreAndForwardModel comm(machine.topo);
  for (const auto& [wname, g] : library_workloads()) {
    for (int seed = 0; seed < 3; ++seed) {
      const std::string what =
          wname + "/" + machine.name + "/seed" + std::to_string(seed);
      const CycloCompactionOptions options = seed_options(seed);

      const CycloCompactionResult a =
          cyclo_compact(g, machine.topo, comm, options);
      const CycloCompactionResult b =
          referee::cyclo_compact(g, machine.topo, comm, options);

      expect_same_schedule(a.best, b.best, what + " best");
      expect_same_schedule(a.startup, b.startup, what + " startup");
      expect_same_graph_delays(a.retimed_graph, b.retimed_graph, what);
      EXPECT_TRUE(a.retiming == b.retiming) << what;
      EXPECT_EQ(a.length_trace, b.length_trace) << what;
      EXPECT_EQ(a.best_pass, b.best_pass) << what;
      EXPECT_EQ(a.stop_reason, b.stop_reason) << what;

      // The Lemma 4.2 evaluation count is implementation-independent by
      // design (the cache changes the cost of an evaluation, not the
      // number).
      EXPECT_EQ(a.remap_stats.an_evaluations, b.remap_stats.an_evaluations)
          << what;

      DiagnosticBag bag;
      EXPECT_TRUE(certify_compaction_run(g, a, comm, options.policy, what,
                                         {}, bag))
          << what << "\n";
      bag.finalize();
      EXPECT_TRUE(bag.empty()) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, BackendParity,
                         ::testing::Range<std::size_t>(0, 5),
                         [](const auto& param_info) {
                           return std::string(
                               paper_machines()[param_info.param].name);
                         });

/// Tiny deterministic xorshift so the lockstep sequences are reproducible
/// (the suite must not depend on libc rand).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

/// The referee's side of a lockstep run: the graph, table and retiming the
/// v1 pass works on, as a unit that commits and rolls back wholesale.
struct RefereeState {
  Csdfg graph;
  ScheduleTable table;
  Retiming retiming;
};

// The delta-update property test: the engine and the referee, driven in
// lockstep through randomized rotate / remap / commit-or-rollback
// sequences, agree on every observable after every operation.  Rollbacks
// are taken on purpose mid-run so the journal undo path (placements,
// bitsets, delays, retiming, origin) is exercised, not just the happy path.
TEST(RemapEngineDelta, LockstepRandomizedSequencesMatchNaive) {
  const auto machines = paper_machines();
  for (const auto& [wname, g] : library_workloads()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Machine& machine = machines[(seed + wname.size()) %
                                        machines.size()];
      const StoreAndForwardModel comm(machine.topo);
      const std::string what =
          wname + "/" + machine.name + "/seed" + std::to_string(seed);
      Rng rng{seed * 0x9e3779b97f4a7c15ull + wname.size()};

      const ScheduleTable startup = start_up_schedule(g, machine.topo, comm);
      RemapEngine fast(g, comm);
      fast.bind(startup);
      RefereeState committed{g, startup, Retiming(g.node_count())};
      RefereeState working = committed;
      RemapStats referee_stats;

      const RemapPolicy policy = (seed % 2) != 0
                                     ? RemapPolicy::kWithRelaxation
                                     : RemapPolicy::kWithoutRelaxation;
      for (int pass = 0; pass < 24; ++pass) {
        const int previous = fast.length();
        ASSERT_EQ(previous, working.table.length())
            << what << " pass " << pass;

        const std::vector<NodeId> ra = fast.rotate();
        const std::vector<NodeId> rb = referee::rotate_first_row(
            working.graph, working.table, &working.retiming);
        ASSERT_EQ(ra, rb) << what << " pass " << pass;

        // ~1 in 6 passes is abandoned straight after the rotation, with no
        // remap in between: the journal then holds the rotation alone.
        if (rng.next() % 6 == 0) {
          fast.rollback();
          working = committed;
          const std::string step =
              what + " pass " + std::to_string(pass) + " rotate-only rollback";
          expect_same_schedule(fast.table(), working.table, step);
          expect_same_graph_delays(fast.graph(), working.graph, step);
          EXPECT_TRUE(fast.retiming() == working.retiming) << step;
          EXPECT_EQ(fast.length(), working.table.length()) << step;
          continue;
        }

        const std::optional<int> la =
            fast.remap(ra, previous, policy, RemapSelection::kBidirectional);
        std::optional<ScheduleTable> lb = referee::remap_rotated(
            working.graph, working.table, comm, rb, previous, policy,
            RemapSelection::kBidirectional, {}, &referee_stats);
        ASSERT_EQ(la.has_value(), lb.has_value()) << what << " pass " << pass;

        if (!la) {
          fast.rollback();
          working = committed;
          expect_same_schedule(fast.table(), working.table,
                               what + " rolled-back failure");
          break;
        }
        EXPECT_EQ(*la, lb->length()) << what << " pass " << pass;
        working.table = std::move(*lb);

        // ~1 in 4 successful passes is discarded to stress the journal
        // restore; both sides take the same branch.
        if (rng.next() % 4 == 0) {
          fast.rollback();
          working = committed;
        } else {
          fast.commit();
          committed = working;
        }
        const std::string step = what + " pass " + std::to_string(pass);
        expect_same_schedule(fast.table(), working.table, step);
        expect_same_graph_delays(fast.graph(), working.graph, step);
        EXPECT_TRUE(fast.retiming() == working.retiming) << step;
        EXPECT_EQ(fast.stats().an_evaluations, referee_stats.an_evaluations)
            << step;

        // The working schedule is always valid for the working graph —
        // the engine never commits (or restores) an inconsistent state.
        const ValidationReport report =
            validate_schedule(fast.graph(), fast.table(), comm);
        EXPECT_TRUE(report.ok()) << step;
      }
    }
  }
}

// The repair ladder's remap rung in isolation: take each compacted
// schedule, unplace one PE's tasks at a time, and walk the targets up from
// the table's length exactly as rung 0 does.  At every target the engine's
// place() and the referee's try_remap agree on success, and on the first
// success they agree on every placement, the padded length and the AN
// count.
TEST(RemapEnginePlace, MatchesRefereeTryRemapOnPartialTables) {
  constexpr int kMaxSlack = 64;
  int placements = 0;  // Cases that placed within the slack.
  int exhausted = 0;   // Cases no target within the slack could place.
  for (const Machine& machine : paper_machines()) {
    const StoreAndForwardModel comm(machine.topo);
    for (const auto& [wname, g] : library_workloads()) {
      const CycloCompactionResult run = cyclo_compact(g, machine.topo, comm);
      const Csdfg& rg = run.retimed_graph;
      for (PeId dead = 0; dead < machine.topo.size(); ++dead) {
        ScheduleTable base(rg, machine.topo.size());
        std::vector<NodeId> orphans;
        for (NodeId v = 0; v < rg.node_count(); ++v) {
          if (run.best.pe(v) == dead)
            orphans.push_back(v);
          else
            base.place(v, run.best.pe(v), run.best.cb(v));
        }
        if (orphans.empty()) continue;
        base.set_length(run.best.length());

        for (const RemapSelection selection :
             {RemapSelection::kBidirectional,
              RemapSelection::kAnticipationOnly}) {
          const std::string what =
              wname + "/" + machine.name + "/pe" + std::to_string(dead) +
              (selection == RemapSelection::kBidirectional ? "/bidir"
                                                           : "/an-only");
          RemapEngine engine(rg, comm);
          engine.bind(base);
          RemapStats referee_stats;
          bool placed = false;
          for (int slack = 0; slack <= kMaxSlack && !placed; ++slack) {
            const int target = base.length() + slack;
            const std::optional<int> a =
                engine.place(orphans, target, selection);
            ScheduleTable b = base;
            const referee::RemapResult r = referee::try_remap(
                rg, b, comm, orphans, target, selection, {}, &referee_stats);
            ASSERT_EQ(a.has_value(), r.success)
                << what << " target " << target;
            EXPECT_EQ(engine.stats().an_evaluations,
                      referee_stats.an_evaluations)
                << what << " target " << target;
            if (!a) {
              expect_same_schedule(engine.table(), base,
                                   what + " unwound at " +
                                       std::to_string(target));
              continue;
            }
            placed = true;
            EXPECT_EQ(*a, r.length) << what;
            expect_same_schedule(engine.table(), b,
                                 what + " placed at " +
                                     std::to_string(target));
          }
          (placed ? placements : exhausted) += 1;
        }
      }
    }
  }
  // Both outcomes occur, so both paths are compared.
  EXPECT_GT(placements, 0);
  EXPECT_GT(exhausted, 0);
}

TEST(RemapEngineApi, LifecycleContractsAreEnforced) {
  const Csdfg g = paper_example6();
  const Topology mesh = make_mesh(2, 2);
  const StoreAndForwardModel comm(mesh);
  RemapEngine engine(g, comm);
  EXPECT_FALSE(engine.bound());
  EXPECT_THROW((void)engine.rotate(), ContractViolation);
  EXPECT_THROW((void)engine.remap({}, 1, RemapPolicy::kWithRelaxation,
                                  RemapSelection::kBidirectional),
               ContractViolation);
  EXPECT_THROW((void)engine.place({}, 1, RemapSelection::kBidirectional),
               ContractViolation);
  EXPECT_THROW((void)engine.table(), ContractViolation);

  const ScheduleTable startup = start_up_schedule(g, mesh, comm);
  engine.bind(startup);
  EXPECT_TRUE(engine.bound());
  expect_same_schedule(engine.table(), startup, "bind round-trip");
  // place() takes exactly the unplaced tasks: none here, so naming a
  // placed task is a caller bug.
  EXPECT_THROW((void)engine.place({0}, startup.length(),
                                  RemapSelection::kBidirectional),
               ContractViolation);

  // A partial table binds too, and rotate() refuses it.
  ScheduleTable partial = startup;
  partial.remove(0);
  engine.bind(partial);
  expect_same_schedule(engine.table(), partial, "partial bind round-trip");
  EXPECT_THROW((void)engine.rotate(), ContractViolation);
  EXPECT_THROW((void)engine.place({}, startup.length(),
                                  RemapSelection::kBidirectional),
               ContractViolation);
}

// rotate() retimes only the edges with one endpoint in the first row, yet
// an illegal rotation still fails atomically with the whole-graph
// Retiming::apply message: a hand-built table puts Y in row 1 while its
// zero-delay predecessors X and Z start later.  The lowest-id offending
// edge is named, and the engine's views are exactly as bound.
TEST(RemapEngineApi, IllegalRotationThrowsAndLeavesTheEngineUntouched) {
  Csdfg g("zero-delay-row-1");
  const NodeId x = g.add_node("X", 1);
  const NodeId y = g.add_node("Y", 1);
  const NodeId z = g.add_node("Z", 2);
  g.add_edge(x, y, 0);
  g.add_edge(z, y, 0);
  g.add_edge(y, x, 1);
  g.add_edge(y, z, 2);
  const Topology mesh = make_mesh(2, 2);
  const StoreAndForwardModel comm(mesh);
  ScheduleTable table(g, mesh.size());
  table.place(y, 0, 1);
  table.place(x, 1, 2);
  table.place(z, 2, 2);
  table.set_length(4);

  RemapEngine engine(g, comm);
  engine.bind(table);
  try {
    (void)engine.rotate();
    ADD_FAILURE() << "rotate() accepted an illegal retiming";
  } catch (const GraphError& e) {
    EXPECT_EQ(std::string(e.what()),
              "illegal retiming: edge X->Y would carry delay -1");
  }
  expect_same_schedule(engine.table(), table, "after the failed rotate");
  expect_same_graph_delays(engine.graph(), g, "after the failed rotate");
  EXPECT_TRUE(engine.retiming() == Retiming(g.node_count()));
  EXPECT_EQ(engine.length(), 4);
  // The refusal is repeatable: nothing was half-applied.
  EXPECT_THROW((void)engine.rotate(), GraphError);
  expect_same_schedule(engine.table(), table, "after the second rotate");
}

// The engine's reason to exist: on the paper's 19-node workload its bitset
// word probes undercut the referee's cell walk at least 5x on every paper
// machine while producing the same schedule.
TEST(RemapEngineStats, IncrementalScansFewerSlotsOnPaper19) {
  const Csdfg g = paper_example19();
  for (const Machine& machine : paper_machines()) {
    const StoreAndForwardModel comm(machine.topo);
    const CycloCompactionResult a = cyclo_compact(g, machine.topo, comm);
    const CycloCompactionResult b =
        referee::cyclo_compact(g, machine.topo, comm);
    expect_same_schedule(a.best, b.best,
                         std::string("paper19/") + machine.name);
    EXPECT_GT(a.remap_stats.slots_scanned, 0) << machine.name;
    EXPECT_GE(b.remap_stats.slots_scanned, 5 * a.remap_stats.slots_scanned)
        << machine.name << ": engine " << a.remap_stats.slots_scanned
        << " vs referee " << b.remap_stats.slots_scanned;
  }
}

}  // namespace
}  // namespace ccs
