// Differential and scale tests for the cycle-jumping max_cycle_ratio().
//
// The production iteration bound and critical cycle must agree with the
// denominator-sweep referee (tests/cycle_ratio_referee.hpp) exactly: the
// same rational and the same witness edge list, on the library workloads,
// the retimed graphs cyclo-compaction hands the certifier, random graphs
// and the slowdown / scale_times transforms.  The scale tests pin the probe
// counts on the bench's generated graphs and run `lint` on a 1k-node graph.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "cli/cli.hpp"
#include "core/critical_cycle.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/iteration_bound.hpp"
#include "cycle_ratio_referee.hpp"
#include "io/text_format.hpp"
#include "test_graphs.hpp"
#include "util/rng.hpp"
#include "workloads/transforms.hpp"

namespace ccs {
namespace {

using test_graphs::graph_of_size;
using test_graphs::library_workloads;
using test_graphs::paper_machines;

Csdfg compacted(const Csdfg& g, const Topology& topo) {
  const StoreAndForwardModel comm(topo);
  return cyclo_compact(g, topo, comm, {}).retimed_graph;
}

/// The potentials certify the ratio from first principles: at p/q no edge
/// can still be relaxed, so no cycle beats p/q.
void expect_certificate(const Csdfg& g, const CycleRatio& r,
                        const std::string& what) {
  ASSERT_EQ(r.potentials.size(), g.node_count()) << what;
  for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
    const Edge& e = g.edge(eid);
    const Int128 w = static_cast<Int128>(r.ratio.den) * g.node(e.from).time -
                     static_cast<Int128>(r.ratio.num) * e.delay;
    EXPECT_GE(r.potentials[e.to], r.potentials[e.from] + w)
        << what << " edge " << eid;
  }
}

/// Exact agreement with the referee: ratio and witness edge list.
void expect_matches_referee(const Csdfg& g, const std::string& what) {
  const CycleRatio fast = max_cycle_ratio(g);
  const Rational slow = referee::iteration_bound(g);
  EXPECT_EQ(fast.ratio.num, slow.num) << what;
  EXPECT_EQ(fast.ratio.den, slow.den) << what;
  EXPECT_EQ(iteration_bound(g), slow) << what;
  expect_certificate(g, fast, what);
  const CycleWitness a = critical_cycle(g);
  const CycleWitness b = referee::critical_cycle(g);
  EXPECT_EQ(a.edges, b.edges) << what;
  EXPECT_EQ(a.total_time, b.total_time) << what;
  EXPECT_EQ(a.total_delay, b.total_delay) << what;
}

TEST(CycleRatio, MatchesRefereeOnLibraryWorkloads) {
  for (const auto& [name, g] : library_workloads())
    expect_matches_referee(g, name);
}

TEST(CycleRatio, MatchesRefereeOnCompactedRetimedGraphs) {
  const std::vector<Topology> machines = paper_machines();
  for (const auto& [name, g] : library_workloads())
    for (const Topology& topo : machines)
      expect_matches_referee(compacted(g, topo), name + "@" + topo.name());
}

TEST(CycleRatio, MatchesRefereeOnTransforms) {
  for (const auto& [name, g] : library_workloads()) {
    for (const int c : {2, 3, 5}) {
      expect_matches_referee(slowdown(g, c),
                             name + " slowdown " + std::to_string(c));
      expect_matches_referee(scale_times(g, c),
                             name + " scale_times " + std::to_string(c));
    }
  }
}

TEST(CycleRatio, MatchesRefereeOnRandomGraphs) {
  const std::vector<Topology> machines = paper_machines();
  Rng rng(20261018);
  for (int i = 0; i < 520; ++i) {
    RandomDfgConfig cfg;
    cfg.num_nodes = rng.uniform_size(2, 40);
    cfg.num_layers = rng.uniform_size(1, cfg.num_nodes);
    cfg.extra_edge_prob = rng.uniform01() * 0.5;
    cfg.num_back_edges = rng.uniform_size(0, cfg.num_nodes / 2 + 1);
    cfg.max_time = rng.uniform_int(1, 9);
    cfg.max_delay = rng.uniform_int(1, 12);
    const Csdfg g = random_csdfg(cfg, 1000 + static_cast<std::uint64_t>(i));
    const std::string what = "random #" + std::to_string(i);
    expect_matches_referee(g, what);
    if (i % 4 == 0) {
      const Topology& topo = machines[static_cast<std::size_t>(i / 4) % 5];
      expect_matches_referee(compacted(g, topo), what + " compacted");
    }
  }
}

TEST(CycleRatio, WideArithmeticIsExact) {
  // Totals past 2^32: the 64-bit cross products of the comparison in
  // critical_cycle's postcondition would overflow.
  Csdfg big;
  big.add_node("a", 2147483647);
  big.add_node("b", 2147483646);
  big.add_edge(0, 1, 2147483647, 1);
  big.add_edge(1, 0, 2147483647, 1);
  EXPECT_EQ(iteration_bound(big), (Rational{4294967293, 4294967294}));
  EXPECT_EQ(critical_cycle(big).edges, (std::vector<EdgeId>{0, 1}));

  // Delays near 10^6 on the self-loops: the sweep's denominator range
  // is ~2·10^6, the jump needs two probes.
  Csdfg far;
  far.add_node("a", 1);
  far.add_node("b", 2);
  far.add_edge(0, 1, 3, 1);
  far.add_edge(1, 0, 4, 1);
  far.add_edge(0, 0, 999999, 1);
  far.add_edge(1, 1, 1000000, 1);
  const CycleRatio r = max_cycle_ratio(far);
  EXPECT_EQ(r.ratio, (Rational{3, 7}));
  EXPECT_LE(r.probes, 3);
  expect_certificate(far, r, "far");
}

TEST(CycleRatio, RationalComparisonDoesNotOverflow) {
  const Rational a{4294967293, 4294967294};
  const Rational b{4294967294, 4294967295};
  EXPECT_LT(a, b);
  EXPECT_EQ(a, (Rational{4294967293, 4294967294}));
  // 2^40 * 2^30 wraps to 0 in 64 bits, which would put 2^40/3 below ~1024.
  EXPECT_GT((Rational{1LL << 40, 3}), (Rational{(1LL << 40) - 1, 1LL << 30}));
}

TEST(CycleRatio, AcyclicAndEmptyGraphsHaveRatioZeroInOneProbe) {
  const CycleRatio empty = max_cycle_ratio(Csdfg{});
  EXPECT_EQ(empty.ratio, (Rational{0, 1}));
  EXPECT_EQ(empty.probes, 1);
  const CycleRatio fir = max_cycle_ratio(fir_filter(8));
  EXPECT_EQ(fir.ratio, (Rational{0, 1}));
  EXPECT_EQ(fir.probes, 1);
}

TEST(CycleRatioScale, ProbeCountsStayLowOnGeneratedGraphs) {
  const CycleRatio k1 = max_cycle_ratio(graph_of_size(1024));
  const CycleRatio k4 = max_cycle_ratio(graph_of_size(4096));
  EXPECT_LE(k1.probes, 8);
  EXPECT_LE(k4.probes, 16);
  EXPECT_GT(k1.ratio.num, 0);
  EXPECT_GT(k4.ratio.num, 0);
}

TEST(CycleRatioScale, LintOnAThousandNodeGraphRunsInProcess) {
  const Csdfg g = graph_of_size(1024);
  std::istringstream in(serialize_csdfg(g));
  std::ostringstream out, err;
  const int code = run_cli({"lint", "--arch", "mesh 4 2", "-"}, in, out, err);
  EXPECT_EQ(code, 0) << err.str();
  EXPECT_NE(out.str().find("0 error(s)"), std::string::npos) << out.str();
}

}  // namespace
}  // namespace ccs
