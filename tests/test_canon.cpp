// Tests of the canonical-labeling engine (src/analysis/canon.hpp): the
// permutation property sweep over every bundled workload (random
// relabelings hash identically and every emitted witness reverifies),
// fingerprint sensitivity to single-attribute mutations, witness-tampering
// detection, automorphism/orbit pins, the corpus duplicate audit, and the
// canonical topology key the RouteCache and SolveCache share.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/canon.hpp"
#include "analysis/diagnostics.hpp"
#include "arch/route_cache.hpp"
#include "arch/topology.hpp"
#include "io/text_format.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

std::string data_path(const std::string& name) {
  return std::string(CCS_EXAMPLES_DATA_DIR) + "/" + name;
}

std::string slurp_file(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.is_open()) << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// Rebuilds `g` with node v inserted at position `to_new[v]` and the edge
/// list shuffled by `rng` — the "same problem, renamed" transformation the
/// canonical form must be blind to.  Node names ride along so tests can
/// match tasks across the relabeling.
Csdfg relabel(const Csdfg& g, const std::vector<NodeId>& to_new,
              std::mt19937& rng) {
  const std::size_t n = g.node_count();
  std::vector<NodeId> inv(n);
  for (NodeId v = 0; v < n; ++v) inv[to_new[v]] = v;
  Csdfg out(g.name() + "_relabeled");
  for (NodeId p = 0; p < n; ++p)
    out.add_node(g.node(inv[p]).name, g.node(inv[p]).time);
  std::vector<EdgeId> order(g.edge_count());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  for (const EdgeId e : order) {
    const Edge& ed = g.edge(e);
    out.add_edge(to_new[ed.from], to_new[ed.to], ed.delay, ed.volume);
  }
  return out;
}

std::vector<NodeId> random_perm(std::size_t n, std::mt19937& rng) {
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  return perm;
}

/// Every bundled workload: the library builders plus the shipped example
/// files, strictly parsed.
std::vector<std::pair<std::string, Csdfg>> bundled_workloads() {
  std::vector<std::pair<std::string, Csdfg>> all;
  all.emplace_back("paper_example6", paper_example6());
  all.emplace_back("paper_example19", paper_example19());
  all.emplace_back("elliptic_filter", elliptic_filter());
  all.emplace_back("lattice_filter", lattice_filter());
  all.emplace_back("iir_biquad_cascade(2)", iir_biquad_cascade(2));
  all.emplace_back("fir_filter(6)", fir_filter(6));
  all.emplace_back("diffeq_solver", diffeq_solver());
  all.emplace_back("correlator(4)", correlator(4));
  for (const char* file :
       {"paper_fig1b.csdfg", "paper_fig7.csdfg", "macroblock.csdfg"})
    all.emplace_back(file, parse_csdfg(slurp_file(data_path(file))));
  return all;
}

// ---------------------------------------------------------------------------
// The canonical-invariance sweep: the acceptance property of this PR.

TEST(Canon, RandomRelabelingsOfEveryWorkloadHashIdentically) {
  std::mt19937 rng(20260809);
  for (const auto& [label, g] : bundled_workloads()) {
    const CanonResult base = canonicalize(g);
    EXPECT_TRUE(base.complete) << label;
    EXPECT_TRUE(reverify(g, base)) << label;
    for (int round = 0; round < 5; ++round) {
      const Csdfg renamed = relabel(g, random_perm(g.node_count(), rng), rng);
      const CanonResult again = canonicalize(renamed);
      EXPECT_EQ(fingerprint_hex(base.fingerprint),
                fingerprint_hex(again.fingerprint))
          << label << " round " << round;
      EXPECT_TRUE(reverify(renamed, again)) << label << " round " << round;
      EXPECT_TRUE(isomorphic(g, base, renamed, again))
          << label << " round " << round;
      EXPECT_EQ(base.automorphism_count, again.automorphism_count) << label;
    }
  }
}

TEST(Canon, GraphFingerprintHelperMatchesCanonicalize) {
  const Csdfg g = paper_example6();
  EXPECT_EQ(graph_fingerprint(g),
            fingerprint_hex(canonicalize(g).fingerprint));
  EXPECT_EQ(graph_fingerprint(g).size(), 32u);
}

TEST(Canon, EmptyGraphCanonicalizes) {
  const Csdfg g("empty");
  const CanonResult canon = canonicalize(g);
  EXPECT_TRUE(canon.perm.empty());
  EXPECT_EQ(canon.automorphism_count, 1ull);
  EXPECT_TRUE(reverify(g, canon));
}

// ---------------------------------------------------------------------------
// Sensitivity: any single-attribute mutation must change the fingerprint.

TEST(Canon, SingleAttributeMutationsChangeFingerprint) {
  const Csdfg g = paper_example6();
  const std::string base = graph_fingerprint(g);

  {  // one extra delay on the first edge
    Csdfg mutated = g;
    mutated.set_delay(0, g.edge(0).delay + 1);
    EXPECT_NE(graph_fingerprint(mutated), base);
  }
  {  // one execution time bumped
    Csdfg mutated("m");
    for (NodeId v = 0; v < g.node_count(); ++v)
      mutated.add_node(g.node(v).name, g.node(v).time + (v == 0 ? 1 : 0));
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Edge& ed = g.edge(e);
      mutated.add_edge(ed.from, ed.to, ed.delay, ed.volume);
    }
    EXPECT_NE(graph_fingerprint(mutated), base);
  }
  {  // one edge direction flipped
    Csdfg mutated("m");
    for (NodeId v = 0; v < g.node_count(); ++v)
      mutated.add_node(g.node(v).name, g.node(v).time);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Edge& ed = g.edge(e);
      if (e == 0)
        mutated.add_edge(ed.to, ed.from, ed.delay + 1, ed.volume);
      else
        mutated.add_edge(ed.from, ed.to, ed.delay, ed.volume);
    }
    EXPECT_NE(graph_fingerprint(mutated), base);
  }
  {  // one volume bumped
    Csdfg mutated("m");
    for (NodeId v = 0; v < g.node_count(); ++v)
      mutated.add_node(g.node(v).name, g.node(v).time);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Edge& ed = g.edge(e);
      mutated.add_edge(ed.from, ed.to, ed.delay,
                       ed.volume + (e == 0 ? 1 : 0));
    }
    EXPECT_NE(graph_fingerprint(mutated), base);
  }
}

TEST(Canon, NameChangesDoNotChangeFingerprint) {
  const Csdfg g = paper_example6();
  Csdfg renamed("totally_different_name");
  for (NodeId v = 0; v < g.node_count(); ++v)
    renamed.add_node("task" + std::to_string(v), g.node(v).time);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    renamed.add_edge(ed.from, ed.to, ed.delay, ed.volume);
  }
  EXPECT_EQ(graph_fingerprint(renamed), graph_fingerprint(g));
}

// ---------------------------------------------------------------------------
// Witness tampering.

TEST(Canon, TamperedWitnessIsRejected) {
  const Csdfg g = paper_example19();
  CanonResult canon = canonicalize(g);
  ASSERT_TRUE(reverify(g, canon));

  CanonResult swapped = canon;
  std::swap(swapped.perm[0], swapped.perm[1]);
  EXPECT_FALSE(reverify(g, swapped));  // |Aut| = 1: any swap breaks it

  CanonResult truncated = canon;
  truncated.perm.pop_back();
  EXPECT_FALSE(reverify(g, truncated));

  CanonResult non_bijective = canon;
  non_bijective.perm[0] = non_bijective.perm[1];
  EXPECT_FALSE(reverify(g, non_bijective));

  CanonResult wrong_hash = canon;
  wrong_hash.fingerprint[0] ^= 1;
  EXPECT_FALSE(reverify(g, wrong_hash));
}

// ---------------------------------------------------------------------------
// Automorphism counting and orbits.

TEST(Canon, FanOutAutomorphismsAndOrbits) {
  // src -> {f1..f4}, all times and edge attributes equal: |Aut| = 4!.
  Csdfg g("fan");
  const NodeId src = g.add_node("src", 1);
  for (int i = 1; i <= 4; ++i)
    g.add_edge(src, g.add_node(std::string("f").append(std::to_string(i)), 2),
               0, 1);
  const CanonResult canon = canonicalize(g);
  EXPECT_TRUE(canon.complete);
  EXPECT_EQ(canon.automorphism_count, 24ull);
  EXPECT_EQ(orbit_summary(g, canon), "{f1,f2,f3,f4}");
  EXPECT_TRUE(reverify(g, canon));
}

TEST(Canon, TwinIsolatedTasksFormOneOrbit) {
  Csdfg g("twins");
  g.add_node("a", 3);
  g.add_node("b", 3);
  g.add_node("c", 5);
  const CanonResult canon = canonicalize(g);
  EXPECT_EQ(canon.automorphism_count, 2ull);
  EXPECT_EQ(orbit_summary(g, canon), "{a,b}");
}

TEST(Canon, AsymmetricWorkloadsHaveTrivialGroup) {
  for (const char* file : {"paper_fig1b.csdfg", "paper_fig7.csdfg"}) {
    const Csdfg g = parse_csdfg(slurp_file(data_path(file)));
    const CanonResult canon = canonicalize(g);
    EXPECT_EQ(canon.automorphism_count, 1ull) << file;
    EXPECT_EQ(orbit_summary(g, canon), "") << file;
  }
}

// ---------------------------------------------------------------------------
// The corpus audit (CCS-N001 / CCS-N003).

TEST(Canon, AuditCorpusFlagsRelabeledDuplicate) {
  std::mt19937 rng(7);
  const Csdfg a = paper_example6();
  const Csdfg b = relabel(a, random_perm(a.node_count(), rng), rng);
  const Csdfg c = paper_example19();
  DiagnosticBag bag;
  audit_corpus({{"first", &a}, {"distinct", &c}, {"renamed-copy", &b}}, bag);
  bag.finalize();
  ASSERT_EQ(bag.size(), 1u) << render_text(bag);
  const Diagnostic& d = bag.diagnostics()[0];
  EXPECT_EQ(d.code, "CCS-N001");
  EXPECT_EQ(d.span.file, "renamed-copy");
  EXPECT_NE(d.message.find("'first'"), std::string::npos) << d.message;
}

TEST(Canon, AuditCorpusCleanOnDistinctWorkloads) {
  const auto all = bundled_workloads();
  // The shipped example files duplicate their library builders by design;
  // audit only the library half here (the cross-check with the files is
  // pinned in test_lint.cpp).
  DiagnosticBag bag;
  std::vector<CorpusEntry> corpus;
  for (std::size_t i = 0; i + 3 < all.size(); ++i)
    corpus.push_back({all[i].first, &all[i].second});
  audit_corpus(corpus, bag);
  bag.finalize();
  EXPECT_TRUE(bag.empty()) << render_text(bag);
}

// ---------------------------------------------------------------------------
// The canonical topology key (shared by RouteCache and SolveCache).

TEST(CanonicalTopologyKey, EqualStructuresDifferentNamesShareKeys) {
  const Topology mesh_a = make_mesh(2, 2);
  // The same structure, built directly under a different name.
  const Topology custom(mesh_a.size(), mesh_a.links(), mesh_a.directed(),
                        "handmade");
  EXPECT_NE(mesh_a.name(), custom.name());
  EXPECT_EQ(canonical_topology_key(mesh_a.size(), mesh_a.directed(),
                                   mesh_a.links()),
            canonical_topology_key(custom.size(), custom.directed(),
                                   custom.links()));
}

TEST(CanonicalTopologyKey, DirectednessAndRenumberingKeepDistinctKeys) {
  const std::vector<std::pair<std::size_t, std::size_t>> links{{0, 1}, {1, 2}};
  EXPECT_NE(canonical_topology_key(3, true, links),
            canonical_topology_key(3, false, links));
  // Renumbered machines are NOT the same machine: PE ids are observable.
  const std::vector<std::pair<std::size_t, std::size_t>> renumbered{{0, 2},
                                                                    {1, 2}};
  EXPECT_NE(canonical_topology_key(3, false, links),
            canonical_topology_key(3, false, renumbered));
  EXPECT_EQ(canonical_topology_key(3, false, links).rfind("topo1:", 0), 0u);
}

TEST(CanonicalTopologyKey, RouteCacheHitBehaviorUnchanged) {
  ASSERT_EQ(RouteCache::kNextHopLimit, 256u);
  RouteCache& cache = RouteCache::global();
  cache.clear();
  const Topology a = make_mesh(3, 3);
  const auto before = cache.stats();
  const Topology b = make_mesh(3, 3);  // same structure, fresh build
  const auto after = cache.stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  // The shared tables agree with a fresh uncached computation.
  const RouteTables fresh = compute_route_tables(
      a.size(), a.directed(), a.links(), a.name(), RouteCache::kNextHopLimit);
  EXPECT_EQ(a.distance(0, a.size() - 1), fresh.dist(0, a.size() - 1));
}

}  // namespace
}  // namespace ccs
