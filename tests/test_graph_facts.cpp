// GraphFacts (src/analysis/graph_facts.hpp): each fact of a graph is built
// once, under its `facts.*` span; a compaction run's retimed graph reads
// the retiming-invariant facts off the input's view once the certifier's
// retiming audit passed, and builds everything else itself.
//
// The differential holds the inheritance to a fresh computation: on the 8
// library bodies and 52 generated 24-48-node bodies x the five paper
// machines x {relax, strict} x {homogeneous, mixed speeds, pipelined}, the
// composite CCS-S015 applies to a run's best table equals compute_bounds of
// the retimed graph from scratch, part by part, and every inherited
// invariant part re-derives its value against the retimed graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/certify.hpp"
#include "analysis/graph_facts.hpp"
#include "arch/comm_model.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/graph_algo.hpp"
#include "core/iteration_bound.hpp"
#include "core/retiming.hpp"
#include "io/text_format.hpp"
#include "min_period_referee.hpp"
#include "obs/span.hpp"
#include "workloads/generator.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

/// Span counts by name of everything `body` opened on the process-global
/// profiler.
template <class Body>
std::map<std::string, std::uint64_t> spans_of(Body&& body) {
  SpanProfiler profiler;
  SpanProfiler* previous = SpanProfiler::set_process(&profiler);
  body();
  SpanProfiler::set_process(previous);
  std::map<std::string, std::uint64_t> counts;
  for (const auto& [name, stats] : profiler.stats())
    counts[name] = stats.durations.count();
  return counts;
}

CycloCompactionResult compact(const Csdfg& g, const Topology& topo,
                              const CommModel& comm) {
  return cyclo_compact(g, topo, comm, CycloCompactionOptions{});
}

TEST(GraphFacts, EachFactIsBuiltOnce) {
  const Csdfg g = paper_example19();
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  const GraphFacts facts(g);
  const auto spans = spans_of([&] {
    for (int i = 0; i < 3; ++i) {
      (void)facts.critical_cycle();
      (void)facts.iteration_bound();
      (void)facts.min_period();
      (void)facts.dag_timing();
      (void)compute_bounds(facts, topo, comm, {});
    }
  });
  EXPECT_EQ(spans.at("facts.cycle_ratio"), 1u);
  EXPECT_EQ(spans.at("facts.min_period"), 1u);
  EXPECT_EQ(spans.at("facts.dag_timing"), 1u);
  EXPECT_EQ(spans.at("bounds"), 3u);
  EXPECT_EQ(facts.iteration_bound(), iteration_bound(g));
  EXPECT_EQ(facts.min_period(), referee::min_period_retiming(g).period);
  EXPECT_EQ(facts.dag_timing().critical_path,
            compute_dag_timing(g).critical_path);
}

TEST(GraphFacts, RetimedViewInheritsCycleRatioAndMinPeriod) {
  const Csdfg g = paper_example19();
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  const CycloCompactionResult run = compact(g, topo, comm);
  ASSERT_NE(run.retiming, Retiming(g.node_count()));  // delays did move
  const GraphFacts facts(g);
  (void)facts.critical_cycle();
  (void)facts.min_period();
  (void)facts.dag_timing();
  const GraphFacts retimed = GraphFacts::retimed(run.retimed_graph, facts);
  const auto spans = spans_of([&] {
    (void)retimed.critical_cycle();
    (void)retimed.min_period();
    (void)retimed.dag_timing();
    (void)retimed.dag_timing();
  });
  EXPECT_EQ(spans.count("facts.cycle_ratio"), 0u);
  EXPECT_EQ(spans.count("facts.min_period"), 0u);
  EXPECT_EQ(spans.at("facts.dag_timing"), 1u);
  // The inherited facts are exact for the retimed graph.
  EXPECT_EQ(retimed.iteration_bound(), iteration_bound(run.retimed_graph));
  EXPECT_EQ(retimed.min_period(),
            referee::min_period_retiming(run.retimed_graph).period);
  EXPECT_EQ(retimed.critical_cycle().ratio(),
            critical_cycle(run.retimed_graph).ratio());
  EXPECT_EQ(retimed.dag_timing().critical_path,
            compute_dag_timing(run.retimed_graph).critical_path);
}

/// Φ_min computations one whole-run audit makes.
std::uint64_t min_periods_of_audit(const GraphFacts& facts,
                                   const CycloCompactionResult& run,
                                   const CommModel& comm, bool expect_clean) {
  DiagnosticBag bag;
  bool clean = false;
  const auto spans = spans_of([&] {
    clean = certify_compaction_run(facts, run, comm,
                                   RemapPolicy::kWithRelaxation, "<run>", {},
                                   bag);
  });
  EXPECT_EQ(clean, expect_clean) << render_text(bag);
  const auto it = spans.find("facts.min_period");
  return it == spans.end() ? 0 : it->second;
}

TEST(GraphFacts, CleanRetimingAuditSharesTheInputsFacts) {
  const Csdfg g = paper_example19();
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  const CycloCompactionResult run = compact(g, topo, comm);
  EXPECT_EQ(min_periods_of_audit(g, run, comm, true), 1u);
}

TEST(GraphFacts, FailedRetimingAuditYieldsFreshFacts) {
  const Csdfg g = paper_example19();
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  CycloCompactionResult run = compact(g, topo, comm);
  // A recorded retiming that does not reproduce the retimed graph (S010):
  // the best table is still a clean table of that graph, so its CCS-S015
  // check runs, on facts of its own.
  run.retiming.set(0, run.retiming.of(0) + 1);
  EXPECT_EQ(min_periods_of_audit(g, run, comm, false), 2u);
}

// The audit that licenses the inheritance also holds the claimed retimed
// graph to the input's tasks, times and edges, not only its delays.
TEST(GraphFacts, RetimedGraphWithOtherTimesFailsTheAudit) {
  const Csdfg g = paper_example19();
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  CycloCompactionResult run = compact(g, topo, comm);
  Csdfg other(run.retimed_graph.name());
  for (NodeId v = 0; v < g.node_count(); ++v)
    (void)other.add_node(g.node(v).name, g.node(v).time + (v == 0 ? 1 : 0));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = run.retimed_graph.edge(e);
    (void)other.add_edge(edge.from, edge.to, edge.delay, edge.volume);
  }
  run.retimed_graph = other;
  DiagnosticBag bag;
  EXPECT_FALSE(certify_compaction_run(g, run, comm,
                                      RemapPolicy::kWithRelaxation, "<run>",
                                      {}, bag));
  bag.finalize();
  bool s010 = false;
  for (const Diagnostic& d : bag.diagnostics())
    s010 |= d.code == "CCS-S010" &&
            d.message.find("another time") != std::string::npos;
  EXPECT_TRUE(s010) << render_text(bag);
}

// ---------------------------------------------------------------------------
// Differential: inherited facts against a fresh computation.

std::vector<Csdfg> corpus() {
  std::vector<Csdfg> out = {paper_example6(),       paper_example19(),
                            elliptic_filter(),      lattice_filter(),
                            iir_biquad_cascade(2),  fir_filter(6),
                            diffeq_solver(),        correlator(3)};
  constexpr std::size_t kGenerated = 52;
  for (std::size_t i = 0; i < kGenerated; ++i) {
    RandomDfgConfig cfg;
    cfg.num_nodes = 24 + (i * 24) / (kGenerated - 1);
    cfg.num_layers = std::max<std::size_t>(3, cfg.num_nodes / 6);
    cfg.num_back_edges = std::max<std::size_t>(2, cfg.num_nodes / 8);
    out.push_back(random_csdfg(cfg, 4242 + i));
  }
  return out;
}

const BoundPass* pass_for(std::string_view code) {
  for (const BoundPass* pass : bound_passes())
    if (pass->rule().code == code) return pass;
  return nullptr;
}

void expect_inherited_composite_is_exact(const std::string& spec) {
  const Topology topo = parse_topology(spec);
  const StoreAndForwardModel comm(topo);
  for (const Csdfg& g : corpus()) {
    const GraphFacts facts(g);
    for (const RemapPolicy policy :
         {RemapPolicy::kWithRelaxation, RemapPolicy::kWithoutRelaxation}) {
      for (int variant = 0; variant < 3; ++variant) {
        CycloCompactionOptions opt;
        opt.policy = policy;
        if (variant == 1)
          for (std::size_t p = 0; p < topo.size(); ++p)
            opt.startup.pe_speeds.push_back(1 + static_cast<int>(p % 2));
        if (variant == 2) opt.startup.pipelined_pes = true;
        const std::string where = g.name() + " on " + spec + " policy " +
                                  std::to_string(static_cast<int>(policy)) +
                                  " variant " + std::to_string(variant);
        const CycloCompactionResult run = cyclo_compact(g, topo, comm, opt);
        DiagnosticBag bag;
        ASSERT_TRUE(certify_compaction_run(facts, run, comm, policy, where,
                                           {}, bag))
            << render_text(bag);

        // What CCS-S015 checks the best table against, and the same
        // composite of the retimed graph from scratch.
        const GraphFacts retimed =
            GraphFacts::retimed(run.retimed_graph, facts);
        const BoundMachine machine = machine_view(run.best, comm);
        const CompositeBound got = compute_bounds(retimed, machine);
        const CompositeBound fresh =
            compute_bounds(run.retimed_graph, machine);
        EXPECT_EQ(got.value, fresh.value) << where;
        EXPECT_EQ(got.local_value, fresh.local_value) << where;
        ASSERT_EQ(got.parts.size(), fresh.parts.size()) << where;
        for (std::size_t i = 0; i < got.parts.size(); ++i) {
          const BoundResult& part = got.parts[i];
          EXPECT_EQ(part.code, fresh.parts[i].code) << where;
          EXPECT_EQ(part.value, fresh.parts[i].value) << where << part.code;
          if (part.invariant) {
            EXPECT_TRUE(pass_for(part.code)
                            ->reverify(run.retimed_graph, machine, part))
                << where << ": " << part.code << " (" << part.witness << ")";
          }
        }
        // The invariant composite is the input's own, the bound the
        // Solver reports for this table.
        EXPECT_EQ(got.value, compute_bounds(facts, machine).value) << where;
      }
    }
  }
}

TEST(GraphFactsDifferential, InheritedCompositeIsExactOnMesh4x2) {
  expect_inherited_composite_is_exact("mesh 4 2");
}

TEST(GraphFactsDifferential, InheritedCompositeIsExactOnLinearArray8) {
  expect_inherited_composite_is_exact("linear_array 8");
}

TEST(GraphFactsDifferential, InheritedCompositeIsExactOnRing8) {
  expect_inherited_composite_is_exact("ring 8");
}

TEST(GraphFactsDifferential, InheritedCompositeIsExactOnComplete8) {
  expect_inherited_composite_is_exact("complete 8");
}

TEST(GraphFactsDifferential, InheritedCompositeIsExactOnHypercube3) {
  expect_inherited_composite_is_exact("hypercube 3");
}

}  // namespace
}  // namespace ccs
