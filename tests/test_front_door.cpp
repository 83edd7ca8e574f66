// The CLI's `schedule`/`stress` and serve share one dispatch path
// (ccs::Solver): the artifacts they emit agree, the lower bound the Solver
// reports equals a fresh compute_bounds, and the number of Φ_min and cycle
// ratio computations (the `facts.min_period` and `facts.cycle_ratio`
// spans) per command is pinned.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "arch/comm_model.hpp"
#include "cli/cli.hpp"
#include "engine/solve_cache.hpp"
#include "engine/solver.hpp"
#include "io/text_format.hpp"
#include "obs/span.hpp"
#include "obs/trace_reader.hpp"
#include "serve/service.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

namespace fs = std::filesystem;

std::string example(const std::string& name) {
  return (fs::path(CCS_EXAMPLES_DATA_DIR) / name).string();
}

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun cli(const std::vector<std::string>& args,
           const std::string& stdin_text = "") {
  std::istringstream in(stdin_text);
  std::ostringstream out, err;
  CliRun r;
  r.code = run_cli(args, in, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

/// Escapes text for a JSON string value.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else {
      out += c;
    }
  }
  return out + '"';
}

// `schedule --emit-schedule` and serve's `"emit":true` render the same
// answer, retime lines included (modulo retimes E and F on paper_fig1b).
TEST(FrontDoor, CliEmitMatchesServeEmitInEveryMode) {
  const std::string path = example("paper_fig1b.csdfg");
  std::ostringstream graph_text;
  graph_text << std::ifstream(path).rdbuf();
  const std::vector<std::pair<std::string, std::vector<std::string>>> modes = {
      {"startup", {"--policy", "startup"}},
      {"schedule", {"--policy", "relax"}},
      {"modulo", {"--policy", "modulo"}},
      {"portfolio", {"--portfolio", "--jobs", "1"}},
  };
  SolveCache::global().clear();
  SolveCache::global().set_enabled(false);  // every serve answer is cold
  for (const auto& [mode, flags] : modes) {
    std::vector<std::string> args = {"schedule", path, "--arch", "mesh 2 2",
                                     "--quiet", "--emit-schedule"};
    args.insert(args.end(), flags.begin(), flags.end());
    const CliRun r = cli(args);
    ASSERT_EQ(r.code, 0) << mode << ": " << r.err;
    const std::size_t at = r.out.find("schedule ");
    ASSERT_NE(at, std::string::npos) << r.out;
    const std::string cli_schedule = r.out.substr(at);

    std::istringstream in("{\"op\":\"solve\",\"id\":\"" + mode +
                          "\",\"graph\":" + json_string(graph_text.str()) +
                          ",\"arch\":\"mesh 2 2\",\"mode\":\"" + mode +
                          "\",\"emit\":true}\n");
    std::ostringstream out, err;
    (void)run_serve(in, out, err, ServeOptions{});
    const ParsedTrace parsed = parse_trace_jsonl(out.str());
    ASSERT_EQ(parsed.events.size(), 1u) << out.str();
    std::string serve_schedule;
    ASSERT_TRUE(parsed.events[0].string("schedule", serve_schedule))
        << out.str();
    EXPECT_EQ(cli_schedule, serve_schedule) << mode;
    if (mode == "modulo") {
      EXPECT_NE(cli_schedule.find("retime E -1\nretime F -1\n"),
                std::string::npos)
          << cli_schedule;
    }
  }
  SolveCache::global().set_enabled(true);
}

/// Runs one command with a private profiler on the process-global hook and
/// returns how many `span` spans it opened.
std::uint64_t spans_named(const std::string& span,
                          const std::vector<std::string>& args,
                          const std::string& stdin_text = "") {
  SpanProfiler profiler;
  SpanProfiler* previous = SpanProfiler::set_process(&profiler);
  const CliRun r = cli(args, stdin_text);
  SpanProfiler::set_process(previous);
  EXPECT_LE(r.code, 1) << r.err;
  const auto stats = profiler.stats();
  const auto it = stats.find(span);
  return it == stats.end() ? 0 : it->second.durations.count();
}

/// How many times one command computed Φ_min (GraphFacts::min_period, the
/// costly input of CCS-B006).
std::uint64_t min_period_spans(const std::vector<std::string>& args,
                           const std::string& stdin_text = "") {
  return spans_named("facts.min_period", args, stdin_text);
}

TEST(FrontDoor, BoundsSpanCountPerCommand) {
  const std::string fig7 = example("paper_fig7.csdfg");
  const std::vector<std::string> base = {"schedule", fig7, "--arch",
                                         "mesh 4 2", "--quiet"};
  const auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
  };
  // Uncertified schedules never pay for the bound engine.
  for (const char* policy : {"relax", "strict", "startup", "modulo"})
    EXPECT_EQ(min_period_spans(with({"--policy", policy})), 0u) << policy;
  EXPECT_EQ(min_period_spans(with({"--portfolio", "--jobs", "1"})), 1u);
  // Certified: the request graph's Φ_min serves both tables' CCS-S015
  // checks (the retimed graph inherits it once the retiming audit passed)
  // and the lower bound; modulo's table is of a graph of its own.
  EXPECT_EQ(min_period_spans(with({"--certify", "--policy", "relax"})), 1u);
  EXPECT_EQ(min_period_spans(with({"--certify", "--policy", "strict"})), 1u);
  EXPECT_EQ(min_period_spans(with({"--certify", "--policy", "startup"})), 1u);
  EXPECT_EQ(min_period_spans(with({"--certify", "--policy", "modulo"})), 2u);
  EXPECT_EQ(min_period_spans(with({"--certify", "--portfolio", "--jobs", "1"})),
            1u);
  // One cycle ratio for the pre-flight lint and one for the solve.
  EXPECT_LE(spans_named("facts.cycle_ratio",
                        with({"--certify", "--policy", "relax"})),
            2u);

  const std::vector<std::string> stress = {
      "stress", fig7, "--arch", "mesh 4 2", "--faults", "-", "--quiet"};
  const auto stressed = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = stress;
    args.insert(args.end(), extra.begin(), extra.end());
    return min_period_spans(args, "fail p0\n");
  };
  EXPECT_EQ(stressed({}), 0u);
  EXPECT_EQ(stressed({"--repair"}), 1u);
  EXPECT_EQ(stressed({"--portfolio", "--jobs", "1", "--repair"}), 2u);

  EXPECT_EQ(min_period_spans({"analyze", fig7, "--arch", "mesh 4 2"}), 1u);
}

std::vector<Csdfg> library_workloads() {
  return {paper_example6(),       paper_example19(), elliptic_filter(),
          lattice_filter(),       iir_biquad_cascade(2), fir_filter(6),
          diffeq_solver(),        correlator(3)};
}

/// Differential: the lower bound a certified solve reuses (the start-up
/// table's CCS-S015 composite, or the portfolio's pruning floor) equals a
/// fresh compute_bounds on every library workload x paper machine, for
/// homogeneous, heterogeneous and pipelined machines.
void expect_reused_bound_matches(SolveMode mode) {
  const std::vector<std::string> machines = {
      "mesh 4 2", "linear_array 8", "ring 8", "complete 8", "hypercube 3"};
  for (const Csdfg& g : library_workloads()) {
    for (const std::string& spec : machines) {
      for (int variant = 0; variant < 3; ++variant) {
        SolveRequest req;
        req.graph = g;
        req.topology = parse_topology(spec);
        req.mode = mode;
        req.portfolio.attempts = 2;
        if (variant == 1)
          req.options.startup.pe_speeds = {1, 2, 1, 2, 1, 2, 1, 2};
        if (variant == 2) req.options.startup.pipelined_pes = true;
        const SolveResponse res = Solver().solve(req);
        const std::string where = g.name() + " on " + spec + " variant " +
                                  std::to_string(variant);
        ASSERT_TRUE(res.ok()) << where;
        const StoreAndForwardModel comm(*req.topology);
        const CompositeBound fresh =
            compute_bounds(req.graph, *req.topology, comm, req.options);
        EXPECT_EQ(res.lower_bound, std::max(1, fresh.value)) << where;
        EXPECT_EQ(res.bound_pass, std::string(fresh.dominant)) << where;
        EXPECT_EQ(res.gap, res.best_length - res.lower_bound) << where;
      }
    }
  }
}

TEST(FrontDoor, ReusedStartupBoundEqualsComputeBounds) {
  expect_reused_bound_matches(SolveMode::kStartup);
}

TEST(FrontDoor, ReusedScheduleBoundEqualsComputeBounds) {
  expect_reused_bound_matches(SolveMode::kSchedule);
}

TEST(FrontDoor, ReusedPortfolioFloorEqualsComputeBounds) {
  expect_reused_bound_matches(SolveMode::kPortfolio);
}

TEST(FrontDoor, UncertifiedAnswersCarryNoBoundExceptThePortfolio) {
  for (const SolveMode mode : {SolveMode::kStartup, SolveMode::kSchedule,
                               SolveMode::kModulo, SolveMode::kPortfolio}) {
    SolveRequest req;
    req.graph = paper_example6();
    req.arch = "mesh 2 2";
    req.mode = mode;
    req.certify = false;
    const SolveResponse res = Solver().solve(req);
    ASSERT_TRUE(res.ok());
    if (mode == SolveMode::kPortfolio) {
      EXPECT_GE(res.lower_bound, 1);
      EXPECT_EQ(res.gap, res.best_length - res.lower_bound);
    } else {
      EXPECT_EQ(res.lower_bound, 0);
      EXPECT_EQ(res.gap, -1);
      EXPECT_TRUE(res.bound_pass.empty());
    }
    EXPECT_FALSE(res.optimal);
  }
}

TEST(FrontDoor, ScheduleResponseCarriesPassesAndTheWholeRunAudit) {
  SolveRequest req;
  req.graph = paper_example19();
  req.arch = "mesh 4 2";
  req.options.budget.max_passes = 3;
  const SolveResponse res = Solver().solve(req);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.passes, 3);
  EXPECT_EQ(res.stop_reason, "max-passes");
  EXPECT_FALSE(res.bound_pass.empty());
  EXPECT_FALSE(res.bound_witness.empty());
}

}  // namespace
}  // namespace ccs
