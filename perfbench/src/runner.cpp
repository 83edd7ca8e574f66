// perfbench — the end-to-end benchmark runner.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--corpus-seed N] [--workdir DIR]
//
// Runs one workload from a single process against the library it links,
// times it at the caller, checks every answer with the benchmark's own
// checker (check.hpp), and prints one raw JSON document as its last
// stdout line.  perfbench/run.py builds this binary, turns the raw
// document into the benchmark's metrics and prints them.
//
// Workloads (why each exists is in perfbench/README.md):
//   paper_portfolio  the paper's loop bodies x the five Fig. 8 machines,
//                    Solver in portfolio mode, cache disabled
//   gen_certified    generated 24-48-node bodies through the CLI's
//                    `schedule --certify`, in-process, cache cleared
//   serve_mixed      a resident serve loop answering cold, repeated,
//                    renamed and deadline-bearing requests
//
// Every workload is a closed loop over whole rotations of a fixed,
// seed-built problem set.  Set-up (inputs, machines, service start and
// one untimed warm-up rotation) runs three times and each is timed.
// --trace 1 instead mirrors each pipeline's public calls on the same
// inputs, timing each one, and prints one row per problem.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ccsched.hpp"
#include "analysis/bounds.hpp"
#include "calibrate.hpp"
#include "check.hpp"
#include "cli/cli.hpp"
#include "engine/portfolio.hpp"
#include "engine/solve_cache.hpp"
#include "engine/solver.hpp"
#include "io/table_printer.hpp"
#include "io/text_format.hpp"
#include "json.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "workloads/generator.hpp"
#include "workloads/library.hpp"

namespace pb = perfbench;
using Clock = std::chrono::steady_clock;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Runs `fn` and returns its wall time in milliseconds.
template <typename Fn>
double timed_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return ms_between(t0, Clock::now());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

const std::vector<std::string> kFig8Machines = {
    "complete 8", "linear_array 8", "ring 8", "mesh 4 2", "hypercube 3"};
const std::vector<std::string> kGeneratedMachines = {"mesh 4 2",
                                                     "hypercube 3", "ring 8"};

struct Body {
  std::string name;
  ccs::Csdfg graph;
};

std::vector<Body> paper_bodies() {
  return {{"paper_example6", ccs::paper_example6()},
          {"paper_example19", ccs::paper_example19()},
          {"elliptic_filter", ccs::elliptic_filter()},
          {"lattice_filter", ccs::lattice_filter()},
          {"iir_biquad_cascade2", ccs::iir_biquad_cascade(2)},
          {"fir_filter6", ccs::fir_filter(6)},
          {"diffeq_solver", ccs::diffeq_solver()},
          {"correlator3", ccs::correlator(3)}};
}

/// The shape of bench_scaling's graph_of_size: n/6 layers, n/8 back
/// edges, t <= 3, c <= 3.
ccs::Csdfg generated_graph(std::size_t nodes, std::uint64_t seed) {
  ccs::RandomDfgConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_layers = std::max<std::size_t>(3, nodes / 6);
  cfg.num_back_edges = std::max<std::size_t>(2, nodes / 8);
  cfg.max_time = 3;
  cfg.max_volume = 3;
  return ccs::random_csdfg(cfg, seed);
}

/// The same loop body with shuffled node order, shuffled edge order and
/// names prefixed by `tag`: isomorphic, but never byte-identical.
ccs::Csdfg renamed(const ccs::Csdfg& g, ccs::Rng& rng, const std::string& tag) {
  std::vector<std::size_t> order(g.node_count());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng.engine());
  std::vector<ccs::NodeId> to_new(g.node_count());
  ccs::Csdfg out(g.name() + "_renamed");
  for (const std::size_t v : order)
    to_new[v] = out.add_node(tag + g.node(v).name, g.node(v).time);
  std::vector<std::size_t> edges(g.edge_count());
  std::iota(edges.begin(), edges.end(), 0);
  std::shuffle(edges.begin(), edges.end(), rng.engine());
  for (const std::size_t e : edges) {
    const ccs::Edge& edge = g.edge(e);
    out.add_edge(to_new[edge.from], to_new[edge.to], edge.delay,
                 edge.volume);
  }
  return out;
}

/// A parsed machine plus the checker's independent view of it.
struct MachineView {
  std::string spec;
  ccs::Topology topology;
  pb::Machine check;
};

MachineView make_machine(const std::string& spec) {
  ccs::Topology topo = ccs::parse_topology(spec);
  pb::Machine check =
      pb::machine_from_links(topo.size(), topo.links(), topo.directed());
  return {spec, std::move(topo), std::move(check)};
}

pb::Answer answer_from_response(const ccs::Csdfg& input,
                                const ccs::SolveResponse& res) {
  pb::Answer a(input.node_count());
  const ccs::ScheduleTable& table = *res.schedule;
  a.claimed_length = res.best_length;
  a.table_length = table.length();
  a.table_pes = table.num_pes();
  for (std::size_t v = 0; v < input.node_count(); ++v) {
    if (v >= table.node_count() || !table.is_placed(v)) continue;
    const ccs::Placement p = table.placement(v);
    a.pe[v] = static_cast<int>(p.pe);
    a.cb[v] = p.cb;
    a.placements[v] = 1;
    if (v < res.retiming.size()) a.retiming[v] = res.retiming.of(v);
  }
  a.has_retimed_graph = true;
  for (std::size_t e = 0; e < res.graph.edge_count(); ++e) {
    const ccs::Edge& edge = res.graph.edge(e);
    a.retimed_edges.emplace_back(res.graph.node(edge.from).name,
                                 res.graph.node(edge.to).name, edge.delay,
                                 static_cast<long long>(edge.volume));
  }
  return a;
}

// --- Results ---------------------------------------------------------------

/// Failures seen so far, against answers attempted; each failure is
/// printed on the error stream.
struct Tally {
  long long attempted = 0;
  long long failed = 0;

  void record(const std::string& problem, const std::vector<std::string>& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    for (const std::string& w : why)
      std::cerr << "perfbench: FAIL " << problem << ": " << w << '\n';
  }
};

/// What one rotation produced.  Latencies are indexed by problem.
struct Rotation {
  double wall_s = 0.0;
  std::vector<double> latency_ms;
  long long answers = 0;
  long long length_sum = 0;
  long long schedule_bearing = 0;
  long long proven_optimal = 0;
  long long deadline_sent = 0;
  long long deadline_met = 0;
  /// Reference-kernel time (calibrate.hpp) next to each latency sample,
  /// and the one that applies to the rotation's wall time.  Left empty
  /// by workloads content with one reading before and one after.
  std::vector<double> calib_ms;
  double wall_calib_ms = 0.0;
};


/// Quality bookkeeping for one checked, schedule-bearing answer.
void count_schedule(Rotation& rot, const ccs::Csdfg& input,
                    std::size_t pes, int length) {
  ++rot.schedule_bearing;
  rot.length_sum += length;
  if (length == pb::independent_lower_bound(input, pes)) ++rot.proven_optimal;
}

/// Per-problem rows of one traced run: every mirrored call's time (ms)
/// or count, one map per traced rotation.
using TraceRow = std::map<std::string, double>;

struct TraceTable {
  std::vector<std::string> names;
  std::vector<std::vector<TraceRow>> rows;  // [problem][rotation]
  double traced_wall_s = 0.0;
  long long traced_rotations = 0;
  // Whole-run counters the workload reports directly.
  std::map<std::string, double> totals;
};

// --- Workloads -------------------------------------------------------------

/// certify_table on the answer, then the S015 cross-check and the
/// iteration bound it prices, each on the retimed graph.
void time_certify_details(const ccs::Csdfg& retimed,
                                 const ccs::ScheduleTable& table,
                                 const ccs::CommModel& comm, TraceRow& row) {
  ccs::DiagnosticBag bag;
  row["analysis.certify_ms"] = timed_ms([&] {
    (void)ccs::certify_table(retimed, table, comm, "perfbench", bag);
  });
  std::vector<int> speeds(table.num_pes());
  for (std::size_t pe = 0; pe < table.num_pes(); ++pe)
    speeds[pe] = table.pe_speed(pe);
  ccs::DiagnosticBag s015;
  row["analysis.s015_ms"] = timed_ms([&] {
    (void)ccs::cross_check_schedule_bound(retimed, table.length(), speeds,
                                          table.pipelined_pes(), comm,
                                          ccs::SourceSpan{}, s015);
  });
  row["core.iteration_bound_ms"] =
      timed_ms([&] { (void)ccs::iteration_bound(retimed); });
}

void count_passes(const ccs::CycloCompactionResult& run,
                         TraceRow& row) {
  int best = run.startup_length();
  long long useful = 0;
  for (const int len : run.length_trace) {
    if (len < best) ++useful;
    best = std::min(best, len);
  }
  row["core.passes"] = static_cast<double>(run.length_trace.size());
  row["core.useful_passes"] = static_cast<double>(useful);
}


class Workload {
public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Builds the inputs, parses machines with a cleared RouteCache and
  /// starts whatever must be resident.  The warm-up rotation follows.
  /// `corpus_seed` draws the generated graphs and the serve sequence;
  /// `seed` orders the problems and renames resubmissions, so a run's
  /// cost does not depend on which heavy-tailed graphs a seed happens to
  /// draw.
  virtual void setup(std::uint64_t seed, std::uint64_t corpus_seed,
                     const std::filesystem::path& dir) = 0;
  [[nodiscard]] virtual std::vector<std::string> problem_names() const = 0;
  /// One rotation, timed at the caller; answers are checked after the
  /// rotation's clock stops.
  virtual Rotation rotate(Tally& tally) = 0;
  /// One traced rotation: the same work plus every mirrored public call,
  /// each timed, one row per problem.
  virtual void trace(Tally& tally, TraceTable& table) = 0;
  /// Whether this workload's times are scaled by reference-kernel
  /// readings (calibrate.hpp).
  [[nodiscard]] virtual bool scaled_to_reference() const { return true; }
};

// paper_portfolio ----------------------------------------------------------

class PaperPortfolio final : public Workload {
public:
  void setup(std::uint64_t seed, std::uint64_t,
             const std::filesystem::path&) override {
    ccs::SolveCache::global().set_enabled(false);
    ccs::SolveCache::global().clear();
    ccs::RouteCache::global().clear();
    machines_.clear();
    for (const std::string& spec : kFig8Machines)
      machines_.push_back(make_machine(spec));
    problems_.clear();
    for (Body& body : paper_bodies()) {
      for (std::size_t m = 0; m < machines_.size(); ++m) {
        Problem p;
        p.name = body.name + "@" + machines_[m].spec;
        p.machine = m;
        p.request.graph = body.graph;
        p.request.topology = machines_[m].topology;
        p.request.mode = ccs::SolveMode::kPortfolio;
        p.request.portfolio.jobs = 1;
        p.request.certify = true;
        problems_.push_back(std::move(p));
      }
    }
    rng_.emplace(seed);
  }

  [[nodiscard]] std::vector<std::string> problem_names() const override {
    std::vector<std::string> out;
    for (const Problem& p : problems_) out.push_back(p.name);
    return out;
  }

  Rotation rotate(Tally& tally) override {
    Rotation rot;
    rot.latency_ms.assign(problems_.size(), 0.0);
    std::vector<ccs::SolveResponse> answers(problems_.size());
    const std::vector<std::size_t> order = shuffled();
    const auto start = Clock::now();
    for (const std::size_t i : order) {
      const auto t0 = Clock::now();
      answers[i] = solver_.solve(problems_[i].request);
      rot.latency_ms[i] = ms_between(t0, Clock::now());
    }
    rot.wall_s = ms_between(start, Clock::now()) / 1000.0;
    for (std::size_t i = 0; i < problems_.size(); ++i)
      check(i, answers[i], tally, rot);
    return rot;
  }

  void trace(Tally& tally, TraceTable& table) override {
    if (table.rows.empty()) {
      table.names = problem_names();
      table.rows.resize(problems_.size());
    }
    Rotation rot;
    const auto start = Clock::now();
    for (const std::size_t i : shuffled()) {
      const Problem& p = problems_[i];
      const ccs::Csdfg& g = p.request.graph;
      const MachineView& mv = machines_[p.machine];
      const ccs::StoreAndForwardModel comm(mv.topology);
      TraceRow row;
      ccs::SolveResponse res;
      row["engine.solve_ms"] =
          timed_ms([&] { res = solver_.solve(p.request); });
      check(i, res, tally, rot);

      row["arch.machine_ms"] = timed_ms([&] {
        ccs::RouteCache::global().clear();
        (void)ccs::parse_topology(mv.spec);
      });
      ccs::PortfolioOptions popt = p.request.portfolio;
      popt.base = p.request.options;
      popt.certify_winner = true;
      std::optional<ccs::PortfolioResult> folio;
      row["engine.portfolio_ms"] = timed_ms([&] {
        folio.emplace(ccs::portfolio_compact(g, mv.topology, comm, popt));
      });
      row["analysis.bounds_ms"] = timed_ms([&] {
        (void)ccs::compute_bounds(g, mv.topology, comm, p.request.options);
      });
      const ccs::CycloCompactionResult& win = folio->winner;
      time_certify_details(win.retimed_graph, win.best, comm, row);
      row["core.startup_ms"] = timed_ms([&] {
        (void)ccs::start_up_schedule(g, mv.topology, comm,
                                     p.request.options.startup);
      });
      const std::vector<ccs::AttemptConfig> roster =
          ccs::portfolio_attempts(g, popt);
      std::optional<ccs::CycloCompactionResult> base_run;
      row["core.compact_ms"] = timed_ms([&] {
        base_run.emplace(
            ccs::cyclo_compact(g, mv.topology, comm, roster[0].options));
      });
      count_passes(*base_run, row);

      long long pruned = 0;
      for (const ccs::AttemptOutcome& o : res.attempts) pruned += o.pruned;
      row["engine.attempts"] = static_cast<double>(res.attempts.size());
      row["engine.pruned"] = static_cast<double>(pruned);
      row["core.remap_slots_scanned"] =
          static_cast<double>(res.remap_slots_scanned);
      row["core.an_evaluations"] = static_cast<double>(res.an_evaluations);
      row["analysis.input_delay_sum"] = static_cast<double>(g.total_delay());
      row["analysis.retimed_delay_sum"] =
          static_cast<double>(res.graph.total_delay());
      row["top_ms"] = row["engine.solve_ms"];
      row["stage_ms"] = row["engine.portfolio_ms"];
      row["analysis_stage_ms"] =
          row["analysis.bounds_ms"] + row["analysis.certify_ms"];
      row["compaction_stage_ms"] =
          row["engine.portfolio_ms"] - row["analysis_stage_ms"];
      table.rows[i].push_back(std::move(row));
    }
    table.traced_wall_s += ms_between(start, Clock::now()) / 1000.0;
    ++table.traced_rotations;
  }

private:
  struct Problem {
    std::string name;
    std::size_t machine = 0;
    ccs::SolveRequest request;
  };

  std::vector<std::size_t> shuffled() {
    std::vector<std::size_t> order(problems_.size());
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng_->engine());
    return order;
  }

  void check(std::size_t i, const ccs::SolveResponse& res, Tally& tally,
             Rotation& rot) {
    const Problem& p = problems_[i];
    std::vector<std::string> why;
    if (!res.ok() || !res.certified || !res.schedule.has_value()) {
      why.push_back("status " +
                    std::string(ccs::solve_status_name(res.status)) +
                    (res.certified ? "" : ", not certified"));
    } else {
      why = pb::check_answer(p.request.graph, machines_[p.machine].check,
                             answer_from_response(p.request.graph, res));
      if (res.gap < 0)
        why.push_back("lower bound " + std::to_string(res.lower_bound) +
                      " above a valid schedule of length " +
                      std::to_string(res.best_length));
    }
    tally.record(p.name, why);
    ++rot.answers;
    if (why.empty())
      count_schedule(rot, p.request.graph, machines_[p.machine].check.pes,
                     res.best_length);
  }

  ccs::Solver solver_;
  std::vector<MachineView> machines_;
  std::vector<Problem> problems_;
  std::optional<ccs::Rng> rng_;
};

// gen_certified -----------------------------------------------------------

/// Splits `ccsched schedule --certify --emit-graph --emit-schedule` output
/// into the answer, reading the summary line and both emitted artifacts
/// with the checker's own parsers.
pb::Answer answer_from_cli(const ccs::Csdfg& input, const std::string& out) {
  pb::Answer a(input.node_count());
  const std::size_t summary = out.find("\nstartup ");
  const std::size_t graph_at = out.find("\ngraph ", summary);
  const std::size_t sched_at = out.find("\nschedule ", graph_at);
  if (summary == std::string::npos || graph_at == std::string::npos ||
      sched_at == std::string::npos) {
    a.read_errors.push_back("output lacks the summary or emitted artifacts");
    return a;
  }
  const std::string line =
      out.substr(summary + 1, out.find('\n', summary + 1) - summary - 1);
  const std::size_t arrow = line.find(" -> ");
  if (arrow == std::string::npos || line.find("[valid]") == std::string::npos ||
      line.find("[certified]") == std::string::npos) {
    a.read_errors.push_back("summary not valid+certified: " + line);
    return a;
  }
  a.claimed_length = std::atoi(line.c_str() + arrow + 4);
  pb::read_graph_text(
      std::string_view(out).substr(graph_at + 1, sched_at - graph_at), a);
  pb::read_schedule_text(input, std::string_view(out).substr(sched_at + 1),
                         a);
  return a;
}

class GenCertified final : public Workload {
public:
  /// Problems per rotation.  0.95 * 30 = 28.5, so the pooled p95 rank
  /// falls mid-way into a problem's block of samples, never on an edge.
  static constexpr std::size_t kGraphs = 30;

  void setup(std::uint64_t seed, std::uint64_t corpus_seed,
             const std::filesystem::path& dir) override {
    ccs::SolveCache::global().set_enabled(true);
    ccs::SolveCache::global().clear();
    ccs::RouteCache::global().clear();
    machines_.clear();
    for (const std::string& spec : kGeneratedMachines)
      machines_.push_back(make_machine(spec));
    ccs::Rng rng(corpus_seed);
    ccs::Rng order(seed);
    const std::filesystem::path where =
        dir / ("gen_certified-" + std::to_string(corpus_seed));
    std::filesystem::create_directories(where);
    problems_.clear();
    for (std::size_t i = 0; i < kGraphs; ++i) {
      // Sizes are stratified over 24..48 so every seed spans the range.
      const std::size_t nodes = 24 + (i * 24) / (kGraphs - 1);
      Problem p;
      p.graph = generated_graph(nodes, rng.engine()());
      p.machine = i % machines_.size();
      p.path =
          where / std::string("g").append(std::to_string(i)).append(".csdfg");
      std::ofstream(p.path) << ccs::serialize_csdfg(p.graph);
      p.name = "gen" + std::to_string(i) + "(" + std::to_string(nodes) +
               ")@" + machines_[p.machine].spec;
      p.args = {"schedule",        p.path.string(),  "--arch",
                machines_[p.machine].spec,           "--certify",
                "--emit-schedule", "--emit-graph"};
      problems_.push_back(std::move(p));
    }
    std::shuffle(problems_.begin(), problems_.end(), order.engine());
  }

  [[nodiscard]] std::vector<std::string> problem_names() const override {
    std::vector<std::string> out;
    for (const Problem& p : problems_) out.push_back(p.name);
    return out;
  }

  Rotation rotate(Tally& tally) override {
    Rotation rot;
    rot.latency_ms.assign(problems_.size(), 0.0);
    std::vector<Output> outputs(problems_.size());
    // A rotation lasts seconds, long enough for the host's speed to
    // drift, so each call gets its own reference reading.
    std::vector<double> kernel(problems_.size() + 1);
    double busy_ms = 0.0, busy_ref = 0.0;
    for (std::size_t i = 0; i < problems_.size(); ++i) {
      kernel[i] = pb::reference_kernel_ms();
      outputs[i] = run(problems_[i], rot.latency_ms[i]);
      busy_ms += rot.latency_ms[i];
    }
    kernel.back() = pb::reference_kernel_ms();
    for (std::size_t i = 0; i < problems_.size(); ++i) {
      rot.calib_ms.push_back((kernel[i] + kernel[i + 1]) / 2.0);
      busy_ref += rot.latency_ms[i] / rot.calib_ms[i];
    }
    rot.wall_s = busy_ms / 1000.0;
    rot.wall_calib_ms = busy_ms / busy_ref;
    for (std::size_t i = 0; i < problems_.size(); ++i)
      check(i, outputs[i], tally, rot);
    return rot;
  }

  void trace(Tally& tally, TraceTable& table) override {
    if (table.rows.empty()) {
      table.names = problem_names();
      table.rows.resize(problems_.size());
    }
    Rotation rot;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < problems_.size(); ++i) {
      const Problem& p = problems_[i];
      TraceRow row;
      double cli_ms = 0.0;
      const Output output = run(p, cli_ms);
      check(i, output, tally, rot);
      row["cli.schedule_ms"] = cli_ms;

      // The same pipeline, call by call (cmd_schedule in src/cli/cli.cpp).
      std::string text;
      ccs::Csdfg g;
      ccs::DiagnosticBag bag;
      std::optional<ccs::ParsedCsdfg> parsed;
      row["io.parse_ms"] = timed_ms([&] {
        std::ifstream f(p.path);
        std::ostringstream os;
        os << f.rdbuf();
        text = os.str();
        g = ccs::parse_csdfg(text);
        parsed.emplace(ccs::parse_csdfg_with_spans(text, p.path.string(), bag));
      });
      std::optional<ccs::Topology> topo;
      row["arch.machine_ms"] = timed_ms([&] {
        ccs::RouteCache::global().clear();
        topo.emplace(ccs::parse_topology(machines_[p.machine].spec));
      });
      const ccs::StoreAndForwardModel comm(*topo);
      ccs::LintOptions lint_options;
      lint_options.topology = &*topo;
      row["analysis.lint_ms"] = timed_ms([&] {
        ccs::run_lint_passes({parsed->graph, parsed->spans, lint_options},
                             bag);
        bag.finalize();
      });
      ccs::CycloCompactionOptions opt;
      opt.policy = ccs::RemapPolicy::kWithRelaxation;
      std::optional<ccs::CycloCompactionResult> run;
      row["core.compact_ms"] = timed_ms(
          [&] { run.emplace(ccs::cyclo_compact(g, *topo, comm, opt)); });
      row["core.validate_ms"] = timed_ms([&] {
        (void)ccs::validate_schedule(run->retimed_graph, run->best, comm);
      });
      ccs::DiagnosticBag cert;
      row["analysis.certify_ms"] = timed_ms([&] {
        (void)ccs::certify_compaction_run(g, *run, comm, opt.policy,
                                          p.path.string(), {}, cert);
      });
      row["io.render_ms"] = timed_ms([&] {
        (void)ccs::render_schedule(run->retimed_graph, run->best);
        (void)ccs::serialize_csdfg(run->retimed_graph);
        (void)ccs::serialize_schedule(run->retimed_graph, run->best,
                                      &run->retiming);
      });
      // Nested inside the stages above.
      const double certify_ms = row["analysis.certify_ms"];
      time_certify_details(run->retimed_graph, run->best, comm,
                                           row);
      row["analysis.certify_ms"] = certify_ms;
      row["core.startup_ms"] = timed_ms([&] {
        (void)ccs::start_up_schedule(g, *topo, comm, opt.startup);
      });
      count_passes(*run, row);
      row["core.remap_slots_scanned"] =
          static_cast<double>(run->remap_stats.slots_scanned);
      row["core.an_evaluations"] =
          static_cast<double>(run->remap_stats.an_evaluations);
      row["analysis.input_delay_sum"] = static_cast<double>(g.total_delay());
      row["analysis.retimed_delay_sum"] =
          static_cast<double>(run->retimed_graph.total_delay());

      row["top_ms"] = cli_ms;
      row["stage_ms"] = row["io.parse_ms"] + row["arch.machine_ms"] +
                        row["analysis.lint_ms"] + row["core.compact_ms"] +
                        row["core.validate_ms"] + row["analysis.certify_ms"] +
                        row["io.render_ms"];
      row["cli.unattributed_ms"] = cli_ms - row["stage_ms"];
      row["analysis_stage_ms"] =
          row["analysis.lint_ms"] + row["analysis.certify_ms"];
      row["compaction_stage_ms"] = row["core.compact_ms"];
      table.rows[i].push_back(std::move(row));
    }
    table.traced_wall_s += ms_between(start, Clock::now()) / 1000.0;
    ++table.traced_rotations;
  }

private:
  struct Problem {
    std::string name;
    ccs::Csdfg graph;
    std::size_t machine = 0;
    std::filesystem::path path;
    std::vector<std::string> args;
  };
  struct Output {
    int code = 0;
    std::string out;
    std::string err;
  };

  /// One `ccsched schedule` call.  A real invocation is a fresh process,
  /// so both process-wide caches start empty: an answer replayed from the
  /// SolveCache would post a gain no user sees.
  static Output run(const Problem& p, double& latency_ms) {
    ccs::SolveCache::global().clear();
    ccs::RouteCache::global().clear();
    std::istringstream in;
    std::ostringstream out, err;
    const auto t0 = Clock::now();
    const int code = ccs::run_cli(p.args, in, out, err);
    latency_ms = ms_between(t0, Clock::now());
    return {code, out.str(), err.str()};
  }

  void check(std::size_t i, const Output& o, Tally& tally, Rotation& rot) {
    const Problem& p = problems_[i];
    std::vector<std::string> why;
    pb::Answer a = answer_from_cli(p.graph, o.out);
    if (o.code != 0) why.push_back("exit code " + std::to_string(o.code));
    const std::vector<std::string> bad =
        pb::check_answer(p.graph, machines_[p.machine].check, a);
    why.insert(why.end(), bad.begin(), bad.end());
    tally.record(p.name, why);
    ++rot.answers;
    if (why.empty())
      count_schedule(rot, p.graph, machines_[p.machine].check.pes,
                     a.table_length);
  }

  std::vector<MachineView> machines_;
  std::vector<Problem> problems_;
};

// serve_mixed -------------------------------------------------------------

/// Blocking line I/O over pipe file descriptors, for both ends of the
/// in-process service.
class FdInBuf final : public std::streambuf {
public:
  explicit FdInBuf(int fd) : fd_(fd) { setg(buf_, buf_, buf_); }

protected:
  int underflow() override {
    ssize_t n = 0;
    do {
      n = ::read(fd_, buf_, sizeof(buf_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(buf_, buf_, buf_ + n);
    return traits_type::to_int_type(*gptr());
  }

private:
  int fd_;
  char buf_[1 << 16];
};

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

class FdOutBuf final : public std::streambuf {
public:
  explicit FdOutBuf(int fd) : fd_(fd) { setp(buf_, buf_ + sizeof(buf_)); }

protected:
  int overflow(int_type c) override {
    if (!flush_out()) return traits_type::eof();
    if (c != traits_type::eof()) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }
  int sync() override { return flush_out() ? 0 : -1; }

private:
  bool flush_out() {
    const auto n = static_cast<std::size_t>(pptr() - pbase());
    const bool ok = write_all(fd_, std::string_view(pbase(), n));
    setp(buf_, buf_ + sizeof(buf_));
    return ok;
  }

  int fd_;
  char buf_[1 << 16];
};

/// `ccsched serve` running on a thread of this process, fed through pipes
/// exactly as a client would feed the binary's stdin/stdout.
class ResidentService {
public:
  explicit ResidentService(const ccs::ServeOptions& opts) {
    int req[2] = {-1, -1};
    int resp[2] = {-1, -1};
    if (::pipe(req) != 0 || ::pipe(resp) != 0)
      throw std::runtime_error("pipe() failed");
    req_write_ = req[1];
    resp_read_ = resp[0];
    thread_ = std::thread([this, opts, in_fd = req[0], out_fd = resp[1]] {
      FdInBuf in_buf(in_fd);
      FdOutBuf out_buf(out_fd);
      std::istream in(&in_buf);
      std::ostream out(&out_buf);
      summary_ = ccs::run_serve(in, out, err_, opts);
      out.flush();
      ::close(in_fd);
      ::close(out_fd);
    });
    in_buf_ = std::make_unique<FdInBuf>(resp_read_);
    responses_ = std::make_unique<std::istream>(in_buf_.get());
  }
  ResidentService(const ResidentService&) = delete;
  ResidentService& operator=(const ResidentService&) = delete;

  ~ResidentService() {
    (void)write_all(req_write_, "{\"op\":\"shutdown\"}\n");
    ::close(req_write_);
    std::string line;
    while (std::getline(*responses_, line)) {
    }
    thread_.join();
    ::close(resp_read_);
  }

  void send(const std::string& line) {
    if (!write_all(req_write_, line) || !write_all(req_write_, "\n"))
      throw std::runtime_error("serve request pipe closed");
  }

  std::string receive() {
    std::string line;
    if (!std::getline(*responses_, line))
      throw std::runtime_error("serve response pipe closed");
    return line;
  }

private:
  int req_write_ = -1;
  int resp_read_ = -1;
  std::unique_ptr<FdInBuf> in_buf_;
  std::unique_ptr<std::istream> responses_;
  std::ostringstream err_;
  ccs::ServeSummary summary_;
  std::thread thread_;
};

/// Stands in for serve's drain token, which never fires mid-run here.
struct NeverStop final : ccs::BudgetStopToken {
  [[nodiscard]] bool stop_requested(int) const override { return false; }
};
const NeverStop kNeverStop;

/// Idle-priority threads that keep the machine's vCPUs from halting while
/// the serve workload runs.  Serve hands each request across three
/// threads, and on a VM a thread woken on a halted vCPU starts late:
/// replays took 0.3 ms on a busy host and 0.9-4 ms on an idle one, which
/// flipped over minutes and moved the serve gmean by 40 %.  SCHED_IDLE
/// threads run only when nothing else can, so they take no time from the
/// service.
class IdleSpinners {
public:
  IdleSpinners() {
    const unsigned n = std::max(1U, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i)
      threads_.emplace_back([this] {
        sched_param param{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0)
          return;
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();  // spare the SMT sibling's pipeline
#endif
        }
      });
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }

private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

class ServeMixed final : public Workload {
public:
  /// Requests outstanding at once: a closed loop of one client.
  static constexpr std::size_t kWindow = 2;

  void setup(std::uint64_t seed, std::uint64_t corpus_seed,
             const std::filesystem::path&) override {
    service_.reset();
    ccs::SolveCache::global().set_enabled(true);
    ccs::SolveCache::global().clear();
    ccs::RouteCache::global().clear();
    machines_.clear();
    for (const std::string& spec : kFig8Machines)
      machines_.push_back(make_machine(spec));
    build_sequence(seed, corpus_seed);
    ccs::ServeOptions opts;
    opts.jobs = 2;
    service_ = std::make_unique<ResidentService>(opts);
  }

  [[nodiscard]] std::vector<std::string> problem_names() const override {
    std::vector<std::string> out;
    for (const Item& it : items_) out.push_back(it.name);
    return out;
  }

  /// With the spinners awake, serve's own times held within a few percent
  /// while the single-threaded kernel's readings swung 15 %: scaling by
  /// them added noise, so serve reports times as measured.
  [[nodiscard]] bool scaled_to_reference() const override { return false; }

  Rotation rotate(Tally& tally) override {
    Rotation rot;
    std::vector<std::string> responses;
    exchange(rot, responses);
    for (std::size_t k = 0; k < items_.size(); ++k)
      check(k, responses[k], rot.latency_ms[k], tally, rot);
    return rot;
  }

  void trace(Tally& tally, TraceTable& table) override {
    if (table.rows.empty()) {
      table.names = problem_names();
      table.rows.resize(items_.size());
    }
    const auto start = Clock::now();
    Rotation rot;
    std::vector<std::string> responses;
    exchange(rot, responses);
    const ccs::SolveCache::Stats stats = ccs::SolveCache::global().stats();
    table.totals["cache_lookups"] += static_cast<double>(stats.lookups);
    table.totals["cache_hits"] += static_cast<double>(stats.hits);
    table.totals["cache_identical"] +=
        static_cast<double>(stats.identical_hits);
    table.totals["cache_evicted"] += static_cast<double>(stats.evicted);
    for (std::size_t k = 0; k < items_.size(); ++k)
      check(k, responses[k], rot.latency_ms[k], tally, rot);

    // Replay the same sequence through the public calls serve makes
    // (handle_solve in src/serve/service.cpp), one at a time, from an
    // empty cache.
    ccs::SolveCache::global().clear();
    for (std::size_t k = 0; k < items_.size(); ++k) {
      const Item& it = items_[k];
      const MachineView& mv = machines_[it.machine];
      const ccs::StoreAndForwardModel comm(mv.topology);
      TraceRow row;
      ccs::SolveRequest base;
      row["io.parse_ms"] =
          timed_ms([&] { base.graph = ccs::parse_csdfg(it.text); });
      base.arch = mv.spec;
      base.mode = it.portfolio ? ccs::SolveMode::kPortfolio
                               : ccs::SolveMode::kSchedule;
      base.certify = true;
      if (it.portfolio) base.portfolio.jobs = 1;
      const long long identical_before =
          ccs::SolveCache::global().stats().identical_hits;
      std::optional<ccs::SolveResponse> res;
      row["engine.try_cached_ms"] =
          timed_ms([&] { res = solver_.try_cached(base); });
      const bool hit = res.has_value();
      const bool tier1 =
          hit && ccs::SolveCache::global().stats().identical_hits >
                     identical_before;
      double engine_ms = row["engine.try_cached_ms"];
      if (!tier1)
        row["analysis.canon_ms"] =
            timed_ms([&] { (void)ccs::canonicalize(base.graph); });
      if (!hit && it.rung == "bound-only") {
        ccs::CycloCompactionOptions opts;
        row["analysis.bounds_ms"] = timed_ms([&] {
          (void)ccs::compute_bounds(base.graph, mv.topology, comm, opts);
        });
        engine_ms += row["analysis.bounds_ms"];
      } else if (!hit) {
        // Serve hands every solve a budget carrying its drain token, which
        // keeps solve() from caching; only publish() below can.
        ccs::SolveRequest q = base;
        if (it.rung == "compact") q.mode = ccs::SolveMode::kSchedule;
        if (it.rung == "list-schedule") q.mode = ccs::SolveMode::kStartup;
        q.options.budget.deadline_ms = it.deadline_ms;
        q.options.budget.stop = &kNeverStop;
        row["engine.solve_ms"] = timed_ms([&] {
          res = solver_.solve(q);
          if (it.rung.empty() && res->ok() && res->certified &&
              res->stop_reason.empty())
            solver_.publish(base, *res);
        });
        engine_ms += row["engine.solve_ms"];
      }
      if (res.has_value() && res->schedule.has_value()) {
        if (it.emit)
          row["io.render_ms"] = timed_ms([&] {
            (void)ccs::serialize_schedule(res->graph, *res->schedule,
                                          &res->retiming);
            (void)ccs::serialize_csdfg(res->graph);
          });
        if (!tier1)
          time_certify_details(res->graph, *res->schedule,
                                               comm, row);
        long long pruned = 0;
        for (const ccs::AttemptOutcome& o : res->attempts) pruned += o.pruned;
        if (!hit && it.portfolio && it.rung.empty()) {
          row["engine.attempts"] = static_cast<double>(res->attempts.size());
          row["engine.pruned"] = static_cast<double>(pruned);
        }
        if (!hit) {
          row["core.remap_slots_scanned"] =
              static_cast<double>(res->remap_slots_scanned);
          row["core.an_evaluations"] =
              static_cast<double>(res->an_evaluations);
        }
        row["analysis.input_delay_sum"] =
            static_cast<double>(base.graph.total_delay());
        row["analysis.retimed_delay_sum"] =
            static_cast<double>(res->graph.total_delay());
      }
      row["top_ms"] = rot.latency_ms[k];
      row["engine_ms"] = engine_ms;
      row["serve.overhead_ms"] = rot.latency_ms[k] - engine_ms;
      row["stage_ms"] = row["io.parse_ms"] + engine_ms + row["io.render_ms"];
      row["analysis_stage_ms"] = row["analysis.bounds_ms"];
      if (!tier1) row["analysis_stage_ms"] += row["analysis.certify_ms"];
      row["serve.degraded"] = degraded_[k] ? 1.0 : 0.0;
      row["serve.shed"] = shed_[k] ? 1.0 : 0.0;
      table.rows[k].push_back(std::move(row));
    }
    table.traced_wall_s += ms_between(start, Clock::now()) / 1000.0;
    ++table.traced_rotations;
  }

private:
  using Json = pb::Json;

  struct Item {
    std::string name;
    std::string text;   // graph text as sent
    ccs::Csdfg graph;   // the same graph, for the checker
    std::size_t machine = 0;
    bool portfolio = false;
    std::string rung;   // expected `degraded` value
    long long deadline_ms = 0;
    bool emit = true;   // answer carries the schedule and retimed graph
    std::string line;   // the request line
  };

  Item make_item(std::string name, ccs::Csdfg graph,
                 std::size_t machine, bool portfolio, std::string rung,
                 long long deadline_ms) {
    Item it;
    it.name = std::move(name);
    it.text = ccs::serialize_csdfg(graph);
    it.graph = std::move(graph);
    it.machine = machine;
    it.portfolio = portfolio;
    it.rung = std::move(rung);
    it.deadline_ms = deadline_ms;
    // A start-up answer carries an empty retiming, and serve faults on
    // rendering it (serialize_schedule's precondition), so list-rung
    // requests go without `emit` and are checked on what they do carry.
    it.emit = it.rung != "list-schedule";
    pb::JsonWriter w;
    w.field("op", "solve");
    w.field("id", it.name);
    w.field("graph", it.text);
    w.field("arch", machines_[machine].spec);
    w.field("mode", portfolio ? "portfolio" : "schedule");
    w.field("emit", it.emit);
    if (deadline_ms > 0) w.field("deadline_ms", deadline_ms);
    it.line = w.close();
    return it;
  }

  /// The seed-built request sequence, replayed every rotation:
  ///   10 cold portfolio solves of library bodies,
  ///    4 cold schedule solves of generated 24-40-node graphs,
  ///   14 byte-identical resubmissions (tier-1 replay),
  ///   14 renamed resubmissions (tier-2 translate + re-certify),
  ///    3 compact-rung and 3 list-rung deadlines on library bodies,
  ///    2 bound-only deadlines on generated 96-128-node graphs.
  /// 50 requests: 0.95 * 50 = 47.5, so the pooled p95 rank falls mid-way
  /// into a request's block of samples.  Deadlines sit far from the
  /// 200/50/5 ms rung thresholds so each request's rung is fixed.
  void build_sequence(std::uint64_t seed, std::uint64_t corpus_seed) {
    ccs::Rng rng(corpus_seed);
    // A renamed body that misses the cache is solved cold, and its node
    // order steers compaction; so the order comes from the corpus and only
    // the names from the run's seed.
    const std::string tag = "s" + std::to_string(seed) + "_";
    const std::vector<Body> bodies = paper_bodies();
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t b = 0; b < bodies.size(); ++b)
      for (std::size_t m = 0; m < machines_.size(); ++m)
        pairs.emplace_back(b, m);
    std::shuffle(pairs.begin(), pairs.end(), rng.engine());
    const auto pair_name = [&](std::size_t i) {
      return bodies[pairs[i].first].name + "@" +
             machines_[pairs[i].second].spec;
    };

    std::vector<Item> cold, deadline;
    for (std::size_t i = 0; i < 10; ++i)
      cold.push_back(make_item("cold:" + pair_name(i),
                               bodies[pairs[i].first].graph, pairs[i].second,
                               true, "", 0));
    const std::size_t gen_machines[] = {2, 3, 4};  // ring, mesh, hypercube
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t nodes = 24 + (i * 16) / 3;
      const std::size_t m = gen_machines[i % 3];
      cold.push_back(make_item(
          "cold:gen" + std::to_string(nodes) + "@" + machines_[m].spec,
          generated_graph(nodes, rng.engine()()), m, false, "", 0));
    }
    for (std::size_t i = 10; i < 16; ++i) {
      const bool compact = i < 13;
      deadline.push_back(make_item(
          std::string(compact ? "compact:" : "list:") + pair_name(i),
          bodies[pairs[i].first].graph, pairs[i].second, true,
          compact ? "compact" : "list-schedule", compact ? 120 : 20));
    }
    for (std::size_t i = 0; i < 2; ++i) {
      const std::size_t nodes = 96 + 32 * i;
      const std::size_t m = gen_machines[(i + 1) % 3];
      deadline.push_back(make_item(
          "bound:gen" + std::to_string(nodes) + "@" + machines_[m].spec,
          generated_graph(nodes, rng.engine()()), m, false,
          "bound-only", 4));
    }
    std::shuffle(cold.begin(), cold.end(), rng.engine());

    // Deadline-bearing requests open the rotation: compact, then list,
    // then bound-only.  Serve answers in request order, so a request also
    // waits for the one ahead of it; this way each compact or list request
    // follows a fast one and meets or misses its deadline on its own.
    items_ = deadline;
    // Then the cold solves and their resubmissions, interleaved at random.
    // A resubmission comes at least two places after its original, which
    // with two requests in flight guarantees the original's answer was
    // published before it lands.  A draw that strands the last
    // resubmissions is drawn again.
    const std::size_t opening = items_.size();
    for (bool placed = false; !placed;) {
      items_.resize(opening);
      std::vector<std::pair<std::size_t, Item>> pending;  // (eligible at, item)
      std::size_t next_cold = 0;
      placed = true;
      while (next_cold < cold.size() || !pending.empty()) {
        std::vector<std::size_t> ready;
        for (std::size_t j = 0; j < pending.size(); ++j)
          if (pending[j].first <= items_.size()) ready.push_back(j);
        const bool cold_left = next_cold < cold.size();
        if (!cold_left && ready.empty()) {
          placed = false;
          break;
        }
        if (cold_left && (ready.empty() || rng.bernoulli(0.5))) {
          const Item& orig = cold[next_cold++];
          const std::size_t eligible = items_.size() + 2;
          pending.emplace_back(
              eligible, make_item("replay:" + orig.name.substr(5), orig.graph,
                                  orig.machine, orig.portfolio, "", 0));
          pending.emplace_back(
              eligible,
              make_item("renamed:" + orig.name.substr(5),
                        renamed(orig.graph, rng, tag), orig.machine,
                        orig.portfolio, "", 0));
          items_.push_back(orig);
        } else {
          const std::size_t j = ready[rng.uniform_size(0, ready.size() - 1)];
          items_.push_back(std::move(pending[j].second));
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(j));
        }
      }
    }
    degraded_.assign(items_.size(), false);
    shed_.assign(items_.size(), false);
  }

  /// One rotation on the resident service from an empty cache: a closed
  /// loop keeping kWindow requests outstanding.  Latency runs from the
  /// send of the request line to the arrival of its response line.
  void exchange(Rotation& rot, std::vector<std::string>& responses) {
    ccs::SolveCache::global().clear();
    const std::size_t n = items_.size();
    rot.latency_ms.assign(n, 0.0);
    responses.assign(n, {});
    std::vector<Clock::time_point> sent(n);
    const auto start = Clock::now();
    std::size_t next = 0;
    for (; next < std::min(kWindow, n); ++next) {
      sent[next] = Clock::now();
      service_->send(items_[next].line);
    }
    for (std::size_t k = 0; k < n; ++k) {
      responses[k] = service_->receive();
      rot.latency_ms[k] = ms_between(sent[k], Clock::now());
      if (next < n) {
        sent[next] = Clock::now();
        service_->send(items_[next].line);
        ++next;
      }
    }
    rot.wall_s = ms_between(start, Clock::now()) / 1000.0;
  }

  void check(std::size_t k, const std::string& line, double latency_ms,
             Tally& tally, Rotation& rot) {
    const Item& it = items_[k];
    const MachineView& mv = machines_[it.machine];
    std::vector<std::string> why;
    Json r;
    std::string error;
    ++rot.answers;
    if (!pb::parse_json(line, r, error)) {
      tally.record(it.name, {"unparseable response: " + error});
      return;
    }
    const auto str = [&](std::string_view key) {
      const Json* v = r.get(key);
      return v != nullptr && v->kind == Json::Kind::kString ? v->text
                                                            : std::string();
    };
    const auto num = [&](std::string_view key) {
      const Json* v = r.get(key);
      return v != nullptr && v->kind == Json::Kind::kNumber
                 ? static_cast<long long>(v->number)
                 : -1LL;
    };
    const Json* certified = r.get("certified");
    const std::string status = str("status");
    const std::string degraded = str("degraded");
    degraded_[k] = !degraded.empty();
    shed_[k] = status == "overloaded";
    if (str("id") != it.name) why.push_back("answer to " + str("id"));
    bool schedule = false;
    int length = 0;
    // Each answer is checked as what it says it is: the rung that
    // answered is picked from the time left, so a stall may lower it.
    if (degraded == "bound-only") {
      const long long bound = num("lower_bound");
      if (it.deadline_ms <= 0 || status != "uncertified" || bound < 1 ||
          bound > it.graph.total_computation())
        why.push_back("bound-only answer " + status + " with bound " +
                      std::to_string(bound) + " outside [1, sum t]");
    } else if (it.rung == "bound-only" && status == "rejected" &&
               str("code") == "CCS-E003") {
      // Also within serve's contract: a 4 ms deadline that runs out while
      // the request waits for a worker is refused.  It counts as missed.
    } else if (status != "ok" || certified == nullptr || !certified->boolean) {
      why.push_back("status " + status + " " + str("code") + " " +
                    str("message"));
    } else if (r.get("schedule") == nullptr) {
      // No schedule text: the length must still respect this file's own
      // lower bound and the compiler's.
      length = static_cast<int>(num("length"));
      const int floor = pb::independent_lower_bound(it.graph, mv.check.pes);
      if (it.rung != "list-schedule" || length < floor ||
          num("lower_bound") > length)
        why.push_back("answer without a schedule: length " +
                      std::to_string(length) + ", bounds " +
                      std::to_string(floor) + "/" +
                      std::to_string(num("lower_bound")));
      schedule = true;
    } else {
      pb::Answer a(it.graph.node_count());
      a.claimed_length = static_cast<int>(num("length"));
      pb::read_graph_text(str("graph"), a);
      pb::read_schedule_text(it.graph, str("schedule"), a);
      const std::vector<std::string> bad =
          pb::check_answer(it.graph, mv.check, a);
      why.insert(why.end(), bad.begin(), bad.end());
      if (num("lower_bound") > a.table_length)
        why.push_back("lower bound " + std::to_string(num("lower_bound")) +
                      " above a valid schedule of length " +
                      std::to_string(a.table_length));
      schedule = true;
      length = a.table_length;
    }
    tally.record(it.name, why);
    if (!why.empty()) return;
    // A deadline-bearing answer's rung, and so its schedule, depends on
    // timing; only the others make the deterministic counts.
    if (schedule && it.deadline_ms <= 0)
      count_schedule(rot, it.graph, mv.check.pes, length);
    if (it.deadline_ms > 0) {
      ++rot.deadline_sent;
      if (degraded == it.rung &&
          latency_ms <= static_cast<double>(it.deadline_ms))
        ++rot.deadline_met;
    }
  }

  ccs::Solver solver_;
  std::vector<MachineView> machines_;
  std::vector<Item> items_;
  std::vector<bool> degraded_, shed_;
  std::unique_ptr<ResidentService> service_;
  // Awake for the workload's whole life, so the reference-kernel readings
  // next to each rotation are taken on the same busy machine.
  IdleSpinners spinners_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "paper_portfolio") return std::make_unique<PaperPortfolio>();
  if (name == "gen_certified") return std::make_unique<GenCertified>();
  if (name == "serve_mixed") return std::make_unique<ServeMixed>();
  return nullptr;
}

// --- Reporting -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::string build_stamp() {
  pb::JsonWriter w;
  w.field("kind", "build");
  w.field("build_type", PERFBENCH_BUILD_TYPE);
  w.field("compiler", PERFBENCH_COMPILER);
  w.field("flags", PERFBENCH_FLAGS);
#ifdef NDEBUG
  w.field("ndebug", true);
#else
  w.field("ndebug", false);
#endif
  w.field("api_version", static_cast<long long>(CCSCHED_API_VERSION));
  return w.close();
}

/// The per-layer metrics of a traced run, from the per-problem medians.
std::string layer_metrics(const TraceTable& t, double untraced_rotation_s,
                          std::ostream& rows_out) {
  const std::size_t problems = t.rows.size();
  std::map<std::string, double> sum;       // over problems
  std::map<std::string, double> present;   // problems carrying the key
  for (std::size_t i = 0; i < problems; ++i) {
    std::map<std::string, std::vector<double>> by_key;
    for (const TraceRow& r : t.rows[i])
      for (const auto& [k, v] : r) by_key[k].push_back(v);
    pb::JsonWriter row;
    row.field("kind", "trace_row");
    row.field("problem", t.names[i]);
    for (auto& [k, values] : by_key) {
      const double m = median(values);
      sum[k] += m;
      present[k] += 1.0;
      row.field(k, m);
    }
    rows_out << row.close() << '\n';
  }
  const auto per_problem = [&](const std::string& k) {
    return problems == 0 ? 0.0 : sum[k] / static_cast<double>(problems);
  };
  const auto mean_present = [&](const std::string& k) {
    return present[k] == 0.0 ? 0.0 : sum[k] / present[k];
  };
  const auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  const double top = sum["top_ms"];
  auto totals = t.totals;

  struct Metric {
    const char* name;
    const char* unit;
    double value;
  };
  const std::vector<Metric> metrics = {
      {"cli.schedule_ms", "ms", per_problem("cli.schedule_ms")},
      {"cli.unattributed_ms", "ms", per_problem("cli.unattributed_ms")},
      {"io.parse_ms", "ms", per_problem("io.parse_ms")},
      {"io.render_ms", "ms", per_problem("io.render_ms")},
      {"arch.machine_ms", "ms", per_problem("arch.machine_ms")},
      {"analysis.lint_ms", "ms", per_problem("analysis.lint_ms")},
      {"analysis.bounds_ms", "ms", per_problem("analysis.bounds_ms")},
      {"analysis.certify_ms", "ms", per_problem("analysis.certify_ms")},
      {"analysis.s015_ms", "ms", per_problem("analysis.s015_ms")},
      {"analysis.s015_share", "ratio",
       ratio(sum["analysis.s015_ms"], sum["analysis.certify_ms"])},
      {"analysis.canon_ms", "ms", per_problem("analysis.canon_ms")},
      {"analysis.input_delay_sum", "count",
       mean_present("analysis.input_delay_sum")},
      {"analysis.retimed_delay_sum", "count",
       mean_present("analysis.retimed_delay_sum")},
      {"core.iteration_bound_ms", "ms", per_problem("core.iteration_bound_ms")},
      {"core.startup_ms", "ms", per_problem("core.startup_ms")},
      {"core.compact_ms", "ms", per_problem("core.compact_ms")},
      {"core.validate_ms", "ms", per_problem("core.validate_ms")},
      {"core.passes", "count", mean_present("core.passes")},
      {"core.useful_pass_ratio", "ratio",
       ratio(sum["core.useful_passes"], sum["core.passes"])},
      {"core.remap_slots_scanned", "count",
       mean_present("core.remap_slots_scanned")},
      {"core.an_evaluations", "count", mean_present("core.an_evaluations")},
      {"engine.solve_ms", "ms", per_problem("engine.solve_ms")},
      {"engine.portfolio_ms", "ms", per_problem("engine.portfolio_ms")},
      {"engine.attempts", "count", mean_present("engine.attempts")},
      {"engine.pruned_ratio", "ratio",
       ratio(sum["engine.pruned"], sum["engine.attempts"])},
      {"engine.try_cached_ms", "ms", per_problem("engine.try_cached_ms")},
      {"engine.cache_hit_ratio", "ratio",
       ratio(totals["cache_hits"], totals["cache_lookups"])},
      {"engine.cache_identical_ratio", "ratio",
       ratio(totals["cache_identical"], totals["cache_hits"])},
      {"engine.cache_evicted", "count",
       ratio(totals["cache_evicted"], static_cast<double>(t.traced_rotations))},
      {"serve.overhead_ms", "ms", per_problem("serve.overhead_ms")},
      {"serve.degraded_ratio", "ratio", per_problem("serve.degraded")},
      {"serve.shed_ratio", "ratio", per_problem("serve.shed")},
      {"trace.coverage", "ratio", ratio(sum["stage_ms"], top)},
      {"trace.overhead_ratio", "ratio",
       ratio(t.traced_wall_s / static_cast<double>(t.traced_rotations),
             untraced_rotation_s)},
      {"trace.analysis_share", "ratio", ratio(sum["analysis_stage_ms"], top)},
      {"trace.compaction_share", "ratio",
       ratio(sum["compaction_stage_ms"], top)},
  };
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    pb::JsonWriter m;
    m.field("value", metrics[i].value);
    m.field("unit", metrics[i].unit);
    if (i > 0) out += ',';
    out += pb::quote(metrics[i].name) + ":" + m.close();
  }
  return out + "}";
}

/// A reference-kernel reading, or 0 for a workload reported as measured.
double kernel_reading(const Workload& w) {
  return w.scaled_to_reference() ? pb::reference_kernel_ms() : 0.0;
}

/// One timed rotation with the host's speed read before and after it.
Rotation calibrated_rotation(Workload& w, Tally& tally) {
  const double before = kernel_reading(w);
  Rotation rot = w.rotate(tally);
  const double around = (before + kernel_reading(w)) / 2.0;
  if (rot.calib_ms.empty()) {
    rot.calib_ms.assign(rot.latency_ms.size(), around);
    rot.wall_calib_ms = around;
  }
  return rot;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t corpus_seed = 4242;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path workdir = ".";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool seen_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
        seen_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = value == "1";
      } else if (key == "--workdir") {
        a.workdir = value;
      } else if (key == "--corpus-seed") {
        a.corpus_seed = std::stoull(value);
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !seen_seed || a.seconds <= 0)
    return std::nullopt;
  return a;
}

int run(const Args& args) {
  std::cout << build_stamp() << '\n';
  Tally tally;
  std::unique_ptr<Workload> w;
  // Set up several times and keep the last; setup_s reports the median.
  // A set-up is building the workload plus the warm-up rotation's wall
  // time; the benchmark's own answer checks and speed readings are left
  // out.
  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_s, setup_calib_ms;
  for (int k = 0; k < setups; ++k) {
    w.reset();
    w = make_workload(args.workload);
    const double before = kernel_reading(*w);
    const auto t0 = Clock::now();
    w->setup(args.seed, args.corpus_seed, args.workdir);
    const double build_s = ms_between(t0, Clock::now()) / 1000.0;
    const double build_calib = (before + kernel_reading(*w)) / 2.0;
    const Rotation warm = calibrated_rotation(*w, tally);
    const double total_s = build_s + warm.wall_s;
    setup_s.push_back(total_s);
    // The one kernel reading that scales both parts as their own did.
    setup_calib_ms.push_back(
        w->scaled_to_reference()
            ? total_s /
                  (build_s / build_calib + warm.wall_s / warm.wall_calib_ms)
            : 0.0);
  }

  pb::JsonWriter raw;
  raw.field("kind", "raw");
  raw.field("workload", args.workload);
  raw.field("seed", static_cast<long long>(args.seed));
  raw.field("corpus_seed", static_cast<long long>(args.corpus_seed));
  raw.field("scaled", w->scaled_to_reference());
  raw.raw("setup_s", pb::number_array(setup_s));
  raw.raw("setup_calib_ms", pb::number_array(setup_calib_ms));
  raw.raw("problems", pb::string_array(w->problem_names()));

  if (args.trace) {
    // Untraced rotations first, to price the tracing itself.
    double untraced_s = 0.0;
    long long untraced = 0;
    while (untraced == 0 || untraced_s < args.seconds / 3.0) {
      untraced_s += w->rotate(tally).wall_s;
      ++untraced;
    }
    TraceTable table;
    const auto start = Clock::now();
    while (table.traced_rotations == 0 ||
           ms_between(start, Clock::now()) / 1000.0 < args.seconds * 2.0 / 3.0)
      w->trace(tally, table);
    const double untraced_rotation_s =
        untraced_s / static_cast<double>(untraced);
    raw.raw("layers", layer_metrics(table, untraced_rotation_s, std::cout));
  } else {
    // Whole rotations until --seconds, and at least enough of them that
    // ten pooled samples lie beyond the p95 rank.
    const auto problems = static_cast<double>(w->problem_names().size());
    const auto beyond_p95 = [problems](std::size_t rotations) {
      const double n = problems * static_cast<double>(rotations);
      return n - std::ceil(0.95 * n - 1e-9);
    };
    std::vector<Rotation> rotations;
    double timed_s = 0.0;
    while (timed_s < args.seconds || beyond_p95(rotations.size()) < 10.0) {
      rotations.push_back(calibrated_rotation(*w, tally));
      timed_s += rotations.back().wall_s;
    }
    // [problem][rotation] arrays of a per-problem sample.
    const auto by_problem = [&](std::vector<double> Rotation::*field) {
      std::string out = "[";
      for (std::size_t i = 0; i < rotations.front().latency_ms.size(); ++i) {
        std::vector<double> samples;
        for (const Rotation& r : rotations) samples.push_back((r.*field)[i]);
        if (i > 0) out += ',';
        out += pb::number_array(samples);
      }
      return out + "]";
    };
    raw.raw("latency_ms", by_problem(&Rotation::latency_ms));
    raw.raw("calib_ms", by_problem(&Rotation::calib_ms));
    const auto series = [&](auto field) {
      std::vector<double> v;
      for (const Rotation& r : rotations)
        v.push_back(static_cast<double>(field(r)));
      return pb::number_array(v);
    };
    raw.raw("wall_s", series([](const Rotation& r) { return r.wall_s; }));
    raw.raw("wall_calib_ms",
            series([](const Rotation& r) { return r.wall_calib_ms; }));
    raw.raw("answers", series([](const Rotation& r) { return r.answers; }));
    raw.raw("length_sum",
            series([](const Rotation& r) { return r.length_sum; }));
    raw.raw("schedule_bearing",
            series([](const Rotation& r) { return r.schedule_bearing; }));
    raw.raw("proven_optimal",
            series([](const Rotation& r) { return r.proven_optimal; }));
    raw.raw("deadline_sent",
            series([](const Rotation& r) { return r.deadline_sent; }));
    raw.raw("deadline_met",
            series([](const Rotation& r) { return r.deadline_met; }));
  }
  raw.field("peak_rss_mb", peak_rss_mb());
  raw.field("attempted", tally.attempted);
  raw.field("failed", tally.failed);
  w.reset();
  std::cout << raw.close() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args || make_workload(args->workload) == nullptr) {
    std::cerr << "usage: perfbench_runner --workload paper_portfolio|"
                 "gen_certified|serve_mixed --seed N --seconds S --trace 0|1 "
                 "[--corpus-seed N] [--workdir DIR]\n";
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
