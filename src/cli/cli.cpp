#include "cli/cli.hpp"

#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string_view>

#include "analysis/bounds.hpp"
#include "analysis/canon.hpp"
#include "analysis/certify.hpp"
#include "analysis/graph_facts.hpp"
#include "analysis/lint.hpp"
#include "arch/comm_model.hpp"
#include "core/critical_cycle.hpp"
#include "core/graph_algo.hpp"
#include "core/iteration_bound.hpp"
#include "core/retiming.hpp"
#include "core/validator.hpp"
#include "engine/solver.hpp"
#include "io/dot.hpp"
#include "io/schedule_format.hpp"
#include "io/table_printer.hpp"
#include "io/text_format.hpp"
#include "sdf/sdf.hpp"
#include "sdf/sdf_format.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "robust/fault_plan.hpp"
#include "robust/repair.hpp"
#include "serve/service.hpp"
#include "sim/executor.hpp"
#include "sim/gantt.hpp"
#include "util/error.hpp"
#include "util/numbers.hpp"

namespace ccs {

namespace {

constexpr int kOk = 0;
constexpr int kFailure = 1;
constexpr int kUsage = 2;

/// Thrown for malformed command lines; carries the message for `err`.
struct UsageError {
  std::string message;
};

/// Parsed command line: positional arguments plus --key[=value] options.
class Args {
public:
  explicit Args(const std::vector<std::string>& raw) {
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const std::string& a = raw[i];
      if (a.rfind("--", 0) == 0) {
        const auto eq = a.find('=');
        if (eq != std::string::npos) {
          options_.emplace_back(a.substr(2, eq - 2), a.substr(eq + 1));
        } else if (i + 1 < raw.size() && needs_value(a.substr(2))) {
          options_.emplace_back(a.substr(2), raw[++i]);
        } else {
          options_.emplace_back(a.substr(2), "");
        }
      } else {
        positional_.push_back(a);
      }
    }
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] bool flag(const std::string& name) {
    for (auto& [k, v] : options_)
      if (k == name) {
        consumed_.push_back(name);
        return true;
      }
    return false;
  }

  [[nodiscard]] std::optional<std::string> value(const std::string& name) {
    for (auto& [k, v] : options_)
      if (k == name) {
        consumed_.push_back(name);
        return v;
      }
    return std::nullopt;
  }

  [[nodiscard]] int int_value(const std::string& name, int fallback) {
    const auto v = value(name);
    if (!v) return fallback;
    int out = 0;
    if (!parse_whole(*v, out))
      throw UsageError{"--" + name + " expects an integer, got '" + *v + "'"};
    return out;
  }

  /// Rejects any option that no handler consumed.
  void reject_unknown() const {
    for (const auto& [k, v] : options_) {
      bool seen = false;
      for (const std::string& c : consumed_) seen |= c == k;
      if (!seen) throw UsageError{"unknown option --" + k};
    }
  }

private:
  static bool needs_value(const std::string& key) {
    for (const char* k :
         {"arch", "passes", "speeds", "iterations", "warmup", "gantt",
          "policy", "trace", "stats", "format", "graph", "unfold", "replay",
          "faults", "budget-passes", "budget-ms", "patience", "jobs",
          "seed", "attempts", "profile", "threshold", "gate", "socket",
          "queue-depth", "drain-ms", "max-line-bytes", "default-deadline-ms",
          "full-ms", "compact-ms", "list-ms"})
      if (key == k) return true;
    return false;
  }

  std::vector<std::pair<std::string, std::string>> options_;
  std::vector<std::string> positional_;
  std::vector<std::string> consumed_;
};

/// Reads a file argument ('-' = the provided stdin stream).
std::string slurp(const std::string& path, std::istream& in, bool& used_stdin) {
  if (path == "-") {
    if (used_stdin) throw UsageError{"only one argument may read stdin"};
    used_stdin = true;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }
  std::ifstream f(path);
  if (!f) throw Error("cannot open '" + path + "'");
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::vector<int> parse_speeds(const std::string& csv) {
  std::vector<int> speeds;
  std::istringstream ls(csv);
  std::string tok;
  while (std::getline(ls, tok, ',')) {
    int speed = 0;
    if (!parse_whole(tok, speed))
      throw UsageError{"--speeds expects a comma-separated integer list"};
    speeds.push_back(speed);
  }
  if (speeds.empty()) throw UsageError{"--speeds list is empty"};
  return speeds;
}

/// True for the stop reasons the budget flags cause.  A portfolio attempt
/// that stops itself at the lower bound reports "preempted", which no flag
/// asked for.
bool budget_stop(const std::string& stop_reason) {
  return stop_reason == "max-passes" || stop_reason == "deadline" ||
         stop_reason == "patience";
}

/// Shared budget flags (--budget-passes/--budget-ms/--patience); zero (the
/// default) disables each condition (core/budget.hpp).
RunBudget parse_budget(Args& args) {
  RunBudget budget;
  budget.max_passes = args.int_value("budget-passes", 0);
  const int deadline = args.int_value("budget-ms", 0);
  budget.deadline_ms = deadline;
  budget.patience = args.int_value("patience", 0);
  if (budget.max_passes < 0 || deadline < 0 || budget.patience < 0)
    throw UsageError{
        "--budget-passes/--budget-ms/--patience must be >= 0"};
  return budget;
}

Topology require_arch(Args& args) {
  const auto spec = args.value("arch");
  if (!spec) throw UsageError{"--arch \"<spec>\" is required"};
  return parse_topology(*spec);
}

/// Label for diagnostics: the path as given, with stdin spelled out.
std::string span_label(const std::string& path) {
  return path == "-" ? "<stdin>" : path;
}

/// Reads --format: text (the default), jsonl or sarif.
std::string read_format(Args& args) {
  std::string format = args.value("format").value_or("text");
  if (format != "text" && format != "jsonl" && format != "sarif")
    throw UsageError{"--format must be text, jsonl, or sarif"};
  return format;
}

/// Renders a finalized bag in `format`; `driver` names the SARIF tool.
void render_bag(const DiagnosticBag& bag, const std::string& format,
                std::string_view driver, std::ostream& out) {
  if (format == "jsonl") {
    out << render_jsonl(bag);
  } else if (format == "sarif") {
    out << render_sarif(bag, driver);
  } else {
    out << render_text(bag);
  }
}

/// The graph argument of schedule/simulate/stress: parsed once, with
/// source spans, and held to the strict parser's contract; `bag` keeps the
/// parse's own findings for the pre-flight lint.
struct GraphInput {
  ParsedCsdfg parsed;
  DiagnosticBag bag;
};

GraphInput read_graph(const std::string& path, std::istream& in,
                      bool& used_stdin) {
  GraphInput input;
  input.parsed = parse_csdfg_with_spans(slurp(path, in, used_stdin),
                                        span_label(path), input.bag);
  require_strict_parse(input.parsed, input.bag);
  return input;
}

/// Pre-flight lint for schedule/simulate/stress: renders any
/// graph/architecture findings to `err` before the pipeline runs.  Never
/// fatal — the graph passed the strict parse, so only warnings and notes
/// can appear here.
void preflight_lint(GraphInput& input, const Topology& topo,
                    const std::vector<int>& speeds, std::ostream& err) {
  LintOptions lint_options;
  lint_options.topology = &topo;
  lint_options.pe_speeds = speeds;
  run_lint_passes({input.parsed.graph, input.parsed.spans, lint_options},
                  input.bag);
  input.bag.finalize();
  if (input.bag.empty()) return;
  err << "pre-flight lint (see docs/DIAGNOSTICS.md):\n"
      << render_text(input.bag);
}

/// Reads the solver flags `schedule`, `stress` and `certify --replay`
/// share into a request for `topo`: --policy (startup and modulo only for
/// `schedule`), --passes, the budget flags, --pipelined, --speeds and,
/// except for `certify --replay`, --portfolio/--jobs/--attempts/--seed.
SolveRequest read_solve_flags(Args& args, const Topology& topo,
                              const std::string& command) {
  const bool schedule = command == "schedule";
  SolveRequest req;
  req.topology = topo;
  CycloCompactionOptions& opt = req.options;
  const std::string policy = args.value("policy").value_or("relax");
  if (policy == "relax") {
    opt.policy = RemapPolicy::kWithRelaxation;
  } else if (policy == "strict") {
    opt.policy = RemapPolicy::kWithoutRelaxation;
  } else if (schedule && policy == "startup") {
    req.mode = SolveMode::kStartup;
  } else if (schedule && policy == "modulo") {
    req.mode = SolveMode::kModulo;
  } else {
    throw UsageError{schedule
                         ? "--policy must be relax, strict, startup, or modulo"
                         : command + ": --policy must be relax or strict"};
  }
  const int passes = args.int_value("passes", 0);
  if (passes > 0) opt.passes = passes;
  opt.budget = parse_budget(args);
  opt.startup.pipelined_pes = args.flag("pipelined");
  if (const auto speeds = args.value("speeds")) {
    opt.startup.pe_speeds = parse_speeds(*speeds);
    if (opt.startup.pe_speeds.size() != topo.size())
      throw UsageError{"--speeds must list one factor per processor"};
  }
  if (command == "certify --replay") return req;

  const bool portfolio = args.flag("portfolio");
  PortfolioOptions& popt = req.portfolio;
  popt.jobs = args.int_value("jobs", 1);
  popt.attempts = args.int_value("attempts", 0);
  if (const auto seed = args.value("seed")) {
    if (!parse_whole(*seed, popt.seed))
      throw UsageError{"--seed expects a non-negative integer"};
    if (!portfolio) throw UsageError{"--seed needs --portfolio"};
  }
  if (!portfolio && (popt.jobs != 1 || popt.attempts != 0))
    throw UsageError{"--jobs/--attempts need --portfolio"};
  if (popt.jobs < 0 || popt.attempts < 0)
    throw UsageError{"--jobs/--attempts must be >= 0"};
  if (portfolio) {
    if (req.mode != SolveMode::kSchedule)
      throw UsageError{"--portfolio applies to --policy relax/strict only"};
    req.mode = SolveMode::kPortfolio;
  }
  if (req.mode == SolveMode::kModulo && !opt.startup.pe_speeds.empty())
    throw UsageError{"--policy modulo does not support --speeds"};
  if (req.mode == SolveMode::kModulo && opt.startup.pipelined_pes)
    throw UsageError{"--policy modulo does not support --pipelined"};
  return req;
}

/// Runs `request` through the Solver.  A refused request surfaces as the
/// `error:` line of its first error diagnostic (exit 1).
SolveResponse solve(const SolveRequest& request, const ObsContext& obs) {
  SolveResponse res = Solver(obs).solve(request);
  if (res.schedule.has_value()) return res;
  for (const Diagnostic& d : res.diagnostics.diagnostics())
    if (d.severity == Severity::kError) throw Error(d.message);
  throw Error("the solver produced no schedule");
}

/// Observability wiring shared by `schedule` and `simulate`: --trace FILE
/// streams JSONL pipeline events, --stats FILE captures a metrics JSON
/// document ('-' = stdout) plus a human-readable `stats` section, and
/// --profile FILE records hierarchical spans and writes a Chrome/Perfetto
/// trace_event timeline.  --stats alone also enables the profiler so the
/// stats document carries span histograms.  With no flag the context stays
/// disabled and the pipeline runs unobserved.
class ObsSetup {
public:
  ~ObsSetup() {
    if (installed_) SpanProfiler::set_process(previous_);
  }

  void init(Args& args) {
    trace_path_ = args.value("trace");
    stats_path_ = args.value("stats");
    profile_path_ = args.value("profile");
    if (trace_path_) {
      trace_file_.open(*trace_path_);
      if (!trace_file_)
        throw Error("cannot open '" + *trace_path_ + "' for writing");
      sink_.emplace(trace_file_);
      tracer_ = Tracer(&*sink_);
      obs_.tracer = &tracer_;
    }
    if (stats_path_) obs_.metrics = &metrics_;
    if (profile_path_ || stats_path_) {
      obs_.profiler = &profiler_;
      // Stages with no ObsContext parameter (topology construction, the
      // certifier) record through the process-global hook for the duration
      // of this command; the destructor restores the previous hook even on
      // the throwing paths.
      previous_ = SpanProfiler::process();
      SpanProfiler::set_process(&profiler_);
      installed_ = true;
    }
  }

  [[nodiscard]] const ObsContext& obs() const noexcept { return obs_; }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Emits the stats/profile artifacts (call once, before the persistable
  /// emit-graph/emit-schedule sections so those stay a clean suffix).
  void finish(std::ostream& out) {
    if (installed_) {
      SpanProfiler::set_process(previous_);
      installed_ = false;
    }
    if (profile_path_) {
      const std::string doc = chrome_trace_json(profiler_);
      if (*profile_path_ == "-") {
        out << doc << '\n';
      } else {
        std::ofstream f(*profile_path_);
        if (!f) throw Error("cannot open '" + *profile_path_ +
                            "' for writing");
        f << doc << '\n';
      }
    }
    if (!stats_path_) return;
    if (!profiler_.empty()) export_span_stats(profiler_, metrics_);
    if (*stats_path_ == "-") {
      out << metrics_.to_json() << '\n';
      return;
    }
    std::ofstream f(*stats_path_);
    if (!f) throw Error("cannot open '" + *stats_path_ + "' for writing");
    f << metrics_.to_json() << '\n';
    out << "stats:\n" << metrics_.to_text();
  }

private:
  std::optional<std::string> trace_path_;
  std::optional<std::string> stats_path_;
  std::optional<std::string> profile_path_;
  std::ofstream trace_file_;
  std::optional<StreamSink> sink_;
  Tracer tracer_;
  MetricsRegistry metrics_;
  SpanProfiler profiler_;
  SpanProfiler* previous_ = nullptr;
  bool installed_ = false;
  ObsContext obs_;
};

int cmd_info(Args& args, std::istream& in, std::ostream& out) {
  if (args.positional().size() != 1)
    throw UsageError{"info: expected <graph>"};
  bool used_stdin = false;
  const Csdfg g = parse_csdfg(slurp(args.positional()[0], in, used_stdin));
  args.reject_unknown();

  const GraphFacts facts(g);
  const DagTiming& timing = facts.dag_timing();
  out << "graph:            " << g.name() << '\n'
      << "tasks:            " << g.node_count() << '\n'
      << "dependences:      " << g.edge_count() << '\n'
      << "total time:       " << g.total_computation() << '\n'
      << "total delays:     " << g.total_delay() << '\n'
      << "critical path:    " << timing.critical_path << '\n'
      << "iteration bound:  " << facts.iteration_bound().to_string() << '\n'
      << "critical cycle:   " << describe_cycle(g, facts.critical_cycle())
      << '\n'
      << "dag roots:        ";
  const auto roots = zero_delay_roots(g);
  for (std::size_t i = 0; i < roots.size(); ++i)
    out << (i ? ", " : "") << g.node(roots[i]).name;
  out << '\n';
  return kOk;
}

int cmd_bound(Args& args, std::istream& in, std::ostream& out) {
  if (args.positional().size() != 1)
    throw UsageError{"bound: expected <graph>"};
  bool used_stdin = false;
  const Csdfg g = parse_csdfg(slurp(args.positional()[0], in, used_stdin));
  args.reject_unknown();
  out << iteration_bound(g).to_string() << '\n';
  return kOk;
}

int cmd_retime(Args& args, std::istream& in, std::ostream& out) {
  if (args.positional().size() != 1)
    throw UsageError{"retime: expected <graph>"};
  bool used_stdin = false;
  Csdfg g = parse_csdfg(slurp(args.positional()[0], in, used_stdin));
  args.reject_unknown();
  const MinPeriodResult r = min_period_retiming(g, iteration_bound(g));
  r.retiming.apply(g);
  out << "# min-period retiming: clock period " << r.period << '\n'
      << serialize_csdfg(g);
  return kOk;
}

int cmd_dot(Args& args, std::istream& in, std::ostream& out) {
  // Either a graph or an architecture (--arch without a positional).
  if (args.positional().empty()) {
    const auto spec = args.value("arch");
    if (!spec) throw UsageError{"dot: expected <graph> or --arch \"<spec>\""};
    args.reject_unknown();
    out << to_dot(parse_topology(*spec));
    return kOk;
  }
  if (args.positional().size() != 1)
    throw UsageError{"dot: expected <graph>"};
  bool used_stdin = false;
  const Csdfg g = parse_csdfg(slurp(args.positional()[0], in, used_stdin));
  args.reject_unknown();
  out << to_dot(g);
  return kOk;
}

int cmd_expand(Args& args, std::istream& in, std::ostream& out) {
  if (args.positional().size() != 1)
    throw UsageError{"expand: expected <sdf-file>"};
  bool used_stdin = false;
  const SdfGraph sdf = parse_sdf(slurp(args.positional()[0], in, used_stdin));
  const bool info = args.flag("info");
  args.reject_unknown();
  const SdfExpansion x = expand_sdf(sdf);
  if (info) {
    out << "# repetition vector:";
    for (ActorId a = 0; a < sdf.actor_count(); ++a)
      out << ' ' << sdf.actor(a).name << '=' << x.repetitions[a];
    out << '\n';
  }
  out << serialize_csdfg(x.graph);
  return kOk;
}

int cmd_lint(Args& args, std::istream& in, std::ostream& out) {
  if (args.positional().size() != 1) throw UsageError{"lint: expected <graph>"};
  bool used_stdin = false;
  const std::string path = args.positional()[0];
  const std::string text = slurp(path, in, used_stdin);

  std::optional<Topology> topo;
  LintOptions lint_options;
  if (const auto spec = args.value("arch")) {
    topo = parse_topology(*spec);
    lint_options.topology = &*topo;
  }
  if (const auto speeds = args.value("speeds")) {
    if (!topo) throw UsageError{"--speeds requires --arch"};
    lint_options.pe_speeds = parse_speeds(*speeds);
  }
  const std::string format = read_format(args);
  const bool werror = args.flag("werror");
  args.reject_unknown();

  DiagnosticBag bag;
  const ParsedCsdfg parsed =
      parse_csdfg_with_spans(text, span_label(path), bag);
  run_lint_passes({parsed.graph, parsed.spans, lint_options}, bag);
  bag.finalize();
  render_bag(bag, format, "ccsched-lint", out);
  return bag.fails(werror) ? kFailure : kOk;
}

/// `ccsched analyze`: the static lower-bound report.  Parses leniently
/// (parse diagnostics land in the same bag), computes every applicable
/// CCS-B bound for (graph, machine), audits each witness, and renders
/// through the shared diagnostic machinery — exit code per the lint
/// contract (notes never fail, errors always do, --werror promotes).
int cmd_analyze(Args& args, std::istream& in, std::ostream& out) {
  if (args.positional().size() != 1)
    throw UsageError{"analyze: expected <graph>"};
  const auto spec = args.value("arch");
  if (!spec) throw UsageError{"analyze: --arch <spec> is required"};
  bool used_stdin = false;
  const std::string path = args.positional()[0];
  const std::string text = slurp(path, in, used_stdin);
  const Topology topo = parse_topology(*spec);
  CycloCompactionOptions opt;
  opt.startup.pipelined_pes = args.flag("pipelined");
  if (const auto speeds = args.value("speeds")) {
    opt.startup.pe_speeds = parse_speeds(*speeds);
    if (opt.startup.pe_speeds.size() != topo.size())
      throw UsageError{"--speeds must list one factor per processor"};
  }
  const std::string format = read_format(args);
  const bool werror = args.flag("werror");
  args.reject_unknown();

  DiagnosticBag bag;
  const ParsedCsdfg parsed =
      parse_csdfg_with_spans(text, span_label(path), bag);
  const StoreAndForwardModel comm(topo);
  std::optional<CompositeBound> bound;
  if (parsed.graph.is_legal()) {
    const BoundMachine machine = machine_view(topo, comm, opt);
    bound = compute_bounds(parsed.graph, machine);
    report_bounds(*bound, parsed.spans.file_span(), bag);
    // Witness audit: every reported bound must re-derive its value from
    // its own witness; a mismatch is the CCS-S015 first-principles bug.
    for (const BoundPass* pass : bound_passes()) {
      const BoundResult* part = bound->part(pass->rule().code);
      if (part != nullptr &&
          !pass->reverify(parsed.graph, machine, *part)) {
        std::ostringstream os;
        os << "witness of " << part->code
           << " does not re-derive its claimed bound " << part->value;
        bag.add("CCS-S015", parsed.spans.file_span(), os.str());
      }
    }
  } else {
    bag.add("CCS-G001", parsed.spans.file_span(),
            "the graph has a zero-delay cycle; no schedule exists and no "
            "lower bound is defined");
  }
  bag.finalize();
  render_bag(bag, format, "ccsched-analyze", out);
  if (format == "text") {
    if (parsed.graph.is_legal()) {
      const CanonResult canon = canonicalize(parsed.graph);
      out << "fingerprint " << fingerprint_hex(canon.fingerprint) << " (|Aut| = "
          << canon.automorphism_count << (canon.complete ? "" : "+") << ")\n";
    }
    if (bound.has_value()) {
      out << "composite lower bound " << std::max(1, bound->value);
      if (!bound->dominant.empty()) out << " (" << bound->dominant << ')';
      if (bound->local_value > bound->value)
        out << ", this delay placement " << bound->local_value << " ("
            << bound->dominant_local << ')';
      out << " on " << topo.name() << '\n';
    }
  }
  return bag.fails(werror) ? kFailure : kOk;
}

/// `ccsched fingerprint`: canonical graph fingerprints, duplicate audit,
/// isomorphism checks.  Each input parses leniently (CCS-P findings land in
/// the shared bag); every pairwise collision/duplicate the CCS-N audit
/// finds is rendered through the standard diagnostic machinery.  Text mode
/// prints one `<hex32>  aut=<k>  <file>` line per input, byte-deterministic
/// across runs and across task relabelings.  With --isomorphic (exactly two
/// inputs) the verdict decides the exit code: 0 when attribute-isomorphic,
/// 1 when not.
int cmd_fingerprint(Args& args, std::istream& in, std::ostream& out) {
  const bool iso = args.flag("isomorphic");
  const std::string format = read_format(args);
  const bool werror = args.flag("werror");
  args.reject_unknown();
  const std::vector<std::string>& paths = args.positional();
  if (paths.empty())
    throw UsageError{"fingerprint: expected one or more <graph> files"};
  if (iso && paths.size() != 2)
    throw UsageError{"fingerprint --isomorphic: expected exactly two graphs"};

  DiagnosticBag bag;
  bool used_stdin = false;
  std::vector<ParsedCsdfg> graphs;
  graphs.reserve(paths.size());
  for (const std::string& path : paths) {
    const std::string text = slurp(path, in, used_stdin);
    graphs.push_back(parse_csdfg_with_spans(text, span_label(path), bag));
  }
  std::vector<CanonResult> canon(graphs.size());
  std::vector<CorpusEntry> corpus;
  corpus.reserve(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    canon[i] = canonicalize(graphs[i].graph);
    corpus.push_back({span_label(paths[i]), &graphs[i].graph});
  }
  audit_corpus(corpus, bag);
  bag.finalize();

  render_bag(bag, format, "ccsched-fingerprint", out);
  if (format == "text") {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      out << fingerprint_hex(canon[i].fingerprint) << "  aut="
          << canon[i].automorphism_count << (canon[i].complete ? "" : "+")
          << "  " << span_label(paths[i]) << '\n';
    }
  }
  if (iso) {
    const bool same =
        isomorphic(graphs[0].graph, canon[0], graphs[1].graph, canon[1]);
    if (format == "text")
      out << (same ? "isomorphic" : "not isomorphic") << '\n';
    return same && !bag.fails(werror) ? kOk : kFailure;
  }
  return bag.fails(werror) ? kFailure : kOk;
}

int cmd_certify(Args& args, std::istream& in, std::ostream& out) {
  const auto graph_path = args.value("graph");
  if (!graph_path) throw UsageError{"certify: --graph <csdfg> is required"};
  const std::string format = read_format(args);
  const bool werror = args.flag("werror");
  const Topology topo = require_arch(args);
  const StoreAndForwardModel comm(topo);
  CertifyOptions certify_options;
  certify_options.unfold_factor = args.int_value("unfold", 3);

  bool used_stdin = false;
  DiagnosticBag bag;
  const Csdfg g = parse_csdfg(slurp(*graph_path, in, used_stdin));

  if (const auto replay = args.value("replay")) {
    if (!args.positional().empty())
      throw UsageError{"certify --replay takes no <schedule> argument"};
    // The flags mirror `schedule`: a trace recorded from a budgeted run
    // only replays cleanly when the replay stops at the same pass.
    const CycloCompactionOptions opt =
        read_solve_flags(args, topo, "certify --replay").options;
    args.reject_unknown();
    const std::string trace_text = slurp(*replay, in, used_stdin);
    const std::string label = span_label(*replay);
    (void)audit_trace(trace_text, label,
                      opt.policy == RemapPolicy::kWithoutRelaxation, bag);
    (void)replay_trace(g, topo, comm, opt, trace_text, label, bag);
  } else {
    if (args.positional().size() != 1)
      throw UsageError{"certify: expected <schedule> (or --replay <trace>)"};
    args.reject_unknown();
    const std::string sched_path = args.positional()[0];
    const std::string sched_text = slurp(sched_path, in, used_stdin);
    const RawSchedule raw =
        parse_raw_schedule(sched_text, span_label(sched_path), bag);
    (void)certify_schedule(g, raw, topo, comm, certify_options, bag);
  }

  bag.finalize();
  render_bag(bag, format, "ccsched-certify", out);
  if (bag.empty() && format == "text") out << "certified: no findings\n";
  return bag.fails(werror) ? kFailure : kOk;
}

int cmd_schedule(Args& args, std::istream& in, std::ostream& out,
                 std::ostream& err) {
  if (args.positional().size() != 1)
    throw UsageError{"schedule: expected <graph>"};
  bool used_stdin = false;
  GraphInput input = read_graph(args.positional()[0], in, used_stdin);
  // Observability comes up before the topology so the route-table build the
  // architecture triggers lands inside the profiled window.
  ObsSetup obs_setup;
  obs_setup.init(args);
  const Topology topo = require_arch(args);
  SolveRequest request = read_solve_flags(args, topo, "schedule");
  const bool emit_schedule = args.flag("emit-schedule");
  const bool emit_graph = args.flag("emit-graph");
  const bool quiet = args.flag("quiet");
  request.certify = args.flag("certify");
  args.reject_unknown();
  const ObsContext& obs = obs_setup.obs();
  preflight_lint(input, topo, request.options.startup.pe_speeds, err);
  request.graph = std::move(input.parsed.graph);

  const SolveResponse res = solve(request, obs);
  const ScheduleTable& table = *res.schedule;
  obs.count("validate.calls");
  const auto report =
      validate_schedule(res.graph, table, StoreAndForwardModel(topo));
  if (!res.diagnostics.empty())
    err << "certify (see docs/DIAGNOSTICS.md):\n"
        << render_text(res.diagnostics);
  if (!quiet) out << render_schedule(res.graph, table);
  out << "startup " << res.startup_length << " -> " << table.length()
      << " on " << topo.name() << "  [" << (report.ok() ? "valid" : "INVALID")
      << "]";
  if (request.certify)
    out << "  [" << (res.certified ? "certified" : "UNCERTIFIED") << "]";
  out << '\n';
  if (budget_stop(res.stop_reason))
    out << "budget: stopped by " << res.stop_reason << " after " << res.passes
        << " pass(es)\n";
  if (request.mode == SolveMode::kPortfolio) {
    out << "portfolio: " << res.attempts.size() << " attempt(s), jobs ";
    if (request.portfolio.jobs == 0)
      out << "auto";
    else
      out << request.portfolio.jobs;
    out << ", winner #" << res.winner_attempt << " (" << res.winner_label
        << "), serial " << res.attempts.front().length << ", lower bound "
        << res.lower_bound;
    if (!res.bound_pass.empty()) out << " (" << res.bound_pass << ')';
    out << ", gap " << res.gap << '\n';
    if (res.optimal) {
      out << "portfolio: provably optimal";
      if (!res.bound_pass.empty()) out << " — " << res.bound_witness;
      out << '\n';
    }
    if (!quiet) {
      for (std::size_t i = 0; i < res.attempts.size(); ++i) {
        const AttemptOutcome& row = res.attempts[i];
        out << "  #" << i << ' ' << row.label << ": " << row.length
            << " (startup " << row.startup_length << ", pass "
            << row.best_pass << ')';
        if (!row.stop_reason.empty()) out << " [" << row.stop_reason << ']';
        if (row.winner) out << " *";
        out << '\n';
      }
    }
  }
  obs_setup.finish(out);
  if (emit_graph) out << serialize_csdfg(res.graph);
  if (emit_schedule)
    out << serialize_schedule(res.graph, table, &res.retiming);
  return report.ok() && res.certified ? kOk : kFailure;
}

int cmd_validate(Args& args, std::istream& in, std::ostream& out) {
  if (args.positional().size() != 2)
    throw UsageError{"validate: expected <graph> <schedule>"};
  bool used_stdin = false;
  const Csdfg g = parse_csdfg(slurp(args.positional()[0], in, used_stdin));
  const ScheduleTable table =
      parse_schedule(g, slurp(args.positional()[1], in, used_stdin));
  const Topology topo = require_arch(args);
  args.reject_unknown();
  const StoreAndForwardModel comm(topo);
  const auto report = validate_schedule(g, table, comm);
  if (report.ok()) {
    out << "valid: length " << table.length() << " on " << topo.name()
        << '\n';
    return kOk;
  }
  out << report.to_string() << '\n';
  return kFailure;
}

int cmd_simulate(Args& args, std::istream& in, std::ostream& out,
                 std::ostream& err) {
  if (args.positional().size() != 2)
    throw UsageError{"simulate: expected <graph> <schedule>"};
  bool used_stdin = false;
  GraphInput input = read_graph(args.positional()[0], in, used_stdin);
  const Csdfg& g = input.parsed.graph;
  const std::string sched_path = args.positional()[1];
  const ScheduleTable table =
      parse_schedule(g, slurp(sched_path, in, used_stdin));
  const Topology topo = require_arch(args);
  preflight_lint(input, topo, {}, err);

  if (args.flag("certify")) {
    const StoreAndForwardModel comm(topo);
    DiagnosticBag bag;
    const bool certified =
        certify_table(g, table, comm, span_label(sched_path), bag);
    bag.finalize();
    if (!bag.empty())
      err << "certify (see docs/DIAGNOSTICS.md):\n" << render_text(bag);
    if (!certified) return kFailure;
  }

  ExecutorOptions opt;
  opt.iterations = args.int_value("iterations", 64);
  opt.warmup = args.int_value("warmup", opt.iterations / 4);
  opt.link_contention = args.flag("contention");
  const bool self_timed = args.flag("self-timed");
  const int gantt_cycles = args.int_value("gantt", 0);
  opt.record_trace = gantt_cycles > 0;
  ObsSetup obs_setup;
  obs_setup.init(args);
  args.reject_unknown();
  const ObsContext& obs = obs_setup.obs();

  const ExecutionStats stats =
      self_timed ? execute_self_timed(g, table, topo, opt, obs)
                 : execute_static(g, table, topo, opt, obs);
  if (stats.deadlocked) {
    out << "deadlocked: the table's processor order cycles with its "
           "dependences\n";
    return kFailure;
  }
  out << "mode:            " << (self_timed ? "self-timed" : "static") << '\n'
      << "iterations:      " << opt.iterations << '\n'
      << "makespan:        " << stats.makespan << '\n'
      << "steady II:       " << stats.steady_initiation_interval << '\n'
      << "messages:        " << stats.total_messages << '\n'
      << "traffic:         " << stats.total_traffic << '\n';
  if (!self_timed) out << "late arrivals:   " << stats.late_arrivals << '\n';
  obs_setup.finish(out);
  if (gantt_cycles > 0)
    out << render_gantt(g, stats.trace, topo.size(), 1, gantt_cycles);
  return !self_timed && stats.late_arrivals > 0 ? kFailure : kOk;
}

int cmd_stress(Args& args, std::istream& in, std::ostream& out,
               std::ostream& err) {
  if (args.positional().size() != 1)
    throw UsageError{"stress: expected <graph>"};
  bool used_stdin = false;
  GraphInput input = read_graph(args.positional()[0], in, used_stdin);
  const Topology topo = require_arch(args);

  const auto faults_path = args.value("faults");
  if (!faults_path) throw UsageError{"stress: --faults <spec> is required"};
  const std::string faults_text = slurp(*faults_path, in, used_stdin);

  SolveRequest request = read_solve_flags(args, topo, "stress");
  request.certify = false;  // the injection run judges the schedule
  ExecutorOptions sim_opt;
  sim_opt.iterations = args.int_value("iterations", 64);
  sim_opt.warmup = args.int_value("warmup", sim_opt.iterations / 4);

  const bool repair = args.flag("repair");
  const bool quiet = args.flag("quiet");
  const bool emit_schedule = args.flag("emit-schedule");
  const bool werror = args.flag("werror");
  ObsSetup obs_setup;
  obs_setup.init(args);
  args.reject_unknown();
  const ObsContext& obs = obs_setup.obs();
  preflight_lint(input, topo, request.options.startup.pe_speeds, err);
  request.graph = std::move(input.parsed.graph);
  const Csdfg& g = request.graph;

  // The fault spec parses leniently; any CCS-F finding is fatal (a stress
  // run against a half-understood plan would be meaningless).
  DiagnosticBag bag;
  const FaultSpec spec =
      parse_fault_spec(faults_text, span_label(*faults_path), bag);
  const FaultPlan plan = bind_fault_spec(spec, g, topo, bag);
  bag.finalize();
  if (!bag.empty())
    err << "fault spec (see docs/DIAGNOSTICS.md):\n" << render_text(bag);
  if (bag.fails(werror)) return kFailure;

  const SolveResponse base = solve(request, obs);
  if (request.mode == SolveMode::kPortfolio)
    out << "portfolio: winner " << base.winner_label << " (attempt "
        << base.winner_attempt << ")\n";
  out << "baseline: startup " << base.startup_length << " -> "
      << base.best_length << " on " << topo.name() << '\n';
  if (budget_stop(base.stop_reason))
    out << "budget:   stopped by " << base.stop_reason << '\n';

  out << "faults:\n";
  if (plan.empty()) {
    out << "  (none)\n";
  } else {
    std::istringstream described(describe_fault_plan(plan, g));
    std::string line;
    while (std::getline(described, line)) out << "  " << line << '\n';
  }

  sim_opt.faults = &plan;
  const ExecutionStats stats =
      execute_static(base.graph, *base.schedule, topo, sim_opt, obs);
  out << "injection: " << sim_opt.iterations << " iteration(s): "
      << stats.failed_instances << " failed, " << stats.starved_instances
      << " starved, " << stats.lost_messages << " lost message(s), "
      << stats.late_arrivals << " late arrival(s)";
  if (stats.first_failure_iteration >= 0)
    out << ", first failure @iter " << stats.first_failure_iteration;
  out << '\n';

  const bool broken = stats.failed_instances + stats.starved_instances +
                          stats.lost_messages + stats.late_arrivals >
                      0;
  out << "verdict:  " << (broken ? "broken" : "unaffected") << '\n';

  if (!repair) {
    obs_setup.finish(out);
    return broken ? kFailure : kOk;
  }

  RepairOptions ropt;
  ropt.compaction = request.options;
  const RepairOutcome outcome = repair_schedule(
      g, {base.graph, *base.schedule, base.retiming}, topo, plan, ropt, obs);
  out << "repair ladder:\n";
  for (const std::string& attempt : outcome.attempts)
    out << "  " << attempt << '\n';
  if (!outcome.success) {
    out << "repair:   infeasible (" << outcome.detail << ")\n";
    obs_setup.finish(out);
    return kFailure;
  }
  out << "repaired: rung " << repair_rung_name(outcome.rung) << ", length "
      << outcome.schedule->length() << " on " << outcome.machine->name()
      << "  [certified]\n"
      << "pe map:   ";
  for (std::size_t p = 0; p < outcome.to_original.size(); ++p)
    out << (p ? ", " : "") << 'p' << p << "->p" << outcome.to_original[p];
  out << '\n';
  if (!quiet) out << render_schedule(outcome.graph, *outcome.schedule);
  obs_setup.finish(out);
  if (emit_schedule)
    out << serialize_schedule(outcome.graph, *outcome.schedule,
                              &outcome.retiming);
  return kOk;
}

int cmd_report(Args& args, std::istream& in, std::ostream& out) {
  const bool diff = args.flag("diff");
  const auto threshold = args.value("threshold");
  const auto gate = args.value("gate");
  if (!diff && (threshold || gate))
    throw UsageError{"--threshold/--gate need --diff"};
  DiffOptions dopt;
  if (threshold) {
    if (!parse_whole(*threshold, dopt.threshold_pct) ||
        !std::isfinite(dopt.threshold_pct))
      throw UsageError{"--threshold expects a number (percent), got '" +
                       *threshold + "'"};
    if (dopt.threshold_pct < 0)
      throw UsageError{"--threshold must be >= 0"};
  }
  if (gate) dopt.gate = *gate;
  args.reject_unknown();

  bool used_stdin = false;
  const auto load = [&](const std::string& path) {
    FlatMetrics flat;
    std::string error;
    if (!flatten_metrics_json(slurp(path, in, used_stdin), flat, error))
      throw Error("'" + span_label(path) + "': " + error);
    return flat;
  };

  if (diff) {
    if (args.positional().size() != 2)
      throw UsageError{"report --diff: expected <before.json> <after.json>"};
    const FlatMetrics before = load(args.positional()[0]);
    const FlatMetrics after = load(args.positional()[1]);
    const DiffResult result = diff_metrics(before, after, dopt);
    out << render_diff(result, dopt);
    return result.regressed ? kFailure : kOk;
  }
  if (args.positional().size() != 1)
    throw UsageError{"report: expected <metrics.json> (or --diff <a> <b>)"};
  out << render_hot_path_report(load(args.positional()[0]));
  return kOk;
}

int cmd_serve(Args& args, std::istream& in, std::ostream& out,
              std::ostream& err) {
  if (!args.positional().empty())
    throw UsageError{"serve: takes no positional arguments"};
  ServeOptions sopt;
  sopt.jobs = args.int_value("jobs", 1);
  sopt.queue_depth =
      static_cast<std::size_t>(args.int_value("queue-depth", 16));
  sopt.drain_ms = args.int_value("drain-ms", 2000);
  sopt.max_line_bytes =
      static_cast<std::size_t>(args.int_value("max-line-bytes", 1 << 20));
  sopt.default_deadline_ms = args.int_value("default-deadline-ms", 0);
  sopt.full_ms = args.int_value("full-ms", 200);
  sopt.compact_ms = args.int_value("compact-ms", 50);
  sopt.list_ms = args.int_value("list-ms", 5);
  if (sopt.jobs < 1 || args.int_value("queue-depth", 16) < 1)
    throw UsageError{"serve: --jobs and --queue-depth must be >= 1"};
  if (sopt.drain_ms < 0 || sopt.default_deadline_ms < 0 ||
      args.int_value("max-line-bytes", 1) < 1)
    throw UsageError{
        "serve: --drain-ms/--default-deadline-ms must be >= 0 and "
        "--max-line-bytes >= 1"};
  if (sopt.full_ms < sopt.compact_ms || sopt.compact_ms < sopt.list_ms ||
      sopt.list_ms < 0)
    throw UsageError{
        "serve: ladder thresholds need --full-ms >= --compact-ms >= "
        "--list-ms >= 0"};
  const auto socket = args.value("socket");
  ObsSetup obs_setup;
  obs_setup.init(args);
  args.reject_unknown();
  install_serve_signal_handlers();
  if (socket) {
    const bool bound = run_serve_socket(*socket, sopt, err, obs_setup.obs());
    obs_setup.finish(out);
    return bound ? kOk : kFailure;
  }
  run_serve(in, out, err, sopt, obs_setup.obs());
  obs_setup.finish(err);  // keep stdout a pure response stream
  return kOk;
}

void print_usage(std::ostream& err) {
  err << "usage: ccsched <command> [arguments]\n"
         "commands: info, bound, retime, dot, lint, analyze, fingerprint, "
         "certify, expand, schedule, validate, simulate, stress, serve, "
         "report\n"
         "see src/cli/cli.hpp for the full grammar\n";
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::istream& in,
            std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    print_usage(err);
    return kUsage;
  }
  const std::string command = args.front();
  Args parsed(std::vector<std::string>(args.begin() + 1, args.end()));
  try {
    if (command == "info") return cmd_info(parsed, in, out);
    if (command == "bound") return cmd_bound(parsed, in, out);
    if (command == "retime") return cmd_retime(parsed, in, out);
    if (command == "dot") return cmd_dot(parsed, in, out);
    if (command == "lint") return cmd_lint(parsed, in, out);
    if (command == "analyze") return cmd_analyze(parsed, in, out);
    if (command == "fingerprint") return cmd_fingerprint(parsed, in, out);
    if (command == "certify") return cmd_certify(parsed, in, out);
    if (command == "expand") return cmd_expand(parsed, in, out);
    if (command == "schedule") return cmd_schedule(parsed, in, out, err);
    if (command == "validate") return cmd_validate(parsed, in, out);
    if (command == "simulate") return cmd_simulate(parsed, in, out, err);
    if (command == "stress") return cmd_stress(parsed, in, out, err);
    if (command == "serve") return cmd_serve(parsed, in, out, err);
    if (command == "report") return cmd_report(parsed, in, out);
    err << "unknown command '" << command << "'\n";
    print_usage(err);
    return kUsage;
  } catch (const UsageError& e) {
    err << "usage error: " << e.message << '\n';
    return kUsage;
  } catch (const Error& e) {
    err << "error: " << e.what() << '\n';
    return kFailure;
  }
}

}  // namespace ccs
