#include "analysis/certify.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/bounds.hpp"
#include "core/unfold_schedule.hpp"
#include "core/unfolding.hpp"
#include "core/validator.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "util/error.hpp"
#include "util/lines.hpp"

namespace ccs {

namespace {

/// Tracks whether a certifier entry point added error findings.
class ErrorWatch {
public:
  explicit ErrorWatch(const DiagnosticBag& bag)
      : bag_(&bag), before_(bag.count(Severity::kError)) {}
  [[nodiscard]] bool clean() const {
    return bag_->count(Severity::kError) == before_;
  }

private:
  const DiagnosticBag* bag_;
  std::size_t before_;
};

/// The certifier's own view of a schedule: nothing here came from
/// ScheduleTable's grid or the strict parser — every derived quantity
/// below is recomputed from these raw facts.
struct NormSchedule {
  int length = 0;
  bool pipelined = false;
  std::vector<int> speeds;            ///< One per processor.
  std::vector<ResolvedPlacement> places;  ///< At most one per task.
  SourceSpan whole;                       ///< The artifact as a whole.
  SourceSpan length_span;                 ///< Where the length was declared.

  /// Where placement `p` was asserted (the whole artifact for a table).
  [[nodiscard]] SourceSpan span(const ResolvedPlacement& p) const {
    return {whole.file, p.line};
  }
};

std::string step_range(int cb, long long ce) {
  std::ostringstream os;
  os << "steps [" << cb << "," << ce << "]";
  return os.str();
}

/// CE(v) for a placement: CB + t(v) * speed(PE) - 1, in 64 bits (a time
/// and a speed factor are each up to INT_MAX).
long long end_step(const Csdfg& g, const NormSchedule& s,
                   const ResolvedPlacement& p) {
  return p.cb + static_cast<long long>(g.node(p.v).time) * s.speeds[p.pe] - 1;
}

/// The master-constraint checks shared by the file and table paths:
/// completeness (S002), table bounds (S003), processor exclusivity
/// (S004/S005), and every edge of the graph (S006 intra-iteration,
/// S007 inter-iteration with the Lemma 4.3 bound).
void check_norm(const Csdfg& g, const NormSchedule& s, const CommModel& comm,
                DiagnosticBag& bag) {
  std::vector<std::optional<std::size_t>> at(g.node_count());
  for (std::size_t i = 0; i < s.places.size(); ++i) at[s.places[i].v] = i;

  for (NodeId v = 0; v < g.node_count(); ++v)
    if (!at[v])
      bag.add("CCS-S002", s.whole,
              "task '" + g.node(v).name + "' is not in the table");

  for (const ResolvedPlacement& p : s.places) {
    const long long ce = end_step(g, s, p);
    if (p.cb < 1 || ce > s.length) {
      std::ostringstream os;
      os << "task '" << g.node(p.v).name << "' occupies "
         << step_range(p.cb, ce) << " outside the table of length "
         << s.length;
      bag.add("CCS-S003", s.span(p), os.str());
    }
  }

  // Exclusivity is checked on the table's rows: a step outside them is an
  // S003 finding already, and stopping there bounds the walk however long
  // the task or far off its start.
  std::map<std::pair<std::size_t, int>, std::size_t> occupancy;
  for (std::size_t i = 0; i < s.places.size(); ++i) {
    const ResolvedPlacement& p = s.places[i];
    const long long last = std::min<long long>(
        s.pipelined ? p.cb : end_step(g, s, p), s.length);
    for (int cs = std::max(p.cb, 1); cs <= last; ++cs) {
      auto [it, inserted] = occupancy.insert({{p.pe, cs}, i});
      if (!inserted) {
        const ResolvedPlacement& other = s.places[it->second];
        std::ostringstream os;
        os << "tasks '" << g.node(other.v).name << "' and '"
           << g.node(p.v).name << "' both "
           << (s.pipelined ? "issue on" : "occupy") << " PE" << p.pe + 1
           << " at step " << cs;
        bag.add(s.pipelined ? "CCS-S005" : "CCS-S004", s.span(p), os.str());
        break;  // one finding per colliding pair, not per shared step
      }
    }
  }

  for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
    const Edge& e = g.edge(eid);
    if (!at[e.from] || !at[e.to]) continue;
    const ResolvedPlacement& pu = s.places[*at[e.from]];
    const ResolvedPlacement& pv = s.places[*at[e.to]];
    const long long k = e.delay;
    const long long ce_u = end_step(g, s, pu);
    const long long cb_v = pv.cb;
    const CommCost m = comm.cost(pu.pe, pv.pe, e.volume);
    const long long need = ce_u + m + 1;
    if (cb_v + k * s.length >= need) continue;
    std::ostringstream os;
    os << "edge " << g.node(e.from).name << "->" << g.node(e.to).name
       << " (delay " << k << ", volume " << e.volume << "): ";
    if (k == 0) {
      os << "CB(v) = " << cb_v << " < CE(u)+M+1 = " << need << " with M=" << m;
      bag.add("CCS-S006", s.span(pv), os.str());
    } else {
      const long long bound = (need - cb_v + k - 1) / k;  // Lemma 4.3
      os << "CB(v)+k*L = " << cb_v + k * s.length << " < CE(u)+M+1 = " << need
         << " with M=" << m << ", L=" << s.length
         << "; the cyclic length must be at least " << bound;
      bag.add("CCS-S007", s.length_span, os.str());
    }
  }
}

/// Translation validation (CCS-S011): rebuild the (known-clean) schedule
/// as a ScheduleTable, unfold both graph and table by `factor`, and let
/// the core validator referee the induced flat schedule.  Any violation
/// means certifier and transform disagree — a tooling bug, not an input
/// problem.
void unfold_cross_check(const Csdfg& g, const NormSchedule& s, int factor,
                        const CommModel& comm, DiagnosticBag& bag) {
  if (factor < 2 || s.places.size() != g.node_count()) return;
  ScheduleTable table(g, s.speeds, s.pipelined);
  for (const ResolvedPlacement& p : s.places) table.place(p.v, p.pe, p.cb);
  if (table.occupied_length() > s.length) return;  // S003 already reported
  table.set_length(s.length);

  const Unfolded unfolded = unfold(g, factor);
  const ScheduleTable flat = unfold_table(table, unfolded, factor);
  const ValidationReport report =
      validate_schedule(unfolded.graph, flat, comm);
  if (report.ok()) return;
  std::ostringstream os;
  os << "schedule certifies clean but its induced flat schedule on the "
     << factor << "-unfolded graph does not: "
     << report.violations.front().message;
  bag.add("CCS-S011", s.whole, os.str());
}

}  // namespace

ResolvedSchedule resolve_schedule(const Csdfg& g, const RawSchedule& raw,
                                  DiagnosticBag& bag) {
  const auto finding = [&](std::size_t line, std::string message) {
    bag.add("CCS-S001", SourceSpan{raw.file, line}, std::move(message));
  };
  NameIndex names;
  for (NodeId v = 0; v < g.node_count(); ++v) names.declare(g.node(v).name, v);
  // The task `name` names, or nothing (with a finding) when the graph
  // declares no task or several tasks of that name.
  const auto task = [&](const std::string& name,
                        std::size_t line) -> std::optional<NodeId> {
    const NameIndex::Entry* entry = names.find(name);
    if (entry != nullptr && entry->count == 1) return entry->id;
    finding(line, "unknown task '" + name + "'");
    return std::nullopt;
  };

  ResolvedSchedule out;
  std::vector<std::size_t> placed_on(g.node_count(), 0);  // line, 0 = none
  for (const RawPlacement& p : raw.places) {
    const std::optional<NodeId> v = task(p.task, p.line);
    if (!v) continue;
    if (p.pe > raw.num_pes) {
      std::ostringstream os;
      os << "pe " << p.pe << " out of range for " << raw.num_pes
         << " processor(s)";
      finding(p.line, os.str());
      continue;
    }
    if (placed_on[*v] != 0) {
      finding(p.line, "task '" + p.task + "' placed twice (first on line " +
                          std::to_string(placed_on[*v]) + ")");
      continue;
    }
    placed_on[*v] = p.line;
    out.places.push_back(ResolvedPlacement{*v, p.pe - 1, p.cb, p.line});
  }

  out.retiming.assign(g.node_count(), 0);
  out.retime_lines.assign(g.node_count(), 0);
  for (const RawRetime& rt : raw.retimes) {
    const std::optional<NodeId> v = task(rt.task, rt.line);
    if (!v) continue;
    if (out.retime_lines[*v] != 0) {
      finding(rt.line, "task '" + rt.task + "' retimed twice");
      continue;
    }
    out.retiming[*v] = rt.r;
    out.retime_lines[*v] = rt.line;
  }
  return out;
}

// CCS-S015: a schedule that certified clean must not be SHORTER than any
// claimed-sound static lower bound of (this graph, this machine) — the
// local composite is sound for the graph's exact delay placement, so a
// violation is a first-principles bug in the bound derivation or the
// certifier itself (src/analysis/bounds.hpp), and portfolio pruning
// decisions made from the bound cannot be trusted.  The certify entry
// points only run it on clean schedules: a table that already failed
// certification proves nothing about the bounds.
bool cross_check_schedule_bound(const GraphFacts& facts, int length,
                                const std::vector<int>& pe_speeds,
                                bool pipelined, const CommModel& comm,
                                const SourceSpan& span, DiagnosticBag& bag) {
  if (!facts.graph().is_legal() || pe_speeds.empty()) return true;
  const CompositeBound bounds = compute_bounds(
      facts, BoundMachine{pe_speeds.size(), pe_speeds, pipelined, &comm});
  if (length >= bounds.local_value) return true;
  std::ostringstream os;
  os << "certified schedule of length " << length
     << " beats the claimed-sound static lower bound " << bounds.local_value
     << " (" << bounds.dominant_local << ")";
  if (const BoundResult* part = bounds.part(bounds.dominant_local))
    os << ": " << part->witness;
  bag.add("CCS-S015", span, os.str());
  return false;
}

bool certify_schedule(const Csdfg& g, const RawSchedule& raw,
                      const Topology& topo, const CommModel& comm,
                      const CertifyOptions& options, DiagnosticBag& bag) {
  // Certifier entry points take no ObsContext (they predate it), so phase
  // spans come from the process-global profiler hook.
  const ObsSpan phase(SpanProfiler::process(), "certify.schedule");
  const ErrorWatch watch(bag);
  const SourceSpan whole{raw.file, 0};
  if (!raw.has_directive) return watch.clean();  // S001 from the parser

  if (raw.num_pes != topo.size()) {
    std::ostringstream os;
    os << "schedule declares " << raw.num_pes
       << " processor(s) but architecture '" << topo.name() << "' has "
       << topo.size();
    bag.add("CCS-S001", SourceSpan{raw.file, raw.schedule_line}, os.str());
  }

  ResolvedSchedule resolved = resolve_schedule(g, raw, bag);
  NormSchedule s;
  s.length = raw.length;
  s.pipelined = raw.pipelined;
  s.speeds = raw.speeds.empty() ? std::vector<int>(raw.num_pes, 1)
                                : raw.speeds;
  s.places = std::move(resolved.places);
  s.whole = whole;
  s.length_span = SourceSpan{raw.file, raw.schedule_line};

  // Retime provenance (CCS-S008): the file's graph carries the retimed
  // delays d_r(e) = d(e) + r(u) - r(v), so the original delay is
  // d(e) = d_r(e) - r(u) + r(v) and must be non-negative for the recorded
  // retiming to be legal.
  const std::vector<long long>& r = resolved.retiming;
  const std::vector<std::size_t>& r_line = resolved.retime_lines;
  if (!raw.retimes.empty()) {
    for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
      const Edge& e = g.edge(eid);
      const long long original = e.delay - r[e.from] + r[e.to];
      if (original >= 0) continue;
      const std::size_t line =
          r_line[e.from] != 0 ? r_line[e.from] : r_line[e.to];
      std::ostringstream os;
      os << "edge " << g.node(e.from).name << "->" << g.node(e.to).name
         << ": un-retimed delay d(e) - r(u) + r(v) = " << e.delay << " - "
         << r[e.from] << " + " << r[e.to] << " = " << original
         << " is negative; the recorded retiming is illegal";
      bag.add("CCS-S008", SourceSpan{raw.file, line}, os.str());
    }
  }

  check_norm(g, s, comm, bag);
  if (watch.clean()) unfold_cross_check(g, s, options.unfold_factor, comm, bag);
  if (watch.clean())
    (void)cross_check_schedule_bound(g, s.length, s.speeds, s.pipelined, comm,
                                     s.whole, bag);
  return watch.clean();
}

bool certify_table(const GraphFacts& facts, const ScheduleTable& table,
                   const CommModel& comm, const std::string& label,
                   DiagnosticBag& bag, const CertifyOptions& options) {
  const ObsSpan phase(SpanProfiler::process(), "certify.table");
  const ErrorWatch watch(bag);
  const Csdfg& g = facts.graph();
  NormSchedule s;
  s.length = table.length();
  s.pipelined = table.pipelined_pes();
  s.speeds = table.pe_speeds();
  s.whole = SourceSpan{label, 0};
  s.length_span = s.whole;
  for (const auto& [v, p] : table.placements())
    s.places.push_back(ResolvedPlacement{v, p.pe, p.cb, 0});

  check_norm(g, s, comm, bag);
  if (watch.clean()) unfold_cross_check(g, s, options.unfold_factor, comm, bag);
  if (watch.clean())
    (void)cross_check_schedule_bound(facts, s.length, s.speeds, s.pipelined,
                                     comm, s.whole, bag);
  return watch.clean();
}

bool certify_compaction_run(const GraphFacts& facts,
                            const CycloCompactionResult& result,
                            const CommModel& comm, RemapPolicy policy,
                            const std::string& label,
                            const CertifyOptions& options,
                            DiagnosticBag& bag) {
  const ObsSpan phase(SpanProfiler::process(), "certify.run");
  const ErrorWatch watch(bag);
  const SourceSpan span{label, 0};
  const Csdfg& original = facts.graph();
  const Csdfg& retimed = result.retimed_graph;

  // Retiming: the claimed retimed graph is the input graph with its delays
  // moved, and the recorded retiming is legal for the input graph and
  // reproduces those delays edge by edge.
  if (result.retiming.size() != original.node_count() ||
      retimed.node_count() != original.node_count() ||
      retimed.edge_count() != original.edge_count()) {
    bag.add("CCS-S010", span,
            "result shapes do not match the input graph (retiming over " +
                std::to_string(result.retiming.size()) + " task(s), " +
                std::to_string(retimed.node_count()) + " retimed task(s), " +
                std::to_string(retimed.edge_count()) + " retimed edge(s))");
  } else {
    for (NodeId v = 0; v < original.node_count(); ++v)
      if (retimed.node(v).time != original.node(v).time)
        bag.add("CCS-S010", span,
                "task '" + original.node(v).name +
                    "': the claimed retimed graph gives it another time");
    for (EdgeId eid = 0; eid < original.edge_count(); ++eid) {
      const Edge& e = original.edge(eid);
      const Edge& claimed = retimed.edge(eid);
      const long long dr = result.retiming.retimed_delay(original, eid);
      const bool moved = claimed.from != e.from || claimed.to != e.to ||
                         claimed.volume != e.volume;
      if (!moved && dr == claimed.delay && dr >= 0) continue;
      std::ostringstream os;
      os << "edge " << original.node(e.from).name << "->"
         << original.node(e.to).name << ": ";
      if (moved)
        os << "the claimed retimed graph moves it or changes its volume";
      else if (dr < 0)
        os << "retimed delay d(e)+r(u)-r(v) = " << dr << " is negative";
      else
        os << "claimed retimed delay " << claimed.delay
           << " but the recorded retiming yields " << dr;
      bag.add(!moved && dr < 0 ? "CCS-S008" : "CCS-S010", span, os.str());
    }
  }
  // Only a legal retiming keeps the input's cycle ratio, critical cycle and
  // Φ_min (docs/ALGORITHM.md §7).
  const bool legal_retiming = watch.clean();

  // Theorem 4.4: without relaxation no pass may end longer than it began.
  if (policy == RemapPolicy::kWithoutRelaxation) {
    int prev = result.startup_length();
    for (std::size_t i = 0; i < result.length_trace.size(); ++i) {
      const int len = result.length_trace[i];
      if (len > prev) {
        std::ostringstream os;
        os << "pass " << i + 1 << " ended at length " << len
           << " after entering at " << prev
           << " under the without-relaxation policy (Theorem 4.4)";
        bag.add("CCS-S009", span, os.str());
      }
      prev = len;
    }
  }

  // Claimed best length / best pass vs the recomputed trace minimum.
  int expected_best = result.startup_length();
  int expected_pass = 0;
  for (std::size_t i = 0; i < result.length_trace.size(); ++i) {
    if (result.length_trace[i] < expected_best) {
      expected_best = result.length_trace[i];
      expected_pass = static_cast<int>(i) + 1;
    }
  }
  if (result.best_length() != expected_best) {
    std::ostringstream os;
    os << "claimed best length " << result.best_length()
       << " but the pass trace reaches " << expected_best;
    bag.add("CCS-S010", span, os.str());
  } else if (result.best_pass != expected_pass) {
    std::ostringstream os;
    os << "claimed best pass " << result.best_pass
       << " but the trace first reaches length " << expected_best
       << " at pass " << expected_pass;
    bag.add("CCS-S010", span, os.str());
  }

  (void)certify_table(facts, result.startup, comm, label + " (startup)", bag,
                      options);
  const GraphFacts retimed_facts = legal_retiming
                                       ? GraphFacts::retimed(retimed, facts)
                                       : GraphFacts(retimed);
  (void)certify_table(retimed_facts, result.best, comm, label + " (best)",
                      bag, options);
  return watch.clean();
}

namespace {

bool known_trace_kind(std::string_view kind) {
  static const std::set<std::string, std::less<>> kinds = {
      "pass_start", "rotation",    "remap_target", "remap_decision",
      "psl_pad",    "rollback",    "pass_end",     "startup_done",
      "sim_run",    "fault",       "repair_attempt", "budget_exhausted",
      "span_begin", "span_end"};
  return kinds.find(kind) != kinds.end();
}

bool is_span_kind(std::string_view kind) {
  return kind == "span_begin" || kind == "span_end";
}

bool bool_field(const TraceEvent& e, std::string_view key, bool& out) {
  const TraceField* f = e.find(key);
  if (f == nullptr || f->kind != TraceField::Kind::kBool) return false;
  out = f->text == "true";
  return true;
}

}  // namespace

namespace {

/// One open profiler scope on a trace thread, remembered until its
/// span_end arrives (or the stream ends — CCS-S014).
struct OpenSpan {
  std::string name;
  std::size_t line = 0;
};

}  // namespace

bool audit_trace(const std::string& trace_text, const std::string& file,
                 bool strict_monotone, DiagnosticBag& bag) {
  const ObsSpan phase(SpanProfiler::process(), "certify.audit");
  const ErrorWatch watch(bag);
  const ParsedTrace trace = parse_trace_jsonl(trace_text);
  for (const TraceParseIssue& issue : trace.issues)
    bag.add("CCS-S013", SourceSpan{file, issue.line}, issue.message);

  long long expect_seq = 0;
  bool have_best = false;
  bool resumed = false;
  long long best = 0;
  long long prev_pass_len = -1;
  // Span structure per thread tag: open-scope stack and last timestamp.
  std::map<long long, std::vector<OpenSpan>> open_spans;
  std::map<long long, long long> last_ts;
  for (const TraceEvent& e : trace.events) {
    const SourceSpan span{file, e.line};
    long long seq = 0;
    if (!e.number("seq", seq)) {
      bag.add("CCS-S013", span, "event has no integral 'seq' field");
    } else if (seq != expect_seq) {
      std::ostringstream os;
      os << "sequence gap: expected seq " << expect_seq << ", found " << seq;
      bag.add("CCS-S013", span, os.str());
      expect_seq = seq + 1;
    } else {
      ++expect_seq;
    }

    std::string kind;
    if (!e.string("kind", kind)) {
      bag.add("CCS-S013", span, "event has no 'kind' field");
      continue;
    }
    if (!known_trace_kind(kind)) {
      bag.add("CCS-S013", span, "unknown event kind '" + kind + "'");
      continue;
    }

    if (is_span_kind(kind)) {
      std::string name;
      long long tid = 0;
      long long ts = 0;
      if (!e.string("name", name) || !e.number("tid", tid) ||
          !e.number("ts_ns", ts)) {
        bag.add("CCS-S014", span,
                kind + " event lacks name/tid/ts_ns fields");
        continue;
      }
      if (tid < 0) {
        std::ostringstream os;
        os << kind << " '" << name << "' carries negative thread tag " << tid;
        bag.add("CCS-S014", span, os.str());
        continue;
      }
      const auto ts_it = last_ts.find(tid);
      if (ts_it != last_ts.end() && ts < ts_it->second) {
        std::ostringstream os;
        os << kind << " '" << name << "' on thread " << tid
           << " has timestamp " << ts << " before the preceding "
           << ts_it->second << " (out of order)";
        bag.add("CCS-S014", span, os.str());
      }
      last_ts[tid] = std::max(ts_it != last_ts.end() ? ts_it->second : ts, ts);
      if (kind == "span_begin") {
        open_spans[tid].push_back(OpenSpan{name, e.line});
      } else {
        const auto open_it = open_spans.find(tid);
        if (open_it == open_spans.end() || open_it->second.empty()) {
          std::ostringstream os;
          os << "span_end '" << name << "' on thread " << tid
             << " has no matching span_begin"
             << (open_it == open_spans.end() ? " (unknown thread tag)" : "");
          bag.add("CCS-S014", span, os.str());
          continue;
        }
        const OpenSpan top = open_it->second.back();
        open_it->second.pop_back();
        if (top.name != name) {
          std::ostringstream os;
          os << "span_end '" << name << "' on thread " << tid
             << " closes scope '" << top.name << "' opened on line "
             << top.line << " (misnested)";
          bag.add("CCS-S014", span, os.str());
        }
      }
      continue;
    }

    if (kind == "pass_start") {
      long long len = 0;
      long long pass = 1;
      if (e.number("length", len) && !have_best && !resumed) {
        prev_pass_len = len;
        // A portfolio attempt that resumes a shared compaction trajectory
        // begins its stream past pass 1, after its best so far was set.
        if (e.number("pass", pass) && pass > 1) {
          resumed = true;
        } else {
          best = len;
          have_best = true;
        }
      }
    } else if (kind == "pass_end") {
      long long len = 0;
      long long claimed_best = 0;
      bool improved = false;
      if (!e.number("length", len) ||
          !e.number("best_length", claimed_best) ||
          !bool_field(e, "improved", improved)) {
        bag.add("CCS-S013", span,
                "pass_end event lacks length/best_length/improved fields");
        continue;
      }
      if (resumed && !have_best) {
        // The best before a resumed stream is whatever this first pass
        // claims it kept, or above the pass's length if it improved; the
        // checks below then hold the claim to the pass.
        best = improved ? len + 1 : claimed_best;
        have_best = true;
      }
      if (have_best) {
        if (strict_monotone && prev_pass_len >= 0 && len > prev_pass_len) {
          std::ostringstream os;
          os << "pass length grew from " << prev_pass_len << " to " << len
             << " in a without-relaxation run (Theorem 4.4)";
          bag.add("CCS-S009", span, os.str());
        }
        const bool expect_improved = len < best;
        const long long new_best = std::min(best, len);
        if (claimed_best != new_best) {
          std::ostringstream os;
          os << "pass_end claims best_length " << claimed_best
             << " but the running minimum is " << new_best;
          bag.add("CCS-S010", span, os.str());
        } else if (improved != expect_improved) {
          std::ostringstream os;
          os << "pass_end claims improved=" << (improved ? "true" : "false")
             << " but length " << len << " vs best " << best << " says "
             << (expect_improved ? "true" : "false");
          bag.add("CCS-S010", span, os.str());
        }
        best = new_best;
        prev_pass_len = len;
      }
    }
  }
  for (const auto& [tid, stack] : open_spans) {
    if (stack.empty()) continue;
    std::ostringstream os;
    os << stack.size() << " span scope(s) on thread " << tid
       << " never terminated; innermost is '" << stack.back().name << "'";
    bag.add("CCS-S014", SourceSpan{file, stack.back().line}, os.str());
  }
  return watch.clean();
}

bool replay_trace(const Csdfg& g, const Topology& topo, const CommModel& comm,
                  const CycloCompactionOptions& options,
                  const std::string& trace_text, const std::string& file,
                  DiagnosticBag& bag) {
  const ObsSpan phase(SpanProfiler::process(), "certify.replay");
  const ErrorWatch watch(bag);
  const ParsedTrace recorded = parse_trace_jsonl(trace_text);
  for (const TraceParseIssue& issue : recorded.issues)
    bag.add("CCS-S013", SourceSpan{file, issue.line}, issue.message);
  if (!watch.clean()) return false;  // a broken stream cannot be diffed

  std::vector<const TraceEvent*> events;
  for (const TraceEvent& e : recorded.events) {
    std::string kind;
    // Events appended to the same file by other stages — simulator runs,
    // fault injection, repair — are outside the scheduling-pipeline replay.
    // Span events carry wall-clock timestamps and can never replay
    // deterministically; audit_trace checks their structure instead.
    if (e.string("kind", kind) &&
        (kind == "sim_run" || kind == "fault" || kind == "repair_attempt" ||
         is_span_kind(kind)))
      continue;
    events.push_back(&e);
  }

  VectorSink sink;
  Tracer tracer(&sink);
  const ObsContext obs{&tracer, nullptr};
  (void)cyclo_compact(g, topo, comm, options, obs);
  std::string replay_text;
  for (const std::string& line : sink.lines()) {
    replay_text += line;
    replay_text += '\n';
  }
  const ParsedTrace replayed = parse_trace_jsonl(replay_text);

  const std::size_t n = std::min(events.size(), replayed.events.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string rec = canonical_trace_event(*events[i]);
    const std::string rep = canonical_trace_event(replayed.events[i]);
    if (rec == rep) continue;
    std::ostringstream os;
    os << "event " << i << " diverges from the deterministic replay: "
       << "recorded {" << rec << "} vs replayed {" << rep << "}";
    bag.add("CCS-S012", SourceSpan{file, events[i]->line}, os.str());
    return watch.clean();
  }
  if (events.size() != replayed.events.size()) {
    std::ostringstream os;
    os << "recorded trace has " << events.size()
       << " scheduling event(s) but the deterministic replay produced "
       << replayed.events.size();
    const std::size_t line =
        events.size() > n ? events[n]->line
                          : (events.empty() ? 0 : events.back()->line);
    bag.add("CCS-S012", SourceSpan{file, line}, os.str());
  }
  return watch.clean();
}

}  // namespace ccs
