// Tests of the observability subsystem (src/obs): the JSONL tracer, the
// metrics registry, the zero-overhead null ObsContext, the instrumented
// pipeline, and the CLI --trace/--stats round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/certify.hpp"
#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "cli/cli.hpp"
#include "core/cyclo_compaction.hpp"
#include "engine/portfolio.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

// ---------------------------------------------------------------- helpers

/// Minimal structural JSON check: braces/brackets balance outside strings,
/// strings terminate, and the line is a single object.  Good enough to catch
/// broken escaping or a missing close() without a full parser.
bool looks_like_json_object(const std::string& line) {
  if (line.empty() || line.front() != '{') return false;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\')
        ++i;  // skip the escaped character
      else if (c == '"')
        in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      --depth;
      if (depth < 0) return false;
      if (depth == 0) return i == line.size() - 1;
    }
  }
  return false;
}

/// Extracts the string value of `"key":"..."` (no escapes expected).
std::string string_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  return line.substr(start, end - start);
}

/// Extracts the numeric value of `"key":N` as a long long.
long long number_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " in " << line;
  if (pos == std::string::npos) return -1;
  return std::stoll(line.substr(pos + needle.size()));
}

// ------------------------------------------------------------ JsonWriter

TEST(JsonWriter, EscapesAndCloses) {
  JsonWriter w;
  w.field("s", std::string_view("a\"b\\c\n"))
      .field("n", 42)
      .field("b", true)
      .field("d", 1.5);
  const std::string line = w.close();
  EXPECT_EQ(line, "{\"s\":\"a\\\"b\\\\c\\n\",\"n\":42,\"b\":true,\"d\":1.5}");
  EXPECT_TRUE(looks_like_json_object(line));
}

TEST(JsonWriter, NonFiniteNumbersDegradeToZero) {
  EXPECT_EQ(json_number(0.0 / 0.0), "0");
  EXPECT_EQ(json_number(1.0 / 0.0), "0");
}

// ---------------------------------------------------------------- Tracer

TEST(Tracer, NullSinkIsDisabledAndEmitsNothing) {
  Tracer t;  // no sink
  EXPECT_FALSE(t.enabled());
  t.emit(PassStartEvent{1, 7});
  t.emit(RemapDecisionEvent{});
  EXPECT_EQ(t.events_emitted(), 0u);
}

TEST(Tracer, SequenceNumbersAreMonotonicFromZero) {
  VectorSink sink;
  Tracer t(&sink);
  ASSERT_TRUE(t.enabled());
  t.emit(PassStartEvent{1, 7});
  t.emit(PassEndEvent{1, 6, true, 6});
  t.emit(PassStartEvent{2, 6});
  ASSERT_EQ(sink.lines().size(), 3u);
  for (std::size_t i = 0; i < sink.lines().size(); ++i) {
    EXPECT_TRUE(looks_like_json_object(sink.lines()[i])) << sink.lines()[i];
    EXPECT_EQ(number_field(sink.lines()[i], "seq"),
              static_cast<long long>(i));
  }
  EXPECT_EQ(t.events_emitted(), 3u);
}

TEST(Tracer, EventKindsRoundTrip) {
  VectorSink sink;
  Tracer t(&sink);
  t.emit(StartupEvent{7, 7});
  t.emit(PassStartEvent{1, 7});
  t.emit(RotationEvent{1, {0, 2, 5}});
  t.emit(RemapTargetEvent{6, false});
  RemapDecisionEvent d;
  d.node = 2;
  d.accepted = true;
  d.pe = 1;
  d.cb = 3;
  d.an = 2;
  d.latest = 4;
  d.psl = 6;
  d.slots_scanned = 5;
  d.reason = "placed";
  t.emit(d);
  t.emit(PslPadEvent{2, 8});
  t.emit(RollbackEvent{1, 7, "no-placement-within-previous-length"});
  t.emit(PassEndEvent{1, 6, true, 6});
  SimRunEvent s;
  s.mode = "static";
  s.iterations = 10;
  s.makespan = 50;
  s.steady_ii = 5.0;
  s.messages = 12;
  s.late_arrivals = 0;
  s.deadlocked = false;
  t.emit(s);

  const std::vector<std::string> kinds = {
      "startup_done", "pass_start", "rotation",  "remap_target", "remap_decision",
      "psl_pad",      "rollback",   "pass_end",  "sim_run"};
  ASSERT_EQ(sink.lines().size(), kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_TRUE(looks_like_json_object(sink.lines()[i])) << sink.lines()[i];
    EXPECT_EQ(string_field(sink.lines()[i], "kind"), kinds[i]);
  }
  const std::string& decision = sink.lines()[4];
  EXPECT_EQ(number_field(decision, "an"), 2);
  EXPECT_EQ(number_field(decision, "psl"), 6);
  EXPECT_EQ(number_field(decision, "pe"), 1);
  const std::string& rot = sink.lines()[2];
  EXPECT_NE(rot.find("\"rotated\":[0,2,5]"), std::string::npos) << rot;
}

TEST(Tracer, StreamSinkWritesOneLinePerEvent) {
  std::ostringstream out;
  StreamSink sink(out);
  Tracer t(&sink);
  t.emit(PassStartEvent{1, 7});
  t.emit(PassEndEvent{1, 7, false, 7});
  std::istringstream in(out.str());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(looks_like_json_object(line)) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2);
}

// ------------------------------------------------------- MetricsRegistry

TEST(Metrics, CountersAndGaugesAccumulate) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.add("an.evaluations");
  m.add("an.evaluations", 4);
  m.set("schedule.best_length", 5.0);
  m.set("schedule.best_length", 4.0);  // gauges overwrite
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.counter("an.evaluations"), 5);
  EXPECT_EQ(m.gauge("schedule.best_length"), 4.0);
  EXPECT_EQ(m.counter("never.touched"), 0);
}

TEST(Metrics, MergeAddsCountersOverwritesGaugesAndSpans) {
  MetricsRegistry a, b;
  a.add("c", 1);
  b.add("c", 2);
  a.set("g", 1.0);
  b.set("g", 9.0);
  a.set_span("s", {1, 1.0, 1.0, 1.0, 1.0, 1.0});
  b.set_span("s", {4, 2.0, 2.0, 2.0, 2.0, 2.0});
  a.merge(b);
  EXPECT_EQ(a.counter("c"), 3);
  EXPECT_EQ(a.gauge("g"), 9.0);
  EXPECT_EQ(a.span("s").count, 4);
  EXPECT_EQ(a.span("s").total_ms, 2.0);
}

TEST(Metrics, JsonAndTextExports) {
  MetricsRegistry m;
  m.add("remap.placements", 7);
  m.set("sim.steady_ii", 2.5);
  const std::string bare = m.to_json();
  EXPECT_EQ(bare, "{\"counters\":{\"remap.placements\":7},"
                  "\"gauges\":{\"sim.steady_ii\":2.5}}");
  m.set_span("compact", {1, 3.0, 1.0, 3.0, 3.0, 3.0});
  const std::string json = m.to_json();
  EXPECT_TRUE(looks_like_json_object(json)) << json;
  EXPECT_NE(json.find("\"remap.placements\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sim.steady_ii\":2.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"spans\":{\"compact\":{\"count\":1,"),
            std::string::npos)
      << json;
  const std::string text = m.to_text();
  EXPECT_NE(text.find("remap.placements"), std::string::npos) << text;
  EXPECT_NE(text.find("counter"), std::string::npos) << text;
  EXPECT_NE(text.find("gauge"), std::string::npos) << text;
  EXPECT_NE(text.find("span"), std::string::npos) << text;
}

// ------------------------------------------------------------ ObsContext

TEST(ObsContext, DefaultContextIsInert) {
  const ObsContext obs;
  EXPECT_FALSE(obs.tracing());
  obs.count("anything");            // no-op, must not crash
  { auto s = obs.span("nothing"); }  // no-op span
  obs.emit(PassStartEvent{1, 1});
}

// ------------------------------------------------- instrumented pipeline

TEST(ObsPipeline, CycloCompactEmitsEventsAndCounters) {
  const Csdfg g = paper_example6();
  const Topology mesh = make_mesh(2, 2);
  const StoreAndForwardModel comm(mesh);
  VectorSink sink;
  Tracer tracer(&sink);
  MetricsRegistry metrics;
  SpanProfiler profiler;
  const ObsContext obs{&tracer, &metrics, &profiler};

  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithoutRelaxation;
  const auto res = cyclo_compact(g, mesh, comm, opt, obs);
  EXPECT_LE(res.best_length(), 5);

  // Every pass is bracketed: each pass_start is closed by a pass_end or, for
  // the final stalled strict pass, by a rollback.  At least one
  // remap_decision carries the AN and PSL fields.
  int starts = 0, ends = 0, rollbacks = 0, decisions = 0,
      decisions_with_bound = 0;
  for (const std::string& line : sink.lines()) {
    ASSERT_TRUE(looks_like_json_object(line)) << line;
    const std::string kind = string_field(line, "kind");
    if (kind == "pass_start") ++starts;
    if (kind == "pass_end") ++ends;
    if (kind == "rollback") ++rollbacks;
    if (kind == "remap_decision") {
      ++decisions;
      if (line.find("\"an\":") != std::string::npos &&
          line.find("\"psl\":") != std::string::npos)
        ++decisions_with_bound;
    }
  }
  EXPECT_GT(starts, 0);
  EXPECT_EQ(starts, ends + rollbacks);
  EXPECT_GT(decisions, 0);
  EXPECT_GT(decisions_with_bound, 0);
  EXPECT_EQ(tracer.events_emitted(), sink.lines().size());

  // The metrics registry saw the hot loops.
  EXPECT_GT(metrics.counter("an.evaluations"), 0);
  EXPECT_GT(metrics.counter("remap.slots_scanned"), 0);
  EXPECT_GT(metrics.counter("compaction.passes"), 0);
  // The profiler timed the whole run as one compact span.
  const auto spans = profiler.stats();
  ASSERT_EQ(spans.count("compact"), 1u);
  EXPECT_EQ(spans.at("compact").durations.count(), 1u);
}

TEST(ObsPipeline, InstrumentedRunMatchesPlainRun) {
  // Observability must not perturb the algorithm: identical results with
  // and without an ObsContext.
  const Csdfg g = paper_example19();
  const Topology mesh = make_mesh(2, 2);
  const StoreAndForwardModel comm(mesh);
  VectorSink sink;
  Tracer tracer(&sink);
  MetricsRegistry metrics;
  const auto plain = cyclo_compact(g, mesh, comm, {});
  const auto traced =
      cyclo_compact(g, mesh, comm, {}, ObsContext{&tracer, &metrics});
  EXPECT_EQ(plain.best_length(), traced.best_length());
  EXPECT_EQ(plain.best_pass, traced.best_pass);
  EXPECT_EQ(plain.length_trace, traced.length_trace);
}

// ------------------------------------------------------- CLI round trip

TEST(ObsCli, ScheduleTraceAndStatsRoundTrip) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/obs_cli_trace.jsonl";
  const std::string stats_path = dir + "/obs_cli_stats.json";
  const std::string graph =
      std::string(CCS_EXAMPLES_DATA_DIR) + "/paper_fig1b.csdfg";

  std::istringstream in;
  std::ostringstream out, err;
  const int code = run_cli({"schedule", graph, "--arch", "mesh 2 2",
                            "--trace", trace_path, "--stats", stats_path},
                           in, out, err);
  ASSERT_EQ(code, 0) << err.str();
  EXPECT_NE(out.str().find("stats:"), std::string::npos);

  // The trace file is well-formed JSONL with a remap_decision event that
  // carries the anticipation value and the projected-schedule-length bound.
  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.is_open());
  std::string line;
  int events = 0;
  bool saw_decision_with_bound = false;
  bool saw_startup = false;
  while (std::getline(trace, line)) {
    ASSERT_TRUE(looks_like_json_object(line)) << line;
    EXPECT_EQ(number_field(line, "seq"), events);
    ++events;
    if (string_field(line, "kind") == "startup_done") saw_startup = true;
    if (string_field(line, "kind") == "remap_decision" &&
        line.find("\"an\":") != std::string::npos &&
        line.find("\"psl\":") != std::string::npos)
      saw_decision_with_bound = true;
  }
  EXPECT_GT(events, 0);
  EXPECT_TRUE(saw_startup);
  EXPECT_TRUE(saw_decision_with_bound);

  // The stats file is a JSON document with nonzero pipeline counters.
  std::ifstream stats(stats_path);
  ASSERT_TRUE(stats.is_open());
  std::stringstream buf;
  buf << stats.rdbuf();
  std::string doc = buf.str();
  while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' '))
    doc.pop_back();
  EXPECT_TRUE(looks_like_json_object(doc)) << doc;
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"an.evaluations\""), std::string::npos);
  EXPECT_EQ(doc.find("\"an.evaluations\":0,"), std::string::npos);
}

TEST(ObsCli, StatsDashGoesToStdout) {
  const std::string graph =
      std::string(CCS_EXAMPLES_DATA_DIR) + "/paper_fig1b.csdfg";
  std::istringstream in;
  std::ostringstream out, err;
  const int code = run_cli(
      {"schedule", graph, "--arch", "mesh 2 2", "--stats", "-"}, in, out, err);
  ASSERT_EQ(code, 0) << err.str();
  EXPECT_NE(out.str().find("\"counters\""), std::string::npos);
}

TEST(ObsCli, UnwritableTracePathFails) {
  const std::string graph =
      std::string(CCS_EXAMPLES_DATA_DIR) + "/paper_fig1b.csdfg";
  std::istringstream in;
  std::ostringstream out, err;
  const int code =
      run_cli({"schedule", graph, "--arch", "mesh 2 2", "--trace",
               "/nonexistent-dir/trace.jsonl"},
              in, out, err);
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.str().find("cannot open"), std::string::npos);
}

TEST(ObsCli, SimulateEmitsSimRunEvent) {
  const std::string dir = ::testing::TempDir();
  const std::string graph =
      std::string(CCS_EXAMPLES_DATA_DIR) + "/paper_fig1b.csdfg";
  const std::string graph_path = dir + "/obs_cli_retimed.csdfg";
  const std::string sched_path = dir + "/obs_cli_sched.txt";
  const std::string trace_path = dir + "/obs_cli_sim.jsonl";

  // Produce the (retimed) graph + schedule artifacts, then simulate them
  // with tracing.  The compacted schedule validates against the retimed
  // graph, so both artifacts come from the same run.
  std::istringstream in1;
  std::ostringstream out1, err1;
  const int code1 = run_cli({"schedule", graph, "--arch", "mesh 2 2",
                             "--emit-graph", "--emit-schedule", "--quiet"},
                            in1, out1, err1);
  ASSERT_EQ(code1, 0) << err1.str();
  const auto graph_pos = out1.str().find("graph ");
  const auto sched_pos = out1.str().find("schedule ", graph_pos);
  ASSERT_NE(graph_pos, std::string::npos) << out1.str();
  ASSERT_NE(sched_pos, std::string::npos) << out1.str();
  {
    std::ofstream gf(graph_path);
    gf << out1.str().substr(graph_pos, sched_pos - graph_pos);
    std::ofstream sf(sched_path);
    sf << out1.str().substr(sched_pos);
  }

  std::istringstream in2;
  std::ostringstream out2, err2;
  const int code2 = run_cli({"simulate", graph_path, sched_path, "--arch",
                             "mesh 2 2", "--trace", trace_path, "--stats",
                             "-"},
                            in2, out2, err2);
  ASSERT_EQ(code2, 0) << err2.str();
  std::ifstream trace(trace_path);
  std::string line;
  bool saw_sim_run = false;
  while (std::getline(trace, line)) {
    ASSERT_TRUE(looks_like_json_object(line)) << line;
    if (string_field(line, "kind") == "sim_run") saw_sim_run = true;
  }
  EXPECT_TRUE(saw_sim_run);

  // The stats document times the run as a simulate span.
  const auto doc = out2.str().find("{\"counters\"");
  ASSERT_NE(doc, std::string::npos) << out2.str();
  JsonValue stats;
  std::string error;
  ASSERT_TRUE(parse_json(out2.str().substr(doc), stats, error)) << error;
  const JsonValue* spans = stats.find("spans");
  ASSERT_NE(spans, nullptr) << out2.str();
  const JsonValue* simulate = spans->find("simulate");
  ASSERT_NE(simulate, nullptr) << out2.str();
  EXPECT_EQ(simulate->find("count")->text, "1");
  // Spans are the only stage timer: no "timers" member remains.
  EXPECT_EQ(stats.find("timers"), nullptr) << out2.str();
}

// ------------------------------------------------- trace reader + replay

TEST(TraceReader, RoundTripsTracerOutput) {
  VectorSink sink;
  Tracer tracer(&sink);
  tracer.emit(PassStartEvent{1, 7});
  tracer.emit(RotationEvent{1, {2, 5}});
  tracer.emit(RemapDecisionEvent{3, true, 1, 4, 2, 9, 8, 3, "placed"});
  std::string text;
  for (const std::string& line : sink.lines()) text += line + "\n";
  // A control byte travels as \u0001 and comes back as the same byte.
  text += "{\"seq\":3,\"kind\":\"note\",\"text\":\"a\\u0001b\"}\n";

  const ParsedTrace parsed = parse_trace_jsonl(text);
  EXPECT_TRUE(parsed.issues.empty());
  ASSERT_EQ(parsed.events.size(), 4u);
  long long seq = -1;
  EXPECT_TRUE(parsed.events[1].number("seq", seq));
  EXPECT_EQ(seq, 1);
  std::string kind;
  EXPECT_TRUE(parsed.events[2].string("kind", kind));
  EXPECT_EQ(kind, "remap_decision");
  const TraceField* rotated = parsed.events[1].find("rotated");
  ASSERT_NE(rotated, nullptr);
  EXPECT_EQ(rotated->kind, TraceField::Kind::kArray);
  EXPECT_EQ(rotated->text, "[2,5]");
  EXPECT_EQ(canonical_trace_event(parsed.events[0]),
            "seq=0;kind=pass_start;pass=1;length=7");
  std::string note;
  EXPECT_TRUE(parsed.events[3].string("text", note));
  EXPECT_EQ(note, "a\x01" "b");
  EXPECT_EQ(canonical_trace_event(parsed.events[3]),
            "seq=3;kind=note;text=a\\u0001b");
}

TEST(TraceReader, ReportsMalformedLinesWithTheirNumbers) {
  const ParsedTrace parsed = parse_trace_jsonl(
      "{\"seq\":0,\"kind\":\"pass_start\"}\n"
      "\n"
      "{\"seq\":1,\"kind\":\"pass_end\"\n"
      "[1,2,3]\n"
      // Valid JSON outside the flat trace grammar, and a number JSON
      // does not allow.
      "{\"seq\":2,\"at\":{\"pass\":1}}\n"
      "{\"seq\":3,\"pass\":null}\n"
      "{\"seq\":4,\"pass\":+5}\n"
      "{\"seq\":5,\"rotated\":[\"a\"]}\n");
  EXPECT_EQ(parsed.events.size(), 1u);
  ASSERT_EQ(parsed.issues.size(), 6u);
  for (std::size_t i = 0; i < parsed.issues.size(); ++i) {
    EXPECT_EQ(parsed.issues[i].line, i + 3) << parsed.issues[i].message;
    EXPECT_FALSE(parsed.issues[i].message.empty());
  }
}

/// A recorded scheduling trace of the paper graph, produced in-process.
std::string record_paper_trace(const Csdfg& g, const Topology& topo,
                               const CommModel& comm,
                               const CycloCompactionOptions& opt) {
  VectorSink sink;
  Tracer tracer(&sink);
  const ObsContext obs{&tracer, nullptr};
  (void)cyclo_compact(g, topo, comm, opt, obs);
  std::string text;
  for (const std::string& line : sink.lines()) text += line + "\n";
  return text;
}

TEST(TraceReplay, FaithfulTraceVerifiesAndTamperedTraceIsRejected) {
  const Csdfg g = paper_example6();
  const Topology topo = make_mesh(2, 2);
  const StoreAndForwardModel comm(topo);
  const CycloCompactionOptions opt;
  const std::string text = record_paper_trace(g, topo, comm, opt);

  DiagnosticBag clean;
  EXPECT_TRUE(audit_trace(text, "<trace>", false, clean));
  EXPECT_TRUE(replay_trace(g, topo, comm, opt, text, "<trace>", clean))
      << render_text(clean);
  EXPECT_TRUE(clean.empty()) << render_text(clean);

  // Tamper with one remap decision: claim a different target step.  The
  // stream still parses and passes the structural audit, but the replay
  // diff pins the exact line.
  std::string tampered = text;
  const auto pos = tampered.find("\"cb\":");
  ASSERT_NE(pos, std::string::npos);
  tampered.insert(pos + 5, "9");  // "cb":N -> "cb":9N
  DiagnosticBag bag;
  EXPECT_FALSE(replay_trace(g, topo, comm, opt, tampered, "<trace>", bag));
  bag.finalize();
  ASSERT_FALSE(bag.empty());
  EXPECT_EQ(bag.diagnostics()[0].code, "CCS-S012");
  EXPECT_NE(bag.diagnostics()[0].message.find("diverges"),
            std::string::npos);

  // Dropping an event is also a divergence.
  const auto cut = text.find('\n');
  DiagnosticBag dropped;
  EXPECT_FALSE(replay_trace(g, topo, comm, opt, text.substr(cut + 1),
                            "<trace>", dropped));

  // A syntactically broken stream is CCS-S013 before any diffing.
  DiagnosticBag broken;
  EXPECT_FALSE(
      replay_trace(g, topo, comm, opt, "...not json\n", "<trace>", broken));
  broken.finalize();
  ASSERT_FALSE(broken.empty());
  EXPECT_EQ(broken.diagnostics()[0].code, "CCS-S013");
}

TEST(TraceReplay, CliReplayModeVerifiesARecordedRun) {
  const std::string dir = ::testing::TempDir();
  const std::string graph =
      std::string(CCS_EXAMPLES_DATA_DIR) + "/paper_fig1b.csdfg";
  const std::string trace_path = dir + "/replay_cli.jsonl";

  std::istringstream in1;
  std::ostringstream out1, err1;
  ASSERT_EQ(run_cli({"schedule", graph, "--arch", "mesh 2 2", "--quiet",
                     "--trace", trace_path},
                    in1, out1, err1),
            0)
      << err1.str();

  std::istringstream in2;
  std::ostringstream out2, err2;
  EXPECT_EQ(run_cli({"certify", "--replay", trace_path, "--graph", graph,
                     "--arch", "mesh 2 2"},
                    in2, out2, err2),
            0)
      << out2.str() << err2.str();

  // Flip one digit in the file and the replay must fail with CCS-S012.
  std::string text;
  {
    std::ifstream f(trace_path);
    std::ostringstream os;
    os << f.rdbuf();
    text = os.str();
  }
  const auto pos = text.find("\"an\":");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos + 5, "1");
  {
    std::ofstream f(trace_path);
    f << text;
  }
  std::istringstream in3;
  std::ostringstream out3, err3;
  EXPECT_EQ(run_cli({"certify", "--replay", trace_path, "--graph", graph,
                     "--arch", "mesh 2 2"},
                    in3, out3, err3),
            1);
  EXPECT_NE(out3.str().find("CCS-S012"), std::string::npos) << out3.str();
}

// ------------------------------------------------------ span profiler

TEST(ObsSpanHistogram, BucketsCountAndApproximateQuantiles) {
  SpanHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile_ns(0.5), 0u);
  for (int i = 0; i < 19; ++i) h.add(10);
  h.add(900);
  h.add(900);
  EXPECT_EQ(h.count(), 21u);
  EXPECT_EQ(h.total_ns(), 19u * 10u + 2u * 900u);
  EXPECT_EQ(h.max_ns(), 900u);
  // p50 lands in the [8,16) bucket; log2 resolution bounds it by 2x.
  EXPECT_GE(h.quantile_ns(0.5), 10u);
  EXPECT_LE(h.quantile_ns(0.5), 20u);
  // p95 is the outliers' bucket, clamped by the true max.
  EXPECT_GE(h.quantile_ns(0.95), 512u);
  EXPECT_LE(h.quantile_ns(0.95), 900u);

  SpanHistogram other;
  other.add(1u << 20);
  h.merge(other);
  EXPECT_EQ(h.count(), 22u);
  EXPECT_EQ(h.max_ns(), 1u << 20);
}

TEST(ObsSpan, NullProfilerIsInert) {
  const ObsSpan span(nullptr, "never-recorded");
  ObsContext obs;
  const ObsSpan via_context = obs.span("also-never");
  EXPECT_FALSE(obs.profiling());
}

TEST(ObsSpan, NestedScopesRecordDepthAndSelfTime) {
  SpanProfiler profiler;
  {
    const ObsSpan outer(&profiler, "outer");
    {
      const ObsSpan inner(&profiler, "inner");
    }
  }
  const std::vector<SpanRecord> records = profiler.records();
  ASSERT_EQ(records.size(), 2u);
  // Records close innermost-first.
  EXPECT_EQ(records[0].name, "inner");
  EXPECT_EQ(records[0].depth, 1);
  EXPECT_EQ(records[1].name, "outer");
  EXPECT_EQ(records[1].depth, 0);
  EXPECT_EQ(records[0].tid, records[1].tid);
  EXPECT_GE(records[1].start_ns + records[1].dur_ns,
            records[0].start_ns + records[0].dur_ns);
  // The outer scope's self time excludes the inner scope.
  EXPECT_LE(records[1].self_ns + records[0].dur_ns, records[1].dur_ns);
  const auto stats = profiler.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats.at("inner").durations.count(), 1u);
  EXPECT_EQ(stats.at("outer").durations.count(), 1u);
}

TEST(ObsSpan, FoldAndAbsorbMergeAggregates) {
  SpanProfiler a;
  SpanHistogram local;
  local.add(5);
  local.add(7);
  a.fold("an.eval", local);
  SpanProfiler b;
  {
    const ObsSpan span(&b, "remap");
  }
  b.set_attempt(3);
  {
    const ObsSpan tagged(&b, "tagged");
  }
  a.absorb(b);
  const auto stats = a.stats();
  EXPECT_EQ(stats.at("an.eval").durations.count(), 2u);
  EXPECT_EQ(stats.at("remap").durations.count(), 1u);
  bool saw_attempt_tag = false;
  for (const SpanRecord& r : a.records())
    if (r.name == "tagged") saw_attempt_tag = r.attempt == 3;
  EXPECT_TRUE(saw_attempt_tag);
}

TEST(ObsSpan, ProcessHookInstallsAndRestores) {
  ASSERT_EQ(SpanProfiler::process(), nullptr);
  SpanProfiler profiler;
  SpanProfiler* previous = SpanProfiler::set_process(&profiler);
  EXPECT_EQ(previous, nullptr);
  {
    const ObsSpan span(SpanProfiler::process(), "hooked");
  }
  EXPECT_EQ(SpanProfiler::set_process(previous), &profiler);
  EXPECT_EQ(SpanProfiler::process(), nullptr);
  EXPECT_EQ(profiler.stats().at("hooked").durations.count(), 1u);
}

TEST(ObsSpanPipeline, InstrumentedCompactionRecordsTheTaxonomy) {
  const Csdfg g = paper_example6();
  const Topology topo = make_mesh(2, 2);
  const StoreAndForwardModel comm(topo);
  SpanProfiler profiler;
  ObsContext obs;
  obs.profiler = &profiler;
  (void)cyclo_compact(g, topo, comm, {}, obs);
  const auto stats = profiler.stats();
  for (const char* name :
       {"startup.list", "compact", "compact.pass", "remap", "remap.target",
        "remap.an", "an.eval"})
    EXPECT_TRUE(stats.count(name) != 0 && stats.at(name).durations.count() > 0)
        << "missing span " << name;
  // Nesting: one "compact" root holds every pass.
  EXPECT_EQ(stats.at("compact").durations.count(), 1u);
  EXPECT_GE(stats.at("compact.pass").durations.count(), 1u);
  EXPECT_GE(stats.at("an.eval").durations.count(),
            stats.at("remap.an").durations.count());
}

TEST(ObsSpanPipeline, ChromeTraceExportIsWellFormed) {
  const Csdfg g = paper_example6();
  const Topology topo = make_mesh(2, 2);
  const StoreAndForwardModel comm(topo);
  SpanProfiler profiler;
  ObsContext obs;
  obs.profiler = &profiler;
  (void)cyclo_compact(g, topo, comm, {}, obs);
  const std::string doc = chrome_trace_json(profiler);
  std::string one_line = doc;
  for (char& c : one_line)
    if (c == '\n') c = ' ';
  // The whole document is one balanced JSON object with the trace_event
  // scaffolding: a thread_name metadata row and complete ("X") events.
  std::string squashed;
  for (char c : one_line)
    if (c != ' ') squashed += c;
  EXPECT_TRUE(looks_like_json_object(squashed)) << doc.substr(0, 200);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"compact\""), std::string::npos);
  EXPECT_NE(doc.find("\"self_us\""), std::string::npos);
}

// A parallel portfolio run must merge per-worker spans into one consistent
// stream: attempt-tagged, and structurally well-nested per thread — the
// trace audit (CCS-S014) is the oracle.  Runs under TSan in CI
// (tools/check.sh CCSCHED_SANITIZE=thread keeps the Obs suite).
TEST(ObsSpanPortfolio, ParallelSpansMergeWellFormed) {
  const Csdfg g = paper_example19();
  const Topology topo = make_mesh(4, 2);
  const StoreAndForwardModel comm(topo);
  VectorSink sink;
  Tracer tracer(&sink);
  MetricsRegistry metrics;
  SpanProfiler profiler;
  const ObsContext obs{&tracer, &metrics, &profiler};
  PortfolioOptions opt;
  opt.jobs = 8;
  opt.certify_winner = false;
  const PortfolioResult folio = portfolio_compact(g, topo, comm, opt, obs);
  EXPECT_GT(folio.winner.best.length(), 0);

  // Every attempt wrapped in a portfolio.attempt span, tagged.
  const std::vector<SpanRecord> records = profiler.records();
  ASSERT_FALSE(records.empty());
  int attempts_seen = 0;
  for (const SpanRecord& r : records)
    if (r.name == "portfolio.attempt") {
      ++attempts_seen;
      EXPECT_GE(r.attempt, 0);
    }
  EXPECT_GT(attempts_seen, 1);

  // The merged stream splices each attempt's lines verbatim (per-attempt
  // seq spaces), ordered by attempt index.  Group by the attempt tag: each
  // attempt's sub-stream must pass the structural audit — including the
  // CCS-S014 span-nesting and timestamp-monotonicity checks.
  std::map<long long, std::string> by_attempt;
  long long max_attempt_seen = -1;
  for (const std::string& line : sink.lines()) {
    const std::string needle = "\"attempt\":";
    const auto pos = line.find(needle);
    if (pos == std::string::npos) continue;  // the caller's own events
    const long long attempt = std::stoll(line.substr(pos + needle.size()));
    EXPECT_GE(attempt, max_attempt_seen) << "attempt streams out of order";
    max_attempt_seen = std::max(max_attempt_seen, attempt);
    by_attempt[attempt] += line + "\n";
  }
  EXPECT_GT(by_attempt.size(), 1u);
  for (const auto& [attempt, text] : by_attempt) {
    DiagnosticBag bag;
    EXPECT_TRUE(audit_trace(text, "<attempt>", false, bag))
        << "attempt " << attempt << '\n'
        << render_text(bag);
    EXPECT_NE(text.find("\"kind\":\"span_begin\""), std::string::npos)
        << "attempt " << attempt;
  }
}

// ------------------------------------------------------ profile CLI

TEST(ObsProfileCli, ScheduleProfileRoundTrip) {
  const std::string dir = ::testing::TempDir();
  const std::string profile_path = dir + "/obs_profile.trace.json";
  const std::string stats_path = dir + "/obs_profile_stats.json";
  const std::string graph =
      std::string(CCS_EXAMPLES_DATA_DIR) + "/paper_fig1b.csdfg";
  std::istringstream in;
  std::ostringstream out, err;
  const int code =
      run_cli({"schedule", graph, "--arch", "mesh 2 2", "--quiet",
               "--profile", profile_path, "--stats", stats_path},
              in, out, err);
  ASSERT_EQ(code, 0) << err.str();

  std::ifstream profile(profile_path);
  ASSERT_TRUE(profile.is_open());
  std::stringstream buf;
  buf << profile.rdbuf();
  const std::string doc = buf.str();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"remap\""), std::string::npos);
  // The route-table build happens inside the profiled window (the CLI
  // installs the process hook before constructing the architecture).
  EXPECT_NE(doc.find("\"name\":\"route."), std::string::npos) << doc.substr(0, 400);

  // The stats document carries the span histograms next to the counters.
  std::ifstream stats(stats_path);
  ASSERT_TRUE(stats.is_open());
  std::stringstream sbuf;
  sbuf << stats.rdbuf();
  const std::string sdoc = sbuf.str();
  EXPECT_NE(sdoc.find("\"spans\""), std::string::npos);
  for (const char* name : {"remap", "an.eval", "startup.list"})
    EXPECT_NE(sdoc.find(std::string("\"") + name + "\""), std::string::npos)
        << name;
  EXPECT_NE(sdoc.find("\"p50_ms\""), std::string::npos);
  EXPECT_NE(sdoc.find("\"p95_ms\""), std::string::npos);
}

TEST(ObsProfileCli, StatsAloneCarriesSpansAndTraceAloneOmitsThem) {
  const std::string graph =
      std::string(CCS_EXAMPLES_DATA_DIR) + "/paper_fig1b.csdfg";
  // --stats - alone: spans present in the JSON on stdout.
  std::istringstream in1;
  std::ostringstream out1, err1;
  ASSERT_EQ(run_cli({"schedule", graph, "--arch", "mesh 2 2", "--stats", "-"},
                    in1, out1, err1),
            0)
      << err1.str();
  EXPECT_NE(out1.str().find("\"spans\""), std::string::npos);

  // --trace alone: the stream carries no span events, so traces stay
  // byte-deterministic and replayable.
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/obs_no_spans.jsonl";
  std::istringstream in2;
  std::ostringstream out2, err2;
  ASSERT_EQ(run_cli({"schedule", graph, "--arch", "mesh 2 2", "--quiet",
                     "--trace", trace_path},
                    in2, out2, err2),
            0)
      << err2.str();
  std::ifstream trace(trace_path);
  std::stringstream buf;
  buf << trace.rdbuf();
  EXPECT_EQ(buf.str().find("span_begin"), std::string::npos);
}

TEST(ObsProfileCli, TraceAndProfileTogetherEmitAuditableSpans) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/obs_spans.jsonl";
  const std::string graph =
      std::string(CCS_EXAMPLES_DATA_DIR) + "/paper_fig1b.csdfg";
  std::istringstream in;
  std::ostringstream out, err;
  ASSERT_EQ(run_cli({"schedule", graph, "--arch", "mesh 2 2", "--quiet",
                     "--trace", trace_path, "--profile", "-"},
                    in, out, err),
            0)
      << err.str();
  std::ifstream trace(trace_path);
  std::stringstream buf;
  buf << trace.rdbuf();
  const std::string text = buf.str();
  EXPECT_NE(text.find("\"kind\":\"span_begin\""), std::string::npos);
  DiagnosticBag bag;
  EXPECT_TRUE(audit_trace(text, "<trace>", false, bag)) << render_text(bag);
}

// ------------------------------------------------------ report CLI

TEST(ObsReportCli, HotPathReportFromStatsDocument) {
  const std::string dir = ::testing::TempDir();
  const std::string stats_path = dir + "/report_stats.json";
  const std::string graph =
      std::string(CCS_EXAMPLES_DATA_DIR) + "/paper_fig1b.csdfg";
  std::istringstream in1;
  std::ostringstream out1, err1;
  ASSERT_EQ(run_cli({"schedule", graph, "--arch", "mesh 2 2", "--quiet",
                     "--stats", stats_path},
                    in1, out1, err1),
            0)
      << err1.str();
  std::istringstream in2;
  std::ostringstream out2, err2;
  EXPECT_EQ(run_cli({"report", stats_path}, in2, out2, err2), 0) << err2.str();
  EXPECT_NE(out2.str().find("remap"), std::string::npos) << out2.str();
  EXPECT_NE(out2.str().find("self"), std::string::npos) << out2.str();
}

TEST(ObsReportCli, DiffExitCodesGateRegressions) {
  const std::string dir = ::testing::TempDir();
  const std::string before = dir + "/report_before.json";
  const std::string after = dir + "/report_after.json";
  {
    std::ofstream f(before);
    f << "{\"counters\":{\"an.evaluations\":100,\"psl.rejections\":7},"
         "\"gauges\":{\"schedule.best_length\":5}}";
  }
  {
    std::ofstream f(after);
    f << "{\"counters\":{\"an.evaluations\":150,\"psl.rejections\":7},"
         "\"gauges\":{\"schedule.best_length\":5}}";
  }

  // Identical inputs: exit 0.
  std::istringstream in1;
  std::ostringstream out1, err1;
  EXPECT_EQ(run_cli({"report", "--diff", before, before}, in1, out1, err1), 0)
      << out1.str() << err1.str();

  // +50% on a gated counter: exit 1 and the delta is named.
  std::istringstream in2;
  std::ostringstream out2, err2;
  EXPECT_EQ(run_cli({"report", "--diff", before, after}, in2, out2, err2), 1);
  EXPECT_NE(out2.str().find("an.evaluations"), std::string::npos)
      << out2.str();

  // A generous threshold waives it.
  std::istringstream in3;
  std::ostringstream out3, err3;
  EXPECT_EQ(run_cli({"report", "--diff", before, after, "--threshold", "60"},
                    in3, out3, err3),
            0)
      << out3.str();

  // Gating only spans ignores the counter regression.
  std::istringstream in4;
  std::ostringstream out4, err4;
  EXPECT_EQ(run_cli({"report", "--diff", before, after, "--gate", "spans"},
                    in4, out4, err4),
            0)
      << out4.str();

  // An improvement in the other direction is not a regression.
  std::istringstream in5;
  std::ostringstream out5, err5;
  EXPECT_EQ(run_cli({"report", "--diff", after, before}, in5, out5, err5), 0)
      << out5.str();
}

TEST(ObsReportCli, DottedGateTokensTargetSpecificMetrics) {
  const std::string dir = ::testing::TempDir();
  const std::string before = dir + "/gate_before.json";
  const std::string after = dir + "/gate_after.json";
  {
    std::ofstream f(before);
    f << "{\"benchmarks\":{\"portfolio_mesh\":{\"bound\":{\"gap\":2},"
         "\"wall_ms\":10}}}";
  }
  {
    std::ofstream f(after);
    // The gap regresses; the (machine-dependent) wall time regresses too.
    f << "{\"benchmarks\":{\"portfolio_mesh\":{\"bound\":{\"gap\":3},"
         "\"wall_ms\":50}}}";
  }

  // A dotted token gates just the paths containing it: the gap regression
  // fails the diff even though nothing else is gated.
  std::istringstream in1;
  std::ostringstream out1, err1;
  EXPECT_EQ(run_cli({"report", "--diff", before, after, "--gate",
                     "bound.gap"},
                    in1, out1, err1),
            1)
      << out1.str();
  EXPECT_NE(out1.str().find("bound.gap"), std::string::npos) << out1.str();

  // The noisy wall-clock path stays ungated under the same token.
  std::istringstream in2;
  std::ostringstream out2, err2;
  {
    std::ofstream f(after);  // gap fixed, wall time still noisy
    f << "{\"benchmarks\":{\"portfolio_mesh\":{\"bound\":{\"gap\":2},"
         "\"wall_ms\":50}}}";
  }
  EXPECT_EQ(run_cli({"report", "--diff", before, after, "--gate",
                     "bound.gap"},
                    in2, out2, err2),
            0)
      << out2.str();
}

TEST(ObsReportCli, RejectsBadUsage) {
  std::istringstream in1;
  std::ostringstream out1, err1;
  EXPECT_EQ(run_cli({"report"}, in1, out1, err1), 2);
  std::istringstream in2;
  std::ostringstream out2, err2;
  EXPECT_EQ(run_cli({"report", "--threshold", "5", "x.json"}, in2, out2, err2),
            2);
  std::istringstream in3;
  std::ostringstream out3, err3;
  EXPECT_EQ(run_cli({"report", "--diff", "a.json", "b.json", "--threshold",
                     "-3"},
                    in3, out3, err3),
            2);
  // A missing file is a runtime failure, not a usage error.
  std::istringstream in4;
  std::ostringstream out4, err4;
  EXPECT_EQ(run_cli({"report", "/nonexistent-dir/metrics.json"}, in4, out4,
                    err4),
            1);
}

}  // namespace
}  // namespace ccs
