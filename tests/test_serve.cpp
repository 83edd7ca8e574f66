// The serve loop (src/serve): admission control, the degradation ladder,
// fault containment, drain semantics, and response-order determinism.
// Suite names contain "Serve" so the TSan job's ctest filter picks every
// test up (tools/check.sh) — the soak test below is the data-race hammer.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/canon.hpp"
#include "analysis/certify.hpp"
#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/budget.hpp"
#include "engine/solve_cache.hpp"
#include "io/schedule_format.hpp"
#include "io/serve_codec.hpp"
#include "io/text_format.hpp"
#include "obs/trace_reader.hpp"
#include "serve/service.hpp"
#include "test_graphs.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

const char* kGraphA =
    "graph a\nnode x 1\nnode y 2\nedge x y 0 2\nedge y x 2 1\n";
const char* kGraphB =  // attribute-isomorphic relabeling of kGraphA
    "graph b\nnode p 1\nnode q 2\nedge p q 0 2\nedge q p 2 1\n";
const char* kGraphC =  // novel: different execution times
    "graph c\nnode x 2\nnode y 3\nedge x y 0 2\nedge y x 2 1\n";

/// Escapes a graph body for embedding in a JSON request line.
std::string jesc(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '"') {
      out += "\\\"";
    } else {
      out += c;
    }
  }
  return out;
}

std::string solve_line(const std::string& id, const char* graph,
                       const std::string& extra = "") {
  return "{\"op\":\"solve\",\"id\":\"" + id + "\",\"graph\":\"" +
         jesc(graph) + "\",\"arch\":\"mesh 2 1\"" + extra + "}";
}

struct ServeRun {
  ServeSummary summary;
  std::vector<std::string> responses;
  std::string out;
  std::string err;
};

ServeRun run(const std::string& input, const ServeOptions& opts) {
  std::istringstream in(input);
  std::ostringstream out;
  std::ostringstream err;
  ServeRun r;
  r.summary = run_serve(in, out, err, opts);
  r.out = out.str();
  r.err = err.str();
  std::istringstream lines(r.out);
  std::string line;
  while (std::getline(lines, line)) r.responses.push_back(line);
  return r;
}

/// Field extractor for response lines (responses are flat JSON objects in
/// the same grammar the request parser reads).
std::string field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::size_t from = at + needle.size();
  std::size_t to = from;
  if (line[from] == '"') {
    ++from;
    to = line.find('"', from);
  } else {
    to = line.find_first_of(",}", from);
  }
  return line.substr(from, to - from);
}

TEST(ServeRung, PickerMapsThresholds) {
  ServeOptions o;
  o.full_ms = 200;
  o.compact_ms = 50;
  o.list_ms = 5;
  EXPECT_EQ(pick_serve_rung(1000, o), ServeRung::kFull);
  EXPECT_EQ(pick_serve_rung(200, o), ServeRung::kFull);
  EXPECT_EQ(pick_serve_rung(199, o), ServeRung::kCompact);
  EXPECT_EQ(pick_serve_rung(50, o), ServeRung::kCompact);
  EXPECT_EQ(pick_serve_rung(49, o), ServeRung::kList);
  EXPECT_EQ(pick_serve_rung(5, o), ServeRung::kList);
  EXPECT_EQ(pick_serve_rung(4, o), ServeRung::kBound);
  EXPECT_EQ(pick_serve_rung(0, o), ServeRung::kBound);
  EXPECT_EQ(serve_rung_name(ServeRung::kFull), "");
  EXPECT_EQ(serve_rung_name(ServeRung::kCompact), "compact");
  EXPECT_EQ(serve_rung_name(ServeRung::kList), "list-schedule");
  EXPECT_EQ(serve_rung_name(ServeRung::kBound), "bound-only");
}

TEST(Serve, AnswersEveryLineInOrder) {
  SolveCache::global().clear();
  ServeOptions o;
  const ServeRun r = run(solve_line("a", kGraphA) + "\n" +
                             "not json at all\n" +
                             solve_line("b", kGraphC) + "\n",
                         o);
  ASSERT_EQ(r.responses.size(), 3u);
  EXPECT_EQ(field(r.responses[0], "id"), "a");
  EXPECT_EQ(field(r.responses[0], "status"), "ok");
  EXPECT_EQ(field(r.responses[0], "certified"), "true");
  EXPECT_EQ(field(r.responses[1], "status"), "error");
  EXPECT_EQ(field(r.responses[1], "code"), "CCS-E001");
  EXPECT_EQ(field(r.responses[2], "id"), "b");
  EXPECT_EQ(r.summary.answered, 3);
  EXPECT_EQ(r.summary.parse_errors, 1);
  EXPECT_EQ(r.summary.stop_cause, "eof");
}

TEST(Serve, SingleJobStreamIsByteDeterministic) {
  std::string input;
  input += solve_line("a", kGraphA) + "\n";
  input += "{\"op\":\"bogus\"}\n";
  input += solve_line("b", kGraphB) + "\n";
  input += solve_line("c", kGraphC) + "\n";
  input += "{\"op\":\"solve\",\"id\":\"d\"}\n";  // missing graph/arch
  ServeOptions o;
  o.jobs = 1;
  SolveCache::global().clear();
  const ServeRun first = run(input, o);
  SolveCache::global().clear();
  const ServeRun second = run(input, o);
  EXPECT_EQ(first.out, second.out);
  EXPECT_EQ(first.summary.answered, 5);
}

TEST(Serve, ExpiredDeadlineRejectedBeforeAnyWork) {
  ServeOptions o;
  const ServeRun r = run(
      solve_line("dead", kGraphA, ",\"deadline_ms\":-3") + "\n", o);
  ASSERT_EQ(r.responses.size(), 1u);
  EXPECT_EQ(field(r.responses[0], "status"), "rejected");
  EXPECT_EQ(field(r.responses[0], "code"), "CCS-E003");
  EXPECT_EQ(r.summary.deadline_rejects, 1);
  EXPECT_EQ(r.summary.admitted, 0);
}

TEST(Serve, DeadlineSpentWhileQueuedRejectsAtDequeue) {
  ServeOptions o;
  o.jobs = 1;
  // The sleep op holds the single worker far past the second request's
  // allowance, so it ages out in the queue.
  const ServeRun r =
      run("{\"op\":\"sleep\",\"id\":\"hog\",\"sleep_ms\":150}\n" +
              solve_line("late", kGraphA, ",\"deadline_ms\":30") + "\n",
          o);
  ASSERT_EQ(r.responses.size(), 2u);
  EXPECT_EQ(field(r.responses[0], "op"), "sleep");
  EXPECT_EQ(field(r.responses[1], "status"), "rejected");
  EXPECT_EQ(field(r.responses[1], "code"), "CCS-E003");
  EXPECT_EQ(r.summary.deadline_rejects, 1);
}

TEST(Serve, LadderDegradesWithRemainingAllowance) {
  // A manual clock that never advances makes the remaining allowance at
  // dequeue exactly the request's deadline_ms — the rung choice becomes a
  // pure function of the request, bit-for-bit reproducible.
  ManualBudgetClock clock;
  ServeOptions o;
  o.clock = &clock;
  o.full_ms = 200;
  o.compact_ms = 50;
  o.list_ms = 5;
  SolveCache::global().clear();
  SolveCache::global().set_enabled(false);  // no cross-request fast path
  std::string input;
  input += solve_line("full", kGraphA, ",\"deadline_ms\":500") + "\n";
  input += solve_line("compact", kGraphA,
                      ",\"deadline_ms\":100,\"mode\":\"portfolio\"") +
           "\n";
  input += solve_line("list", kGraphA, ",\"deadline_ms\":20") + "\n";
  input += solve_line("bound", kGraphA, ",\"deadline_ms\":3") + "\n";
  const ServeRun r = run(input, o);
  SolveCache::global().set_enabled(true);
  ASSERT_EQ(r.responses.size(), 4u);
  EXPECT_EQ(field(r.responses[0], "degraded"), "");
  EXPECT_EQ(field(r.responses[0], "status"), "ok");
  EXPECT_EQ(field(r.responses[1], "degraded"), "compact");
  EXPECT_EQ(field(r.responses[1], "status"), "ok");
  EXPECT_EQ(field(r.responses[2], "degraded"), "list-schedule");
  EXPECT_EQ(field(r.responses[2], "status"), "ok");
  EXPECT_EQ(field(r.responses[3], "degraded"), "bound-only");
  EXPECT_EQ(field(r.responses[3], "status"), "uncertified");
  EXPECT_NE(field(r.responses[3], "lower_bound"), "0");
  EXPECT_EQ(r.summary.degraded, 3);
}

TEST(Serve, ModuloRefusesPipelinedAndSpeeds) {
  SolveCache::global().clear();
  ServeOptions o;
  const ServeRun r = run(
      solve_line("pipelined", kGraphA,
                 ",\"mode\":\"modulo\",\"pipelined\":true") +
          "\n" +
          solve_line("speeds", kGraphA,
                     ",\"mode\":\"modulo\",\"speeds\":[1,2]") +
          "\n" + solve_line("plain", kGraphA, ",\"mode\":\"modulo\"") +
          "\n",
      o);
  ASSERT_EQ(r.responses.size(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(field(r.responses[i], "status"), "error") << r.responses[i];
    EXPECT_EQ(field(r.responses[i], "code"), "CCS-E001") << r.responses[i];
  }
  EXPECT_EQ(field(r.responses[2], "status"), "ok") << r.responses[2];
}

// `emit` returns the persistable artifacts on every rung that produces a
// schedule, not only the compacting ones: a start-up request and a request
// the ladder degrades to the list rung both come back with a graph and a
// schedule that parse and certify, with no retime lines (nothing retimed).
TEST(Serve, EmitWorksOnStartupAndListRungAnswers) {
  ManualBudgetClock clock;
  ServeOptions o;
  o.clock = &clock;
  o.full_ms = 200;
  o.compact_ms = 50;
  o.list_ms = 5;
  SolveCache::global().clear();
  SolveCache::global().set_enabled(false);  // both answers solved cold
  std::string input;
  input += solve_line("startup", kGraphA,
                      ",\"mode\":\"startup\",\"emit\":true") +
           "\n";
  input += solve_line("list", kGraphC, ",\"deadline_ms\":20,\"emit\":true") +
           "\n";
  const ServeRun r = run(input, o);
  SolveCache::global().set_enabled(true);
  ASSERT_EQ(r.responses.size(), 2u);
  EXPECT_EQ(field(r.responses[1], "degraded"), "list-schedule");

  const ParsedTrace parsed = parse_trace_jsonl(r.out);
  ASSERT_TRUE(parsed.issues.empty()) << r.out;
  ASSERT_EQ(parsed.events.size(), 2u);
  const Topology topo = parse_topology("mesh 2 1");
  const StoreAndForwardModel comm(topo);
  for (const TraceEvent& e : parsed.events) {
    std::string id;
    std::string status;
    std::string graph_text;
    std::string schedule_text;
    ASSERT_TRUE(e.string("id", id));
    ASSERT_TRUE(e.string("status", status));
    EXPECT_EQ(status, "ok") << id;
    ASSERT_TRUE(e.string("graph", graph_text)) << id;
    ASSERT_TRUE(e.string("schedule", schedule_text)) << id;
    EXPECT_EQ(schedule_text.find("retime"), std::string::npos) << id;
    const Csdfg g = parse_csdfg(graph_text);
    const ScheduleTable table = parse_schedule(g, schedule_text);
    DiagnosticBag bag;
    EXPECT_TRUE(certify_table(g, table, comm, id, bag)) << id;
  }
}

TEST(Serve, CacheFastPathBeatsTightDeadline) {
  ManualBudgetClock clock;
  ServeOptions o;
  o.clock = &clock;
  SolveCache::global().clear();
  // First request publishes the certified answer; the second's 2ms
  // allowance would only afford the bound-only rung, but the cache probe
  // returns the full certified schedule in microseconds.
  std::string input;
  input += solve_line("warm", kGraphA) + "\n";
  input += solve_line("tight", kGraphA, ",\"deadline_ms\":2") + "\n";
  const ServeRun r = run(input, o);
  ASSERT_EQ(r.responses.size(), 2u);
  EXPECT_EQ(field(r.responses[1], "status"), "ok");
  EXPECT_EQ(field(r.responses[1], "cache_hit"), "true");
  EXPECT_EQ(field(r.responses[1], "degraded"), "");
  EXPECT_EQ(field(r.responses[1], "certified"), "true");
  EXPECT_EQ(r.summary.cache_hits, 1);
}

TEST(Serve, FullQueueShedsWithStructuredOverload) {
  ServeOptions o;
  o.jobs = 1;
  o.queue_depth = 1;
  std::string input = "{\"op\":\"sleep\",\"id\":\"hog\",\"sleep_ms\":200}\n";
  input += solve_line("q1", kGraphA) + "\n";
  input += solve_line("q2", kGraphA) + "\n";
  input += solve_line("q3", kGraphA) + "\n";
  const ServeRun r = run(input, o);
  ASSERT_EQ(r.responses.size(), 4u);
  EXPECT_GE(r.summary.shed, 1);
  EXPECT_EQ(r.summary.answered, 4);
  int overloaded = 0;
  for (const std::string& line : r.responses)
    if (field(line, "status") == "overloaded") ++overloaded;
  EXPECT_EQ(overloaded, static_cast<int>(r.summary.shed));
}

TEST(Serve, ShutdownOpStopsAdmission) {
  ServeOptions o;
  std::string input = solve_line("a", kGraphA) + "\n";
  input += "{\"op\":\"shutdown\",\"id\":\"bye\"}\n";
  input += solve_line("never", kGraphA) + "\n";
  const ServeRun r = run(input, o);
  ASSERT_EQ(r.responses.size(), 2u);
  EXPECT_EQ(field(r.responses[1], "op"), "shutdown");
  EXPECT_EQ(r.summary.stop_cause, "shutdown-op");
  EXPECT_EQ(r.summary.lines, 2);
}

TEST(Serve, DrainDeadlinePreemptsAndRefuses) {
  ServeOptions o;
  o.jobs = 1;
  o.queue_depth = 8;
  o.drain_ms = 30;
  // EOF arrives with the worker asleep and two requests queued; the drain
  // allowance is far shorter than the sleep, so the sleeper is preempted
  // and the queued requests get structured draining refusals.
  std::string input = "{\"op\":\"sleep\",\"id\":\"hog\",\"sleep_ms\":500}\n";
  input += solve_line("q1", kGraphA) + "\n";
  input += solve_line("q2", kGraphA) + "\n";
  const ServeRun r = run(input, o);
  ASSERT_EQ(r.responses.size(), 3u);
  EXPECT_EQ(r.summary.answered, 3);
  EXPECT_GE(r.summary.drain_refusals, 1);
  EXPECT_EQ(field(r.responses[1], "status"), "rejected");
}

TEST(Serve, StatsOpReportsServiceAndCacheCounters) {
  SolveCache::global().clear();
  ServeOptions o;
  std::string input = solve_line("a", kGraphA) + "\n";
  input += solve_line("b", kGraphA) + "\n";
  input += "{\"op\":\"stats\",\"id\":\"st\"}\n";
  const ServeRun r = run(input, o);
  ASSERT_EQ(r.responses.size(), 3u);
  EXPECT_EQ(field(r.responses[2], "op"), "stats");
  EXPECT_EQ(field(r.responses[2], "cache_entries"), "1");
  EXPECT_EQ(field(r.responses[2], "serve_cache_hits"), "1");
}

// paper_example6 on mesh 2 1 reaches its lower bound: the portfolio stops
// itself ("preempted", gap 0) with no budget involved, so the answer is
// what an unbudgeted solve returns and is published for the next request.
TEST(Serve, AnswersThatReachTheirBoundArePublished) {
  SolveCache::global().clear();
  ServeOptions o;  // one worker: each answer is published before the next
  const std::string paper6 = serialize_csdfg(paper_example6());
  const char* renamed =  // relabeled, nodes and edges in another order
      "graph renamed\nnode f 1\nnode e 2\nnode d 1\nnode c 1\nnode b 2\n"
      "node a 1\nedge f e 1 1\nedge e f 0 1\nedge d f 0 2\nedge d a 3 3\n"
      "edge c e 0 1\nedge b e 0 2\nedge b d 0 1\nedge a e 0 1\n"
      "edge a c 0 1\nedge a b 0 1\n";
  const std::string portfolio = ",\"mode\":\"portfolio\"";
  std::string input;
  input += solve_line("cold", paper6.c_str(), portfolio) + "\n";
  input += solve_line("again", paper6.c_str(), portfolio) + "\n";
  input += solve_line("renamed", renamed, portfolio) + "\n";
  input += "{\"op\":\"stats\",\"id\":\"st\"}\n";
  const ServeRun r = run(input, o);
  ASSERT_EQ(r.responses.size(), 4u);
  EXPECT_EQ(field(r.responses[0], "cache_hit"), "false");
  EXPECT_EQ(field(r.responses[0], "stop_reason"), "preempted");
  EXPECT_EQ(field(r.responses[0], "gap"), "0");
  for (std::size_t i : {1u, 2u}) {
    EXPECT_EQ(field(r.responses[i], "cache_hit"), "true") << r.responses[i];
    EXPECT_EQ(field(r.responses[i], "length"),
              field(r.responses[0], "length"));
  }
  EXPECT_EQ(field(r.responses[3], "serve_cache_hits"), "2");
}

// A portfolio that also stops itself at its bound, but is drained mid-solve:
// a 3000-step self-loop task (bound 3000) beside a 1200-task chain, so the
// start-up schedule already meets the bound.  What keeps the request busy
// well past the 30 ms drain is the cache probe canonicalizing the long
// chain (about 90 ms in a Release build; canonical labeling is quadratic
// on a zero-delay chain), then the start-up list schedules, which walk
// every control step — not parsing it, which takes under a millisecond.
// The answer still reads "preempted" with gap 0, but the drain fired
// before solve() returned, so it is not published.
TEST(Serve, DrainPreemptedAnswersAreNotPublished) {
  SolveCache::global().clear();
  std::string slow = "graph slow\nnode big 3000\nedge big big 1 1\n";
  for (int i = 0; i < 1200; ++i) {
    slow += "node c" + std::to_string(i) + " 1\n";
    if (i > 0)
      slow += "edge c" + std::to_string(i - 1) + " c" + std::to_string(i) +
              " 0 1\n";
  }
  ServeOptions o;
  o.drain_ms = 30;
  const ServeRun r =
      run(solve_line("slow", slow.c_str(), ",\"mode\":\"portfolio\"") + "\n",
          o);
  ASSERT_EQ(r.responses.size(), 1u);
  EXPECT_EQ(field(r.responses[0], "status"), "ok") << r.responses[0];
  EXPECT_EQ(field(r.responses[0], "stop_reason"), "preempted");
  EXPECT_EQ(field(r.responses[0], "gap"), "0");
  EXPECT_EQ(SolveCache::global().stats().entries, 0u);
}

TEST(Serve, OversizedLineRefusedUnparsed) {
  ServeOptions o;
  o.max_line_bytes = 256;
  std::string huge = solve_line("big", kGraphA);
  huge.insert(huge.size() - 1, ",\"pad\":\"" + std::string(512, 'x') + "\"");
  const ServeRun r = run(huge + "\n", o);
  ASSERT_EQ(r.responses.size(), 1u);
  EXPECT_EQ(field(r.responses[0], "status"), "error");
  EXPECT_EQ(field(r.responses[0], "code"), "CCS-E001");
  EXPECT_NE(r.responses[0].find("cap"), std::string::npos);
}

// The acceptance soak: >= 1000 mixed requests through 4 workers with a
// deliberately tiny cache capacity (bounded memory), zero unanswered
// lines, and every response either a result, a degraded answer, or a
// structured refusal.  Under CCSCHED_SANITIZE=thread this doubles as the
// serve-loop data-race hammer.
TEST(ServeSoak, ThousandMixedRequestsAllAnswered) {
  SolveCache::global().clear();
  SolveCache::global().set_capacity(8);
  ServeOptions o;
  o.jobs = 4;
  o.queue_depth = 64;
  std::string input;
  int lines = 0;
  for (int i = 0; i < 250; ++i) {
    input += solve_line(std::string("s").append(std::to_string(i)),
                        i % 3 == 0 ? kGraphA : (i % 3 == 1 ? kGraphB
                                                           : kGraphC)) +
             "\n";
    input += solve_line(std::string("d").append(std::to_string(i)), kGraphA,
                        ",\"deadline_ms\":" +
                            std::to_string(i % 5 == 0 ? -1 : 40)) +
             "\n";
    input += "{\"op\":\"solve\",\"id\":\"junk" + std::to_string(i) +
             "\",\"graph\":\"graph oops\",\"arch\":\"mesh 2 1\"}\n";
    input += "{not json " + std::to_string(i) + "\n";
    lines += 4;
  }
  const ServeRun r = run(input, o);
  EXPECT_EQ(r.summary.lines, lines);
  EXPECT_EQ(r.summary.answered, lines);
  EXPECT_EQ(static_cast<int>(r.responses.size()), lines);
  for (const std::string& line : r.responses) {
    const std::string status = field(line, "status");
    EXPECT_TRUE(status == "ok" || status == "uncertified" ||
                status == "error" || status == "rejected" ||
                status == "overloaded")
        << line;
  }
  // The capped cache stayed at its bound no matter how many distinct
  // fingerprints flowed through.
  EXPECT_LE(SolveCache::global().stats().entries, 8u);
  SolveCache::global().set_capacity(SolveCache::kDefaultCapacity);
  SolveCache::global().clear();
}

/// Milliseconds since `start` on the real clock.
long long ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// A deadline bounds when the answer arrives, also on a 1k-node graph: the
// 3 ms request comes back on the bound-only rung and the 200 ms request on
// the compact rung.  Before any rung runs, serve parses the graph and
// fingerprints it for the cache probe, which no deadline can cut short; on
// this graph that alone outlasts 3 ms.  So each answer must arrive within
// 5x its deadline plus that reading time, measured here on the same build,
// which also scales the bound for sanitizer and unoptimized builds.
TEST(ServeScale, DeadlinesHoldOnAThousandNodeGraph) {
  const std::string text = serialize_csdfg(test_graphs::graph_of_size(1024));
  const auto read_start = std::chrono::steady_clock::now();
  (void)canonicalize(parse_csdfg(text));
  const long long read_ms = ms_since(read_start);
  ServeOptions o;
  o.full_ms = 1000;  // 200 ms always lands on the compact rung
  for (const auto& [deadline_ms, rung] :
       {std::pair<long long, std::string>{3, "bound-only"},
        std::pair<long long, std::string>{200, "compact"}}) {
    SolveCache::global().clear();
    const std::string line =
        "{\"op\":\"solve\",\"id\":\"big\",\"graph\":\"" + jesc(text) +
        "\",\"arch\":\"mesh 4 2\",\"deadline_ms\":" +
        std::to_string(deadline_ms) + "}\n";
    const auto start = std::chrono::steady_clock::now();
    const ServeRun r = run(line, o);
    const long long elapsed_ms = ms_since(start);
    ASSERT_EQ(r.responses.size(), 1u) << r.err;
    EXPECT_EQ(field(r.responses[0], "degraded"), rung) << r.responses[0];
    EXPECT_NE(field(r.responses[0], "lower_bound"), "0") << r.responses[0];
    EXPECT_LE(elapsed_ms, 5 * (deadline_ms + read_ms))
        << rung << ", reading took " << read_ms << " ms";
  }
}

TEST(ServeCodec, RendersDeterministicResponseLines) {
  ServeResponseFields f;
  f.id = "x";
  f.seq = 7;
  f.status = "ok";
  f.has_result = true;
  f.certified = true;
  f.best_length = 4;
  f.lower_bound = 4;
  f.gap = 0;
  f.optimal = true;
  f.diagnostics.emplace_back("CCS-S001", "fine");
  const std::string line = render_serve_response(f);
  EXPECT_EQ(line,
            "{\"id\":\"x\",\"seq\":7,\"status\":\"ok\",\"degraded\":\"\","
            "\"cache_hit\":false,\"certified\":true,\"length\":4,"
            "\"startup\":0,\"lower_bound\":4,\"gap\":0,\"optimal\":true,"
            "\"diagnostics\":[{\"code\":\"CCS-S001\",\"message\":\"fine\"}]"
            "}");
}

TEST(ServeCodec, ParsesAndValidatesRequests) {
  const ServeParse ok = parse_serve_request(
      "{\"op\":\"solve\",\"graph\":\"g\",\"arch\":\"mesh 2 1\","
      "\"deadline_ms\":250,\"mode\":\"portfolio\",\"jobs\":2}",
      4096);
  ASSERT_TRUE(ok.ok);
  EXPECT_TRUE(ok.request.has_deadline);
  EXPECT_EQ(ok.request.deadline_ms, 250);
  EXPECT_EQ(ok.request.mode, "portfolio");
  EXPECT_EQ(ok.request.jobs, 2);

  EXPECT_TRUE(parse_serve_request("   ", 4096).blank);
  EXPECT_FALSE(parse_serve_request("{\"op\":\"evil\"}", 4096).ok);
  EXPECT_FALSE(parse_serve_request(
                   "{\"op\":\"solve\",\"graph\":\"g\",\"arch\":\"m\","
                   "\"deadline_ms\":99999999999999}",
                   4096)
                   .ok);
  EXPECT_FALSE(parse_serve_request(
                   "{\"op\":\"solve\",\"graph\":\"g\",\"arch\":\"m\","
                   "\"deadline_ms\":1.5}",
                   4096)
                   .ok);
  EXPECT_FALSE(
      parse_serve_request("{\"op\":\"solve\",\"arch\":\"m\"}", 4096).ok);
}

}  // namespace
}  // namespace ccs
