#include "io/serve_codec.hpp"

#include <algorithm>
#include <sstream>

#include "obs/json.hpp"
#include "obs/trace_reader.hpp"
#include "util/numbers.hpp"

namespace ccs {

namespace {

ServeParse fail(std::string message) {
  ServeParse p;
  p.code = "CCS-E001";
  p.message = std::move(message);
  return p;
}

bool is_blank(std::string_view line) {
  for (const char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

/// Field as text whatever its scalar kind (ids may arrive as numbers).
bool scalar_text(const TraceEvent& e, std::string_view key,
                 std::string& out) {
  const TraceField* f = e.find(key);
  if (f == nullptr || f->kind == TraceField::Kind::kArray) return false;
  out = f->text;
  return true;
}

/// Reads an optional integral field with a [lo, hi] validity range.
/// Returns false (with a message) on a non-integral or out-of-range
/// value; absent fields leave `out` untouched and succeed.
bool read_int(const TraceEvent& e, std::string_view key, long long lo,
              long long hi, long long& out, bool& present,
              std::string& error) {
  const TraceField* f = e.find(key);
  present = f != nullptr;
  if (f == nullptr) return true;
  long long v = 0;
  if (!e.number(key, v)) {
    error = std::string(key) + " must be an integer";
    return false;
  }
  if (v < lo || v > hi) {
    std::ostringstream os;
    os << key << " out of range: " << f->text << " (allowed " << lo << ".."
       << hi << ")";
    error = os.str();
    return false;
  }
  out = v;
  return true;
}

bool read_bool(const TraceEvent& e, std::string_view key, bool& out,
               std::string& error) {
  const TraceField* f = e.find(key);
  if (f == nullptr) return true;
  if (f->kind != TraceField::Kind::kBool) {
    error = std::string(key) + " must be true or false";
    return false;
  }
  out = f->text == "true";
  return true;
}

/// Parses a canonical "[a,b,...]" number-array text into ints.
bool read_speeds(const TraceEvent& e, std::vector<int>& out,
                 std::string& error) {
  const TraceField* f = e.find("speeds");
  if (f == nullptr) return true;
  if (f->kind != TraceField::Kind::kArray) {
    error = "speeds must be an array of integers";
    return false;
  }
  std::string_view body = f->text;
  if (body.size() >= 2) body = body.substr(1, body.size() - 2);
  for (std::size_t at = 0; at < body.size();) {
    const std::size_t comma = std::min(body.find(',', at), body.size());
    int s = 0;
    if (!parse_whole(body.substr(at, comma - at), s) || s < 1 ||
        s > 1'000'000) {
      error = "speeds entries must be integers >= 1";
      return false;
    }
    out.push_back(s);
    at = comma + 1;
  }
  return true;
}

}  // namespace

ServeParse parse_serve_request(std::string_view line, std::size_t max_bytes) {
  ServeParse parse;
  if (is_blank(line)) {
    parse.blank = true;
    return parse;
  }
  if (max_bytes > 0 && line.size() > max_bytes) {
    std::ostringstream os;
    os << "request line of " << line.size() << " bytes exceeds the "
       << max_bytes << "-byte cap";
    return fail(os.str());
  }
  const ParsedTrace scanned = parse_trace_jsonl(line);
  if (!scanned.issues.empty())
    return fail("request is not one flat JSON object: " +
                scanned.issues.front().message);
  if (scanned.events.size() != 1)
    return fail("expected exactly one JSON object on the line");
  const TraceEvent& e = scanned.events.front();

  ServeRequest& req = parse.request;
  (void)scalar_text(e, "id", req.id);
  std::string op;
  if (scalar_text(e, "op", op)) req.op = op;
  if (req.op != "solve" && req.op != "shutdown" && req.op != "stats" &&
      req.op != "sleep")
    return fail("unknown op '" + req.op + "'");

  std::string error;
  bool present = false;
  long long v = 0;
  if (!read_int(e, "deadline_ms", -kMaxServeDeadlineMs, kMaxServeDeadlineMs,
                v, parse.request.has_deadline, error))
    return fail(error);
  if (parse.request.has_deadline) req.deadline_ms = v;
  if (!read_int(e, "sleep_ms", 0, kMaxServeDeadlineMs, v, present, error))
    return fail(error);
  if (present) req.sleep_ms = v > 1000 ? 1000 : v;  // documented cap

  if (req.op != "solve") return parse.ok = true, parse;

  (void)e.string("graph", req.graph);
  (void)e.string("arch", req.arch);
  if (req.graph.empty()) return fail("solve requests need a \"graph\" field");
  if (req.arch.empty()) return fail("solve requests need an \"arch\" field");
  std::string mode;
  if (scalar_text(e, "mode", mode)) req.mode = mode;
  if (req.mode != "startup" && req.mode != "schedule" &&
      req.mode != "modulo" && req.mode != "portfolio")
    return fail("mode must be startup, schedule, modulo, or portfolio");
  std::string policy;
  if (scalar_text(e, "policy", policy)) req.policy = policy;
  if (req.policy != "relax" && req.policy != "strict")
    return fail("policy must be relax or strict");

  if (!read_int(e, "passes", 0, 1'000'000, v, present, error))
    return fail(error);
  if (present) req.passes = static_cast<int>(v);
  if (!read_int(e, "jobs", 1, 256, v, present, error)) return fail(error);
  if (present) req.jobs = static_cast<int>(v);
  if (!read_int(e, "attempts", 0, 4096, v, present, error))
    return fail(error);
  if (present) req.attempts = static_cast<int>(v);
  if (!read_int(e, "seed", 0, (1LL << 62), v, present, error))
    return fail(error);
  if (present) req.seed = static_cast<unsigned long long>(v);
  if (!read_bool(e, "pipelined", req.pipelined, error)) return fail(error);
  if (!read_bool(e, "certify", req.certify, error)) return fail(error);
  if (!read_bool(e, "emit", req.emit, error)) return fail(error);
  if (!read_speeds(e, req.speeds, error)) return fail(error);

  parse.ok = true;
  return parse;
}

std::string render_serve_response(const ServeResponseFields& f) {
  JsonWriter w;
  w.field("id", f.id).field("seq", f.seq).field("status", f.status);
  if (!f.op.empty()) w.field("op", f.op);
  if (!f.code.empty()) w.field("code", f.code);
  if (!f.message.empty()) w.field("message", f.message);
  w.field("degraded", f.degraded);
  if (f.has_result) {
    w.field("cache_hit", f.cache_hit)
        .field("certified", f.certified)
        .field("length", f.best_length)
        .field("startup", f.startup_length)
        .field("lower_bound", f.lower_bound)
        .field("gap", f.gap)
        .field("optimal", f.optimal);
    if (!f.stop_reason.empty()) w.field("stop_reason", f.stop_reason);
    if (!f.fingerprint.empty()) w.field("fingerprint", f.fingerprint);
  }
  for (const auto& [key, value] : f.counters) w.field(key, value);
  if (!f.diagnostics.empty()) {
    std::ostringstream os;
    os << '[';
    bool first = true;
    for (const auto& [code, message] : f.diagnostics) {
      if (!first) os << ',';
      first = false;
      os << "{\"code\":\"" << json_escape(code) << "\",\"message\":\""
         << json_escape(message) << "\"}";
    }
    os << ']';
    w.raw_field("diagnostics", os.str());
  }
  if (!f.schedule_text.empty()) w.field("schedule", f.schedule_text);
  if (!f.graph_text.empty()) w.field("graph", f.graph_text);
  return w.close();
}

}  // namespace ccs
