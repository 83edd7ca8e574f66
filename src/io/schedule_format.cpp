#include "io/schedule_format.hpp"

#include <optional>
#include <vector>
#include <sstream>

#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/lines.hpp"

namespace ccs {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw ParseError(line, what);  // Structured: what() renders "line N: ...".
}

/// Caps on declared sizes: a schedule's control steps materialize as table
/// rows (ScheduleTable::ensure_rows), so a hostile `schedule 2000000000 2`
/// or `place A 1 2000000000` would be an allocation bomb, not a parse
/// error.  Generous for real workloads (the paper's tables are < 100
/// steps on < 20 PEs); the step cap is core/schedule.hpp's
/// kMaxScheduleLength.
constexpr long long kMaxSchedulePes = 65'536;

}  // namespace

std::string serialize_schedule(const Csdfg& g, const ScheduleTable& table,
                               const Retiming* retiming) {
  CCS_EXPECTS(g.node_count() == table.node_count());
  CCS_EXPECTS(retiming == nullptr || retiming->size() == g.node_count());
  std::ostringstream os;
  os << "schedule " << table.length() << ' ' << table.num_pes();
  if (table.pipelined_pes()) os << " pipelined";
  os << '\n';
  bool heterogeneous = false;
  for (PeId p = 0; p < table.num_pes(); ++p)
    heterogeneous |= table.pe_speed(p) != 1;
  if (heterogeneous) {
    os << "speeds";
    for (PeId p = 0; p < table.num_pes(); ++p) os << ' ' << table.pe_speed(p);
    os << '\n';
  }
  for (const auto& [v, p] : table.placements())
    os << "place " << g.node(v).name << ' ' << p.pe + 1 << ' ' << p.cb
       << '\n';
  if (retiming != nullptr)
    for (NodeId v = 0; v < g.node_count(); ++v)
      if (retiming->of(v) != 0)
        os << "retime " << g.node(v).name << ' ' << retiming->of(v) << '\n';
  return os.str();
}

ScheduleTable parse_schedule(const Csdfg& g, std::istream& in) {
  std::optional<ScheduleTable> table;
  int declared_length = 0;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    normalize_parsed_line(line, lineno == 1);
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword)) continue;

    if (keyword == "schedule") {
      if (table) fail(lineno, "duplicate schedule directive");
      int length = 0;
      std::size_t pes = 0;
      if (!(ls >> length >> pes) || length < 0 || pes < 1)
        fail(lineno, "schedule: expected <length>=0> <pes>=1> [pipelined]");
      if (length > kMaxScheduleLength ||
          pes > static_cast<std::size_t>(kMaxSchedulePes))
        fail(lineno, "schedule dimensions exceed the supported bounds (" +
                         std::to_string(kMaxScheduleLength) + " steps, " +
                         std::to_string(kMaxSchedulePes) + " PEs)");
      std::string flag;
      const bool pipelined = (ls >> flag) && flag == "pipelined";
      table.emplace(g, pes, pipelined);
      declared_length = length;
    } else if (keyword == "speeds") {
      if (!table) fail(lineno, "speeds before schedule directive");
      if (table->placed_count() != 0)
        fail(lineno, "speeds must precede every place directive");
      const bool pipelined = table->pipelined_pes();
      std::vector<int> speeds;
      int s = 0;
      while (ls >> s) {
        if (s < 1) fail(lineno, "speed factors must be >= 1");
        speeds.push_back(s);
      }
      if (speeds.size() != table->num_pes())
        fail(lineno, "speeds: expected one factor per processor");
      const int length = declared_length;
      table.emplace(g, std::move(speeds), pipelined);
      declared_length = length;
    } else if (keyword == "place") {
      if (!table) fail(lineno, "place before schedule directive");
      std::string name;
      std::size_t pe = 0;
      int cb = 0;
      if (!(ls >> name >> pe >> cb))
        fail(lineno, "place: expected <task> <pe> <cb>");
      if (pe < 1 || pe > table->num_pes())
        fail(lineno, "pe " + std::to_string(pe) + " out of range");
      if (cb < 1) fail(lineno, "cb must be >= 1");
      if (cb > kMaxScheduleLength)
        fail(lineno, "cb " + std::to_string(cb) + " exceeds the " +
                         std::to_string(kMaxScheduleLength) + "-step limit");
      NodeId v = 0;
      try {
        v = g.node_by_name(name);
      } catch (const GraphError& e) {
        fail(lineno, e.what());
      }
      if (table->is_placed(v))
        fail(lineno, "task '" + name + "' placed twice");
      const int span = table->pipelined_pes() ? 1 : table->time_on(v, pe - 1);
      if (!table->is_free(pe - 1, cb, cb + span - 1))
        fail(lineno, "slot conflict placing '" + name + "'");
      table->place(v, pe - 1, cb);
    } else if (keyword == "retime") {
      // Provenance only: validated, then discarded (the certifier reads
      // retime lines through parse_raw_schedule).
      std::string name;
      long long r = 0;
      if (!(ls >> name >> r)) fail(lineno, "retime: expected <task> <r>");
      try {
        (void)g.node_by_name(name);
      } catch (const GraphError& e) {
        fail(lineno, e.what());
      }
    } else {
      fail(lineno, "unknown directive '" + keyword + "'");
    }
  }
  if (!table) throw ParseError("missing schedule directive");
  if (declared_length < table->occupied_length())
    throw ParseError("declared length " + std::to_string(declared_length) +
                     " shorter than the occupied span " +
                     std::to_string(table->occupied_length()));
  table->set_length(declared_length);
  return std::move(*table);
}

ScheduleTable parse_schedule(const Csdfg& g, const std::string& text) {
  std::istringstream in(text);
  return parse_schedule(g, in);
}

RawSchedule parse_raw_schedule(const std::string& text,
                               const std::string& filename,
                               DiagnosticBag& bag) {
  RawSchedule raw;
  raw.file = filename;
  const auto syntax = [&](std::size_t line, std::string message) {
    bag.add("CCS-S001", SourceSpan{filename, line}, std::move(message));
  };

  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    normalize_parsed_line(line, lineno == 1);
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword)) continue;

    if (keyword == "schedule") {
      if (raw.has_directive) {
        syntax(lineno, "duplicate schedule directive (first on line " +
                           std::to_string(raw.schedule_line) + ")");
        continue;
      }
      int length = 0;
      long long pes = 0;
      if (!(ls >> length >> pes) || length < 0 || pes < 1) {
        syntax(lineno, "schedule: expected <length>=0> <pes>=1> [pipelined]");
        continue;
      }
      if (length > kMaxScheduleLength || pes > kMaxSchedulePes) {
        syntax(lineno, "schedule dimensions exceed the supported bounds (" +
                           std::to_string(kMaxScheduleLength) + " steps, " +
                           std::to_string(kMaxSchedulePes) + " PEs)");
        continue;
      }
      std::string flag;
      raw.has_directive = true;
      raw.schedule_line = lineno;
      raw.length = length;
      raw.num_pes = static_cast<std::size_t>(pes);
      raw.pipelined = (ls >> flag) && flag == "pipelined";
    } else if (keyword == "speeds") {
      std::vector<int> speeds;
      int s = 0;
      bool ok = true;
      while (ls >> s) {
        if (s < 1) {
          syntax(lineno, "speeds: factors must be >= 1");
          ok = false;
          break;
        }
        speeds.push_back(s);
      }
      if (!ok) continue;
      if (!raw.has_directive || speeds.size() != raw.num_pes) {
        syntax(lineno,
               "speeds: expected one factor per processor, after the "
               "schedule directive");
        continue;
      }
      raw.speeds = std::move(speeds);
      raw.speeds_line = lineno;
    } else if (keyword == "place") {
      RawPlacement p;
      long long pe = 0;
      if (!(ls >> p.task >> pe >> p.cb)) {
        syntax(lineno, "place: expected <task> <pe> <cb>");
        continue;
      }
      if (pe < 1 || pe > kMaxSchedulePes) {
        syntax(lineno, "place: pe must be in [1, " +
                           std::to_string(kMaxSchedulePes) + "]");
        continue;
      }
      if (p.cb > kMaxScheduleLength) {
        syntax(lineno, "place: cb " + std::to_string(p.cb) + " exceeds the " +
                           std::to_string(kMaxScheduleLength) + "-step limit");
        continue;
      }
      p.pe = static_cast<std::size_t>(pe);
      p.line = lineno;
      raw.places.push_back(std::move(p));
    } else if (keyword == "retime") {
      RawRetime r;
      if (!(ls >> r.task >> r.r)) {
        syntax(lineno, "retime: expected <task> <r>");
        continue;
      }
      r.line = lineno;
      raw.retimes.push_back(std::move(r));
    } else {
      syntax(lineno, "unknown directive '" + keyword + "'");
    }
  }
  if (!raw.has_directive)
    syntax(0, "missing schedule directive");
  return raw;
}

}  // namespace ccs
