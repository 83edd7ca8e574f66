#include "io/schedule_format.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "analysis/certify.hpp"
#include "util/contracts.hpp"
#include "util/lines.hpp"
#include "util/numbers.hpp"

namespace ccs {

namespace {

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

RawSchedule parse_raw_schedule(std::string_view text,
                               const std::string& filename,
                               DiagnosticBag& bag) {
  RawSchedule raw;
  raw.file = filename;
  const auto syntax = [&](std::size_t line, std::string message) {
    bag.add("CCS-S001", SourceSpan{filename, line}, std::move(message));
  };

  for_each_line(text, [&](std::size_t lineno, Tokens t) {
    const std::string_view keyword = t[0];
    if (keyword == "schedule") {
      if (raw.has_directive) {
        syntax(lineno, "duplicate schedule directive (first on line " +
                           std::to_string(raw.schedule_line) + ")");
        return;
      }
      int length = 0;
      long long pes = 0;
      if (t.size() < 3 || t.size() > 4 || !parse_whole(t[1], length) ||
          !parse_whole(t[2], pes) || length < 0 || pes < 1 ||
          (t.size() == 4 && t[3] != "pipelined")) {
        syntax(lineno, "schedule: expected <length>=0> <pes>=1> [pipelined]");
        return;
      }
      if (length > kMaxScheduleLength || pes > kMaxSchedulePes) {
        syntax(lineno, "schedule dimensions exceed the supported bounds (" +
                           std::to_string(kMaxScheduleLength) + " steps, " +
                           std::to_string(kMaxSchedulePes) + " PEs)");
        return;
      }
      raw.has_directive = true;
      raw.schedule_line = lineno;
      raw.length = length;
      raw.num_pes = static_cast<std::size_t>(pes);
      raw.pipelined = t.size() == 4;
    } else if (keyword != "speeds" && keyword != "place" &&
               keyword != "retime") {
      syntax(lineno, "unknown directive '" + std::string(keyword) + "'");
    } else if (!raw.has_directive) {
      syntax(lineno, std::string(keyword) + " before schedule directive");
    } else if (keyword == "speeds") {
      if (raw.speeds_line != 0) {
        syntax(lineno, "duplicate speeds directive (first on line " +
                           std::to_string(raw.speeds_line) + ")");
        return;
      }
      if (!raw.places.empty()) {
        syntax(lineno, "speeds must precede every place directive");
        return;
      }
      std::vector<int> speeds;
      for (const std::string_view token : t.subspan(1)) {
        int s = 0;
        if (!parse_whole(token, s)) break;
        if (s < 1) {
          syntax(lineno, "speeds: factors must be >= 1");
          return;
        }
        speeds.push_back(s);
      }
      if (speeds.size() != t.size() - 1 || speeds.size() != raw.num_pes) {
        syntax(lineno, "speeds: expected one factor per processor");
        return;
      }
      raw.speeds = std::move(speeds);
      raw.speeds_line = lineno;
    } else if (keyword == "place") {
      long long pe = 0;
      int cb = 0;
      if (t.size() != 4 || !parse_whole(t[2], pe) || !parse_whole(t[3], cb)) {
        syntax(lineno, "place: expected <task> <pe> <cb>");
        return;
      }
      if (pe < 1 || pe > kMaxSchedulePes) {
        syntax(lineno, "place: pe must be in [1, " +
                           std::to_string(kMaxSchedulePes) + "]");
        return;
      }
      if (cb > kMaxScheduleLength) {
        syntax(lineno, "place: cb " + std::to_string(cb) + " exceeds the " +
                           std::to_string(kMaxScheduleLength) + "-step limit");
        return;
      }
      raw.places.push_back(RawPlacement{
          std::string(t[1]), static_cast<std::size_t>(pe), cb, lineno});
    } else {
      // 32 bits are ample (a run retimes a task at most once per pass) and
      // keep the certifier's d(e) - r(u) + r(v) far from overflow.
      int r = 0;
      if (t.size() != 3 || !parse_whole(t[2], r)) {
        syntax(lineno, "retime: expected <task> <r>");
        return;
      }
      raw.retimes.push_back(RawRetime{std::string(t[1]), r, lineno});
    }
  });
  if (!raw.has_directive)
    syntax(0, "missing schedule directive");
  return raw;
}

ScheduleTable parse_schedule(const Csdfg& g, std::string_view text) {
  DiagnosticBag bag;
  const RawSchedule raw = parse_raw_schedule(text, "<schedule>", bag);
  const ResolvedSchedule resolved = resolve_schedule(g, raw, bag);
  if (!raw.has_directive) throw_first_error(bag);
  const auto finding = [&](std::size_t line, std::string message) {
    bag.add("CCS-S001", SourceSpan{raw.file, line}, std::move(message));
  };

  ScheduleTable table = raw.speeds.empty()
                            ? ScheduleTable(g, raw.num_pes, raw.pipelined)
                            : ScheduleTable(g, raw.speeds, raw.pipelined);
  long long occupied = 0;
  for (const ResolvedPlacement& p : resolved.places) {
    if (p.cb < 1) {
      finding(p.line, "cb must be >= 1");
      continue;
    }
    const long long ce =
        p.cb + static_cast<long long>(g.node(p.v).time) * table.pe_speed(p.pe) -
        1;
    occupied = std::max(occupied, ce);
    // A task past the declared length is reported once, as the length
    // below; placing it anyway would materialize rows no table may have.
    if (ce > raw.length) continue;
    const int last = table.pipelined_pes() ? p.cb : static_cast<int>(ce);
    if (!table.is_free(p.pe, p.cb, last)) {
      finding(p.line, "slot conflict placing '" + g.node(p.v).name + "'");
      continue;
    }
    table.place(p.v, p.pe, p.cb);
  }
  if (occupied > raw.length)
    finding(raw.schedule_line,
            "declared length " + std::to_string(raw.length) +
                " shorter than the occupied span " + std::to_string(occupied));
  throw_first_error(bag);
  table.set_length(raw.length);
  return table;
}

}  // namespace ccs
