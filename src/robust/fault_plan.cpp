#include "robust/fault_plan.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/error.hpp"
#include "util/lines.hpp"
#include "util/numbers.hpp"

namespace ccs {

namespace {

/// Caps accepted by the spec parser: hostile inputs must not be able to
/// drive downstream loops or allocations to absurd sizes.
constexpr long long kMaxIteration = 1'000'000'000'000LL;
constexpr int kMaxJitter = 1'000'000;

/// Rejects trailing junk after a fully parsed directive.
bool line_exhausted(Tokens rest, std::string& problem) {
  if (rest.empty()) return true;
  problem = "trailing junk '" + std::string(rest.front()) + "'";
  return false;
}

/// Parses the optional `@iter N` suffix, the rest of its line; returns
/// false (with a message) on junk.
bool parse_iter_clause(Tokens rest, long long& iteration,
                       std::string& problem) {
  iteration = 0;
  if (rest.empty()) return true;  // optional clause absent
  if (rest[0] != "@iter") {
    problem = "expected '@iter <n>', got '" + std::string(rest[0]) + "'";
    return false;
  }
  if (rest.size() < 2 || !parse_whole(rest[1], iteration) || iteration < 0 ||
      iteration > kMaxIteration) {
    problem = "@iter expects an integer in [0, 1e12]";
    return false;
  }
  return line_exhausted(rest.subspan(2), problem);
}

/// Resolves "p<index>" to a PE of `topo`; npos-like failure via bool.
bool resolve_pe(const std::string& name, const Topology& topo, PeId& out) {
  if (name.size() < 2 || name[0] != 'p') return false;
  long long v = 0;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + (name[i] - '0');
    if (v > static_cast<long long>(topo.size())) return false;
  }
  if (v >= static_cast<long long>(topo.size())) return false;
  out = static_cast<PeId>(v);
  return true;
}

}  // namespace

FaultSpec parse_fault_spec(std::string_view text,
                           const std::string& filename, DiagnosticBag& bag) {
  FaultSpec spec;
  spec.file = filename;
  const auto syntax = [&](std::size_t line, std::string message) {
    bag.add("CCS-F001", SourceSpan{filename, line}, std::move(message));
  };

  for_each_line(text, [&](std::size_t lineno, Tokens t) {
    const std::string_view keyword = t[0];
    std::string problem;
    if (keyword == "fail") {
      if (t.size() < 2) {
        syntax(lineno, "fail: expected <pe> [@iter <n>]");
        return;
      }
      RawPeFault f;
      f.pe = std::string(t[1]);
      f.line = lineno;
      if (!parse_iter_clause(t.subspan(2), f.iteration, problem)) {
        syntax(lineno, "fail: " + problem);
        return;
      }
      spec.pe_faults.push_back(std::move(f));
    } else if (keyword == "link") {
      if (t.size() < 3) {
        syntax(lineno, "link: expected <peA> <peB> [@iter <n>]");
        return;
      }
      RawLinkFault f;
      f.a = std::string(t[1]);
      f.b = std::string(t[2]);
      f.line = lineno;
      if (!parse_iter_clause(t.subspan(3), f.iteration, problem)) {
        syntax(lineno, "link: " + problem);
        return;
      }
      spec.link_faults.push_back(std::move(f));
    } else if (keyword == "jitter") {
      if (t.size() < 3) {
        syntax(lineno, "jitter: expected <task> <+n|-n>");
        return;
      }
      const std::string_view delta = t[2];
      if (delta[0] != '+' && delta[0] != '-') {
        syntax(lineno, "jitter: delta must carry an explicit sign, got '" +
                           std::string(delta) + "'");
        return;
      }
      // The sign is checked above; the magnitude is one whole number.
      unsigned long long magnitude = 0;
      if (!parse_whole(delta.substr(1), magnitude) ||
          magnitude > static_cast<unsigned long long>(kMaxJitter)) {
        syntax(lineno, "jitter: bad delta '" + std::string(delta) + "'");
        return;
      }
      if (!line_exhausted(t.subspan(3), problem)) {
        syntax(lineno, "jitter: " + problem);
        return;
      }
      spec.jitters.push_back(RawJitter{
          std::string(t[1]),
          static_cast<int>(magnitude) * (delta[0] == '-' ? -1 : 1), lineno});
    } else {
      syntax(lineno, "unknown directive '" + std::string(keyword) +
                         "' (expected fail, link, or jitter)");
    }
  });
  return spec;
}

bool FaultPlan::pe_dead(PeId pe, long long iter) const {
  for (const PeFault& f : pe_faults)
    if (f.pe == pe && iter >= f.iteration) return true;
  return false;
}

bool FaultPlan::link_dead(PeId a, PeId b, long long iter) const {
  for (const LinkFault& f : link_faults) {
    const bool match = (f.a == a && f.b == b) || (f.a == b && f.b == a);
    if (match && iter >= f.iteration) return true;
  }
  return false;
}

int FaultPlan::jitter_of(NodeId node) const {
  int delta = 0;
  for (const JitterFault& j : jitters)
    if (j.node == node) delta += j.delta;
  return delta;
}

std::vector<PeId> FaultPlan::dead_pes() const {
  std::set<PeId> dead;
  for (const PeFault& f : pe_faults) dead.insert(f.pe);
  return {dead.begin(), dead.end()};
}

std::vector<std::pair<PeId, PeId>> FaultPlan::dead_links() const {
  std::set<std::pair<PeId, PeId>> dead;
  for (const LinkFault& f : link_faults)
    dead.insert({std::min(f.a, f.b), std::max(f.a, f.b)});
  return {dead.begin(), dead.end()};
}

FaultPlan bind_fault_spec(const FaultSpec& spec, const Csdfg& g,
                          const Topology& topo, DiagnosticBag& bag) {
  FaultPlan plan;
  const auto target = [&](std::size_t line, std::string message) {
    bag.add("CCS-F002", SourceSpan{spec.file, line}, std::move(message));
  };

  for (const RawPeFault& f : spec.pe_faults) {
    PeId pe = 0;
    if (!resolve_pe(f.pe, topo, pe)) {
      target(f.line, "fail: '" + f.pe + "' does not name a PE of " +
                         topo.name() + " (use p0..p" +
                         std::to_string(topo.size() - 1) + ")");
      continue;
    }
    plan.pe_faults.push_back({pe, f.iteration});
  }

  for (const RawLinkFault& f : spec.link_faults) {
    PeId a = 0, b = 0;
    if (!resolve_pe(f.a, topo, a) || !resolve_pe(f.b, topo, b)) {
      target(f.line, "link: endpoints '" + f.a + "' '" + f.b +
                         "' must name PEs of " + topo.name());
      continue;
    }
    bool linked = false;
    for (PeId nb : topo.neighbors(a)) linked |= nb == b;
    if (topo.directed())
      for (PeId nb : topo.neighbors(b)) linked |= nb == a;
    if (!linked) {
      std::ostringstream os;
      os << "link: (" << f.a << "," << f.b << ") is not a link of "
         << topo.name();
      target(f.line, os.str());
      continue;
    }
    plan.link_faults.push_back({a, b, f.iteration});
  }

  for (const RawJitter& j : spec.jitters) {
    NodeId v = 0;
    try {
      v = g.node_by_name(j.task);
    } catch (const GraphError& e) {
      target(j.line, std::string("jitter: ") + e.what());
      continue;
    }
    plan.jitters.push_back({v, j.delta});
  }
  return plan;
}

std::string describe_fault_plan(const FaultPlan& plan, const Csdfg& g) {
  std::ostringstream os;
  for (const PeFault& f : plan.pe_faults)
    os << "fail p" << f.pe << " @iter " << f.iteration << '\n';
  for (const LinkFault& f : plan.link_faults)
    os << "link p" << f.a << " p" << f.b << " @iter " << f.iteration << '\n';
  for (const JitterFault& j : plan.jitters)
    os << "jitter " << g.node(j.node).name << ' '
       << (j.delta >= 0 ? "+" : "") << j.delta << '\n';
  return os.str();
}

}  // namespace ccs
