#include "check.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>

namespace perfbench {

Machine machine_from_links(
    std::size_t pes,
    const std::vector<std::pair<std::size_t, std::size_t>>& links,
    bool directed) {
  std::vector<std::vector<std::size_t>> adj(pes);
  for (const auto& [a, b] : links) {
    adj[a].push_back(b);
    if (!directed) adj[b].push_back(a);
  }
  Machine m;
  m.pes = pes;
  m.hops.assign(pes, std::vector<int>(pes, -1));
  for (std::size_t src = 0; src < pes; ++src) {
    std::deque<std::size_t> frontier{src};
    m.hops[src][src] = 0;
    while (!frontier.empty()) {
      const std::size_t at = frontier.front();
      frontier.pop_front();
      for (const std::size_t next : adj[at]) {
        if (m.hops[src][next] >= 0) continue;
        m.hops[src][next] = m.hops[src][at] + 1;
        frontier.push_back(next);
      }
    }
  }
  return m;
}

namespace {

std::map<std::string, std::size_t, std::less<>> names_of(
    const ccs::Csdfg& g) {
  std::map<std::string, std::size_t, std::less<>> names;
  for (std::size_t v = 0; v < g.node_count(); ++v) names[g.node(v).name] = v;
  return names;
}

/// The whitespace-separated words of `line`, with any `#` comment cut.
std::vector<std::string> words(std::string_view line) {
  if (const auto hash = line.find('#'); hash != std::string_view::npos)
    line = line.substr(0, hash);
  std::vector<std::string> out;
  std::istringstream in{std::string(line)};
  std::string w;
  while (in >> w) out.push_back(w);
  return out;
}

bool to_ll(const std::string& s, long long& out) {
  try {
    std::size_t used = 0;
    out = std::stoll(s, &used);
    return used == s.size();
  } catch (const std::exception&) {
    return false;
  }
}

template <typename Fn>
void for_each_line(std::string_view text, Fn fn) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    fn(text.substr(start, end - start));
    start = end + 1;
  }
}

}  // namespace

void read_schedule_text(const ccs::Csdfg& input, std::string_view text,
                        Answer& a) {
  const auto names = names_of(input);
  bool header = false;
  for_each_line(text, [&](std::string_view line) {
    const std::vector<std::string> w = words(line);
    if (w.empty()) return;
    long long x = 0, y = 0;
    if (w[0] == "schedule" && w.size() >= 3 && to_ll(w[1], x) &&
        to_ll(w[2], y) && !header) {
      header = true;
      a.table_length = static_cast<int>(x);
      a.table_pes = static_cast<std::size_t>(y);
    } else if (w[0] == "place" && w.size() == 4 && to_ll(w[2], x) &&
               to_ll(w[3], y)) {
      const auto it = names.find(w[1]);
      if (it == names.end()) {
        a.read_errors.push_back("placement of unknown task " + w[1]);
        return;
      }
      ++a.placements[it->second];
      a.pe[it->second] = static_cast<int>(x) - 1;
      a.cb[it->second] = static_cast<int>(y);
    } else if (w[0] == "retime" && w.size() == 3 && to_ll(w[2], x)) {
      const auto it = names.find(w[1]);
      if (it == names.end()) {
        a.read_errors.push_back("retiming of unknown task " + w[1]);
        return;
      }
      a.retiming[it->second] = x;
    } else if (w[0] != "speeds") {
      a.read_errors.push_back("unreadable schedule line: " +
                              std::string(line));
    }
  });
  if (!header) a.read_errors.push_back("schedule text has no header");
}

void read_graph_text(std::string_view text, Answer& a) {
  a.has_retimed_graph = true;
  for_each_line(text, [&](std::string_view line) {
    const std::vector<std::string> w = words(line);
    if (w.empty() || w[0] != "edge") return;
    long long d = 0, c = 1;
    if (w.size() < 4 || w.size() > 5 || !to_ll(w[3], d) ||
        (w.size() == 5 && !to_ll(w[4], c))) {
      a.read_errors.push_back("unreadable edge line: " + std::string(line));
      return;
    }
    a.retimed_edges.emplace_back(w[1], w[2], d, c);
  });
}

std::vector<std::string> check_answer(const ccs::Csdfg& input,
                                      const Machine& m, const Answer& a) {
  std::vector<std::string> bad = a.read_errors;
  const auto name = [&](std::size_t v) { return input.node(v).name; };
  const int L = a.table_length;
  if (a.claimed_length != L)
    bad.push_back("claimed length " + std::to_string(a.claimed_length) +
                  " != table length " + std::to_string(L));
  if (a.table_pes != m.pes)
    bad.push_back("table has " + std::to_string(a.table_pes) +
                  " PEs, machine has " + std::to_string(m.pes));
  bool placed_ok = true;
  for (std::size_t v = 0; v < input.node_count(); ++v) {
    const int ce = a.cb[v] + input.node(v).time - 1;
    if (a.placements[v] != 1 || a.pe[v] < 0 ||
        static_cast<std::size_t>(a.pe[v]) >= m.pes || a.cb[v] < 1 ||
        ce > L) {
      bad.push_back("task " + name(v) + " placed " +
                    std::to_string(a.placements[v]) + "x at pe " +
                    std::to_string(a.pe[v] + 1) + " steps " +
                    std::to_string(a.cb[v]) + ".." + std::to_string(ce) +
                    " of " + std::to_string(L));
      placed_ok = false;
    }
  }
  if (!placed_ok) return bad;

  // Overlap: sort each PE's tasks by start step.
  std::vector<std::vector<std::size_t>> on(m.pes);
  for (std::size_t v = 0; v < input.node_count(); ++v)
    on[static_cast<std::size_t>(a.pe[v])].push_back(v);
  for (auto& tasks : on) {
    std::sort(tasks.begin(), tasks.end(),
              [&](std::size_t x, std::size_t y) { return a.cb[x] < a.cb[y]; });
    for (std::size_t i = 1; i < tasks.size(); ++i) {
      const std::size_t prev = tasks[i - 1], cur = tasks[i];
      if (a.cb[cur] <= a.cb[prev] + input.node(prev).time - 1)
        bad.push_back("tasks " + name(prev) + " and " + name(cur) +
                      " overlap on pe " + std::to_string(a.pe[cur] + 1));
    }
  }

  // Retimed delays against the input graph, then the master constraint.
  std::multiset<std::tuple<std::string, std::string, long long, long long>>
      expected;
  for (std::size_t e = 0; e < input.edge_count(); ++e) {
    const ccs::Edge& edge = input.edge(e);
    const long long dr = edge.delay + a.retiming[edge.from] -
                         a.retiming[edge.to];
    const std::string arc = name(edge.from) + "->" + name(edge.to);
    if (dr < 0) {
      bad.push_back("retimed delay of " + arc + " is " + std::to_string(dr));
      continue;
    }
    expected.emplace(name(edge.from), name(edge.to), dr,
                     static_cast<long long>(edge.volume));
    const std::size_t pu = static_cast<std::size_t>(a.pe[edge.from]);
    const std::size_t pv = static_cast<std::size_t>(a.pe[edge.to]);
    const int hops = m.hops[pu][pv];
    if (hops < 0) {
      bad.push_back("no route for " + arc);
      continue;
    }
    const long long ce_u = a.cb[edge.from] + input.node(edge.from).time - 1;
    const long long lhs = a.cb[edge.to] + dr * L;
    const long long rhs =
        ce_u + static_cast<long long>(hops) *
                   static_cast<long long>(edge.volume) + 1;
    if (lhs < rhs)
      bad.push_back("edge " + arc + " breaks the master constraint: " +
                    std::to_string(lhs) + " < " + std::to_string(rhs));
  }
  if (a.has_retimed_graph) {
    const std::multiset<
        std::tuple<std::string, std::string, long long, long long>>
        emitted(a.retimed_edges.begin(), a.retimed_edges.end());
    if (emitted != expected)
      bad.push_back(
          "emitted retimed graph does not match d + r(u) - r(v) on the "
          "input graph");
  }
  return bad;
}

namespace {

/// True when some cycle has sum t - k * sum d > 0, i.e. its ratio
/// sum t / sum d exceeds k.  Longest-path Bellman-Ford from a virtual
/// source; a relaxation in round |V| proves a positive cycle.
bool ratio_exceeds(const ccs::Csdfg& g, long long k) {
  const std::size_t n = g.node_count();
  std::vector<long long> dist(n, 0);
  for (std::size_t round = 0; round <= n; ++round) {
    bool changed = false;
    for (std::size_t e = 0; e < g.edge_count(); ++e) {
      const ccs::Edge& edge = g.edge(e);
      const long long w = g.node(edge.from).time - k * edge.delay;
      if (dist[edge.from] + w > dist[edge.to]) {
        dist[edge.to] = dist[edge.from] + w;
        changed = true;
      }
    }
    if (!changed) return false;
  }
  return true;
}

}  // namespace

int independent_lower_bound(const ccs::Csdfg& input, std::size_t pes) {
  long long total = 0, longest = 0;
  for (std::size_t v = 0; v < input.node_count(); ++v) {
    total += input.node(v).time;
    longest = std::max<long long>(longest, input.node(v).time);
  }
  const long long per_pe =
      (total + static_cast<long long>(pes) - 1) / static_cast<long long>(pes);
  // Smallest k with no cycle ratio above k is ceil(max cycle ratio).
  long long lo = 0, hi = total;
  while (lo < hi) {
    const long long mid = lo + (hi - lo) / 2;
    if (ratio_exceeds(input, mid))
      lo = mid + 1;
    else
      hi = mid;
  }
  return static_cast<int>(std::max({longest, per_pe, lo}));
}

}  // namespace perfbench
