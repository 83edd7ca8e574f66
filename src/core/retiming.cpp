#include "core/retiming.hpp"

#include <algorithm>
#include <limits>

#include "core/graph_algo.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ccs {

long long Retiming::of(NodeId v) const {
  CCS_EXPECTS(v < r_.size());
  return r_[v];
}

void Retiming::set(NodeId v, long long value) {
  CCS_EXPECTS(v < r_.size());
  r_[v] = value;
}

void Retiming::add(NodeId v, long long amount) {
  CCS_EXPECTS(v < r_.size());
  r_[v] += amount;
}

long long Retiming::retimed_delay(const Csdfg& g, EdgeId e) const {
  CCS_EXPECTS(r_.size() == g.node_count());
  const Edge& edge = g.edge(e);
  return edge.delay + r_[edge.from] - r_[edge.to];
}

bool Retiming::is_legal_for(const Csdfg& g) const {
  CCS_EXPECTS(r_.size() == g.node_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    if (retimed_delay(g, e) < 0) return false;
  return true;
}

void Retiming::apply(Csdfg& g) const {
  CCS_EXPECTS(r_.size() == g.node_count());
  std::vector<int> new_delay(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const long long d = retimed_delay(g, e);
    if (d < 0) {
      const Edge& edge = g.edge(e);
      throw GraphError("illegal retiming: edge " + g.node(edge.from).name +
                       "->" + g.node(edge.to).name +
                       " would carry delay " + std::to_string(d));
    }
    if (d > std::numeric_limits<int>::max())
      throw GraphError("retimed delay overflows int");
    new_delay[e] = static_cast<int>(d);
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) g.set_delay(e, new_delay[e]);
}

long long clock_period(const Csdfg& g) {
  return compute_dag_timing(g).critical_path;
}

namespace {

/// Leiserson–Saxe FEAS ("Retiming synchronous circuitry", Algorithmica
/// 1991) on one graph, in the paper's sign convention: where Leiserson–Saxe
/// raise r(v), the paper's r(v) falls.  The scratch arrays are reused by
/// every probe of one min_period_retiming call.
class FeasProbe {
public:
  explicit FeasProbe(const Csdfg& g)
      : g_(g), zero_in_(g.node_count()), delta_(g.node_count()) {
    ready_.reserve(g.node_count());
  }

  /// True iff some legal retiming has clock period <= c; `r` is then one.
  /// From r = 0, each round computes Δ(v) and stops once max Δ <= c, else
  /// sets r(v) -= 1 wherever Δ(v) > c.  A round stays legal: a zero-delay
  /// edge u->v with Δ(u) > c has Δ(v) > c too, so v moves with u.
  ///
  /// Every move is forced: if r* <= 0 achieves c, r* <= r holds at the
  /// start and after every move.  When Δ(v) > c, a path u ~> v of time > c
  /// carries no delay under r but must carry one under r*; its delay under
  /// r* is (r* - r)(u) - (r* - r)(v) >= 1, and (r* - r)(u) <= 0, so
  /// r*(v) <= r(v) - 1.  So a feasible probe returns the greatest achieving
  /// retiming with r <= 0, and, by Leiserson–Saxe, c is infeasible when
  /// |V| - 1 rounds of moves have not reached it.
  bool achieves(long long c, std::vector<long long>& r) {
    const std::size_t n = g_.node_count();
    r.assign(n, 0);
    for (std::size_t round = 1;; ++round) {
      ++rounds_;
      if (longest_paths(r) <= c) return true;
      if (round == n) return false;
      for (NodeId v = 0; v < n; ++v)
        if (delta_[v] > c) --r[v];
    }
  }

  [[nodiscard]] long long rounds() const noexcept { return rounds_; }

private:
  /// Fills Δ(v), the time of the longest zero-delay path ending at v (v's
  /// own time included) after retiming `r`, and returns max Δ.  Kahn's
  /// order over the zero-delay edges: O(V + E).
  long long longest_paths(const std::vector<long long>& r) {
    std::fill(zero_in_.begin(), zero_in_.end(), 0);
    for (EdgeId e = 0; e < g_.edge_count(); ++e) {
      const Edge& edge = g_.edge(e);
      if (edge.delay + r[edge.from] - r[edge.to] == 0) ++zero_in_[edge.to];
    }
    ready_.clear();
    for (NodeId v = 0; v < g_.node_count(); ++v) {
      delta_[v] = g_.node(v).time;
      if (zero_in_[v] == 0) ready_.push_back(v);
    }
    long long longest = 0;
    for (std::size_t head = 0; head < ready_.size(); ++head) {
      const NodeId u = ready_[head];
      longest = std::max(longest, delta_[u]);
      for (const EdgeId e : g_.out_edges(u)) {
        const Edge& edge = g_.edge(e);
        if (edge.delay + r[u] - r[edge.to] != 0) continue;
        delta_[edge.to] =
            std::max(delta_[edge.to], delta_[u] + g_.node(edge.to).time);
        if (--zero_in_[edge.to] == 0) ready_.push_back(edge.to);
      }
    }
    // A legal retiming of a legal graph leaves no zero-delay cycle.
    CCS_ASSERT(ready_.size() == g_.node_count());
    return longest;
  }

  const Csdfg& g_;
  std::vector<std::size_t> zero_in_;
  std::vector<long long> delta_;
  std::vector<NodeId> ready_;
  long long rounds_ = 0;
};

}  // namespace

MinPeriodResult min_period_retiming(const Csdfg& g,
                                    const Rational& iteration_bound) {
  g.require_legal();
  CCS_EXPECTS(iteration_bound.num >= 0 && iteration_bound.den > 0);
  const std::size_t n = g.node_count();
  MinPeriodResult result{Retiming(n), 0};
  if (n == 0) return result;

  long long t_max = 0;
  for (NodeId v = 0; v < n; ++v)
    t_max = std::max<long long>(t_max, g.node(v).time);
  const long long ib_ceil = (iteration_bound.num + iteration_bound.den - 1) /
                            iteration_bound.den;
  // No period <= fail is achievable: every node and every cycle needs
  // max(t_max, ⌈IB⌉).  r = 0 achieves pass, the input's own clock period.
  long long fail = std::max(t_max, ib_ceil) - 1;
  long long pass = clock_period(g);
  CCS_EXPECTS(fail < pass);

  FeasProbe feas(g);
  std::vector<long long> r;
  std::vector<long long> best(n, 0);
  const auto probe = [&](long long c) {
    if (c <= fail || c >= pass) return;
    ++result.probes;
    if (feas.achieves(c, r)) {
      pass = c;
      best.swap(r);
    } else {
      fail = c;
    }
  };
  // An infeasible probe runs all |V| - 1 rounds of moves, so probe where
  // Φ_min usually is: at the floor, which most graphs meet, and at
  // ⌈IB⌉ + t_max, which no graph tried has exceeded.
  probe(fail + 1);
  probe(ib_ceil + t_max);
  while (pass - fail > 1) probe(fail + (pass - fail) / 2);

  for (NodeId v = 0; v < n; ++v) result.retiming.set(v, best[v]);
  result.period = pass;
  result.rounds = feas.rounds();
  CCS_ENSURES(result.retiming.is_legal_for(g));
  Csdfg retimed = g;
  result.retiming.apply(retimed);
  CCS_ENSURES(clock_period(retimed) == pass);
  return result;
}

}  // namespace ccs
