#include "core/remap_engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/contracts.hpp"

namespace ccs {

namespace {

/// Empty row-list link.
constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

}  // namespace

// ---------------------------------------------------------------------------
// Engine lifecycle.
// ---------------------------------------------------------------------------

RemapEngine::RemapEngine(const Csdfg& g, const CommModel& comm)
    : comm_(&comm),
      num_nodes_(g.node_count()),
      graph_(g),
      retiming_(g.node_count()) {
  times_.resize(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) times_[v] = g.node(v).time;
  // Volumes are immutable, so the edge -> volume-index map is build-once;
  // the flat cost table itself waits for bind() (it needs the PE count).
  vols_.reserve(g.edge_count());
  base_delays_.reserve(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    vols_.push_back(g.edge(e).volume);
    base_delays_.push_back(g.edge(e).delay);
  }
  std::sort(vols_.begin(), vols_.end());
  vols_.erase(std::unique(vols_.begin(), vols_.end()), vols_.end());
  evol_idx_.resize(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto it =
        std::lower_bound(vols_.begin(), vols_.end(), g.edge(e).volume);
    evol_idx_[e] = static_cast<std::size_t>(it - vols_.begin());
  }
  placed_.assign(num_nodes_, 0);
  wpe_.assign(num_nodes_, 0);
  wcb_.assign(num_nodes_, 0);
  row_next_.assign(num_nodes_, kNoNode);
  row_prev_.assign(num_nodes_, kNoNode);
  psl_tree_.assign(2 * g.edge_count(), 0);
  psl_broken_.assign(g.edge_count(), 0);
  an_groups_.resize(num_nodes_);
  lat_groups_.resize(num_nodes_);
  ncomm_at_.resize(num_nodes_);
  dyn_an_.resize(num_nodes_);
  dyn_lat_.resize(num_nodes_);
  dyn_comm_.resize(num_nodes_);
  rotating_.assign(num_nodes_, 0);
}

void RemapEngine::bind(const ScheduleTable& table) {
  CCS_EXPECTS(table.node_count() == num_nodes_);
  num_pes_ = table.num_pes();
  pipelined_ = table.pipelined_pes();
  speeds_ = table.pe_speeds();
  // Flat cost table: one entry per (volume, from, to).  CommModel::cost is
  // not volume-linear in general (cut-through adds a per-hop term), so the
  // table is keyed by the distinct volumes actually present.
  cost_.assign(vols_.size() * num_pes_ * num_pes_, 0);
  for (std::size_t vi = 0; vi < vols_.size(); ++vi)
    for (PeId a = 0; a < num_pes_; ++a)
      for (PeId b = 0; b < num_pes_; ++b)
        cost_[(vi * num_pes_ + a) * num_pes_ + b] = comm_->cost(a, b, vols_[vi]);
  std::size_t max_volume = 1;
  if (!vols_.empty()) max_volume = std::max(max_volume, vols_.back());
  worst_cost_ = 0;
  for (PeId a = 0; a < num_pes_; ++a)
    for (PeId b = 0; b < num_pes_; ++b)
      worst_cost_ =
          std::max<long long>(worst_cost_, comm_->cost(a, b, max_volume));
  // Reset the working graph to the construction delays.
  for (EdgeId e = 0; e < graph_.edge_count(); ++e)
    if (graph_.edge(e).delay != base_delays_[e])
      graph_.set_delay(e, base_delays_[e]);
  retiming_ = Retiming(num_nodes_);
  import_table(table);
  journal_.clear();
  bound_ = true;
  commit();
}

void RemapEngine::import_table(const ScheduleTable& table) {
  origin_ = 0;
  length_ = table.length();
  bits_.assign(num_pes_, {});
  std::fill(placed_.begin(), placed_.end(), 0);
  placed_count_ = 0;
  row_head_.clear();
  ce_count_.clear();
  max_pce_ = 0;
  std::fill(psl_tree_.begin(), psl_tree_.end(), 0);
  std::fill(psl_broken_.begin(), psl_broken_.end(), 0);
  broken_edges_ = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (!table.is_placed(v)) continue;
    const Placement p = table.placement(v);
    put(v, p.pe, p.cb);
  }
}

std::vector<NodeId> RemapEngine::rotate() {
  CCS_EXPECTS(bound_);
  CCS_EXPECTS(complete());
  CCS_EXPECTS(length_ >= 1);
  std::vector<NodeId> rotated;
  const auto first_row = static_cast<std::size_t>(origin_) + 1;
  if (first_row < row_head_.size())
    for (NodeId v = row_head_[first_row]; v != kNoNode; v = row_next_[v])
      rotated.push_back(v);
  std::sort(rotated.begin(), rotated.end());

  // r(J) += 1 moves a delay only across the edges with exactly one endpoint
  // in J: one is drawn from each edge entering J and pushed onto each edge
  // leaving J.  Those are the only edges that can make it illegal.
  for (NodeId v : rotated) rotating_[v] = 1;
  bool legal = true;
  for (NodeId v : rotated) {
    for (EdgeId eid : graph_.in_edges(v)) {
      const Edge& e = graph_.edge(eid);
      if (rotating_[e.from] == 0 && e.delay == 0) legal = false;
    }
    for (EdgeId eid : graph_.out_edges(v)) {
      const Edge& e = graph_.edge(eid);
      if (rotating_[e.to] == 0 && e.delay == std::numeric_limits<int>::max())
        legal = false;
    }
  }
  if (!legal) {
    for (NodeId v : rotated) rotating_[v] = 0;
    // Cold path: the whole-graph retiming names the offending edge (the
    // lowest id) and throws its GraphError; the engine stays untouched.
    Retiming r(num_nodes_);
    for (NodeId v : rotated) r.add(v, 1);
    Csdfg probe = graph_;
    r.apply(probe);
    CCS_ASSERT(legal);  // unreachable: apply threw on the illegal edge
  }

  for (NodeId v : rotated) unplace_working(v);
  for (NodeId v : rotated) {
    for (EdgeId eid : graph_.in_edges(v)) {
      const Edge& e = graph_.edge(eid);
      if (rotating_[e.from] == 0) set_delay_working(eid, e.delay - 1);
    }
    for (EdgeId eid : graph_.out_edges(v)) {
      const Edge& e = graph_.edge(eid);
      if (rotating_[e.to] == 0) set_delay_working(eid, e.delay + 1);
    }
    journal_.push_back({Undo::Kind::kRetiming, v, 0, retiming_.of(v)});
    retiming_.add(v, 1);
  }
  for (NodeId v : rotated) rotating_[v] = 0;
  origin_ += 1;
  length_ -= 1;
  return rotated;
}

void RemapEngine::commit() {
  CCS_EXPECTS(bound_);
  journal_.clear();
  committed_origin_ = origin_;
  committed_length_ = length_;
}

void RemapEngine::rollback() {
  CCS_EXPECTS(bound_);
  unwind(0, committed_origin_, committed_length_);
}

void RemapEngine::unwind(std::size_t mark, int origin, int length) {
  while (journal_.size() > mark) {
    const Undo u = journal_.back();
    journal_.pop_back();
    switch (u.kind) {
      case Undo::Kind::kPlaced:
        take(u.id);
        break;
      case Undo::Kind::kUnplaced:
        put(u.id, u.pe, static_cast<int>(u.value));
        break;
      case Undo::Kind::kDelay:
        graph_.set_delay(u.id, static_cast<int>(u.value));
        refresh_psl(u.id);
        break;
      case Undo::Kind::kRetiming:
        retiming_.set(u.id, u.value);
        break;
    }
  }
  origin_ = origin;
  length_ = length;
}

ScheduleTable RemapEngine::table() const {
  CCS_EXPECTS(bound_);
  ScheduleTable t(graph_, speeds_, pipelined_);
  for (NodeId v = 0; v < num_nodes_; ++v)
    if (placed_[v] != 0) t.place(v, wpe_[v], lcb(v));
  t.set_length(length_);
  return t;
}

void RemapEngine::save(FlatSchedule& out) const {
  CCS_EXPECTS(bound_);
  CCS_EXPECTS(complete());
  out.pe.assign(wpe_.begin(), wpe_.end());
  out.cb.resize(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) out.cb[v] = lcb(v);
  out.length = length_;
}

// ---------------------------------------------------------------------------
// Geometry.
// ---------------------------------------------------------------------------

int RemapEngine::span_of(NodeId v, PeId pe) const noexcept {
  return pipelined_ ? 1 : times_[v] * speeds_[pe];
}

int RemapEngine::time_on(NodeId v, PeId pe) const noexcept {
  return times_[v] * speeds_[pe];
}

int RemapEngine::lcb(NodeId v) const noexcept { return wcb_[v] - origin_; }

int RemapEngine::lce(NodeId v) const noexcept {
  return lcb(v) + time_on(v, wpe_[v]) - 1;
}

int RemapEngine::pce(NodeId v) const noexcept {
  return wcb_[v] + time_on(v, wpe_[v]) - 1;
}

bool RemapEngine::complete() const noexcept {
  return placed_count_ == num_nodes_;
}

int RemapEngine::occupied_logical() const noexcept {
  return placed_count_ == 0 ? 0 : max_pce_ - origin_;
}

CommCost RemapEngine::cost_at(std::size_t vol_idx, PeId from,
                              PeId to) const noexcept {
  return cost_[(vol_idx * num_pes_ + from) * num_pes_ + to];
}

void RemapEngine::set_bits(PeId pe, int cb_phys, int span, bool value) {
  CCS_ASSERT(cb_phys >= 1);
  auto& words = bits_[pe];
  const std::size_t first = static_cast<std::size_t>(cb_phys - 1);
  const std::size_t last = first + static_cast<std::size_t>(span) - 1;
  if (value && last / 64 >= words.size()) words.resize(last / 64 + 1, 0);
  for (std::size_t b = first; b <= last; ++b) {
    if (b / 64 >= words.size()) break;  // clearing past the tail: already 0
    const std::uint64_t mask = std::uint64_t{1} << (b % 64);
    if (value)
      words[b / 64] |= mask;
    else
      words[b / 64] &= ~mask;
  }
}

void RemapEngine::place_working(NodeId v, PeId pe, int cb_logical) {
  CCS_ASSERT(placed_[v] == 0);
  CCS_ASSERT(cb_logical >= 1);
  put(v, pe, cb_logical + origin_);
  journal_.push_back({Undo::Kind::kPlaced, v});
  // Mirror ScheduleTable::place: length grows by the *execution* span even
  // on pipelined PEs (only the issue step is occupied, but CE counts).
  length_ = std::max(length_, cb_logical + time_on(v, pe) - 1);
}

void RemapEngine::unplace_working(NodeId v) {
  CCS_ASSERT(placed_[v] != 0);
  journal_.push_back({Undo::Kind::kUnplaced, v, wpe_[v], wcb_[v]});
  take(v);
}

void RemapEngine::set_delay_working(EdgeId e, int delay) {
  journal_.push_back({Undo::Kind::kDelay, e, 0, graph_.edge(e).delay});
  graph_.set_delay(e, delay);
  refresh_psl(e);
}

void RemapEngine::put(NodeId v, PeId pe, int cb_phys) {
  placed_[v] = 1;
  ++placed_count_;
  wpe_[v] = pe;
  wcb_[v] = cb_phys;
  set_bits(pe, cb_phys, span_of(v, pe), true);
  const auto row = static_cast<std::size_t>(cb_phys);
  if (row >= row_head_.size()) row_head_.resize(row + 1, kNoNode);
  row_prev_[v] = kNoNode;
  row_next_[v] = row_head_[row];
  if (row_head_[row] != kNoNode) row_prev_[row_head_[row]] = v;
  row_head_[row] = v;
  const int ce = pce(v);
  if (static_cast<std::size_t>(ce) >= ce_count_.size())
    ce_count_.resize(static_cast<std::size_t>(ce) + 1, 0);
  ++ce_count_[static_cast<std::size_t>(ce)];
  max_pce_ = std::max(max_pce_, ce);
  for (EdgeId e : graph_.out_edges(v)) refresh_psl(e);
  for (EdgeId e : graph_.in_edges(v))
    if (graph_.edge(e).from != v) refresh_psl(e);  // self-loops done above
}

void RemapEngine::take(NodeId v) {
  set_bits(wpe_[v], wcb_[v], span_of(v, wpe_[v]), false);
  placed_[v] = 0;
  --placed_count_;
  const NodeId prev = row_prev_[v];
  const NodeId next = row_next_[v];
  if (prev != kNoNode)
    row_next_[prev] = next;
  else
    row_head_[static_cast<std::size_t>(wcb_[v])] = next;
  if (next != kNoNode) row_prev_[next] = prev;
  --ce_count_[static_cast<std::size_t>(pce(v))];
  if (placed_count_ == 0)
    max_pce_ = 0;
  else
    while (ce_count_[static_cast<std::size_t>(max_pce_)] == 0) --max_pce_;
  for (EdgeId e : graph_.out_edges(v)) refresh_psl(e);
  for (EdgeId e : graph_.in_edges(v))
    if (graph_.edge(e).from != v) refresh_psl(e);
}

void RemapEngine::refresh_psl(EdgeId eid) {
  const Edge& e = graph_.edge(eid);
  long long need = 0;
  bool broken = false;
  if (placed_[e.from] != 0 && placed_[e.to] != 0) {
    // Lemma 4.3 slack CE(u) + M + 1 - CB(v): a difference of two steps, so
    // the physical steps give it without the origin.
    const long long slack =
        static_cast<long long>(pce(e.from)) +
        cost_at(evol_idx_[eid], wpe_[e.from], wpe_[e.to]) + 1 - wcb_[e.to];
    if (slack > 0) {
      if (e.delay == 0)
        broken = true;
      else
        need = (slack + e.delay - 1) / e.delay;
    }
  }
  if (broken != (psl_broken_[eid] != 0)) {
    psl_broken_[eid] = broken ? 1 : 0;
    if (broken)
      ++broken_edges_;
    else
      --broken_edges_;
  }
  std::size_t i = graph_.edge_count() + eid;
  if (psl_tree_[i] == need) return;
  psl_tree_[i] = need;
  for (i /= 2; i >= 1; i /= 2)
    psl_tree_[i] = std::max(psl_tree_[2 * i], psl_tree_[2 * i + 1]);
}

int RemapEngine::bitset_first_free(PeId pe, int earliest, int span,
                                   long long& probes) const {
  const auto& words = bits_[pe];
  const long long nbits = static_cast<long long>(words.size()) * 64;
  const long long start =
      static_cast<long long>(std::max(1, earliest)) + origin_ - 1;
  long long run_begin = start;  // candidate slot, as a bit index
  long long pos = start;        // next bit to examine
  for (;;) {
    if (pos - run_begin >= span || pos >= nbits) {
      // Either the free run is long enough, or everything past the stored
      // words is free — run_begin works either way.
      return static_cast<int>(run_begin + 1 - origin_);
    }
    ++probes;
    const std::uint64_t word = words[static_cast<std::size_t>(pos >> 6)];
    const int off = static_cast<int>(pos & 63);
    std::uint64_t window = word >> off;  // bit 0 of window == bit `pos`
    long long base = pos;
    while (window != 0) {
      const int z = std::countr_zero(window);
      const long long occ = base + z;  // next occupied bit
      if (occ - run_begin >= span)
        return static_cast<int>(run_begin + 1 - origin_);
      run_begin = occ + 1;
      base = occ + 1;
      const int shift = z + 1;
      window = shift >= 64 ? 0 : window >> shift;
    }
    pos = ((pos >> 6) + 1) << 6;  // continue at the next word boundary
  }
}

// ---------------------------------------------------------------------------
// Incremental caches.
// ---------------------------------------------------------------------------

void RemapEngine::build_static_caches(const std::vector<NodeId>& rotated,
                                      RemapSelection selection) {
  constexpr long long kNegInf = std::numeric_limits<long long>::min() / 4;
  constexpr long long kPosInf = std::numeric_limits<long long>::max() / 4;
  // Every fold lives in the one reused arena fold_; a node's groups are a
  // contiguous run of groups_ because each node's edges are folded in one
  // go.  Returns the fold's offset (arena growth invalidates references).
  fold_.clear();
  groups_.clear();
  const auto group = [this](GroupRange& range, long long k,
                            long long init) -> std::size_t {
    for (std::size_t i = range.first; i < range.first + range.count; ++i)
      if (groups_[i].k == k) return groups_[i].at;
    const std::size_t at = fold_.size();
    fold_.resize(at + num_pes_, init);
    groups_.push_back(KGroup{k, at});
    ++range.count;
    return at;
  };
  for (NodeId v : rotated) {
    dyn_an_[v].clear();
    dyn_lat_[v].clear();
    dyn_comm_[v].clear();
    const std::size_t comm = fold_.size();
    ncomm_at_[v] = comm;
    fold_.resize(comm + num_pes_, 0);
    an_groups_[v] = GroupRange{groups_.size(), 0};
    for (EdgeId eid : graph_.in_edges(v)) {
      const Edge& e = graph_.edge(eid);
      if (e.from == v) continue;          // self-loop
      if (placed_[e.from] == 0) continue; // rotated peer: handled as a delta
      const std::size_t vol = evol_idx_[eid];
      const long long head = lce(e.from) + 1;
      const std::size_t at = group(an_groups_[v], e.delay, kNegInf);
      for (PeId p = 0; p < num_pes_; ++p) {
        const CommCost m = cost_at(vol, wpe_[e.from], p);
        fold_[at + p] = std::max(fold_[at + p], head + m);
        fold_[comm + p] += m;
      }
    }
    lat_groups_[v] = GroupRange{groups_.size(), 0};
    for (EdgeId eid : graph_.out_edges(v)) {
      const Edge& e = graph_.edge(eid);
      if (e.to == v) continue;
      if (placed_[e.to] == 0) continue;
      const std::size_t vol = evol_idx_[eid];
      const bool bidir = selection == RemapSelection::kBidirectional;
      const std::size_t at =
          bidir ? group(lat_groups_[v], e.delay, kPosInf) : 0;
      for (PeId p = 0; p < num_pes_; ++p) {
        const CommCost m = cost_at(vol, p, wpe_[e.to]);
        if (bidir) fold_[at + p] = std::min(fold_[at + p], lcb(e.to) - m);
        fold_[comm + p] += m;
      }
    }
  }
}

long long RemapEngine::eval_an(NodeId v, PeId pe,
                               long long target) const noexcept {
  long long earliest = 1;
  const GroupRange& range = an_groups_[v];
  for (std::size_t i = range.first; i < range.first + range.count; ++i)
    earliest = std::max(earliest,
                        fold_[groups_[i].at + pe] - groups_[i].k * target);
  for (const DynAn& d : dyn_an_[v])
    earliest =
        std::max(earliest, d.base + cost_at(d.vol, d.pe, pe) - d.k * target);
  return earliest;
}

long long RemapEngine::eval_latest(NodeId v, PeId pe,
                                   long long target) const noexcept {
  const long long ton = time_on(v, pe);
  long long latest = target - ton + 1;
  const GroupRange& range = lat_groups_[v];
  for (std::size_t i = range.first; i < range.first + range.count; ++i)
    latest = std::min(latest,
                      fold_[groups_[i].at + pe] + groups_[i].k * target - ton);
  for (const DynLat& d : dyn_lat_[v])
    latest =
        std::min(latest, d.cb + d.k * target - cost_at(d.vol, pe, d.pe) - ton);
  latest = std::min<long long>(latest, std::numeric_limits<int>::max());
  latest = std::max<long long>(latest, std::numeric_limits<int>::min() + 1);
  return latest;
}

long long RemapEngine::eval_neighbor_comm(NodeId v, PeId pe) const noexcept {
  long long total = fold_[ncomm_at_[v] + pe];
  for (const DynComm& d : dyn_comm_[v])
    total += d.incoming ? cost_at(d.vol, d.pe, pe) : cost_at(d.vol, pe, d.pe);
  return total;
}

int RemapEngine::node_psl_bound_soa(NodeId v, PeId pe, int cb) const {
  const int ce_v = cb + time_on(v, pe) - 1;
  long long bound = 0;
  const auto fold = [&bound](long long numerator, long long delay) {
    if (numerator <= 0) return;
    bound = std::max(bound, (numerator + delay - 1) / delay);
  };
  for (EdgeId eid : graph_.in_edges(v)) {
    const Edge& e = graph_.edge(eid);
    if (e.delay == 0) continue;
    if (e.from == v) {
      fold(ce_v + 1 - cb, e.delay);  // self-loop: M(pe, pe) = 0
    } else if (placed_[e.from] != 0) {
      fold(lce(e.from) + cost_at(evol_idx_[eid], wpe_[e.from], pe) + 1 - cb,
           e.delay);
    }
  }
  for (EdgeId eid : graph_.out_edges(v)) {
    const Edge& e = graph_.edge(eid);
    if (e.delay == 0 || e.to == v) continue;
    if (placed_[e.to] != 0)
      fold(ce_v + cost_at(evol_idx_[eid], pe, wpe_[e.to]) + 1 - lcb(e.to),
           e.delay);
  }
  return static_cast<int>(
      std::min<long long>(bound, std::numeric_limits<int>::max()));
}

int RemapEngine::min_feasible_soa() const {
  // min_feasible_length (Lemma 4.3) read off the per-edge requirements that
  // put/take keep current: O(1) instead of a pass over every edge.
  CCS_EXPECTS(complete());
  if (broken_edges_ > 0) return -1;
  long long needed = occupied_logical();
  if (!psl_tree_.empty()) needed = std::max(needed, psl_tree_[1]);
  CCS_ENSURES(needed <= std::numeric_limits<int>::max());
  return static_cast<int>(needed);
}

// ---------------------------------------------------------------------------
// Remapping.
// ---------------------------------------------------------------------------

std::optional<int> RemapEngine::remap(const std::vector<NodeId>& rotated,
                                      int previous_length, RemapPolicy policy,
                                      RemapSelection selection,
                                      const ObsContext& obs) {
  CCS_EXPECTS(bound_);
  CCS_EXPECTS(previous_length >= 1);
  const ObsSpan remap_span = obs.span("remap");
  prepare(rotated, selection);

  const int first_target = std::max(1, previous_length - 1);
  int last_target = previous_length;
  if (policy == RemapPolicy::kWithRelaxation) {
    // A generous sufficient target: the whole shifted table, every rotated
    // task serialized after it, and one worst-case transfer of slack.  If
    // even this fails, the input table was not a valid schedule.
    long long cap = previous_length + 1 + worst_cost_;
    int max_speed = 1;
    for (PeId p = 0; p < num_pes_; ++p)
      max_speed = std::max(max_speed, speeds_[p]);
    for (NodeId v : rotated) cap += times_[v] * max_speed;
    last_target = static_cast<int>(
        std::min<long long>(cap, std::numeric_limits<int>::max() / 2));
  }

  const std::size_t base_mark = journal_.size();
  const int base_origin = origin_;
  const int base_length = length_;
  for (int target = first_target; target <= last_target; ++target) {
    if (length_ > target) continue;
    const ObsSpan target_span = obs.span("remap.target");
    obs.count("remap.target_attempts");
    obs.emit(RemapTargetEvent{target, target > previous_length});
    const std::optional<int> length = attempt(target, selection, obs);
    if (!length) continue;
    if (policy == RemapPolicy::kWithoutRelaxation &&
        *length > previous_length) {
      // The placement succeeded but the PSL padding overshot the budget.
      obs.count("psl.rejections");
      unwind(base_mark, base_origin, base_length);
      continue;
    }
    return length;
  }
  return std::nullopt;
}

std::optional<int> RemapEngine::place(const std::vector<NodeId>& tasks,
                                      int target, RemapSelection selection,
                                      const ObsContext& obs) {
  CCS_EXPECTS(bound_);
  CCS_EXPECTS(target >= 1);
  prepare(tasks, selection);
  return attempt(target, selection, obs);
}

void RemapEngine::prepare(const std::vector<NodeId>& tasks,
                          RemapSelection selection) {
  CCS_EXPECTS(tasks.size() == num_nodes_ - placed_count_);
  for (NodeId v : tasks) CCS_EXPECTS(v < num_nodes_ && placed_[v] == 0);
  // Place long tasks first; ties broken by node id.  The order is total,
  // so an unstable sort is just as deterministic.
  order_ = tasks;
  std::sort(order_.begin(), order_.end(), [&](NodeId a, NodeId b) {
    if (times_[a] != times_[b]) return times_[a] > times_[b];
    return a < b;
  });
  build_static_caches(tasks, selection);
}

std::optional<int> RemapEngine::attempt(int target, RemapSelection selection,
                                        const ObsContext& obs) {
  const std::size_t base_mark = journal_.size();
  const int base_origin = origin_;
  const int base_length = length_;
  for (NodeId v : order_) {
    dyn_an_[v].clear();
    dyn_lat_[v].clear();
    dyn_comm_[v].clear();
  }
  // Per-PE first-free memo, valid for the duration of one attempt.  Within
  // an attempt occupancy only ever fills, so first_free(pe, lo, s) is
  // monotone in lo and a cached answer (lo0 -> cb0 for span s) stays exact
  // for every query with the same span and lo in [lo0, cb0] until a
  // placement lands on that PE.  Memo hits answer with zero occupancy
  // probes, which is where most of the slots_scanned saving comes from on
  // short schedules (one word already covers the whole table).
  free_memo_.assign(num_pes_, FreeMemo{});
  const auto memo_first_free = [&](PeId pe, int lo, int span,
                                   long long& probes) {
    FreeMemo& m = free_memo_[pe];
    if (m.span == span && lo >= m.lo && lo <= m.cb) return m.cb;
    const int cb = bitset_first_free(pe, lo, span, probes);
    m = FreeMemo{lo, cb, span};
    return cb;
  };
  // Hot-loop tallies are accumulated locally and flushed once per attempt
  // so the per-slot cost with metrics enabled stays a register increment.
  // The per-evaluation AN histogram follows the same rule: a local
  // fixed-bucket accumulator, folded into the profiler once per attempt,
  // so profiling never takes a lock inside the slot scan.
  long long an_evaluations = 0;
  long long word_probes = 0;
  const bool profiled = obs.profiling();
  const ObsSpan an_span = obs.span("remap.an");
  SpanHistogram an_hist;
  const auto flush_tallies = [&] {
    if (profiled) obs.profiler->fold("an.eval", an_hist);
    stats_.an_evaluations += an_evaluations;
    stats_.slots_scanned += word_probes;
    if (obs.metrics != nullptr) {
      obs.metrics->add("an.evaluations", an_evaluations);
      obs.metrics->add("remap.slots_scanned", word_probes);
    }
  };

  for (NodeId v : order_) {
    CCS_ASSERT(placed_[v] == 0);
    bool found = false;
    int best_cb = 0;
    long long best_comm = 0;
    PeId best_pe = 0;
    int best_lo = 0;
    int best_hi = 0;

    for (PeId pe = 0; pe < num_pes_; ++pe) {
      long long lo_bound;
      if (profiled) {
        const std::uint64_t t0 = span_now_ns();
        lo_bound = eval_an(v, pe, target);
        an_hist.add(span_now_ns() - t0);
      } else {
        lo_bound = eval_an(v, pe, target);
      }
      ++an_evaluations;
      CCS_ASSERT(lo_bound <= std::numeric_limits<int>::max());
      const int lo = static_cast<int>(lo_bound);
      // A slot on this PE starts at first_free(lo) >= lo; once a winner
      // with best_cb < lo exists this PE cannot beat it on the primary
      // key, and best_cb only ever decreases — skip the probes.
      if (found && lo > best_cb) continue;
      const int hi = selection == RemapSelection::kBidirectional
                         ? static_cast<int>(eval_latest(v, pe, target))
                         : target - time_on(v, pe) + 1;
      if (lo > hi) continue;
      const int cb = memo_first_free(pe, lo, span_of(v, pe), word_probes);
      if (cb > hi) continue;
      const long long cc = eval_neighbor_comm(v, pe);
      if (!found || cb < best_cb || (cb == best_cb && cc < best_comm)) {
        found = true;
        best_cb = cb;
        best_comm = cc;
        best_pe = pe;
        best_lo = lo;
        best_hi = hi;
      }
    }
    if (!found) {
      flush_tallies();
      if (obs.metrics != nullptr) obs.count("remap.placement_failures");
      if (obs.tracing()) {
        RemapDecisionEvent ev;
        ev.node = v;
        ev.accepted = false;
        ev.slots_scanned = static_cast<int>(num_pes_);
        ev.reason = "no-feasible-slot";
        obs.emit(ev);
      }
      unwind(base_mark, base_origin, base_length);
      return std::nullopt;
    }
    if (obs.tracing()) {
      RemapDecisionEvent ev;
      ev.node = v;
      ev.accepted = true;
      ev.pe = best_pe;
      ev.cb = best_cb;
      ev.an = best_lo;
      ev.latest = best_hi;
      ev.psl = node_psl_bound_soa(v, best_pe, best_cb);
      ev.slots_scanned = static_cast<int>(num_pes_);
      ev.reason = "placed";
      obs.emit(ev);
    }
    place_working(v, best_pe, best_cb);
    free_memo_[best_pe] = FreeMemo{};  // occupancy changed on this PE only
    obs.count("remap.placements");
    // Delta updates: placing v changes the cached bounds of exactly the
    // unplaced (i.e. still-rotated) endpoints of v's own edges — no other
    // node's AN / latest / comm tie-break can move (docs/ALGORITHM.md).
    const long long v_ce = lce(v);
    const long long v_cb = lcb(v);
    for (EdgeId eid : graph_.out_edges(v)) {
      const Edge& e = graph_.edge(eid);
      if (e.to == v || placed_[e.to] != 0) continue;
      dyn_an_[e.to].push_back(
          DynAn{v_ce + 1, e.delay, best_pe, evol_idx_[eid]});
      dyn_comm_[e.to].push_back(DynComm{best_pe, evol_idx_[eid], true});
    }
    for (EdgeId eid : graph_.in_edges(v)) {
      const Edge& e = graph_.edge(eid);
      if (e.from == v || placed_[e.from] != 0) continue;
      if (selection == RemapSelection::kBidirectional)
        dyn_lat_[e.from].push_back(
            DynLat{v_cb, e.delay, best_pe, evol_idx_[eid]});
      dyn_comm_[e.from].push_back(DynComm{best_pe, evol_idx_[eid], false});
    }
  }
  flush_tallies();

  // Leading compaction: with every task placed, shifting is just an
  // origin bump over the empty rows above the first occupied one.
  length_ = std::max(length_, occupied_logical());
  if (num_nodes_ > 0) {
    auto row = static_cast<std::size_t>(origin_) + 1;
    while (row < row_head_.size() && row_head_[row] == kNoNode) ++row;
    CCS_ASSERT(row < row_head_.size());
    const int removed = static_cast<int>(row) - origin_ - 1;
    if (removed > 0) {
      origin_ += removed;
      length_ -= removed;
    }
  }

  // PSL padding: the smallest cyclic length satisfying every loop-carried
  // communication ("the algorithm will assign empty control steps to
  // compensate the communication requirements").
  const int needed = min_feasible_soa();
  obs.count("psl.evaluations");
  if (needed < 0) {
    // An intra-iteration constraint is broken — only reachable with
    // kAnticipationOnly, whose successor dependences are unchecked.
    obs.count("psl.rejections");
    obs.emit(PslPadEvent{needed, length_});
    unwind(base_mark, base_origin, base_length);
    return std::nullopt;
  }
  length_ = std::max(occupied_logical(), needed);
  obs.emit(PslPadEvent{needed, length_});
  return length_;
}

}  // namespace ccs
