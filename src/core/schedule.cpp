#include "core/schedule.hpp"

#include <algorithm>
#include <limits>

#include "util/contracts.hpp"

namespace ccs {

namespace {
constexpr std::size_t kFree = std::numeric_limits<std::size_t>::max();
}  // namespace

ScheduleTable::ScheduleTable(const Csdfg& g, std::size_t num_pes,
                             bool pipelined_pes)
    : ScheduleTable(g, std::vector<int>(num_pes, 1), pipelined_pes) {}

ScheduleTable::ScheduleTable(const Csdfg& g, std::vector<int> pe_speeds,
                             bool pipelined_pes)
    : num_pes_(pe_speeds.size()),
      pipelined_(pipelined_pes),
      speeds_(std::move(pe_speeds)) {
  CCS_EXPECTS(num_pes_ >= 1);
  for (const int s : speeds_) CCS_EXPECTS(s >= 1);
  times_.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v)
    times_.push_back(g.node(v).time);
  where_.assign(g.node_count(), std::nullopt);
  grid_.assign(num_pes_, {});
}

int ScheduleTable::occupied_length() const noexcept {
  int max_ce = 0;
  for (NodeId v = 0; v < where_.size(); ++v)
    if (where_[v])
      max_ce = std::max(
          max_ce, where_[v]->cb + times_[v] * speeds_[where_[v]->pe] - 1);
  return max_ce;
}

void ScheduleTable::set_length(int length) {
  CCS_EXPECTS(length >= occupied_length());
  length_ = length;
}

int ScheduleTable::time(NodeId v) const {
  CCS_EXPECTS(v < times_.size());
  return times_[v];
}

int ScheduleTable::pe_speed(PeId pe) const {
  CCS_EXPECTS(pe < num_pes_);
  return speeds_[pe];
}

int ScheduleTable::time_on(NodeId v, PeId pe) const {
  CCS_EXPECTS(v < times_.size());
  CCS_EXPECTS(pe < num_pes_);
  return times_[v] * speeds_[pe];
}

bool ScheduleTable::is_placed(NodeId v) const {
  CCS_EXPECTS(v < where_.size());
  return where_[v].has_value();
}

Placement ScheduleTable::placement(NodeId v) const {
  CCS_EXPECTS(v < where_.size());
  CCS_EXPECTS(where_[v].has_value());
  return *where_[v];
}

int ScheduleTable::ce(NodeId v) const {
  const Placement p = placement(v);
  return p.cb + times_[v] * speeds_[p.pe] - 1;
}

bool ScheduleTable::is_free(PeId pe, int from, int to) const {
  CCS_EXPECTS(pe < num_pes_);
  CCS_EXPECTS(from >= 1 && from <= to);
  const auto& col = grid_[pe];
  for (int cs = from; cs <= to; ++cs) {
    const auto idx = static_cast<std::size_t>(cs - 1);
    if (idx < col.size() && col[idx] != kFree) return false;
  }
  return true;
}

int ScheduleTable::first_free(PeId pe, int earliest, int duration) const {
  CCS_EXPECTS(pe < num_pes_);
  CCS_EXPECTS(duration >= 1);
  const int span = pipelined_ ? 1 : duration * speeds_[pe];
  int cs = std::max(1, earliest);
  while (!is_free(pe, cs, cs + span - 1)) ++cs;
  return cs;
}

std::optional<NodeId> ScheduleTable::occupant(PeId pe, int cs) const {
  CCS_EXPECTS(pe < num_pes_);
  CCS_EXPECTS(cs >= 1);
  const auto& col = grid_[pe];
  const auto idx = static_cast<std::size_t>(cs - 1);
  if (idx < col.size() && col[idx] != kFree) return col[idx];
  return std::nullopt;
}

void ScheduleTable::ensure_rows(PeId pe, int cs) {
  auto& col = grid_[pe];
  if (col.size() < static_cast<std::size_t>(cs))
    col.resize(static_cast<std::size_t>(cs), kFree);
}

void ScheduleTable::place(NodeId v, PeId pe, int cb) {
  CCS_EXPECTS(v < where_.size());
  CCS_EXPECTS(!where_[v].has_value());
  CCS_EXPECTS(pe < num_pes_);
  CCS_EXPECTS(cb >= 1);
  const int span = occupied_span(v, pe);
  CCS_EXPECTS(is_free(pe, cb, cb + span - 1));

  ensure_rows(pe, cb + span - 1);
  for (int cs = cb; cs < cb + span; ++cs)
    grid_[pe][static_cast<std::size_t>(cs - 1)] = v;
  where_[v] = Placement{pe, cb};
  ++placed_;
  length_ = std::max(length_, cb + times_[v] * speeds_[pe] - 1);
}

void ScheduleTable::remove(NodeId v) {
  CCS_EXPECTS(v < where_.size());
  CCS_EXPECTS(where_[v].has_value());
  const Placement p = *where_[v];
  const int span = occupied_span(v, p.pe);
  for (int cs = p.cb; cs < p.cb + span; ++cs)
    grid_[p.pe][static_cast<std::size_t>(cs - 1)] = kFree;
  where_[v] = std::nullopt;
  --placed_;
}

std::vector<NodeId> ScheduleTable::nodes_starting_at(int cs) const {
  CCS_EXPECTS(cs >= 1);
  std::vector<NodeId> out;
  for (NodeId v = 0; v < where_.size(); ++v)
    if (where_[v] && where_[v]->cb == cs) out.push_back(v);
  return out;
}

void ScheduleTable::shift_up() {
  CCS_EXPECTS(length_ >= 1);
  CCS_EXPECTS(nodes_starting_at(1).empty());
  for (NodeId v = 0; v < where_.size(); ++v) {
    if (!where_[v]) continue;
    CCS_ASSERT(where_[v]->cb >= 2);
    where_[v]->cb -= 1;
  }
  for (auto& col : grid_) {
    if (!col.empty()) col.erase(col.begin());
  }
  length_ -= 1;
}

int ScheduleTable::compact_leading() {
  int removed = 0;
  while (length_ >= 1 && nodes_starting_at(1).empty() && placed_ > 0) {
    shift_up();
    ++removed;
  }
  return removed;
}

bool ScheduleTable::operator==(const ScheduleTable& other) const {
  // grid_ mirrors where_; its row capacity depends on the placement
  // history, so it is not compared.
  return num_pes_ == other.num_pes_ && pipelined_ == other.pipelined_ &&
         times_ == other.times_ && speeds_ == other.speeds_ &&
         where_ == other.where_ && length_ == other.length_;
}

std::vector<std::pair<NodeId, Placement>> ScheduleTable::placements() const {
  std::vector<std::pair<NodeId, Placement>> out;
  for (NodeId v = 0; v < where_.size(); ++v)
    if (where_[v]) out.emplace_back(v, *where_[v]);
  return out;
}

}  // namespace ccs
