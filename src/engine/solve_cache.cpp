#include "engine/solve_cache.hpp"

#include <exception>
#include <sstream>
#include <utility>

#include "analysis/certify.hpp"
#include "arch/route_cache.hpp"
#include "core/retiming.hpp"
#include "util/error.hpp"

namespace ccs {

namespace {

/// Diagnostics from the cache layer anchor here — there is no source file
/// to point at, only the in-memory request.
constexpr const char* kCacheSpan = "<solve-cache>";

/// splitmix64 finalizer (same mixer as analysis/canon.cpp).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fold(std::uint64_t h, long long value) {
  return mix64(h ^ static_cast<std::uint64_t>(value));
}

}  // namespace

std::uint64_t options_fingerprint(const SolveRequest& request) {
  // Format version first, bumped whenever the folded field set changes,
  // so a changed field set can never alias an old fingerprint.
  std::uint64_t h = fold(3, static_cast<long long>(request.mode));
  const CycloCompactionOptions& o = request.options;
  h = fold(h, static_cast<long long>(o.policy));
  h = fold(h, static_cast<long long>(o.selection));
  h = fold(h, o.passes);
  h = fold(h, static_cast<long long>(o.startup.priority));
  h = fold(h, o.startup.comm_aware ? 1 : 0);
  h = fold(h, o.startup.pipelined_pes ? 1 : 0);
  h = fold(h, static_cast<long long>(o.startup.pe_speeds.size()));
  for (const int s : o.startup.pe_speeds) h = fold(h, s);
  h = fold(h, o.budget.max_passes);
  h = fold(h, o.budget.deadline_ms);
  h = fold(h, o.budget.patience);
  if (request.mode == SolveMode::kPortfolio) {
    h = fold(h, request.portfolio.jobs);
    h = fold(h, request.portfolio.attempts);
    h = fold(h, static_cast<long long>(request.portfolio.seed));
  }
  h = fold(h, request.certify ? 1 : 0);
  h = fold(h, request.certify_options.unfold_factor);
  return h;
}

bool solve_cacheable(const SolveRequest& request) {
  switch (request.mode) {
    case SolveMode::kStartup:
    case SolveMode::kSchedule:
    case SolveMode::kModulo:
    case SolveMode::kPortfolio:
      break;
    default:
      return false;  // kCertify echoes input; kRepair shrinks the machine.
  }
  if (!request.certify) return false;
  const RunBudget& budget = request.options.budget;
  return budget.deadline_ms == 0 && budget.clock == nullptr &&
         budget.stop == nullptr;
}

SolveCache& SolveCache::global() {
  static SolveCache cache;
  return cache;
}

std::shared_ptr<const SolveCache::Entry> SolveCache::lookup(
    const std::string& key) {
  const std::scoped_lock lock(mu_);
  if (!enabled_) return nullptr;
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  // Freshen: a served entry is the last the capacity bound should drop.
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return it->second.entry;
}

std::size_t SolveCache::insert(const std::string& key,
                               std::shared_ptr<const Entry> entry) {
  const std::scoped_lock lock(mu_);
  if (!enabled_) return 0;
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // First insert wins on a race; the loser's attempt still freshens.
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return 0;
  }
  lru_.push_front(key);
  entries_.emplace(key, Slot{std::move(entry), lru_.begin()});
  return evict_to_capacity_locked();
}

std::size_t SolveCache::evict_to_capacity_locked() {
  std::size_t dropped = 0;
  while (entries_.size() > capacity_ && !lru_.empty()) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++dropped;
  }
  evicted_ += static_cast<long long>(dropped);
  return dropped;
}

std::shared_ptr<const SolveResponse> SolveCache::lookup_exact(
    const std::string& exact_key) const {
  const std::scoped_lock lock(mu_);
  if (!enabled_) return nullptr;
  const auto it = exact_.find(exact_key);
  return it == exact_.end() ? nullptr : it->second;
}

void SolveCache::remember_exact(const std::string& exact_key,
                                std::shared_ptr<const SolveResponse> response) {
  const std::scoped_lock lock(mu_);
  if (!enabled_) return;
  if (!exact_.emplace(exact_key, std::move(response)).second) return;
  exact_order_.push_back(exact_key);
  while (exact_.size() > kExactCap && !exact_order_.empty()) {
    exact_.erase(exact_order_.front());
    exact_order_.pop_front();
  }
}

SolveCache::Stats SolveCache::stats() const {
  const std::scoped_lock lock(mu_);
  return Stats{lookups_, hits_,    identical_,     misses_,
               rejected_, evicted_, entries_.size()};
}

void SolveCache::record_lookup() {
  const std::scoped_lock lock(mu_);
  ++lookups_;
}

void SolveCache::record_hit() {
  const std::scoped_lock lock(mu_);
  ++hits_;
}

void SolveCache::record_identical() {
  const std::scoped_lock lock(mu_);
  ++identical_;
}

void SolveCache::record_miss() {
  const std::scoped_lock lock(mu_);
  ++misses_;
}

void SolveCache::record_rejected() {
  const std::scoped_lock lock(mu_);
  ++rejected_;
}

void SolveCache::clear() {
  const std::scoped_lock lock(mu_);
  entries_.clear();
  lru_.clear();
  exact_.clear();
  exact_order_.clear();
  lookups_ = 0;
  hits_ = 0;
  identical_ = 0;
  misses_ = 0;
  rejected_ = 0;
  evicted_ = 0;
}

std::size_t SolveCache::capacity() const {
  const std::scoped_lock lock(mu_);
  return capacity_;
}

void SolveCache::set_capacity(std::size_t capacity) {
  const std::scoped_lock lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  (void)evict_to_capacity_locked();
}

void SolveCache::set_enabled(bool enabled) {
  const std::scoped_lock lock(mu_);
  enabled_ = enabled;
}

bool SolveCache::enabled() const {
  const std::scoped_lock lock(mu_);
  return enabled_;
}

void SolveCache::corrupt_entries_for_test() {
  const std::scoped_lock lock(mu_);
  for (auto& [key, slot] : entries_) {
    auto corrupted = std::make_shared<Entry>(*slot.entry);
    for (Placement& p : corrupted->placements) ++p.cb;
    slot.entry = std::move(corrupted);
  }
  // The tier-1 responses were certified against the pristine entries;
  // drop them so the corruption is observable through the public path.
  exact_.clear();
  exact_order_.clear();
}

std::string exact_graph_bytes(const Csdfg& g) {
  std::ostringstream os;
  os << g.name() << '\n';
  for (NodeId v = 0; v < g.node_count(); ++v)
    os << g.node(v).name << ' ' << g.node(v).time << '\n';
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    os << edge.from << ' ' << edge.to << ' ' << edge.delay << ' '
       << edge.volume << '\n';
  }
  return os.str();
}

std::string exact_solve_key(const Topology& topo, std::uint64_t options_fp,
                            const std::string& graph_bytes) {
  std::ostringstream os;
  os << canonical_topology_key(topo.size(), topo.directed(), topo.links())
     << '|' << std::hex << options_fp << '\n'
     << graph_bytes;
  return os.str();
}

std::string solve_cache_key(const CanonResult& canon, const Topology& topo,
                            std::uint64_t options_fp) {
  std::ostringstream os;
  os << fingerprint_hex(canon.fingerprint) << '|'
     << canonical_topology_key(topo.size(), topo.directed(), topo.links())
     << '|' << std::hex << options_fp;
  return os.str();
}

std::shared_ptr<const SolveCache::Entry> make_cache_entry(
    const SolveRequest& request, const CanonResult& canon,
    const SolveResponse& res) {
  const std::size_t n = request.graph.node_count();
  auto entry = std::make_shared<SolveCache::Entry>();
  entry->canonical_form = canonical_form(request.graph, canon.perm);
  if (res.retiming.size() == n) {
    entry->retiming.resize(n);
    for (NodeId v = 0; v < n; ++v)
      entry->retiming[canon.perm[v]] = res.retiming.of(v);
  }
  entry->placements.resize(n);
  for (NodeId v = 0; v < n; ++v)
    entry->placements[canon.perm[v]] = res.schedule->placement(v);
  entry->table_length = res.schedule->length();
  entry->pe_speeds = res.schedule->pe_speeds();
  entry->pipelined = res.schedule->pipelined_pes();
  entry->startup_length = res.startup_length;
  entry->best_length = res.best_length;
  entry->passes = res.passes;
  entry->stop_reason = res.stop_reason;
  entry->lower_bound = res.lower_bound;
  entry->bound_pass = res.bound_pass;
  entry->attempts = res.attempts;
  entry->winner_attempt = res.winner_attempt;
  entry->winner_label = res.winner_label;
  return entry;
}

bool translate_cached(const SolveCache::Entry& entry,
                      const SolveRequest& request, const CanonResult& canon,
                      const CommModel& comm, SolveResponse& out) {
  const Csdfg& g = request.graph;
  const std::size_t n = g.node_count();
  const SourceSpan span{kCacheSpan, 0};
  try {
    // Never trust the 128-bit key: a hit is only a hit when the canonical
    // forms agree byte for byte.  A mismatch is the fingerprint-collision
    // case the CCS-N003 rule documents — reject before translating.
    if (entry.placements.size() != n ||
        entry.canonical_form != canonical_form(g, canon.perm)) {
      out.diagnostics.add(
          "CCS-N003", span,
          "cache key matched but the canonical forms differ — fingerprint "
          "collision; the entry was ignored");
      return false;
    }
    Retiming retiming(n);
    const bool has_retiming = entry.retiming.size() == n;
    if (has_retiming)
      for (NodeId v = 0; v < n; ++v)
        retiming.set(v, entry.retiming[canon.perm[v]]);
    Csdfg retimed = g;
    if (has_retiming) retiming.apply(retimed);

    ScheduleTable table(retimed, entry.pe_speeds, entry.pipelined);
    for (NodeId v = 0; v < n; ++v) {
      const Placement& p = entry.placements[canon.perm[v]];
      table.place(v, p.pe, p.cb);
    }
    table.set_length(entry.table_length);

    // CCS-S016: the translated table must pass the same first-principles
    // certification a cold solve would — the cache is an index, never an
    // authority.
    DiagnosticBag findings;
    const bool certified =
        certify_table(retimed, table, comm, "solver/cache", findings,
                      request.certify_options);
    for (const Diagnostic& d : findings.diagnostics())
      out.diagnostics.add(d);
    if (!certified) {
      out.diagnostics.add(
          "CCS-S016", span,
          "cached schedule, translated through the inverse permutation "
          "witness, failed first-principles re-certification; the entry "
          "was discarded");
      return false;
    }

    out.graph = std::move(retimed);
    out.retiming = retiming;
    out.schedule.emplace(std::move(table));
    out.startup_length = entry.startup_length;
    out.best_length = entry.best_length;
    out.passes = entry.passes;
    out.stop_reason = entry.stop_reason;
    out.lower_bound = entry.lower_bound;
    out.bound_pass = entry.bound_pass;
    if (out.lower_bound > 0) {
      out.gap = out.best_length - out.lower_bound;
      out.optimal = out.gap == 0;  // entries hold certified answers only
    }
    out.attempts = entry.attempts;
    out.winner_attempt = entry.winner_attempt;
    out.winner_label = entry.winner_label;
    out.certified = true;
    out.status = SolveStatus::kOk;
    return true;
  } catch (const std::exception& e) {
    // Anything the translation machinery rejected (an illegal translated
    // retiming, an overlapping placement, a non-permutation witness) is
    // the same corrupt-entry failure mode as a certification miss.
    std::ostringstream os;
    os << "cached schedule translation failed before certification: "
       << e.what() << "; the entry was discarded";
    out.diagnostics.add("CCS-S016", span, os.str());
    return false;
  }
}

}  // namespace ccs
