#include "engine/portfolio.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <exception>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "analysis/bounds.hpp"
#include "analysis/certify.hpp"
#include "arch/route_cache.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ccs {

namespace {

/// Per-attempt seed: splitmix-style mixing so neighboring attempt indices
/// land far apart in the generator's state space.
std::uint64_t attempt_seed(std::uint64_t seed, std::size_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const char* policy_tag(RemapPolicy p) {
  return p == RemapPolicy::kWithRelaxation ? "relax" : "strict";
}

const char* selection_tag(RemapSelection s) {
  return s == RemapSelection::kBidirectional ? "bidir" : "an-only";
}

const char* priority_tag(PriorityRule r) {
  switch (r) {
    case PriorityRule::kCommunicationSensitive:
      return "pf";
    case PriorityRule::kMobilityOnly:
      return "mobility";
    case PriorityRule::kFifo:
      return "fifo";
  }
  return "?";
}

/// The fields a grid cell is allowed to vary, as a comparable tuple.
using GridCell = std::tuple<RemapPolicy, RemapSelection, PriorityRule, int>;

GridCell cell_of(const CycloCompactionOptions& o) {
  return {o.policy, o.selection, o.startup.priority, o.passes};
}

std::string grid_label(const CycloCompactionOptions& o, int default_passes) {
  std::ostringstream os;
  os << policy_tag(o.policy) << '/' << selection_tag(o.selection) << '/'
     << priority_tag(o.startup.priority) << '/'
     << (o.passes == default_passes ? "z=3v" : "z=v");
  return os.str();
}

/// Lower-case metric suffix of a CCS-B code: "CCS-B001" -> "b001".
std::string bound_metric_suffix(std::string_view code) {
  std::string suffix;
  for (char c : code.substr(code.rfind('-') + 1))
    suffix.push_back(static_cast<char>(std::tolower(c)));
  return suffix;
}

}  // namespace

std::vector<AttemptConfig> portfolio_attempts(const Csdfg& g,
                                              const PortfolioOptions& opt) {
  std::vector<AttemptConfig> roster;
  roster.push_back({opt.base, "base"});

  const int default_passes = opt.base.passes;
  const int v_passes =
      static_cast<int>(std::max<std::size_t>(1, g.node_count()));

  std::set<GridCell> seen{cell_of(opt.base)};
  const RemapPolicy policies[] = {RemapPolicy::kWithRelaxation,
                                  RemapPolicy::kWithoutRelaxation};
  const RemapSelection selections[] = {RemapSelection::kBidirectional,
                                       RemapSelection::kAnticipationOnly};
  const PriorityRule priorities[] = {PriorityRule::kCommunicationSensitive,
                                     PriorityRule::kMobilityOnly,
                                     PriorityRule::kFifo};
  for (const RemapPolicy policy : policies) {
    for (const RemapSelection selection : selections) {
      for (const PriorityRule priority : priorities) {
        for (const int passes : {default_passes, v_passes}) {
          CycloCompactionOptions o = opt.base;
          o.policy = policy;
          o.selection = selection;
          o.startup.priority = priority;
          o.passes = passes;
          if (!seen.insert(cell_of(o)).second) continue;
          roster.push_back({o, grid_label(o, default_passes)});
        }
      }
    }
  }

  const std::size_t target =
      opt.attempts > 0 ? static_cast<std::size_t>(opt.attempts)
                       : roster.size();
  if (target < roster.size()) {
    roster.resize(std::max<std::size_t>(1, target));
    return roster;
  }
  while (roster.size() < target) {
    // Seed-perturbed tail: each attempt's configuration is a pure function
    // of (seed, index), so growing the roster never reshuffles a prefix.
    const std::size_t index = roster.size();
    Rng rng(attempt_seed(opt.seed, index));
    CycloCompactionOptions o = opt.base;
    // Bias toward relaxation, the paper's recommended configuration.
    o.policy = rng.uniform_int(0, 3) == 0 ? RemapPolicy::kWithoutRelaxation
                                          : RemapPolicy::kWithRelaxation;
    o.selection = rng.uniform_int(0, 1) == 0
                      ? RemapSelection::kBidirectional
                      : RemapSelection::kAnticipationOnly;
    const PriorityRule priorities_tail[] = {
        PriorityRule::kCommunicationSensitive, PriorityRule::kMobilityOnly,
        PriorityRule::kFifo};
    o.startup.priority =
        priorities_tail[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    o.passes = rng.uniform_int(v_passes, 3 * v_passes);
    std::ostringstream label;
    label << "seed#" << index << '/' << policy_tag(o.policy) << '/'
          << selection_tag(o.selection) << '/'
          << priority_tag(o.startup.priority) << "/z=" << o.passes;
    roster.push_back({o, label.str()});
  }
  return roster;
}

PortfolioResult portfolio_compact(const GraphFacts& facts,
                                  const Topology& topo, const CommModel& comm,
                                  const PortfolioOptions& opt,
                                  const ObsContext& obs) {
  const Csdfg& g = facts.graph();
  g.require_legal();
  const ObsSpan portfolio_span = obs.span("portfolio");
  // The whole portfolio is one run: its deadline counts from here, once,
  // for every attempt.
  const long long origin_ms = opt.base.budget.start_ms();

  const std::vector<AttemptConfig> roster = portfolio_attempts(g, opt);
  const std::size_t n = roster.size();
  // The invariant composite (analysis/bounds.hpp): sound for any schedule
  // of any legal retiming of g, which is exactly what every attempt
  // produces.  The local composite would over-prune — attempts retime.
  // Built here, before any worker starts: the facts are not thread-safe.
  const CompositeBound bound = compute_bounds(facts, topo, comm, opt.base);
  const int lower_bound = std::max(1, bound.value);

  const bool want_traces = obs.tracing();
  const bool want_metrics = obs.metrics != nullptr;
  const bool want_profile = obs.profiling();
  struct Slot {
    // Each attempt records into its own tracer, registry and profiler so
    // the hot path never contends on the caller's; merged after the join.
    VectorSink sink;
    Tracer tracer{&sink};
    MetricsRegistry metrics;
    SpanProfiler profiler;
    ObsContext obs;
    std::size_t table = 0;  ///< Its start-up table in `tables`.
    std::size_t track = 0;  ///< Its trajectory in `tracks`.
    std::optional<CompactionReading> reading;  ///< Once its read completed.
    std::exception_ptr error;
  };
  std::vector<Slot> slots(n);
  for (std::size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    if (want_metrics) slot.obs.metrics = &slot.metrics;
    if (want_traces) {
      slot.tracer.set_attempt(static_cast<int>(i));
      slot.obs.tracer = &slot.tracer;
    }
    if (want_profile) {
      slot.profiler.set_attempt(static_cast<int>(i));
      slot.obs.profiler = &slot.profiler;
    }
  }

  // One start-up schedule per distinct StartUpOptions (the roster varies
  // only the priority rule, so 3 tables serve 24 attempts), listed by the
  // lowest-indexed attempt using the options under its own obs context.
  // Rules that list equal tables share one entry.
  std::vector<ScheduleTable> tables;
  for (std::size_t i = 0; i < n; ++i) {
    const auto same = std::find_if(
        roster.begin(), roster.begin() + static_cast<std::ptrdiff_t>(i),
        [&](const AttemptConfig& a) {
          return a.options.startup == roster[i].options.startup;
        });
    if (same != roster.begin() + static_cast<std::ptrdiff_t>(i)) {
      slots[i].table =
          slots[static_cast<std::size_t>(same - roster.begin())].table;
      continue;
    }
    ScheduleTable table = start_up_schedule(
        g, topo, comm, roster[i].options.startup, slots[i].obs);
    const auto equal = std::find(tables.begin(), tables.end(), table);
    slots[i].table = static_cast<std::size_t>(equal - tables.begin());
    if (equal == tables.end()) tables.push_back(std::move(table));
  }

  // Attempts with equal start-up tables, policy and selection make the same
  // passes (every attempt inherits the base budget): they share one
  // trajectory, which they read in index order, each extending it only as
  // far as its own pass count needs.
  struct Track {
    std::vector<std::size_t> readers;
    std::optional<CompactionTrajectory> run;
  };
  std::vector<Track> tracks;
  for (std::size_t i = 0; i < n; ++i) {
    const CycloCompactionOptions& o = roster[i].options;
    const auto same =
        std::find_if(tracks.begin(), tracks.end(), [&](const Track& t) {
          const std::size_t r = t.readers.front();
          return slots[r].table == slots[i].table &&
                 roster[r].options.policy == o.policy &&
                 roster[r].options.selection == o.selection;
        });
    slots[i].track = static_cast<std::size_t>(same - tracks.begin());
    if (same == tracks.end()) tracks.emplace_back();
    tracks[slots[i].track].readers.push_back(i);
  }
  for (Track& track : tracks) {
    std::vector<int> reads;
    reads.reserve(track.readers.size());
    for (const std::size_t i : track.readers)
      reads.push_back(roster[i].options.pass_count(g));
    const std::size_t lead = track.readers.front();
    track.run.emplace(g, tables[slots[lead].table], comm,
                      roster[lead].options, origin_ms, lower_bound,
                      std::move(reads));
  }

  // The lowest-indexed attempt whose reading reached the lower bound so far
  // (n: none).  Every later attempt loses the tie-break to it, so it stops
  // or never starts; the rows below report it "preempted" at pass 1.
  std::atomic<std::size_t> at_bound{n};
  const auto read_track = [&](Track& track) {
    std::vector<int> read_at;  // pass counts of the completed readings
    for (const std::size_t i : track.readers) {
      if (at_bound.load() < i) continue;
      Slot& slot = slots[i];
      const int passes = roster[i].options.pass_count(g);
      try {
        bool reached = false;
        {
          const ObsSpan attempt_span = slot.obs.span("portfolio.attempt");
          const ObsSpan compact_span = slot.obs.span("compact");
          reached = track.run->extend(passes, slot.obs,
                                      [&] { return at_bound.load() < i; });
        }
        if (!reached) continue;
        slot.reading = track.run->read(passes);
      } catch (...) {
        slot.error = std::current_exception();
        return;
      }
      read_at.push_back(passes);
      if (slot.reading->best_length <= lower_bound) {
        std::size_t current = at_bound.load();
        while (i < current && !at_bound.compare_exchange_weak(current, i)) {
        }
      }
    }
    track.run->release(read_at);
  };

  // The unit of work is the trajectory: workers take them in order of their
  // lowest-indexed reader.
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t k = next.fetch_add(1); k < tracks.size();
         k = next.fetch_add(1))
      read_track(tracks[k]);
  };
  int jobs = opt.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  const std::size_t pool_size = std::min<std::size_t>(
      static_cast<std::size_t>(jobs), tracks.size());
  if (pool_size <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (std::size_t w = 0; w < pool_size; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // First failure by attempt index wins the rethrow — deterministic even
  // when several attempts failed in parallel.
  for (const Slot& slot : slots)
    if (slot.error) std::rethrow_exception(slot.error);

  // Merge worker observability into the caller's context in attempt order,
  // so the merged stream and counters are independent of completion order.
  for (Slot& slot : slots) {
    if (want_metrics) obs.metrics->merge(slot.metrics);
    if (want_traces)
      for (const std::string& line : slot.sink.lines())
        obs.tracer->emit_raw(line);
    if (want_profile) obs.profiler->absorb(slot.profiler);
  }

  // The rows are the readings up to the first attempt at the bound; every
  // later one reads "preempted" at pass 1, with its start-up length, however
  // far a worker got with it.  So the rows do not depend on --jobs.
  const std::size_t first_at_bound = at_bound.load();
  std::vector<AttemptOutcome> attempts(n);
  for (std::size_t i = 0; i < n; ++i) {
    AttemptOutcome& row = attempts[i];
    row.label = roster[i].label;
    row.startup_length = tables[slots[i].table].length();
    row.length = row.startup_length;
    row.stop_reason = "preempted";
    if (i <= first_at_bound) {
      CCS_ASSERT(slots[i].reading.has_value());
      const CompactionReading& reading = *slots[i].reading;
      row.length = reading.best_length;
      row.best_pass = reading.best_pass;
      row.stop_reason = reading.stop_reason;
      row.remap_slots_scanned = reading.remap_stats.slots_scanned;
      row.an_evaluations = reading.remap_stats.an_evaluations;
    }
    row.pruned = row.stop_reason == "preempted";
  }

  // The winner: smallest best length, ties to the smallest attempt index.
  std::size_t winner_index = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (attempts[i].length < attempts[winner_index].length) winner_index = i;
  attempts[winner_index].winner = true;

  // Only the winner is materialized.  With a sound bound nothing after the
  // first attempt at the bound can beat it, so the winner is a reading.
  CCS_ASSERT(winner_index <= first_at_bound);
  PortfolioResult result{
      tracks[slots[winner_index].track].run->result(
          roster[winner_index].options.pass_count(g)),
      winner_index,
      roster[winner_index].label,
      attempts[0].length,
      lower_bound,
      bound,
      true,
      {},
      std::move(attempts)};

  CCS_ENSURES(result.winner.best.length() <= result.serial_length);

  if (opt.certify_winner) {
    result.certified = certify_compaction_run(
        facts, result.winner, comm, roster[winner_index].options.policy,
        "portfolio/" + result.winner_label, {}, result.certification);
    result.certification.finalize();
  }

  obs.count("portfolio.attempts", static_cast<long long>(n));
  long long pruned = 0;
  for (const AttemptOutcome& row : result.attempts)
    if (row.pruned) ++pruned;
  if (pruned > 0) obs.count("portfolio.pruned", pruned);
  if (want_metrics) {
    obs.metrics->set("portfolio.jobs", static_cast<double>(jobs));
    obs.metrics->set("portfolio.winner_attempt",
                     static_cast<double>(winner_index));
    obs.metrics->set("portfolio.winner_length",
                     static_cast<double>(result.winner.best.length()));
    obs.metrics->set("portfolio.serial_length",
                     static_cast<double>(result.serial_length));
    obs.metrics->set("portfolio.lower_bound",
                     static_cast<double>(lower_bound));
    // Per-pass provenance: which derivation produced which floor.
    for (const BoundResult& part : bound.parts)
      obs.metrics->set("portfolio.bound." + bound_metric_suffix(part.code),
                       static_cast<double>(part.value));
    obs.metrics->set("portfolio.bound.local",
                     static_cast<double>(bound.local_value));
    obs.metrics->set(
        "portfolio.gap",
        static_cast<double>(result.winner.best.length() - lower_bound));
    // The winner's remap cost is deterministic across --jobs (preemption
    // only ever stops attempts that provably lose the tie-break).
    obs.metrics->set(
        "portfolio.winner_slots_scanned",
        static_cast<double>(result.winner.remap_stats.slots_scanned));
    obs.metrics->set(
        "portfolio.winner_an_evaluations",
        static_cast<double>(result.winner.remap_stats.an_evaluations));
    const RouteCache::Stats rc = RouteCache::global().stats();
    obs.metrics->set("portfolio.route_cache.hits",
                     static_cast<double>(rc.hits));
    obs.metrics->set("portfolio.route_cache.misses",
                     static_cast<double>(rc.misses));
  }

  return result;
}

}  // namespace ccs
