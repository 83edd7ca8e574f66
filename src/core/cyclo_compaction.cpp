#include "core/cyclo_compaction.hpp"

#include <algorithm>
#include <utility>

#include "util/contracts.hpp"

namespace ccs {

namespace {

/// A saved schedule as a table on the start-up table's machine.
ScheduleTable materialize(const Csdfg& g, const ScheduleTable& startup,
                          const FlatSchedule& saved) {
  ScheduleTable t(g, startup.pe_speeds(), startup.pipelined_pes());
  for (NodeId v = 0; v < saved.pe.size(); ++v)
    t.place(v, saved.pe[v], saved.cb[v]);
  t.set_length(saved.length);
  return t;
}

}  // namespace

int CycloCompactionOptions::pass_count(const Csdfg& g) const {
  return passes > 0 ? passes
                    : 3 * static_cast<int>(
                              std::max<std::size_t>(1, g.node_count()));
}

CycloCompactionResult cyclo_compact(const Csdfg& g, const Topology& topo,
                                    const CommModel& comm,
                                    const CycloCompactionOptions& options,
                                    const ObsContext& obs) {
  g.require_legal();
  const ObsSpan run_span = obs.span("compact");
  const ScheduleTable startup =
      start_up_schedule(g, topo, comm, options.startup, obs);
  return cyclo_compact_from(g, startup, comm, options, obs);
}

CycloCompactionResult cyclo_compact_from(const Csdfg& g,
                                         const ScheduleTable& startup,
                                         const CommModel& comm,
                                         const CycloCompactionOptions& options,
                                         const ObsContext& obs) {
  const int passes = options.pass_count(g);
  CompactionTrajectory run(g, startup, comm, options,
                           options.budget.start_ms(), 0, {passes});
  run.extend(passes, obs);
  return run.result(passes);
}

CompactionTrajectory::CompactionTrajectory(
    const Csdfg& g, const ScheduleTable& startup, const CommModel& comm,
    const CycloCompactionOptions& options, long long origin_ms, int floor,
    std::vector<int> reads)
    : g_(&g),
      startup_(&startup),
      comm_(&comm),
      policy_(options.policy),
      selection_(options.selection),
      budget_(options.budget),
      origin_ms_(origin_ms),
      floor_(floor),
      reads_(std::move(reads)) {
  CCS_EXPECTS(startup.node_count() == g.node_count());
  CCS_EXPECTS(startup.complete());
  std::sort(reads_.begin(), reads_.end());
}

int CompactionTrajectory::best_length() const {
  return best_.pass > 0 ? best_.table.length : startup_->length();
}

const char* CompactionTrajectory::stop_reason(int pass) const {
  // Every condition is evaluated at pass boundaries, so a budgeted run is a
  // deterministic prefix of the unbudgeted one (given a deterministic
  // clock).
  if (budget_.max_passes > 0 && pass > budget_.max_passes)
    return "max-passes";
  if (budget_.deadline_ms > 0 &&
      budget_.deadline_clock().now_ms() - origin_ms_ >= budget_.deadline_ms)
    return "deadline";
  if (budget_.patience > 0 && stale_ >= budget_.patience) return "patience";
  if (budget_.stop != nullptr && budget_.stop->stop_requested(best_length()))
    return "preempted";
  if (floor_ > 0 && best_length() <= floor_) return "preempted";
  return nullptr;
}

bool CompactionTrajectory::extend(int passes, const ObsContext& obs,
                                  const std::function<bool()>& yield) {
  CCS_EXPECTS(!released_);
  while (!ended_ && static_cast<int>(passes_.size()) < passes) {
    const int pass = static_cast<int>(passes_.size()) + 1;
    const char* reason = stop_reason(pass);
    const bool yielded = reason == nullptr && yield && yield();
    if (reason != nullptr || yielded) {
      obs.count("compaction.budget_stops");
      obs.emit(BudgetEvent{yielded ? "preempted" : reason, pass,
                           best_length()});
      if (yielded) return false;
      ended_ = true;
      end_reason_ = reason;
      break;
    }
    run_pass(pass, obs);
  }
  return true;
}

void CompactionTrajectory::run_pass(int pass, const ObsContext& obs) {
  const int previous_length = engine_ ? engine_->length() : startup_->length();
  if (previous_length <= 0) {  // An empty body: nothing to rotate.
    ended_ = true;
    return;
  }
  // The engine owns the working graph, retiming, and placements; each pass
  // is rotate / remap / commit, and a failed pass rolls back.  It is built
  // at the first pass that runs, so a run stopped before pass 1 builds none.
  if (!engine_) {
    engine_.emplace(*g_, *comm_);
    engine_->bind(*startup_);
  }
  const ObsSpan pass_span = obs.span("compact.pass");
  obs.count("compaction.passes");
  obs.emit(PassStartEvent{pass, previous_length});

  const std::vector<NodeId> rotated = engine_->rotate();
  if (obs.metrics != nullptr)
    obs.metrics->add("rotation.nodes", static_cast<long long>(rotated.size()));
  if (obs.tracing()) obs.emit(RotationEvent{pass, rotated});

  const std::optional<int> remapped =
      engine_->remap(rotated, previous_length, policy_, selection_, obs);
  if (!remapped) {
    // Without relaxation a pass that cannot keep the length is abandoned;
    // the configuration would repeat forever, so the run ends (the paper:
    // "the remapping phase does not occur in this case").
    engine_->rollback();
    passes_.push_back({previous_length, best_.pass, engine_->stats()});
    ended_ = true;
    obs.count("compaction.rollbacks");
    obs.emit(RollbackEvent{pass, previous_length,
                           "no-placement-within-previous-length"});
    return;
  }

  engine_->commit();
  const bool improved = *remapped < best_length();
  if (improved) {
    // The best-so-far stays flat (placements plus retiming) and is
    // materialized only when read.  A read between the superseded best and
    // this pass still reads the superseded one, so it is kept for it.
    const auto next_read =
        std::lower_bound(reads_.begin(), reads_.end(), best_.pass);
    if (best_.pass > 0 && next_read != reads_.end() && *next_read < pass)
      kept_.push_back(std::move(best_));
    engine_->save(best_.table);
    best_.retiming = engine_->retiming();
    best_.pass = pass;
    stale_ = 0;
    obs.count("compaction.improved_passes");
  } else {
    ++stale_;
  }
  passes_.push_back({*remapped, best_.pass, engine_->stats()});
  obs.emit(PassEndEvent{pass, *remapped, improved, best_length()});
}

int CompactionTrajectory::passes_read(int passes) const {
  CCS_EXPECTS(ended_ || static_cast<int>(passes_.size()) >= passes);
  return std::min(passes, static_cast<int>(passes_.size()));
}

CompactionReading CompactionTrajectory::read(int passes) const {
  const int ran = passes_read(passes);
  CompactionReading reading;
  if (ran > 0) {
    const Pass& last = passes_[static_cast<std::size_t>(ran) - 1];
    reading.best_pass = last.best_pass;
    reading.remap_stats = last.stats;
  }
  reading.best_length =
      reading.best_pass > 0
          ? passes_[static_cast<std::size_t>(reading.best_pass) - 1].length
          : startup_->length();
  // A run configured for fewer passes than the trajectory ran never reaches
  // the boundary where it stopped.
  if (passes > ran) reading.stop_reason = end_reason_;
  return reading;
}

const CompactionTrajectory::Best& CompactionTrajectory::best_at(
    int pass) const {
  if (best_.pass == pass) return best_;
  const auto kept = std::find_if(kept_.begin(), kept_.end(),
                                 [&](const Best& b) { return b.pass == pass; });
  CCS_EXPECTS(kept != kept_.end());  // a read not listed in `reads`
  return *kept;
}

CycloCompactionResult CompactionTrajectory::result(int passes) const {
  const CompactionReading reading = read(passes);
  CycloCompactionResult result{*g_,
                               Retiming(g_->node_count()),
                               *startup_,
                               *startup_,
                               {},
                               reading.best_pass,
                               reading.stop_reason,
                               reading.remap_stats};
  const int ran = passes_read(passes);
  result.length_trace.reserve(static_cast<std::size_t>(ran));
  for (int i = 0; i < ran; ++i)
    result.length_trace.push_back(passes_[static_cast<std::size_t>(i)].length);
  if (reading.best_pass > 0) {
    // The retimed graph follows from the retiming: d_r(e) = d(e) + r(u) -
    // r(v), exactly the delays the engine carried at the winning pass.
    const Best& best = best_at(reading.best_pass);
    result.best = materialize(*g_, *startup_, best.table);
    result.retiming = best.retiming;
    result.retiming.apply(result.retimed_graph);
  }
  CCS_ENSURES(result.best.length() == reading.best_length);
  CCS_ENSURES(result.best.length() <= startup_->length());
  return result;
}

void CompactionTrajectory::release(const std::vector<int>& keep) {
  engine_.reset();
  released_ = true;
  std::vector<int> needed;
  needed.reserve(keep.size());
  for (const int passes : keep) needed.push_back(read(passes).best_pass);
  const auto unneeded = [&](const Best& b) {
    return std::find(needed.begin(), needed.end(), b.pass) == needed.end();
  };
  std::erase_if(kept_, unneeded);
  if (unneeded(best_)) best_ = {};
}

}  // namespace ccs
