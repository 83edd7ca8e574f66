#include "robust/repair.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "arch/comm_model.hpp"
#include "core/list_scheduler.hpp"
#include "core/remap_engine.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ccs {

namespace {

/// A rung's candidate: the table plus the graph/retiming it satisfies.
struct Candidate {
  ScheduleTable table;
  Csdfg graph;
  Retiming retiming;
};

/// Projects the original machine's per-PE speeds onto the survivors.
std::vector<int> project_speeds(const std::vector<int>& speeds,
                                const std::vector<PeId>& to_original) {
  std::vector<int> out;
  out.reserve(to_original.size());
  for (PeId p : to_original) out.push_back(speeds[p]);
  return out;
}

}  // namespace

ReducedMachine reduce_machine(const Topology& topo, const FaultPlan& plan) {
  ReducedMachine rm;
  std::vector<bool> is_dead(topo.size(), false);
  for (PeId p : plan.dead_pes())
    if (p < topo.size()) is_dead[p] = true;

  rm.from_original.assign(topo.size(), kNoPe);
  for (PeId p = 0; p < topo.size(); ++p) {
    if (is_dead[p]) continue;
    rm.from_original[p] = rm.to_original.size();
    rm.to_original.push_back(p);
  }
  if (rm.to_original.empty()) return rm;

  std::set<std::pair<PeId, PeId>> cut;
  for (const auto& [a, b] : plan.dead_links()) cut.insert({a, b});

  std::vector<std::pair<PeId, PeId>> links;
  for (const auto& [a, b] : topo.links()) {
    if (is_dead[a] || is_dead[b]) continue;
    if (cut.count({std::min(a, b), std::max(a, b)}) != 0) continue;
    links.emplace_back(rm.from_original[a], rm.from_original[b]);
  }

  try {
    rm.topo.emplace(rm.to_original.size(), std::move(links), topo.directed(),
                    topo.name() + "/reduced");
    rm.connected = true;
  } catch (const ArchitectureError&) {
    // The survivors do not form a connected machine; only the serial rung
    // can save this plan.
    rm.topo.reset();
    rm.connected = false;
  }
  return rm;
}

std::string_view repair_rung_name(RepairRung rung) {
  switch (rung) {
    case RepairRung::kRemap: return "remap";
    case RepairRung::kRecompactRelax: return "recompact-relax";
    case RepairRung::kRecompactStrict: return "recompact-strict";
    case RepairRung::kListSchedule: return "list-schedule";
    case RepairRung::kSerial: return "serial";
    case RepairRung::kInfeasible: return "infeasible";
  }
  return "infeasible";
}

RepairOutcome repair_schedule(const Csdfg& g, const RepairBaseline& baseline,
                              const Topology& topo, const FaultPlan& plan,
                              const RepairOptions& options,
                              const ObsContext& obs) {
  g.require_legal();
  CCS_EXPECTS(baseline.table.num_pes() == topo.size());
  const ObsSpan repair_span = obs.span("repair");
  const std::vector<int>& pe_speeds = baseline.table.pe_speeds();
  const bool pipelined = baseline.table.pipelined_pes();

  RepairOutcome out;
  out.graph = g;
  out.retiming = Retiming(g.node_count());

  const ReducedMachine rm = reduce_machine(topo, plan);

  // Orphans: tasks whose baseline placement died with its processor (plus,
  // defensively, anything the baseline never placed).
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (!baseline.table.is_placed(v)) {
      out.orphans.push_back(v);
      continue;
    }
    const PeId p = baseline.table.pe(v);
    if (p >= rm.from_original.size() || rm.from_original[p] == kNoPe)
      out.orphans.push_back(v);
  }

  const auto record = [&](RepairRung rung, bool ok, int length,
                          const std::string& detail) {
    obs.count("repair.attempts");
    obs.emit(RepairEvent{std::string(repair_rung_name(rung)), ok, length,
                         detail});
    out.attempts.push_back(std::string(repair_rung_name(rung)) + ": " +
                           detail);
  };

  const auto accept = [&](RepairRung rung, Candidate cand,
                          const Topology& machine,
                          std::vector<PeId> to_original, std::string detail) {
    record(rung, true, cand.table.length(), detail);
    out.rung = rung;
    out.success = true;
    out.schedule = std::move(cand.table);
    out.machine = machine;
    out.to_original = std::move(to_original);
    out.graph = std::move(cand.graph);
    out.retiming = std::move(cand.retiming);
    out.detail = std::move(detail);
    obs.count("repair.successes");
  };

  // Certifies a candidate from first principles; on failure appends a rung
  // attempt line carrying the error count.
  const auto certify_failure_detail = [](const DiagnosticBag& bag) {
    std::ostringstream os;
    os << "candidate failed certification (" << bag.count(Severity::kError)
       << " error(s))";
    return os.str();
  };

  if (rm.connected) {
    const StoreAndForwardModel comm(*rm.topo);
    const std::vector<int> speeds =
        project_speeds(pe_speeds, rm.to_original);

    // --- rung 0: keep the survivors, remap only the orphans ---------------
    {
      const ObsSpan rung_span = obs.span("repair.remap");
      ScheduleTable base(baseline.graph, speeds, pipelined);
      std::vector<bool> orphaned(g.node_count(), false);
      for (NodeId v : out.orphans) orphaned[v] = true;
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (orphaned[v]) continue;
        base.place(v, rm.from_original[baseline.table.pe(v)],
                   baseline.table.cb(v));
      }
      base.set_length(std::max(baseline.table.length(),
                               base.occupied_length()));
      RemapEngine engine(baseline.graph, comm);
      engine.bind(base);

      bool rung_recorded = false;
      const int start_target = base.length();
      for (int slack = 0; slack <= options.max_remap_slack; ++slack) {
        const std::optional<int> length =
            engine.place(out.orphans, start_target + slack,
                         RemapSelection::kBidirectional, obs);
        if (!length) continue;

        DiagnosticBag bag;
        Candidate cand{engine.table(), baseline.graph,
                       baseline.retiming};
        if (certify_table(cand.graph, cand.table, comm, "repair/remap", bag,
                          options.certify)) {
          std::ostringstream os;
          os << "re-placed " << out.orphans.size() << " orphan task(s) on "
             << rm.survivors() << " survivor(s), length "
             << cand.table.length();
          accept(RepairRung::kRemap, std::move(cand), *rm.topo,
                 rm.to_original, os.str());
        } else {
          // The violation involves the frozen survivor placements; a longer
          // target cannot fix those, so fall through to recompaction.
          bag.finalize();
          record(RepairRung::kRemap, false, *length,
                 certify_failure_detail(bag));
        }
        rung_recorded = true;
        break;
      }
      if (!rung_recorded)
        record(RepairRung::kRemap, false, 0,
               "no placement for " + std::to_string(out.orphans.size()) +
                   " orphan(s) within " +
                   std::to_string(options.max_remap_slack) +
                   " steps of slack");
    }

    // --- rungs 1 + 2: recompact from scratch on the reduced machine -------
    const std::pair<RepairRung, RemapPolicy> recompact[] = {
        {RepairRung::kRecompactRelax, RemapPolicy::kWithRelaxation},
        {RepairRung::kRecompactStrict, RemapPolicy::kWithoutRelaxation},
    };
    for (const auto& [rung, policy] : recompact) {
      if (out.success) break;
      const ObsSpan rung_span =
          obs.span(std::string("repair.") +
                   std::string(repair_rung_name(rung)));
      CycloCompactionOptions copts = options.compaction;
      copts.policy = policy;
      copts.startup.pipelined_pes = pipelined;
      copts.startup.pe_speeds = speeds;
      const CycloCompactionResult rerun =
          cyclo_compact(g, *rm.topo, comm, copts, obs);

      DiagnosticBag bag;
      Candidate cand{rerun.best, rerun.retimed_graph, rerun.retiming};
      if (certify_table(cand.graph, cand.table, comm,
                        std::string("repair/") +
                            std::string(repair_rung_name(rung)),
                        bag, options.certify)) {
        std::ostringstream os;
        os << "recompacted on " << rm.survivors() << " survivor(s), length "
           << cand.table.length() << " (best pass " << rerun.best_pass << ")";
        accept(rung, std::move(cand), *rm.topo, rm.to_original, os.str());
      } else {
        bag.finalize();
        record(rung, false, cand.table.length(),
               certify_failure_detail(bag));
      }
    }

    // --- rung 3: plain start-up schedule, no compaction -------------------
    if (!out.success) {
      const ObsSpan rung_span = obs.span("repair.list-schedule");
      StartUpOptions sopts = options.compaction.startup;
      sopts.pipelined_pes = pipelined;
      sopts.pe_speeds = speeds;
      sopts.comm_aware = true;
      ScheduleTable table = start_up_schedule(g, *rm.topo, comm, sopts, obs);

      DiagnosticBag bag;
      Candidate cand{std::move(table), g, Retiming(g.node_count())};
      if (certify_table(cand.graph, cand.table, comm, "repair/list-schedule",
                        bag, options.certify)) {
        std::ostringstream os;
        os << "start-up schedule on " << rm.survivors()
           << " survivor(s), length " << cand.table.length();
        accept(RepairRung::kListSchedule, std::move(cand), *rm.topo,
               rm.to_original, os.str());
      } else {
        bag.finalize();
        record(RepairRung::kListSchedule, false, cand.table.length(),
               certify_failure_detail(bag));
      }
    }
  } else if (rm.survivors() > 0) {
    out.attempts.push_back(
        "survivors disconnected: only the serial rung is available");
  }

  // --- rung 4: serialize everything on one surviving processor ------------
  if (!out.success && rm.survivors() > 0) {
    const ObsSpan rung_span = obs.span("repair.serial");
    const PeId host = rm.to_original.front();
    const Topology serial(1, {}, false,
                          "serial(p" + std::to_string(host) + ")");
    const StoreAndForwardModel comm(serial);
    StartUpOptions sopts = options.compaction.startup;
    sopts.pipelined_pes = pipelined;
    sopts.pe_speeds = {pe_speeds[host]};
    sopts.comm_aware = true;
    ScheduleTable table = start_up_schedule(g, serial, comm, sopts, obs);

    DiagnosticBag bag;
    Candidate cand{std::move(table), g, Retiming(g.node_count())};
    if (certify_table(cand.graph, cand.table, comm, "repair/serial", bag,
                      options.certify)) {
      std::ostringstream os;
      os << "all tasks serialized on p" << host << ", length "
         << cand.table.length();
      accept(RepairRung::kSerial, std::move(cand), serial, {host}, os.str());
    } else {
      bag.finalize();
      record(RepairRung::kSerial, false, cand.table.length(),
             certify_failure_detail(bag));
    }
  }

  if (!out.success) {
    out.detail = rm.survivors() == 0
                     ? "every processor fails: no machine survives the plan"
                     : "no rung produced a certifiable schedule";
    obs.count("repair.infeasible");
  }
  return out;
}

}  // namespace ccs
