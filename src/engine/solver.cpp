#include "engine/solver.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "analysis/bounds.hpp"
#include "arch/comm_model.hpp"
#include "engine/solve_cache.hpp"
#include "core/list_scheduler.hpp"
#include "core/modulo_scheduler.hpp"
#include "core/validator.hpp"
#include "io/text_format.hpp"
#include "robust/fault_plan.hpp"
#include "robust/repair.hpp"
#include "util/error.hpp"

namespace ccs {

namespace {

constexpr const char* kRequestSpan = "<request>";

void add_invalid(DiagnosticBag& bag, const std::string& message) {
  bag.add("CCS-E001", SourceSpan{kRequestSpan, 0}, message);
}

void add_infeasible(DiagnosticBag& bag, const std::string& message) {
  bag.add("CCS-E002", SourceSpan{kRequestSpan, 0}, message);
}

/// Certification outcome into the response: downgrades kOk to kUncertified
/// (never upgrades).  The certifier's findings land in the response bag.
void record_certification(bool certified, SolveResponse& res) {
  res.certified = certified;
  if (!certified && res.status == SolveStatus::kOk)
    res.status = SolveStatus::kUncertified;
}

/// Fills the response from a compaction run (kSchedule, the portfolio
/// winner), moving the table out, and sets the `schedule.*` gauges
/// (docs/OBSERVABILITY.md).
void take_run(const ObsContext& obs, CycloCompactionResult& run,
              SolveResponse& res) {
  if (obs.metrics != nullptr) {
    obs.metrics->set("schedule.startup_length", run.startup_length());
    obs.metrics->set("schedule.best_length", run.best_length());
    obs.metrics->set("schedule.best_pass", run.best_pass);
    obs.metrics->set("schedule.remap_slots_scanned",
                     static_cast<double>(run.remap_stats.slots_scanned));
    obs.metrics->set("schedule.an_evaluations",
                     static_cast<double>(run.remap_stats.an_evaluations));
  }
  res.graph = run.retimed_graph;
  res.retiming = run.retiming;
  res.startup_length = run.startup_length();
  res.best_length = run.best_length();
  res.passes = static_cast<int>(run.length_trace.size());
  res.stop_reason = run.stop_reason;
  res.remap_slots_scanned = run.remap_stats.slots_scanned;
  res.an_evaluations = run.remap_stats.an_evaluations;
  res.schedule.emplace(std::move(run.best));
  res.status = SolveStatus::kOk;
}

void solve_startup(const SolveRequest& request, const GraphFacts& facts,
                   const Topology& topo, const CommModel& comm,
                   const ObsContext& obs, SolveResponse& res) {
  res.schedule.emplace(
      start_up_schedule(request.graph, topo, comm, request.options.startup,
                        obs));
  res.startup_length = res.schedule->length();
  res.best_length = res.schedule->length();
  res.status = SolveStatus::kOk;
  record_certification(
      !request.certify ||
          certify_table(facts, *res.schedule, comm, "solver/startup",
                        res.diagnostics, request.certify_options),
      res);
}

void solve_schedule(const SolveRequest& request, const GraphFacts& facts,
                    const Topology& topo, const CommModel& comm,
                    const ObsContext& obs, SolveResponse& res) {
  CycloCompactionResult run =
      cyclo_compact(request.graph, topo, comm, request.options, obs);
  // The whole run is audited: retiming provenance, Theorem 4.4 monotonicity
  // and both tables.
  const bool certified =
      !request.certify ||
      certify_compaction_run(facts, run, comm, request.options.policy,
                             "solver/schedule", request.certify_options,
                             res.diagnostics);
  take_run(obs, run, res);
  record_certification(certified, res);
}

void solve_modulo(const SolveRequest& request, const Topology& topo,
                  const CommModel& comm, SolveResponse& res) {
  if (!request.options.startup.pe_speeds.empty())
    throw Error("mode kModulo does not support per-PE speeds");
  if (request.options.startup.pipelined_pes)
    throw Error("mode kModulo does not support pipelined PEs");
  ModuloScheduleResult mod = modulo_schedule(request.graph, topo, comm);
  res.graph = std::move(mod.retimed_graph);
  res.retiming = mod.retiming;
  res.startup_length = mod.initiation_interval;
  res.best_length = mod.table.length();
  res.schedule.emplace(std::move(mod.table));
  res.status = SolveStatus::kOk;
  record_certification(
      !request.certify ||
          certify_table(res.graph, *res.schedule, comm, "solver/modulo",
                        res.diagnostics, request.certify_options),
      res);
}

void solve_portfolio(const SolveRequest& request, const GraphFacts& facts,
                     const Topology& topo, const CommModel& comm,
                     const ObsContext& obs, SolveResponse& res) {
  PortfolioOptions popt = request.portfolio;
  popt.base = request.options;
  popt.certify_winner = request.certify;
  PortfolioResult portfolio = portfolio_compact(facts, topo, comm, popt, obs);
  take_run(obs, portfolio.winner, res);
  res.attempts = std::move(portfolio.attempts);
  res.winner_attempt = static_cast<int>(portfolio.winner_attempt);
  res.winner_label = portfolio.winner_label;
  for (const Diagnostic& d : portfolio.certification.diagnostics())
    res.diagnostics.add(d);
  record_certification(!request.certify || portfolio.certified, res);
}

void solve_certify(const SolveRequest& request, const GraphFacts& facts,
                   const Topology& topo, const CommModel& comm,
                   SolveResponse& res) {
  if (!request.schedule.has_value())
    throw Error("mode kCertify needs request.schedule");
  res.schedule = request.schedule;
  res.best_length = res.schedule->length();
  if (res.schedule->num_pes() != topo.size()) {
    // As certify_schedule: the machine cannot price a table built for
    // another processor count.
    res.diagnostics.add("CCS-S001", SourceSpan{"solver/certify", 0},
                        "schedule declares " +
                            std::to_string(res.schedule->num_pes()) +
                            " processor(s) but architecture '" + topo.name() +
                            "' has " + std::to_string(topo.size()));
    res.status = SolveStatus::kUncertified;
    return;
  }
  res.certified = certify_table(facts, *request.schedule, comm,
                                "solver/certify", res.diagnostics,
                                request.certify_options);
  res.status = res.certified ? SolveStatus::kOk : SolveStatus::kUncertified;
}

void solve_repair(const SolveRequest& request, const Topology& topo,
                  const CommModel& comm, const ObsContext& obs,
                  SolveResponse& res) {
  const FaultSpec spec =
      parse_fault_spec(request.faults, kRequestSpan, res.diagnostics);
  const FaultPlan plan =
      bind_fault_spec(spec, request.graph, topo, res.diagnostics);
  if (res.diagnostics.fails(/*werror=*/false)) {
    // Syntax / binding problems are already coded CCS-F001/F002; tag the
    // request itself so the caller sees one consistent failure mode.
    add_invalid(res.diagnostics, "the fault spec did not parse cleanly");
    return;
  }
  const CycloCompactionResult baseline =
      cyclo_compact(request.graph, topo, comm, request.options, obs);
  res.remap_slots_scanned = baseline.remap_stats.slots_scanned;
  res.an_evaluations = baseline.remap_stats.an_evaluations;
  RepairOptions ropt;
  ropt.compaction = request.options;
  ropt.certify = request.certify_options;
  RepairOutcome outcome = repair_schedule(
      request.graph,
      {baseline.retimed_graph, baseline.best, baseline.retiming}, topo, plan,
      ropt, obs);
  res.repair_rung = std::string(repair_rung_name(outcome.rung));
  if (!outcome.success) {
    add_infeasible(res.diagnostics,
                   "repair found no certified schedule: " + outcome.detail);
    res.status = SolveStatus::kInfeasible;
    return;
  }
  res.graph = std::move(outcome.graph);
  res.retiming = outcome.retiming;
  res.schedule = std::move(outcome.schedule);
  res.machine = std::move(outcome.machine);
  res.pe_map = std::move(outcome.to_original);
  res.best_length = res.schedule->length();
  res.certified = true;  // Every accepted rung is certified by the ladder.
  res.status = SolveStatus::kOk;
}

/// One cacheable probe against the process-global SolveCache; true on a
/// hit, with `res` the full served response (cache_hit set).  Exactly one
/// of hit/miss/rejected is recorded per probe, so the cache stats identity
/// hits + misses + rejected == lookups holds under any interleaving.
bool probe_cache(const SolveRequest& request, const Topology& topo,
                 const CommModel& comm, const ObsContext& obs,
                 SolveResponse& res) {
  SolveCache& cache = SolveCache::global();
  cache.record_lookup();
  const std::uint64_t options_fp = options_fingerprint(request);
  const std::string exact_key =
      exact_solve_key(topo, options_fp, exact_graph_bytes(request.graph));
  // Tier 1: a byte-identical resubmission replays the response this
  // process already certified for exactly these bytes (memoization of
  // a deterministic function — no new trust, and no canonicalization:
  // the fast path is a serialization plus a map probe).
  if (const auto served = cache.lookup_exact(exact_key)) {
    res = *served;  // fingerprint replayed with the rest
    res.machine = topo;  // same structure; the caller's name may differ
    res.cache_hit = true;
    cache.record_hit();
    cache.record_identical();
    obs.count("cache.hit");
    obs.count("cache.hit.identical");
    return true;
  }
  CanonResult canon;
  {
    const ObsSpan lookup_span = obs.span("cache.lookup");
    canon = canonicalize(request.graph);
  }
  res.fingerprint = fingerprint_hex(canon.fingerprint);
  const auto entry = cache.lookup(solve_cache_key(canon, topo, options_fp));
  if (entry == nullptr) {
    cache.record_miss();
    obs.count("cache.miss");
    return false;
  }
  // Tier 2: an isomorphic resubmission — translate through the witness
  // and re-certify from first principles (CCS-S016).
  SolveResponse candidate;
  candidate.machine = topo;
  candidate.fingerprint = res.fingerprint;
  bool translated = false;
  {
    const ObsSpan translate_span = obs.span("cache.translate");
    translated = translate_cached(*entry, request, canon, comm, candidate);
  }
  if (!translated) {
    // The rejection reasons live in the discarded candidate's bag
    // (CCS-N003 / CCS-S016); the caller's cold solve answers as if the
    // entry never existed, but the probe's outcome stays "rejected".
    cache.record_rejected();
    obs.count("cache.reject");
    return false;
  }
  cache.record_hit();
  obs.count("cache.hit");
  candidate.cache_hit = true;
  res = std::move(candidate);
  cache.remember_exact(exact_key, std::make_shared<SolveResponse>(res));
  return true;
}

/// The request's machine: `topology` when set, else `arch` parsed.  Throws
/// the errors solve() reports as CCS-E001.
Topology resolve_topology(const SolveRequest& request) {
  if (request.topology.has_value()) return *request.topology;
  if (request.arch.empty())
    throw Error("no machine: set request.arch or request.topology");
  return parse_topology(request.arch);
}

}  // namespace

std::string_view solve_status_name(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOk:
      return "ok";
    case SolveStatus::kInvalidRequest:
      return "invalid-request";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUncertified:
      return "uncertified";
  }
  return "?";
}

SolveResponse Solver::solve(const SolveRequest& request) const {
  SolveResponse res;
  res.graph = request.graph;
  res.retiming = Retiming(request.graph.node_count());
  // The request graph's facts, shared by every stage of the solve below.
  const GraphFacts facts(request.graph);
  try {
    request.graph.require_legal();
    // One row per control step: a task longer than the cap could only be
    // scheduled into a table no schedule reader accepts, and the list
    // scheduler would walk every one of its steps first.
    for (NodeId v = 0; v < request.graph.node_count(); ++v) {
      const Node& node = request.graph.node(v);
      if (node.time > kMaxScheduleLength)
        throw Error("task '" + node.name + "' takes " +
                    std::to_string(node.time) + " control steps, over the " +
                    std::to_string(kMaxScheduleLength) +
                    "-step schedule limit");
    }
    const Topology topo = resolve_topology(request);
    const StoreAndForwardModel comm(topo);
    if (!request.options.startup.pe_speeds.empty() &&
        request.options.startup.pe_speeds.size() != topo.size())
      throw Error("pe_speeds must list one factor per processor");
    res.machine = topo;

    switch (request.mode) {
      case SolveMode::kStartup:
        solve_startup(request, facts, topo, comm, obs_, res);
        break;
      case SolveMode::kSchedule:
        solve_schedule(request, facts, topo, comm, obs_, res);
        break;
      case SolveMode::kModulo:
        solve_modulo(request, topo, comm, res);
        break;
      case SolveMode::kPortfolio:
        solve_portfolio(request, facts, topo, comm, obs_, res);
        break;
      case SolveMode::kCertify:
        solve_certify(request, facts, topo, comm, res);
        break;
      case SolveMode::kRepair:
        solve_repair(request, topo, comm, obs_, res);
        // The repair's own (reduced) machine replaces the request machine.
        break;
    }

    // Optimality certificate of every schedule-producing mode but repair
    // (whose machine shrinks): the retiming-invariant floor of the request
    // graph on the machine its table was built for, so gap == 0 on a
    // certified answer proves optimality.  Certified answers and the
    // portfolio (which prunes with it) carry it, usually a fold over facts
    // built by then; other uncertified answers stay at 0 / -1.
    if (request.mode != SolveMode::kRepair && res.schedule.has_value() &&
        res.schedule->num_pes() == topo.size() &&
        (res.status == SolveStatus::kOk ||
         res.status == SolveStatus::kUncertified) &&
        (request.certify || request.mode == SolveMode::kCertify ||
         request.mode == SolveMode::kPortfolio)) {
      const CompositeBound bound =
          compute_bounds(facts, machine_view(*res.schedule, comm));
      res.lower_bound = std::max(1, bound.value);
      res.bound_pass = std::string(bound.dominant);
      if (const BoundResult* part = bound.part(bound.dominant))
        res.bound_witness = part->witness;
      res.gap = res.best_length - res.lower_bound;
      res.optimal = res.certified && request.certify && res.gap == 0;
    }
  } catch (const std::exception& e) {
    // Error and everything else the layers below throw: CCS-E001.
    add_invalid(res.diagnostics, e.what());
    res.status = SolveStatus::kInvalidRequest;
  }
  res.diagnostics.finalize();
  return res;
}

std::optional<SolveResponse> Solver::try_cached(
    const SolveRequest& request) const {
  SolveCache& cache = SolveCache::global();
  if (!solve_cacheable(request) || !cache.enabled()) return std::nullopt;
  SolveResponse res;
  res.graph = request.graph;
  try {
    request.graph.require_legal();
    const Topology topo = resolve_topology(request);
    const StoreAndForwardModel comm(topo);
    if (!request.options.startup.pe_speeds.empty() &&
        request.options.startup.pe_speeds.size() != topo.size())
      return std::nullopt;  // solve() would refuse; nothing to look up
    res.machine = topo;
    if (!probe_cache(request, topo, comm, obs_, res)) return std::nullopt;
    res.diagnostics.finalize();
    return res;
  } catch (const std::exception&) {
    // A request solve() would reject with CCS-E001 has no cache identity;
    // the caller's real solve reports the error.
    return std::nullopt;
  }
}

void Solver::publish(const SolveRequest& request,
                     const SolveResponse& res) const {
  SolveCache& cache = SolveCache::global();
  if (!solve_cacheable(request) || !cache.enabled()) return;
  if (!res.ok() || !res.certified || !res.schedule.has_value()) return;
  try {
    const Topology topo = resolve_topology(request);
    const CanonResult canon = canonicalize(request.graph);
    const std::uint64_t options_fp = options_fingerprint(request);
    const std::size_t evicted =
        cache.insert(solve_cache_key(canon, topo, options_fp),
                     make_cache_entry(request, canon, res));
    if (evicted > 0)
      obs_.count("cache.evicted", static_cast<long long>(evicted));
    auto memo = std::make_shared<SolveResponse>(res);
    memo->fingerprint = fingerprint_hex(canon.fingerprint);
    cache.remember_exact(
        exact_solve_key(topo, options_fp, exact_graph_bytes(request.graph)),
        std::move(memo));
  } catch (const std::exception&) {
    // Publishing is a best-effort optimization; the answer already exists.
  }
}

}  // namespace ccs
