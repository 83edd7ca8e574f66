// ccsched — umbrella header: the public library surface in one include.
//
//     #include "ccsched.hpp"
//
//     ccs::Solver solver;
//     ccs::SolveRequest req;
//     req.graph = ccs::parse_csdfg(graph_text);
//     req.arch = "mesh 2 2";
//     ccs::SolveResponse res = solver.solve(req);
//
// The Solver facade (engine/solver.hpp) is the supported entry point;
// everything else pulled in here — the algorithm layers, the machine
// model, certification, repair, simulation, observability, I/O — is the
// toolkit the facade is built from and remains available for callers that
// need finer control.  Direct multi-header include patterns are
// deprecated in favor of this umbrella; see docs/API.md for the stability
// contract.
//
// CCSCHED_API_VERSION identifies the request/response contract: fields
// may be *added* within a version, but only a version bump may remove one
// or change its meaning.  Compile-time dispatch:
//
//     #if CCSCHED_API_VERSION >= 1
//       ... Solver-based code ...
//     #endif
//
// Version 2 (the RemapEngine release) added ccs::RemapEngine
// (core/remap_engine.hpp) and the SolveResponse remap_slots_scanned /
// an_evaluations fields.  Version 3 leaves RemapEngine as the only remap
// implementation: the v1 free-function remap and rotation headers, the
// remap backend selection and the result fields naming the backend are
// gone.  The "v2 -> v3" section of docs/API.md lists every removed name
// and its replacement.  Version 4 makes Solver::solve() the cold path only
// (the cache protocol is try_cached -> solve -> publish), certifies a
// kSchedule run as a whole, and changes the lower_bound/gap rules; see the
// "v3 -> v4" section of docs/API.md.
#pragma once

#define CCSCHED_API_VERSION 4

// Error types thrown by the toolkit layers (the Solver itself never
// throws; it folds failures into SolveResponse::diagnostics).
#include "util/error.hpp"

// Machine model.
#include "arch/comm_model.hpp"
#include "arch/route_cache.hpp"
#include "arch/routing.hpp"
#include "arch/topology.hpp"

// Graphs and the scheduling algorithms.
#include "core/budget.hpp"
#include "core/csdfg.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/iteration_bound.hpp"
#include "core/list_scheduler.hpp"
#include "core/modulo_scheduler.hpp"
#include "core/prologue.hpp"
#include "core/retiming.hpp"
#include "core/schedule.hpp"
#include "core/validator.hpp"

// Static analysis, certification, diagnostics.
#include "analysis/canon.hpp"
#include "analysis/certify.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/lint.hpp"
#include "analysis/rules.hpp"

// Faults and repair.
#include "robust/fault_plan.hpp"
#include "robust/repair.hpp"

// Simulation.
#include "sim/executor.hpp"
#include "sim/gantt.hpp"

// Observability.
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

// Text formats and rendering.
#include "io/dot.hpp"
#include "io/schedule_format.hpp"
#include "io/table_printer.hpp"
#include "io/text_format.hpp"

// The engine: portfolio search + the Solver facade.
#include "engine/portfolio.hpp"
#include "engine/solve_cache.hpp"
#include "engine/solver.hpp"
