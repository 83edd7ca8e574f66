// ccsched — the command-line driver, as a library.
//
// Everything the `ccsched` binary does is implemented here against plain
// streams so the test suite can drive it in-process.  `schedule` and
// `stress` only parse arguments and render: each builds one SolveRequest
// and makes one ccs::Solver::solve() call (engine/solver.hpp), the same
// dispatch serve and the examples use; `stress` then hands the answer to
// repair_schedule.  Subcommands:
//
//   ccsched info <graph>                     structural report + critical cycle
//   ccsched bound <graph>                    iteration bound
//   ccsched retime <graph>                   min-period retiming (emits graph)
//   ccsched dot <graph>                      Graphviz export
//   ccsched lint <graph> [options]           static analysis (docs/DIAGNOSTICS.md)
//       --arch "<spec>"                      also run architecture-fit passes
//       --speeds a,b,c,...                   heterogeneous speed factors to check
//       --format text|jsonl|sarif            report format (default text)
//       --werror                             warnings fail the exit code
//   ccsched analyze <graph> --arch "<spec>" [options]
//       --speeds a,b,c,...                   heterogeneous speed factors
//       --pipelined                          pipelined processors
//       --format text|jsonl|sarif            report format (default text)
//       --werror                             warnings fail the exit code
//                                            static lower-bound report: one
//                                            CCS-B note per applicable pass
//                                            with its witness, plus the
//                                            composite floor (docs/ALGORITHM.md)
//   ccsched fingerprint <graph> [<graph> ...] [options]
//       --format text|jsonl|sarif            report format (default text)
//       --werror                             warnings fail the exit code
//       --isomorphic                         exactly two graphs: exit 0 iff
//                                            they are attribute-isomorphic
//                                            canonical 128-bit fingerprint per
//                                            graph (analysis/canon.hpp), plus
//                                            the CCS-N duplicate/collision
//                                            audit across all inputs
//   ccsched certify <schedule> --graph <csdfg> --arch "<spec>" [options]
//       --format text|jsonl|sarif            report format (default text)
//       --werror                             warnings fail the exit code
//       --unfold N                           unfold cross-check factor (default 3, <2 off)
//   ccsched certify --replay <trace> --graph <csdfg> --arch "<spec>" [options]
//       --policy relax|strict --passes N --pipelined --speeds a,b,...
//       --budget-passes/--budget-ms/--patience
//                                            the configuration of the recorded
//                                            run (budget included), replayed
//                                            deterministically
//   ccsched schedule <graph> --arch "<spec>" [options]
//       --policy relax|strict|startup|modulo compaction policy (default relax)
//       --passes N                           rotate-remap passes (default 3|V|)
//       --pipelined                          pipelined processors
//       --speeds a,b,c,...                   heterogeneous speed factors
//       --emit-schedule / --emit-graph       print the persistable artifacts
//       --quiet                              summary line only
//       --certify                            independent CCS-S certification
//                                            (relax/strict: the whole run)
//       --trace FILE                         JSONL pipeline events (docs/OBSERVABILITY.md)
//       --stats FILE                         metrics JSON ('-' = stdout) + stats section
//                                            (also enables span histograms)
//       --profile FILE                       Chrome/Perfetto trace_event JSON
//                                            ('-' = stdout) of hierarchical
//                                            profiler spans, one track per
//                                            worker thread
//       --portfolio                          parallel portfolio search over the
//                                            configuration grid (src/engine/);
//                                            the winner is never worse than the
//                                            serial driver and is bit-identical
//                                            for a fixed --jobs/--seed
//       --jobs N                             portfolio worker threads
//                                            (default 1; 0 = hardware)
//       --attempts K                         portfolio size (default: the grid;
//                                            beyond it, seed-perturbed variants)
//       --seed S                             seed for the perturbed tail
//   ccsched schedule also takes the run-budget flags (core/budget.hpp):
//       --budget-passes N                    stop after N rotate-remap passes
//       --budget-ms N                        wall-clock deadline in milliseconds
//       --patience N                         stop after N passes without a new best
//   ccsched validate <graph> <schedule> --arch "<spec>"
//   ccsched simulate <graph> <schedule> --arch "<spec>" [options]
//       --iterations N --warmup N --self-timed --contention --gantt CYCLES
//       --certify                            certify the table before running
//       --trace FILE --stats FILE            as for schedule
//   ccsched stress <graph> --arch "<spec>" --faults <spec> [options]
//       --repair                             walk the degradation ladder after
//                                            injection (docs/ROBUSTNESS.md)
//       --policy relax|strict --passes N --pipelined --speeds a,b,...
//       --portfolio --jobs N --attempts K --seed S
//                                            portfolio baseline instead of the
//                                            serial driver (--jobs/--attempts/
//                                            --seed need --portfolio, as for
//                                            schedule)
//       --iterations N --warmup N            fault-injected static execution
//       --budget-passes/--budget-ms/--patience   as for schedule
//       --emit-schedule --quiet --werror --trace FILE --stats FILE
//   ccsched serve [options]                  resident JSONL solve service
//                                            (docs/SERVE.md): one request per
//                                            line on stdin, one response per
//                                            line on stdout, summary on stderr
//       --socket PATH                        serve a Unix-domain socket instead
//                                            of stdin/stdout
//       --jobs N                             solver worker threads (default 1)
//       --queue-depth N                      admission queue bound (default 16;
//                                            a full queue answers `overloaded`)
//       --drain-ms N                         drain allowance after shutdown
//                                            (default 2000)
//       --max-line-bytes N                   request-line cap (default 1 MiB)
//       --default-deadline-ms N              deadline for requests that carry
//                                            none (default 0 = unlimited)
//       --full-ms/--compact-ms/--list-ms     degradation-ladder thresholds on
//                                            the remaining deadline (defaults
//                                            200/50/5)
//       --stats FILE --profile FILE          as for schedule
//   ccsched report <metrics.json>            self-time-sorted hot-path table
//                                            from a --stats/--profile/BENCH
//                                            JSON document
//   ccsched report --diff <before> <after> [options]
//       --threshold PCT                      regression threshold in percent
//                                            (default 5)
//       --gate LIST                          comma-separated gate tokens
//                                            (default counters,spans,
//                                            benchmarks,profile; "all" gates
//                                            every path; a dotted token like
//                                            bound.gap gates every path that
//                                            contains it); a gated metric that
//                                            grows by >= the threshold fails
//                                            the exit code
//
// `<graph>`, `<schedule>`, and `<faults>` are file paths, or `-` for stdin
// (at most one stdin argument per invocation).  Architecture specs use the
// io/text_format.hpp grammar ("mesh 4 2", "ring 8 uni", ...).
//
// Exit-code contract (pinned by tests/test_cli.cpp):
//   0  success — the command did what was asked; for lint/certify, the
//      report carries no errors (nor warnings under --werror); for stress,
//      the schedule survived the plan or --repair produced a certified
//      replacement.
//   1  operational failure — unreadable/unwritable files, malformed inputs
//      rejected by the strict parsers, invalid or uncertified schedules,
//      error-bearing diagnostic reports, --werror promotions, infeasible
//      repairs, and `report --diff` detecting a regression.
//   2  usage error — unknown command/option, missing required argument, or
//      a malformed option value; nothing was executed.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ccs {

/// Runs one CLI invocation.  `args` excludes the program name.  `in` backs
/// any `-` file argument; normal and diagnostic output go to `out`/`err`.
int run_cli(const std::vector<std::string>& args, std::istream& in,
            std::ostream& out, std::ostream& err);

}  // namespace ccs
