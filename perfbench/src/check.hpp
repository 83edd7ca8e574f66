// perfbench — the benchmark's independent answer check.
//
// Every answer the benchmark times is re-derived here from the master
// edge constraint of DESIGN.md §2:
//
//     CB(v) + d_r(e)·L  >=  CE(u) + hops(PE(u), PE(v))·c(e) + 1
//
// with hop counts from this file's own BFS over the machine's links and
// retimed delays d_r(e) = d(e) + r(u) - r(v) computed against the INPUT
// graph.  Nothing here calls the validator, the certifier or the route
// cache: a reference must never come from the compiler under test.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/csdfg.hpp"

namespace perfbench {

/// A machine as the checker sees it: PE count plus all-pairs hop counts.
struct Machine {
  std::size_t pes = 0;
  std::vector<std::vector<int>> hops;  ///< -1 = unreachable
};

/// BFS from every PE over `links` (both directions unless `directed`).
[[nodiscard]] Machine machine_from_links(
    std::size_t pes,
    const std::vector<std::pair<std::size_t, std::size_t>>& links,
    bool directed);

/// One answer in neutral form, indexed by INPUT node id.
struct Answer {
  int claimed_length = 0;      ///< the length the compiler reports
  int table_length = 0;        ///< the table's own length
  std::size_t table_pes = 0;   ///< the table's processor count
  std::vector<int> pe;         ///< 0-based PE, -1 = never placed
  std::vector<int> cb;         ///< first control step
  std::vector<int> placements; ///< how often each task was placed
  std::vector<long long> retiming;
  /// (from, to, delay, volume) of the retimed graph the compiler emitted,
  /// by node name; empty when the answer carries no graph.
  std::vector<std::tuple<std::string, std::string, long long, long long>>
      retimed_edges;
  bool has_retimed_graph = false;
  /// Errors met while reading the answer's text.
  std::vector<std::string> read_errors;

  explicit Answer(std::size_t nodes)
      : pe(nodes, -1), cb(nodes, 0), placements(nodes, 0),
        retiming(nodes, 0) {}
};

/// Reads the schedule text format (`schedule L P`, `place task pe cb`,
/// `retime task r`) into `a`, resolving task names against `input`.
void read_schedule_text(const ccs::Csdfg& input, std::string_view text,
                        Answer& a);

/// Reads the edges of an emitted CSDFG text (`edge u v d c`) into `a`.
void read_graph_text(std::string_view text, Answer& a);

/// Every way `a` breaks the master constraint or the table rules for
/// `input` on `m`; empty means correct.
[[nodiscard]] std::vector<std::string> check_answer(const ccs::Csdfg& input,
                                                    const Machine& m,
                                                    const Answer& a);

/// A lower bound on any schedule of `input` on `pes` processors, derived
/// here from first principles: max of the longest task, ceil(sum t / P)
/// and ceil(max cycle ratio sum t / sum d), the last by integer
/// Bellman-Ford probes.  Sound for every legal retiming.
[[nodiscard]] int independent_lower_bound(const ccs::Csdfg& input,
                                          std::size_t pes);

}  // namespace perfbench
