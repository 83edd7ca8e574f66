// ccsched — the W/D minimum-period retiming, kept as the test-only referee.
//
// This is the procedure ccsched computed Φ_min with before core/retiming's
// FEAS probes: the Leiserson–Saxe W/D path matrices by Floyd–Warshall over
// (delay, -time) lexicographic weights, a binary search over the distinct D
// values, and Bellman–Ford over the resulting difference constraints.  It
// takes O(V^3) time and two V×V arrays of 64-bit cells, so keep its inputs
// small.  The differential tests (tests/test_retiming.cpp) hold the
// production routine to exactly its period; nothing outside tests/ links
// this file.
#pragma once

#include "core/csdfg.hpp"
#include "core/retiming.hpp"

namespace ccs::referee {

/// Leiserson–Saxe minimum-period retiming by the W/D matrices, under the
/// paper's sign convention.  `probes` and `rounds` stay 0.  Throws
/// GraphError if `g` is illegal.
[[nodiscard]] MinPeriodResult min_period_retiming(const Csdfg& g);

}  // namespace ccs::referee
