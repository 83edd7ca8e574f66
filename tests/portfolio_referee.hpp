// ccsched — the attempt-by-attempt portfolio, kept as the test-only referee.
//
// This is the loop portfolio_compact ran before attempts shared
// compaction trajectories (engine/portfolio.hpp): every attempt of the
// roster, in index order, runs its own cyclo_compact from its own start-up
// table under the incumbent rule — it stops ("preempted") once its own
// best reaches the lower bound or once an earlier attempt has reached it.
// It is deliberately plain.  The differential tests
// (tests/test_portfolio.cpp) hold the engine's rows and winner identical to
// it; nothing outside tests/ links this file.
#pragma once

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/csdfg.hpp"
#include "engine/portfolio.hpp"

namespace ccs::referee {

/// The portfolio of `opt` run attempt by attempt on the calling thread
/// (`opt.jobs` is ignored).  Fills every PortfolioResult field but the
/// certification: `certified` is true and `certification` empty.
[[nodiscard]] PortfolioResult portfolio_compact(const Csdfg& g,
                                                const Topology& topo,
                                                const CommModel& comm,
                                                const PortfolioOptions& opt);

}  // namespace ccs::referee
