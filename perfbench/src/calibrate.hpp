// perfbench — how fast the host runs right now.
//
// On a shared machine the same work runs 15-20 % faster or slower from
// one minute to the next, and a thread's CPU time stretches with its wall
// time, so no clock removes the drift.  The benchmark instead times a
// fixed reference kernel next to the work it measures and reports times
// scaled to the kernel's nominal duration.  The kernel is the
// benchmark's own code over its own data, so no change to ccsched can
// move it: a faster compiler still reads faster, a slower host does not.
#pragma once

namespace perfbench {

/// Milliseconds the reference kernel takes on this host now (the median
/// of five runs).  Integer-heavy, branchy and cache-resident like the
/// scheduler: longest-path Bellman-Ford sweeps over a fixed 64-node
/// graph, 0.9-1.4 ms per run on the shared 4-vCPU x86 VM the bounds in
/// BENCHMARK.json were set on.
[[nodiscard]] double reference_kernel_ms();

}  // namespace perfbench
