"""Statistics for the end-to-end benchmark.

Latency samples arrive grouped by problem: one block of samples per
problem (or per serve request position), one sample per rotation.  Two
summaries come out of them:

* the geometric mean of per-problem medians, which combines problems the
  way a compiler suite combines programs and cannot be moved by where a
  pooled rank happens to fall;
* a pooled nearest-rank percentile, guarded against block edges.  When
  every problem contributes the same number of samples, a pooled rank
  can land exactly on the edge between two problems' blocks; the value
  read there is the tail of one problem's samples and jumps between
  runs whenever the two problems' medians differ.  The guard names the
  problem the rank falls in, its distance in samples to the nearest
  block edge, and fails when a near edge separates problems whose
  medians differ by more than the metric's bound.
"""

import math

# Times are reported at the reference kernel's nominal speed: a sample of
# t ms taken while the kernel ran in c ms reads t * NOMINAL_KERNEL_MS / c.
NOMINAL_KERNEL_MS = 1.0


def at_nominal_speed(ms, kernel_ms):
    """`ms` measured next to a reference-kernel reading of `kernel_ms`,
    scaled to the kernel's nominal duration (see src/calibrate.hpp)."""
    return ms * NOMINAL_KERNEL_MS / kernel_ms


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def gmean_of_medians(blocks):
    """Geometric mean over blocks of each block's median."""
    medians = [median(b) for b in blocks]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def nearest_rank(values, q):
    """Nearest-rank percentile: the ceil(q*n)-th smallest value (1-based).

    Returns (value, rank, n)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n - 1e-9))
    return ordered[rank - 1], rank, n


def block_guard(blocks, names, q, bound):
    """Where the pooled q-rank falls among the problems' blocks.

    Blocks are laid out in order of their medians, as they would be in a
    sorted pool whose problems do not overlap.  The rank is near an edge
    when it lies in the outer quarter of its block; the guard fails when
    that edge separates two problems whose medians differ by more than
    `bound` (relative to the smaller median)."""
    order = sorted(range(len(blocks)), key=lambda i: median(blocks[i]))
    n = sum(len(b) for b in blocks)
    rank = max(1, math.ceil(q * n - 1e-9))
    start = 0
    for pos, i in enumerate(order):
        end = start + len(blocks[i])
        if rank <= end:
            break
        start = end
    below = rank - start          # samples of this block at or below rank
    above = end - rank + 1        # steps until the rank leaves the block
    neighbor = None
    if below <= above and pos > 0:
        neighbor = order[pos - 1]
    elif above < below and pos + 1 < len(order):
        neighbor = order[pos + 1]
    distance = min(below, above)
    near = distance <= max(1, len(blocks[i]) // 4)
    jump = 0.0
    if neighbor is not None:
        a, b = median(blocks[i]), median(blocks[neighbor])
        jump = abs(a - b) / min(a, b)
    return {
        "rank": rank,
        "samples": n,
        "problem": names[i],
        "edge_distance": distance,
        "neighbor": None if neighbor is None else names[neighbor],
        "neighbor_gap": jump,
        "ok": not (near and neighbor is not None and jump > bound),
    }


def pooled_percentile(blocks, names, q, bound):
    """Nearest-rank q-percentile of all samples, with its guard report.

    The report also requires at least ten samples beyond the rank."""
    pool = [x for b in blocks for x in b]
    value, rank, n = nearest_rank(pool, q)
    guard = block_guard(blocks, names, q, bound)
    guard["value"] = value
    guard["beyond"] = n - rank
    guard["ok"] = guard["ok"] and n - rank >= 10
    return value, guard
