#!/usr/bin/env python3
"""End-to-end benchmark of ccsched: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload paper_portfolio --seed 1 \\
        --seconds 20 --trace 0 [--corpus-seed 4242]

The first run configures and builds perfbench/ (a Release build of the
repository's libraries plus the runner) in .bench_build/perfbench; later
runs only let the build tool confirm the binary is current.  The runner
times the workload at the caller and checks every answer; this script
turns its raw samples into the metrics named in BENCHMARK.json and
prints them as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from a separate traced run, preceded by one row
per problem.  A build stamp line precedes the result.  See
perfbench/README.md for the metrics, the workloads and why they are
shaped as they are.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("paper_portfolio", "gen_certified", "serve_mixed")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
RUNNER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def bounds():
    """The end-to-end bounds fixed in BENCHMARK.json, by metric name."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        return {m["name"]: m["bound"] for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read the bounds in BENCHMARK.json: %s" % e)


def run_logged(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        fail("command failed: " + " ".join(cmd))


def build():
    for needed in ("CMakeLists.txt", "src",
                   os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(needed):
            fail("run from the ccsched repository root; %s is missing" % needed)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release", "-DCCS_WERROR=OFF"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "perfbench_runner",
                "-j", jobs])
    return os.path.join(BUILD_DIR, "perfbench_runner")


def source_stamp():
    """git describe (when the tree is a git checkout) and a hash of src/."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        describe = "unavailable"
    return {"git_describe": describe, "src_sha256": digest.hexdigest()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw, limits):
    """The end-to-end metrics of an untraced run, plus the checks that
    decide whether the run's numbers can be trusted.

    Where the workload is scaled, every time is scaled to the reference
    kernel's nominal speed, using the kernel reading taken next to it;
    the as-measured values are printed on their own line."""
    problems = raw["problems"]
    speed = stats.at_nominal_speed if raw["scaled"] else lambda t, _: t
    blocks = [[speed(t, c) for t, c in zip(times, kernel)]
              for times, kernel in zip(raw["latency_ms"], raw["calib_ms"])]
    problems_ok = True

    def same_every_rotation(key):
        nonlocal problems_ok
        values = raw[key]
        if len(set(values)) != 1:
            print("perfbench: %s differs between rotations: %s" % (key, values),
                  file=sys.stderr)
            problems_ok = False
        return values[0]

    length_sum = same_every_rotation("length_sum")
    bearing = same_every_rotation("schedule_bearing")
    optimal = same_every_rotation("proven_optimal")
    p95, guard = stats.pooled_percentile(blocks, problems, 0.95,
                                         limits["latency_p95_ms"])
    print(json.dumps(dict(kind="p95_guard", **guard)))
    if not guard["ok"]:
        print("perfbench: latency_p95_ms is not trustworthy: %s" % guard,
              file=sys.stderr)
    wall = sum(speed(w, c) for w, c in zip(raw["wall_s"], raw["wall_calib_ms"]))
    setup = [speed(t, c) for t, c in zip(raw["setup_s"], raw["setup_calib_ms"])]
    print(json.dumps({
        "kind": "as_measured",
        "setup_s": stats.median(raw["setup_s"]),
        "throughput_per_s": sum(raw["answers"]) / sum(raw["wall_s"]),
        "latency_gmean_ms": stats.gmean_of_medians(raw["latency_ms"]),
        "latency_p95_ms": stats.nearest_rank(
            [t for b in raw["latency_ms"] for t in b], 0.95)[0],
        "reference_kernel_ms": stats.median(
            [c for b in raw["calib_ms"] for c in b]) if raw["scaled"] else None,
    }))
    sent = sum(raw["deadline_sent"])
    met = sum(raw["deadline_met"])
    attempted, failed = raw["attempted"], raw["failed"]
    metrics = {
        "setup_s": metric(stats.median(setup), "s"),
        "throughput_per_s": metric(sum(raw["answers"]) / wall, "1/s"),
        "latency_gmean_ms": metric(stats.gmean_of_medians(blocks), "ms"),
        "latency_p95_ms": metric(p95, "ms"),
        "schedule_length_sum": metric(length_sum, "steps"),
        "proven_optimal_ratio": metric(optimal / bearing if bearing else 0.0,
                                       "ratio"),
        "correct_ratio": metric((attempted - failed) / attempted, "ratio"),
        # Vacuously met on workloads that send no deadlines.
        "deadline_met_ratio": metric(met / sent if sent else 1.0, "ratio"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MiB"),
    }
    return metrics, problems_ok and guard["ok"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corpus-seed", type=int, default=4242)
    args = parser.parse_args()

    limits = bounds()
    runner = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--corpus-seed", str(args.corpus_seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("runner exceeded %d s" % RUNNER_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail("runner exited with %d" % done.returncode)
    raw = json.loads(lines[-1])
    for line in lines[:-1]:
        row = json.loads(line)
        if row.get("kind") == "build":
            row.update(source_stamp())
        print(json.dumps(row))

    if args.trace:
        metrics, trusted = raw["layers"], True
    else:
        metrics, trusted = end_to_end(raw, limits)
    print(json.dumps({
        "correct": raw["failed"] == 0 and trusted,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
