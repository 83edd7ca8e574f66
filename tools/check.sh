#!/usr/bin/env bash
# Configures, builds, and runs the test suite under sanitizers (the
# CCSCHED_SANITIZE CMake option), so every change — the observability
# instrumentation and the portfolio worker pool included — is checked.
#
# Usage: tools/check.sh [build-dir]   (default: build-sanitize[-<set>])
# Environment: CCSCHED_SANITIZE picks the set:
#   address,undefined   the default — leak/UB-check the full suite + gates
#   thread              ThreadSanitizer over the concurrency surface (the
#                       portfolio engine, route cache, solver, budgets, obs);
#                       TSan cannot combine with ASan, and its ~10x slowdown
#                       makes the full CLI gates pointless, so this variant
#                       runs the filtered ctest only.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sanitizers="${CCSCHED_SANITIZE:-address,undefined}"
default_dir="${repo_root}/build-sanitize"
if [ "${sanitizers}" != "address,undefined" ]; then
  default_dir="${repo_root}/build-sanitize-${sanitizers//,/-}"
fi
build_dir="${1:-${default_dir}}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCCSCHED_SANITIZE="${sanitizers}"
cmake --build "${build_dir}" -j "$(nproc)"

if [[ ",${sanitizers}," == *",thread,"* ]]; then
  # The determinism tests in this filter run the worker pool at jobs up to 8
  # and hammer the route cache from concurrent constructors — the races TSan
  # exists to catch.  TSan needs a generous timeout.
  ctest --test-dir "${build_dir}" --output-on-failure --timeout 300 \
    -j "$(nproc)" -R 'Portfolio|RouteCache|Solver|Budget|Obs|Serve|Remap'
  # Profiled portfolio smoke: span recording under 8 workers (per-attempt
  # profilers, attempt-ordered absorb) must be TSan-clean end to end.
  tsan_tmp="$(mktemp -d)"
  "${build_dir}/tools/ccsched" schedule \
    "${repo_root}/examples/data/paper_fig7.csdfg" --arch "mesh 4 2" \
    --portfolio --jobs 8 --quiet --profile "${tsan_tmp}/profile.json" \
    > /dev/null
  grep -q '"traceEvents"' "${tsan_tmp}/profile.json"
  rm -rf "${tsan_tmp}"
  echo "profiled portfolio smoke: TSan-clean"
  exit 0
fi

ctest --test-dir "${build_dir}" --output-on-failure --timeout 60 -j "$(nproc)"

# Lint smoke gate: every shipped good graph must be diagnostic-free under
# --werror, and every file in the malformed corpus must be rejected.  The
# a00x corpus files only misbehave relative to an architecture, so the gate
# supplies the spec each file documents in its header comment.
ccsched="${build_dir}/tools/ccsched"
echo "== lint smoke gate =="
for graph in "${repo_root}"/examples/data/*.csdfg; do
  arch="mesh 2 2"
  case "$(basename "${graph}")" in
    # The 19-node paper workload targets the paper's 8-PE machines; on the
    # 4-PE gate machine its ASAP width trips CCS-A001 by design.
    paper_fig7.csdfg) arch="mesh 4 2" ;;
  esac
  "${ccsched}" lint "${graph}" --arch "${arch}" --werror
  echo "clean: ${graph}"
done
for graph in "${repo_root}"/examples/data/bad/*.csdfg; do
  args=()
  case "$(basename "${graph}")" in
    a001_*) args=(--arch "linear_array 2") ;;
    a002_*) args=(--arch "mesh 2 2") ;;
    a003_*) args=(--arch "complete 3" --speeds 1,2) ;;
  esac
  if "${ccsched}" lint "${graph}" "${args[@]}" --werror >/dev/null; then
    echo "error: ${graph} should have been rejected" >&2
    exit 1
  fi
  echo "rejected as expected: ${graph}"
done

# Fingerprint smoke gate (docs/DIAGNOSTICS.md, CCS-N rules): the canonical
# identity of every shipped graph must be byte-deterministic across runs,
# the shipped files must contain no unannotated isomorphic duplicates, and
# the --isomorphic verdict must agree with itself (reflexive) and reject a
# genuinely different workload.
echo "== fingerprint smoke gate =="
fp_tmp="$(mktemp -d)"
"${ccsched}" fingerprint "${repo_root}"/examples/data/*.csdfg \
  > "${fp_tmp}/fp1.txt"
"${ccsched}" fingerprint "${repo_root}"/examples/data/*.csdfg \
  > "${fp_tmp}/fp2.txt"
cmp "${fp_tmp}/fp1.txt" "${fp_tmp}/fp2.txt" || {
  echo "error: fingerprint output is not byte-deterministic" >&2
  exit 1
}
if grep -q 'CCS-N001' "${fp_tmp}/fp1.txt"; then
  echo "error: unexpected duplicate among shipped graph files" >&2
  cat "${fp_tmp}/fp1.txt" >&2
  exit 1
fi
"${ccsched}" fingerprint --isomorphic \
  "${repo_root}"/examples/data/paper_fig1b.csdfg \
  "${repo_root}"/examples/data/paper_fig1b.csdfg > /dev/null
if "${ccsched}" fingerprint --isomorphic \
    "${repo_root}"/examples/data/paper_fig1b.csdfg \
    "${repo_root}"/examples/data/paper_fig7.csdfg > /dev/null; then
  echo "error: distinct workloads reported isomorphic" >&2
  exit 1
fi
rm -rf "${fp_tmp}"
echo "fingerprints deterministic, no duplicates, isomorphism verdicts sane"

# Analyze smoke gate (docs/ALGORITHM.md, CCS-B rules): the static bound
# report must succeed on every shipped graph, emit at least the iteration
# bound pass, and agree with itself under --werror (bounds are notes, never
# failures).  The witness audit inside `analyze` re-derives every value, so
# a pass/witness mismatch fails here before any schedule is produced.
echo "== analyze smoke gate =="
analyze_out="$(mktemp)"
for graph in "${repo_root}"/examples/data/*.csdfg; do
  arch="mesh 2 2"
  case "$(basename "${graph}")" in
    paper_fig7.csdfg) arch="mesh 4 2" ;;
  esac
  "${ccsched}" analyze "${graph}" --arch "${arch}" --werror \
    > "${analyze_out}" 2>&1 || {
      echo "error: analyze failed on ${graph}" >&2
      cat "${analyze_out}" >&2
      exit 1
    }
  if ! grep -q "composite lower bound" "${analyze_out}"; then
    echo "error: analyze printed no composite bound for ${graph}" >&2
    exit 1
  fi
  echo "analyzed: ${graph}"
done
rm -f "${analyze_out}"

# Certify gate (docs/DIAGNOSTICS.md, CCS-S rules).  Two directions:
#  1. every schedule the pipeline produces over the shipped graphs must
#     certify clean — in-process (--certify) and again after a file
#     round trip through --emit-graph/--emit-schedule;
#  2. every mutation in examples/data/bad_schedules must be rejected with
#     exactly the CCS-S code its name promises, in text and SARIF alike.
echo "== certify gate =="
workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT
for graph in "${repo_root}"/examples/data/*.csdfg; do
  for policy in relax strict startup modulo; do
    "${ccsched}" schedule "${graph}" --arch "mesh 2 2" --policy "${policy}" \
      --certify --quiet --emit-graph --emit-schedule > "${workdir}/art.txt"
    sed -n '/^graph /,/^schedule /p' "${workdir}/art.txt" | sed '$d' \
      > "${workdir}/rt.csdfg"
    sed -n '/^schedule /,$p' "${workdir}/art.txt" > "${workdir}/rt.sched"
    "${ccsched}" certify "${workdir}/rt.sched" --graph "${workdir}/rt.csdfg" \
      --arch "mesh 2 2" > /dev/null
    echo "certified (${policy}): ${graph}"
  done
done
bad_sched_dir="${repo_root}/examples/data/bad_schedules"
for sched in "${bad_sched_dir}"/s*.sched; do
  code="CCS-S$(basename "${sched}" | cut -c2-4)"
  for format in text sarif; do
    if "${ccsched}" certify "${sched}" --graph "${bad_sched_dir}/graph.csdfg" \
        --arch "linear_array 2" --format "${format}" > "${workdir}/out.txt"; then
      echo "error: ${sched} should have been rejected (${format})" >&2
      exit 1
    fi
    if ! grep -q "${code}" "${workdir}/out.txt"; then
      echo "error: ${sched} (${format}) did not report ${code}" >&2
      cat "${workdir}/out.txt" >&2
      exit 1
    fi
  done
  echo "rejected with ${code}: ${sched}"
done

# Stress gate (docs/ROBUSTNESS.md): a single-PE fail-stop must walk the
# repair ladder to a certified schedule on every shipped workload, and the
# worked failover example must end certified — all under the sanitizers.
echo "== stress gate =="
printf 'fail p0\n' > "${workdir}/fail0.faults"
for graph in "${repo_root}"/examples/data/*.csdfg; do
  "${ccsched}" stress "${graph}" --arch "mesh 2 2" \
    --faults "${workdir}/fail0.faults" --repair --quiet > /dev/null
  echo "repaired after fail p0: ${graph}"
done
"${ccsched}" stress "${repo_root}/examples/data/paper_fig1b.csdfg" \
  --arch "mesh 2 2" --faults "${repo_root}/examples/data/failover.faults" \
  --repair --quiet > /dev/null
echo "failover walkthrough repaired"

# Profile gate (docs/OBSERVABILITY.md): a profiled portfolio run must
# produce a loadable Chrome trace with span histograms in the stats, the
# hot-path report must render, and `report --diff` must exit 0 on identical
# inputs and 1 on a regression — those exit codes are the CI contract, so
# they are asserted explicitly rather than left to `set -e`.
echo "== profile gate =="
"${ccsched}" schedule "${repo_root}/examples/data/paper_fig7.csdfg" \
  --arch "mesh 4 2" --portfolio --jobs 4 --quiet \
  --profile "${workdir}/profile.json" --stats "${workdir}/stats.json" \
  > /dev/null
grep -q '"traceEvents"' "${workdir}/profile.json"
grep -q '"thread_name"' "${workdir}/profile.json"
grep -q '"spans"' "${workdir}/stats.json"
"${ccsched}" report "${workdir}/stats.json" > /dev/null
rc=0
"${ccsched}" report --diff "${workdir}/stats.json" "${workdir}/stats.json" \
  > /dev/null || rc=$?
if [ "${rc}" -ne 0 ]; then
  echo "error: identical stats reported a regression (exit ${rc})" >&2
  exit 1
fi
printf '{"counters":{"an.evaluations":100}}\n' > "${workdir}/before.json"
printf '{"counters":{"an.evaluations":200}}\n' > "${workdir}/after.json"
rc=0
"${ccsched}" report --diff "${workdir}/before.json" "${workdir}/after.json" \
  > /dev/null || rc=$?
if [ "${rc}" -ne 1 ]; then
  echo "error: injected +100% regression exited ${rc}, want 1" >&2
  exit 1
fi
# A dotted --gate token must fail on a grown optimality gap and ignore the
# (machine-dependent) timing paths next to it — the contract the
# bench-portfolio job's bound.gap diff relies on.
printf '{"benchmarks":{"bg":{"bound":{"gap":1},"cpu_time":10}}}\n' \
  > "${workdir}/gap_before.json"
printf '{"benchmarks":{"bg":{"bound":{"gap":2},"cpu_time":90}}}\n' \
  > "${workdir}/gap_after.json"
rc=0
"${ccsched}" report --diff "${workdir}/gap_before.json" \
  "${workdir}/gap_after.json" --gate bound.gap > /dev/null || rc=$?
if [ "${rc}" -ne 1 ]; then
  echo "error: grown bound.gap exited ${rc} under --gate bound.gap, want 1" >&2
  exit 1
fi
printf '{"benchmarks":{"bg":{"bound":{"gap":1},"cpu_time":90}}}\n' \
  > "${workdir}/gap_after.json"
rc=0
"${ccsched}" report --diff "${workdir}/gap_before.json" \
  "${workdir}/gap_after.json" --gate bound.gap > /dev/null || rc=$?
if [ "${rc}" -ne 0 ]; then
  echo "error: timing-only drift exited ${rc} under --gate bound.gap, want 0" >&2
  exit 1
fi
echo "profile + report gates passed"

# Serve smoke gate (docs/SERVE.md): the resident loop must answer every
# line of a mixed request file (valid solves, garbage, an expired
# deadline) and exit 0; a jobs=1 stream must be byte-for-byte
# deterministic across two cold runs; and a depth-1 queue behind a sleep
# hog must shed with a structured `overloaded` response.
echo "== serve smoke gate =="
fig_graph="$(sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' \
  "${repo_root}/examples/data/paper_fig1b.csdfg" | awk '{printf "%s\\n", $0}')"
{
  printf '{"op":"solve","id":"r1","graph":"%s","arch":"mesh 2 2"}\n' \
    "${fig_graph}"
  printf '{"op":"solve","id":"r2","graph":"%s","arch":"mesh 2 2"}\n' \
    "${fig_graph}"
  printf 'this line is not a request\n'
  printf '{"op":"solve","id":"late","graph":"%s","arch":"mesh 2 2","deadline_ms":-5}\n' \
    "${fig_graph}"
  printf '{"op":"stats"}\n'
  printf '{"op":"shutdown"}\n'
} > "${workdir}/serve_smoke.jsonl"
"${ccsched}" serve < "${workdir}/serve_smoke.jsonl" \
  > "${workdir}/serve1.out" 2> "${workdir}/serve1.err"
"${ccsched}" serve < "${workdir}/serve_smoke.jsonl" \
  > "${workdir}/serve2.out" 2> /dev/null
cmp "${workdir}/serve1.out" "${workdir}/serve2.out" || {
  echo "error: jobs=1 serve output is not byte-deterministic" >&2
  exit 1
}
[ "$(wc -l < "${workdir}/serve1.out")" -eq 6 ] || {
  echo "error: serve answered $(wc -l < "${workdir}/serve1.out") of 6 lines" >&2
  exit 1
}
grep -q '"id":"r2".*"cache_hit":true' "${workdir}/serve1.out"
grep -q 'CCS-E001' "${workdir}/serve1.out"
grep -q '"id":"late".*"status":"rejected".*CCS-E003' "${workdir}/serve1.out"
grep -q '"kind":"serve_summary"' "${workdir}/serve1.err"
if grep -q 'serve_summary' "${workdir}/serve1.out"; then
  echo "error: summary leaked onto the response stream" >&2
  exit 1
fi
{
  printf '{"op":"sleep","sleep_ms":400}\n'
  for i in 1 2 3 4; do
    printf '{"op":"solve","id":"b%s","graph":"%s","arch":"mesh 2 2"}\n' \
      "${i}" "${fig_graph}"
  done
} > "${workdir}/serve_burst.jsonl"
"${ccsched}" serve --queue-depth 1 < "${workdir}/serve_burst.jsonl" \
  > "${workdir}/serve_burst.out" 2> /dev/null
grep -q '"status":"overloaded"' "${workdir}/serve_burst.out" || {
  echo "error: depth-1 queue under a sleep hog never shed" >&2
  exit 1
}
echo "serve smoke gate passed"
