#!/usr/bin/env python3
"""Regenerates tests/golden/cli_transcripts.txt from a built ccsched.

Usage: tools/cli_golden.py <path-to-ccsched> [output]

Every case runs from the repository root with relative paths, so the
transcripts do not depend on where the checkout lives.  The golden test
(tests/test_golden_cli.cpp) replays each case in-process through run_cli
and compares stdout, stderr, the exit code and any written file byte for
byte.  Regenerate only when a change to the CLI output is intended, and
review the diff.

File format, one block per case:
  @args<TAB>arg<TAB>arg...      the command line (tabs never occur in args)
  @stdin N                      optional: N bytes fed on stdin, then "\\n"
  @exit C
  @stdout N / @stderr N         N bytes of output, then "\\n"
  @file N                       optional: N bytes the case wrote to @FILE@
The placeholder @FILE@ in an argument names a scratch output file.
"""
import os
import subprocess
import sys
import tempfile

GRAPHS = ["paper_fig1b", "paper_fig7", "macroblock"]
MACHINES = ["mesh 2 2", "mesh 4 2", "ring 8"]
POLICIES = [
    ["--policy", "relax"],
    ["--policy", "strict"],
    ["--policy", "startup"],
    ["--policy", "modulo"],
    ["--portfolio", "--jobs", "1"],
]
FILE = "@FILE@"


def data(name):
    return "examples/data/" + name


def cases():
    out = []
    emit = ["--emit-schedule", "--emit-graph"]
    # schedule: graph x machine x policy x (+/- --certify); quiet except one
    # case per policy (paper_fig1b on mesh 2 2, uncertified).
    for graph in GRAPHS:
        for machine in MACHINES:
            for policy in POLICIES:
                for certify in ([], ["--certify"]):
                    loud = (graph == "paper_fig1b" and machine == "mesh 2 2"
                            and not certify)
                    args = (["schedule", data(graph + ".csdfg"), "--arch",
                             machine] + policy + certify + emit +
                            ([] if loud else ["--quiet"]))
                    out.append((args, None))
    fig7 = data("paper_fig7.csdfg")
    knobs = [
        ["--budget-passes", "3"],
        ["--budget-passes", "3", "--certify"],
        ["--speeds", "1,2,1,2,1,2,1,2"],
        ["--speeds", "1,2,1,2,1,2,1,2", "--portfolio", "--jobs", "1"],
        ["--pipelined"],
        ["--pipelined", "--certify", "--policy", "strict"],
    ]
    for knob in knobs:
        out.append((["schedule", fig7, "--arch", "mesh 4 2"] + knob + emit +
                    ["--quiet"], None))
    out.append((["schedule", data("paper_fig1b.csdfg"), "--arch", "mesh 2 2",
                 "--trace", FILE, "--quiet"], None))
    # stress: (fail p0 | failover.faults) x (+/- --repair) x
    # (+/- --portfolio --jobs 1), quiet except one case.
    for graph, machine in (("paper_fig1b", "mesh 2 2"),
                           ("paper_fig7", "mesh 4 2")):
        for faults in ("fail p0\n", "examples/data/failover.faults"):
            for repair in ([], ["--repair"]):
                for folio in ([], ["--portfolio", "--jobs", "1"]):
                    loud = (graph == "paper_fig1b" and repair and not folio
                            and faults.startswith("examples"))
                    stdin = faults if faults.startswith("fail") else None
                    args = (["stress", data(graph + ".csdfg"), "--arch",
                             machine, "--faults",
                             "-" if stdin else faults] + repair + folio +
                            (["--emit-schedule"] if repair else []) +
                            ([] if loud else ["--quiet"]))
                    out.append((args, stdin))
    # The bad-input corpus.
    for name in sorted(os.listdir("examples/data/bad")):
        if name.endswith(".csdfg"):
            out.append((["schedule", "examples/data/bad/" + name, "--arch",
                         "mesh 2 2", "--quiet"], None))
    # Option-reader refusals shared by schedule, stress and certify --replay.
    fig1b = data("paper_fig1b.csdfg")
    usage = [
        ["schedule", fig1b, "--arch", "mesh 2 2", "--policy", "bogus"],
        ["schedule", fig1b, "--arch", "mesh 2 2", "--seed", "3"],
        ["schedule", fig1b, "--arch", "mesh 2 2", "--jobs", "2"],
        ["schedule", fig1b, "--arch", "mesh 2 2", "--portfolio",
         "--policy", "modulo"],
        ["schedule", fig1b, "--arch", "mesh 2 2", "--policy", "modulo",
         "--speeds", "1,1,1,2"],
        ["schedule", fig1b, "--arch", "mesh 2 2", "--speeds", "1,2"],
        ["schedule", fig1b, "--arch", "mesh 2 2", "--budget-passes", "-1"],
        ["schedule", fig1b, "--arch", "mesh 2 2", "--portfolio",
         "--jobs", "-1"],
        ["schedule", fig1b, "--arch", "mesh 2 2", "--portfolio",
         "--seed", "x"],
        ["schedule", fig1b, "--arch", "mesh 9999 9999"],
        ["schedule", fig1b],
        ["stress", fig1b, "--arch", "mesh 2 2", "--faults", "-",
         "--policy", "startup"],
        ["certify", "--graph", fig1b, "--arch", "mesh 2 2", "--replay", "-",
         "--policy", "modulo"],
    ]
    for args in usage:
        out.append((args, "fail p0\n" if "-" in args else None))
    return out


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    binary = os.path.abspath(sys.argv[1])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = sys.argv[2] if len(sys.argv) == 3 else os.path.join(
        root, "tests", "golden", "cli_transcripts.txt")
    os.chdir(root)
    blocks = [b"# ccsched CLI golden transcripts; regenerate with "
              b"tools/cli_golden.py and review the diff.\n"]
    with tempfile.TemporaryDirectory() as tmp:
        scratch = os.path.join(tmp, "file.out")
        for args, stdin in cases():
            if os.path.exists(scratch):
                os.remove(scratch)
            real = [scratch if a == FILE else a for a in args]
            run = subprocess.run([binary] + real, input=(stdin or "").encode(),
                                 capture_output=True, timeout=120)
            block = [("@args\t" + "\t".join(args) + "\n").encode()]
            if stdin is not None:
                block.append(b"@stdin %d\n%s\n" % (len(stdin), stdin.encode()))
            block.append(b"@exit %d\n" % run.returncode)
            block.append(b"@stdout %d\n%s\n" % (len(run.stdout), run.stdout))
            block.append(b"@stderr %d\n%s\n" % (len(run.stderr), run.stderr))
            if FILE in args:
                with open(scratch, "rb") as f:
                    written = f.read()
                block.append(b"@file %d\n%s\n" % (len(written), written))
            blocks.append(b"".join(block))
    os.makedirs(os.path.dirname(target), exist_ok=True)
    with open(target, "wb") as f:
        f.write(b"".join(blocks))
    print("wrote %d case(s) to %s" % (len(blocks) - 1, target))


if __name__ == "__main__":
    main()
