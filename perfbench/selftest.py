#!/usr/bin/env python3
"""Self-tests of the edda benchmark itself, on short runs.

    python3 perfbench/selftest.py [--workloads a,b]

For every workload it checks that
  - two runs at the same seed print byte-identical input digests and
    deterministic counter blocks;
  - another seed changes the inputs (suite-compile excepted: its
    generator ignores the seed, see SEED_INDEPENDENT);
  - a run with one reference answer corrupted (--corrupt-answer) exits
    non-zero and counts exactly one failed op;
  - the traced run passes the gate, reproduces analyze() in its pair
    replay (trace.replay_match_pct is 100) and reports every per-layer
    metric of BENCHMARK.json.
Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

import run as bench_run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "edda-perfbench")
SECONDS = 1
# generatePerfectClubSuite never draws from GeneratorOptions::Seed: its
# programs are the same at every seed, so suite-compile's passes repeat.
SEED_INDEPENDENT = {
    "suite-compile": "generatePerfectClubSuite ignores its seed",
}


def run(workload, seed, *extra, trace=0):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           str(SECONDS), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def line(lines, prefix):
    return next(l for l in lines if l.startswith(prefix))


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bench_run.build()
    layer = {m["name"] for m in bench["per_layer"]}
    e2e = {m["name"] for m in bench["end_to_end"]}

    for w in args.workloads.split(","):
        code1, a, ja = run(w, 1)
        code2, b, _ = run(w, 1)
        check(code1 == 0 and code2 == 0 and ja["failed"] == 0,
              f"{w}: clean runs pass the gate")
        check(set(ja["metrics"]) == e2e,
              f"{w}: untraced run reports every end-to-end metric")
        check(line(a, "inputs:") == line(b, "inputs:"),
              f"{w}: same seed, same inputs")
        check(line(a, "counters:") == line(b, "counters:"),
              f"{w}: same seed, byte-identical counters")
        _, c, _ = run(w, 2)
        if w in SEED_INDEPENDENT:
            print(f"note  {w}: inputs do not depend on the seed "
                  f"({SEED_INDEPENDENT[w]})")
        else:
            check(line(a, "inputs:") != line(c, "inputs:"),
                  f"{w}: another seed changes the inputs")
        code, _, jc = run(w, 1, "--corrupt-answer")
        check(code != 0 and jc["failed"] == 1 and not jc["correct"],
              f"{w}: one corrupted reference answer counts one failed op")
        code, t, jt = run(w, 1, trace=1)
        check(code == 0 and jt["failed"] == 0,
              f"{w}: traced run passes the gate")
        check(jt["metrics"]["trace.replay_match_pct"]["value"] == 100,
              f"{w}: traced replay reproduces analyze() exactly")
        check(set(jt["metrics"]) == layer,
              f"{w}: traced run reports every per-layer metric")
        check(line(t, "counters:") == line(a, "counters:"),
              f"{w}: traced run has the untraced counters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
