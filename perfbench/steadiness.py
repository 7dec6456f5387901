#!/usr/bin/env python3
"""Steadiness check of the edda benchmark: two sets of runs, interleaved.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] \\
        [--out results.json]

For run i of each workload the two sets A and B each run seed i, one
right after the other, alternating which goes first (ABBA...), so slow
drift of the host lands on both sets alike. For each end-to-end metric
it prints, per set, the median and the spread (quartile distance over
the median, as statistics.quantiles(values, n=4) gives the quartiles)
and the ratio of the two medians, next to the bound in BENCHMARK.json.
Every spread, setup_s's too, must stay within the metric's bound, and
the two medians must not differ by more than the bound in either
direction.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.monotonic() - start
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    if proc.returncode != 0 or not last.startswith("{"):
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(last)
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: failed ops")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["wall_s"] = wall
    return values


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", help="also write the raw values here")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    raw = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in args.workloads.split(","):
            for s in (("A", "B") if i % 2 == 0 else ("B", "A")):
                raw.setdefault(w, {"A": [], "B": []})[s].append(
                    run_once(w, seed, seconds))
                print(f"run {i} {w} set {s} done", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    for w, sets in raw.items():
        walls = [r["wall_s"] for s in sets.values() for r in s]
        print(f"{w}: run wall time median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s", file=sys.stderr)

    ok = True
    print("| workload | metric | bound | A median | A spread | B median "
          "| B spread | B/A |")
    print("|---|---|---|---|---|---|---|---|")
    for w, sets in raw.items():
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r[name] for r in sets["A"]]
            b = [r[name] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb = spread(a), spread(b)
            ratio = mb / ma if ma else float("nan")
            good = abs(ratio - 1) <= bound and max(sa, sb) <= bound
            ok &= good
            print(f"| {w} | {name} | {bound} | {ma:.6g} | {sa:.3f} | "
                  f"{mb:.6g} | {sb:.3f} | {ratio:.3f}"
                  f"{'' if good else ' FAIL'} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
