#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out spread.json

For every workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, the interquartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  A spread is steady when it is below a third of the
bound.  Runs are serial.  Exits 1 if a run fails or a spread exceeds
its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="also write every value as JSON here")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("need at least two seeds for quartiles")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report, ok = {}, True
    for w in args.workloads:
        runs = [run_once(w, s, args.seconds, 0) for s in args.seeds]
        if not all(r["correct"] for r in runs):
            ok = False
        report[w] = {}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            report[w][name] = s
            steady = s["spread"] < bound / 3
            if s["spread"] > bound:
                ok = False
            print(
                f"{w:<13} {name:<12} median {s['median']:<11.5g} "
                f"q1 {s['q1']:<11.5g} q3 {s['q3']:<11.5g} spread {s['spread']:.4f} "
                f"bound {bound} {'steady' if steady else 'NOT steady'}",
                flush=True,
            )
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": args.seeds, "seconds": args.seconds, "workloads": report},
                      f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
