#!/usr/bin/env python3
"""Run the sanitizer-as-pirate tracing experiment and audit the outcome.

Full scale (the defaults: n=10 users, kappa=64, 200 trials per
experiment) takes 7-9 s serial on a 2-vCPU Xeon; --quick drops to a
toy size that finishes in half a second but is too small for a
conclusive audit.
Writes report.json and summary.csv next to each other and prints the
text summary.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ttpa.attack import AttackConfig, dp_audit, run_attack
from ttpa.cli import canonical_json, emit_summary, summary_csv
from ttpa.sanitize import EXACT, LAPLACE, SanitizerConfig


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--kappa", type=int, default=64)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--sanitizer", choices=("exact", "laplace"), default="exact")
    ap.add_argument("--eps", type=float, default=1.0, help="audited privacy budget")
    ap.add_argument("--delta", type=float, default=0.01)
    ap.add_argument("--a", type=float, default=100.0, help="code length constant")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out-dir", default=".")
    ap.add_argument(
        "--quick", action="store_true",
        help="n=4, kappa=16, 20 trials: a half-second smoke run, not evidence",
    )
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    if args.quick:
        args.n, args.kappa, args.trials = 4, 16, 20
    sanitizer = (
        SanitizerConfig(EXACT)
        if args.sanitizer == "exact"
        else SanitizerConfig(LAPLACE, epsilon=args.eps, delta=args.delta)
    )
    cfg = AttackConfig(
        n=args.n,
        kappa=args.kappa,
        trials=args.trials,
        sanitizer=sanitizer,
        a=args.a,
        seed=args.seed,
    )
    report = run_attack(cfg, jobs=args.jobs)
    obj = report.to_dict(dp_audit(report, args.eps, args.delta))

    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "report.json")
    csv_path = os.path.join(args.out_dir, "summary.csv")
    with open(report_path, "w") as f:
        f.write(canonical_json(obj) + "\n")
    with open(csv_path, "w") as f:
        f.write(summary_csv(obj))

    print(emit_summary(obj))
    print(f"report: {report_path}")
    print(f"summary: {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
