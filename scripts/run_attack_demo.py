#!/usr/bin/env python3
"""Run the sanitizer-as-pirate tracing experiment and audit the outcome.

A front end for `attack run`: every flag other than the two below goes
to it unchanged and is checked there (see `attack run --help`), so a
bad value exits 2 before any trial runs.  Full scale (the defaults:
n=10 users, kappa=64, 200 trials per experiment) takes 7-9 s serial on
a 2-vCPU Xeon; --quick drops to a toy size that finishes in half a
second but is too small for a conclusive audit.
Writes report.json and summary.csv next to each other and prints the
text summary.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ttpa.cli import main as ttpa_main

QUICK = ["--n", "4", "--kappa", "16", "--trials", "20"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--out-dir", default=".")
    ap.add_argument(
        "--quick", action="store_true",
        help="n=4, kappa=16, 20 trials: a half-second smoke run, not evidence",
    )
    args, rest = ap.parse_known_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "report.json")
    csv_path = os.path.join(args.out_dir, "summary.csv")
    code = ttpa_main(
        ["attack", "run", *rest, *(QUICK if args.quick else []),
         "--out", report_path, "--summary-csv", csv_path]
    )
    if code == 0:
        print(f"summary: {csv_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
