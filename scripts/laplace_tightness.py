#!/usr/bin/env python3
"""Measure Laplace-mechanism noise against its analytic predictions.

Three checks: mean |noise| vs the configured scale, tail exceedance vs
exp(-margin/scale), and the same (eps, delta) budget giving an accurate
batch on a large database but a useless one on a small database.  Takes
a few seconds; add --out to keep the JSON.  TTPA_SEED overrides --seed,
as in every ttpa command.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ttpa.cli import resolve_seed
from ttpa.errors import write_json
from ttpa.sanitize import laplace_tightness_demo


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--seed", type=int, default=None, help="master seed (TTPA_SEED overrides)"
    )
    ap.add_argument("--out", help="write the full report JSON here")
    args = ap.parse_args()

    try:
        seed = resolve_seed(args.seed)
    except ValueError as e:
        ap.error(str(e))
    report = laplace_tightness_demo(seed)
    cal = report["calibration"]
    print(f"scale {cal['scale']:.6g}, {cal['draws']} draws")
    print(
        f"  mean |noise| / scale = {cal['mean_abs_ratio']:.4f}"
        f"  (within 5%: {cal['calibrated_5pct']})"
    )
    print(
        f"  exceed rate {cal['exceed_rate']:.4f} vs e^-1 = {cal['exceed_expected']:.4f}"
        f"  (within 3 sigma: {cal['exceed_within_3sigma']})"
    )
    for p in report["accuracy_points"]:
        print(
            f"{p['label']}: {p['rows']} rows, {p['queries']} queries, "
            f"scale {p['scale']:.4g} -> {p['alpha']}-accurate in "
            f"{p['accurate_rate']:.0%} of runs (expected "
            f"{'accurate' if p['expected_accurate'] else 'inaccurate'}: "
            f"{p['as_expected_95pct']})"
        )
    print(f"all_pass: {report['all_pass']}")

    if args.out:
        write_json(report, args.out)
        print(f"report: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
