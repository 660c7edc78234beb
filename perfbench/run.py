#!/usr/bin/env python3
"""ttpa benchmark: one workload, closed loop, one process, one thread.

    python3 perfbench/run.py --workload attack-exact --seed 1 --seconds 40 --trace 0

Builds nothing: it imports ttpa from ``src/`` next to this directory and
exits nonzero without a result if that fails.  Rounds run back to back
until --seconds of wall time have passed; there is no warm-up, the first
round is timed too.  Every round's outputs are checked; a failed check
counts its ops as failed and makes the exit code 1.

--trace 0 reports the end-to-end metrics.  Set-up is timed in separate
processes (interpreter start through input generation), spread evenly
between the rounds so that it sees the same drift of the host's speed
as the rounds do; ops_per_s counts round time only.  --trace 1
alternates untraced and traced rounds, with the layer tracer installed
only around the traced ones, and reports per-op layer metrics plus the
tracing overhead.  The last stdout line is the JSON result; the lines
before it repeat the metrics with units and the machine facts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

# one workload thread: keep BLAS from starting its own pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# the CLI lets TTPA_SEED override --seed; inputs come from --seed only
os.environ.pop("TTPA_SEED", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("attack-exact", "scan-exact", "laplace-demo")
SETUP_PROBES = 21

# layers reported as "<layer>.<fn>.self_s", self seconds per op
SELF_TIMES = (
    "ttscheme.tr_enc", "ttscheme.family_build", "crypto.enc_encrypt_many",
    "ttscheme.family_eval", "crypto.prg_expand", "ttscheme.tt_gen",
    "ttscheme.trace", "ttscheme.pirate_answer", "fpcode.fp_gen",
    "fpcode.fp_trace", "fpcode.fp_feasible", "sanitize.evaluate_batch",
    "sanitize.evaluate_query", "sanitize.sanitize_truths",
    "attack.pirate_from_sanitizer", "seeds.stream",
)


def import_ttpa() -> None:
    """Import ttpa from this checkout's src/, or exit without a result."""
    sys.path.insert(0, SRC)
    try:
        import ttpa
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import ttpa from {SRC}: {e}")
    if not os.path.abspath(ttpa.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: ttpa imported from {ttpa.__file__}, not {SRC}")


class Phase(NamedTuple):
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    seconds: float = 0.0  # summed wall time of the rounds

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.seconds


def run_phase(wl, seconds: float, tr=None, probe=None) -> tuple[Phase, Phase, list[float]]:
    """Rounds back to back until `seconds` of wall time have passed.

    Returns the untraced and the traced rounds' totals and the values of
    `probe`.  With a tracer, every second round runs traced, so both
    sets see the same drift of the host's speed; there is at least one
    of each.  `probe` is called SETUP_PROBES times between rounds,
    spread evenly over `seconds`.
    """
    from tracer import ROUND

    traced_round = tr.span(ROUND, wl.run_round) if tr else None
    phases, probed = [Phase(), Phase()], []
    start, i = time.perf_counter(), 0
    while True:
        traced = tr is not None and i % 2 == 1
        with tr if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            tally = (traced_round if traced else wl.run_round)(i)
            dt = time.perf_counter() - t0
        p = phases[traced]
        phases[traced] = Phase(
            p.attempted + tally.attempted, p.failed + tally.failed,
            p.rounds + 1, p.seconds + dt,
        )
        i += 1
        share = min((time.perf_counter() - start) / seconds, 1.0)
        while probe and len(probed) < SETUP_PROBES * share:
            probed.append(probe())
        if share == 1.0 and (tr is None or i >= 2):
            return phases[0], phases[1], probed


def setup_seconds(cmd: list[str]) -> float:
    """Seconds from starting a fresh set-up-only process until its set-up is done.

    The child prints the monotonic clock (shared by all processes) when
    its set-up ends, so the child's exit and the wait are not counted.
    """
    t0 = time.perf_counter()
    done = subprocess.run(
        cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=120
    ).stdout
    return float(done) - t0


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def _cache_size(level: int) -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        d = os.path.join(base, index)
        if _read(os.path.join(d, "level")) == str(level) and _read(
            os.path.join(d, "type")
        ) in ("Unified", "Data"):
            return _read(os.path.join(d, "size")) or "unknown"
    return "unknown"


def _git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit:
        return commit
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_facts(seed: int) -> dict:
    import numpy as np

    model = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "commit": _git_commit(),
    }


def layer_metrics(tr, wl, traced: Phase, untraced: Phase) -> dict:
    from tracer import layer_totals, span_durations

    tot = layer_totals(tr)

    def per_op(v: float) -> float:
        return v / traced.attempted

    m = {f"{name}.self_s": (per_op(tot.self_s.get(name, 0.0)), "s") for name in SELF_TIMES}
    calls, amount = tot.calls, tot.amount
    query_calls = calls.get("sanitize.evaluate_query", 0)
    prg_gen = span_durations(tr, "crypto.prg_params_gen")
    m.update({
        "ttscheme.tr_enc.ciphertexts": (per_op(amount.get("ttscheme.tr_enc", 0.0)), "count"),
        "crypto.enc_encrypt_many.calls": (per_op(calls.get("crypto.enc_encrypt_many", 0)), "count"),
        "ttscheme.family_eval.rows": (per_op(amount.get("ttscheme.family_eval", 0.0)), "count"),
        "crypto.prg_expand.calls": (per_op(calls.get("crypto.prg_expand", 0)), "count"),
        "fpcode.ell": (per_op(amount.get("fpcode.fp_gen", 0.0)), "count"),
        "sanitize.evaluate_query.calls": (per_op(query_calls), "count"),
        "circuit.gates_evaluated": (per_op(amount.get("sanitize.evaluate_query", 0.0)), "count"),
        "circuit.pack_rows.calls": (per_op(calls.get("circuit.pack_rows", 0)), "count"),
        "sanitize.pack_hit_ratio": (
            1.0 - calls.get("circuit.pack_rows", 0) / query_calls if query_calls else 0.0,
            "ratio",
        ),
        "attack.dp_audit.s": (per_op(tot.total_s.get("attack.dp_audit", 0.0)), "s"),
        "attack.trials_failed": (getattr(wl, "trials_failed", 0), "count"),
        "cli.report_io.s": (per_op(tot.total_s.get("cli.report_io", 0.0)), "s"),
        "crypto.prg_params_gen.s": (statistics.mean(prg_gen) if prg_gen else 0.0, "s"),
        "seeds.stream.calls": (per_op(calls.get("seeds.stream", 0)), "count"),
        "trace.cost_s": (per_op(tot.tracer_s), "s"),
        "trace.coverage": (tot.coverage, "ratio"),
        "trace.overhead": (traced.ops_per_s / untraced.ops_per_s, "ratio"),
    })
    return m


def run(args, workdir: str) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS

    tr = Tracer() if args.trace else None
    # the set-up's own layer calls (prg_params_gen) land in the trace too
    with tr or contextlib.nullcontext():
        wl = WORKLOADS[args.workload](args.seed, args.size, workdir)

    if tr:
        untraced, traced, _ = run_phase(wl, args.seconds, tr)
        os.makedirs(OUT_DIR, exist_ok=True)
        tr.save(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
        metrics = layer_metrics(tr, wl, traced, untraced)
        setup_times = []
    else:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--setup-only",
        ]
        untraced, traced, setup_times = run_phase(
            wl, args.seconds, probe=lambda: setup_seconds(cmd)
        )
        metrics = {
            "ops_per_s": (untraced.ops_per_s, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
    return {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "facts": machine_facts(args.seed),
        "setup_runs_s": setup_times,
        "untraced": untraced._asdict(),
        "traced": traced._asdict(),
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "metrics": metrics,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long inputs for the benchmark's tests")
    ap.add_argument("--out", help="also write the full result JSON here")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_ttpa()
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, args.size, OUT_DIR)
        print(repr(time.perf_counter()))
        return 0
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
            f.write("\n")

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} size {args.size}")
    print("facts " + json.dumps(result["facts"], sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
