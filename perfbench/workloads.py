"""The benchmark's workloads: set-up, one round of ops, and output checks.

Constructing a workload is its set-up (input generation from the
workload seed).  ``run_round(i)`` runs round i and returns how many ops
it attempted and how many of them failed a check.  Every call into ttpa
goes through a module attribute (``ttscheme.tt_gen``, not a name bound
at import), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from importlib import import_module
from typing import NamedTuple

# import_module, because the package re-exports a function named sanitize
attack, cli, crypto, sanitize, seeds, ttscheme = (
    import_module(f"ttpa.{m}")
    for m in ("attack", "cli", "crypto", "sanitize", "seeds", "ttscheme")
)

FULL = "full"
TINY = "tiny"  # seconds-long sizes for the benchmark's own tests


class Tally(NamedTuple):
    attempted: int
    failed: int


def input_seed(seed: int, *labels: object) -> int:
    """A 31-bit seed for one input, derived from the workload seed."""
    h = hashlib.sha256(repr((seed, *labels)).encode()).digest()
    return int.from_bytes(h[:4], "big") >> 1


class AttackExact:
    """Tracing trials of ``attack run --sanitizer exact`` through ttpa.cli.main.

    One op is one trial; a round is one command with ``trials`` trials
    per experiment, so it records up to 2 * trials ops.
    """

    name = "attack-exact"
    SIZES = {
        FULL: {"n": 10, "kappa": 64, "eps_fp": 0.05, "a": 100.0, "trials": 5},
        TINY: {"n": 4, "kappa": 16, "eps_fp": 0.2, "a": 100.0, "trials": 2},
    }

    def __init__(self, seed: int, size: str, workdir: str):
        p = self.SIZES[size]
        self.seed = seed
        self.trials = p["trials"]
        self.report_path = os.path.join(workdir, "attack-report.json")
        self.argv = [
            "attack", "run", "--sanitizer", "exact",
            "--n", str(p["n"]), "--kappa", str(p["kappa"]),
            "--eps-fp", str(p["eps_fp"]), "--a", str(p["a"]),
            "--trials", str(self.trials), "--jobs", "1",
            "--out", self.report_path,
        ]
        self.trials_failed = 0  # trials whose sanitizer failure the report records

    def run_round(self, i: int) -> Tally:
        argv = [*self.argv, "--seed", str(input_seed(self.seed, self.name, i))]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        try:
            with open(self.report_path) as f:
                report = json.load(f)
            os.remove(self.report_path)
        except (OSError, ValueError):
            return Tally(self.trials, self.trials)
        tally, sanitizer_failures = check_attack_report(rc, report)
        self.trials_failed += sanitizer_failures
        return tally if tally.attempted else Tally(self.trials, self.trials)


def check_attack_report(rc: int, report: dict) -> tuple[Tally, int]:
    """Trials recorded and failed, plus trials with a sanitizer failure.

    A trial fails if its sanitizer failed or its pirate word was
    infeasible.  Every trial of the command fails if it exited nonzero,
    elected no i*, or wrote no audit block.  The audit verdict itself is
    not checked: VIOLATED needs at least 20 trials per experiment.
    """
    exps = [e for e in (report.get("exp1"), report.get("exp2")) if e]
    records = [r for e in exps for r in e.get("trial_records", [])]
    sanitizer_failures = sum(bool(r.get("failed")) for r in records)
    bad = sum(bool(r.get("failed")) or not r.get("feasible") for r in records)
    rates_ok = all(
        e.get("failed_rate") == 0 and e.get("feasible_rate") == 1 for e in exps
    )
    audit = report.get("audit")
    command_ok = (
        rc == 0
        and report.get("i_star", -1) != -1
        and isinstance(audit, dict)
        and "violated" in audit
        and rates_ok
    )
    failed = bad if command_ok else len(records)
    return Tally(len(records), failed), sanitizer_failures


class ScanExact:
    """Linear-scan tracing of an exact-sanitizer pirate over n-1 of n key rows.

    One op is one ``linear_scan_report`` with the default repetition
    count, under keys drawn fresh per op from the set-up PRG.  The
    workload seed picks the row left out of the pirate's database.
    """

    name = "scan-exact"
    SIZES = {FULL: {"n": 16, "kappa": 64}, TINY: {"n": 4, "kappa": 16}}

    def __init__(self, seed: int, size: str, workdir: str):
        p = self.SIZES[size]
        self.seed, self.n, self.kappa = seed, p["n"], p["kappa"]
        self.dropped = input_seed(seed, self.name, "dropped") % self.n
        self.coalition = [u for u in range(self.n) if u != self.dropped]
        self.prg = crypto.prg_params_gen(
            input_seed(seed, self.name, "prg"), self.kappa // 2
        )
        self.repetitions = ttscheme.default_scan_repetitions(self.n)
        self.sanitizer = sanitize.SanitizerConfig()  # EXACT

    def make_pirate(self, ks: ttscheme.TTKeySet, i: int) -> ttscheme.PirateOracle:
        return attack.pirate_from_sanitizer(
            ks.params,
            ks.rows[self.coalition],
            self.sanitizer,
            seeds.stream(self.seed, "perfbench", self.name, i, "pirate"),
        )

    def run_round(self, i: int) -> Tally:
        ks = ttscheme.tt_gen(
            self.kappa,
            self.n,
            crypto.LOCAL_PRG,
            seeds.stream(self.seed, "perfbench", self.name, i, "keys"),
            prg=self.prg,
        )
        pirate = self.make_pirate(ks, i)
        out = ttscheme.linear_scan_report(
            ks, pirate, seeds.stream(self.seed, "perfbench", self.name, i, "scan")
        )
        return Tally(1, int(not self.check(out)))

    def check(self, out: ttscheme.ScanOutcome) -> bool:
        """The criterion-8 endpoints, and an accused row inside the coalition."""
        s = self.repetitions
        return (
            out.repetitions == s
            and int(out.counts[0]) == 0
            and int(out.counts[self.n]) == s
            and out.accused is not None
            and out.accused - 1 in self.coalition
        )


class LaplaceDemo:
    """``laplace_tightness_demo(seed)``, the ``demo laplace-tightness`` command.

    Every op reruns the demo at the workload seed, so every report must
    be byte-identical to the first.  The demo has fixed sizes; the tiny
    size runs it unchanged.
    """

    name = "laplace-demo"
    DRAWS = 100_000

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.first: str | None = None

    def run_round(self, i: int) -> Tally:
        report = sanitize.laplace_tightness_demo(self.seed)
        text = json.dumps(report, sort_keys=True)
        if self.first is None:
            self.first = text
        ok = (
            report.get("all_pass") is True
            and report["calibration"]["draws"] == self.DRAWS
            and text == self.first
        )
        return Tally(1, int(not ok))


WORKLOADS = {w.name: w for w in (AttackExact, ScanExact, LaplaceDemo)}
