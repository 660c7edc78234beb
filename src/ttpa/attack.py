"""Sanitizers as pirate decoders: the tracing-vs-privacy experiment.

A coalition pools its key rows into a bit-row database.  Each tracing
ciphertext compiles (from public data alone) into a decryption query,
so a sanitizer accurate on counting queries answers the whole tracing
batch: round each sanitized fraction (ties up) and the result is a
pirate word.  Tracing that pirate must accuse a database row.

The experiment pair turns this into a privacy audit.  Experiment 1
runs tracing against the full-coalition database and picks the most
accused user i*.  Experiment 2 reruns it with i*'s row removed, a
neighboring database.  A sanitizer that is (eps, delta)-private cannot
let Pr[accuse i*] drop by more than the privacy inequality allows; a
sound tracer forces exactly such a drop, and dp_audit measures it with
finite-sample slack.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .crypto import LOCAL_PRG, check_prg_draw, circuit_prg, default_stretch, prg_params_gen
from .errors import MAX_ALLOC_BYTES, InputShapeError, SanitizerFailure, check_alloc
from .fpcode import DEFAULT_EPS_FP, DEFAULT_LENGTH_CONSTANT, code_length, fp_feasible
from .sanitize import (
    LAPLACE,
    Database,
    SanitizerConfig,
    evaluate_batch,
    laplace_scale,
    sanitize_truths,
)
from .seeds import derive_seed, stream
from .ttscheme import (
    PirateOracle,
    TTDecQueryFamily,
    TTParams,
    check_batch,
    check_key_shape,
    tt_gen,
    tt_trace_report,
)

EXP_FULL = "full"
EXP_MINUS = "minus"

# two-sided 95% normal quantile, used by the Wilson intervals
Z_95 = 1.959963984540054

# fewer trials than this on either side leave an audit inconclusive
MIN_AUDIT_TRIALS = 20

# Peak bytes per trial record while attack run holds both experiments' records,
# the report dict and its JSON text, measured under tracemalloc serially and
# with --jobs 2: about 940 a record while the JSON encoder keeps every fragment
# of a small report, about 510 in a large one
RECORD_BYTES = 1024


@dataclass(frozen=True)
class AttackConfig:
    n: int = 10
    kappa: int = 64
    eps_fp: float = DEFAULT_EPS_FP
    trials: int = 200
    sanitizer: SanitizerConfig = field(default_factory=SanitizerConfig)
    a: float = DEFAULT_LENGTH_CONSTANT
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise InputShapeError("the experiment needs at least two users")
        if self.trials < 1:
            raise InputShapeError("need at least one trial")
        records = 2 * self.trials * RECORD_BYTES
        check_alloc(records, f"the records of {self.trials} trials per experiment")
        check_key_shape(self.kappa, self.n)
        check_prg_draw(self.kappa // 2)
        self.trial_bytes()
        if self.sanitizer.kind == LAPLACE:
            # the minus experiment's n - 1 rows give the larger scale
            laplace_scale(self.sanitizer, code_length(self.n, self.eps_fp, self.a), self.n - 1)

    def trial_bytes(self) -> int:
        """check_batch for one trial, counting the sanitizer's rounds."""
        return check_batch(
            self.n, code_length(self.n, self.eps_fp, self.a), default_stretch(self.kappa // 2),
            self.sanitizer.amplification_rounds,
        )


def pirate_from_sanitizer(
    params: TTParams,
    coalition_rows: np.ndarray,
    cfg: SanitizerConfig,
    rng: np.random.Generator,
) -> PirateOracle:
    """Wrap a sanitizer over the pooled coalition rows as a one-shot decoder.

    The decoder touches ciphertexts and public parameters only; the key
    material lives inside the database.  Sanitized answers are rounded
    with ties going to 1.  oracle.stats records the batch size and the
    worst answer error against truth.  Any exception out of the
    sanitizer machinery is rethrown as SanitizerFailure so experiment
    runners can count the trial as an availability violation.
    """
    circuit_prg(params.prg)  # refuse PRF keys before handing out an oracle
    db = Database(coalition_rows)
    if db.d != params.kappa:
        raise InputShapeError(
            f"coalition rows are {db.d} bits wide, keys are {params.kappa}"
        )

    def fn(cts, oracle: PirateOracle) -> np.ndarray:
        family = TTDecQueryFamily.from_ciphertexts(cts, params)
        try:
            truths = evaluate_batch(family, db)
            answers = sanitize_truths(cfg, truths, db.m, rng)
        except Exception as e:
            raise SanitizerFailure(f"sanitizer errored on the batch: {e}") from e
        oracle.stats["queries"] = len(family)
        oracle.stats["max_abs_err"] = (
            float(np.abs(answers - truths).max()) if len(family) else 0.0
        )
        return (answers >= 0.5).astype(np.uint8)

    return PirateOracle(fn, label=f"sanitizer:{cfg.kind}", rounds=cfg.amplification_rounds)


class TrialRecord(NamedTuple):
    accused: int | None
    feasible: bool
    max_abs_err: float | None  # None when the sanitizer failed
    failed: bool


@dataclass(frozen=True)
class ExperimentStats:
    label: str
    coalition: tuple[int, ...]
    records: tuple[TrialRecord, ...]

    @property
    def trials(self) -> int:
        return len(self.records)

    def accused_counts(self) -> Counter:
        return Counter(r.accused for r in self.records if r.accused is not None)

    def accusation_count(self, user: int) -> int:
        return sum(1 for r in self.records if r.accused == user)

    @property
    def accusation_rate(self) -> float:
        return sum(r.accused is not None for r in self.records) / self.trials

    @property
    def none_rate(self) -> float:
        return 1.0 - self.accusation_rate

    @property
    def feasible_rate(self) -> float:
        return sum(r.feasible for r in self.records) / self.trials

    @property
    def failed_rate(self) -> float:
        return sum(r.failed for r in self.records) / self.trials

    def to_dict(self) -> dict:
        errs = [r.max_abs_err for r in self.records if r.max_abs_err is not None]
        return {
            "label": self.label,
            "coalition": list(self.coalition),
            "trials": self.trials,
            "accused_freq": {
                str(u): c / self.trials
                for u, c in sorted(self.accused_counts().items())
            },
            "none_freq": self.none_rate,
            "feasible_rate": self.feasible_rate,
            "failed_rate": self.failed_rate,
            "max_abs_err": {
                "mean": float(np.mean(errs)) if errs else None,
                "max": float(np.max(errs)) if errs else None,
            },
            "trial_records": [r._asdict() for r in self.records],
        }


@dataclass(frozen=True)
class AttackReport:
    config: AttackConfig
    exp_full: ExperimentStats
    exp_minus: ExperimentStats | None
    i_star: int | None

    def to_dict(self, audit: dict | None = None) -> dict:
        obj = {
            "params": asdict(self.config),
            "i_star": -1 if self.i_star is None else self.i_star,
            "exp1": self.exp_full.to_dict(),
            "exp2": None if self.exp_minus is None else self.exp_minus.to_dict(),
        }
        if audit is not None:
            obj["audit"] = audit
        return obj


def _run_trial(cfg: AttackConfig, prg, tag: str, coalition: tuple[int, ...], t: int) -> TrialRecord:
    ks = tt_gen(
        cfg.kappa, cfg.n, LOCAL_PRG, stream(cfg.seed, "attack", tag, t, "keys"), prg=prg
    )
    rows = ks.rows[list(coalition)]
    pirate = pirate_from_sanitizer(
        ks.params, rows, cfg.sanitizer, stream(cfg.seed, "attack", tag, t, "pirate")
    )
    try:
        out = tt_trace_report(
            ks, pirate, cfg.eps_fp, stream(cfg.seed, "attack", tag, t, "trace"), a=cfg.a
        )
    except SanitizerFailure:
        return TrialRecord(None, False, None, True)
    feasible = fp_feasible(out.codebook.words[list(coalition)], out.word)
    return TrialRecord(out.accused, feasible, pirate.stats["max_abs_err"], False)


def _run_experiment(
    cfg: AttackConfig, prg, tag: str, coalition: Sequence[int], jobs: int
) -> ExperimentStats:
    coalition = tuple(sorted(int(u) for u in coalition))
    if jobs > 1 and hasattr(os, "fork"):
        import multiprocessing  # here, so a serial run never loads the pool's modules

        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            records = pool.map(
                functools.partial(_run_trial, cfg, prg, tag, coalition), range(cfg.trials)
            )
    else:
        records = [_run_trial(cfg, prg, tag, coalition, t) for t in range(cfg.trials)]
    return ExperimentStats(tag, coalition, tuple(records))


def worker_count(jobs: int, trials: int, cpus: int) -> int:
    """Processes to run trials on: jobs clamped to the trials and the cpus.

    Rejects jobs < 1, so a bad request fails before any work starts.
    """
    if jobs < 1:
        raise InputShapeError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, trials, cpus)


def elect_i_star(stats: ExperimentStats) -> int | None:
    """The most accused user, ties to the smallest index; None if no trial accused anyone."""
    counts = stats.accused_counts()
    return min(counts, key=lambda u: (-counts[u], u), default=None)


def run_attack(cfg: AttackConfig, jobs: int = 1) -> AttackReport:
    """Both experiments, deterministically seeded; jobs never affects output.

    Experiment 1 traces the full-coalition pirate cfg.trials times and
    elects i* = the most accused user (ties to the smallest index).
    Experiment 2 repeats with i* removed from the database.  If no
    trial of experiment 1 accused anyone there is no i*; experiment 2
    is skipped and the audit can only be inconclusive.
    """
    need = cfg.trial_bytes()
    # each worker holds one trial at a time: no more workers than fit in memory
    jobs = min(worker_count(jobs, cfg.trials, os.cpu_count() or 1), MAX_ALLOC_BYTES // need)
    prg = prg_params_gen(derive_seed(cfg.seed, "attack", "prg"), cfg.kappa // 2)
    exp_full = _run_experiment(cfg, prg, EXP_FULL, range(cfg.n), jobs)
    i_star = elect_i_star(exp_full)
    exp_minus = None if i_star is None else _run_experiment(
        cfg, prg, EXP_MINUS, [u for u in range(cfg.n) if u != i_star], jobs
    )
    return AttackReport(cfg, exp_full, exp_minus, i_star)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InputShapeError("need at least one trial")
    if not 0 <= successes <= trials:
        raise InputShapeError(f"{successes} successes out of {trials} trials")
    p = successes / trials
    z2 = Z_95 * Z_95
    den = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / den
    half = Z_95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4 * trials * trials)) / den
    # center -/+ half is exactly p at the boundaries in real arithmetic;
    # pin it so rounding noise cannot push the bound past the estimate
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def check_audit_budget(epsilon: float, delta: float) -> None:
    """An audited (epsilon, delta) claim needs both finite and nonnegative,
    delta at most 1, and e^epsilon a finite float: the audit multiplies by it."""
    if not (0 <= epsilon < math.inf and 0 <= delta < math.inf):  # NaN fails both
        raise InputShapeError(
            f"epsilon and delta must be finite and nonnegative, got {epsilon} and {delta}"
        )
    if delta > 1:
        raise InputShapeError(f"delta={delta} claims nothing: no probability exceeds 1")
    if epsilon > math.log(sys.float_info.max):
        raise InputShapeError(f"epsilon={epsilon} is too large to audit: e^epsilon overflows")


def dp_audit(report: AttackReport, epsilon: float, delta: float) -> dict:
    """Test the claimed (epsilon, delta) against the measured accusation drop.

    Violated iff p_full(i*) > e^eps * p_minus(i*) + delta + eps_stat,
    where eps_stat is the Wilson slack on both frequencies; the
    test is equivalent to comparing the Wilson lower bound of p_full
    against e^eps times the Wilson upper bound of p_minus plus delta.
    margin > 0 means violated.  Fewer than MIN_AUDIT_TRIALS trials on
    either side (or no i*) leaves the verdict inconclusive, never violated.

    Each Wilson bound is a two-sided 95% interval on one proportion, and
    i* is elected from the same experiment-1 trials that estimate
    p_full(i*), so no false-VIOLATED level is promised.  On synthetic
    runs at the boundary (the claim holding with equality for every
    user) the verdict was VIOLATED in 1.35%, 3.4% and 4.8% of runs at
    n = 10, 32 and 64, against 0.15-0.20% with a fixed i*; a level needs
    i* elected on held-out trials.
    """
    check_audit_budget(epsilon, delta)
    out = {
        "epsilon": epsilon,
        "delta": delta,
        "i_star": -1 if report.i_star is None else report.i_star,
        "trials_full": report.exp_full.trials,
        "trials_minus": 0 if report.exp_minus is None else report.exp_minus.trials,
        "p_full": 0.0,
        "p_minus": 0.0,
        "eps_stat": None,
        "margin": None,
        "conclusive": False,
        "violated": False,
    }
    if report.i_star is None or report.exp_minus is None:
        return out
    c1, t1 = report.exp_full.accusation_count(report.i_star), report.exp_full.trials
    c2, t2 = report.exp_minus.accusation_count(report.i_star), report.exp_minus.trials
    p1, p2 = c1 / t1, c2 / t2
    lo1, _ = wilson_interval(c1, t1)
    _, hi2 = wilson_interval(c2, t2)
    grow = math.exp(epsilon)
    eps_stat = (p1 - lo1) + grow * (hi2 - p2)
    margin = p1 - (grow * p2 + delta + eps_stat)
    conclusive = t1 >= MIN_AUDIT_TRIALS and t2 >= MIN_AUDIT_TRIALS
    out.update(
        p_full=p1,
        p_minus=p2,
        eps_stat=eps_stat,
        margin=margin,
        conclusive=conclusive,
        violated=bool(conclusive and margin > 0),
    )
    return out
