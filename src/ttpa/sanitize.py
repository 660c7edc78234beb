"""Counting-query sanitizers over bit-row databases.

A database is m rows of d bits; a counting query is a predicate circuit
over {0,1}^d and its true answer is the satisfying fraction.  The EXACT
sanitizer returns truth; the LAPLACE sanitizer adds noise calibrated to
answer a batch of k queries from eps and delta:

    BASIC     scale = k / (eps * m)                     (pure eps-DP)
    ADVANCED  scale = sqrt(2 k ln(1/delta)) / (eps * m) (needs delta > 0)

BASIC proves (eps, 0) over the batch.  ADVANCED spends eps0 =
eps / sqrt(2 k ln(1/delta)) per query, which advanced composition
(Dwork, Rothblum & Vadhan 2010) bounds by (eps', delta) with
eps' = eps + k * eps0 * (e^eps0 - 1), about eps + eps^2 / (2 ln(1/delta)):
1.109 at eps=1, delta=0.01, whatever k, so not eps itself.

Answers are clamped to [0, 1].  Optional amplification reruns the
mechanism r times and takes the per-query median.  Those are r
full-scale draws, which compose to r * eps under basic composition;
`attack run` audits the bare --eps all the same.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .circuit import Circuit, CircuitBuilder, _eval_packed, pack_rows
from .errors import (
    PIECE,
    FileFormatError,
    InputShapeError,
    as_bits,
    bits_from_hex,
    bits_to_hex,
    check_alloc,
)
from .seeds import stream

EXACT = "EXACT"
LAPLACE = "LAPLACE"
BASIC = "BASIC"
ADVANCED = "ADVANCED"

# Per query and Laplace amplification round: the float64 noise plus its
# sum with the truths, then, from two rounds up, that sum plus the
# median's copy.  sanitize_truths holds at most ROUND_BYTES * (rounds + 2)
# bytes a query, rounds counted from 1.
ROUND_BYTES = 16


@dataclass(eq=False)
class Database:
    """m rows of d bits.  The rows are a read-only view once built: m, d
    and the packed columns are taken from them once, because every
    counting query reads them, and each circuit is answered once."""

    rows: np.ndarray  # (m, d) uint8
    _packed: list[int] | None = field(default=None, init=False, repr=False)
    # circuit serial -> answer
    _answers: dict[int, float] = field(default_factory=dict, init=False, repr=False)
    m: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.rows)
        if arr.ndim != 2:
            raise InputShapeError("database rows must be a 2-d bit matrix")
        arr = self.rows = as_bits(arr, "database entries must be bits").view()
        arr.flags.writeable = False
        self.m, self.d = (int(s) for s in arr.shape)

    def packed_columns(self) -> list[int]:
        if self._packed is None:
            self._packed = pack_rows(self.rows)
        return self._packed


class QueryFamily(Protocol):
    """A batch of circuits with a bulk evaluator (see TTDecQueryFamily)."""

    input_width: int

    def __len__(self) -> int: ...

    def evaluate_on_rows(self, rows: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class SanitizerConfig:
    kind: str = EXACT
    epsilon: float | None = None
    delta: float | None = None
    composition: str = BASIC
    amplification_rounds: int = 0

    def __post_init__(self):
        if self.kind not in (EXACT, LAPLACE):
            raise InputShapeError(f"unknown sanitizer kind {self.kind!r}")
        if self.composition not in (BASIC, ADVANCED):
            raise InputShapeError(f"unknown composition rule {self.composition!r}")
        if self.amplification_rounds < 0:
            raise InputShapeError("amplification rounds must be >= 0")
        if self.delta is not None and not math.isfinite(self.delta):
            raise InputShapeError(f"delta must be finite, got {self.delta}")
        # an EXACT run reads none of these, yet reports would echo them
        unread = (self.epsilon, self.delta, self.composition, self.amplification_rounds)
        if self.kind == EXACT and unread != (None, None, BASIC, 0):
            raise InputShapeError(
                "epsilon, delta, ADVANCED composition and amplification rounds are LAPLACE only"
            )
        if self.kind == LAPLACE:
            if self.epsilon is None or not 0 < self.epsilon < math.inf:
                raise InputShapeError(f"LAPLACE needs a finite epsilon > 0, got {self.epsilon}")
            if self.composition == ADVANCED and not (
                self.delta is not None and 0.0 < self.delta < 1.0
            ):
                raise InputShapeError("ADVANCED composition needs delta in (0,1)")


def laplace_scale(cfg: SanitizerConfig, k: int, m: int) -> float:
    """Noise scale for a k-query batch over m rows; refused unless finite."""
    if cfg.kind != LAPLACE:
        raise InputShapeError("noise scale is defined for LAPLACE sanitizers")
    if k < 1 or m < 1:
        raise InputShapeError("need k >= 1 queries and m >= 1 rows")
    if cfg.composition == BASIC:
        scale = k / (cfg.epsilon * m)
    else:
        scale = math.sqrt(2.0 * k * math.log(1.0 / cfg.delta)) / (cfg.epsilon * m)
    if not math.isfinite(scale):
        raise InputShapeError(
            f"eps={cfg.epsilon}, delta={cfg.delta} give a noise scale of {scale}"
            f" for {k} queries over {m} rows"
        )
    return scale


def _check_queries(width: int, db: Database) -> None:
    """Queries of this width can be answered on db: widths match, rows exist."""
    if width != db.d:
        raise InputShapeError(f"query width {width} != database width {db.d}")
    if db.m == 0:
        raise InputShapeError("cannot evaluate queries on an empty database")


def evaluate_query(query: Circuit, db: Database) -> float:
    """True answer: the fraction of rows satisfying the predicate, taken
    once per circuit on db and kept under the circuit's serial number.

    The width and empty-database checks run on a miss only: an entry
    exists only for a circuit that passed both on db.  An equal circuit
    built separately has its own serial and is evaluated again.
    """
    try:
        return db._answers[query.serial]
    except KeyError:
        pass
    _check_queries(query.input_width, db)
    answer = _eval_packed(query, db.packed_columns(), (1 << db.m) - 1).bit_count() / db.m
    db._answers[query.serial] = answer
    return answer


def evaluate_batch(queries: Sequence[Circuit] | QueryFamily, db: Database) -> np.ndarray:
    """True answers for a whole batch; uses the family bulk path if offered.

    The family's (k, m) bits are tallied per query in the narrowest
    unsigned integer that holds m, then divided by m: a float64 sum of 0/1
    values is exact, so this is .mean(axis=1) to the byte.
    """
    if hasattr(queries, "evaluate_on_rows"):
        _check_queries(queries.input_width, db)
        bits = queries.evaluate_on_rows(db.rows)
        return np.add.reduce(bits, axis=1, dtype=np.min_scalar_type(db.m)) / db.m
    return np.fromiter(
        map(evaluate_query, queries, itertools.repeat(db)), np.float64, len(queries)
    )


def sanitize_truths(
    cfg: SanitizerConfig, truths: np.ndarray, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Apply the mechanism to already-computed true answers; noise that
    check_alloc refuses is refused before the draw."""
    if cfg.kind == EXACT:
        return truths
    k = truths.shape[0]
    if k == 0:
        return truths
    scale = laplace_scale(cfg, k, m)
    rounds = max(1, cfg.amplification_rounds)
    check_alloc(k * ROUND_BYTES * (rounds + 2), f"Laplace noise for {k} queries at rounds={rounds}")
    noisy = truths[None, :] + rng.laplace(0.0, scale, size=(rounds, k))
    np.clip(noisy, 0.0, 1.0, out=noisy)
    # the median of one value is that value, so one round skips the copy
    return noisy[0] if rounds == 1 else np.median(noisy, axis=0)


def sanitize(
    cfg: SanitizerConfig,
    db: Database,
    queries: Sequence[Circuit] | QueryFamily,
    rng: np.random.Generator,
) -> np.ndarray:
    """Answer the batch under the configured mechanism; one array in [0,1]."""
    return sanitize_truths(cfg, evaluate_batch(queries, db), db.m, rng)


def accuracy_check(
    answers: np.ndarray, truths: np.ndarray, alpha: float
) -> tuple[bool, float]:
    """Is every answer within alpha of truth?  Returns (ok, worst error)."""
    a = np.asarray(answers, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    if a.shape != t.shape:
        raise InputShapeError(f"shape mismatch {a.shape} vs {t.shape}")
    if a.size == 0:
        return True, 0.0
    worst = float(np.abs(a - t).max())
    return worst <= alpha, worst


def dictator_circuit(wire: int, width: int) -> Circuit:
    """The projection predicate x -> x[wire]."""
    b = CircuitBuilder(width)
    return b.build(b.input(wire))


def save_database(db: Database, path: str) -> None:
    """A d=<width> header line, then one hex row a line, written PIECE rows at a time."""
    with open(path, "w") as f:
        f.write(f"d={db.d}\n")
        for lo in range(0, db.m, PIECE):
            f.write("\n".join(bits_to_hex(db.rows[lo : lo + PIECE])) + "\n")


def load_database(path: str) -> Database:
    """A save_database file's rows, read PIECE lines at a time; a blank line holds none.

    A row takes 2 * ceil(d / 8) + 1 characters or more, so the file's size bounds the rows,
    whose bits are counted twice (the pieces, then their join) before any is read."""
    with open(path) as f:
        header = f.readline().strip()
        d = int(header[2:]) if header[:2] == "d=" and header[2:].isdecimal() else 0
        if d < 1:
            raise FileFormatError(f"database header must be 'd=<int >= 1>', got {header!r}")
        most = (os.fstat(f.fileno()).st_size + 1) // (2 * ((d + 7) // 8) + 1)
        check_alloc(2 * most * d, f"a database file of up to {most} rows of {d} bits")
        pieces = []
        for k, lines in enumerate(iter(lambda: list(itertools.islice(f, PIECE)), [])):
            filled = np.fromiter(map(bool, map(str.strip, lines)), bool, len(lines))
            lineno = 2 + k * PIECE + np.flatnonzero(filled)
            rows = list(itertools.compress(lines, filled))
            pieces.append(bits_from_hex(rows, d, lambda u: f"line {lineno[u]}", FileFormatError))
    if not sum(map(len, pieces)):
        raise FileFormatError("database has no rows")
    return Database(np.concatenate(pieces))


def laplace_tightness_demo(master_seed: int = 0) -> dict:
    """Measured Laplace behavior vs the analytic predictions.

    Three checks: |noise| averages to the scale, the exceedance rate
    over any margin matches exp(-margin/scale), and the advanced-
    composition scale separates a large database (accurate batch) from a
    small one (useless batch) at the same budget.
    """
    report: dict = {"seed": master_seed}

    # calibration + exceedance: truth pinned at 1/2 so clamping is inert
    m, k, batches = 2000, 5000, 20
    half = np.zeros((m, 1), dtype=np.uint8)
    half[: m // 2, 0] = 1
    db = Database(half)
    query = dictator_circuit(0, 1)
    cfg = SanitizerConfig(LAPLACE, epsilon=k / (0.05 * m), composition=BASIC)
    scale = laplace_scale(cfg, k, m)
    errs = []
    for b in range(batches):
        ans = sanitize(cfg, db, [query] * k, stream(master_seed, "calibration", b))
        ans -= 0.5
        errs.append(ans)
    err = np.concatenate(errs)
    del errs, ans
    np.abs(err, out=err)
    draws = err.shape[0]
    exceed = float((err > scale).mean())
    expected_exceed = math.exp(-1.0)
    sigma = math.sqrt(expected_exceed * (1 - expected_exceed) / draws)
    report["calibration"] = {
        "scale": scale,
        "draws": draws,
        "mean_abs_error": float(err.mean()),
        "mean_abs_ratio": float(err.mean() / scale),
        "exceed_margin": scale,
        "exceed_rate": exceed,
        "exceed_expected": expected_exceed,
        "exceed_sigma": sigma,
        "calibrated_5pct": bool(abs(err.mean() / scale - 1.0) <= 0.05),
        "exceed_within_3sigma": bool(abs(exceed - expected_exceed) <= 3 * sigma),
    }
    del err  # before the accuracy part's larger arrays

    # same budget, two database sizes: accuracy is a property of m
    k2, d, trials = 10_000, 16, 20
    cfg2 = SanitizerConfig(LAPLACE, epsilon=1.0, delta=1e-9, composition=ADVANCED)
    wires = [dictator_circuit(w, d) for w in range(d)]
    queries = [wires[j % d] for j in range(k2)]
    points = []
    for label, m2, alpha, want_ok in (
        ("large", 100_000, 0.10, True),
        ("small", 100, 0.49, False),
    ):
        rows = stream(master_seed, "demo-db", label).integers(
            0, 2, (m2, d), dtype=np.uint8
        )
        db2 = Database(rows)
        truths = evaluate_batch(queries, db2)
        ok_count = 0
        for t in range(trials):
            ans = sanitize(cfg2, db2, queries, stream(master_seed, "demo", label, t))
            ok, _worst = accuracy_check(ans, truths, alpha)
            ok_count += ok
        points.append(
            {
                "label": label,
                "rows": m2,
                "queries": k2,
                "alpha": alpha,
                "scale": laplace_scale(cfg2, k2, m2),
                "accurate_rate": ok_count / trials,
                "expected_accurate": want_ok,
                "as_expected_95pct": bool(
                    (ok_count / trials >= 0.95)
                    if want_ok
                    else (ok_count / trials <= 0.05)
                ),
            }
        )
    report["accuracy_points"] = points
    report["all_pass"] = bool(
        report["calibration"]["calibrated_5pct"]
        and report["calibration"]["exceed_within_3sigma"]
        and all(p["as_expected_95pct"] for p in points)
    )
    return report
