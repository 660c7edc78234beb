"""Counting-query sanitizers over bit-row databases.

A database is m rows of d bits; a counting query is a predicate circuit
over {0,1}^d and its true answer is the satisfying fraction.  The EXACT
sanitizer returns truth; the LAPLACE sanitizer adds noise calibrated to
answer a batch of k queries with per-batch budget (eps, delta):

    BASIC     scale = k / (eps * m)                     (pure eps-DP)
    ADVANCED  scale = sqrt(2 k ln(1/delta)) / (eps * m) (needs delta > 0)

Answers are clamped to [0, 1].  Optional amplification reruns the
mechanism r times and takes the per-query median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .circuit import Circuit, CircuitBuilder, _eval_packed, pack_rows
from .errors import FileFormatError, InputShapeError, as_bits, bits_from_hex, bits_to_hex
from .seeds import stream

EXACT = "EXACT"
LAPLACE = "LAPLACE"
BASIC = "BASIC"
ADVANCED = "ADVANCED"


@dataclass(eq=False)
class Database:
    """m rows of d bits.  The rows are read-only once built: m, d, the
    all-ones mask over m points and the packed columns are taken from
    them once, because every counting query reads them."""

    rows: np.ndarray  # (m, d) uint8
    _packed: list[int] | None = field(default=None, init=False, repr=False)
    m: int = field(init=False)
    d: int = field(init=False)
    mask: int = field(init=False, repr=False)  # (1 << m) - 1

    def __post_init__(self):
        arr = np.asarray(self.rows)
        if arr.ndim != 2:
            raise InputShapeError("database rows must be a 2-d bit matrix")
        arr = self.rows = as_bits(arr, "database entries must be bits")
        self.m, self.d = (int(s) for s in arr.shape)
        self.mask = (1 << self.m) - 1

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
        if self.kind == EXACT and self.amplification_rounds > 0:
            raise InputShapeError("amplification rounds apply to LAPLACE only")
        if self.kind == LAPLACE:
            if self.epsilon is None or self.epsilon <= 0:
                raise InputShapeError("LAPLACE needs epsilon > 0")
            if self.composition == ADVANCED and not (
                self.delta is not None and 0.0 < self.delta < 1.0
            ):
                raise InputShapeError("ADVANCED composition needs delta in (0,1)")


def laplace_scale(cfg: SanitizerConfig, k: int, m: int) -> float:
    """Noise scale for a k-query batch over m rows."""
    if cfg.kind != LAPLACE:
        raise InputShapeError("noise scale is defined for LAPLACE sanitizers")
    if k < 1 or m < 1:
        raise InputShapeError("need k >= 1 queries and m >= 1 rows")
    if cfg.composition == BASIC:
        return k / (cfg.epsilon * m)
    return math.sqrt(2.0 * k * math.log(1.0 / cfg.delta)) / (cfg.epsilon * m)


def evaluate_query(query: Circuit, db: Database) -> float:
    """True answer: the fraction of rows satisfying the predicate."""
    if query.input_width != db.d:
        raise InputShapeError(
            f"query width {query.input_width} != database width {db.d}"
        )
    if db.m == 0:
        raise InputShapeError("cannot evaluate queries on an empty database")
    hits = _eval_packed(query, db.packed_columns(), db.mask)
    return hits.bit_count() / db.m


def evaluate_batch(queries: Sequence[Circuit] | QueryFamily, db: Database) -> np.ndarray:
    """True answers for a whole batch; uses the family bulk path if offered."""
    if hasattr(queries, "evaluate_on_rows"):
        if queries.input_width != db.d:
            raise InputShapeError(
                f"query width {queries.input_width} != database width {db.d}"
            )
        if db.m == 0:
            raise InputShapeError("cannot evaluate queries on an empty database")
        return queries.evaluate_on_rows(db.rows).mean(axis=1)
    return np.array([evaluate_query(q, db) for q in queries], dtype=np.float64)


def sanitize_truths(
    cfg: SanitizerConfig, truths: np.ndarray, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Apply the mechanism to already-computed true answers."""
    if cfg.kind == EXACT:
        return truths
    k = truths.shape[0]
    if k == 0:
        return truths
    scale = laplace_scale(cfg, k, m)
    rounds = max(1, cfg.amplification_rounds)
    noisy = truths[None, :] + rng.laplace(0.0, scale, size=(rounds, k))
    np.clip(noisy, 0.0, 1.0, out=noisy)
    return np.median(noisy, axis=0)


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
    with open(path, "w") as f:
        f.write(f"d={db.d}\n")
        for row in db.rows:
            f.write(bits_to_hex(row) + "\n")


def load_database(path: str) -> Database:
    with open(path) as f:
        header = f.readline().strip()
        if not header.startswith("d="):
            raise FileFormatError(f"database header must be 'd=<int>', got {header!r}")
        try:
            d = int(header[2:])
        except ValueError as e:
            raise FileFormatError(f"bad width in header {header!r}") from e
        if d < 1:
            raise FileFormatError("database width must be >= 1")
        rows = []
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                rows.append(bits_from_hex(line, d, f"line {lineno}"))
            except InputShapeError as e:
                raise FileFormatError(str(e)) from e
    if not rows:
        raise FileFormatError("database has no rows")
    return Database(np.stack(rows))


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
        errs.append(ans - 0.5)
    err = np.abs(np.concatenate(errs))
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

    # same budget, two database sizes: accuracy is a property of m
    k2, d, trials = 10_000, 16, 20
    cfg2 = SanitizerConfig(LAPLACE, epsilon=1.0, delta=1e-9, composition=ADVANCED)
    queries = [dictator_circuit(j % d, d) for j in range(k2)]
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
