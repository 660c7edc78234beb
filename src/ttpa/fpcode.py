"""Bias-based binary fingerprinting codes (Tardos-style) with score tracing.

A codebook draws a bias p_j per column from the arcsine density
1/(pi*sqrt(p(1-p))) truncated to [t, 1-t] with cutoff t = 1/(300 n),
then gives user i the word W[i, j] ~ Bernoulli(p_j) independently.
Code length is ell = ceil(a * n^2 * ln(n / eps_fp)) with a = 100 by
default (a = 20 is usable for quick desk runs at visibly weaker error
rates).

Tracing scores every user against a suspect word w' and accuses the top
scorer iff it clears Z = 20 * n * ln(n / eps_fp):

    column j contributes, when w'_j = 1:
        +sqrt((1-p_j)/p_j)  if W[i,j] = 1
        -sqrt(p_j/(1-p_j))  if W[i,j] = 0
    and 0 when w'_j = 0.

Against any coalition that only ever outputs bits it has seen in the
column (the feasible words), an innocent user is accused with
probability at most eps_fp while the coalition is caught with high
probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FileFormatError,
    InputShapeError,
    as_bits,
    bits_from_hex,
    bits_to_hex,
    check_alloc,
)
from .seeds import stream

MAJORITY = "MAJORITY"
MINORITY = "MINORITY"
RANDOM_FEASIBLE = "RANDOM_FEASIBLE"
COPY_ONE = "COPY_ONE"

STRATEGIES = (MAJORITY, MINORITY, RANDOM_FEASIBLE, COPY_ONE)

DEFAULT_EPS_FP = 0.05
DEFAULT_LENGTH_CONSTANT = 100.0


def code_length(n: int, eps_fp: float, a: float = DEFAULT_LENGTH_CONSTANT) -> int:
    _check_params(n, eps_fp, a)
    return math.ceil(a * n * n * math.log(n / eps_fp))


def accusation_threshold(n: int, eps_fp: float) -> float:
    return 20.0 * n * math.log(n / eps_fp)


def bias_cutoff(n: int) -> float:
    return 1.0 / (300.0 * n)


@dataclass(frozen=True, eq=False)
class Codebook:
    """Tracer-side state: the words are distributed, the biases stay secret.
    n is the words' row count; ell, cutoff and threshold follow from n, eps_fp and a."""

    eps_fp: float
    a: float
    biases: np.ndarray  # (ell,) float64 in [cutoff, 1-cutoff]
    words: np.ndarray   # (n, ell) uint8
    n: int = field(init=False)
    ell: int = field(init=False)
    cutoff: float = field(init=False)
    threshold: float = field(init=False)  # > 0, so an all-zero word accuses no one

    def __post_init__(self):
        n = len(self.words)
        ell, t = code_length(n, self.eps_fp, self.a), bias_cutoff(n)
        z = accusation_threshold(n, self.eps_fp)
        # the words are not scanned for bits: fp_gen draws one codebook
        # per tracing trial, and its words are bits by construction
        if self.biases.shape != (ell,) or self.words.shape != (n, ell):
            raise InputShapeError(
                f"codebook biases {self.biases.shape} and words {self.words.shape}"
                f" must be ({ell},) and ({n}, {ell}), as code_length gives ell={ell} at n={n}"
            )
        # where fp_gen draws them, which keeps the scores' 1 / p and 1 / (1 - p) finite
        if not ((self.biases >= t) & (self.biases <= 1.0 - t)).all():
            raise InputShapeError(f"codebook biases must lie in [{t}, 1 - {t}]")
        for name, value in zip(("n", "ell", "cutoff", "threshold"), (n, ell, t, z)):
            object.__setattr__(self, name, value)


def _check_params(n: int, eps_fp: float, a: float) -> None:
    if n < 2:
        raise InputShapeError(f"codebooks need n >= 2 users, got {n}")
    if not 0.0 < eps_fp < 1.0:
        raise InputShapeError(f"eps_fp must be in (0,1), got {eps_fp}")
    if not 0 < a < math.inf:
        raise InputShapeError(f"length constant must be positive and finite, got {a}")
    try:
        finite = math.isfinite(a * n * n * math.log(n / eps_fp)) and math.isfinite(
            accusation_threshold(n, eps_fp)
        )
    except OverflowError:
        finite = False
    if not finite:
        raise InputShapeError(
            f"n={n}, eps_fp={eps_fp}, a={a} give a code length or threshold that is not finite"
        )


def fp_gen(
    n: int, eps_fp: float, rng: np.random.Generator, a: float = DEFAULT_LENGTH_CONSTANT
) -> Codebook:
    """Draw biases from the truncated arcsine density, then the word matrix.

    Holds n + 32 bytes a column: the words, a byte a user, and float64
    angles, biases and one row's draw, with numpy's temporaries.
    """
    ell = code_length(n, eps_fp, a)
    check_alloc(ell * (n + 32), f"a codebook of {ell} columns for n={n} users")
    t = bias_cutoff(n)
    # p = sin^2(x) with x uniform maps to the arcsine density; truncating x
    # to [asin(sqrt(t)), pi/2 - asin(sqrt(t))] truncates p to [t, 1-t].
    xt = math.asin(math.sqrt(t))
    x = rng.uniform(xt, math.pi / 2.0 - xt, ell)
    biases = np.sin(x) ** 2
    np.clip(biases, t, 1.0 - t, out=biases)
    # one user row at a time from the same row-major stream as a single
    # (n, ell) draw, so no (n, ell) float64 matrix is ever held
    words = np.empty((n, ell), dtype=np.uint8)
    draw = np.empty(ell)
    for row in words:
        rng.random(out=draw)
        np.less(draw, biases, out=row.view(bool))
    return Codebook(eps_fp, a, biases, words)


def _check_word(cb_ell: int, word: np.ndarray) -> np.ndarray:
    w = np.asarray(word)
    if w.shape != (cb_ell,):
        raise InputShapeError(f"word must be {cb_ell} bits, got shape {w.shape}")
    return as_bits(w, "word entries must be bits")


def fp_scores(cb: Codebook, word: np.ndarray) -> np.ndarray:
    """Per-user accusation scores against a suspect word."""
    # only columns with w'_j = 1 score: each adds miss_j, plus hit_j - miss_j
    # for the users holding a 1 there (nonzero is faster on a bool view)
    scored = np.flatnonzero(_check_word(cb.ell, word).view(bool))
    p = cb.biases[scored]
    hit = np.sqrt((1.0 - p) / p)
    miss = -np.sqrt(p / (1.0 - p))
    return np.take(cb.words, scored, axis=1) @ (hit - miss) + miss.sum()


def fp_trace(cb: Codebook, word: np.ndarray) -> int | None:
    """Accuse the top scorer if it clears the threshold, else no one."""
    scores = fp_scores(cb, word)
    top = int(np.argmax(scores))
    return top if scores[top] > cb.threshold else None


def fp_feasible(coalition_words: np.ndarray, word: np.ndarray) -> bool:
    """Did every output bit appear in its column within the coalition?"""
    ws = as_bits(coalition_words, "coalition words must be bits")
    if ws.ndim != 2:
        raise InputShapeError("coalition words must be a (|S|, ell) matrix")
    w = _check_word(ws.shape[1], word)
    return bool((ws == w[None, :]).any(axis=0).all())


def fp_adversary(
    coalition_words: np.ndarray, strategy: str, rng: np.random.Generator
) -> np.ndarray:
    """Forge a word from the coalition's view; always feasible.

    MAJORITY/MINORITY vote per column (ties to 1 and 0 respectively;
    critical columns are forced either way), RANDOM_FEASIBLE picks
    uniformly among the bits present, COPY_ONE replays one uniformly
    chosen member.
    """
    ws = as_bits(coalition_words, "coalition words must be bits")
    if ws.ndim != 2 or ws.shape[0] < 1:
        raise InputShapeError("coalition words must be a nonempty (|S|, ell) matrix")
    c, ell = ws.shape
    ones = ws.sum(axis=0, dtype=np.int64)
    if strategy == MAJORITY:
        return (2 * ones >= c).astype(np.uint8)
    if strategy == MINORITY:
        unanimous = (ones == 0) | (ones == c)
        vote = (2 * ones < c).astype(np.uint8)
        return np.where(unanimous, ws[0], vote).astype(np.uint8)
    if strategy == RANDOM_FEASIBLE:
        unanimous = (ones == 0) | (ones == c)
        coin = rng.integers(0, 2, ell, dtype=np.uint8)
        return np.where(unanimous, ws[0], coin).astype(np.uint8)
    if strategy == COPY_ONE:
        return ws[int(rng.integers(c))].copy()
    raise InputShapeError(f"unknown adversary strategy {strategy!r}")


def run_code_experiment(
    n: int,
    eps_fp: float,
    strategy: str,
    trials: int,
    master_seed: int,
    coalition_size: int | None = None,
    a: float = DEFAULT_LENGTH_CONSTANT,
) -> dict:
    """Monte Carlo soundness/completeness rates for one adversary strategy.

    The coalition is users 0..|S|-1 (default |S| = n-1, the regime the
    tracing reduction cares about); everyone else is innocent.
    """
    if strategy not in STRATEGIES:
        raise InputShapeError(f"unknown adversary strategy {strategy!r}")
    if trials < 1:
        raise InputShapeError("need at least one trial")
    size = n - 1 if coalition_size is None else int(coalition_size)
    if not 1 <= size <= n:
        raise InputShapeError(f"coalition size must be in [1, {n}], got {size}")
    # only counters outlive a trial, so, unlike attack run's records, no trial
    # count is refused for memory
    caught = innocent = none = infeasible = 0
    for t in range(trials):
        rng = stream(master_seed, "fpcode-bench", n, strategy, t)
        cb = fp_gen(n, eps_fp, rng, a=a)
        word = fp_adversary(cb.words[:size], strategy, rng)
        if not fp_feasible(cb.words[:size], word):
            infeasible += 1
        accused = fp_trace(cb, word)
        if accused is None:
            none += 1
        elif accused < size:
            caught += 1
        else:
            innocent += 1
    return {
        "n": n,
        "eps_fp": eps_fp,
        "a": a,
        "strategy": strategy,
        "trials": trials,
        "coalition_size": size,
        "ell": code_length(n, eps_fp, a),
        "coalition_accused_rate": caught / trials,
        "innocent_accused_rate": innocent / trials,
        "none_rate": none / trials,
        "infeasible_rate": infeasible / trials,
    }


BIAS_PIECE = 1024  # biases codebook_to_json gives write_json a piece


def codebook_to_json(cb: Codebook) -> dict:
    """The codebook file's object; biases and words are pieces, one hex word a piece,
    for write_json, so the file is written without its whole text held."""
    return {
        "n": cb.n,
        "ell": cb.ell,
        "eps_fp": cb.eps_fp,
        "a": cb.a,
        "cutoff": cb.cutoff,
        "threshold": cb.threshold,
        "biases": (cb.biases[lo : lo + BIAS_PIECE].tolist() for lo in range(0, cb.ell, BIAS_PIECE)),
        "words": ([bits_to_hex(w)] for w in cb.words),
    }


def adversary_view_json(cb: Codebook, coalition: list[int]) -> dict:
    """What a coalition legitimately sees: its own rows, nothing else.

    The words are one {user: hex} piece per user, keyed in string order
    (10 before 2), as canonical JSON sorts them.
    """
    users = sorted(int(u) for u in coalition)
    if not users:
        raise InputShapeError("coalition is empty")
    for u in users:
        if not 0 <= u < cb.n:
            raise InputShapeError(f"no user {u} in an n={cb.n} codebook")
    return {
        "n": cb.n,
        "ell": cb.ell,
        "coalition": users,
        "words": ({u: bits_to_hex(cb.words[int(u)])} for u in sorted({str(u) for u in users})),
    }


def codebook_from_json(obj: dict) -> Codebook:
    """Parse a codebook file; its word count, ell, cutoff and threshold must be
    the ones its n, eps_fp and a give."""
    try:
        n, eps_fp, a = int(obj["n"]), float(obj["eps_fp"]), float(obj["a"])
        ell, cutoff, threshold = int(obj["ell"]), float(obj["cutoff"]), float(obj["threshold"])
        for name, stored, derived in (
            ("words", len(obj["words"]), n),
            ("ell", ell, code_length(n, eps_fp, a)),
            ("cutoff", cutoff, bias_cutoff(n)),
            ("threshold", threshold, accusation_threshold(n, eps_fp)),
        ):
            if stored != derived:
                raise FileFormatError(
                    f"{name} {stored} disagrees with n={n}, eps_fp={eps_fp}, a={a},"
                    f" which give {derived}"
                )
        words = [bits_from_hex(h, ell, f"word {u}") for u, h in enumerate(obj["words"])]
        biases = np.asarray(obj["biases"], dtype=np.float64)
        return Codebook(eps_fp, a, biases, np.array(words, dtype=np.uint8).reshape(n, ell))
    except (KeyError, TypeError, ValueError) as e:
        raise FileFormatError(f"bad codebook JSON: {e}") from e
