"""Distribution checks on the random draws, from fixed seeds.

Unlike the byte pins in test_determinism, these hold for any correct
draw of the same laws, so they stay true when a change of draw
algorithm moves the digests.  Each bound is set so that a correct draw
fails it with probability below 1e-6; none needs scipy.
"""

import math

import numpy as np
import pytest

from ttpa.crypto import EXPAND_DIVISOR, LOCAL_PRG, PRF, prg_params_gen
from ttpa.fpcode import DEFAULT_EPS_FP, DEFAULT_LENGTH_CONSTANT, code_length, fp_gen
from ttpa.sanitize import ADVANCED, BASIC, LAPLACE, SanitizerConfig, sanitize_truths
from ttpa.seeds import stream
from ttpa.ttscheme import tr_enc, tt_gen

FALSE_FAILURE = 1e-6


def chi_square_bounds(df: int, failure: float) -> tuple[float, float]:
    """Two-sided bounds on a chi-square(df) variable X, each tail under failure / 2.

    Laurent & Massart (2000), Lemma 1: P(X - df >= 2 sqrt(df x) + 2x) and
    P(df - X >= 2 sqrt(df x)) are each at most exp(-x).
    """
    x = math.log(2 / failure)
    spread = 2 * math.sqrt(df * x)
    return df - spread, df + spread + 2 * x


def bernstein_z_bound(variance: float, tests: int, failure: float) -> float:
    """|z| bound for a sum S of independent Bernoulli draws with variance V.

    Bernstein: P(|S - E S| >= t) <= 2 exp(-t^2 / (2 (V + t / 3))) for
    summands within 1 of their means.  t solves that bound at failure /
    tests, and z = (S - E S) / sqrt(V), so the bound is t / sqrt(V).
    """
    log_odds = math.log(2 * tests / failure)
    t = log_odds / 3 + math.sqrt(log_odds**2 / 9 + 2 * log_odds * variance)
    return t / math.sqrt(variance)


def hoeffding_bound(summands: int, width: int, tests: int, failure: float) -> float:
    """|S - E S| bound for a sum S of independent summands, each in [0, width].

    Hoeffding: P(|S - E S| >= t) <= 2 exp(-2 t^2 / (summands width^2)),
    solved for t at failure / tests.
    """
    return width * math.sqrt(summands * math.log(2 * tests / failure) / 2)


@pytest.mark.parametrize(
    "kappa, n, k",
    [
        (64, 8, 1 << 17),  # stretch 32^3 = 2^15: integers_below shifts word halves
        (20, 4, 100_000),  # stretch 10^3 = 1,000: rng.integers draws them
    ],
    ids=["stretch-2^15", "stretch-1000"],
)
def test_tracing_batch_indices_are_uniform(kappa, n, k):
    prg = prg_params_gen(3, kappa // 2)
    ks = tt_gen(kappa, n, LOCAL_PRG, stream(3, "dist-keys", kappa), prg=prg)
    rng = stream(3, "dist-batch", kappa)
    cts = tr_enc(ks, rng.integers(0, 2, (n, k), dtype=np.uint8), rng)
    counts = np.bincount(cts.rs.ravel(), minlength=prg.ell)
    assert counts.size == prg.ell
    expected = cts.rs.size / prg.ell  # 32 or 400 per position
    chi2 = float(((counts - expected) ** 2).sum() / expected)
    lo, hi = chi_square_bounds(prg.ell - 1, FALSE_FAILURE)
    assert lo < chi2 < hi


@pytest.mark.parametrize(
    "scheme, kappa, n, a",
    [
        (LOCAL_PRG, 16, 2, 1.0),  # 15 of 512 PRG positions a user: prg_bits_at gathers
        (LOCAL_PRG, 64, 4, DEFAULT_LENGTH_CONSTANT),  # 7,012 of 32,768: it expands
        (PRF, 64, 4, 1.0),
    ],
    ids=["prg-gather", "prg-expand", "prf"],
)
def test_pads_hide_the_plaintext(scheme, kappa, n, a):
    # a masked bit agrees with its word bit when its pad is 0, which under a
    # uniform key has probability 1/2: a local-PRG output XORs distinct seed
    # bits, and an HMAC bit is taken as a PRF's.  Under one key the cells are
    # not independent (an 8-bit seed of all zeros pads every cell with 0), so
    # each batch draws fresh keys and a user's k cells in it are one summand
    batches, k = 100, code_length(n, DEFAULT_EPS_FP, a)
    prg = prg_params_gen(5, kappa // 2) if scheme == LOCAL_PRG else None
    if prg is not None:
        assert (k * EXPAND_DIVISOR >= prg.ell) == (kappa == 64)
    agree = np.zeros(n, dtype=np.int64)
    for b in range(batches):
        ks = tt_gen(kappa, n, scheme, stream(5, "dist-pad-keys", scheme, kappa, b), prg=prg)
        rng = stream(5, "dist-pads", scheme, kappa, b)
        words = fp_gen(n, DEFAULT_EPS_FP, rng, a).words
        agree += (tr_enc(ks, words, rng).masked.T == words).sum(axis=1)
    # overall, then per user
    for hits, summands in [(agree.sum(), n * batches)] + [(h, batches) for h in agree]:
        bound = hoeffding_bound(summands, k, n + 1, FALSE_FAILURE)
        assert abs(hits - summands * k / 2) < bound


@pytest.mark.parametrize("seed", [0, 1])
def test_codebook_columns_follow_their_biases(seed):
    # a column holds only n = 10 draws, too few for a z-score of its own at
    # biases down to 1/3000, so columns are pooled into bins of like bias
    n, bins = 10, 16
    cb = fp_gen(n, DEFAULT_EPS_FP, stream(seed, "dist-codebook"))
    order = np.argsort(cb.biases, kind="stable")
    ones = cb.words.sum(axis=0, dtype=np.int64)
    for cols in np.array_split(order, bins):
        p = cb.biases[cols]
        mean, variance = n * p.sum(), n * (p * (1 - p)).sum()
        z = (ones[cols].sum() - mean) / math.sqrt(variance)
        assert abs(z) < bernstein_z_bound(variance, bins, FALSE_FAILURE)


LAPLACE_K = 100_000


@pytest.mark.parametrize(
    "cfg, m, scale",
    [
        # k / (eps m)
        (SanitizerConfig(LAPLACE, 1.0, None, BASIC), 40_000_000, LAPLACE_K / 40_000_000),
        # sqrt(2 k ln(1/delta)) / (eps m)
        (
            SanitizerConfig(LAPLACE, 1.0, 1e-6, ADVANCED),
            400_000,
            math.sqrt(2 * LAPLACE_K * math.log(1e6)) / 400_000,
        ),
    ],
    ids=["basic", "advanced"],
)
def test_laplace_noise_exceeds_each_margin_at_its_rate(cfg, m, scale):
    # truths at 1/2 and a scale under 1/200: clamping to [0, 1] needs |noise|
    # > 100 scales somewhere in the batch, odds below k e^-100 < e^-40
    assert scale < 1 / 200
    truths = np.full(LAPLACE_K, 0.5)
    noise = np.abs(sanitize_truths(cfg, truths, m, stream(4, "dist-laplace", cfg.composition)) - 0.5)
    # |Laplace(scale)| > c scale with probability e^-c, at each margin c
    margins = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    for c in margins:
        p = math.exp(-c)
        variance = LAPLACE_K * p * (1 - p)
        z = (int((noise > c * scale).sum()) - LAPLACE_K * p) / math.sqrt(variance)
        assert abs(z) < bernstein_z_bound(variance, len(margins), FALSE_FAILURE)
