"""Whole attack trials and scans replayed without cryptography.

Tracing ciphertext j gives user u's component the bit W[u, j], and each
key row decrypts its own component exactly, so the true answer to query
j over the coalition S is the fraction of W[S, j] that is 1.  The replay
takes the codebook and the sanitizer's noise from the same seeded
streams as attack._run_trial, so the two agree field for field.  A scan
sends level-i ciphertexts, which users below i decrypt to 1, so an exact
pirate over S answers 1 there iff 2 * |{u in S : u < i}| >= |S|.
"""

import numpy as np

from ttpa.attack import AttackConfig, TrialRecord
from ttpa.fpcode import fp_feasible, fp_gen, fp_trace
from ttpa.sanitize import sanitize_truths
from ttpa.seeds import stream
from ttpa.ttscheme import ScanOutcome, default_scan_repetitions


def replay_trial(cfg: AttackConfig, tag: str, coalition: tuple[int, ...], t: int) -> TrialRecord:
    """attack._run_trial's record from the codebook and the noise alone."""
    cb = fp_gen(cfg.n, cfg.eps_fp, stream(cfg.seed, "attack", tag, t, "trace"), a=cfg.a)
    words = cb.words[list(coalition)]
    truths = words.sum(axis=0) / len(coalition)
    answers = sanitize_truths(
        cfg.sanitizer, truths, len(coalition), stream(cfg.seed, "attack", tag, t, "pirate")
    )
    word = (answers >= 0.5).astype(np.uint8)
    max_abs_err = float(np.abs(answers - truths).max())
    return TrialRecord(fp_trace(cb, word), fp_feasible(words, word), max_abs_err, False)


def replay_scan(n: int, coalition: tuple[int, ...]) -> ScanOutcome:
    """linear_scan_report's outcome against an exact pirate over the coalition."""
    s = default_scan_repetitions(n)
    below = np.array([sum(u < i for u in coalition) for i in range(n + 1)])
    counts = np.where(2 * below >= len(coalition), s, 0).astype(np.int64)
    # counts[0] is 0, and the first full level is the first gap of s
    accused = int(np.argmax(counts > 0))
    return ScanOutcome(accused, counts / float(s), counts, s)
