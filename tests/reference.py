"""A whole attack trial replayed without cryptography.

Tracing ciphertext j gives user u's component the bit W[u, j], and each
key row decrypts its own component exactly, so the true answer to query
j over the coalition S is the fraction of W[S, j] that is 1.  The replay
takes the codebook and the sanitizer's noise from the same seeded
streams as attack._run_trial, so the two agree field for field.
"""

import numpy as np

from ttpa.attack import AttackConfig, TrialRecord
from ttpa.fpcode import fp_feasible, fp_gen, fp_trace
from ttpa.sanitize import sanitize_truths
from ttpa.seeds import stream


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
