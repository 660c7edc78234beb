"""Deterministic seed derivation for independent random streams.

Every randomized component takes its own numpy Generator derived from a
master seed plus a label path, e.g. ``stream(seed, "attack", "exp1", 7,
"keys")``.  Labels are hashed, so adding a new component never shifts the
draws of an existing one, and trials can run in any order (or in
parallel) with identical results.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master: int, *labels: object) -> int:
    """Hash a master seed and a label path into a 128-bit stream seed."""
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for label in labels:
        h.update(b"\x1f")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:16], "big")


def stream(master: int, *labels: object) -> np.random.Generator:
    """Independent PCG64 stream for the component named by the label path."""
    return np.random.default_rng(derive_seed(master, *labels))


def integers_below(rng: np.random.Generator, high: int, out: np.ndarray) -> None:
    """Fill the 1-D out exactly as rng.integers(0, high, out.size) does.

    out is int64 or any unsigned dtype that holds high - 1.  numpy runs
    Lemire's multiply-shift on 32-bit PCG64 word halves, low half first,
    buffering an unused high half.  At a power-of-two high the
    multiply-shift is a plain shift that rejects nothing, so this reads
    whole words off random_raw and shifts their halves into out, for the
    same values and state.  Any other high, or any other bit generator,
    goes through integers.
    """
    bitgen, high = getattr(rng, "bit_generator", None), int(high)
    if type(bitgen) is not np.random.PCG64 or high & (high - 1) or not 1 < high <= 1 << 32:
        out[:] = rng.integers(0, high, out.size, dtype=np.int64)
        return
    filled = 0
    while filled < out.size:
        missing = out.size - filled
        # a buffered half goes first, and a last value alone would buffer one: numpy draws those
        if missing == 1 or bitgen.state["has_uint32"]:
            out[filled] = rng.integers(0, high, dtype=np.int64)
            filled += 1
            continue
        halves = bitgen.random_raw(missing // 2).astype("<u8", copy=False).view("<u4")
        # high is 2^b: (x * high) >> 32 is x >> (32 - b)
        rest = out[filled : filled + halves.size]
        np.right_shift(halves, np.uint32(33 - high.bit_length()), out=rest)
        filled += rest.size
        bitgen.state = {**bitgen.state, "uinteger": int(halves[-1])}  # as numpy leaves it
