"""One-bit symmetric encryption with shallow decryption circuits.

The key is a seed s for a Goldreich-style local PRG G: each output bit
G(s)_i applies a fixed L-variable predicate to L seed positions chosen
once, publicly, per output index.  Encrypting bit b draws a fresh output
index r and masks: c = (r, G(s)_r xor b).  Decryption recomputes one PRG
bit, so for fixed c it is a function of the seed alone and compiles to a
depth-4 circuit (depth-2 DNF for the predicate, a conjunction layer, an
outer disjunction; negations are free).

A PRF mode replaces G(s)_r by PRF_s(r) with a kappa-bit nonce.  It
round-trips identically but is opaque: there is no small decryption
circuit, and the circuit exporters refuse it.

Security here is desk-scale only: parameters that make the experiments
fast are far below anything cryptographically meaningful.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitBuilder, append_minterm_dnf
from .errors import (
    InputShapeError,
    MalformedCiphertextError,
    UnsupportedSchemeError,
)
from .seeds import stream

LOCAL_PRG = "LOCAL_PRG"
PRF = "PRF"

DEFAULT_LOCALITY = 5
MIN_KEY_BITS = 8

LITERAL = "literal"
FOLDED = "folded"


def xor_and_table(locality: int = DEFAULT_LOCALITY) -> np.ndarray:
    """Truth table of x1 ^ ... ^ x_{L-2} ^ (x_{L-1} & x_L), big-endian indexed.

    The classic tri-sum-and predicate at L=5; for smaller L the AND eats
    the last two variables and the XOR the rest.
    """
    if locality < 3:
        raise InputShapeError("xor_and predicate needs locality >= 3")
    idx = np.arange(1 << locality)
    parity = np.zeros_like(idx)
    for t in range(locality - 2):
        parity ^= (idx >> (locality - 1 - t)) & 1
    both = ((idx >> 1) & idx) & 1
    return ((parity ^ both) & 1).astype(np.uint8)


@dataclass(frozen=True, eq=False)
class LocalPrgParams:
    """Public description of the local PRG: who reads which seed bits."""

    kappa: int           # seed length in bits
    ell: int             # output length (stretch)
    locality: int        # L, seed bits per output
    index_sets: np.ndarray  # (ell, L) int32, ordered distinct positions
    table: np.ndarray       # (2^L,) uint8 predicate truth table


def default_stretch(kappa: int) -> int:
    return kappa ** 3


def prg_params_gen(
    master_seed: int,
    kappa: int,
    ell: int | None = None,
    locality: int = DEFAULT_LOCALITY,
    table: np.ndarray | None = None,
) -> LocalPrgParams:
    """Sample public index sets from a deterministic stream.

    Each output's L positions are a uniform ordered draw without
    replacement from the kappa seed positions.
    """
    if kappa < locality:
        raise InputShapeError(f"seed length {kappa} < locality {locality}")
    if ell is None:
        ell = default_stretch(kappa)
    if ell < 1:
        raise InputShapeError("stretch must be >= 1")
    if table is None:
        table = xor_and_table(locality)
    table = np.asarray(table, dtype=np.uint8)
    if table.shape != (1 << locality,):
        raise InputShapeError(
            f"predicate table must have 2^{locality} entries, got {table.shape}"
        )
    rng = stream(master_seed, "prg-index-sets", kappa, ell, locality)
    sets = np.argsort(rng.random((ell, kappa)), axis=1)[:, :locality].astype(np.int32)
    return LocalPrgParams(kappa, ell, locality, sets, table)


def _pow2(locality: int) -> np.ndarray:
    return (1 << np.arange(locality - 1, -1, -1)).astype(np.int64)


def _check_seeds(params: LocalPrgParams, seeds: np.ndarray) -> np.ndarray:
    arr = np.asarray(seeds, dtype=np.uint8)
    if arr.ndim not in (1, 2) or arr.shape[-1] != params.kappa:
        raise InputShapeError(
            f"seeds must be ({params.kappa},) or (m, {params.kappa}) bits,"
            f" got shape {arr.shape}"
        )
    return arr


def _anf(table: np.ndarray) -> np.ndarray:
    """Algebraic normal form of a truth table: its Moebius transform over GF(2).

    Entry S is 1 iff the AND of the variables in S is a monomial of the
    predicate written as an XOR of ANDs; S indexes variables the way the
    table does (bit L-1-t is variable t), and S = 0 is the constant 1.
    """
    anf = table.astype(np.uint8)
    step = 1
    while step < anf.size:
        blocks = anf.reshape(-1, 2 * step)
        blocks[:, step:] ^= blocks[:, :step]
        step *= 2
    return anf


_LANES = 64  # seeds per uint64 lane word
_LANE_SHIFTS = np.arange(_LANES, dtype=np.uint64)


def prg_expand(params: LocalPrgParams, seeds: np.ndarray) -> np.ndarray:
    """All ell output bits: seed (kappa,) -> (ell,), stack (m, kappa) -> (m, ell).

    Bit-sliced (Biham 1997): bit p of up to 64 seeds packs into one
    uint64 lane word, each index-set column gathers those words, and the
    predicate runs as its algebraic normal form, an XOR of ANDs, so each
    word operation evaluates it for every lane at once.
    """
    arr = _check_seeds(params, seeds)
    if arr.size and arr.max() > 1:  # a 2 would spill into the next lane
        raise InputShapeError("seed entries must be bits")
    stack = arr.reshape(-1, params.kappa)
    loc = params.locality
    terms = [
        [t for t in range(loc) if (s >> (loc - 1 - t)) & 1]
        for s in np.flatnonzero(_anf(params.table))
    ]
    out = np.empty((stack.shape[0], params.ell), dtype=np.uint8)
    for lo in range(0, stack.shape[0], _LANES):
        block = stack[lo : lo + _LANES]
        lanes = len(block)
        words = np.bitwise_or.reduce(
            block.astype(np.uint64) << _LANE_SHIFTS[:lanes, None], axis=0
        )
        acc = np.zeros(params.ell, dtype=np.uint64)
        for term in terms:
            if term:
                # gathered per term, not kept per column: the tracing
                # predicate reads each variable once, so this costs no
                # extra gathers there and holds two columns, not L
                cols = (np.take(words, params.index_sets[:, t]) for t in term)
                acc ^= functools.reduce(np.bitwise_and, cols)
            else:
                np.invert(acc, out=acc)
        # byte b of every lane word, contiguous: lane i is bit i % 8 of byte i // 8
        lane_bytes = acc.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        planes = np.ascontiguousarray(lane_bytes[:, : (lanes + 7) // 8].T)
        for i in range(lanes):
            row = out[lo + i]
            np.right_shift(planes[i >> 3], i & 7, out=row)
            row &= 1
    return out.reshape(arr.shape[:-1] + (params.ell,))


def prg_bits_at(params: LocalPrgParams, seeds: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """G at selected output positions: (k,) for one seed, (m, k) for a stack of m.

    Row i of a stack reads seed i.  At least ell positions in all cost
    more to gather one by one than to expand every seed once and index
    the expansions; fewer are gathered.
    """
    arr = _check_seeds(params, seeds)
    pos = np.asarray(positions, dtype=np.int64)
    if pos.ndim != arr.ndim or pos.shape[:-1] != arr.shape[:-1]:
        raise InputShapeError(
            f"positions {pos.shape} do not match seeds {arr.shape}: need one row per seed"
        )
    if pos.size >= params.ell:
        expanded = prg_expand(params, arr)
        if arr.ndim == 1:
            return expanded[pos]
        out = np.empty(pos.shape, dtype=np.uint8)
        for i in range(arr.shape[0]):  # about 5x faster than np.take_along_axis
            np.take(expanded[i], pos[i], out=out[i])
        return out
    sets = params.index_sets[pos]
    if arr.ndim == 2:  # seed i's bits start at i * kappa in the flat stack
        sets = sets + (params.kappa * np.arange(arr.shape[0]))[:, None, None]
    return params.table[arr.ravel()[sets] @ _pow2(params.locality)]


def prg_bit_circuit(params: LocalPrgParams, i: int) -> Circuit:
    """Depth-2 DNF computing output bit i over the kappa seed wires."""
    if not 0 <= i < params.ell:
        raise InputShapeError(f"output index {i} outside [0, {params.ell})")
    b = CircuitBuilder(params.kappa)
    out = append_minterm_dnf(b, params.table.tolist(), params.index_sets[i].tolist())
    return b.build(out)


@dataclass(frozen=True, eq=False)
class EncKey:
    scheme: str
    bits: np.ndarray             # (kappa,) uint8 — the PRG seed / PRF key
    prg: LocalPrgParams | None   # public PRG description for LOCAL_PRG

    @property
    def kappa(self) -> int:
        return int(self.bits.shape[0])


def enc_gen(
    kappa: int,
    scheme: str,
    rng: np.random.Generator,
    prg: LocalPrgParams | None = None,
) -> EncKey:
    """Draw a uniform kappa-bit key; kappa >= 8.

    For LOCAL_PRG a public PRG description is attached: pass one to
    share it across keys (as any multi-user scheme should), otherwise a
    fresh one is derived from the rng.
    """
    if kappa < MIN_KEY_BITS:
        raise InputShapeError(f"key length must be >= {MIN_KEY_BITS}, got {kappa}")
    if scheme == LOCAL_PRG:
        if prg is None:
            prg = prg_params_gen(int(rng.integers(1 << 63)), kappa)
        if prg.kappa != kappa:
            raise InputShapeError(
                f"PRG seed length {prg.kappa} != key length {kappa}"
            )
    elif scheme == PRF:
        if prg is not None:
            raise InputShapeError("PRF keys carry no PRG description")
    else:
        raise UnsupportedSchemeError(f"unknown scheme {scheme!r}")
    bits = rng.integers(0, 2, kappa, dtype=np.uint8)
    return EncKey(scheme, bits, prg)


def _key_bytes(key: EncKey) -> bytes:
    return np.packbits(key.bits).tobytes()


def _prf_bit(key_bytes: bytes, r: int, kappa: int) -> int:
    nonce = r.to_bytes((kappa + 7) // 8, "big")
    return hmac.new(key_bytes, nonce, hashlib.sha256).digest()[0] & 1


def enc_encrypt_many(
    key: EncKey, bits: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Encrypt a bit vector under one key; returns (r, masked) arrays."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise InputShapeError("expected a 1-d bit vector")
    if arr.size and arr.max() > 1:
        raise InputShapeError("plaintext bits must be 0/1")
    k = arr.shape[0]
    if key.scheme == LOCAL_PRG:
        rs = rng.integers(0, key.prg.ell, k, dtype=np.int64)
        masks = prg_bits_at(key.prg, key.bits, rs)
        return rs, masks ^ arr
    kb = _key_bytes(key)
    # object dtype: kappa-bit nonces do not fit a fixed-width integer
    rs = np.empty(k, dtype=object)
    ms = np.empty(k, dtype=np.uint8)
    for j in range(k):
        nonce_bits = rng.integers(0, 2, key.kappa, dtype=np.uint8)
        r = int.from_bytes(np.packbits(nonce_bits).tobytes(), "big") >> (
            (8 - key.kappa % 8) % 8
        )
        rs[j] = r
        ms[j] = _prf_bit(kb, r, key.kappa) ^ arr[j]
    return rs, ms


def enc_decrypt_many(key: EncKey, rs: np.ndarray, masked: np.ndarray) -> np.ndarray:
    ms = np.asarray(masked)
    if ms.size and (ms.min() < 0 or ms.max() > 1):
        raise MalformedCiphertextError("masked bits must be 0/1")
    ms = ms.astype(np.uint8, copy=False)
    if key.scheme == LOCAL_PRG:
        idx = np.asarray(rs, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= key.prg.ell):
            raise MalformedCiphertextError("PRG index outside stretch range")
        return prg_bits_at(key.prg, key.bits, idx) ^ ms
    kb = _key_bytes(key)
    out = np.empty(ms.shape[0], dtype=np.uint8)
    for j in range(ms.shape[0]):
        r = int(rs[j])
        if not 0 <= r < (1 << key.kappa):
            raise MalformedCiphertextError(f"nonce {r} does not fit in {key.kappa} bits")
        out[j] = _prf_bit(kb, r, key.kappa) ^ ms[j]
    return out


def append_dec_component(
    b: CircuitBuilder,
    r: int,
    masked: int,
    prg: LocalPrgParams,
    mode: str = LITERAL,
) -> int:
    """Append the decryption function of ciphertext (r, masked) onto seed wires 0..kappa-1.

    literal: one conjunction per PRG output index — a CONST indicator
    [i == r] ANDed with (G_i(s) xor masked), all joined by one OR.  The
    masked=1 branch keeps the xor as a free NOT on top of the DNF.
    Depth <= 4 by construction.

    folded: the minterm DNF of G_r(s) xor masked directly (what
    constant-folding the literal build yields, depth <= 2).  This is the
    only build that stays small at real stretch values.
    """
    r, masked = int(r), int(masked)
    if not 0 <= r < prg.ell:
        raise MalformedCiphertextError(f"PRG index {r} outside [0, {prg.ell})")
    if masked not in (0, 1):
        raise InputShapeError(f"masked bit must be 0/1, got {masked!r}")
    table = prg.table
    if mode == FOLDED:
        eff = (table ^ masked).tolist()
        return append_minterm_dnf(b, eff, prg.index_sets[r].tolist())
    if mode != LITERAL:
        raise InputShapeError(f"unknown circuit mode {mode!r}")
    tbl = table.tolist()
    terms = []
    for i in range(prg.ell):
        ind = b.const(1 if i == r else 0)
        g = append_minterm_dnf(b, tbl, prg.index_sets[i].tolist())
        if masked:
            g = b.not_(g)
        terms.append(b.and_((ind, g)))
    return b.or_(terms)


def enc_dec_circuit(
    r: int, masked: int, prg: LocalPrgParams | None, mode: str = LITERAL
) -> Circuit:
    """Decryption circuit of ciphertext (r, masked) over the kappa seed wires (LOCAL_PRG only)."""
    if prg is None:
        raise UnsupportedSchemeError(
            "PRF decryption has no small circuit; only LOCAL_PRG keys export one"
        )
    b = CircuitBuilder(prg.kappa)
    return b.build(append_dec_component(b, r, masked, prg, mode))


def collision_bound(ell: int, k: int) -> float:
    """Birthday bound k^2/ell on reusing a PRG output index across k encryptions.

    Reported (not enforced): the one-time-pad argument degrades by this
    plus the PRG distinguishing advantage.
    """
    return (k * k) / float(ell)
