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
    as_bits,
)
from .seeds import stream

LOCAL_PRG = "LOCAL_PRG"
PRF = "PRF"

DEFAULT_LOCALITY = 5
MIN_KEY_BITS = 8

# largest array the library allocates before refusing: a PRG index-set
# draw or a tracing batch
MAX_ALLOC_BYTES = 2 << 30

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


def check_stretch(ell: int) -> None:
    if ell < 1:
        raise InputShapeError(f"prg.ell {ell} must be >= 1")


@dataclass(frozen=True, eq=False)
class LocalPrgParams:
    """Public description of the local PRG: who reads which seed bits."""

    kappa: int           # seed length in bits
    ell: int             # output length (stretch)
    locality: int        # L, seed bits per output
    index_sets: np.ndarray  # (ell, L) int32, ordered distinct positions
    table: np.ndarray       # (2^L,) uint8 predicate truth table

    def __post_init__(self):
        kappa, ell, loc = self.kappa, self.ell, self.locality
        check_stretch(ell)
        if not 1 <= loc <= kappa:
            raise InputShapeError(f"prg.locality {loc} must be in 1..{kappa}")
        table = np.asarray(self.table)
        if table.shape != (1 << loc,):
            raise InputShapeError(f"prg.table must be 2^{loc} bits, got shape {table.shape}")
        table = as_bits(table, "prg.table entries must be bits")
        sets = np.asarray(self.index_sets)
        if sets.shape != (ell, loc) or sets.min() < 0 or sets.max() >= kappa:
            raise InputShapeError(
                f"prg.index_sets must be ({ell}, {loc}) positions in the {kappa}-bit"
                f" seed, got shape {sets.shape}"
            )
        object.__setattr__(self, "table", table)


def default_stretch(kappa: int) -> int:
    return kappa ** 3


def check_prg_draw(kappa: int, ell: int | None = None) -> int:
    """Bytes prg_params_gen holds while it draws: an (ell, kappa) float64
    matrix and its argsort.  Raises for a stretch below 1 or above
    MAX_ALLOC_BYTES, so callers refuse before allocating.
    """
    ell = default_stretch(kappa) if ell is None else ell
    check_stretch(ell)
    need = ell * kappa * 16
    if need > MAX_ALLOC_BYTES:
        raise InputShapeError(
            f"PRG index sets over a {kappa}-bit seed at stretch {ell} need about"
            f" {need / 2**30:.1f} GiB to draw, over the"
            f" {MAX_ALLOC_BYTES / 2**30:.0f} GiB limit"
        )
    return need


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
    if ell is None:
        ell = default_stretch(kappa)
    check_prg_draw(kappa, ell)
    if table is None:
        table = xor_and_table(locality)
    rng = stream(master_seed, "prg-index-sets", kappa, ell, locality)
    sets = np.argsort(rng.random((ell, kappa)), axis=1)[:, :locality].astype(np.int32)
    return LocalPrgParams(kappa, ell, locality, sets, table)


def _pow2(locality: int) -> np.ndarray:
    return (1 << np.arange(locality - 1, -1, -1)).astype(np.int64)


def _check_seeds(params: LocalPrgParams, seeds: np.ndarray) -> np.ndarray:
    arr = np.asarray(seeds)
    if arr.ndim not in (1, 2) or arr.shape[-1] != params.kappa:
        raise InputShapeError(
            f"seeds must be ({params.kappa},) or (m, {params.kappa}) bits,"
            f" got shape {arr.shape}"
        )
    # a 2 would spill into the next lane of prg_expand
    return as_bits(arr, "seed entries must be bits")


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


def check_scheme(scheme: str, prg: LocalPrgParams | None, seed_bits: int) -> None:
    """LOCAL_PRG keys need a PRG over their seed_bits-bit seed, PRF keys have none."""
    if scheme == LOCAL_PRG:
        if prg is None:
            raise InputShapeError("LOCAL_PRG keys need a PRG description")
        if prg.kappa != seed_bits:
            raise InputShapeError(
                f"prg.kappa {prg.kappa} must be the key's seed length {seed_bits}"
            )
    elif scheme == PRF:
        if prg is not None:
            raise InputShapeError("PRF keys carry no PRG description")
    else:
        raise UnsupportedSchemeError(f"unknown scheme {scheme!r}")


def circuit_prg(prg: LocalPrgParams | None) -> LocalPrgParams:
    """The PRG a decryption circuit computes; PRF keys have none to compile."""
    if prg is None:
        raise UnsupportedSchemeError(
            "decryption circuits exist only for LOCAL_PRG keys;"
            " PRF decryption has no small circuit"
        )
    return prg


@dataclass(frozen=True, eq=False)
class EncKey:
    scheme: str
    bits: np.ndarray             # (kappa,) uint8 PRG seed / PRF key; a stack is (m, kappa)
    prg: LocalPrgParams | None   # public PRG description for LOCAL_PRG

    def __post_init__(self):
        check_scheme(self.scheme, self.prg, self.kappa)

    @property
    def kappa(self) -> int:
        return int(self.bits.shape[-1])


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
    if scheme == LOCAL_PRG and prg is None:
        prg = prg_params_gen(int(rng.integers(1 << 63)), kappa)
    return EncKey(scheme, rng.integers(0, 2, kappa, dtype=np.uint8), prg)


def _prf_bit(key_bytes: bytes, r: int, kappa: int) -> int:
    nonce = r.to_bytes((kappa + 7) // 8, "big")
    return hmac.new(key_bytes, nonce, hashlib.sha256).digest()[0] & 1


def enc_encrypt_many(
    key: EncKey, bits: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Encrypt bits (k,) under one key, or (m, k) under a stack of m keys.

    Row i goes under key i, and nonces are drawn key by key in row order.
    Returns (r, masked) arrays shaped like the bits.
    """
    arr = np.asarray(bits)
    if arr.ndim != key.bits.ndim or arr.shape[:-1] != key.bits.shape[:-1]:
        raise InputShapeError(f"plaintext bits {arr.shape} do not match keys {key.bits.shape}")
    arr = as_bits(arr, "plaintext bits must be 0/1")
    kappa, k = key.kappa, arr.shape[-1]
    key_rows = key.bits.reshape(-1, kappa)
    if key.scheme == LOCAL_PRG:
        rs = np.empty((len(key_rows), k), dtype=np.int64)
        for row in rs:  # one draw per key, in row order: the RNG stream
            row[:] = rng.integers(0, key.prg.ell, k, dtype=np.int64)
        rs = rs.reshape(arr.shape)
        ms = prg_bits_at(key.prg, key.bits, rs)
        ms ^= arr
        return rs, ms
    # object dtype: kappa-bit nonces do not fit a fixed-width integer
    rs = np.empty((len(key_rows), k), dtype=object)
    ms = np.empty((len(key_rows), k), dtype=np.uint8)
    for i, row in enumerate(key_rows):
        kb = np.packbits(row).tobytes()
        for j in range(k):
            nonce = np.packbits(rng.integers(0, 2, kappa, dtype=np.uint8)).tobytes()
            rs[i, j] = int.from_bytes(nonce, "big") >> (-kappa % 8)
            ms[i, j] = _prf_bit(kb, rs[i, j], kappa)
    return rs.reshape(arr.shape), ms.reshape(arr.shape) ^ arr


def enc_decrypt_many(key: EncKey, rs: np.ndarray, masked: np.ndarray) -> np.ndarray:
    ms = as_bits(masked, "masked bits must be 0/1", MalformedCiphertextError)
    if key.scheme == LOCAL_PRG:
        idx = np.asarray(rs, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= key.prg.ell):
            raise MalformedCiphertextError("PRG index outside stretch range")
        return prg_bits_at(key.prg, key.bits, idx) ^ ms
    if key.bits.ndim != 1:
        raise InputShapeError("PRF decryption takes one key, not a stack")
    kb = np.packbits(key.bits).tobytes()
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
    if masked not in (0, 1):  # before the int cast, which reads 0.9 as 0
        raise InputShapeError(f"masked bit must be 0/1, got {masked!r}")
    r, masked = int(r), int(masked)
    if not 0 <= r < prg.ell:
        raise MalformedCiphertextError(f"PRG index {r} outside [0, {prg.ell})")
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
    prg = circuit_prg(prg)
    b = CircuitBuilder(prg.kappa)
    return b.build(append_dec_component(b, r, masked, prg, mode))


def collision_bound(ell: int, k: int) -> float:
    """Birthday bound k^2/ell on reusing a PRG output index across k encryptions.

    Reported (not enforced): the one-time-pad argument degrades by this
    plus the PRG distinguishing advantage.
    """
    return (k * k) / float(ell)
