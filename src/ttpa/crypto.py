"""One-bit symmetric encryption with shallow decryption circuits.

The key is a seed s for a Goldreich-style local PRG G: each output bit
G(s)_i applies a fixed L-variable predicate to L seed positions chosen
once, publicly, per output index.  Encrypting bit b draws a fresh output
index r and masks: c = (r, G(s)_r xor b).  Decryption recomputes one PRG
bit, so for fixed c it is a function of the seed alone and compiles to a
depth-4 circuit (depth-2 DNF for the predicate, a conjunction layer, an
outer disjunction; negations are free).

A PRF mode replaces G(s)_r by PRF_s(r) with a kappa-bit nonce r, held
as the ceil(kappa/8) big-endian bytes that HMAC hashes: a batch of
nonces is one uint8 array with a trailing byte axis.  A key draws its k
nonces as one (k, 4 ceil(kappa/4)) bit draw, taken in chunks of whole
rows, which reads the stream as k kappa-bit draws do: numpy fills four
range-2 uint8 entries from each 32-bit word, per call, and never
rejects.  PRF mode round-trips identically but is opaque: there is no
small decryption circuit, and the circuit exporters refuse it.

Security here is desk-scale only: parameters that make the experiments
fast are far below anything cryptographically meaningful.  Under the
default xor-and predicate (L = 5) the all-zero and all-one seeds expand
to all-zero output at every seed length, so such a user's components
carry the plaintext (2 keys in 256 at kappa = 16).
"""

from __future__ import annotations

import hmac
import itertools
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, CircuitBuilder, append_dnf
from .errors import (
    InputShapeError,
    MalformedCiphertextError,
    UnsupportedSchemeError,
    as_bits,
    check_alloc,
)
from .seeds import integers_below, stream

LOCAL_PRG = "LOCAL_PRG"
PRF = "PRF"

DEFAULT_LOCALITY = 5
MIN_KEY_BITS = 8

# a key's PRF nonce bits are drawn, a byte per bit, at most this many at once
NONCE_CHUNK_BYTES = 64 << 10
INDEX_CHUNK = 1 << 16  # PRG indices a key stack draws at once: 256 KiB of raw words

LITERAL = "literal"
FOLDED = "folded"
# Bytes a decryption netlist holds per gate, as tracemalloc peaks at kappa 10-64
# and n 1-256 put them: at most 205 while it is built (a Gate, its args tuple,
# its id and its list slot), and 600-650 while circuit_to_json and the canonical
# text are made as well, with up to 2 MiB more of the JSON encoder's chunks
GATE_BYTES = 224
EXPORT_GATE_BYTES = 650
EXPORT_BYTES = 4 << 20


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


def _anf(table: np.ndarray, locality: int) -> tuple[tuple[int, ...], ...]:
    """Algebraic normal form of a truth table, by its Moebius transform over GF(2).

    The predicate is the XOR of the ANDs of the returned monomials: tuples
    of variables t (bit L-1-t of a table index), () for the constant 1.
    """
    anf = table.astype(np.uint8)
    step = 1
    while step < anf.size:
        blocks = anf.reshape(-1, 2 * step)
        blocks[:, step:] ^= blocks[:, :step]
        step *= 2
    return tuple(
        tuple(t for t in range(locality) if (s >> (locality - 1 - t)) & 1)
        for s in np.flatnonzero(anf).tolist()
    )


def _eval_anf(monomials, column, shape, dtype) -> np.ndarray:
    """XOR over the monomials of the AND of their variables' columns.

    column(t) is variable t's column, of the result's shape and dtype:
    uint64 words of 64 bit-sliced lanes, or bool entries.  Out of place,
    which is faster on a few entries: the result may be a column, but no
    column is written to.
    """
    acc = None
    for term in monomials:
        prod = column(term[0]) if term else ~np.zeros(shape, dtype)
        for t in term[1:]:
            prod = prod & column(t)
        acc = prod if acc is None else acc ^ prod
    return np.zeros(shape, dtype) if acc is None else acc


@dataclass(frozen=True, eq=False)
class LocalPrgParams:
    """Public description of the local PRG: who reads which seed bits."""

    kappa: int           # seed length in bits
    # (ell, L) ordered distinct positions, held in np.min_scalar_type(kappa - 1):
    # uint8 up to 256-bit seeds, uint16 up to prg_params_gen's 2048-bit cap
    index_sets: np.ndarray
    table: np.ndarray       # (2^L,) uint8 predicate truth table
    ell: int = field(init=False)       # output length (stretch): index_sets.shape[0]
    locality: int = field(init=False)  # L, seed bits per output: index_sets.shape[1]
    # the table's ANF and its minterms, derived once and outside equality and repr:
    # minterms[v] holds the literal signs of each assignment on which the table
    # is v, in table order, variable t first (bit L-1-t of the table index)
    monomials: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    minterms: tuple[tuple[tuple[bool, ...], ...], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        kappa, sets = self.kappa, np.asarray(self.index_sets)
        if sets.ndim != 2:
            raise InputShapeError(f"prg.index_sets must be (ell, L), got shape {sets.shape}")
        ell, loc = sets.shape
        check_stretch(ell)
        if not 1 <= loc <= kappa:
            raise InputShapeError(f"prg.locality {loc} must be in 1..{kappa}")
        table = np.asarray(self.table)
        if table.shape != (1 << loc,):
            raise InputShapeError(f"prg.table must be 2^{loc} bits, got shape {table.shape}")
        table = as_bits(table, "prg.table entries must be bits")
        if sets.dtype.kind not in "iu":
            raise InputShapeError(f"prg.index_sets must be integers, got dtype {sets.dtype}")
        if sets.min() < 0 or sets.max() >= kappa:
            raise InputShapeError(f"prg.index_sets must be positions in the {kappa}-bit seed")
        sets = sets.astype(np.min_scalar_type(kappa - 1), copy=False)
        object.__setattr__(self, "index_sets", sets)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "locality", loc)
        object.__setattr__(self, "monomials", _anf(table, loc))
        # product runs in table order: variable 0 is the table index's top bit
        rows = list(zip(table.tolist(), itertools.product((False, True), repeat=loc)))
        minterms = tuple(tuple(signs for v, signs in rows if v == want) for want in (0, 1))
        object.__setattr__(self, "minterms", minterms)


def default_stretch(kappa: int) -> int:
    return kappa ** 3


def check_prg_draw(kappa: int, ell: int | None = None, locality: int = DEFAULT_LOCALITY) -> int:
    """Bytes prg_params_gen holds: (ell, kappa) uint64 keys, (ell, locality)
    index sets of np.min_scalar_type(kappa - 1) and 128 KiB of ufunc buffers.
    Raises for a seed over 2048 bits (a key packs an 11-bit column under 53),
    a stretch below 1 or a draw check_alloc refuses, so callers refuse first.
    """
    ell = default_stretch(kappa) if ell is None else ell
    check_stretch(ell)
    if kappa > 2048:
        raise InputShapeError(f"PRG index sets are drawn over at most 2048 seed bits, got {kappa}")
    position = np.min_scalar_type(kappa - 1).itemsize
    need = ell * (kappa * 8 + locality * position) + (128 << 10)
    return check_alloc(need, f"PRG index sets over a {kappa}-bit seed at stretch {ell}")


def prg_params_gen(
    master_seed: int,
    kappa: int,
    ell: int | None = None,
    locality: int = DEFAULT_LOCALITY,
    table: np.ndarray | None = None,
) -> LocalPrgParams:
    """Sample public index sets from a deterministic stream.

    Each output's L positions are a uniform ordered draw without replacement:
    the columns of the L smallest floats (w >> 11) * 2**-53 rng.random makes of
    raw words w, found by sorting (w >> 11) << b | column, ties to the lower.
    """
    if ell is None:
        ell = default_stretch(kappa)
    check_prg_draw(kappa, ell, locality)
    if table is None:
        table = xor_and_table(locality)
    rng = stream(master_seed, "prg-index-sets", kappa, ell, locality)
    b = (kappa - 1).bit_length()
    # one allocation, not row blocks: freeing it raises glibc's dynamic mmap
    # and trim thresholds, so later tracing batches reuse the heap it leaves
    # instead of mapping and faulting in fresh pages every trial
    keys = rng.bit_generator.random_raw((ell, kappa))
    keys >>= np.uint64(11)
    keys <<= np.uint64(b)
    keys |= np.arange(kappa, dtype=np.uint64)
    keys.sort(axis=1)
    sets = keys[:, :locality]
    sets &= np.uint64((1 << b) - 1)
    return LocalPrgParams(kappa, sets, table)


def _check_seeds(params: LocalPrgParams, seeds: np.ndarray) -> np.ndarray:
    arr = np.asarray(seeds)
    if arr.ndim not in (1, 2) or arr.shape[-1] != params.kappa:
        raise InputShapeError(
            f"seeds must be ({params.kappa},) or (m, {params.kappa}) bits,"
            f" got shape {arr.shape}"
        )
    # a 2 would spill into the next lane of prg_expand
    return as_bits(arr, "seed entries must be bits")


_LANES = 64  # seeds per uint64 lane word
_LANE_SHIFTS = np.arange(_LANES, dtype=np.uint64)
EXPAND_DIVISOR = 16  # see prg_bits_at


def prg_expand(params: LocalPrgParams, seeds: np.ndarray) -> np.ndarray:
    """All ell output bits: seed (kappa,) -> (ell,), stack (m, kappa) -> (m, ell).

    Bit-sliced (Biham 1997): bit p of up to 64 seeds packs into one
    uint64 lane word, each index-set column gathers those words, and the
    predicate runs as its algebraic normal form, an XOR of ANDs, so each
    word operation evaluates it for every lane at once.
    """
    arr = _check_seeds(params, seeds)
    stack = arr.reshape(-1, params.kappa)
    out = np.empty((stack.shape[0], params.ell), dtype=np.uint8)
    for lo in range(0, stack.shape[0], _LANES):
        block = stack[lo : lo + _LANES]
        lanes = len(block)
        words = np.bitwise_or.reduce(
            block.astype(np.uint64) << _LANE_SHIFTS[:lanes, None], axis=0
        )

        def column(t):
            # gathered as a term needs it, not kept per variable: the
            # tracing predicate reads each variable once, so this costs no
            # extra gathers there and holds two columns, not L
            return np.take(words, params.index_sets[:, t])

        acc = _eval_anf(params.monomials, column, params.ell, np.uint64)
        # byte b of every lane word, contiguous: lane i is bit i % 8 of byte i // 8
        lane_bytes = acc.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        planes = np.ascontiguousarray(lane_bytes[:, : (lanes + 7) // 8].T)
        for i in range(lanes):
            row = out[lo + i]
            np.right_shift(planes[i >> 3], i & 7, out=row)
            row &= 1
    return out.reshape(arr.shape[:-1] + (params.ell,))


def check_prg_indices(rs, ell: int, error=MalformedCiphertextError) -> np.ndarray:
    """rs as PRG indices, raising error unless they are integers in [0, ell): unsigned
    as they are, signed as int64, whose negatives wrap above ell as uint64.  Other
    dtypes are refused, which an int64 cast would floor (0.9 to 0) or read as 0/1."""
    arr = np.asarray(rs)
    if arr.dtype.kind not in "iu":
        raise error(f"PRG indices must be integers, got dtype {arr.dtype}")
    idx = arr if arr.dtype.kind == "u" else np.asarray(arr, dtype=np.int64)
    unsigned = idx.view(np.uint64) if idx.dtype.kind == "i" else idx
    if idx.size and unsigned.max() >= ell:
        raise error("PRG index outside stretch range")
    return idx


def prg_bits_at(params: LocalPrgParams, seeds: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """G at selected output positions: (k,) for one seed, (m, k) for a stack of m.

    Row i of a stack reads seed i, at positions in [0, ell).  Seeds that
    read at least ell / EXPAND_DIVISOR positions each are expanded and the
    expansions indexed; fewer gather each position's L seed bits and run
    the predicate's ANF on them, as prg_expand does on lane words.  At
    ell = 32,768 on a 2-vCPU Xeon, gathering wins up to about 0.85 ell
    positions a seed for one seed, ell/2 for two, ell/4 for four and ell/10
    for ten.  16 is kept for memory, not speed: check_batch's 2n bytes per
    PRG position hold a gathered user's cells, up to 32 bytes each, only
    while it reads under ell/16 positions.  It still gathers a wide stack
    that reads a few positions a seed (tt_enc's).
    """
    arr = _check_seeds(params, seeds)
    pos = np.asarray(positions)
    if pos.ndim != arr.ndim or pos.shape[:-1] != arr.shape[:-1]:
        raise InputShapeError(
            f"positions {pos.shape} do not match seeds {arr.shape}: need one row per seed"
        )
    pos = check_prg_indices(pos, params.ell, InputShapeError)
    stack = arr.reshape(-1, params.kappa)
    if pos.shape[-1] * EXPAND_DIVISOR >= params.ell:
        expanded = prg_expand(params, stack)
        out = np.empty(pos.shape, dtype=np.uint8)
        rows = zip(out.reshape(-1, pos.shape[-1]), pos.reshape(-1, pos.shape[-1]), expanded)
        for row, at, expansion in rows:  # about 5x faster than np.take_along_axis
            np.take(expansion, at, out=row)
        return out
    # variable t at pos[i, j] is flat seed bit i * kappa + rows[i, j, t], read as bool so
    # that the constant monomial is one bit, a variable at a time as prg_expand does
    rows, flat = params.index_sets.take(pos, axis=0), stack.view(bool).reshape(-1)
    offsets = (np.arange(len(stack)) * params.kappa).reshape(arr.shape[:-1] + (1,))
    return _eval_anf(
        params.monomials, lambda t: flat.take(rows[..., t] + offsets), pos.shape, bool
    ).view(np.uint8)


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
        bits = np.asarray(self.bits)
        if bits.ndim not in (1, 2) or bits.shape[-1] < 1:
            raise InputShapeError(f"key bits must be (kappa,) or (m, kappa), got {bits.shape}")
        object.__setattr__(self, "bits", as_bits(bits, "key bits must be 0/1"))
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


def nonce_chunk_rows(kappa: int) -> int:
    """A key's PRF nonce draw rows, 4 ceil(kappa/4) bytes each, per NONCE_CHUNK_BYTES chunk."""
    return max(1, NONCE_CHUNK_BYTES // (-(-kappa // 4) * 4))


def _pad_bits(key: EncKey, rs: np.ndarray) -> np.ndarray:
    """G(s)_r at each nonce r, or bit 0 of HMAC-SHA256_s(r), one call per nonce."""
    if key.scheme == LOCAL_PRG:
        return prg_bits_at(key.prg, key.bits, rs)
    m, (k, width) = key.bits.size // key.kappa, rs.shape[-2:]
    out = np.empty((m, k), dtype=np.uint8)
    # a view, also of a strided user column: HMAC reads each nonce row in place,
    # and only a layout whose rows are not runs of adjacent bytes is copied
    for row, nonces, pads in zip(key.bits.reshape(m, -1), rs.reshape(m, k, width), out):
        kb = np.packbits(row).tobytes()
        if nonces.strides[-1] != 1:
            nonces = np.ascontiguousarray(nonces)
        pads[:] = np.fromiter((hmac.digest(kb, r, "sha256")[0] & 1 for r in nonces), np.uint8, k)
    return out.reshape(rs.shape[:-1])


def enc_encrypt_many(
    key: EncKey, bits: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Encrypt bits (k,) under one key, or (m, k) under a stack of m keys.

    Row i goes under key i, and nonces are drawn key by key in row order.
    Returns (rs, masked) shaped like the bits: rs holds PRG indices in
    np.min_scalar_type(ell - 1), the narrowest unsigned dtype that holds
    them, or PRF nonce rows r.to_bytes(ceil(kappa/8), "big") on a last
    uint8 axis.
    """
    arr = np.asarray(bits)
    if arr.ndim != key.bits.ndim or arr.shape[:-1] != key.bits.shape[:-1]:
        raise InputShapeError(f"plaintext bits {arr.shape} do not match keys {key.bits.shape}")
    arr = as_bits(arr, "plaintext bits must be 0/1")
    m, k, kappa = key.bits.size // key.kappa, arr.shape[-1], key.kappa
    if key.scheme == LOCAL_PRG:
        rs = np.empty((m, k), dtype=np.min_scalar_type(key.prg.ell - 1))
        # one draw in key order, as per-key draws read the stream: a chunk or a key
        # that ends on a word's low 32-bit half leaves the high half to the next
        for lo in range(0, rs.size, INDEX_CHUNK):
            integers_below(rng, key.prg.ell, rs.reshape(-1)[lo : lo + INDEX_CHUNK])
    else:  # one draw per key is k kappa-bit draws: see the module docstring
        width, step = -(-kappa // 4) * 4, nonce_chunk_rows(kappa)
        rs = np.empty((m, k, (kappa + 7) // 8), dtype=np.uint8)
        for row in rs:
            for lo in range(0, k, step):  # whole rows, so the chunks read as one draw
                part = row[lo : lo + step]
                draw = rng.integers(0, 2, (len(part), width), dtype=np.uint8)
                # kappa bits last first, packed little-endian, bytes reversed: r big-endian
                packed = np.packbits(draw[:, kappa - 1 :: -1], axis=1, bitorder="little")
                part[...] = packed[:, ::-1]
                del draw, packed  # before the next chunk's
    rs = rs.reshape(arr.shape + rs.shape[2:])
    ms = _pad_bits(key, rs)
    ms ^= arr
    return rs, ms


def enc_decrypt_many(key: EncKey, rs: np.ndarray, masked: np.ndarray) -> np.ndarray:
    """Decrypt what enc_encrypt_many returns, under one key or a stack of them."""
    ms = as_bits(masked, "masked bits must be 0/1", MalformedCiphertextError)
    prf = key.scheme == PRF
    nonces = np.asarray(rs) if prf else check_prg_indices(rs, key.prg.ell)
    want = ms.shape + ((key.kappa + 7) // 8,) if prf else ms.shape
    if nonces.shape != want or ms.ndim != key.bits.ndim or ms.shape[:-1] != key.bits.shape[:-1]:
        raise MalformedCiphertextError(
            f"nonces {nonces.shape} and masked bits {ms.shape} do not match keys {key.bits.shape}"
        )
    # a PRF row's leading byte holds the top (kappa - 1) % 8 + 1 bits of r
    if prf and (nonces.dtype != np.uint8 or (nonces[..., :1] >> ((key.kappa - 1) % 8 + 1)).any()):
        raise MalformedCiphertextError(f"PRF nonces must be uint8 rows of {key.kappa}-bit values")
    return _pad_bits(key, nonces) ^ ms


def check_circuit_mode(mode: str) -> None:
    if mode not in (LITERAL, FOLDED):
        raise InputShapeError(f"unknown circuit mode {mode!r}")


def dec_circuit_gates(prg: LocalPrgParams, mode: str, width: int, components: int) -> int:
    """Most gates a decryption netlist over width wires holds with this many components.

    Per wire an input and a NOT, 2 constants and the outer OR; per
    component an indicator AND and an OR of ANDs: in folded mode an AND per
    minterm, at most 2^L, and in literal mode 3 gates more than the
    predicate's 1-minterms per PRG position (18.5 on average under xor-and).
    """
    per = prg.ell * (len(prg.minterms[1]) + 3) if mode == LITERAL else 1 << prg.locality
    return 2 * width + 3 + components * (per + 2)


def _append_dec_component(
    b: CircuitBuilder, r: int, masked: int, prg: LocalPrgParams, mode: str
) -> int:
    """Append the decryption function of ciphertext (r, masked) onto seed wires 0..kappa-1.

    The caller has checked r, masked and mode; they are used as given.

    literal: one conjunction per PRG output index — a CONST indicator
    [i == r] ANDed with (G_i(s) xor masked), all joined by one OR.  The
    masked=1 branch keeps the xor as a free NOT on top of the DNF.
    Depth <= 4 by construction.

    folded: the minterm DNF of G_r(s) xor masked, depth <= 2.  This is
    the only build that stays small at real stretch values.
    """
    if mode == FOLDED:
        return append_dnf(b, prg.minterms[1 ^ masked], prg.index_sets[r].tolist())
    terms = []
    for i, wires in enumerate(prg.index_sets.tolist()):
        ind = b.const(1 if i == r else 0)
        g = append_dnf(b, prg.minterms[1], wires)
        if masked:
            g = b.not_(g)
        terms.append(b.and_((ind, g)))
    return b.or_(terms)


def enc_dec_circuit(
    r: int, masked: int, prg: LocalPrgParams | None, mode: str = LITERAL
) -> Circuit:
    """Decryption circuit of ciphertext (r, masked) over the kappa seed wires (LOCAL_PRG only)."""
    prg = circuit_prg(prg)
    r = check_prg_indices(r, prg.ell).item()
    masked = as_bits(masked, "masked bit must be 0/1").item()
    check_circuit_mode(mode)
    gates = dec_circuit_gates(prg, mode, prg.kappa, 1)
    check_alloc(gates * GATE_BYTES, f"a {mode} decryption circuit of {gates} gates")
    b = CircuitBuilder(prg.kappa)
    return b.build(_append_dec_component(b, r, masked, prg, mode))


def collision_bound(ell: int, k: int) -> float:
    """Birthday bound k^2/ell on reusing a PRG output index across k encryptions.

    Reported (not enforced): the one-time-pad argument degrades by this
    plus the PRG distinguishing advantage.
    """
    return (k * k) / float(ell)
