"""n-user traitor tracing from one-bit encryption plus fingerprinting.

Each user key is a kappa-bit row: a kappa/2-bit encryption key, the
user's index in big-endian (ceil(log2 n) bits), and zero padding.
Broadcast encryption encrypts the same bit under every user key;
decryption picks the component named by the row's index bits.  Tracing
encrypts a fingerprinting codeword column-wise (user u's component in
ciphertext j encrypts W[u, j]), feeds all columns to the pirate in one
shot, and hands the answered word to the code's tracer.  A linear-scan
tracer using the mixed ciphertexts (first i users see 1) is also
provided.

For LOCAL_PRG keys every tracing ciphertext has a decryption circuit of
depth <= 6: the component circuits (depth <= 4) under an index-indicator
conjunction and an outer disjunction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circuit import Circuit, CircuitBuilder
from .crypto import (
    FOLDED,
    GATE_BYTES,
    LOCAL_PRG,
    MIN_KEY_BITS,
    EncKey,
    LocalPrgParams,
    _append_dec_component,
    check_circuit_mode,
    check_prg_indices,
    check_scheme,
    circuit_prg,
    dec_circuit_gates,
    enc_decrypt_many,
    enc_encrypt_many,
    nonce_chunk_rows,
    prg_expand,
    prg_params_gen,
)
from .errors import (
    PIECE,
    FileFormatError,
    InputShapeError,
    MalformedCiphertextError,
    OneShotViolationError,
    as_bits,
    bits_from_hex,
    bits_to_hex,
    bytes_from_hex,
    check_alloc,
)
from .fpcode import DEFAULT_LENGTH_CONSTANT, Codebook, code_length, fp_gen, fp_trace
from .sanitize import ROUND_BYTES


def index_width(n: int) -> int:
    """Bits reserved for the user index: ceil(log2 n), 0 for a single user."""
    return (n - 1).bit_length() if n > 1 else 0


def encode_index(users: np.ndarray, n: int) -> np.ndarray:
    """Users (m,) as their (m, index_width(n)) big-endian index bits.

    Filled a bit column at a time in uint8, holding one shifted copy of
    the users beside them.
    """
    users = np.asarray(users)
    width = index_width(n)
    out = np.empty((len(users), width), dtype=np.uint8)
    for t in range(width):
        np.bitwise_and(users >> (width - 1 - t), 1, out=out[:, t], casting="unsafe")
    return out


def decode_index(rows: np.ndarray, n: int) -> np.ndarray:
    """User indices (m,) read from the index field of key rows (m, kappa), as uint32.

    A key set within the 2 GiB rule has index_width(n) <= 27, so 32 bits
    hold every field; it is read a bit column at a time.
    """
    arr = np.asarray(rows)
    ke = arr.shape[1] // 2
    idx = np.zeros(len(arr), dtype=np.uint32)
    for bit in arr[:, ke : ke + index_width(n)].T:
        idx <<= 1
        idx |= bit
    return idx


@dataclass(frozen=True, eq=False)
class TTParams:
    """Public scheme description shared by keys, ciphertexts, and circuits."""

    kappa: int
    n: int
    scheme: str
    prg: LocalPrgParams | None

    def __post_init__(self):
        check_key_shape(self.kappa, self.n)
        check_scheme(self.scheme, self.prg, self.enc_bits)

    @property
    def enc_bits(self) -> int:
        return self.kappa // 2


@dataclass(frozen=True, eq=False)
class TTKeySet:
    params: TTParams
    rows: np.ndarray  # (n, kappa) uint8 user key rows

    def __post_init__(self):
        n, kappa = self.params.n, self.params.kappa
        rows = as_bits(self.rows, "key rows must be bits")
        if rows.shape != (n, kappa):
            raise InputShapeError(f"expected {n} rows of {kappa} bits, got shape {rows.shape}")
        # row u decrypts through component u: a wrong index field traces wrongly
        idxs = decode_index(rows, n)
        bad = np.flatnonzero(idxs != np.arange(n, dtype=idxs.dtype))
        if bad.size:
            raise InputShapeError(f"row {bad[0]} decodes to index {idxs[bad[0]]}")
        object.__setattr__(self, "rows", rows)

    def key(self, user: int | slice) -> EncKey:
        """The user's component encryption key; a slice gives a stack of them."""
        ke = self.params.enc_bits
        return EncKey(self.params.scheme, self.rows[user, :ke], self.params.prg)


@dataclass(frozen=True, eq=False)
class TTCiphertext:
    """A batch of k ciphertexts: row j is ciphertext j, column u user u's components.

    A single ciphertext is the k=1 batch.  Every consumer reads the batch
    whole or by user column.
    """

    # (k, n) PRG indices in the narrowest unsigned dtype that holds the
    # stretch, or (k, n, ceil(kappa/8)) uint8 PRF nonces
    rs: np.ndarray
    masked: np.ndarray  # (k, n) uint8

    def __post_init__(self):
        if self.masked.ndim != 2 or self.rs.ndim > 3 or self.rs.shape[:2] != self.masked.shape:
            raise MalformedCiphertextError(
                f"ciphertext arrays must be (k, n) masked bits and their (k, n) or"
                f" (k, n, bytes) nonces, got {self.rs.shape} and {self.masked.shape}"
            )
        masked = as_bits(
            self.masked, "masked components must be bits", MalformedCiphertextError
        )
        object.__setattr__(self, "masked", masked)

    @property
    def n(self) -> int:
        return int(self.rs.shape[1])

    def __len__(self) -> int:
        return int(self.rs.shape[0])


def check_key_shape(kappa: int, n: int) -> int:
    """Key sets have kappa even and >= 16, 1 <= n <= 2^(kappa/2) users, and
    the arrays tt_gen holds at once, which check_alloc must admit, so callers
    refuse before drawing: the (n, kappa) byte rows, and beside them either
    the (n, kappa/2) key draw or the index field's arrays, at most 9 bytes a
    row more than its width (two uint32 vectors and a bool or uint8 column),
    and 4 KiB of Python objects.  Tracemalloc measured 96 bytes a row and
    1.7 KiB more at kappa 64 and n = 20,000 to 1,000,000.

    n is compared through its index width: 2^(kappa/2) is never formed.
    """
    if kappa % 2:
        raise InputShapeError(f"kappa must be even, got {kappa}")
    if kappa < 2 * MIN_KEY_BITS:
        raise InputShapeError(
            f"kappa must be >= {2 * MIN_KEY_BITS} (component keys need >= {MIN_KEY_BITS} bits)"
        )
    if n < 1:
        raise InputShapeError(f"need at least one user, got {n}")
    if index_width(n) > kappa // 2:
        raise InputShapeError(f"n={n} exceeds 2^(kappa/2) with kappa={kappa}")
    need = n * (kappa + max(kappa // 2, index_width(n) + 9)) + (4 << 10)
    return check_alloc(need, f"{n} key rows of {kappa} bits")


def tt_gen(
    kappa: int,
    n: int,
    scheme: str,
    rng: np.random.Generator,
    prg: LocalPrgParams | None = None,
) -> TTKeySet:
    """Fresh user keys; kappa even, n <= 2^(kappa/2).

    The PRG description is public and shared across users; pass one to
    pin it, otherwise it is derived from the rng.
    """
    check_key_shape(kappa, n)
    ke = kappa // 2
    if scheme == LOCAL_PRG and prg is None:
        prg = prg_params_gen(int(rng.integers(1 << 63)), ke)
    params = TTParams(kappa, n, scheme, prg)
    rows = np.zeros((n, kappa), dtype=np.uint8)
    rows[:, :ke] = rng.integers(0, 2, (n, ke), dtype=np.uint8)
    rows[:, ke : ke + index_width(n)] = encode_index(np.arange(n, dtype=np.uint32), n)
    return TTKeySet(params, rows)


def tr_enc(ks: TTKeySet, words: np.ndarray, rng: np.random.Generator) -> TTCiphertext:
    """Tracing batch: ciphertext j carries W[u, j] to user u, for every j."""
    # enc_encrypt_many checks that the words are (n, k) bits; they are
    # encrypted user by user, returned with axes 0 and 1 swapped: every per-user
    # column (what decryption and the query family read) is contiguous
    rs, ms = enc_encrypt_many(ks.key(slice(None)), words, rng)
    return TTCiphertext(rs.swapaxes(0, 1), ms.T)


def tt_enc(ks: TTKeySet, bit: int, rng: np.random.Generator) -> TTCiphertext:
    """Broadcast encryption: every user's component carries the same bit."""
    if bit not in (0, 1):  # checked as given: 0.9 is refused, not read as 0
        raise InputShapeError(f"plaintext bit must be 0/1, got {bit!r}")
    col = np.full((ks.params.n, 1), bit, dtype=np.uint8)
    return tr_enc(ks, col, rng)


def tr_enc_index(ks: TTKeySet, i: int, rng: np.random.Generator) -> TTCiphertext:
    """Mixed ciphertext at level i: users 0..i-1 decrypt 1, the rest 0."""
    n = ks.params.n
    if not 0 <= i <= n or i != int(i):  # checked as given: 1.5 is refused, not read as 2
        raise InputShapeError(f"level must be an integer in [0, {n}], got {i!r}")
    col = (np.arange(n) < i).astype(np.uint8)[:, None]
    return tr_enc(ks, col, rng)


def _check_components(cts: TTCiphertext, params: TTParams) -> None:
    if cts.n != params.n:
        raise MalformedCiphertextError(
            f"ciphertexts have {cts.n} components, scheme has {params.n} users"
        )


def _check_circuit_batch(cts: TTCiphertext, params: TTParams) -> LocalPrgParams:
    """The PRG a batch's decryption circuits compute, once the batch is checked:
    LOCAL_PRG keys, one component per user and (k, n) PRG indices in [0, ell)."""
    prg = circuit_prg(params.prg)
    _check_components(cts, params)
    if cts.rs.ndim != 2:
        raise MalformedCiphertextError(f"PRG indices must be (k, n), got shape {cts.rs.shape}")
    check_prg_indices(cts.rs, prg.ell)
    return prg


def tt_dec(params: TTParams, row: np.ndarray, cts: TTCiphertext) -> np.ndarray:
    """(k,) bits: each ciphertext of the batch decrypted through the row's own component."""
    arr = np.asarray(row)
    if arr.shape != (params.kappa,):
        raise InputShapeError(f"key row must be {params.kappa} bits, got shape {arr.shape}")
    arr = as_bits(arr, "key row entries must be bits")
    idx = int(decode_index(arr[None], params.n)[0])
    if idx >= params.n:
        raise InputShapeError(f"decoded index {idx} outside the {params.n}-user key space")
    _check_components(cts, params)
    key = EncKey(params.scheme, arr[: params.enc_bits], params.prg)
    return enc_decrypt_many(key, cts.rs[:, idx], cts.masked[:, idx])


def tt_dec_circuit(cts: TTCiphertext, params: TTParams, mode: str = FOLDED) -> list[Circuit]:
    """Decryption circuits of a batch, one per ciphertext, over the kappa key-row wires.

    Per user: an indicator conjunction over the index wires joined with
    that user's component decryption circuit; one outer OR.  Built from
    the ciphertexts and public parameters only — no key material.  Depth
    <= 6 in literal mode, <= 4 folded.  Refuses what the query family does.
    """
    prg = _check_circuit_batch(cts, params)
    check_circuit_mode(mode)
    gates = len(cts) * dec_circuit_gates(prg, mode, params.kappa, params.n)
    check_alloc(gates * GATE_BYTES, f"{len(cts)} {mode} decryption circuits of {gates} gates")
    ke = params.enc_bits
    index = list(enumerate(encode_index(np.arange(params.n), params.n).tolist()))
    circuits = []
    for rs, masked in zip(cts.rs.tolist(), cts.masked.tolist()):
        b = CircuitBuilder(params.kappa)
        user_terms = []
        for u, bits in index:
            ind = [b.literal(ke + t, bool(v)) for t, v in enumerate(bits)] or [b.const(1)]
            comp = _append_dec_component(b, rs[u], masked[u], prg, mode)
            user_terms.append(b.and_((*ind, comp)))
        circuits.append(b.build(b.or_(user_terms)))
    return circuits


class PirateOracle:
    """Single-use decoder: one batch of ciphertexts in, one bit per ciphertext out.

    The one-shot discipline is what the tracers are allowed to assume;
    a second call raises.  rounds is how many Laplace amplification
    rounds the decoder runs per batch, which the tracers count in the
    batch's memory.
    """

    def __init__(
        self,
        fn: Callable[[TTCiphertext, "PirateOracle"], np.ndarray],
        label: str = "pirate",
        rounds: int = 0,
    ):
        self._fn = fn
        self._spent = False
        self.label = label
        self.rounds = rounds
        self.stats: dict = {}

    def answer(self, cts: TTCiphertext) -> np.ndarray:
        if self._spent:
            raise OneShotViolationError(f"{self.label} oracle already consumed")
        self._spent = True
        bits = np.asarray(self._fn(cts, self))
        if bits.shape != (len(cts),):
            raise InputShapeError(
                f"pirate returned {bits.shape} answers for {len(cts)} ciphertexts"
            )
        return as_bits(bits, "pirate answers must be bits")


def honest_pirate(ks: TTKeySet, user: int) -> PirateOracle:
    """Decrypts every ciphertext with one user's key, honestly."""
    if not 0 <= user < ks.params.n:
        raise InputShapeError(f"no user {user} in a {ks.params.n}-user key set")
    row = ks.rows[user]
    return PirateOracle(lambda cts, _o: tt_dec(ks.params, row, cts), label=f"honest:{user}")


def zeros_pirate() -> PirateOracle:
    """Answers 0 everywhere; useful as a useless-decoder baseline."""
    return PirateOracle(
        lambda cts, _o: np.zeros(len(cts), dtype=np.uint8), label="zeros"
    )


@dataclass(eq=False)
class TTDecQueryFamily:
    """All tracing-query circuits of one batch, evaluated in bulk.

    Semantically this is tt_dec_circuit(cts, params) evaluated on rows:
    evaluate_on_rows computes every circuit on every row by sharing the
    per-row PRG expansion instead of walking 50k netlists gate by gate.
    The equivalence tests check it against those netlists; only the cost
    differs.
    """

    params: TTParams
    cts: TTCiphertext

    @classmethod
    def from_ciphertexts(cls, cts: TTCiphertext, params: TTParams) -> "TTDecQueryFamily":
        _check_circuit_batch(cts, params)
        return cls(params, cts)

    def __len__(self) -> int:
        return len(self.cts)

    @property
    def input_width(self) -> int:
        return self.params.kappa

    def evaluate_on_rows(self, rows: np.ndarray) -> np.ndarray:
        """(k, m) bit matrix: circuit j on row m, for arbitrary kappa-bit rows."""
        arr = np.asarray(rows)
        if arr.ndim != 2 or arr.shape[1] != self.params.kappa:
            raise InputShapeError(
                f"rows must be (m, {self.params.kappa}), got shape {arr.shape}"
            )
        arr = as_bits(arr, "row entries must be bits")
        p = self.params
        rs, masked = self.cts.rs, self.cts.masked
        # filled row-major, one contiguous row per database row, and
        # returned as its (k, m) transpose
        out = np.zeros((arr.shape[0], len(self)), dtype=np.uint8)
        idxs = decode_index(arr, p.n)
        # rows whose index names no user fire no indicator: they stay 0
        live = np.flatnonzero(idxs < p.n)
        expansions = prg_expand(p.prg, arr[live, : p.enc_bits])
        # one gather per row: a single (k, m) gather would build a (k, m) int64 index
        for mi, expansion in zip(live, expansions):
            u = idxs[mi]
            row = out[mi]
            np.take(expansion, rs[:, u], out=row)
            row ^= masked[:, u]
        return out.T


# Peak bytes of one tracing batch (see check_batch), the larger of its
# two phases, each measured under tracemalloc.
# Per (user, ciphertext) cell.  While the batch is encrypted and answered:
# the uint8 words, the PRG indices in the narrowest unsigned dtype that
# holds the stretch (2 bytes up to 2^16 positions, 4 above), the uint8
# masked bits and the uint8 family answers, 5 bytes at uint16.  While it
# is scored: the words, the scored columns of the words and the float64
# copy that @ makes of them, 10 bytes when every column scores.  A PRF
# cell adds its nonce's bytes.
CELL_BYTES = 10
# Per ciphertext: seven 8-byte vectors at most at once, the biases plus
# the truths and error temporaries, or plus the scored columns' index,
# p, hit, miss and hit - miss and their temporaries, and the one intp
# row that np.take makes of a user's narrow index row.  A scan's shuffled
# levels, a byte or two per ciphertext, take their room here too.
COLUMN_BYTES = 56
# Per PRG output position: prg_expand's uint64 accumulator, two gathered
# columns and their intp index.  Each user adds 2 bytes per position: its
# uint8 expansion or, when users read under ell/16 positions each and are
# gathered instead, at most 32 bytes a gathered cell.
POSITION_BYTES = 32
# ROUND_BYTES counts the pirate's noise a Laplace round; sanitize_truths
# counts at most 48 bytes a query more, which COLUMN_BYTES covers, so it
# never refuses a batch admitted here.
# The trial's Python objects and small arrays: keys, streams, closures.
TRIAL_BYTES = 64 << 10


def check_batch(n: int, k: int, prg_ell: int, rounds: int = 0, nonce_bits: int = 0) -> int:
    """Peak bytes of a tracing batch of k ciphertexts to n users, answered and traced.

    k * ((CELL_BYTES + nonce) * n + COLUMN_BYTES + ROUND_BYTES * rounds) + draw
    + prg_ell * (POSITION_BYTES + 2 * n) + TRIAL_BYTES: prg_ell is the PRG's
    stretch (0 for PRF keys), nonce a PRF nonce row's bytes, draw one chunk
    of a key's nonce draw (a byte per bit) and its packed rows, rounds the
    pirate's Laplace rounds.  Checked against tracemalloc peaks in the
    tests and passed to check_alloc, so callers refuse before allocating.
    """
    nonce = (nonce_bits + 7) // 8
    width = -(-nonce_bits // 4) * 4
    # the HMAC pass hashes the nonce rows in place and writes the cells' pad bits
    draw = min(k, nonce_chunk_rows(nonce_bits)) * (width + nonce) if nonce_bits else 0
    need = (
        k * ((CELL_BYTES + nonce) * n + COLUMN_BYTES + ROUND_BYTES * rounds)
        + draw
        + prg_ell * (POSITION_BYTES + 2 * n)
        + TRIAL_BYTES
    )
    return check_alloc(need, f"a batch of {k} ciphertexts to n={n} users at rounds={rounds}")


@dataclass(frozen=True)
class TraceOutcome:
    accused: int | None
    word: np.ndarray
    codebook: Codebook


def tt_trace_report(
    ks: TTKeySet,
    pirate: PirateOracle,
    eps_fp: float,
    rng: np.random.Generator,
    a: float = DEFAULT_LENGTH_CONSTANT,
) -> TraceOutcome:
    """Fingerprint-driven tracing: one oracle call, then code tracing.

    Draws a fresh codebook, sends all ell_FP tracing ciphertexts in a
    single batch, and accuses whoever the code's scorer singles out.
    """
    p, prg = ks.params, ks.params.prg
    k = code_length(p.n, eps_fp, a)
    check_batch(p.n, k, prg.ell if prg else 0, pirate.rounds, 0 if prg else p.enc_bits)
    cb = fp_gen(p.n, eps_fp, rng, a=a)
    # the batch is dropped once answered, before scoring allocates
    word = pirate.answer(tr_enc(ks, cb.words, rng))
    return TraceOutcome(fp_trace(cb, word), word, cb)


# Chance that some level of a linear scan misses its rate by 1/(2n).
SCAN_FAILURE_PROB = 0.05


def default_scan_repetitions(n: int) -> int:
    """Chernoff repetition count: every level within 1/(2n) except with SCAN_FAILURE_PROB."""
    return math.ceil(4.0 * n * n * math.log(2.0 * (n + 1) / SCAN_FAILURE_PROB))


@dataclass(frozen=True)
class ScanOutcome:
    accused: int | None      # 1-based gap position; key row accused-1
    levels: np.ndarray       # (n+1,) estimated decryption rates
    counts: np.ndarray       # (n+1,) raw 1-answers per level
    repetitions: int


def linear_scan_report(ks: TTKeySet, pirate: PirateOracle, rng: np.random.Generator) -> ScanOutcome:
    """Level-sweep tracing: estimate P_i at every level, accuse the first big jump.

    Sends each level i in {0..n} exactly s = default_scan_repetitions(n)
    times, shuffled, in one oracle call; accuses the smallest i with
    P_i - P_{i-1} >= 1/n (the gap test is integer-exact).  The returned
    index is 1-based: it names the user whose component flips between
    levels i-1 and i, i.e. key row i-1.
    """
    p, prg = ks.params, ks.params.prg
    n, s = p.n, default_scan_repetitions(p.n)
    check_batch(n, (n + 1) * s, prg.ell if prg else 0, pirate.rounds, 0 if prg else p.enc_bits)
    # levels in the narrowest dtype that holds n, so the compare and seq
    # shrink with it; numpy shuffles any dtype in the same order, and its
    # 8-byte shuffle of the positions is faster than a uint8 one of seq
    levels = np.arange(n + 1, dtype=np.min_scalar_type(n))
    seq = np.repeat(levels, s)[rng.permutation(levels.size * s)]
    cols = np.empty((n, seq.size), dtype=np.uint8)
    np.less(levels[:-1, None], seq, out=cols.view(bool))
    cts = tr_enc(ks, cols, rng)
    del cols  # encrypted: freed before the pirate allocates its answers
    answers = pirate.answer(cts)
    # the 1-answers at level i are bin 2i + 1 of 2 * level + answer: an
    # integer count, with no float64 copy of the answers to weigh
    keys = seq.astype(np.min_scalar_type(2 * n + 1))
    keys <<= 1
    keys |= answers
    counts = np.bincount(keys, minlength=2 * n + 2)[1::2].astype(np.int64)
    accused = None
    for i in range(1, n + 1):
        if n * (counts[i] - counts[i - 1]) >= s:
            accused = i
            break
    return ScanOutcome(accused, counts / float(s), counts, s)


def keyset_to_json(ks: TTKeySet) -> dict:
    """The key file's object; its rows are pieces of hex rows, for write_json."""
    p, g = ks.params, ks.params.prg
    return {
        "kappa": p.kappa,
        "n": p.n,
        "scheme": p.scheme,
        "rows": (bits_to_hex(ks.rows[lo : lo + PIECE]) for lo in range(0, p.n, PIECE)),
        "prg": None if g is None else {
            "kappa": g.kappa,
            "ell": g.ell,
            "locality": g.locality,
            "table": bits_to_hex(g.table[None])[0],
            # 2-byte big-endian per position, row-major
            "index_sets": g.index_sets.astype(">u2").tobytes().hex(),
        },
    }


def keyset_from_json(obj: dict) -> TTKeySet:
    """Parse a key set object; TTKeySet, TTParams and LocalPrgParams check what they get."""
    try:
        kappa, n = int(obj["kappa"]), int(obj["n"])
        g = obj["prg"]
        prg = None
        if g is not None:
            g_ell, g_loc = int(g["ell"]), int(g["locality"])
            # 2-byte big-endian positions, their length checked before they are read
            [sets] = bytes_from_hex([g["index_sets"]], 2 * g_ell * g_loc, "prg.index_sets".format)
            [table] = bits_from_hex([g["table"]], 1 << g_loc, "prg.table".format)
            prg = LocalPrgParams(int(g["kappa"]), sets.view(">u2").reshape(g_ell, g_loc), table)
        params = TTParams(kappa, n, obj["scheme"], prg)
        return TTKeySet(params, bits_from_hex(obj["rows"], kappa, "row {}".format))
    except (KeyError, TypeError, ValueError) as e:
        raise FileFormatError(f"bad key set JSON: {e}") from e
