import json
import tracemalloc

import numpy as np
import pytest

from ttpa.attack import pirate_from_sanitizer
from ttpa.circuit import circuit_metrics, circuit_to_json, eval_on_rows
from ttpa.crypto import (
    EXPAND_DIVISOR,
    FOLDED,
    GATE_BYTES,
    LITERAL,
    LOCAL_PRG,
    PRF,
    EncKey,
    dec_circuit_gates,
    enc_dec_circuit,
    enc_decrypt_many,
    enc_encrypt_many,
    prg_params_gen,
)
from ttpa.errors import (
    FileFormatError,
    InputShapeError,
    MalformedCiphertextError,
    OneShotViolationError,
    UnsupportedSchemeError,
    canonical_json,
    read_json,
)
from ttpa.fpcode import fp_gen
from ttpa.sanitize import LAPLACE, Database, SanitizerConfig, evaluate_batch
from ttpa.seeds import stream
from ttpa.ttscheme import (
    PirateOracle,
    TTCiphertext,
    TTDecQueryFamily,
    TTKeySet,
    TTParams,
    check_batch,
    check_key_shape,
    decode_index,
    default_scan_repetitions,
    encode_index,
    honest_pirate,
    index_width,
    keyset_from_json,
    keyset_to_json,
    linear_scan_report,
    tr_enc,
    tr_enc_index,
    tt_dec,
    tt_dec_circuit,
    tt_enc,
    tt_gen,
    tt_trace_report,
    zeros_pirate,
)

import ttpa.ttscheme as ttscheme_mod


def all_rows(width: int) -> np.ndarray:
    n = 1 << width
    rows = np.zeros((n, width), dtype=np.uint8)
    for j in range(width):
        rows[:, j] = (np.arange(n) >> (width - 1 - j)) & 1
    return rows


def small_keyset(kappa=16, n=3, seed=0, ell=None):
    prg = prg_params_gen(seed, kappa // 2, ell=ell)
    return tt_gen(kappa, n, LOCAL_PRG, stream(seed, "ks", kappa, n), prg=prg)


class TestKeyLayout:
    def test_index_width(self):
        assert [index_width(n) for n in (1, 2, 3, 4, 5, 8, 9, 1024)] == [
            0, 1, 2, 2, 3, 3, 4, 10,
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 1024])
    def test_index_codec_roundtrip(self, n):
        iw = index_width(n)
        bits = encode_index(np.arange(n), n)
        assert bits.shape == (n, iw) and bits.dtype == np.uint8
        ke = max(8, iw)
        rows = np.zeros((n, 2 * ke), dtype=np.uint8)
        rows[:, ke : ke + iw] = bits
        assert decode_index(rows, n).tolist() == list(range(n))

    def test_index_codec_is_big_endian(self):
        assert encode_index([1, 2, 4], 5).tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        rows = np.zeros((1, 16), dtype=np.uint8)
        rows[0, 8:11] = [1, 1, 0]
        assert decode_index(rows, 5).tolist() == [6]

    def test_hand_row_decodes(self):
        # 8 key bits, 2 index bits (big-endian), 6 zero pad: the row decrypts
        # component 2 under its first 8 bits, and only that component carries a 1
        params = TTParams(16, 3, PRF, None)
        row = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8)
        keys = EncKey(PRF, np.tile(row[:8], (3, 1)), None)
        rs, ms = enc_encrypt_many(keys, np.array([[0], [0], [1]]), stream(0, "hand-row"))
        ct = TTCiphertext(rs.swapaxes(0, 1), ms.T)
        assert tt_dec(params, row, ct).tolist() == [1]
        row[8:10] = [0, 1]
        assert tt_dec(params, row, ct).tolist() == [0]

    def test_generated_rows_follow_layout(self):
        ks = small_keyset(kappa=16, n=3)
        ke, iw = ks.params.enc_bits, index_width(ks.params.n)
        assert (ke, iw) == (8, 2)
        # ciphertext u carries a 1 to user u alone: row u decodes to index u
        cts = tr_enc(ks, np.eye(3, dtype=np.uint8), stream(0, "layout"))
        for u in range(3):
            assert tt_dec(ks.params, ks.rows[u], cts).tolist() == np.eye(3)[u].tolist()
            assert not ks.rows[u, ke + iw :].any()

    def test_key_set_checks_its_rows(self):
        ks = small_keyset(kappa=32, n=4, seed=31)
        rows = ks.rows.copy()
        rows[[0, 3], 16:18] = rows[[3, 0], 16:18]
        # traced with these rows, row 0's component would be user 3's
        with pytest.raises(InputShapeError, match=r"^row 0 decodes to index 3$"):
            TTKeySet(ks.params, rows)
        with pytest.raises(InputShapeError, match=r"^expected 4 rows of 32 bits, got shape \(3, 32\)$"):
            TTKeySet(ks.params, ks.rows[:3])
        with pytest.raises(InputShapeError, match=r"got shape \(4, 31\)$"):
            TTKeySet(ks.params, ks.rows[:, :31])
        rows = ks.rows.copy()
        rows[2, 0] = 2
        with pytest.raises(InputShapeError, match="key rows must be bits"):
            TTKeySet(ks.params, rows)
        kept = TTKeySet(ks.params, ks.rows.astype(bool))
        assert kept.rows.dtype == np.uint8 and np.array_equal(kept.rows, ks.rows)

    def test_rows_distinct(self):
        ks = tt_gen(32, 8, LOCAL_PRG, stream(2, "distinct"))
        assert len({tuple(r.tolist()) for r in ks.rows}) == 8

    def test_gen_validation(self):
        rng = stream(0, "val")
        with pytest.raises(InputShapeError):
            tt_gen(17, 2, LOCAL_PRG, rng)
        with pytest.raises(InputShapeError):
            tt_gen(14, 2, LOCAL_PRG, rng)
        with pytest.raises(InputShapeError):
            tt_gen(16, 0, LOCAL_PRG, rng)
        with pytest.raises(InputShapeError):
            tt_gen(16, 257, LOCAL_PRG, rng)
        with pytest.raises(UnsupportedSchemeError):
            tt_gen(16, 2, "OTP", rng)
        with pytest.raises(InputShapeError):
            tt_gen(16, 2, PRF, rng, prg=prg_params_gen(0, 8))
        with pytest.raises(InputShapeError):
            tt_gen(32, 2, LOCAL_PRG, rng, prg=prg_params_gen(0, 8))

    def test_key_shape_checked_before_any_draw(self, monkeypatch):
        # 256 users fill a 16-bit key's 8 index bits; 21,913,056 rows of 64 bits
        # fill the 2 GiB bound at 98 bytes a row (64 for the rows, 34 for the
        # 25-bit index field's arrays) and 4 KiB.  kappa = 2^63 once formed
        # 2^(2^62) and raised MemoryError
        check_key_shape(16, 256)
        check_key_shape(64, 21_913_056)
        for kappa, n, why in (
            (16, 257, "exceeds"),
            (64, 21_913_057, "over the 2 GiB limit"),
            (1 << 63, 2, "over the 2 GiB limit"),
        ):
            with pytest.raises(InputShapeError, match=why):
                check_key_shape(kappa, n)

        def no_draw(*args):
            raise AssertionError("drew the PRG")

        monkeypatch.setattr(ttscheme_mod, "prg_params_gen", no_draw)
        with pytest.raises(InputShapeError, match="key rows of 64 bits would hold about 391.16 GiB"):
            tt_gen(64, 4_000_000_000, LOCAL_PRG, stream(0, "huge"))

    @pytest.mark.parametrize("n", [20_000, 200_000])
    def test_key_set_peak_within_the_count(self, n):
        # the index field was built and read through (n, width) int64 arrays:
        # 207 and 234 bytes a row at kappa 64, where 64 were counted.  The PRG
        # is drawn outside the trace; check_prg_draw counts it
        prg = prg_params_gen(0, 32)
        tt_gen(64, n, LOCAL_PRG, stream(3, "key-peak"), prg=prg)  # numpy's first-use setup
        tracemalloc.start()
        try:
            tt_gen(64, n, LOCAL_PRG, stream(3, "key-peak"), prg=prg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= check_key_shape(64, n)

    def test_params_check_themselves(self):
        prg = prg_params_gen(0, 8, ell=8)
        TTParams(16, 2, LOCAL_PRG, prg)
        with pytest.raises(InputShapeError, match="even"):
            TTParams(15, 2, LOCAL_PRG, prg)
        with pytest.raises(InputShapeError, match="need a PRG"):
            TTParams(16, 2, LOCAL_PRG, None)
        with pytest.raises(InputShapeError, match="prg.kappa"):
            TTParams(32, 2, LOCAL_PRG, prg)
        with pytest.raises(UnsupportedSchemeError, match="unknown scheme"):
            TTParams(16, 2, "OTP", None)

    def test_decode_validation(self):
        ks = small_keyset()
        ct = tt_enc(ks, 1, stream(0, "decode"))
        with pytest.raises(InputShapeError, match="key row must be 16 bits"):
            tt_dec(ks.params, np.zeros(15, dtype=np.uint8), ct)
        row = ks.rows[1].astype(np.float64)
        row[-1] = 256  # a uint8 cast would read user 1 as user 0
        with pytest.raises(InputShapeError, match="key row entries must be bits"):
            tt_dec(ks.params, row, ct)


class TestEncryptDecrypt:
    @pytest.mark.parametrize("scheme", [LOCAL_PRG, PRF])
    def test_broadcast_roundtrip(self, scheme):
        rng = stream(3, "round", scheme)
        ks = tt_gen(32, 8, scheme, rng)
        for bit in (0, 1):
            for _ in range(50):
                ct = tt_enc(ks, bit, rng)
                for u in range(8):
                    assert tt_dec(ks.params, ks.rows[u], ct).tolist() == [bit]

    def test_single_user_degenerate(self):
        rng = stream(4, "one")
        ks = tt_gen(16, 1, LOCAL_PRG, rng)
        assert index_width(ks.params.n) == 0
        ct = tt_enc(ks, 1, rng)
        assert tt_dec(ks.params, ks.rows[0], ct).tolist() == [1]

    def test_component_isolation(self):
        rng = stream(5, "iso")
        ks = tt_gen(32, 10, LOCAL_PRG, rng)
        words = rng.integers(0, 2, (10, 50), dtype=np.uint8)
        cts = tr_enc(ks, words, rng)
        for u in range(10):
            assert tt_dec(ks.params, ks.rows[u], cts).tolist() == words[u].tolist()

    @pytest.mark.parametrize("k", [0, 1, 52_984])
    def test_dec_reads_a_whole_batch_through_the_rows_own_component(self, k):
        # 52,984 is the tracing batch at n=10 and the attack's defaults
        ks = small_keyset(kappa=16, n=10, seed=5)
        rng = stream(5, "dec-batch", k)
        words = rng.integers(0, 2, (10, k), dtype=np.uint8)
        cts = tr_enc(ks, words, rng)
        for u in (0, 6, 9):
            got = tt_dec(ks.params, ks.rows[u], cts)
            own = enc_decrypt_many(ks.key(u), cts.rs[:, u], cts.masked[:, u])
            assert got.shape == (k,) and got.dtype == np.uint8
            assert np.array_equal(got, own) and np.array_equal(got, words[u])

    def test_batch_is_one_columnar_object(self):
        rng = stream(5, "batch")
        ks = tt_gen(16, 3, LOCAL_PRG, rng)
        words = rng.integers(0, 2, (3, 7), dtype=np.uint8)
        cts = tr_enc(ks, words, rng)
        assert isinstance(cts, TTCiphertext)
        assert len(cts) == 7 and cts.n == 3
        assert cts.rs.shape == cts.masked.shape == (7, 3)
        assert len(tt_enc(ks, 1, rng)) == 1
        with pytest.raises(MalformedCiphertextError):
            TTCiphertext(cts.rs[0], cts.masked[0])
        with pytest.raises(MalformedCiphertextError):
            TTCiphertext(cts.rs, cts.masked[:, :2])

    @pytest.mark.parametrize(
        "kappa,ell,dtype",
        [(64, None, np.uint16), (16, 1 << 16, np.uint16), (16, (1 << 16) + 1, np.uint32)],
    )
    def test_prg_batch_holds_narrow_indices(self, kappa, ell, dtype):
        # indices in the narrowest unsigned dtype that holds the stretch:
        # 2 bytes at kappa=64 (stretch 2^15) and up to 2^16, 4 bytes above
        ks = small_keyset(kappa=kappa, n=3, seed=9, ell=ell)
        rng = stream(9, "narrow", kappa)
        words = rng.integers(0, 2, (3, 40), dtype=np.uint8)
        cts = tr_enc(ks, words, rng)
        assert cts.rs.dtype == dtype
        # a caller's int64 copy of the indices decrypts to the same bits
        wide = TTCiphertext(cts.rs.astype(np.int64), cts.masked)
        fam = TTDecQueryFamily.from_ciphertexts(wide, ks.params)
        assert np.array_equal(fam.evaluate_on_rows(ks.rows).T, words)
        for u in range(3):
            assert tt_dec(ks.params, ks.rows[u], wide).tolist() == words[u].tolist()
            assert honest_pirate(ks, u).answer(wide).tolist() == words[u].tolist()
            assert honest_pirate(ks, u).answer(cts).tolist() == words[u].tolist()

    def test_prf_batch_holds_nonce_rows(self):
        # 9-bit component keys: 2-byte nonce rows, one contiguous (k, 2) block per user
        rng = stream(5, "prf-batch")
        ks = tt_gen(18, 3, PRF, rng)
        words = rng.integers(0, 2, (3, 7), dtype=np.uint8)
        cts = tr_enc(ks, words, rng)
        assert cts.rs.shape == (7, 3, 2) and cts.rs.dtype == np.uint8
        assert cts.masked.shape == (7, 3)
        for u in range(3):
            assert cts.rs[:, u].flags.c_contiguous
            assert tt_dec(ks.params, ks.rows[u], cts).tolist() == words[u].tolist()
        with pytest.raises(MalformedCiphertextError):
            TTCiphertext(cts.rs[:, :2], cts.masked)

    def test_indexed_levels(self):
        rng = stream(6, "lvl")
        ks = tt_gen(16, 4, LOCAL_PRG, rng)
        decode_all = lambda ct: [tt_dec(ks.params, ks.rows[u], ct).item() for u in range(4)]
        assert decode_all(tr_enc_index(ks, 0, rng)) == [0, 0, 0, 0]
        assert decode_all(tr_enc_index(ks, 4, rng)) == [1, 1, 1, 1]
        assert decode_all(tr_enc_index(ks, 2, rng)) == [1, 1, 0, 0]
        assert decode_all(tr_enc_index(ks, np.int64(1), rng)) == [1, 0, 0, 0]
        with pytest.raises(InputShapeError):
            tr_enc_index(ks, 5, rng)
        # checked as given: an int cast would read 1.5 as level 2 and 0.5 as level 1
        for level in (1.5, np.float64(0.5), -1):
            with pytest.raises(InputShapeError, match="level must be an integer in"):
                tr_enc_index(ks, level, rng)

    def test_input_validation(self):
        rng = stream(7, "bad")
        ks = tt_gen(16, 2, LOCAL_PRG, rng)
        with pytest.raises(InputShapeError):
            tt_enc(ks, 2, rng)
        with pytest.raises(InputShapeError, match="plaintext bit must be 0/1"):
            tt_enc(ks, 0.9, rng)  # not read as 0
        with pytest.raises(InputShapeError):
            tr_enc(ks, np.zeros((3, 4), dtype=np.uint8), rng)
        with pytest.raises(InputShapeError):
            tr_enc(ks, np.full((2, 4), 2, dtype=np.uint8), rng)
        ct = tt_enc(ks, 0, rng)
        with pytest.raises(MalformedCiphertextError):
            tt_dec(ks.params, ks.rows[0], TTCiphertext(ct.rs[:, :1], ct.masked[:, :1]))
        ks3 = small_keyset()
        ct3 = tt_enc(ks3, 0, rng)
        row = ks3.rows[0].copy()
        row[8] = row[9] = 1  # index bits decode to 3 in a 3-user scheme
        with pytest.raises(InputShapeError):
            tt_dec(ks3.params, row, ct3)

    @pytest.mark.parametrize("bad", [256, 0.9])
    def test_non_bit_words_refused_before_the_cast(self, bad):
        # a uint8 cast would encrypt 256 and 0.9 as 0
        ks = small_keyset()
        rng = stream(7, "bad-word")
        words = np.zeros((3, 4))
        words[1, 2] = bad
        with pytest.raises(InputShapeError, match="plaintext bits must be 0/1"):
            tr_enc(ks, words, rng)
        assert rng.integers(1 << 30) == stream(7, "bad-word").integers(1 << 30)
        ct = tr_enc(ks, words.astype(bool), rng)  # bool words pass as bits
        assert ct.masked.dtype == np.uint8

    def test_non_bit_masked_component_rejected(self):
        ks = small_keyset()
        rng = stream(8, "masked")
        ct = tt_enc(ks, 1, rng)
        masked = ct.masked.copy()
        masked[0, 1] = 2
        with pytest.raises(MalformedCiphertextError):
            TTCiphertext(ct.rs, masked)
        # no batch with a non-bit component reaches tt_dec_circuit or the
        # query family; the decryption routes also check the arrays they read
        ct.masked[0, 1] = 2
        with pytest.raises(MalformedCiphertextError):
            tt_dec(ks.params, ks.rows[1], ct)
        with pytest.raises(MalformedCiphertextError):
            honest_pirate(ks, 1).answer(ct)
        with pytest.raises(MalformedCiphertextError):
            enc_decrypt_many(ks.key(1), ct.rs[:, 1], np.array([-1]))

    @pytest.mark.parametrize("bad", [0.9, 0.5, 256])
    def test_masked_component_refused_before_the_cast(self, bad):
        # a uint8 cast would decrypt 0.9 and 256 as if the component were 0
        ks = small_keyset()
        ct = tt_enc(ks, 1, stream(8, "masked-cast"))
        masked = ct.masked.astype(np.float64)
        masked[0, 1] = bad
        with pytest.raises(MalformedCiphertextError, match="masked components must be bits"):
            TTCiphertext(ct.rs, masked)
        with pytest.raises(MalformedCiphertextError, match="masked bits must be 0/1"):
            enc_decrypt_many(ks.key(1), ct.rs[:, 1], masked[:, 1])
        # 0/1 components of another dtype are stored as uint8 bits
        ok = TTCiphertext(ct.rs, ct.masked.astype(np.float64))
        assert ok.masked.dtype == np.uint8
        assert np.array_equal(ok.masked, ct.masked)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda ks, ct: tt_dec(ks.params, ks.rows[1], ct),
            lambda ks, ct: honest_pirate(ks, 1).answer(ct),
            lambda ks, ct: TTDecQueryFamily.from_ciphertexts(ct, ks.params),
        ],
        ids=["tt_dec", "honest_pirate", "query_family"],
    )
    def test_non_integer_indices_refused(self, entry):
        # an int64 cast would decrypt 0.9 and -0.5 under index 0 and True
        # under 1, and the query family's gather raised numpy's TypeError
        ks = small_keyset()
        ct = tt_enc(ks, 1, stream(8, "index-dtype"))
        for dtype, index in ((np.float64, 0.9), (np.float64, -0.5), (bool, True)):
            rs = ct.rs.astype(dtype)
            rs[0, 1] = index
            with pytest.raises(MalformedCiphertextError, match="PRG indices must be integers"):
                entry(ks, TTCiphertext(rs, ct.masked))


class TestDecCircuit:
    def test_matches_row_decryption_both_modes(self):
        ks = small_keyset(kappa=16, n=4, seed=8)
        rng = stream(8, "cc")
        words = rng.integers(0, 2, (4, 6), dtype=np.uint8)
        cts = tr_enc(ks, words, rng)
        want = np.array([tt_dec(ks.params, ks.rows[u], cts) for u in range(4)])
        assert np.array_equal(want, words)
        for mode in (LITERAL, FOLDED):
            circs = tt_dec_circuit(cts, ks.params, mode)
            assert len(circs) == 6 and all(c.input_width == 16 for c in circs)
            got = np.array([eval_on_rows(c, ks.rows) for c in circs])
            assert np.array_equal(got.T, want)

    @pytest.mark.parametrize("mode", [LITERAL, FOLDED])
    def test_batch_circuits_are_the_one_ciphertext_circuits(self, mode):
        # one build per batch gives ciphertext j the netlist its own k=1 batch gets
        ks = small_keyset(kappa=16, n=3, seed=8, ell=32)
        rng = stream(8, "cc-batch", mode)
        cts = tr_enc(ks, rng.integers(0, 2, (3, 5), dtype=np.uint8), rng)
        circs = tt_dec_circuit(cts, ks.params, mode)
        assert len(circs) == len(cts)
        for j, circ in enumerate(circs):
            [one] = tt_dec_circuit(TTCiphertext(cts.rs[[j]], cts.masked[[j]]), ks.params, mode)
            assert canonical_json(circuit_to_json(circ)) == canonical_json(circuit_to_json(one))
        empty = TTCiphertext(cts.rs[:0], cts.masked[:0])
        assert tt_dec_circuit(empty, ks.params, mode) == []

    def test_depth_bounds(self):
        ks = small_keyset(kappa=16, n=4, seed=9)
        rng = stream(9, "depth")
        ct = tt_enc(ks, 1, rng)
        [lit], [fol] = (tt_dec_circuit(ct, ks.params, mode) for mode in (LITERAL, FOLDED))
        assert circuit_metrics(lit).depth <= 6
        assert circuit_metrics(fol).depth <= 4

    def test_size_bound_folded(self):
        ks = small_keyset(kappa=32, n=8, seed=10)
        rng = stream(10, "size")
        ct = tt_enc(ks, 0, rng)
        [circ] = tt_dec_circuit(ct, ks.params, FOLDED)
        comp_max = max(
            circuit_metrics(
                enc_dec_circuit(ct.rs[0, u], ct.masked[0, u], ks.params.prg, FOLDED)
            ).size
            for u in range(8)
        )
        n, iw = 8, index_width(8)
        assert circuit_metrics(circ).size <= n * (comp_max + iw + 1) + 1

    def test_modes_agree_on_random_rows(self):
        ks = small_keyset(kappa=32, n=4, seed=11, ell=64)
        rng = stream(11, "agree")
        ct = tt_enc(ks, 1, rng)
        rows = rng.integers(0, 2, (1000, 32), dtype=np.uint8)
        [lit], [fol] = (tt_dec_circuit(ct, ks.params, mode) for mode in (LITERAL, FOLDED))
        assert np.array_equal(eval_on_rows(lit, rows), eval_on_rows(fol, rows))

    def test_prf_refused(self):
        rng = stream(12, "prf")
        ks = tt_gen(16, 2, PRF, rng)
        ct = tt_enc(ks, 0, rng)
        with pytest.raises(UnsupportedSchemeError):
            tt_dec_circuit(ct, ks.params)

    def test_component_count_mismatch(self):
        ks = small_keyset()
        rng = stream(13, "mm")
        ct = tt_enc(ks, 0, rng)
        with pytest.raises(MalformedCiphertextError):
            tt_dec_circuit(TTCiphertext(ct.rs[:, :2], ct.masked[:, :2]), ks.params)

    @pytest.mark.parametrize("mode", [LITERAL, FOLDED])
    @pytest.mark.parametrize("kappa,n,k", [(16, 1, 1), (16, 3, 2), (20, 4, 1)])
    def test_build_peak_within_the_count(self, mode, kappa, n, k):
        ks = small_keyset(kappa=kappa, n=n, seed=16)
        rng = stream(16, "gate-bytes", kappa, n)
        cts = tr_enc(ks, rng.integers(0, 2, (n, k), dtype=np.uint8), rng)
        tracemalloc.start()
        try:
            circs = tt_dec_circuit(cts, ks.params, mode)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gates = k * dec_circuit_gates(ks.params.prg, mode, kappa, n)
        assert sum(len(c.gates) for c in circs) <= gates
        assert peak <= gates * GATE_BYTES

    def test_netlist_past_the_memory_limit_refused_before_building(self, monkeypatch):
        # 32 users at kappa 64: 19.9M literal gates.  Folded, the netlist is small
        ks = tt_gen(64, 32, LOCAL_PRG, stream(17, "big-netlist"))
        ct = tt_enc(ks, 1, stream(17, "big-netlist-ct"))
        assert len(tt_dec_circuit(ct, ks.params, FOLDED)[0].gates) < 2000

        def no_build(*args):
            raise AssertionError("built a netlist")

        monkeypatch.setattr(ttscheme_mod, "CircuitBuilder", no_build)
        with pytest.raises(InputShapeError, match="of 19923139 gates would hold about 4.16 GiB"):
            tt_dec_circuit(ct, ks.params, LITERAL)

    @pytest.mark.parametrize(
        "fault", [None, "float", "bool", "negative", "ell", "uint32", "nonce-axis"]
    )
    def test_decryption_routes_refuse_the_same_batches(self, fault):
        # the bit route, the query family and the circuits in both modes accept
        # the same batches and decrypt them alike: each fault sits in user 1's
        # component, which tt_dec reads through row 1
        ks = small_keyset(kappa=16, n=3, seed=15, ell=32)
        rng = stream(15, "routes")
        words = rng.integers(0, 2, (3, 4), dtype=np.uint8)
        ct = tr_enc(ks, words, rng)
        rs = ct.rs.astype(
            {"float": np.float64, "bool": bool, "negative": np.int64, "uint32": np.uint32}.get(
                fault, ct.rs.dtype
            )
        )
        rs[0, 1] = {"float": rs[0, 1] + 0.4, "negative": -1, "ell": 32, "uint32": 1 << 31}.get(
            fault, rs[0, 1]
        )
        if fault == "nonce-axis":  # a PRF-shaped (k, n, 1) block of in-range indices
            rs = rs[:, :, None]
        batch = TTCiphertext(rs, ct.masked)
        circuit_route = lambda mode: lambda: np.array(
            [eval_on_rows(c, ks.rows[1:2])[0] for c in tt_dec_circuit(batch, ks.params, mode)]
        )
        routes = {
            "tt_dec": lambda: tt_dec(ks.params, ks.rows[1], batch),
            "query_family": lambda: TTDecQueryFamily.from_ciphertexts(
                batch, ks.params
            ).evaluate_on_rows(ks.rows)[:, 1],
            LITERAL: circuit_route(LITERAL),
            FOLDED: circuit_route(FOLDED),
        }
        for name, route in routes.items():
            if fault is None:
                assert route().tolist() == words[1].tolist(), name
            else:
                with pytest.raises(MalformedCiphertextError):
                    route()


class TestQueryFamily:
    def test_exhaustive_equivalence_folded(self):
        ks = small_keyset(kappa=16, n=3, seed=14)
        rng = stream(14, "fam")
        words = rng.integers(0, 2, (3, 6), dtype=np.uint8)
        cts = tr_enc(ks, words, rng)
        fam = TTDecQueryFamily.from_ciphertexts(cts, ks.params)
        assert len(fam) == 6 and fam.input_width == 16
        rows = all_rows(16)
        bulk = fam.evaluate_on_rows(rows)
        for j, circ in enumerate(tt_dec_circuit(fam.cts, fam.params, FOLDED)):
            assert np.array_equal(bulk[j], eval_on_rows(circ, rows))

    def test_exhaustive_equivalence_literal(self):
        ks = small_keyset(kappa=16, n=3, seed=15, ell=8)
        rng = stream(15, "fam-lit")
        cts = tr_enc(ks, rng.integers(0, 2, (3, 4), dtype=np.uint8), rng)
        fam = TTDecQueryFamily.from_ciphertexts(cts, ks.params)
        rows = all_rows(16)
        bulk = fam.evaluate_on_rows(rows)
        for j, circ in enumerate(tt_dec_circuit(fam.cts, fam.params, LITERAL)):
            assert np.array_equal(bulk[j], eval_on_rows(circ, rows))

    def test_sampled_equivalence_at_working_size(self):
        ks = small_keyset(kappa=32, n=8, seed=16)
        rng = stream(16, "fam-big")
        cts = tr_enc(ks, rng.integers(0, 2, (8, 50), dtype=np.uint8), rng)
        fam = TTDecQueryFamily.from_ciphertexts(cts, ks.params)
        rows = rng.integers(0, 2, (200, 32), dtype=np.uint8)
        bulk = fam.evaluate_on_rows(rows)
        picks = [0, 17, 49]
        circs = tt_dec_circuit(TTCiphertext(cts.rs[picks], cts.masked[picks]), ks.params, FOLDED)
        for j, circ in zip(picks, circs):
            assert np.array_equal(bulk[j], eval_on_rows(circ, rows))

    @pytest.mark.parametrize("a", [1.0, 20.0])
    def test_literal_netlists_decrypt_each_cell(self, a):
        # 3 keys x 25 cells at a=1 read the default 512-bit PRG at gathered
        # positions (under 512/16 a seed), 3 x 488 at a=20 by expanding each seed
        ks = small_keyset(kappa=16, n=3, seed=17)
        assert ks.params.prg.ell == 512
        rng = stream(17, "fam-cells", a)
        cb = fp_gen(3, 0.2, rng, a=a)
        assert (cb.ell * EXPAND_DIVISOR < 512) == (a == 1.0)
        cts = tr_enc(ks, cb.words, rng)
        dead = ks.rows[0].copy()
        dead[8:10] = 1  # index 3 names no user of 3
        rows = np.vstack([ks.rows, dead])
        bulk = TTDecQueryFamily.from_ciphertexts(cts, ks.params).evaluate_on_rows(rows)
        assert np.array_equal(bulk[:, :3].T, cb.words) and not bulk[:, 3].any()
        picks = rng.choice(cb.ell, 4, replace=False)
        circs = tt_dec_circuit(TTCiphertext(cts.rs[picks], cts.masked[picks]), ks.params, LITERAL)
        for j, circ in zip(picks, circs):
            lit = eval_on_rows(circ, rows)
            assert np.array_equal(lit, [*cb.words[:, j], 0]) and np.array_equal(lit, bulk[j])

    def test_empty_batch(self):
        ks = small_keyset()
        empty = tr_enc(ks, np.zeros((3, 0), dtype=np.uint8), stream(0, "empty"))
        fam = TTDecQueryFamily.from_ciphertexts(empty, ks.params)
        assert len(fam) == 0
        assert fam.evaluate_on_rows(np.zeros((5, 16), dtype=np.uint8)).shape == (0, 5)
        assert honest_pirate(ks, 1).answer(empty).shape == (0,)

    @pytest.mark.parametrize("n", [3, 5])
    def test_batch_truths_are_the_mean_of_a_contiguous_copy(self, n):
        # rows are filled row-major and returned transposed; the truths
        # must be the same bytes as the mean over a C-contiguous (k, m)
        ks = small_keyset(kappa=16, n=n, seed=30)
        rng = stream(30, "fam-mean", n)
        cts = tr_enc(ks, rng.integers(0, 2, (n, 300), dtype=np.uint8), rng)
        fam = TTDecQueryFamily.from_ciphertexts(cts, ks.params)
        rows = np.concatenate([ks.rows, rng.integers(0, 2, (9, 16), dtype=np.uint8)])
        spare = np.arange(n, 1 << index_width(n))  # indices that name no user
        rows[-len(spare) :, 8 : 8 + index_width(n)] = encode_index(spare, n)
        dead = decode_index(rows, n) >= n
        assert dead[-len(spare) :].all()
        bulk = fam.evaluate_on_rows(rows)
        assert bulk.shape == (300, len(rows))
        assert bulk.T.flags.c_contiguous  # one contiguous row per database row
        assert not bulk[:, dead].any()
        for u in range(n):
            own = enc_decrypt_many(ks.key(u), cts.rs[:, u], cts.masked[:, u])
            assert np.array_equal(bulk[:, u], own)
        truths = evaluate_batch(fam, Database(rows))
        assert truths.tobytes() == np.ascontiguousarray(bulk).mean(axis=1).tobytes()

    def test_validation(self):
        ks = small_keyset()
        rng = stream(17, "fam-bad")
        ct = tt_enc(ks, 0, rng)
        ell = ks.params.prg.ell
        # signed indices are read as int64, where one uint64 pass sees a
        # negative index wrap above ell
        for index in (-1, np.iinfo(np.int64).min, ell):
            rs = ct.rs.astype(np.int64)
            rs[0, 1] = index
            with pytest.raises(MalformedCiphertextError, match="outside stretch range"):
                TTDecQueryFamily.from_ciphertexts(TTCiphertext(rs, ct.masked), ks.params)
        # unsigned indices are checked as they are
        assert ct.rs.dtype == np.uint16
        for index in (ell, np.iinfo(np.uint16).max):
            rs = ct.rs.copy()
            rs[0, 1] = index
            with pytest.raises(MalformedCiphertextError, match="outside stretch range"):
                TTDecQueryFamily.from_ciphertexts(TTCiphertext(rs, ct.masked), ks.params)
        with pytest.raises(MalformedCiphertextError):
            TTDecQueryFamily.from_ciphertexts(
                TTCiphertext(ct.rs[:, :2], ct.masked[:, :2]), ks.params
            )
        fam = TTDecQueryFamily.from_ciphertexts(ct, ks.params)
        with pytest.raises(InputShapeError):
            fam.evaluate_on_rows(np.zeros((2, 15), dtype=np.uint8))
        rows = ks.rows.astype(np.float64)
        rows[0, 0] = 0.9
        with pytest.raises(InputShapeError, match="row entries must be bits"):
            fam.evaluate_on_rows(rows)
        pks = tt_gen(16, 2, PRF, rng)
        pct = tt_enc(pks, 0, rng)
        with pytest.raises(UnsupportedSchemeError):
            TTDecQueryFamily.from_ciphertexts(pct, pks.params)


class TestPirates:
    def test_one_shot_enforced(self):
        ks = small_keyset()
        rng = stream(18, "shot")
        p = honest_pirate(ks, 0)
        cts = tt_enc(ks, 1, rng)
        assert p.answer(cts).tolist() == [1]
        with pytest.raises(OneShotViolationError):
            p.answer(cts)

    def test_answer_shape_checked(self):
        bad = PirateOracle(lambda cts, _o: np.zeros(len(cts) + 1, dtype=np.uint8))
        ks = small_keyset()
        rng = stream(19, "shape")
        with pytest.raises(InputShapeError):
            bad.answer(tt_enc(ks, 0, rng))
        nonbit = PirateOracle(lambda cts, _o: np.full(len(cts), 2, dtype=np.uint8))
        with pytest.raises(InputShapeError):
            nonbit.answer(tt_enc(ks, 0, rng))

    @pytest.mark.parametrize("bad", [256, 0.9])
    def test_non_bit_answers_refused_before_the_cast(self, bad):
        # a uint8 cast would answer 256 and 0.9 as 0
        ks = small_keyset()
        pirate = PirateOracle(lambda cts, _o: np.full(len(cts), bad))
        with pytest.raises(InputShapeError, match="pirate answers must be bits"):
            pirate.answer(tt_enc(ks, 0, stream(19, "nonbit")))
        fine = PirateOracle(lambda cts, _o: np.ones(len(cts)))
        assert fine.answer(tt_enc(ks, 0, stream(19, "nonbit"))).tolist() == [1]

    def test_honest_pirate_is_tt_dec(self):
        ks = small_keyset(kappa=16, n=4, seed=6)
        rng = stream(6, "honest-dec")
        cts = tr_enc(ks, rng.integers(0, 2, (4, 30), dtype=np.uint8), rng)
        for u in range(4):
            want = tt_dec(ks.params, ks.rows[u], cts)
            assert np.array_equal(honest_pirate(ks, u).answer(cts), want)
        # a batch built for three users is refused, not read at column u
        other = tr_enc(small_keyset(kappa=16, n=3, seed=6), np.ones((3, 5), np.uint8), rng)
        with pytest.raises(MalformedCiphertextError, match="3 components, scheme has 4 users"):
            honest_pirate(ks, 1).answer(other)

    def test_honest_pirate_bounds(self):
        ks = small_keyset()
        with pytest.raises(InputShapeError):
            honest_pirate(ks, 3)


class TestFingerprintTracing:
    def test_honest_users_traced_to_themselves(self):
        rng = stream(0, "tt-honest")
        ks = tt_gen(32, 10, LOCAL_PRG, rng)
        for u in range(10):
            out = tt_trace_report(ks, honest_pirate(ks, u), 0.05, stream(0, "tt-honest", u))
            assert out.accused == u

    def test_trace_report_word_matches_user(self):
        rng = stream(20, "rep")
        ks = tt_gen(32, 4, LOCAL_PRG, rng)
        out = tt_trace_report(ks, honest_pirate(ks, 1), 0.05, stream(20, "rep", "t"))
        assert out.accused == 1
        assert np.array_equal(out.word, out.codebook.words[1])

    def test_zeros_pirate_never_accused(self):
        rng = stream(21, "z")
        ks = tt_gen(32, 4, LOCAL_PRG, rng)
        assert tt_trace_report(ks, zeros_pirate(), 0.05, stream(21, "z", "t")).accused is None

    def test_oversized_batch_refused_before_allocation(self):
        # n=100 needs ell_FP = 7,600,903 columns, about 7.5 GiB: refused
        # before the codebook is drawn, so neither the rng nor the oracle moves
        assert check_batch(10, 52984, 32768) == (
            52984 * (10 * 10 + 56) + 32768 * (32 + 2 * 10) + 65536
        )
        with pytest.raises(InputShapeError, match="7.48 GiB"):
            check_batch(100, 7600903, 512)
        # each Laplace amplification round adds 16 bytes per ciphertext
        assert check_batch(10, 52984, 32768, 7) == (
            check_batch(10, 52984, 32768) + 7 * 16 * 52984
        )
        with pytest.raises(InputShapeError, match="3.96 GiB"):
            check_batch(10, 52984, 32768, 5000)
        ks = tt_gen(16, 100, LOCAL_PRG, stream(22, "big"))
        rng = stream(22, "big", "t")
        pirate = zeros_pirate()
        with pytest.raises(InputShapeError, match="GiB"):
            tt_trace_report(ks, pirate, 0.05, rng)
        assert rng.integers(1 << 30) == stream(22, "big", "t").integers(1 << 30)
        assert pirate.answer(tt_enc(ks, 0, rng)).tolist() == [0]


@pytest.mark.parametrize("tracer,rounds", [("fingerprint", 5000), ("scan", 10000)])
def test_tracers_count_the_pirate_s_rounds(monkeypatch, tracer, rounds):
    # at n=10 the fingerprint batch is 52,984 ciphertexts and the scan's
    # 26,785: 5000 and 10000 Laplace rounds hold about 4.0 GiB of noise, and
    # either tracer refuses before the codebook or the levels are drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("drew the tracing batch")

    monkeypatch.setattr(ttscheme_mod, "fp_gen", no_draw)
    monkeypatch.setattr(ttscheme_mod, "tr_enc", no_draw)
    ks = tt_gen(16, 10, LOCAL_PRG, stream(26, "rounds", "keys"))
    san = SanitizerConfig(LAPLACE, epsilon=1.0, amplification_rounds=rounds)
    pirate = pirate_from_sanitizer(ks.params, ks.rows, san, stream(26, "rounds", "pirate"))
    rng = stream(26, "rounds", tracer)
    gib = {5000: "3.96", 10000: "4.00"}[rounds]
    with pytest.raises(InputShapeError, match=f"rounds={rounds} would hold about {gib} GiB"):
        if tracer == "scan":
            linear_scan_report(ks, pirate, rng)
        else:
            tt_trace_report(ks, pirate, 0.05, rng)
    assert pirate.rounds == rounds
    assert rng.integers(1 << 30) == stream(26, "rounds", tracer).integers(1 << 30)


def test_prf_draw_counted_as_one_chunk():
    # 500-bit nonces: 63-byte rows, and 131 draw rows of 500 bytes to a chunk
    cells = 5903 * ((10 + 63) * 2 + 56) + 65536
    assert check_batch(2, 5903, 0, nonce_bits=500) == cells + 131 * (500 + 63)
    # a batch smaller than a chunk is drawn whole
    assert check_batch(2, 19, 0, nonce_bits=500) == (
        check_batch(2, 19, 0) + 19 * (63 * 2 + 500 + 63)
    )


class TestLinearScan:
    def test_repetition_counts(self):
        assert default_scan_repetitions(4) == 340
        assert default_scan_repetitions(16) == 6679

    def test_honest_user_found(self):
        ks4 = tt_gen(16, 4, LOCAL_PRG, stream(1, "scan"))
        rep = linear_scan_report(ks4, honest_pirate(ks4, 2), stream(1, "scan", "run"))
        assert rep.repetitions == 340
        assert rep.accused == 3  # 1-based gap position: key row 2
        assert rep.levels.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]
        assert rep.counts[0] == 0 and rep.counts[4] == rep.repetitions

    def test_zeros_pirate_not_accused(self):
        ks4 = tt_gen(16, 4, LOCAL_PRG, stream(1, "scan"))
        out = linear_scan_report(ks4, zeros_pirate(), stream(1, "scan", "z"))
        assert out.accused is None
        assert not out.counts.any()

    @pytest.mark.parametrize(
        "scheme,n,kind,rounds",
        [
            (LOCAL_PRG, 8, "EXACT", 0),
            (LOCAL_PRG, 4, LAPLACE, 0),
            (PRF, 6, "honest", 0),
            (LOCAL_PRG, 4, LAPLACE, 10),
            (LOCAL_PRG, 4, LAPLACE, 50),
        ],
        # ids name the rounds only where there are some
        ids=[
            "LOCAL_PRG-8-EXACT",
            "LOCAL_PRG-4-LAPLACE",
            "PRF-6-honest",
            "LOCAL_PRG-4-LAPLACE-10",
            "LOCAL_PRG-4-LAPLACE-50",
        ],
    )
    def test_scan_peak_within_the_estimate(self, monkeypatch, scheme, n, kind, rounds):
        ks = tt_gen(16, n, scheme, stream(24, "scan-peak", "keys"))

        def pirate(tag):
            if kind == "honest":
                return honest_pirate(ks, 1)
            san = SanitizerConfig(
                kind, epsilon=1.0 if kind == LAPLACE else None, amplification_rounds=rounds
            )
            return pirate_from_sanitizer(ks.params, ks.rows[1:], san, stream(24, tag))

        # the estimate the scan itself checks, pirate's rounds and all
        checked = []
        monkeypatch.setattr(
            ttscheme_mod, "check_batch", lambda *args: checked.append(check_batch(*args))
        )
        # numpy sets up some routines on first use; that is not the scan's
        linear_scan_report(ks, pirate("warm"), stream(24, "warm", "scan"))
        tracemalloc.start()
        try:
            linear_scan_report(ks, pirate("run"), stream(24, "run", "scan"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        prg = ks.params.prg
        k = (n + 1) * default_scan_repetitions(n)
        assert peak <= checked[-1]
        assert checked[-1] == check_batch(n, k, prg.ell if prg else 0, rounds, 0 if prg else 8)

    def test_oversized_scan_refused_before_allocation(self):
        # kappa=16 allows 256 users; at n=64 the default s is 128,832, so the
        # 65 levels' batch would hold about 5.4 GiB
        assert check_batch(16, 17 * 6679, 32768) == (
            17 * 6679 * (10 * 16 + 56) + 32768 * (32 + 2 * 16) + 65536
        )
        ks = tt_gen(16, 64, LOCAL_PRG, stream(25, "big-scan"))
        rng, pirate = stream(25, "big-scan", "s"), zeros_pirate()
        tracemalloc.start()
        try:
            with pytest.raises(InputShapeError, match="5.43 GiB"):
                linear_scan_report(ks, pirate, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10
        # refused before the shuffle: neither the rng nor the oracle moved
        assert rng.integers(1 << 30) == stream(25, "big-scan", "s").integers(1 << 30)
        assert pirate.answer(tt_enc(ks, 0, rng)).tolist() == [0]


def text_obj(ks: TTKeySet) -> dict:
    """The key set's file object, as canonical JSON text reads back."""
    return json.loads(canonical_json(keyset_to_json(ks)))


def through_text(ks: TTKeySet) -> TTKeySet:
    """Write the key set as canonical JSON text and parse it back."""
    return keyset_from_json(text_obj(ks))


class TestSerialization:
    def test_local_prg_roundtrip(self):
        ks = small_keyset(kappa=16, n=3, seed=22)
        back = through_text(ks)
        assert back.params.kappa == 16 and back.params.n == 3
        assert back.params.scheme == LOCAL_PRG
        assert np.array_equal(back.rows, ks.rows)
        assert np.array_equal(back.params.prg.index_sets, ks.params.prg.index_sets)
        assert np.array_equal(back.params.prg.table, ks.params.prg.table)
        assert back.params.prg.ell == ks.params.prg.ell

    @pytest.mark.parametrize("kappa,dtype", [(16, np.uint8), (512, np.uint8), (600, np.uint16)])
    def test_roundtrip_keeps_index_hex_and_dtype(self, kappa, dtype):
        # the PRG seed is kappa/2 bits: positions to 255 fit a byte, to 299 do not
        ks = small_keyset(kappa=kappa, n=3, seed=24, ell=64)
        sets = ks.params.prg.index_sets
        assert sets.dtype == dtype and (sets.max() > 255) == (kappa // 2 > 256)
        back = through_text(ks)
        assert back.params.prg.index_sets.dtype == dtype
        assert np.array_equal(back.params.prg.index_sets, sets)
        assert text_obj(back) == text_obj(ks)

    def test_roundtrip_preserves_behavior(self):
        ks = small_keyset(kappa=16, n=3, seed=23)
        back = through_text(ks)
        rng = stream(23, "behave")
        ct = tt_enc(ks, 1, rng)
        assert all(tt_dec(back.params, back.rows[u], ct).tolist() == [1] for u in range(3))

    def test_prf_roundtrip(self):
        ks = tt_gen(16, 2, PRF, stream(24, "prf-json"))
        back = through_text(ks)
        assert back.params.scheme == PRF and back.params.prg is None
        assert np.array_equal(back.rows, ks.rows)

    def test_malformed_rejected(self, tmp_path):
        ks = small_keyset(seed=25)
        (tmp_path / "ks.json").write_text("{")
        with pytest.raises(FileFormatError):
            read_json(str(tmp_path / "ks.json"))
        with pytest.raises(FileFormatError):
            keyset_from_json({"kappa": 16, "n": 2})
        obj = text_obj(ks)
        swapped = dict(obj, rows=[obj["rows"][1], obj["rows"][0], obj["rows"][2]])
        with pytest.raises(FileFormatError):
            keyset_from_json(swapped)
        with pytest.raises(FileFormatError):
            keyset_from_json(dict(obj, rows=obj["rows"][:2]))

    def test_swapped_index_fields_name_the_row(self):
        # whole rows in the wrong order, or index fields swapped between
        # rows, leave row u decoding to some other user; a kappa=16 row's
        # second byte (hex digits 2-3) is its 2-bit index field and padding
        obj = text_obj(small_keyset(kappa=16, n=3, seed=29))
        for u, v in ((0, 2), (1, 2)):
            rows = list(obj["rows"])
            rows[u], rows[v] = rows[u][:2] + rows[v][2:], rows[v][:2] + rows[u][2:]
            with pytest.raises(FileFormatError, match=f"row {u} decodes to index {v}"):
                keyset_from_json(dict(obj, rows=rows))

    def test_extra_rows_rejected(self):
        obj = text_obj(small_keyset(seed=27))
        obj["rows"].append(obj["rows"][0])
        with pytest.raises(FileFormatError, match="expected 3 rows"):
            keyset_from_json(obj)

    @pytest.mark.parametrize("field,edit", [
        ("row 1", lambda obj: obj["rows"].__setitem__(1, obj["rows"][1] + "ff")),
        ("row 2", lambda obj: obj["rows"].__setitem__(2, obj["rows"][2][:-2] + "01")),
        ("prg.table", lambda obj: obj["prg"].__setitem__("table", obj["prg"]["table"] + "00")),
    ])
    def test_hex_rows_must_fit_exactly(self, field, edit):
        # kappa=18 rows are 3 bytes with 6 padding bits; a row with a byte
        # appended or a padding bit set used to load silently
        ks = tt_gen(18, 3, LOCAL_PRG, stream(26, "hex"), prg=prg_params_gen(26, 9, ell=16))
        obj = text_obj(ks)
        assert keyset_from_json(obj).rows.tolist() == ks.rows.tolist()
        edit(obj)
        with pytest.raises(FileFormatError, match=field):
            keyset_from_json(obj)

    def test_key_file_read_holds_under_100_bytes_a_row(self):
        # the rows are joined and decoded whole: their text, packed bytes and
        # (n, 64) bits, where one array a row, then stacked, held 397 B a row
        n = 100_000
        obj = text_obj(tt_gen(64, n, LOCAL_PRG, stream(30, "big-file")))
        tracemalloc.start()
        try:
            ks = keyset_from_json(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ks.rows.shape == (n, 64) and peak <= 100 * n

    @pytest.mark.parametrize(
        "edit", [lambda h: h[:-1], lambda h: h[:-2], lambda h: h + "0000"]
    )
    def test_index_sets_length_checked_before_reshape(self, edit):
        # a wrong length used to reach numpy's reshape, whose message names no field
        obj = text_obj(small_keyset(kappa=16, n=3, seed=28))
        obj["prg"]["index_sets"] = edit(obj["prg"]["index_sets"])
        with pytest.raises(FileFormatError, match="prg.index_sets is .* expected 10240"):
            keyset_from_json(obj)
