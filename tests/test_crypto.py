import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttpa.circuit import (
    AND,
    CircuitMetrics,
    circuit_metrics,
    constant_fold,
    eval_on_rows,
)
from ttpa.crypto import (
    FOLDED,
    LITERAL,
    LOCAL_PRG,
    PRF,
    MAX_ALLOC_BYTES,
    EncKey,
    LocalPrgParams,
    append_dec_component,
    check_prg_draw,
    collision_bound,
    default_stretch,
    enc_dec_circuit,
    enc_decrypt_many,
    enc_encrypt_many,
    enc_gen,
    prg_bits_at,
    prg_expand,
    prg_params_gen,
    xor_and_table,
)
from ttpa.circuit import CircuitBuilder
from ttpa.errors import (
    InputShapeError,
    MalformedCiphertextError,
    UnsupportedSchemeError,
)


def all_rows(width: int) -> np.ndarray:
    n = 1 << width
    rows = np.zeros((n, width), dtype=np.uint8)
    for j in range(width):
        rows[:, j] = (np.arange(n) >> (width - 1 - j)) & 1
    return rows


def bits_of(value: int, width: int) -> np.ndarray:
    return np.array([(value >> (width - 1 - t)) & 1 for t in range(width)], dtype=np.uint8)


class TestPredicateTable:
    def test_known_assignment(self):
        # x1..x5 = 1,0,1,1,0: parity 1^0^1 = 0, last-two AND 1&0 = 0
        table = xor_and_table(5)
        assert table[0b10110] == 0

    def test_small_locality_assignments(self):
        # L=3 is x1 ^ (x2 & x3)
        table = xor_and_table(3)
        assert table[0b111] == 0
        assert table[0b011] == 1
        assert table[0b100] == 1

    @pytest.mark.parametrize("locality", [3, 4, 5, 6, 7])
    def test_balanced(self, locality):
        # the parity part makes the predicate balanced in x1
        table = xor_and_table(locality)
        assert int(table.sum()) == 1 << (locality - 1)

    def test_pure_python_recompute(self):
        table = xor_and_table(5)
        for idx in range(32):
            x = [(idx >> (4 - t)) & 1 for t in range(5)]
            assert table[idx] == (x[0] ^ x[1] ^ x[2] ^ (x[3] & x[4]))

    def test_locality_too_small(self):
        with pytest.raises(InputShapeError):
            xor_and_table(2)


class TestPrgParams:
    def test_index_set_shape_and_range(self):
        params = prg_params_gen(1, 8, ell=4)
        assert params.index_sets.shape == (4, 5)
        assert params.index_sets.min() >= 0
        assert params.index_sets.max() < 8
        for row in params.index_sets:
            assert len(set(row.tolist())) == 5

    def test_default_stretch_is_cubic(self):
        assert default_stretch(64) == 262144
        assert prg_params_gen(0, 8).ell == 512

    def test_deterministic_in_master_seed(self):
        a = prg_params_gen(7, 16, ell=32)
        b = prg_params_gen(7, 16, ell=32)
        c = prg_params_gen(8, 16, ell=32)
        assert np.array_equal(a.index_sets, b.index_sets)
        assert not np.array_equal(a.index_sets, c.index_sets)

    def test_seed_shorter_than_locality(self):
        with pytest.raises(InputShapeError):
            prg_params_gen(0, 4)

    def test_bad_stretch_and_table(self):
        with pytest.raises(InputShapeError):
            prg_params_gen(0, 8, ell=0)
        with pytest.raises(InputShapeError):
            prg_params_gen(0, 8, ell=4, table=np.zeros(7, dtype=np.uint8))

    def test_negative_stretch_refused_before_the_draw(self):
        # used to fail inside rng.random with "negative dimensions are not allowed"
        with pytest.raises(InputShapeError, match="prg.ell -3"):
            prg_params_gen(0, 8, ell=-3)
        with pytest.raises(InputShapeError, match="prg.ell"):
            check_prg_draw(8, -3)

    def test_non_bit_table_refused(self):
        # a 2 in the table would make prg_expand and prg_bits_at disagree
        with pytest.raises(InputShapeError, match="prg.table"):
            prg_params_gen(0, 8, table=[2] * 32)
        with pytest.raises(InputShapeError, match="prg.table entries must be bits"):
            prg_params_gen(0, 8, table=[0.9] * 32)  # not read as all zeros

    def test_description_checks_itself(self):
        good = prg_params_gen(1, 8, ell=4)
        sets, table = good.index_sets, good.table
        LocalPrgParams(8, 4, 5, sets, table)
        for field, args in [
            ("prg.ell", (8, 0, 5, sets[:0], table)),
            ("prg.locality", (4, 4, 5, sets, table)),
            ("prg.table", (8, 4, 5, sets, table[:16])),
            ("prg.index_sets", (8, 4, 5, sets[:, :4], table)),
            ("prg.index_sets", (8, 4, 5, np.where(sets == sets[0, 0], 8, sets), table)),
            ("prg.index_sets", (8, 4, 5, sets - 8, table)),
        ]:
            with pytest.raises(InputShapeError, match=field):
                LocalPrgParams(*args)

    def test_oversized_draw_refused_before_allocation(self):
        # kappa=128 seed bits at the cubic stretch would sort a 4 GiB draw
        assert check_prg_draw(64, default_stretch(64)) == 64**4 * 16
        with pytest.raises(InputShapeError, match="GiB"):
            check_prg_draw(128, default_stretch(128))
        assert 128**4 * 16 > MAX_ALLOC_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(InputShapeError, match="GiB"):
                prg_params_gen(0, 128)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @given(st.integers(0, 2**32), st.integers(5, 12), st.integers(1, 40))
    def test_index_sets_always_distinct(self, seed, kappa, ell):
        params = prg_params_gen(seed, kappa, ell=ell)
        for row in params.index_sets:
            assert len(set(row.tolist())) == params.locality


def gathered_bits(params, seed, pos):
    """G(seed) at pos, one index set per position: the reference gather."""
    pow2 = 1 << np.arange(params.locality - 1, -1, -1)
    return params.table[seed[params.index_sets[pos]] @ pow2]


def scalar_bits(params, seed):
    """G(seed) bit by bit in pure Python: the reference recompute."""
    out = []
    for row in params.index_sets:
        idx = 0
        for p in row:
            idx = (idx << 1) | int(seed[p])
        out.append(int(params.table[idx]))
    return np.array(out, dtype=np.uint8)


class TestPrgExpand:
    def test_zero_seed_zero_output(self):
        params = prg_params_gen(3, 10, ell=64)
        out = prg_expand(params, np.zeros(10, dtype=np.uint8))
        assert out.shape == (64,)
        assert not out.any()

    def test_matches_scalar_recompute(self):
        params = prg_params_gen(5, 12, ell=50)
        rng = np.random.default_rng(11)
        seed = rng.integers(0, 2, 12, dtype=np.uint8)
        out = prg_expand(params, seed)
        assert np.array_equal(out, scalar_bits(params, seed))
        # stacked seeds across the 64-lane word boundary, under every kind of
        # table: table[0] is the constant term of the ANF the kernel evaluates
        tables = [xor_and_table(3), xor_and_table(4), xor_and_table(5)]
        for _ in range(3):
            tables.append(rng.integers(0, 2, 32, dtype=np.uint8))
        tables[-1][0], tables[-2][0] = 1, 0
        tables.append(np.zeros(32, dtype=np.uint8))
        for table in tables:
            loc = table.size.bit_length() - 1
            params = prg_params_gen(6, 12, ell=20, locality=loc, table=table)
            for m in (0, 1, 63, 64, 65, 130):
                seeds = rng.integers(0, 2, (m, 12), dtype=np.uint8)
                got = prg_expand(params, seeds)
                assert got.dtype == np.uint8 and got.shape == (m, 20)
                for row, seed in zip(got, seeds):
                    assert np.array_equal(row, scalar_bits(params, seed))

    def test_bits_at_agrees_with_expand(self):
        # below ell the positions are gathered, from ell up expanded and indexed
        params = prg_params_gen(5, 12, ell=50)
        rng = np.random.default_rng(12)
        seed = rng.integers(0, 2, 12, dtype=np.uint8)
        for size in (0, 1, 5, 49, 50, 51, 400):
            pos = rng.integers(0, 50, size)
            if size >= 5:
                pos[:5] = [0, 17, 17, 49, 3]  # repeats and both ends
            got = prg_bits_at(params, seed, pos)
            assert got.dtype == np.uint8 and got.shape == (size,)
            assert np.array_equal(got, prg_expand(params, seed)[pos])
            assert np.array_equal(got, gathered_bits(params, seed, pos))
        # a stack of 3 seeds, one position row each: the rule counts all 3k
        seeds = rng.integers(0, 2, (3, 12), dtype=np.uint8)
        for k in (0, 1, 16, 17, 140):  # 3k = 0, 3, 48 gather; 51, 420 expand
            pos = rng.integers(0, 50, (3, k))
            got = prg_bits_at(params, seeds, pos)
            assert got.dtype == np.uint8 and got.shape == (3, k)
            for row, s, p in zip(got, seeds, pos):
                assert np.array_equal(row, prg_expand(params, s)[p])
                assert np.array_equal(row, gathered_bits(params, s, p))

    def test_seed_shape_checked(self):
        params = prg_params_gen(0, 8, ell=4)
        with pytest.raises(InputShapeError):
            prg_expand(params, np.zeros(9, dtype=np.uint8))
        with pytest.raises(InputShapeError):
            prg_expand(params, np.zeros((2, 9), dtype=np.uint8))
        with pytest.raises(InputShapeError):
            prg_expand(params, np.zeros((2, 3, 8), dtype=np.uint8))
        with pytest.raises(InputShapeError):
            prg_expand(params, np.full((2, 8), 2, dtype=np.uint8))
        with pytest.raises(InputShapeError):
            prg_bits_at(params, np.zeros((2, 3, 8), dtype=np.uint8), np.zeros((2, 3, 1)))
        with pytest.raises(InputShapeError):
            prg_bits_at(params, np.zeros((2, 9), dtype=np.uint8), np.zeros((2, 1)))
        for positions in (np.zeros((3, 4)), np.zeros(4), np.zeros((1, 4))):
            with pytest.raises(InputShapeError):
                prg_bits_at(params, np.zeros((2, 8), dtype=np.uint8), positions)
        with pytest.raises(InputShapeError):
            prg_bits_at(params, np.zeros(8, dtype=np.uint8), np.zeros((1, 4)))

    @pytest.mark.parametrize("bad", [256, 0.9])
    def test_non_bit_seeds_refused_before_the_cast(self, bad):
        # a uint8 cast would read 256 and 0.9 as 0
        params = prg_params_gen(0, 8, ell=4)
        seeds = np.zeros((2, 8))
        seeds[1, 3] = bad
        for expand in (
            lambda: prg_expand(params, seeds),
            lambda: prg_expand(params, seeds[1]),
            lambda: prg_bits_at(params, seeds, np.zeros((2, 1))),
        ):
            with pytest.raises(InputShapeError, match="seed entries must be bits"):
                expand()
        seeds[1, 3] = 1
        assert prg_expand(params, seeds).tolist() == prg_expand(
            params, seeds.astype(np.uint8)
        ).tolist()


class TestPrgBitCircuit:
    def test_depth_two_and_exhaustive_agreement(self):
        params = prg_params_gen(9, 6, ell=10)
        rows = all_rows(6)
        expanded = np.stack([prg_expand(params, r) for r in rows])
        for i in range(10):
            circ = enc_dec_circuit(i, 0, params, FOLDED)
            assert circ.input_width == 6
            assert circuit_metrics(circ).depth <= 2
            assert np.array_equal(eval_on_rows(circ, rows), expanded[:, i])

    def test_index_out_of_range(self):
        params = prg_params_gen(0, 8, ell=4)
        with pytest.raises(MalformedCiphertextError):
            enc_dec_circuit(4, 0, params, FOLDED)

    def test_xor_predicate_two_term_dnf(self):
        params = prg_params_gen(2, 2, ell=4, locality=2,
                                table=np.array([0, 1, 1, 0], dtype=np.uint8))
        circ = enc_dec_circuit(0, 0, params, FOLDED)
        assert sum(1 for g in circ.gates if g.op == AND) == 2
        assert circuit_metrics(circ) == CircuitMetrics(5, 2)
        rows = all_rows(2)
        assert np.array_equal(eval_on_rows(circ, rows), rows[:, 0] ^ rows[:, 1])


class TestEncGen:
    def test_local_prg_attaches_public_params(self):
        rng = np.random.default_rng(0)
        key = enc_gen(16, LOCAL_PRG, rng)
        assert key.kappa == 16
        assert key.prg is not None and key.prg.kappa == 16
        assert key.prg.ell == default_stretch(16)

    def test_shared_params_reused(self):
        params = prg_params_gen(4, 16)
        rng = np.random.default_rng(0)
        key = enc_gen(16, LOCAL_PRG, rng, prg=params)
        assert key.prg is params

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InputShapeError):
            enc_gen(7, LOCAL_PRG, rng)
        with pytest.raises(UnsupportedSchemeError):
            enc_gen(16, "OTP", rng)
        with pytest.raises(InputShapeError):
            enc_gen(16, PRF, rng, prg=prg_params_gen(0, 16))
        with pytest.raises(InputShapeError):
            enc_gen(32, LOCAL_PRG, rng, prg=prg_params_gen(0, 16))

    def test_key_checks_its_scheme(self):
        bits = np.zeros(16, dtype=np.uint8)
        prg = prg_params_gen(0, 16, ell=8)
        EncKey(LOCAL_PRG, bits, prg)
        EncKey(PRF, bits, None)
        with pytest.raises(InputShapeError, match="need a PRG"):
            EncKey(LOCAL_PRG, bits, None)
        with pytest.raises(InputShapeError, match="prg.kappa"):
            EncKey(LOCAL_PRG, bits[:8], prg)
        with pytest.raises(InputShapeError, match="carry no PRG"):
            EncKey(PRF, bits, prg)
        with pytest.raises(UnsupportedSchemeError, match="unknown scheme"):
            EncKey("OTP", bits, None)

    def test_keys_distinct_across_draws(self):
        rng = np.random.default_rng(123)
        params = prg_params_gen(0, 64, ell=64)
        seen = {
            tuple(enc_gen(64, LOCAL_PRG, rng, prg=params).bits.tolist())
            for _ in range(1000)
        }
        assert len(seen) == 1000

    def test_deterministic_in_rng(self):
        a = enc_gen(16, PRF, np.random.default_rng(5))
        b = enc_gen(16, PRF, np.random.default_rng(5))
        assert np.array_equal(a.bits, b.bits)


class _StubIndexRng:
    """Stands in for a Generator when the test pins the drawn PRG indices."""

    def __init__(self, value: int):
        self.value = value

    def integers(self, low, high, size, dtype):
        return np.full(size, self.value, dtype=dtype)


class TestEncRoundtrip:
    @pytest.mark.parametrize("scheme", [LOCAL_PRG, PRF])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_single_roundtrip(self, scheme, bit):
        rng = np.random.default_rng(42)
        key = enc_gen(16, scheme, rng)
        for _ in range(20):
            rs, ms = enc_encrypt_many(key, np.array([bit]), rng)
            assert enc_decrypt_many(key, rs, ms).tolist() == [bit]

    def test_pinned_index_instance(self):
        params = prg_params_gen(0, 8, ell=8)
        seed = next(
            bits_of(v, 8)
            for v in range(256)
            if prg_expand(params, bits_of(v, 8))[3] == 1
        )
        key = EncKey(LOCAL_PRG, seed, params)
        rs, ms = enc_encrypt_many(key, np.array([0]), _StubIndexRng(3))
        assert (rs.tolist(), ms.tolist()) == ([3], [1])
        assert enc_decrypt_many(key, rs, ms).tolist() == [0]
        rs1, ms1 = enc_encrypt_many(key, np.array([1]), _StubIndexRng(3))
        assert (rs1.tolist(), ms1.tolist()) == ([3], [0])
        assert enc_decrypt_many(key, rs1, ms1).tolist() == [1]

    def test_masked_bit_roughly_balanced(self):
        rng = np.random.default_rng(77)
        key = enc_gen(16, LOCAL_PRG, rng)
        _, ms = enc_encrypt_many(key, np.zeros(4000, dtype=np.uint8), rng)
        assert abs(float(ms.mean()) - 0.5) < 0.1

    def test_plaintext_validation(self):
        rng = np.random.default_rng(0)
        key = enc_gen(16, LOCAL_PRG, rng)
        with pytest.raises(InputShapeError):
            enc_encrypt_many(key, np.array([2]), rng)
        with pytest.raises(MalformedCiphertextError):
            enc_decrypt_many(key, np.array([0]), np.array([2]))

    def test_index_out_of_range_rejected(self):
        rng = np.random.default_rng(0)
        key = enc_gen(16, LOCAL_PRG, rng)
        ell = key.prg.ell
        for bad in (ell, -1):
            with pytest.raises(MalformedCiphertextError):
                enc_decrypt_many(key, np.array([bad]), np.array([0]))
        pkey = enc_gen(16, PRF, rng)
        with pytest.raises(MalformedCiphertextError):
            enc_decrypt_many(pkey, np.array([1 << 16]), np.array([0]))

    def test_batch_roundtrip_local_prg(self):
        rng = np.random.default_rng(8)
        key = enc_gen(16, LOCAL_PRG, rng)
        bits = rng.integers(0, 2, 200, dtype=np.uint8)
        rs, ms = enc_encrypt_many(key, bits, rng)
        assert np.array_equal(enc_decrypt_many(key, rs, ms), bits)
        singles = [enc_decrypt_many(key, rs[[j]], ms[[j]])[0] for j in range(len(rs))]
        assert np.array_equal(np.array(singles), bits)

    @pytest.mark.parametrize("k", [1, 513])
    def test_batch_encrypt_bits_exact_on_both_paths(self, k):
        # k=1 gathers, k > ell=512 expands: the ciphertexts are the same bits
        rng = np.random.default_rng(9)
        key = enc_gen(8, LOCAL_PRG, rng, prg=prg_params_gen(2, 8))
        assert key.prg.ell == 512
        bits = rng.integers(0, 2, k, dtype=np.uint8)
        draw = np.random.default_rng(10)
        rs, ms = enc_encrypt_many(key, bits, draw)
        assert np.array_equal(rs, np.random.default_rng(10).integers(0, 512, k, dtype=np.int64))
        assert np.array_equal(ms, gathered_bits(key.prg, key.bits, rs) ^ bits)
        assert np.array_equal(enc_decrypt_many(key, rs, ms), bits)

    def test_batch_roundtrip_prf_wide_nonces(self):
        # regression: 64-bit nonces overflowed a fixed-width index array
        rng = np.random.default_rng(8)
        key = enc_gen(64, PRF, rng)
        bits = rng.integers(0, 2, 100, dtype=np.uint8)
        rs, ms = enc_encrypt_many(key, bits, rng)
        assert max(int(r).bit_length() for r in rs) == 64
        assert np.array_equal(enc_decrypt_many(key, rs, ms), bits)

    def test_batch_input_validation(self):
        rng = np.random.default_rng(0)
        key = enc_gen(16, LOCAL_PRG, rng)
        with pytest.raises(InputShapeError):
            enc_encrypt_many(key, np.zeros((2, 2), dtype=np.uint8), rng)
        with pytest.raises(InputShapeError):
            enc_encrypt_many(key, np.array([0, 3], dtype=np.uint8), rng)
        with pytest.raises(MalformedCiphertextError):
            enc_decrypt_many(key, np.array([key.prg.ell]), np.array([0], dtype=np.uint8))

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=64), st.integers(0, 2**32))
    @settings(max_examples=25)
    def test_batch_roundtrip_property(self, bits, seed):
        rng = np.random.default_rng(seed)
        key = enc_gen(8, LOCAL_PRG, rng, prg=prg_params_gen(1, 8, ell=32))
        arr = np.array(bits, dtype=np.uint8)
        rs, ms = enc_encrypt_many(key, arr, rng)
        assert np.array_equal(enc_decrypt_many(key, rs, ms), arr)


class TestStackedEncrypt:
    ELL = 64

    @pytest.mark.parametrize("scheme", [LOCAL_PRG, PRF])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("k", [0, 1, ELL])
    def test_stack_equals_one_key_at_a_time(self, scheme, m, k):
        # k=1 gathers PRG bits, k=ell expands every seed: both must match
        prg = prg_params_gen(3, 8, ell=self.ELL) if scheme == LOCAL_PRG else None
        rng = np.random.default_rng(31)
        keys = rng.integers(0, 2, (m, 8), dtype=np.uint8)
        bits = rng.integers(0, 2, (m, k), dtype=np.uint8)
        rs, ms = enc_encrypt_many(EncKey(scheme, keys, prg), bits, np.random.default_rng(7))
        assert rs.shape == ms.shape == (m, k)
        one = np.random.default_rng(7)
        for i in range(m):
            key = EncKey(scheme, keys[i], prg)
            r1, m1 = enc_encrypt_many(key, bits[i], one)
            assert rs[i].tolist() == r1.tolist()
            assert ms[i].tolist() == m1.tolist()
            assert enc_decrypt_many(key, rs[i], ms[i]).tolist() == bits[i].tolist()

    @pytest.mark.parametrize("scheme", [LOCAL_PRG, PRF])
    def test_bits_must_match_the_key_stack(self, scheme):
        prg = prg_params_gen(3, 8, ell=self.ELL) if scheme == LOCAL_PRG else None
        rng = np.random.default_rng(0)
        stack = EncKey(scheme, np.zeros((3, 8), dtype=np.uint8), prg)
        for bits in (np.zeros((2, 4)), np.zeros(4), np.zeros((3, 2, 4)), np.array(1)):
            with pytest.raises(InputShapeError, match="do not match keys"):
                enc_encrypt_many(stack, bits, rng)
        with pytest.raises(InputShapeError, match="do not match keys"):
            enc_encrypt_many(EncKey(scheme, stack.bits[0], prg), np.zeros((1, 4)), rng)

    @pytest.mark.parametrize("scheme", [LOCAL_PRG, PRF])
    @pytest.mark.parametrize("bad", [256, 0.9])
    def test_non_bit_plaintext_refused_before_the_cast(self, scheme, bad):
        # a uint8 cast would encrypt 256 and 0.9 as 0
        prg = prg_params_gen(3, 8, ell=self.ELL) if scheme == LOCAL_PRG else None
        key = EncKey(scheme, np.zeros((2, 8), dtype=np.uint8), prg)
        bits = np.zeros((2, 3))
        bits[0, 1] = bad
        rng = np.random.default_rng(0)
        with pytest.raises(InputShapeError, match="plaintext bits must be 0/1"):
            enc_encrypt_many(key, bits, rng)
        with pytest.raises(InputShapeError, match="plaintext bits must be 0/1"):
            enc_encrypt_many(EncKey(scheme, key.bits[0], prg), bits[0], rng)
        assert rng.integers(1 << 30) == np.random.default_rng(0).integers(1 << 30)

    def test_prf_decryption_refuses_a_stack(self):
        stack = EncKey(PRF, np.zeros((2, 8), dtype=np.uint8), None)
        rs, ms = enc_encrypt_many(stack, np.zeros((2, 3)), np.random.default_rng(0))
        with pytest.raises(InputShapeError, match="one key"):
            enc_decrypt_many(stack, rs, ms)


class TestDecCircuit:
    def _params(self):
        return prg_params_gen(6, 10, ell=6)

    def test_prf_has_no_circuit(self):
        with pytest.raises(UnsupportedSchemeError):
            enc_dec_circuit(0, 0, None)

    @pytest.mark.parametrize("masked", [0, 1])
    @pytest.mark.parametrize("r", [0, 3, 5])
    def test_exhaustive_agreement_both_modes(self, r, masked):
        params = self._params()
        rows = all_rows(10)
        expected = np.array(
            [enc_decrypt_many(EncKey(LOCAL_PRG, row, params), [r], [masked])[0] for row in rows],
            dtype=np.uint8,
        )
        lit = enc_dec_circuit(r, masked, params, LITERAL)
        fol = enc_dec_circuit(r, masked, params, FOLDED)
        assert lit.input_width == 10 and fol.input_width == 10
        assert np.array_equal(eval_on_rows(lit, rows), expected)
        assert np.array_equal(eval_on_rows(fol, rows), expected)

    def test_depth_bounds(self):
        params = self._params()
        for masked in (0, 1):
            assert circuit_metrics(enc_dec_circuit(2, masked, params, LITERAL)).depth == 4
            assert circuit_metrics(enc_dec_circuit(2, masked, params, FOLDED)).depth == 2

    def test_folding_the_literal_build_matches_folded_mode(self):
        params = self._params()
        rows = all_rows(10)
        folded_lit = constant_fold(enc_dec_circuit(4, 1, params, LITERAL))
        assert circuit_metrics(folded_lit).depth <= 2
        assert np.array_equal(
            eval_on_rows(folded_lit, rows),
            eval_on_rows(enc_dec_circuit(4, 1, params, FOLDED), rows),
        )

    def test_folded_stays_small_at_full_stretch(self):
        params = prg_params_gen(13, 16)
        assert params.ell == 4096
        m = circuit_metrics(enc_dec_circuit(4095, 1, params, FOLDED))
        assert m.depth <= 2
        assert m.size <= 40

    def test_mode_and_index_validation(self):
        params = self._params()
        b = CircuitBuilder(10)
        with pytest.raises(InputShapeError):
            append_dec_component(b, 0, 0, params, mode="nope")
        with pytest.raises(InputShapeError):
            append_dec_component(b, 0, 2, params)
        with pytest.raises(InputShapeError, match="masked bit must be 0/1"):
            append_dec_component(b, 0, 0.9, params)  # not read as 0
        with pytest.raises(MalformedCiphertextError):
            enc_dec_circuit(6, 0, params)


class TestCollisionBound:
    def test_exact_values(self):
        assert collision_bound(262144, 50) == 0.0095367431640625
        assert collision_bound(4, 2) == 1.0
