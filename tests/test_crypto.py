import hmac
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ttpa.crypto as crypto_mod
from ttpa.circuit import (
    AND,
    CircuitMetrics,
    circuit_metrics,
    circuit_to_json,
    eval_on_rows,
)
from ttpa.crypto import (
    FOLDED,
    GATE_BYTES,
    LITERAL,
    LOCAL_PRG,
    PRF,
    EXPAND_DIVISOR,
    EncKey,
    LocalPrgParams,
    check_prg_draw,
    collision_bound,
    dec_circuit_gates,
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
from ttpa.errors import (
    MAX_ALLOC_BYTES,
    InputShapeError,
    MalformedCiphertextError,
    UnsupportedSchemeError,
)
from ttpa.seeds import stream


def all_rows(width: int) -> np.ndarray:
    n = 1 << width
    rows = np.zeros((n, width), dtype=np.uint8)
    for j in range(width):
        rows[:, j] = (np.arange(n) >> (width - 1 - j)) & 1
    return rows


def direct_prgs():
    """PRGs built directly at localities 1-4, with constant 0, constant 1, XOR and random tables."""
    rng = np.random.default_rng(11)
    kappa, ell = 6, 5
    for loc in range(1, 5):
        sets = np.stack([rng.permutation(kappa)[:loc] for _ in range(ell)])
        xor = np.array([bin(a).count("1") & 1 for a in range(1 << loc)], dtype=np.uint8)
        for table in (np.zeros_like(xor), np.ones_like(xor), xor, rng.integers(0, 2, xor.size)):
            yield LocalPrgParams(kappa, sets, table)


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

    def test_anf_derived_once_outside_repr(self):
        # x1 ^ x2 ^ x3 ^ (x4 & x5): the monomials prg_expand and prg_bits_at run
        params = prg_params_gen(1, 8, ell=4)
        assert params.monomials == ((3, 4), (2,), (1,), (0,))
        assert "monomials" not in repr(params)
        ones = prg_params_gen(1, 8, ell=4, table=np.ones(32, dtype=np.uint8))
        assert ones.monomials == ((),)

    def test_minterms_cover_each_assignment_once(self):
        for prg in direct_prgs():
            loc, table = prg.locality, prg.table
            signs = [tuple(bool(b) for b in bits_of(a, loc)) for a in range(1 << loc)]
            for v in (0, 1):
                assert prg.minterms[v] == tuple(s for s, t in zip(signs, table) if t == v)
            assert sorted(prg.minterms[0] + prg.minterms[1]) == sorted(signs)
            assert "minterms" not in repr(prg)

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
        built = LocalPrgParams(8, sets, table)
        assert (built.ell, built.locality) == (4, 5)
        for field, args in [
            ("prg.ell", (8, sets[:0], table)),
            ("prg.locality", (4, sets, table)),
            ("prg.locality", (8, sets[:, :0], table[:1])),
            ("prg.table", (8, sets, table[:16])),
            ("prg.table", (8, sets[:, :4], table)),
            ("prg.index_sets", (8, sets[0], table)),
            ("prg.index_sets", (8, np.where(sets == sets[0, 0], 8, sets), table)),
            ("prg.index_sets", (8, sets - 8, table)),
        ]:
            with pytest.raises(InputShapeError, match=field):
                LocalPrgParams(*args)

    @pytest.mark.parametrize(
        "sets", [[[0.5, 1, 2], [1, 2, 3.9]], [[True, False, True], [False, True, True]]],
        ids=["float", "bool"],
    )
    def test_non_integer_index_sets_refused(self, sets):
        # in range, so once accepted prg_expand and prg_bits_at failed on them
        with pytest.raises(InputShapeError, match="prg.index_sets must be integers"):
            LocalPrgParams(8, np.array(sets), xor_and_table(3))

    def test_oversized_draw_refused_before_allocation(self):
        # kappa=128 seed bits at the cubic stretch would sort a 2.01 GiB draw
        need = 64**3 * (64 * 8 + 5 * 1) + (128 << 10)
        assert check_prg_draw(64, default_stretch(64)) == need
        with pytest.raises(InputShapeError, match="GiB"):
            check_prg_draw(128, default_stretch(128))
        assert 128**3 * (128 * 8 + 5 * 1) > MAX_ALLOC_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(InputShapeError, match="GiB"):
                prg_params_gen(0, 128)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_seed_over_2048_bits_refused(self):
        # a 12-bit column would push the packed sort key past 64 bits
        assert check_prg_draw(2048, 1) > 0
        for call in (lambda: check_prg_draw(2049, 1), lambda: prg_params_gen(0, 2049, ell=1)):
            with pytest.raises(InputShapeError, match="at most 2048 seed bits"):
                call()

    @pytest.mark.parametrize("kappa,locality", [(8, 5), (16, 3), (32, 5), (32, 8)])
    def test_draw_peak_within_the_estimate(self, kappa, locality):
        prg_params_gen(0, kappa, locality=locality)  # numpy sets up some routines on first use
        tracemalloc.start()
        try:
            prg_params_gen(1, kappa, locality=locality)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= check_prg_draw(kappa, default_stretch(kappa), locality)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_index_sets_are_the_argsort_draw(self, seed):
        # the reference: the first L columns of each row of rng.random, in sorted order
        for kappa in (5, 8, 13, 32, 64, 100, 2048):
            for ell in (1, 7, 300):
                for locality in (1, 3, 5):
                    rng = stream(seed, "prg-index-sets", kappa, ell, locality)
                    want = np.argsort(rng.random((ell, kappa)), axis=1)[:, :locality]
                    table = np.arange(1 << locality, dtype=np.uint8) & 1
                    got = prg_params_gen(seed, kappa, ell, locality, table).index_sets
                    narrow = np.min_scalar_type(kappa - 1)
                    assert got.dtype == narrow and np.array_equal(got, want)

    @pytest.mark.parametrize(
        "kappa,dtype",
        [(8, np.uint8), (256, np.uint8), (257, np.uint16), (300, np.uint16), (2048, np.uint16)],
    )
    def test_index_sets_held_in_the_narrowest_dtype(self, kappa, dtype):
        params = prg_params_gen(3, kappa, ell=64)
        assert params.index_sets.dtype == dtype
        # wide or signed sets are checked, then narrowed to the same positions
        for wide in (np.int64, np.uint32):
            again = LocalPrgParams(kappa, params.index_sets.astype(wide), params.table)
            assert again.index_sets.dtype == dtype
            assert np.array_equal(again.index_sets, params.index_sets)
        position = np.dtype(dtype).itemsize
        assert check_prg_draw(kappa, 64) == 64 * (kappa * 8 + 5 * position) + (128 << 10)

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


def predicate_tables(rng):
    """xor-and at L=3..5, three random tables (one with table[0]=1), all zeros."""
    tables = [xor_and_table(3), xor_and_table(4), xor_and_table(5)]
    for _ in range(3):
        tables.append(rng.integers(0, 2, 32, dtype=np.uint8))
    tables[-1][0], tables[-2][0] = 1, 0
    tables.append(np.zeros(32, dtype=np.uint8))
    return tables


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
        for table in predicate_tables(rng):
            loc = table.size.bit_length() - 1
            params = prg_params_gen(6, 12, ell=20, locality=loc, table=table)
            for m in (0, 1, 63, 64, 65, 130):
                seeds = rng.integers(0, 2, (m, 12), dtype=np.uint8)
                got = prg_expand(params, seeds)
                assert got.dtype == np.uint8 and got.shape == (m, 20)
                for row, seed in zip(got, seeds):
                    assert np.array_equal(row, scalar_bits(params, seed))

    def test_bits_at_agrees_with_expand(self):
        # a seed reading under ell/16 positions is gathered, from ell/16 up
        # expanded and indexed: at ell=50, 3 positions gather and 4 expand
        params = prg_params_gen(5, 12, ell=50)
        rng = np.random.default_rng(12)
        seed = rng.integers(0, 2, 12, dtype=np.uint8)
        for size in (0, 1, 3, 4, 5, 49, 50, 51, 400):
            pos = rng.integers(0, 50, size)
            if size >= 5:
                pos[:5] = [0, 17, 17, 49, 3]  # repeats and both ends
            got = prg_bits_at(params, seed, pos)
            assert got.dtype == np.uint8 and got.shape == (size,)
            assert np.array_equal(got, prg_expand(params, seed)[pos])
            assert np.array_equal(got, gathered_bits(params, seed, pos))
        # a stack of 3 seeds, one position row each: the rule counts the k
        # positions of each seed, not all 3k
        seeds = rng.integers(0, 2, (3, 12), dtype=np.uint8)
        for k in (0, 1, 3, 4, 17, 140):  # k = 0, 1, 3 gather; 4, 17, 140 expand
            pos = rng.integers(0, 50, (3, k))
            got = prg_bits_at(params, seeds, pos)
            assert got.dtype == np.uint8 and got.shape == (3, k)
            for row, s, p in zip(got, seeds, pos):
                assert np.array_equal(row, prg_expand(params, s)[p])
                assert np.array_equal(row, gathered_bits(params, s, p))

    def test_gather_matches_the_table_under_every_kind_of_table(self):
        # fewer than 400/16 positions a seed: the gather path runs the ANF
        rng = np.random.default_rng(13)
        for table in predicate_tables(rng):
            loc = table.size.bit_length() - 1
            params = prg_params_gen(6, 12, ell=400, locality=loc, table=table)
            seed = rng.integers(0, 2, 12, dtype=np.uint8)
            pos = rng.integers(0, 400, 7)
            assert np.array_equal(prg_bits_at(params, seed, pos), gathered_bits(params, seed, pos))
            for m in (0, 1, 63, 64, 65, 130):
                k = 399 // EXPAND_DIVISOR  # 24 positions a seed, 16k < 400
                seeds = rng.integers(0, 2, (m, 12), dtype=np.uint8)
                pos = rng.integers(0, 400, (m, k))
                got = prg_bits_at(params, seeds, pos)
                assert got.dtype == np.uint8 and got.shape == (m, k)
                for row, s, p in zip(got, seeds, pos):
                    assert np.array_equal(row, gathered_bits(params, s, p))

    def test_gathered_cell_peak(self):
        # the widest batch of four seeds that still gathers under 32,768
        # positions: 2,047 a seed (the n=4, kappa=64 trial's 7,012 expand)
        params = prg_params_gen(3, 32)
        k = params.ell // EXPAND_DIVISOR - 1
        rng = np.random.default_rng(14)
        seeds = rng.integers(0, 2, (4, 32), dtype=np.uint8)
        pos = rng.integers(0, params.ell, (4, k))
        prg_bits_at(params, seeds, pos)  # numpy sets up some routines on first use
        tracemalloc.start()
        try:
            prg_bits_at(params, seeds, pos)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * pos.size

    def test_wide_stack_peak_grows_with_its_cells(self):
        # tt_enc's stack at kappa=32: 16,000 seeds reading one position each
        # under 4,096 positions.  Expanding them held 66 MB of output bits
        params = prg_params_gen(3, 16)
        rng = np.random.default_rng(15)
        peaks = []
        for m in (8000, 16000):
            seeds = rng.integers(0, 2, (m, 16), dtype=np.uint8)
            pos = rng.integers(0, params.ell, (m, 1)).astype(np.uint16)
            prg_bits_at(params, seeds, pos)
            tracemalloc.start()
            try:
                prg_bits_at(params, seeds, pos)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 32 bytes a cell, against the 4,096 that one expansion a seed holds
        assert peaks[1] <= 32 * 16000
        assert peaks[1] - peaks[0] <= 32 * 8000

    @pytest.mark.parametrize("k", [1, 4], ids=["gather", "expand"])
    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16, np.uint64])
    def test_out_of_range_positions_refused(self, k, dtype):
        # -1 read as the last output bit and ell raised IndexError
        params = prg_params_gen(0, 8, ell=50)
        seeds = np.zeros((2, 8), dtype=np.uint8)
        bad = [-1, 50] if np.dtype(dtype).kind == "i" else [50, np.iinfo(dtype).max]
        for index in bad:
            pos = np.zeros((2, k), dtype=dtype)
            pos[1, -1] = index
            with pytest.raises(InputShapeError, match="outside stretch range"):
                prg_bits_at(params, seeds, pos)
            with pytest.raises(InputShapeError, match="outside stretch range"):
                prg_bits_at(params, seeds[1], pos[1])
        pos[1, -1] = 49
        assert prg_bits_at(params, seeds, pos).shape == (2, k)

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

    @pytest.mark.parametrize("pos", [[[0.9, 3.0]], [[True, False]]], ids=["float", "bool"])
    def test_non_integer_positions_refused(self, pos):
        # an int64 cast would read 0.9 as position 0 and True as position 1
        params = prg_params_gen(0, 8, ell=4)
        with pytest.raises(InputShapeError, match="PRG indices must be integers"):
            prg_bits_at(params, np.zeros((1, 8), dtype=np.uint8), np.array(pos))

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

    @pytest.mark.parametrize("scheme", [LOCAL_PRG, PRF])
    def test_key_checks_its_bits(self, scheme):
        # packbits read a PRF key's 2 as a 1, so it decrypted what its 0/1
        # twin does; a LOCAL_PRG key with a 2 was refused only at first use
        prg = prg_params_gen(0, 16, ell=8) if scheme == LOCAL_PRG else None
        bits = np.zeros((3, 16), dtype=np.uint8)
        assert EncKey(scheme, bits, prg).kappa == 16
        assert EncKey(scheme, bits[0], prg).kappa == 16
        bits[1, 4] = 2
        for bad in (bits, bits[1], bits[1].astype(float)):
            with pytest.raises(InputShapeError, match="key bits must be 0/1"):
                EncKey(scheme, bad, prg)
        key = EncKey(scheme, [True] * 16, prg)
        assert key.bits.dtype == np.uint8 and key.bits.tolist() == [1] * 16
        for shape in ((), (2, 3, 16), (0,)):
            with pytest.raises(InputShapeError, match="key bits must be"):
                EncKey(scheme, np.zeros(shape, dtype=np.uint8), prg)

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
        for bad in (ell, -1, np.iinfo(np.int64).min):
            with pytest.raises(MalformedCiphertextError):
                enc_decrypt_many(key, np.array([bad]), np.array([0]))
        # a 9-bit PRF key takes 2-byte uint8 nonce rows whose 7 leading bits are 0
        pkey = enc_gen(9, PRF, rng)
        bad_rows = {
            "do not match keys": np.zeros((1, 3), dtype=np.uint8),
            "uint8 rows of 9-bit values": np.array([[2, 0]], dtype=np.uint8),
            "uint8 rows": np.zeros((1, 2), dtype=np.int64),
        }
        for match, rs in bad_rows.items():
            with pytest.raises(MalformedCiphertextError, match=match):
                enc_decrypt_many(pkey, rs, np.array([0]))
        top = np.array([[1, 255]], dtype=np.uint8)  # r = 2^9 - 1, the largest 9-bit nonce
        assert enc_decrypt_many(pkey, top, np.array([0])).shape == (1,)

    @pytest.mark.parametrize("rs", [[0.9], [-0.5], [True]], ids=["0.9", "-0.5", "bool"])
    def test_non_integer_indices_refused(self, rs):
        # an int64 cast would decrypt 0.9 and -0.5 under index 0, and True under 1
        key = enc_gen(16, LOCAL_PRG, np.random.default_rng(0))
        with pytest.raises(MalformedCiphertextError, match="PRG indices must be integers"):
            enc_decrypt_many(key, np.array(rs), np.array([0]))

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
        assert rs.shape == (100, 8) and rs.dtype == np.uint8
        assert max(int.from_bytes(r.tobytes(), "big").bit_length() for r in rs) == 64
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


class TestPrfNonceDraw:
    @given(st.integers(1, 80), st.integers(0, 20), st.integers(0, 2**64), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_one_draw_per_key_reads_as_k_draws(self, kappa, k, seed, buffered):
        one, many, enc = (np.random.default_rng(seed) for _ in range(3))
        if buffered:  # a 32-bit draw leaves the word's high half buffered
            for g in (one, many, enc):
                g.integers(0, 7, dtype=np.uint32)
            assert one.bit_generator.state["has_uint32"] == 1
        wide = one.integers(0, 2, (k, -(-kappa // 4) * 4), dtype=np.uint8)[:, :kappa]
        rows = [many.integers(0, 2, kappa, dtype=np.uint8) for _ in range(k)]
        assert wide.tolist() == [r.tolist() for r in rows]
        assert one.bit_generator.state == many.bit_generator.state
        coins = [g.integers(0, 2, 5, dtype=np.uint8) for g in (one, many)]
        assert np.array_equal(*coins)
        # and the nonce rows are those draws' ints as the bytes HMAC reads
        key = EncKey(PRF, np.ones(kappa, dtype=np.uint8), None)
        rs, _ = enc_encrypt_many(key, np.zeros(k, dtype=np.uint8), enc)
        want = [int("".join(map(str, r)), 2).to_bytes((kappa + 7) // 8, "big") for r in rows]
        assert [r.tobytes() for r in rs] == want

    @pytest.mark.parametrize("chunk", [4, 100, 1000])
    def test_chunks_read_the_stream_as_one_draw(self, monkeypatch, chunk):
        # a 36-bit nonce draws a 36-byte row: a chunk of 4, 100 or 1000 bytes
        # holds 1, 2 or 27 of them, so the draw spans chunks
        keys = np.random.default_rng(5).integers(0, 2, (3, 36), dtype=np.uint8)
        stack = EncKey(PRF, keys, None)
        bits = np.random.default_rng(6).integers(0, 2, (3, 41), dtype=np.uint8)
        whole_rs, whole_ms = enc_encrypt_many(stack, bits, np.random.default_rng(7))
        monkeypatch.setattr(crypto_mod, "NONCE_CHUNK_BYTES", chunk)
        rng = np.random.default_rng(7)
        rs, ms = enc_encrypt_many(stack, bits, rng)
        assert rs.tobytes() == whole_rs.tobytes() and ms.tolist() == whole_ms.tolist()
        ref = np.random.default_rng(7)
        for _ in range(3 * 41):
            ref.integers(0, 2, 36, dtype=np.uint8)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_pads_read_from_any_nonce_layout(self):
        # HMAC reads each nonce row in place: a strided user column of a
        # batch, as honest decryption reads it, is not copied, and a
        # byte-reversed view is copied first; both give a copy's pads
        keys = np.random.default_rng(5).integers(0, 2, (3, 36), dtype=np.uint8)
        bits = np.random.default_rng(6).integers(0, 2, (3, 41), dtype=np.uint8)
        rs, ms = enc_encrypt_many(EncKey(PRF, keys, None), bits, np.random.default_rng(7))
        batch = np.ascontiguousarray(rs.swapaxes(0, 1))  # (k, m, bytes), as tr_enc holds it
        reversed_bytes = np.ascontiguousarray(rs[..., ::-1])[..., ::-1]
        for i, key in enumerate(keys):
            column = EncKey(PRF, key, None)
            pads = [hmac.digest(np.packbits(key).tobytes(), r.tobytes(), "sha256")[0] & 1
                    for r in rs[i]]
            assert (ms[i] ^ bits[i]).tolist() == pads
            strided = batch[:, i]
            assert not strided.flags.c_contiguous and strided.strides[-1] == 1
            for layout in (np.ascontiguousarray(rs[i]), strided, reversed_bytes[i]):
                assert np.array_equal(layout, rs[i])
                assert enc_decrypt_many(column, layout, ms[i]).tolist() == bits[i].tolist()


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
        stack = EncKey(scheme, keys, prg)
        rs, ms = enc_encrypt_many(stack, bits, np.random.default_rng(7))
        assert rs.shape[:2] == ms.shape == (m, k)
        assert enc_decrypt_many(stack, rs, ms).tolist() == bits.tolist()
        one = np.random.default_rng(7)
        for i in range(m):
            key = EncKey(scheme, keys[i], prg)
            r1, m1 = enc_encrypt_many(key, bits[i], one)
            assert rs[i].tolist() == r1.tolist()
            assert ms[i].tolist() == m1.tolist()
            assert enc_decrypt_many(key, rs[i], ms[i]).tolist() == bits[i].tolist()

    @pytest.mark.parametrize("ell", [32768, 1000, 2])
    @pytest.mark.parametrize("chunk", [7, 1000, 1 << 16])
    def test_stack_indices_are_one_draw_per_key(self, monkeypatch, ell, chunk):
        # the stack's indices are drawn in one chunked pass; numpy's own
        # per-key draws give the same indices and leave the generator in
        # step, a buffered 32-bit half included, under every bit generator
        monkeypatch.setattr(crypto_mod, "INDEX_CHUNK", chunk)
        prg = prg_params_gen(3, 8, ell=ell)
        for bitgen in (np.random.PCG64, np.random.MT19937, np.random.SFC64, np.random.Philox):
            for m, k in ((1, 1), (3, 5), (4, 2001), (40, 1), (2, 1 << 16)):
                key = EncKey(LOCAL_PRG, stream(m, "stack-keys").integers(0, 2, (m, 8)), prg)
                rng, ref = np.random.Generator(bitgen(k)), np.random.Generator(bitgen(k))
                rs, _ = enc_encrypt_many(key, np.zeros((m, k), dtype=np.uint8), rng)
                want = [ref.integers(0, ell, k) for _ in range(m)]
                assert rs.dtype == np.min_scalar_type(ell - 1)
                assert np.array_equal(rs, want), (bitgen.__name__, m, k)
                assert np.array_equal(rng.integers(0, 9, 3), ref.integers(0, 9, 3))
                assert rng.integers(1 << 62) == ref.integers(1 << 62)

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
        rs, ms = enc_encrypt_many(stack, np.zeros((3, 4)), rng)
        with pytest.raises(MalformedCiphertextError, match="do not match keys"):
            enc_decrypt_many(stack, rs[0], ms[0])

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

    def test_circuits_match_prg_bits_under_every_kind_of_table(self):
        rows = all_rows(6)
        for prg in direct_prgs():
            for r in range(prg.ell):
                bits = prg_bits_at(prg, rows, np.full((len(rows), 1), r))[:, 0]
                for masked in (0, 1):
                    for mode in (FOLDED, LITERAL):
                        circ = enc_dec_circuit(r, masked, prg, mode)
                        assert np.array_equal(eval_on_rows(circ, rows), bits ^ masked)

    def test_depth_bounds(self):
        params = self._params()
        for masked in (0, 1):
            assert circuit_metrics(enc_dec_circuit(2, masked, params, LITERAL)).depth == 4
            assert circuit_metrics(enc_dec_circuit(2, masked, params, FOLDED)).depth == 2

    def test_folded_stays_small_at_full_stretch(self):
        params = prg_params_gen(13, 16)
        assert params.ell == 4096
        m = circuit_metrics(enc_dec_circuit(4095, 1, params, FOLDED))
        assert m.depth <= 2
        assert m.size <= 40

    def test_build_peak_within_the_count(self):
        params = prg_params_gen(1, 16)  # stretch 4096: 77,859 gates literal
        for mode in (LITERAL, FOLDED):
            tracemalloc.start()
            try:
                circ = enc_dec_circuit(4095, 1, params, mode)
                _now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            gates = dec_circuit_gates(params, mode, 16, 1)
            assert len(circ.gates) <= gates and peak <= gates * GATE_BYTES

    def test_netlist_past_the_memory_limit_refused_before_building(self, monkeypatch):
        # 600,000 PRG positions: 11.4M literal gates
        params = LocalPrgParams(10, np.zeros((600_000, 5), dtype=np.uint8), xor_and_table())
        assert circuit_metrics(enc_dec_circuit(0, 0, params, FOLDED)).depth == 2

        def no_build(*args):
            raise AssertionError("built a netlist")

        monkeypatch.setattr(crypto_mod, "CircuitBuilder", no_build)
        with pytest.raises(InputShapeError, match="of 11400025 gates would hold about 2.4 GiB"):
            enc_dec_circuit(0, 0, params, LITERAL)

    def test_mode_and_index_validation(self):
        # each input is checked as given: 0.9 is not read as 0, 2.4 not as
        # index 2, True not as index 1, -1 not as the last index
        params = self._params()
        with pytest.raises(InputShapeError, match="unknown circuit mode 'nope'"):
            enc_dec_circuit(0, 0, params, mode="nope")
        for masked in (2, 0.9, -1):
            with pytest.raises(InputShapeError, match="masked bit must be 0/1"):
                enc_dec_circuit(0, masked, params)
        for r in (6, -1, 2.4, True, np.uint32(6), 1 << 70):
            with pytest.raises(MalformedCiphertextError):
                enc_dec_circuit(r, 0, params)
        want = circuit_to_json(enc_dec_circuit(5, 1, params, FOLDED))
        for r, masked in ((np.int64(5), True), (np.uint8(5), np.uint8(1)), (5, 1.0)):
            assert circuit_to_json(enc_dec_circuit(r, masked, params, FOLDED)) == want


class TestCollisionBound:
    def test_exact_values(self):
        assert collision_bound(262144, 50) == 0.0095367431640625
        assert collision_bound(4, 2) == 1.0
