import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttpa.seeds import derive_seed, integers_below, stream


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "a", 1) == derive_seed(0, "a", 1)

    def test_sensitive_to_master_and_labels(self):
        base = derive_seed(0, "a", 1)
        assert derive_seed(1, "a", 1) != base
        assert derive_seed(0, "b", 1) != base
        assert derive_seed(0, "a", 2) != base
        assert derive_seed(0, "a") != base

    def test_label_order_matters(self):
        assert derive_seed(0, "x", "y") != derive_seed(0, "y", "x")

    def test_concatenation_does_not_collide(self):
        # the separator keeps ("ab",) distinct from ("a", "b")
        assert derive_seed(0, "ab") != derive_seed(0, "a", "b")

    def test_fits_128_bits(self):
        for s in (0, 1, 2**63):
            assert 0 <= derive_seed(s, "q") < (1 << 128)


class TestStream:
    def test_same_path_same_draws(self):
        a = stream(7, "trial", 3).integers(0, 1 << 30, 8)
        b = stream(7, "trial", 3).integers(0, 1 << 30, 8)
        assert a.tolist() == b.tolist()

    def test_different_paths_diverge(self):
        a = stream(7, "trial", 3).integers(0, 1 << 30, 8)
        b = stream(7, "trial", 4).integers(0, 1 << 30, 8)
        assert a.tolist() != b.tolist()

    def test_streams_do_not_shift_each_other(self):
        # consuming one stream leaves a sibling stream untouched
        first = stream(7, "a")
        first.integers(0, 1 << 30, 1000)
        sibling = stream(7, "b").integers(0, 1 << 30, 4)
        fresh = stream(7, "b").integers(0, 1 << 30, 4)
        assert sibling.tolist() == fresh.tolist()


# 2**31 + 1 and 3 * 2**30 reject about half and a quarter of the halves;
# the others reject almost never (2**32 % high is tiny) or never (powers of
# two); at their narrowest, 2**8 rows are uint8, 2**8 + 1 and 2**16 rows
# uint16 and 2**16 + 1 rows uint32
HIGHS = st.sampled_from(
    [1, 2, 3, 2**8, 2**8 + 1, 512, 13_824, 2**15, 2**16, 2**16 + 1,
     2**31 - 1, 2**31 + 1, 3 * 2**30, 2**32]
)


class TestIntegersBelow:
    @given(
        st.integers(0, 2**64),
        HIGHS | st.integers(1, 2**33),
        st.integers(0, 2000),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_values_and_later_draws_as_integers(self, seed, high, k, buffered, narrow):
        ref, got = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:  # a 32-bit draw leaves the word's high half buffered
            for g in (ref, got):
                g.integers(0, 7)
            assert got.bit_generator.state["has_uint32"] == 1
        want = ref.integers(0, high, k, dtype=np.int64)
        # an int64 row, or the narrowest unsigned one that holds high - 1, as
        # enc_encrypt_many draws: integers_below shifts words into it at a
        # power-of-two high and takes rng.integers' draw at any other
        out = np.empty(k, dtype=np.min_scalar_type(high - 1) if narrow else np.int64)
        integers_below(got, high, out)
        assert np.array_equal(out, want)
        assert got.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(got.integers(0, 1000, 3), ref.integers(0, 1000, 3))
        assert got.random() == ref.random()
        coins = [g.integers(0, 2, 5, dtype=np.uint8) for g in (got, ref)]
        assert np.array_equal(*coins)

    @given(
        st.integers(0, 2**64),
        st.sampled_from([2, 512, 2**15, 2**32, 3, 1000, 13_824, 2**31 + 1]),
        st.integers(1, 6),
        st.integers(0, 300),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_drawn_row_by_row_as_integers(self, seed, high, m, k, buffered):
        # what enc_encrypt_many draws: an (m, k) batch in the narrowest unsigned
        # dtype, one call per row, at a power-of-two stretch (a shift) or one
        # that rng.integers draws
        ref, got = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:
            for g in (ref, got):
                g.integers(0, 7)
        want = [ref.integers(0, high, k, dtype=np.int64) for _ in range(m)]
        out = np.empty((m, k), dtype=np.min_scalar_type(high - 1))
        for row in out:
            integers_below(got, high, row)
        assert out.tolist() == [w.tolist() for w in want]
        assert got.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("buffered", [False, True])
    def test_rejections_fill_in_order(self, buffered):
        # half the halves are rejected at 2**31 + 1, so the refills run
        high = 2**31 + 1
        ref, got = np.random.default_rng(3), np.random.default_rng(3)
        if buffered:
            for g in (ref, got):
                g.integers(0, 7)
        out = np.empty(1001, dtype=np.int64)
        integers_below(got, high, out)
        assert np.array_equal(out, ref.integers(0, high, 1001, dtype=np.int64))
        assert got.bit_generator.state == ref.bit_generator.state

    def test_other_generators_take_integers(self):
        # MT19937 makes its 32-bit draws natively, not from PCG64 word halves
        ref = np.random.Generator(np.random.MT19937(5))
        got = np.random.Generator(np.random.MT19937(5))
        out = np.empty(99, dtype=np.int64)
        integers_below(got, 3000, out)
        assert np.array_equal(out, ref.integers(0, 3000, 99, dtype=np.int64))
        assert np.array_equal(got.integers(0, 1000, 5), ref.integers(0, 1000, 5))

        class Stub:  # no bit generator at all
            def integers(self, low, high, size, dtype):
                return np.full(size, high - 1, dtype=dtype)

        integers_below(Stub(), 8, out)
        assert out.tolist() == [7] * 99
