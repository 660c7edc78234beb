import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ttpa.fpcode as fpcode_mod
from ttpa.errors import MAX_ALLOC_BYTES, FileFormatError, InputShapeError, canonical_json, read_json
from ttpa.fpcode import (
    COPY_ONE,
    MAJORITY,
    MINORITY,
    RANDOM_FEASIBLE,
    STRATEGIES,
    Codebook,
    accusation_threshold,
    adversary_view_json,
    bias_cutoff,
    code_length,
    codebook_from_json,
    codebook_to_json,
    fp_adversary,
    fp_feasible,
    fp_gen,
    fp_scores,
    fp_trace,
    run_code_experiment,
)
from ttpa.seeds import stream


def tiny_codebook() -> Codebook:
    # n=2, eps_fp=0.5 and a=0.3 give ell = ceil(1.2 ln 4) = 2
    return Codebook(
        eps_fp=0.5,
        a=0.3,
        biases=np.array([0.5, 0.2]),
        words=np.array([[1, 0], [0, 1]], dtype=np.uint8),
    )


coalition_matrices = st.integers(1, 5).flatmap(
    lambda c: st.lists(
        st.lists(st.integers(0, 1), min_size=8, max_size=8),
        min_size=c,
        max_size=c,
    ).map(lambda rows: np.array(rows, dtype=np.uint8))
)


class TestParameters:
    def test_frozen_lengths(self):
        assert code_length(10, 0.05) == 52984
        assert code_length(2, 0.1) == 1199
        assert code_length(4, 0.05) == 7012

    def test_frozen_threshold_and_cutoff(self):
        assert accusation_threshold(10, 0.05) == 1059.6634733096073
        assert bias_cutoff(10) == 1.0 / 3000.0

    def test_length_grows_with_users_and_confidence(self):
        assert code_length(4, 0.05) > code_length(2, 0.05)
        assert code_length(2, 0.01) > code_length(2, 0.1)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InputShapeError):
            fp_gen(1, 0.05, rng)
        with pytest.raises(InputShapeError):
            fp_gen(2, 0.0, rng)
        with pytest.raises(InputShapeError):
            fp_gen(2, 1.0, rng)
        with pytest.raises(InputShapeError):
            fp_gen(2, 0.05, rng, a=0.0)

    @pytest.mark.parametrize("n,eps_fp,a,why", [
        (2, 0.05, math.inf, "positive and finite"),
        (2, 0.05, math.nan, "positive and finite"),
        # a finite a whose length a * n^2 * ln(n / eps_fp) overflows
        (2, 0.05, 1e308, "not finite"),
        # n / eps_fp overflows, so ln of it is infinite, and so is the threshold
        (10, 1e-320, 100.0, "not finite"),
        (10, 1e-320, 1e-300, "not finite"),
        # an int n too large for a float
        (10**400, 0.05, 100.0, "not finite"),
    ])
    def test_non_finite_length_refused_before_any_draw(self, n, eps_fp, a, why):
        with pytest.raises(InputShapeError, match=why):
            code_length(n, eps_fp, a)
        rng = stream(5, "fp-inf")
        state = rng.bit_generator.state
        with pytest.raises(InputShapeError, match=why):
            fp_gen(n, eps_fp, rng, a=a)
        assert rng.bit_generator.state == state


class TestGen:
    def test_shapes_and_fields(self):
        cb = fp_gen(3, 0.2, stream(0, "fp-shape"), a=1.0)
        assert cb.n == 3 and cb.a == 1.0 and cb.eps_fp == 0.2
        assert cb.ell == code_length(3, 0.2, 1.0)
        assert cb.biases.shape == (cb.ell,)
        assert cb.words.shape == (3, cb.ell)
        assert cb.cutoff == bias_cutoff(3)
        assert cb.threshold == accusation_threshold(3, 0.2)

    def test_bias_distribution(self):
        # one big draw: range, symmetry, and one CDF point of the
        # truncated arcsine law F(p) = (asin sqrt p - asin sqrt t) / (pi/2 - 2 asin sqrt t)
        cb = fp_gen(10, 0.05, stream(0, "test-dist"))
        t = cb.cutoff
        assert cb.biases.min() >= t and cb.biases.max() <= 1.0 - t
        assert abs(float(cb.biases.mean()) - 0.5) < 0.02
        xt = math.asin(math.sqrt(t))
        q = math.sin(math.pi / 8.0) ** 2
        expect = (math.pi / 8.0 - xt) / (math.pi / 2.0 - 2.0 * xt)
        assert abs(float((cb.biases <= q).mean()) - expect) < 0.01

    def test_column_means_track_biases(self):
        cb = fp_gen(50, 0.5, stream(1, "test-conc"), a=0.001)
        diff = np.abs(cb.words.mean(axis=0) - cb.biases)
        assert float(diff.max()) < 0.35
        assert float(diff.mean()) < 0.2

    def test_deterministic_in_rng(self):
        a = fp_gen(4, 0.3, stream(5, "fp-det"), a=1.0)
        b = fp_gen(4, 0.3, stream(5, "fp-det"), a=1.0)
        assert np.array_equal(a.biases, b.biases)
        assert np.array_equal(a.words, b.words)

    @pytest.mark.parametrize(
        "n,eps_fp,a", [(2, 0.05, 100.0), (3, 0.2, 2.0), (5, 0.1, 20.0), (10, 0.05, 100.0)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_draws_equal_one_matrix_draw(self, n, eps_fp, a, seed):
        # the words are drawn a user row at a time; one (n, ell) draw from
        # the same stream gives the same words and leaves the rng in step
        rng, ref = stream(seed, "fp-rows"), stream(seed, "fp-rows")
        cb = fp_gen(n, eps_fp, rng, a=a)
        t = bias_cutoff(n)
        xt = math.asin(math.sqrt(t))
        biases = np.clip(np.sin(ref.uniform(xt, math.pi / 2.0 - xt, cb.ell)) ** 2, t, 1.0 - t)
        words = (ref.random((n, cb.ell)) < biases).astype(np.uint8)
        assert cb.words.dtype == np.uint8
        assert np.array_equal(cb.biases, biases)
        assert np.array_equal(cb.words, words)
        assert rng.integers(1 << 62) == ref.integers(1 << 62)

    def test_codebook_past_the_memory_limit_refused_before_any_draw(self):
        # n + 32 bytes a column: the defaults admit n=129, not 130.  n=100,000
        # and a=1e10 once died in numpy's "Unable to allocate 106. TiB"; at
        # n=10^12 and a=1e281 the bytes are past float range
        assert code_length(129, 0.05) * (129 + 32) <= MAX_ALLOC_BYTES
        for n, a in ((130, 100.0), (100_000, 100.0), (3, 1e10), (10**12, 1e281)):
            rng = stream(7, "fp-huge")
            with pytest.raises(InputShapeError, match=f"for n={n} users would hold about"):
                fp_gen(n, 0.05, rng, a=a)
            assert rng.bit_generator.state == stream(7, "fp-huge").bit_generator.state

    @pytest.mark.parametrize("n,a", [(2, 1000.0), (8, 20.0), (32, 2.0), (64, 1.0)])
    def test_gen_peak_within_the_estimate(self, n, a):
        fp_gen(n, 0.05, stream(8, "fp-peak"), a=a)  # numpy sets up some routines on first use
        tracemalloc.start()
        try:
            cb = fp_gen(n, 0.05, stream(9, "fp-peak"), a=a)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= cb.ell * (n + 32)


class TestScores:
    def test_hand_computed_scores(self):
        cb = tiny_codebook()
        # col 0 (p=.5): hit +1, miss -1; col 1 (p=.2): hit +2, miss -0.5
        assert np.array_equal(fp_scores(cb, np.array([1, 1])), np.array([0.5, 1.0]))
        assert np.array_equal(fp_scores(cb, np.array([1, 0])), np.array([1.0, -1.0]))
        assert np.array_equal(fp_scores(cb, np.array([0, 0])), np.array([0.0, 0.0]))

    def test_trace_threshold_is_strict(self, monkeypatch):
        # user 1 scores 1.0: accused over a threshold of 0.75, not at 1.0 or 1.5
        for threshold, accused in ((0.75, 1), (1.0, None), (1.5, None)):
            monkeypatch.setattr(fpcode_mod, "accusation_threshold", lambda n, e, z=threshold: z)
            cb = tiny_codebook()
            assert cb.threshold == threshold
            assert fp_trace(cb, np.array([1, 1])) == accused

    def test_word_validation(self):
        cb = tiny_codebook()
        with pytest.raises(InputShapeError):
            fp_scores(cb, np.array([1, 1, 1]))
        with pytest.raises(InputShapeError):
            fp_scores(cb, np.array([1, 2]))

    @pytest.mark.parametrize("bad", [256, 0.9])
    def test_non_bits_refused_before_the_cast(self, bad):
        # a uint8 cast would read 256 and 0.9 as 0
        cb = tiny_codebook()
        with pytest.raises(InputShapeError, match="word entries must be bits"):
            fp_scores(cb, np.array([bad, 1]))
        with pytest.raises(InputShapeError, match="word entries must be bits"):
            fp_feasible(cb.words, np.array([bad, 1]))
        ws = cb.words.astype(np.float64)
        ws[0, 1] = bad
        for use in (
            lambda: fp_feasible(ws, np.array([1, 1])),
            lambda: fp_adversary(ws, MAJORITY, stream(0, "x")),
        ):
            with pytest.raises(InputShapeError, match="coalition words must be bits"):
                use()

    @staticmethod
    def fsum_scores(cb, word):
        """Scores and their scale, summed exactly with math.fsum, column by column."""
        p = cb.biases
        hit, miss = np.sqrt((1.0 - p) / p), -np.sqrt(p / (1.0 - p))
        cols = np.flatnonzero(word)
        terms = [np.where(cb.words[i, cols] == 1, hit[cols], miss[cols]) for i in range(cb.n)]
        return (
            np.array([math.fsum(t) for t in terms]),
            np.array([math.fsum(np.abs(t)) for t in terms]),
        )

    @pytest.mark.parametrize("kind", ["zeros", "ones", "random", "member"])
    @pytest.mark.parametrize("n", [2, 4, 10])
    def test_scores_match_an_exact_sum(self, kind, n):
        cb = fp_gen(n, 0.05, stream(n, "fp-fsum"))
        word = {
            "zeros": np.zeros(cb.ell, dtype=np.uint8),
            "ones": np.ones(cb.ell, dtype=np.uint8),
            "random": stream(n, "fp-fsum", "w").integers(0, 2, cb.ell, dtype=np.uint8),
            "member": cb.words[n - 1],
        }[kind]
        ref, scale = self.fsum_scores(cb, word)
        got = fp_scores(cb, word)
        assert got.shape == (n,) and got.dtype == np.float64
        # relative to the sum of |terms|, which bounds |score| from above
        assert (np.abs(got - ref) <= 1e-9 * scale).all()
        if kind == "zeros":
            assert np.array_equal(got, np.zeros(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 10])
    def test_verdicts_match_the_full_matrix_formula(self, n):
        # the full (n, ell) float64 form the scores used to be computed by
        def full_matrix_trace(cb, word):
            p = cb.biases
            hit, miss = np.sqrt((1.0 - p) / p), -np.sqrt(p / (1.0 - p))
            scores = (cb.words * (hit - miss) + miss) @ word.astype(np.float64)
            top = int(np.argmax(scores))
            return top if scores[top] > cb.threshold else None

        for strategy in STRATEGIES:
            for seed in range(20):
                rng = stream(seed, "fp-verdicts", n, strategy)
                cb = fp_gen(n, 0.05, rng)
                word = fp_adversary(cb.words[: n - 1], strategy, rng)
                assert fp_trace(cb, word) == full_matrix_trace(cb, word), (strategy, seed)

    @settings(derandomize=True)
    @given(
        st.integers(2, 12),
        st.sampled_from((0.05, 0.2)),
        st.sampled_from((1.0, 20.0, 100.0)),
        st.sampled_from(("uniform", "zeros", "ones", "majority")),
        st.data(),
    )
    def test_scores_keep_the_boolean_compress_bytes(self, n, eps_fp, a, kind, data):
        # the boolean-mask form the scores were computed by: BLAS must sum
        # the same float64 copy of the same (n, s) block in the same order
        def compress_scores(cb, w):
            ones = w.view(bool)
            p = cb.biases[ones]
            hit, miss = np.sqrt((1.0 - p) / p), -np.sqrt(p / (1.0 - p))
            return np.compress(ones, cb.words, axis=1) @ (hit - miss) + miss.sum()

        rng = stream(data.draw(st.integers(0, 2**32 - 1), label="seed"), "fp-compress")
        cb = fp_gen(n, eps_fp, rng, a=a)
        if kind == "majority":
            coalition = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
            word = fp_adversary(cb.words[coalition], MAJORITY, rng)
        elif kind == "uniform":
            word = rng.integers(0, 2, cb.ell, dtype=np.uint8)
        else:
            word = np.full(cb.ell, kind == "ones", dtype=np.uint8)
        assert fp_scores(cb, word).tobytes() == compress_scores(cb, word).tobytes()

    def test_member_word_traces_to_owner(self):
        cb = fp_gen(2, 0.1, stream(2, "fp-owner"))
        assert cb.ell == 1199
        assert fp_trace(cb, cb.words[0]) == 0
        assert fp_trace(cb, cb.words[1]) == 1

    def test_fresh_word_scores_stay_below_threshold(self):
        cb = fp_gen(10, 0.05, stream(0, "test-dist"))
        rng = stream(0, "test-fresh")
        fresh = (rng.random(cb.ell) < cb.biases).astype(np.uint8)
        assert float(fp_scores(cb, fresh).max()) < cb.threshold
        assert fp_trace(cb, fresh) is None


class TestFeasibility:
    def test_hand_examples(self):
        ws = np.array([[0, 1], [0, 0]], dtype=np.uint8)
        assert fp_feasible(ws, np.array([0, 0]))
        assert fp_feasible(ws, np.array([0, 1]))
        assert not fp_feasible(ws, np.array([1, 0]))
        assert not fp_feasible(np.array([[1, 1], [1, 0]], dtype=np.uint8), np.array([0, 0]))

    def test_singleton_coalition(self):
        row = np.array([[1, 0, 1]], dtype=np.uint8)
        assert fp_feasible(row, np.array([1, 0, 1]))
        assert not fp_feasible(row, np.array([1, 1, 1]))

    def test_flipping_critical_breaks_feasibility(self):
        ws = np.array([[0, 1], [0, 0]], dtype=np.uint8)
        w = ws[0].copy()
        w[0] ^= 1
        assert not fp_feasible(ws, w)
        w = ws[0].copy()
        w[1] ^= 1
        assert fp_feasible(ws, w)

    @given(coalition_matrices)
    def test_members_are_feasible_and_critical_monotone(self, ws):
        assert fp_feasible(ws, ws[0])
        # a larger coalition has fewer critical columns, so a word
        # feasible for a prefix of it stays feasible for all of it
        for k in range(1, ws.shape[0] + 1):
            majority = (2 * ws[:k].sum(axis=0) >= k).astype(np.uint8)
            assert fp_feasible(ws[:k], majority)
            assert fp_feasible(ws, majority)

    def test_validation(self):
        with pytest.raises(InputShapeError):
            fp_feasible(np.zeros(3, dtype=np.uint8), np.zeros(3, dtype=np.uint8))


class TestAdversaries:
    def test_majority_hand_vote(self):
        ws = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=np.uint8)
        assert fp_adversary(ws, MAJORITY, stream(0, "x")).tolist() == [1, 0, 0]

    def test_majority_ties_go_to_one(self):
        ws = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        assert fp_adversary(ws, MAJORITY, stream(0, "x")).tolist() == [1, 1]

    def test_minority_hand_vote(self):
        ws = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=np.uint8)
        assert fp_adversary(ws, MINORITY, stream(0, "x")).tolist() == [0, 1, 0]

    def test_copy_one_returns_a_member_row_verbatim(self):
        rng = stream(3, "copy")
        ws = rng.integers(0, 2, (4, 30), dtype=np.uint8)
        word = fp_adversary(ws, COPY_ONE, rng)
        assert any(np.array_equal(word, row) for row in ws)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @given(ws=coalition_matrices, seed=st.integers(0, 2**32))
    @settings(max_examples=30)
    def test_all_strategies_are_feasible(self, strategy, ws, seed):
        word = fp_adversary(ws, strategy, np.random.default_rng(seed))
        assert fp_feasible(ws, word)

    def test_unknown_strategy(self):
        with pytest.raises(InputShapeError):
            fp_adversary(np.zeros((1, 2), dtype=np.uint8), "SPLICE", stream(0, "x"))

    @pytest.mark.parametrize("shape", [(0, 4), (4,)])
    def test_coalition_must_be_a_nonempty_matrix(self, shape):
        with pytest.raises(InputShapeError, match="nonempty"):
            fp_adversary(np.zeros(shape, dtype=np.uint8), MAJORITY, stream(0, "x"))


class TestExperiment:
    def test_copy_one_bench(self):
        r = run_code_experiment(10, 0.05, COPY_ONE, 100, 0)
        assert r["ell"] == 52984
        assert r["coalition_size"] == 9
        assert r["coalition_accused_rate"] >= 0.95
        assert r["innocent_accused_rate"] == 0.0
        assert r["infeasible_rate"] == 0.0

    def test_majority_bench(self):
        r = run_code_experiment(10, 0.05, MAJORITY, 100, 0)
        assert r["coalition_accused_rate"] >= 0.95
        assert r["innocent_accused_rate"] == 0.0

    def test_rates_partition_trials(self):
        r = run_code_experiment(3, 0.2, RANDOM_FEASIBLE, 20, 7, a=1.0)
        total = (
            r["coalition_accused_rate"]
            + r["innocent_accused_rate"]
            + r["none_rate"]
        )
        assert abs(total - 1.0) < 1e-12

    def test_infeasible_words_are_counted(self, monkeypatch):
        # user 0's word flipped leaves every column the coalition agrees on
        monkeypatch.setattr(fpcode_mod, "fp_adversary", lambda ws, strategy, rng: 1 - ws[0])
        r = run_code_experiment(3, 0.2, MAJORITY, 5, 11, a=1.0)
        assert r["infeasible_rate"] == 1.0

    def test_innocent_accusations_are_counted(self, monkeypatch):
        # the coalition is users 0 and 1, so user 2 is innocent
        monkeypatch.setattr(fpcode_mod, "fp_trace", lambda cb, word: 2)
        r = run_code_experiment(3, 0.2, MAJORITY, 5, 11, a=1.0)
        rates = (r["innocent_accused_rate"], r["coalition_accused_rate"], r["none_rate"])
        assert rates == (1.0, 0.0, 0.0)

    def test_deterministic_in_master_seed(self):
        a = run_code_experiment(3, 0.2, MINORITY, 10, 9, a=1.0)
        b = run_code_experiment(3, 0.2, MINORITY, 10, 9, a=1.0)
        assert a == b

    def test_validation(self):
        with pytest.raises(InputShapeError):
            run_code_experiment(3, 0.2, "SPLICE", 10, 0)
        with pytest.raises(InputShapeError):
            run_code_experiment(3, 0.2, MAJORITY, 0, 0)
        with pytest.raises(InputShapeError):
            run_code_experiment(3, 0.2, MAJORITY, 10, 0, coalition_size=4)


def file_obj(cb: Codebook) -> dict:
    """The codebook's file object, as canonical JSON text reads back."""
    return json.loads(canonical_json(codebook_to_json(cb)))


class TestSerialization:
    def test_roundtrip(self):
        # the loader compares ell, cutoff and threshold with the values n,
        # eps_fp and a give, so each must come back bit for bit
        for n, eps_fp, a in ((3, 0.2, 1.0), (2, 0.2, 2), (7, 0.01, 20.0), (10, 0.05, 1.0),
                             (16, 0.05, 0.3)):
            cb = fp_gen(n, eps_fp, stream(4, "fp-json"), a=a)
            back = codebook_from_json(file_obj(cb))
            assert back.n == cb.n and back.ell == cb.ell
            assert back.eps_fp == cb.eps_fp and back.a == cb.a
            assert back.cutoff == cb.cutoff and back.threshold == cb.threshold
            assert np.array_equal(back.biases, cb.biases)
            assert np.array_equal(back.words, cb.words)

    def test_adversary_view_excludes_secrets(self):
        cb = fp_gen(4, 0.2, stream(4, "fp-view"), a=1.0)
        view = json.loads(canonical_json(adversary_view_json(cb, [2, 0])))
        assert set(view) == {"n", "ell", "coalition", "words"}
        assert view["coalition"] == [0, 2]
        assert set(view["words"]) == {"0", "2"}
        got = np.unpackbits(
            np.frombuffer(bytes.fromhex(view["words"]["2"]), dtype=np.uint8)
        )[: cb.ell]
        assert np.array_equal(got, cb.words[2])
        with pytest.raises(InputShapeError):
            adversary_view_json(cb, [4])
        # no pieces would write the words as [], not {}
        with pytest.raises(InputShapeError, match="coalition is empty"):
            adversary_view_json(cb, [])

    def test_malformed_json_rejected(self, tmp_path):
        (tmp_path / "cb.json").write_text("{")
        with pytest.raises(FileFormatError):
            read_json(str(tmp_path / "cb.json"))
        with pytest.raises(FileFormatError):
            codebook_from_json({"n": 2})
        good = file_obj(fp_gen(2, 0.2, stream(4, "fp-bad"), a=1.0))
        bad = dict(good, biases=good["biases"][:-1])
        with pytest.raises(FileFormatError):
            codebook_from_json(bad)

    @pytest.mark.parametrize("bias", [0.0, 1.0, -0.5, float("nan")])
    def test_bias_outside_open_interval_refused(self, bias):
        # the scores divide by p and by 1 - p
        good = file_obj(fp_gen(2, 0.2, stream(4, "fp-bias"), a=1.0))
        good["biases"][3] = bias
        with pytest.raises(FileFormatError, match="biases"):
            codebook_from_json(good)

    def test_codebook_checks_its_shapes(self):
        cb = fp_gen(3, 0.2, stream(4, "fp-shape"), a=1.0)
        with pytest.raises(InputShapeError):
            Codebook(cb.eps_fp, cb.a, cb.biases[:-1], cb.words)
        with pytest.raises(InputShapeError):
            Codebook(cb.eps_fp, cb.a, cb.biases, cb.words[:2])

    def test_codebook_derives_what_it_does_not_draw(self):
        cb = fp_gen(4, 0.2, stream(4, "fp-derived"), a=2.0)
        assert (cb.n, cb.ell) == (4, 96) == (4, code_length(4, 0.2, 2.0))
        # given a 1e-9 threshold, this codebook accused user 0 of an all-ones
        # word; none can be given, and the derived one accuses no one of it
        assert list(inspect.signature(Codebook).parameters) == ["eps_fp", "a", "biases", "words"]
        for name, value in (("n", 4), ("ell", 96), ("cutoff", 0.25), ("threshold", 1e-9)):
            with pytest.raises(TypeError):
                Codebook(cb.eps_fp, cb.a, cb.biases, cb.words, **{name: value})
        assert cb.threshold == accusation_threshold(4, 0.2)
        assert fp_trace(cb, np.ones(96, dtype=np.uint8)) is None
        # words 7 columns wide, where code_length gives 96
        with pytest.raises(InputShapeError, match="code_length gives ell=96 at n=4"):
            Codebook(cb.eps_fp, cb.a, cb.biases[:7], cb.words[:, :7])
        # biases inside (0, 1) but outside [cutoff, 1 - cutoff]
        t = bias_cutoff(4)
        for bias in (t / 2, 1.0 - t / 2, np.nextafter(t, 0.0)):
            biases = cb.biases.copy()
            biases[5] = bias
            with pytest.raises(InputShapeError, match="biases must lie in"):
                Codebook(cb.eps_fp, cb.a, biases, cb.words)
        edge = cb.biases.copy()
        edge[:2] = t, 1.0 - t
        assert np.array_equal(Codebook(cb.eps_fp, cb.a, edge, cb.words).biases, edge)

    @pytest.mark.parametrize("field,value,why", [
        ("n", 1, "n >= 2"),
        ("eps_fp", 5.0, "eps_fp"),
        ("eps_fp", 0.0, "eps_fp"),
        ("a", -1.0, "length constant"),
        ("a", math.inf, "length constant"),
        ("a", 1e308, "not finite"),
        ("eps_fp", 1e-320, "not finite"),
        ("threshold", -100.0, "threshold"),
        ("threshold", 0.0, "threshold"),
        # each of these loaded, and a threshold of 0.001 accused users of their own words
        ("threshold", 0.001, "threshold 0.001 disagrees"),
        ("cutoff", 0.25, "cutoff 0.25 disagrees"),
        ("ell", 5, "ell 5 disagrees"),
    ])
    def test_codebook_checks_its_scalars(self, field, value, why):
        # fp_gen never draws these, but a codebook file used to carry them
        # into fp_trace, which then accused user 0 of an all-zero word
        obj = file_obj(fp_gen(2, 0.2, stream(4, "fp-scalar"), a=1.0))
        obj[field] = value
        if field == "n":
            obj["words"] = obj["words"][:1]
        with pytest.raises(FileFormatError, match=why):
            codebook_from_json(obj)

    def test_codebook_file_n_is_its_word_count(self):
        # ell, cutoff and threshold all agree with n=3: only the count disagrees
        obj = file_obj(fp_gen(3, 0.2, stream(4, "fp-count"), a=1.0))
        obj["words"] = obj["words"][:2]
        with pytest.raises(FileFormatError, match="words 2 disagrees with n=3"):
            codebook_from_json(obj)

    @pytest.mark.parametrize("suffix,why", [("ff", "bytes"), (None, "padding")])
    def test_word_rows_must_fit_exactly(self, suffix, why):
        # ell=10: two bytes per word, the last six bits padding
        obj = file_obj(fp_gen(2, 0.2, stream(4, "fp-hex"), a=1.0))
        assert obj["ell"] == 10
        w = obj["words"][1]
        obj["words"][1] = w + suffix if suffix else w[:2] + f"{int(w[2:], 16) | 1:02x}"
        with pytest.raises(FileFormatError, match=f"word 1 .*{why}"):
            codebook_from_json(obj)

    def test_dumps_is_canonical(self):
        cb = fp_gen(2, 0.2, stream(4, "fp-canon"), a=1.0)
        text = canonical_json(codebook_to_json(cb))
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
