import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttpa.errors import FileFormatError, InputShapeError, canonical_json, read_json
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


def tiny_codebook(threshold: float = 0.75) -> Codebook:
    return Codebook(
        n=2,
        ell=2,
        eps_fp=0.5,
        a=1.0,
        cutoff=0.1,
        threshold=threshold,
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


class TestScores:
    def test_hand_computed_scores(self):
        cb = tiny_codebook()
        # col 0 (p=.5): hit +1, miss -1; col 1 (p=.2): hit +2, miss -0.5
        assert np.array_equal(fp_scores(cb, np.array([1, 1])), np.array([0.5, 1.0]))
        assert np.array_equal(fp_scores(cb, np.array([1, 0])), np.array([1.0, -1.0]))
        assert np.array_equal(fp_scores(cb, np.array([0, 0])), np.array([0.0, 0.0]))

    def test_trace_threshold_is_strict(self):
        assert fp_trace(tiny_codebook(threshold=0.75), np.array([1, 1])) == 1
        assert fp_trace(tiny_codebook(threshold=1.0), np.array([1, 1])) is None
        assert fp_trace(tiny_codebook(threshold=1.5), np.array([1, 1])) is None

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


class TestSerialization:
    def test_roundtrip(self):
        cb = fp_gen(3, 0.2, stream(4, "fp-json"), a=1.0)
        back = codebook_from_json(json.loads(canonical_json(codebook_to_json(cb))))
        assert back.n == cb.n and back.ell == cb.ell
        assert back.eps_fp == cb.eps_fp and back.a == cb.a
        assert back.cutoff == cb.cutoff and back.threshold == cb.threshold
        assert np.array_equal(back.biases, cb.biases)
        assert np.array_equal(back.words, cb.words)

    def test_adversary_view_excludes_secrets(self):
        cb = fp_gen(4, 0.2, stream(4, "fp-view"), a=1.0)
        view = adversary_view_json(cb, [2, 0])
        assert set(view) == {"n", "ell", "coalition", "words"}
        assert view["coalition"] == [0, 2]
        assert set(view["words"]) == {"0", "2"}
        got = np.unpackbits(
            np.frombuffer(bytes.fromhex(view["words"]["2"]), dtype=np.uint8)
        )[: cb.ell]
        assert np.array_equal(got, cb.words[2])
        with pytest.raises(InputShapeError):
            adversary_view_json(cb, [4])

    def test_malformed_json_rejected(self, tmp_path):
        (tmp_path / "cb.json").write_text("{")
        with pytest.raises(FileFormatError):
            read_json(str(tmp_path / "cb.json"))
        with pytest.raises(FileFormatError):
            codebook_from_json({"n": 2})
        good = codebook_to_json(fp_gen(2, 0.2, stream(4, "fp-bad"), a=1.0))
        bad = dict(good, biases=good["biases"][:-1])
        with pytest.raises(FileFormatError):
            codebook_from_json(bad)

    @pytest.mark.parametrize("bias", [0.0, 1.0, -0.5, float("nan")])
    def test_bias_outside_open_interval_refused(self, bias):
        # the scores divide by p and by 1 - p
        good = codebook_to_json(fp_gen(2, 0.2, stream(4, "fp-bias"), a=1.0))
        good["biases"][3] = bias
        with pytest.raises(FileFormatError, match="biases"):
            codebook_from_json(good)

    def test_codebook_checks_its_shapes(self):
        cb = fp_gen(3, 0.2, stream(4, "fp-shape"), a=1.0)
        fields = (cb.n, cb.ell, cb.eps_fp, cb.a, cb.cutoff, cb.threshold)
        with pytest.raises(InputShapeError):
            Codebook(*fields, cb.biases[:-1], cb.words)
        with pytest.raises(InputShapeError):
            Codebook(*fields, cb.biases, cb.words[:2])

    @pytest.mark.parametrize("field,value,why", [
        ("n", 1, "n >= 2"),
        ("eps_fp", 5.0, "eps_fp"),
        ("eps_fp", 0.0, "eps_fp"),
        ("a", -1.0, "length constant"),
        ("threshold", -100.0, "threshold"),
        ("threshold", 0.0, "threshold"),
    ])
    def test_codebook_checks_its_scalars(self, field, value, why):
        # fp_gen never draws these, but a codebook file used to carry them
        # into fp_trace, which then accused user 0 of an all-zero word
        obj = codebook_to_json(fp_gen(2, 0.2, stream(4, "fp-scalar"), a=1.0))
        obj[field] = value
        if field == "n":
            obj["words"] = obj["words"][:1]
        with pytest.raises(FileFormatError, match=why):
            codebook_from_json(obj)

    @pytest.mark.parametrize("suffix,why", [("ff", "bytes"), (None, "padding")])
    def test_word_rows_must_fit_exactly(self, suffix, why):
        # ell=10: two bytes per word, the last six bits padding
        obj = codebook_to_json(fp_gen(2, 0.2, stream(4, "fp-hex"), a=1.0))
        assert obj["ell"] == 10
        w = obj["words"][1]
        obj["words"][1] = w + suffix if suffix else w[:2] + f"{int(w[2:], 16) | 1:02x}"
        with pytest.raises(FileFormatError, match=f"word 1 .*{why}"):
            codebook_from_json(obj)

    def test_dumps_is_canonical(self):
        cb = fp_gen(2, 0.2, stream(4, "fp-canon"), a=1.0)
        text = canonical_json(codebook_to_json(cb))
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
