import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttpa.attack import (
    RECORD_BYTES,
    AttackConfig,
    AttackReport,
    EXP_FULL,
    EXP_MINUS,
    ExperimentStats,
    TrialRecord,
    dp_audit,
    elect_i_star,
    pirate_from_sanitizer,
    run_attack,
    wilson_interval,
    worker_count,
)
from ttpa.cli import main
from ttpa.crypto import LOCAL_PRG, PRF, prg_params_gen
from ttpa.errors import InputShapeError, SanitizerFailure, UnsupportedSchemeError
from ttpa.fpcode import code_length, fp_feasible
from ttpa.sanitize import ADVANCED, BASIC, EXACT, LAPLACE, SanitizerConfig
from ttpa.seeds import derive_seed, stream
from ttpa.ttscheme import (
    check_batch,
    honest_pirate,
    linear_scan_report,
    tr_enc,
    tt_gen,
    tt_trace_report,
)

import ttpa.attack as attack_mod
from reference import replay_scan, replay_trial


def small_keyset(n=3, kappa=16, seed=40):
    prg = prg_params_gen(seed, kappa // 2)
    return tt_gen(kappa, n, LOCAL_PRG, stream(seed, "atk-ks"), prg=prg)


def instant_trial(cfg, prg, tag, coalition, t) -> TrialRecord:
    return TrialRecord(1000 + t % 7, bool(t % 2), 1.0 / (t + 3), False)


def trial_peak(cfg, prg) -> int:
    """Largest tracemalloc peak of one warm trial in either experiment."""
    n = cfg.n
    # numpy sets up some routines on first use; that is not the trial's
    attack_mod._run_trial(cfg, prg, EXP_FULL, tuple(range(n)), 0)
    peaks = []
    for tag, coalition in ((EXP_FULL, tuple(range(n))), (EXP_MINUS, tuple(range(1, n)))):
        tracemalloc.start()
        try:
            attack_mod._run_trial(cfg, prg, tag, coalition, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return max(peaks)


def stats_with_counts(label, accused_of_istar, trials, i_star=3, coalition=(0, 1, 2, 3)):
    records = [
        TrialRecord(i_star, True, 0.0, False) for _ in range(accused_of_istar)
    ] + [TrialRecord(None, True, 0.0, False) for _ in range(trials - accused_of_istar)]
    return ExperimentStats(label, coalition, tuple(records))


def synthetic_report(c_full, t_full, c_minus, t_minus, i_star=3):
    cfg = AttackConfig(n=5, trials=t_full)
    return AttackReport(
        cfg,
        stats_with_counts(EXP_FULL, c_full, t_full, i_star),
        stats_with_counts(EXP_MINUS, c_minus, t_minus, i_star),
        i_star,
    )


class TestWilson:
    def test_frozen_values(self):
        cases = {
            (60, 200): (0.24074744682371402, 0.36679068372719265),
            (2, 200): (0.0027466581335444384, 0.0357217617161768),
            (200, 200): (0.9811546736227335, 1.0),
            (9, 25): (0.20247880774458224, 0.5548150225183514),
            (1, 20): (0.008881448800795402, 0.23613119344674205),
        }
        for (c, t), (lo, hi) in cases.items():
            got = wilson_interval(c, t)
            assert got[0] == pytest.approx(lo, abs=1e-12)
            assert got[1] == pytest.approx(hi, abs=1e-12)
        lo0, hi0 = wilson_interval(0, 200)
        assert lo0 == 0.0
        assert hi0 == pytest.approx(0.018845326377266575, abs=1e-12)

    @given(st.integers(1, 500), st.data())
    @settings(max_examples=40)
    def test_interval_brackets_the_estimate(self, trials, data):
        successes = data.draw(st.integers(0, trials))
        lo, hi = wilson_interval(successes, trials)
        p = successes / trials
        assert 0.0 <= lo <= p <= hi <= 1.0

    def test_validation(self):
        with pytest.raises(InputShapeError):
            wilson_interval(1, 0)
        with pytest.raises(InputShapeError):
            wilson_interval(5, 4)


class TestAudit:
    def test_worked_example(self):
        report = synthetic_report(60, 200, 2, 200)
        audit = dp_audit(report, 1.0, 0.01)
        assert audit["i_star"] == 3
        assert audit["p_full"] == 0.3 and audit["p_minus"] == 0.01
        assert audit["conclusive"] and audit["violated"]
        assert audit["margin"] == pytest.approx(0.13364563107008662, abs=1e-12)

    def test_margin_equals_wilson_bound_gap(self):
        report = synthetic_report(60, 200, 2, 200)
        for eps, delta in ((0.5, 0.0), (1.0, 0.01), (2.0, 0.1)):
            audit = dp_audit(report, eps, delta)
            lo1, _ = wilson_interval(60, 200)
            _, hi2 = wilson_interval(2, 200)
            assert audit["margin"] == pytest.approx(
                lo1 - math.exp(eps) * hi2 - delta, abs=1e-12
            )

    def test_equal_rates_not_violated(self):
        report = synthetic_report(50, 100, 50, 100)
        audit = dp_audit(report, 0.0, 0.0)
        assert audit["conclusive"] and not audit["violated"]
        assert audit["margin"] < 0

    def test_few_trials_inconclusive(self):
        report = synthetic_report(5, 5, 0, 5)
        audit = dp_audit(report, 0.1, 0.0)
        assert not audit["conclusive"] and not audit["violated"]
        assert audit["margin"] is not None  # measured, just not trusted

    def test_no_i_star_inconclusive(self):
        cfg = AttackConfig(n=3, trials=30)
        report = AttackReport(cfg, stats_with_counts(EXP_FULL, 0, 30), None, None)
        audit = dp_audit(report, 1.0, 0.01)
        assert audit["i_star"] == -1
        assert audit["trials_minus"] == 0
        assert not audit["conclusive"] and not audit["violated"]
        assert audit["eps_stat"] is None and audit["margin"] is None

    def test_validation(self):
        report = synthetic_report(10, 20, 1, 20)
        with pytest.raises(InputShapeError):
            dp_audit(report, -0.1, 0.0)
        with pytest.raises(InputShapeError):
            dp_audit(report, 0.1, -1e-9)
        for eps, delta in ((math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan), (0.1, math.inf)):
            with pytest.raises(InputShapeError, match="finite and nonnegative"):
                dp_audit(report, eps, delta)
        # the largest epsilon whose e^epsilon is a finite float is audited
        largest = math.log(sys.float_info.max)
        assert math.isfinite(dp_audit(report, largest, 0.0)["margin"])
        with pytest.raises(InputShapeError, match="overflows"):
            dp_audit(report, math.nextafter(largest, math.inf), 0.0)
        # a delta above 1 claims nothing; 1.7e308 made the margin -inf
        for delta in (math.nextafter(1.0, 2.0), 1.7e308):
            with pytest.raises(InputShapeError, match="claims nothing"):
                dp_audit(report, largest, delta)

    def test_largest_budget_gives_finite_margins(self):
        # at the largest epsilon and delta = 1, every margin over this grid
        # is a finite float, so the report stays JSON
        class Counts:
            def __init__(self, count, trials):
                self.count, self.trials = count, trials

            def accusation_count(self, user):
                return self.count

        largest = math.log(sys.float_info.max)
        for c1 in (0, 10, 20):
            for t2 in range(1, 201):
                for c2 in range(t2 + 1):
                    report = AttackReport(None, Counts(c1, 20), Counts(c2, t2), 3)
                    margin = dp_audit(report, largest, 1.0)["margin"]
                    assert math.isfinite(margin), (c1, c2, t2)


class TestConfig:
    def test_defaults(self):
        cfg = AttackConfig()
        assert (cfg.n, cfg.kappa, cfg.eps_fp, cfg.trials) == (10, 64, 0.05, 200)
        assert cfg.sanitizer.kind == "EXACT"

    def test_validation(self):
        with pytest.raises(InputShapeError):
            AttackConfig(n=1)
        with pytest.raises(InputShapeError):
            AttackConfig(trials=0)
        with pytest.raises(InputShapeError, match="even"):
            AttackConfig(n=4, kappa=15)
        with pytest.raises(InputShapeError, match="exceeds"):
            AttackConfig(n=300, kappa=16, a=0.01)  # a small batch, but 300 > 2^8 users
        with pytest.raises(InputShapeError, match="eps_fp"):
            AttackConfig(eps_fp=0.0)
        with pytest.raises(InputShapeError, match="GiB"):
            AttackConfig(n=100)  # a 7.5 GiB tracing trial, refused unallocated
        # with 2-byte PRG indices an n=64 trial (ell_FP = 2,930,531) fits: 1.9 GiB
        assert AttackConfig(n=64).trial_bytes() < 2 << 30
        # 5000 Laplace rounds at n=10 hold about 4 GiB of noise
        noisy = SanitizerConfig(LAPLACE, epsilon=1.0, amplification_rounds=5000)
        with pytest.raises(InputShapeError, match="rounds=5000 would hold about 4.0 GiB"):
            AttackConfig(sanitizer=noisy)

    def test_trials_past_the_memory_limit_refused(self):
        # two experiments of 1 KiB records: 2^20 trials fill the 2 GiB bound
        assert AttackConfig(n=3, kappa=16, trials=1 << 20).trials == 1 << 20
        for trials in ((1 << 20) + 1, 1 << 62, 1 << 63):
            with pytest.raises(InputShapeError, match="records of"):
                AttackConfig(n=3, kappa=16, trials=trials)

    def test_prg_too_large_to_draw_refused(self):
        # kappa=256 holds 128 seed bits: a 4 GiB index-set draw, refused unallocated
        with pytest.raises(InputShapeError, match="PRG"):
            AttackConfig(kappa=256)

    def test_to_dict_shape(self):
        stats = ExperimentStats(EXP_FULL, (0,), (TrialRecord(0, True, 0.0, False),))
        d = AttackReport(AttackConfig(), stats, None, None).to_dict()["params"]
        assert set(d) == {
            "n", "kappa", "eps_fp", "trials", "a", "seed", "sanitizer",
        }
        assert set(d["sanitizer"]) == {
            "kind", "epsilon", "delta", "composition", "amplification_rounds",
        }


class TestSanitizerPirate:
    def test_exact_pirate_votes_majority_ties_up(self):
        ks = small_keyset(n=3)
        rng = stream(41, "vote")
        words = np.array(
            [[1, 1, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1]], dtype=np.uint8
        )  # col sums 2,2,0,3 of 3
        cts = tr_enc(ks, words, rng)
        pirate = pirate_from_sanitizer(
            ks.params, ks.rows, SanitizerConfig(), stream(41, "p")
        )
        assert pirate.answer(cts).tolist() == [1, 1, 0, 1]
        assert pirate.stats["queries"] == 4
        assert pirate.stats["max_abs_err"] == 0.0

    def test_two_member_tie_rounds_to_one(self):
        ks = small_keyset(n=2, seed=42)
        rng = stream(42, "tie")
        words = np.array([[1, 0], [0, 0]], dtype=np.uint8)  # col 0 splits 1/0
        cts = tr_enc(ks, words, rng)
        pirate = pirate_from_sanitizer(
            ks.params, ks.rows, SanitizerConfig(), stream(42, "p")
        )
        assert pirate.answer(cts).tolist() == [1, 0]

    def test_exact_pirate_always_feasible(self):
        ks = small_keyset(n=4, seed=43)
        rng = stream(43, "feas")
        words = rng.integers(0, 2, (4, 40), dtype=np.uint8)
        cts = tr_enc(ks, words, rng)
        pirate = pirate_from_sanitizer(
            ks.params, ks.rows, SanitizerConfig(), stream(43, "p")
        )
        word = pirate.answer(cts)
        assert fp_feasible(words, word)

    def test_subset_coalition_uses_only_its_rows(self):
        ks = small_keyset(n=3, seed=44)
        rng = stream(44, "sub")
        words = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
        cts = tr_enc(ks, words, rng)
        pirate = pirate_from_sanitizer(
            ks.params, ks.rows[:2], SanitizerConfig(), stream(44, "p")
        )
        # coalition {0,1}: column means 1.0 and 0.5 -> word (1, 1)
        assert pirate.answer(cts).tolist() == [1, 1]

    def test_prf_keys_rejected_before_an_oracle_exists(self):
        ks = tt_gen(16, 2, PRF, stream(45, "prf"))
        with pytest.raises(UnsupportedSchemeError):
            pirate_from_sanitizer(ks.params, ks.rows, SanitizerConfig(), stream(45, "p"))

    def test_width_mismatch(self):
        ks = small_keyset(seed=45)
        with pytest.raises(InputShapeError):
            pirate_from_sanitizer(
                ks.params, np.zeros((2, 15), dtype=np.uint8), SanitizerConfig(), stream(45, "p")
            )

    def test_half_everywhere_sanitizer_yields_all_ones(self, monkeypatch):
        monkeypatch.setattr(
            attack_mod, "sanitize_truths", lambda cfg, t, m, rng: np.full_like(t, 0.5)
        )
        ks = small_keyset(n=3, seed=46)
        rng = stream(46, "half")
        words = np.array([[1, 0], [1, 0], [1, 0]], dtype=np.uint8)
        cts = tr_enc(ks, words, rng)
        pirate = pirate_from_sanitizer(
            ks.params, ks.rows, SanitizerConfig(), stream(46, "p")
        )
        word = pirate.answer(cts)
        assert word.tolist() == [1, 1]
        # column 1 is unanimously 0, so the all-ones word is infeasible
        assert not fp_feasible(words, word)

    def test_sanitizer_exception_becomes_failure(self, monkeypatch):
        def boom(cfg, truths, m, rng):
            raise RuntimeError("numerical meltdown")

        monkeypatch.setattr(attack_mod, "sanitize_truths", boom)
        ks = small_keyset(n=2, seed=47)
        rng = stream(47, "boom")
        cts = tr_enc(ks, np.zeros((2, 3), dtype=np.uint8), rng)
        pirate = pirate_from_sanitizer(
            ks.params, ks.rows, SanitizerConfig(), stream(47, "p")
        )
        with pytest.raises(SanitizerFailure):
            pirate.answer(cts)


class TestExperimentStats:
    def test_rates_and_counts(self):
        records = (
            TrialRecord(2, True, 0.1, False),
            TrialRecord(2, True, 0.3, False),
            TrialRecord(0, False, 0.2, False),
            TrialRecord(None, True, None, True),
        )
        s = ExperimentStats("full", (0, 1, 2), records)
        assert s.trials == 4
        assert s.accused_counts() == {2: 2, 0: 1}
        assert s.accusation_count(2) == 2
        assert s.accusation_rate == 0.75
        assert s.none_rate == 0.25
        assert s.feasible_rate == 0.75
        assert s.failed_rate == 0.25

    def test_to_dict(self):
        records = (
            TrialRecord(1, True, 0.25, False),
            TrialRecord(None, True, None, True),
        )
        d = ExperimentStats("minus", (0, 1), records).to_dict()
        assert d["label"] == "minus"
        assert d["coalition"] == [0, 1]
        assert d["accused_freq"] == {"1": 0.5}
        assert d["none_freq"] == 0.5
        assert d["failed_rate"] == 0.5
        assert d["max_abs_err"] == {"mean": 0.25, "max": 0.25}
        assert len(d["trial_records"]) == 2
        assert d["trial_records"][1] == {
            "accused": None,
            "feasible": True,
            "max_abs_err": None,
            "failed": True,
        }


    @pytest.mark.parametrize("accused,want", [
        # users 3 and 1 tie on two accusations each: the smaller index wins
        ((3, None, 1, 3, 0, 1), 1),
        ((None, 2, 0, 2, 2), 2),
        ((None, None), None),
    ])
    def test_i_star_election(self, accused, want):
        records = tuple(TrialRecord(u, True, 0.0, u is None) for u in accused)
        assert elect_i_star(ExperimentStats(EXP_FULL, (0, 1, 2, 3), records)) == want


class TestRunAttack:
    def small_cfg(self, **kw):
        base = dict(n=3, kappa=16, eps_fp=0.2, trials=6, a=2.0, seed=5)
        base.update(kw)
        return AttackConfig(**base)

    def test_deterministic_and_jobs_invariant(self):
        cfg = self.small_cfg()
        r1 = run_attack(cfg)
        r2 = run_attack(cfg)
        r3 = run_attack(cfg, jobs=2)
        a1 = dp_audit(r1, 1.0, 0.01)
        assert r1.to_dict(a1) == r2.to_dict(dp_audit(r2, 1.0, 0.01))
        assert r1.to_dict(a1) == r3.to_dict(dp_audit(r3, 1.0, 0.01))

    def test_jobs_validated_and_clamped(self):
        for bad in (0, -3):
            with pytest.raises(InputShapeError):
                worker_count(bad, 200, 2)
            with pytest.raises(InputShapeError):
                run_attack(self.small_cfg(), jobs=bad)
        # pure arithmetic: no pool or process is started here
        assert worker_count(10**6, 200, 2) == 2
        assert worker_count(10**6, 3, 64) == 3
        assert worker_count(4, 200, 64) == 4
        assert worker_count(1, 200, 64) == 1

    @pytest.mark.parametrize("kind", ["EXACT", LAPLACE])
    @pytest.mark.parametrize(
        "n,kappa,eps_fp,a",
        [
            (4, 16, 0.05, 100.0),
            (4, 64, 0.05, 100.0),
            (10, 16, 0.05, 100.0),
            (10, 64, 0.05, 100.0),
            (4, 16, 0.2, 2.0),  # 96 ciphertexts: the fixed part dominates
            # each user reads under ell/16 = 2,048 of the PRG's positions (323
            # and 361), so prg_bits_at gathers many users' cells
            (85, 64, 0.05, 0.006),
            (150, 64, 0.05, 0.002),
        ],
    )
    def test_trial_peak_within_the_batch_estimate(self, n, kappa, eps_fp, a, kind):
        san = SanitizerConfig(kind, epsilon=1.0 if kind == LAPLACE else None)
        cfg = AttackConfig(n=n, kappa=kappa, eps_fp=eps_fp, a=a, sanitizer=san)
        prg = prg_params_gen(3, kappa // 2)
        k = code_length(n, eps_fp, a)
        assert trial_peak(cfg, prg) <= check_batch(n, k, prg.ell)

    @pytest.mark.parametrize(
        "n,kappa,eps_fp,a",
        [
            (4, 64, 0.05, 40.0),
            (6, 200, 0.2, 10.0),
            (2, 1000, 0.05, 100.0),
            (2, 1000, 0.05, 400.0),  # 5,903 nonces a key: 2.9 MB of draw unchunked
        ],
    )
    def test_prf_trial_peak_within_the_batch_estimate(self, n, kappa, eps_fp, a):
        # PRF nonces are uint8 byte rows, drawn one key at a time as a byte
        # per bit, in chunks of at most 64 KiB: at 500-bit nonces (the last
        # rows) a whole key's draw would be most of the peak
        ks = tt_gen(kappa, n, PRF, stream(50, "prf-keys"))
        tt_trace_report(ks, honest_pirate(ks, 1), eps_fp, stream(50, "warm"), a=a)
        tracemalloc.start()
        try:
            tt_trace_report(ks, honest_pirate(ks, 1), eps_fp, stream(50, "trial"), a=a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = code_length(n, eps_fp, a)
        assert peak <= check_batch(n, k, 0, nonce_bits=kappa // 2)

    @pytest.mark.parametrize("rounds", [10, 50])
    def test_laplace_rounds_peak_within_the_batch_estimate(self, rounds):
        san = SanitizerConfig(LAPLACE, epsilon=1.0, amplification_rounds=rounds)
        cfg = AttackConfig(n=4, kappa=16, eps_fp=0.05, a=100.0, sanitizer=san)
        prg = prg_params_gen(3, 8)
        need = check_batch(4, code_length(4, cfg.eps_fp, cfg.a), prg.ell, rounds)
        assert trial_peak(cfg, prg) <= need

    def test_workers_clamped_to_the_trials_that_fit_in_memory(self, monkeypatch):
        # one n=52 trial fits under the 2 GiB bound (about 1.0 GiB), two at once
        # do not: jobs=2 runs on one worker before the pool forks
        cfg = AttackConfig(n=52, trials=2)
        workers = []

        def stop(cfg, prg, tag, coalition, jobs):
            workers.append(jobs)
            raise AssertionError("reached the experiment")

        monkeypatch.setattr(attack_mod.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(attack_mod, "_run_experiment", stop)
        for jobs in (2, 1):
            with pytest.raises(AssertionError, match="reached the experiment"):
                run_attack(cfg, jobs=jobs)
        assert workers == [1, 1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_records_peak_within_the_record_estimate(self, monkeypatch, tmp_path, capsys, jobs):
        # trials that return at once, each record a fresh int and a 17-digit
        # float, through attack run's report, its JSON text and its CSV
        monkeypatch.setattr(attack_mod, "_run_trial", instant_trial)
        monkeypatch.setattr(attack_mod, "prg_params_gen", lambda *args: None)

        def peak(trials):
            argv = [
                "attack", "run", "--n", "3", "--kappa", "16", "--trials", str(trials),
                "--jobs", jobs, "--out", str(tmp_path / "r.json"),
                "--summary-csv", str(tmp_path / "r.csv"),
            ]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        peak(50)  # numpy and json set up some routines on first use
        assert peak(2000) <= 2 * 2000 * RECORD_BYTES

    @pytest.mark.parametrize("rounds,workers", [(1200, 2), (1500, 1)])
    def test_worker_cap_counts_laplace_rounds(self, monkeypatch, rounds, workers):
        # n=10 trials hold about 0.96 GiB at 1200 rounds and 1.2 GiB at 1500:
        # two fit under the 2 GiB bound at once in the first case only
        san = SanitizerConfig(LAPLACE, epsilon=1.0, amplification_rounds=rounds)
        cfg = AttackConfig(n=10, trials=2, sanitizer=san)
        seen = []

        def stop(cfg, prg, tag, coalition, jobs):
            seen.append(jobs)
            raise AssertionError("reached the experiment")

        monkeypatch.setattr(attack_mod.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(attack_mod, "_run_experiment", stop)
        with pytest.raises(AssertionError, match="reached the experiment"):
            run_attack(cfg, jobs=2)
        assert seen == [workers]

    def test_seed_changes_output(self):
        r1 = run_attack(self.small_cfg())
        r2 = run_attack(self.small_cfg(seed=6))
        assert r1.to_dict() != r2.to_dict()

    def test_exact_pirate_never_fails_and_stays_feasible(self):
        report = run_attack(self.small_cfg())
        assert report.exp_full.failed_rate == 0.0
        assert report.exp_full.feasible_rate == 1.0

    def test_minus_coalition_excludes_i_star(self):
        report = run_attack(self.small_cfg(trials=10))
        if report.i_star is not None:
            assert report.i_star not in report.exp_minus.coalition
            assert len(report.exp_minus.coalition) == 2
        assert report.exp_full.coalition == (0, 1, 2)

    def test_all_failures_leave_no_i_star(self, monkeypatch):
        def boom(cfg, truths, m, rng):
            raise RuntimeError("down")

        monkeypatch.setattr(attack_mod, "sanitize_truths", boom)
        report = run_attack(self.small_cfg(trials=3))
        assert report.i_star is None and report.exp_minus is None
        assert report.exp_full.failed_rate == 1.0
        d = report.to_dict(dp_audit(report, 1.0, 0.01))
        assert d["i_star"] == -1 and d["exp2"] is None
        assert d["audit"]["conclusive"] is False

    def test_report_dict_shape(self):
        report = run_attack(self.small_cfg())
        d = report.to_dict()
        assert set(d) == {"params", "i_star", "exp1", "exp2"}
        d2 = report.to_dict(dp_audit(report, 1.0, 0.01))
        assert set(d2) == {"params", "i_star", "exp1", "exp2", "audit"}


class TestReplay:
    """Each trial and scan is what tests/reference.py replays without cryptography."""

    @settings(derandomize=True)
    @given(
        st.integers(2, 5),
        st.sampled_from((16, 20)),
        st.sampled_from(("exact", BASIC, ADVANCED)),
        st.data(),
    )
    def test_trial_matches_replay(self, n, kappa, mechanism, data):
        if mechanism == "exact":
            san = SanitizerConfig()
        else:
            eps = data.draw(st.sampled_from((1.0, 1e3, 1e5)), label="eps")
            rounds = data.draw(st.integers(0, 3), label="rounds") if mechanism == ADVANCED else 0
            san = SanitizerConfig(LAPLACE, eps, 1e-6, mechanism, rounds)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        cfg = AttackConfig(
            n=n, kappa=kappa, sanitizer=san, seed=seed,
            a=data.draw(st.sampled_from((20.0, 100.0)), label="a"),
        )
        tag = data.draw(st.sampled_from((EXP_FULL, EXP_MINUS)), label="tag")
        coalition = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        t = data.draw(st.integers(0, 3), label="t")
        prg = prg_params_gen(derive_seed(seed, "attack", "prg"), kappa // 2)
        got = attack_mod._run_trial(cfg, prg, tag, coalition, t)
        assert got == replay_trial(cfg, tag, coalition, t)

    @settings(derandomize=True)
    @given(st.integers(2, 5), st.sampled_from((16, 20)), st.data())
    def test_exact_scan_matches_replay(self, n, kappa, data):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        coalition = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        rng = stream(seed, "scan-replay")
        ks = tt_gen(kappa, n, LOCAL_PRG, rng)
        pirate = pirate_from_sanitizer(
            ks.params, ks.rows[list(coalition)], SanitizerConfig(EXACT), rng
        )
        got, want = linear_scan_report(ks, pirate, rng), replay_scan(n, coalition)
        assert got.accused == want.accused and want.accused - 1 in coalition
        assert got.repetitions == want.repetitions
        assert np.array_equal(got.counts, want.counts)
        assert got.levels.tobytes() == want.levels.tobytes()
