import numpy as np
import pytest

from ttpa.circuit import CircuitBuilder, eval_on_rows
from ttpa.crypto import FOLDED, LOCAL_PRG, prg_params_gen
from ttpa.errors import FileFormatError, InputShapeError
from ttpa.sanitize import (
    ADVANCED,
    BASIC,
    EXACT,
    LAPLACE,
    Database,
    SanitizerConfig,
    accuracy_check,
    dictator_circuit,
    evaluate_batch,
    evaluate_query,
    laplace_scale,
    load_database,
    sanitize,
    sanitize_truths,
    save_database,
)
from ttpa.seeds import stream
from ttpa.ttscheme import TTDecQueryFamily, tr_enc, tt_dec_circuit, tt_enc, tt_gen


def const_circuit(value: int, width: int):
    b = CircuitBuilder(width)
    return b.build(b.const(value))


def keyrow_setup(kappa=16, n=4, seed=30):
    prg = prg_params_gen(seed, kappa // 2)
    ks = tt_gen(kappa, n, LOCAL_PRG, stream(seed, "san-ks"), prg=prg)
    return ks, Database(ks.rows)


class TestDatabase:
    def test_shape_and_packing(self):
        db = Database(np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8))
        assert (db.m, db.d) == (3, 2)
        # column 0 over rows (1,0,1) packs to 0b101, column 1 to 0b110
        assert db.packed_columns() == [0b101, 0b110]
        assert db.packed_columns() is db.packed_columns()

    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (3, 2), (100, 7)])
    def test_size_and_mask_follow_rows(self, shape):
        db = Database(np.ones(shape, dtype=np.uint8))
        assert (db.m, db.d) == shape
        assert db.mask == (1 << shape[0]) - 1

    def test_empty_database_refuses_queries(self):
        db = Database(np.zeros((0, 3), dtype=np.uint8))
        with pytest.raises(InputShapeError):
            evaluate_query(dictator_circuit(0, 3), db)

    def test_validation(self):
        with pytest.raises(InputShapeError):
            Database(np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(InputShapeError):
            Database(np.array([[0, 2]], dtype=np.uint8))

    @pytest.mark.parametrize(
        "rows", [np.array([[256, 257]]), np.array([[0.9, 1.0]]), [[1, 256]]]
    )
    def test_non_bits_refused_before_the_cast(self, rows):
        # a uint8 cast would store [[256, 257]] as [[0, 1]] and 0.9 as 0
        with pytest.raises(InputShapeError, match="database entries must be bits"):
            Database(rows)

    def test_other_bit_dtypes_stored_as_uint8(self):
        for rows in (np.array([[True, False]]), np.array([[1.0, 0.0]]), [[1, 0]]):
            db = Database(rows)
            assert db.rows.dtype == np.uint8 and db.rows.tolist() == [[1, 0]]
        rows = np.array([[1, 0]], dtype=np.uint8)
        assert Database(rows).rows is rows  # uint8 rows are kept, not copied


class TestEvaluate:
    def test_satisfying_fraction(self):
        db = Database(np.array([[1], [1], [1], [0]], dtype=np.uint8))
        assert evaluate_query(dictator_circuit(0, 1), db) == 0.75
        assert evaluate_query(const_circuit(1, 1), db) == 1.0
        assert evaluate_query(const_circuit(0, 1), db) == 0.0

    def test_dictator_is_column_mean(self):
        rows = stream(31, "cols").integers(0, 2, (37, 5), dtype=np.uint8)
        db = Database(rows)
        for j in range(5):
            assert evaluate_query(dictator_circuit(j, 5), db) == pytest.approx(
                float(rows[:, j].mean())
            )

    def test_broadcast_circuit_answers_the_bit(self):
        ks, db = keyrow_setup()
        rng = stream(30, "san-q")
        for bit in (0, 1):
            q = tt_dec_circuit(tt_enc(ks, bit, rng), ks.params)
            assert evaluate_query(q, db) == float(bit)

    def test_validation(self):
        db = Database(np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(InputShapeError):
            evaluate_query(dictator_circuit(0, 2), db)
        with pytest.raises(InputShapeError):
            evaluate_query(
                dictator_circuit(0, 3), Database(np.zeros((0, 3), dtype=np.uint8))
            )

    def test_family_path_matches_circuit_path(self):
        ks, db = keyrow_setup(seed=32)
        rng = stream(32, "san-fam")
        words = rng.integers(0, 2, (4, 25), dtype=np.uint8)
        fam = TTDecQueryFamily.from_ciphertexts(tr_enc(ks, words, rng), ks.params)
        via_family = evaluate_batch(fam, db)
        via_circuits = evaluate_batch(
            [tt_dec_circuit(fam.cts[j], fam.params, FOLDED) for j in range(len(fam))], db
        )
        assert np.allclose(via_family, via_circuits)
        with pytest.raises(InputShapeError):
            evaluate_batch(fam, Database(np.zeros((2, 15), dtype=np.uint8)))


class TestScale:
    def test_frozen_values(self):
        assert laplace_scale(SanitizerConfig(LAPLACE, epsilon=1.0), 100, 50) == 2.0
        adv_big = SanitizerConfig(LAPLACE, epsilon=1.0, delta=1e-9, composition=ADVANCED)
        assert laplace_scale(adv_big, 10_000, 100_000) == 0.0064378980788680415
        adv_small = SanitizerConfig(LAPLACE, epsilon=1.0, delta=1e-6, composition=ADVANCED)
        assert laplace_scale(adv_small, 100, 100_000) == 0.0005256521769756931

    def test_advanced_beats_basic_for_large_batches(self):
        basic = SanitizerConfig(LAPLACE, epsilon=1.0)
        adv = SanitizerConfig(LAPLACE, epsilon=1.0, delta=1e-9, composition=ADVANCED)
        assert laplace_scale(adv, 10_000, 1000) < laplace_scale(basic, 10_000, 1000)

    def test_validation(self):
        with pytest.raises(InputShapeError):
            laplace_scale(SanitizerConfig(EXACT), 10, 10)
        with pytest.raises(InputShapeError):
            laplace_scale(SanitizerConfig(LAPLACE, epsilon=1.0), 0, 10)


class TestConfig:
    def test_exact_needs_no_budget(self):
        cfg = SanitizerConfig()
        assert cfg.kind == EXACT and cfg.epsilon is None

    def test_validation(self):
        with pytest.raises(InputShapeError):
            SanitizerConfig(kind="ROUND")
        with pytest.raises(InputShapeError):
            SanitizerConfig(LAPLACE)
        with pytest.raises(InputShapeError):
            SanitizerConfig(LAPLACE, epsilon=0.0)
        with pytest.raises(InputShapeError):
            SanitizerConfig(LAPLACE, epsilon=1.0, composition=ADVANCED)
        with pytest.raises(InputShapeError):
            SanitizerConfig(LAPLACE, epsilon=1.0, delta=1.0, composition=ADVANCED)
        with pytest.raises(InputShapeError):
            SanitizerConfig(composition="TIGHT")
        with pytest.raises(InputShapeError):
            SanitizerConfig(amplification_rounds=-1)
        with pytest.raises(InputShapeError, match="LAPLACE only"):
            SanitizerConfig(EXACT, amplification_rounds=7)


class TestSanitize:
    def test_exact_passthrough(self):
        db = Database(stream(33, "ex").integers(0, 2, (20, 4), dtype=np.uint8))
        queries = [dictator_circuit(j, 4) for j in range(4)]
        truths = evaluate_batch(queries, db)
        answers = sanitize(SanitizerConfig(), db, queries, stream(33, "ex", "rng"))
        assert np.array_equal(answers, truths)
        ok, worst = accuracy_check(answers, truths, 0.0)
        assert ok and worst == 0.0

    def test_laplace_clamped_to_unit_interval(self):
        cfg = SanitizerConfig(LAPLACE, epsilon=1e-6)
        truths = np.full(500, 0.5)
        out = sanitize_truths(cfg, truths, 100, stream(34, "clamp"))
        assert out.min() == 0.0 and out.max() == 1.0

    def test_amplification_tightens_answers(self):
        cfg1 = SanitizerConfig(LAPLACE, epsilon=0.5, amplification_rounds=1)
        cfg21 = SanitizerConfig(LAPLACE, epsilon=0.5, amplification_rounds=21)
        truths = np.full(2000, 0.5)
        e1 = np.abs(sanitize_truths(cfg1, truths, 100, stream(35, "amp1")) - 0.5)
        e21 = np.abs(sanitize_truths(cfg21, truths, 100, stream(35, "amp21")) - 0.5)
        assert float(e21.mean()) < float(e1.mean())

    def test_zero_rounds_means_one(self):
        cfg0 = SanitizerConfig(LAPLACE, epsilon=2.0, amplification_rounds=0)
        cfg1 = SanitizerConfig(LAPLACE, epsilon=2.0, amplification_rounds=1)
        truths = np.full(50, 0.25)
        a = sanitize_truths(cfg0, truths, 40, stream(36, "r"))
        b = sanitize_truths(cfg1, truths, 40, stream(36, "r"))
        assert np.array_equal(a, b)

    def test_empty_batch(self):
        cfg = SanitizerConfig(LAPLACE, epsilon=1.0)
        out = sanitize_truths(cfg, np.zeros(0), 10, stream(37, "e"))
        assert out.shape == (0,)


class TestAccuracyCheck:
    def test_hand_values(self):
        t = np.array([0.2, 0.8])
        assert accuracy_check(t, t, 0.0) == (True, 0.0)
        ok, worst = accuracy_check(np.array([0.2, 0.2]), t, 0.5)
        assert not ok and worst == pytest.approx(0.6)
        assert accuracy_check(np.zeros(0), np.zeros(0), 0.0) == (True, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(InputShapeError):
            accuracy_check(np.zeros(2), np.zeros(3), 0.1)


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        rows = stream(38, "io").integers(0, 2, (9, 11), dtype=np.uint8)
        path = str(tmp_path / "db.txt")
        save_database(Database(rows), path)
        back = load_database(path)
        assert np.array_equal(back.rows, rows)

    def test_blank_lines_tolerated(self, tmp_path):
        path = str(tmp_path / "db.txt")
        save_database(Database(np.array([[1, 0, 1]], dtype=np.uint8)), path)
        with open(path, "a") as f:
            f.write("\n")
        assert load_database(path).m == 1

    @pytest.mark.parametrize(
        "text",
        [
            "m=3\na0\n",                 # wrong header key
            "d=x\na0\n",                 # non-integer width
            "d=0\n",                     # width < 1
            "d=3\nzz\n",                 # not hex
            "d=3\na0b0\n",               # wrong byte count
            "d=3\n10\n",                 # nonzero padding bits (0b00010000)
            "d=3\n",                     # no rows
        ],
    )
    def test_malformed_rejected(self, tmp_path, text):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as f:
            f.write(text)
        with pytest.raises(FileFormatError):
            load_database(path)


class TestTightnessDemo:
    def test_report_shape_and_verdicts(self, tightness_report):
        rep = tightness_report
        assert set(rep) == {"seed", "calibration", "accuracy_points", "all_pass"}
        cal = rep["calibration"]
        assert cal["scale"] == 0.05
        assert cal["draws"] == 100_000
        assert cal["calibrated_5pct"] and cal["exceed_within_3sigma"]
        labels = {p["label"]: p for p in rep["accuracy_points"]}
        assert labels["large"]["expected_accurate"] is True
        assert labels["small"]["expected_accurate"] is False
        assert all(p["as_expected_95pct"] for p in rep["accuracy_points"])
        assert rep["all_pass"] is True

    def test_internal_consistency(self, tightness_report):
        cal = tightness_report["calibration"]
        assert cal["calibrated_5pct"] == (abs(cal["mean_abs_ratio"] - 1.0) <= 0.05)
        assert (
            abs(cal["exceed_rate"] - cal["exceed_expected"])
            <= 3 * cal["exceed_sigma"]
        ) == cal["exceed_within_3sigma"]
