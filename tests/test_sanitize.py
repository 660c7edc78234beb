import gc
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ttpa.errors as errors_mod
import ttpa.sanitize as sanitize_mod
from test_circuit import json_netlists
from test_determinism import HAND_NETLISTS
from ttpa.circuit import CircuitBuilder, _eval_packed, circuit_from_json, eval_on_rows, pack_rows
from ttpa.crypto import FOLDED, LOCAL_PRG, prg_params_gen
from ttpa.errors import FileFormatError, InputShapeError
from ttpa.sanitize import (
    ADVANCED,
    BASIC,
    EXACT,
    LAPLACE,
    ROUND_BYTES,
    Database,
    SanitizerConfig,
    accuracy_check,
    dictator_circuit,
    evaluate_batch,
    evaluate_query,
    laplace_scale,
    laplace_tightness_demo,
    load_database,
    sanitize,
    sanitize_truths,
    save_database,
)
from ttpa.seeds import stream
from ttpa.ttscheme import TTDecQueryFamily, check_batch, tr_enc, tt_dec_circuit, tt_enc, tt_gen


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
        assert Database(rows).rows.base is rows  # uint8 rows are viewed, not copied

    def test_rows_are_a_read_only_view(self):
        rows = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        db = Database(rows)
        with pytest.raises(ValueError, match="read-only"):
            db.rows[0, 0] = 0
        # the caller's own array keeps its flag
        assert rows.flags.writeable
        rows[0, 0] = 0


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
            [q] = tt_dec_circuit(tt_enc(ks, bit, rng), ks.params)
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
        via_circuits = evaluate_batch(tt_dec_circuit(fam.cts, fam.params, FOLDED), db)
        assert np.allclose(via_family, via_circuits)
        with pytest.raises(InputShapeError):
            evaluate_batch(fam, Database(np.zeros((2, 15), dtype=np.uint8)))
        with pytest.raises(InputShapeError, match="empty"):
            evaluate_batch(fam, Database(np.zeros((0, db.d), dtype=np.uint8)))


class RandomBitsFamily:
    """A QueryFamily stub whose evaluate_on_rows returns seeded (k, m) bits."""

    input_width = 2

    def __init__(self, k: int, seed: int):
        self.k, self.seed = k, seed

    def __len__(self) -> int:
        return self.k

    def evaluate_on_rows(self, rows: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.integers(0, 2, (self.k, len(rows)), dtype=np.uint8)


@pytest.mark.parametrize("m", [1, 255, 256, 65535, 65536])
def test_family_tally_is_the_mean_to_the_byte(m):
    # the tally is uint8 up to 255 rows and uint16 up to 65535; a float64
    # sum of 0/1 values is exact, so dividing it by m gives the mean's bytes
    fam = RandomBitsFamily(7, m)
    db = Database(np.zeros((m, 2), dtype=np.uint8))
    got = evaluate_batch(fam, db)
    want = fam.evaluate_on_rows(db.rows).mean(axis=1)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    # all-ones columns sum to m itself, the most the narrow tally must hold
    ones = RandomBitsFamily(3, m)
    ones.evaluate_on_rows = lambda rows: np.ones((3, len(rows)), dtype=np.uint8)
    assert evaluate_batch(ones, db).tolist() == [1.0] * 3


def fresh_answer(circ, rows: np.ndarray) -> float:
    m = rows.shape[0]
    return _eval_packed(circ, pack_rows(rows), (1 << m) - 1).bit_count() / m


class TestAnswerMemo:
    @given(net=json_netlists(), m=st.integers(1, 70), seed=st.integers(0, 2**16))
    def test_memoised_answer_is_the_fresh_one(self, net, m, seed):
        circ = circuit_from_json(net)
        rows = stream(seed, "memo").integers(0, 2, (m, circ.input_width), dtype=np.uint8)
        db = Database(rows)
        want = fresh_answer(circ, rows)
        assert evaluate_query(circ, db) == want
        copy = circuit_from_json(net)
        assert evaluate_query(copy, db) == want
        assert db._answers == {circ.serial: want, copy.serial: want}

    def test_hand_netlists_off_the_leading_run(self):
        rows = stream(39, "memo-hand").integers(0, 2, (300, 16), dtype=np.uint8)
        db = Database(rows)
        circs = [circuit_from_json(net) for net in HAND_NETLISTS]
        want = [fresh_answer(c, rows) for c in circs]
        for _ in range(2):
            assert [evaluate_query(c, db) for c in circs] == want
        assert len(db._answers) == len(circs)

    def test_databases_never_share_entries(self):
        rows = stream(41, "memo-db").integers(0, 2, (25, 5), dtype=np.uint8)
        one, two = Database(rows), Database(rows)
        q = dictator_circuit(1, 5)
        evaluate_query(q, one)
        assert one._answers is not two._answers and two._answers == {}
        evaluate_batch([q, q], two)
        assert two._answers == one._answers == {q.serial: fresh_answer(q, rows)}

    def test_errors_still_raised_on_repeat(self):
        # the memo is read before the checks: the first bad call and every
        # repeat still raise the same message
        db = Database(np.zeros((2, 3), dtype=np.uint8))
        evaluate_query(dictator_circuit(0, 3), db)
        empty = Database(np.zeros((0, 3), dtype=np.uint8))
        for _ in range(2):
            with pytest.raises(InputShapeError, match=r"^query width 2 != database width 3$"):
                evaluate_query(dictator_circuit(0, 2), db)
            with pytest.raises(
                InputShapeError, match=r"^cannot evaluate queries on an empty database$"
            ):
                evaluate_query(dictator_circuit(0, 3), empty)
        assert len(db._answers) == 1 and empty._answers == {}

    def test_equal_circuits_share_one_entry(self, monkeypatch):
        rows = stream(40, "memo-eq").integers(0, 2, (25, 5), dtype=np.uint8)
        db = Database(rows)
        a, b = dictator_circuit(3, 5), dictator_circuit(3, 5)
        assert b is not a and b == a and hash(b) == hash(a) and b.serial != a.serial
        # keyed on the circuit, equal copies share one entry; the memo keys on
        # the serial, so each object is evaluated once, to the same answer
        assert len({a: 0, b: 1}) == 1
        evaluated = []

        def counting(circ, cols, mask):
            evaluated.append(circ)
            return _eval_packed(circ, cols, mask)

        monkeypatch.setattr(sanitize_mod, "_eval_packed", counting)
        want = fresh_answer(a, rows)
        assert evaluate_batch([a, a, b, a, b], db).tolist() == [want] * 5
        assert [q is a for q in evaluated] == [True, False]
        assert db._answers == {a.serial: want, b.serial: want}

    def test_equal_circuit_is_answered_from_the_memo(self, monkeypatch):
        db = Database(stream(42, "memo-hit").integers(0, 2, (25, 5), dtype=np.uint8))
        a, b = dictator_circuit(2, 5), dictator_circuit(2, 5)
        want = evaluate_query(a, db)
        # the copy's first call evaluates it; every later call is a hit
        assert evaluate_query(b, db) == want

        def no_evaluation(*_args):
            raise AssertionError("a memo hit evaluated the circuit")

        monkeypatch.setattr(sanitize_mod, "_eval_packed", no_evaluation)
        assert b is not a and evaluate_query(b, db) == want
        assert evaluate_batch([b, a, b], db).tolist() == [want] * 3

    def test_serials_are_never_reused(self):
        rows = np.zeros((25, 5), dtype=np.uint8)
        db = Database(rows)
        first = dictator_circuit(1, 5)
        assert evaluate_query(first, db) == 0.0
        freed = first.serial
        del first
        gc.collect()
        # an address-like key could pass the freed circuit's answer on to this one
        later = const_circuit(1, 5)
        assert later.serial > freed
        assert evaluate_query(later, db) == 1.0
        # unpickled, a circuit is built afresh and takes a new serial
        back = pickle.loads(pickle.dumps(later))
        assert back == later and back.serial > later.serial
        assert evaluate_query(back, db) == 1.0
        assert db._answers == {freed: 0.0, later.serial: 1.0, back.serial: 1.0}

    @given(
        nets=st.lists(json_netlists(), min_size=1, max_size=4),
        m=st.integers(1, 70),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_batch_of_repeats_copies_and_collisions(self, nets, m, seed, data):
        # every netlist is valid at the widest width, so one database takes all
        width = max(net["input_width"] for net in nets)
        nets = [dict(net, input_width=width) for net in nets]
        circs = [circuit_from_json(net) for net in nets]
        index = st.integers(0, len(nets) - 1)
        batch = []
        for i, kind in data.draw(st.lists(st.tuples(index, st.sampled_from(("same", "copy"))))):
            batch.append(circs[i] if kind == "same" else circuit_from_json(nets[i]))
        rows = stream(seed, "memo-mix").integers(0, 2, (m, width), dtype=np.uint8)
        db = Database(rows)
        want = [fresh_answer(q, rows) for q in batch]
        for _ in range(2):
            assert evaluate_batch(batch, db).tolist() == want
        # each object in the batch has its own entry, whatever its netlist
        assert db._answers == {q.serial: a for q, a in zip(batch, want)}

    def test_demo_evaluates_each_distinct_circuit_once(self, monkeypatch, tightness_report):
        # 1 calibration circuit, then 16 wires on each of the 2 databases:
        # a memo that stopped hitting would keep the bytes but not this count
        calls = []

        def counting(*args):
            calls.append(args[0])
            return _eval_packed(*args)

        monkeypatch.setattr(sanitize_mod, "_eval_packed", counting)
        assert laplace_tightness_demo(0) == tightness_report
        assert len(calls) == 33

    def test_empty_list_batch(self):
        got = evaluate_batch([], Database(np.zeros((2, 3), dtype=np.uint8)))
        assert got.dtype == np.float64 and got.shape == (0,)


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

    @pytest.mark.parametrize(
        "cfg",
        [
            SanitizerConfig(LAPLACE, epsilon=1e-320),
            SanitizerConfig(LAPLACE, epsilon=1.0, delta=1e-320, composition=ADVANCED),
        ],
    )
    def test_non_finite_scale_refused_before_any_draw(self, cfg):
        with pytest.raises(InputShapeError, match="noise scale of inf"):
            laplace_scale(cfg, 3, 2)
        rng = stream(43, "inf-scale")
        state = rng.bit_generator.state
        with pytest.raises(InputShapeError, match="noise scale"):
            sanitize_truths(cfg, np.full(3, 0.5), 2, rng)
        assert rng.bit_generator.state == state


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
        for eps in (math.nan, math.inf):
            with pytest.raises(InputShapeError, match="finite epsilon"):
                SanitizerConfig(LAPLACE, epsilon=eps)
        for kind, eps in ((LAPLACE, 1.0), (EXACT, None)):
            for delta in (math.nan, math.inf, -math.inf):
                with pytest.raises(InputShapeError, match="delta must be finite"):
                    SanitizerConfig(kind, epsilon=eps, delta=delta)
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

    @pytest.mark.parametrize("given", [
        {"epsilon": 1.0},
        {"delta": 0.01},
        {"delta": 0.0},
        {"composition": ADVANCED},
        {"epsilon": 1.0, "delta": 1e-9, "composition": ADVANCED},
        {"amplification_rounds": 1},
    ])
    def test_exact_refuses_what_it_would_ignore(self, given):
        why = "^epsilon, delta, ADVANCED composition and amplification rounds are LAPLACE only$"
        with pytest.raises(InputShapeError, match=why):
            SanitizerConfig(EXACT, **given)


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

    @given(
        truths=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        rounds=st.integers(0, 6),
        eps=st.floats(1e-3, 50.0),
        m=st.integers(1, 500),
        seed=st.integers(0, 2**16),
    )
    def test_rounds_are_the_median_of_the_clipped_draw(self, truths, rounds, eps, m, seed):
        # one round returns its clipped row, which is the median of one
        # value to the byte; from two rounds up the median is taken
        cfg = SanitizerConfig(LAPLACE, epsilon=eps, amplification_rounds=rounds)
        t = np.array(truths)
        got = sanitize_truths(cfg, t, m, stream(seed, "median"))
        rng = stream(seed, "median")
        scale = laplace_scale(cfg, t.size, m)
        noisy = t[None, :] + rng.laplace(0.0, scale, (max(1, rounds), t.size))
        want = np.median(np.clip(noisy, 0.0, 1.0), axis=0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_empty_batch(self):
        cfg = SanitizerConfig(LAPLACE, epsilon=1.0)
        out = sanitize_truths(cfg, np.zeros(0), 10, stream(37, "e"))
        assert out.shape == (0,)

    def test_noise_past_the_memory_limit_refused_before_the_draw(self):
        # one query at 10^10 rounds once died in numpy's "Unable to allocate 74.5 GiB"
        cfg = SanitizerConfig(LAPLACE, epsilon=1.0, amplification_rounds=10**10)
        rng = stream(38, "huge")
        with pytest.raises(InputShapeError, match="rounds=10000000000 would hold about 149.02 GiB"):
            sanitize_truths(cfg, np.full(1, 0.5), 10, rng)
        assert rng.bit_generator.state == stream(38, "huge").bit_generator.state

    @pytest.mark.parametrize("rounds", [0, 1, 2, 3, 10])
    def test_noise_peak_within_the_estimate(self, rounds):
        # and within what check_batch counts for the same batch, so a tracing
        # trial it admits is never refused inside the pirate
        cfg = SanitizerConfig(LAPLACE, epsilon=1.0, amplification_rounds=rounds)
        k = 100_000
        truths = np.full(k, 0.5)
        sanitize_truths(cfg, truths, 10, stream(39, "peak"))  # numpy sets up routines on first use
        tracemalloc.start()
        try:
            sanitize_truths(cfg, truths, 10, stream(40, "peak"))
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        need = k * ROUND_BYTES * (max(1, rounds) + 2)
        assert peak <= need <= check_batch(1, k, 0, rounds)


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

    def test_errors_name_the_line_across_pieces(self, tmp_path):
        # rows are read ROW_PIECE lines at a time; blank lines hold no row
        # but keep their line numbers
        lines = ["d=16", *["a0b0"] * 1500]
        lines[700] = ""
        lines[1300] = "a0 b"
        path = tmp_path / "db.txt"
        path.write_text("\n".join(lines) + "\n\n")
        with pytest.raises(FileFormatError, match="^line 1301 holds a character"):
            load_database(str(path))
        lines[1300] = " a0b0 "
        path.write_text("\n".join(lines) + "\n\n")
        a0b0 = [1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0]
        assert load_database(str(path)).rows.tolist() == [a0b0] * 1499

    def test_read_holds_under_100_bytes_a_row(self, tmp_path):
        # a piece of lines at a time, joined once: 2 x 16 B a row of bits,
        # where one array a line, then stacked, held 433 B a row
        m, path = 100_000, str(tmp_path / "db.txt")
        rows = stream(38, "big-db").integers(0, 2, (m, 16), dtype=np.uint8)
        save_database(Database(rows), path)
        tracemalloc.start()
        try:
            db = load_database(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(db.rows, rows) and peak <= 100 * m

    def test_rows_counted_from_the_file_size_before_any_is_read(self, tmp_path, monkeypatch):
        path = str(tmp_path / "db.txt")
        save_database(Database(np.zeros((1000, 16), dtype=np.uint8)), path)
        # 5,005 bytes bound the rows at 1,001: twice 1,001 x 16 bytes of bits
        monkeypatch.setattr(errors_mod, "MAX_ALLOC_BYTES", 2 * 1001 * 16 - 1)

        def no_decode(*args):
            raise AssertionError("decoded a row")

        monkeypatch.setattr(sanitize_mod, "bits_from_hex", no_decode)
        with pytest.raises(InputShapeError, match="up to 1001 rows of 16 bits .* limit"):
            load_database(path)

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
