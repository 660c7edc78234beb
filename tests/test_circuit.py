import itertools
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ttpa.circuit import (
    AND,
    CONST,
    INPUT,
    NOT,
    OR,
    Circuit,
    CircuitBuilder,
    CircuitMetrics,
    Gate,
    _eval_packed,
    append_dnf,
    circuit_from_json,
    circuit_metrics,
    circuit_to_json,
    eval_on_rows,
    pack_rows,
)
from ttpa.crypto import LocalPrgParams, xor_and_table
from ttpa.errors import (
    CircuitFormatError,
    FileFormatError,
    InputShapeError,
    canonical_json,
    read_json,
)


def all_rows(width: int) -> np.ndarray:
    rows = np.array(list(itertools.product((0, 1), repeat=width)), dtype=np.uint8)
    return rows.reshape(-1, width)


@st.composite
def circuits(draw, max_width=6, max_gates=25):
    width = draw(st.integers(1, max_width))
    b = CircuitBuilder(width)
    wires = list(range(width))
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(("and", "or", "not", "const")))
        if kind == "const":
            wires.append(b.const(draw(st.integers(0, 1))))
        elif kind == "not":
            wires.append(b.not_(draw(st.sampled_from(wires))))
        else:
            args = draw(st.lists(st.sampled_from(wires), min_size=1, max_size=4))
            wires.append(b.and_(args) if kind == "and" else b.or_(args))
    return b.build(draw(st.sampled_from(wires)))


@st.composite
def json_netlists(draw, max_width=5, max_gates=20):
    """Netlist JSON in any gate order: an ordered INPUT run of random
    length up front, then INPUT gates anywhere, for any wire, repeated."""
    width = draw(st.integers(1, max_width))
    gates = [
        {"op": INPUT, "args": [], "input_index": w}
        for w in range(draw(st.integers(0, width)))
    ]
    for _ in range(draw(st.integers(0 if gates else 1, max_gates))):
        kind = draw(st.sampled_from((INPUT, CONST, NOT, AND, OR) if gates else (INPUT, CONST)))
        if kind == INPUT:
            g = {"op": INPUT, "args": [], "input_index": draw(st.integers(0, width - 1))}
        elif kind == CONST:
            g = {"op": CONST, "args": [], "value": draw(st.integers(0, 1))}
        else:
            earlier = st.integers(0, len(gates) - 1)
            size = (1, 1) if kind == NOT else (1, 4)
            g = {"op": kind, "args": draw(st.lists(earlier, min_size=size[0], max_size=size[1]))}
        gates.append(g)
    for i, g in enumerate(gates):
        g["id"] = i
    return {
        "input_width": width,
        "gates": gates,
        "output": draw(st.integers(0, len(gates) - 1)),
    }


def reference_eval(circ: Circuit, bits) -> int:
    """Gate-by-gate walk on one point, input gates included."""
    vals = []
    for op, args, aux in circ.gates:
        if op == INPUT:
            v = int(bits[aux])
        elif op == CONST:
            v = aux
        elif op == NOT:
            v = 1 - vals[args[0]]
        elif op == AND:
            v = int(all(vals[a] for a in args))
        else:
            v = int(any(vals[a] for a in args))
        vals.append(v)
    return vals[circ.output]


class TestEval:
    def test_and_identity(self):
        b = CircuitBuilder(2)
        c = b.build(b.and_([0, 1]))
        assert eval_on_rows(c, [[1, 1]]).tolist() == [1]
        assert eval_on_rows(c, all_rows(2)).tolist() == [0, 0, 0, 1]

    def test_not(self):
        b = CircuitBuilder(1)
        c = b.build(b.not_(0))
        assert eval_on_rows(c, [[0], [1]]).tolist() == [1, 0]

    def test_or_and_not_hand_value(self):
        b = CircuitBuilder(3)
        c = b.build(b.or_([b.and_([0, 1]), b.not_(2)]))
        assert eval_on_rows(c, [[0, 1, 1]]).tolist() == [0]

    def test_width_and_bit_validation(self):
        b = CircuitBuilder(2)
        c = b.build(b.and_([0, 1]))
        with pytest.raises(InputShapeError, match="row entries must be bits"):
            eval_on_rows(c, [[1, 2]])
        with pytest.raises(InputShapeError, match="does not match circuit width 2"):
            eval_on_rows(c, np.zeros((4, 3), dtype=np.uint8))
        assert eval_on_rows(c, np.zeros((0, 2), dtype=np.uint8)).tolist() == []
        # no rows, or no wires, still take the packed path
        b = CircuitBuilder(0)
        one = b.build(b.const(1))
        for m in (0, 3):
            got = eval_on_rows(one, np.zeros((m, 0), dtype=np.uint8))
            assert got.dtype == np.uint8 and got.tolist() == [1] * m

    @given(circuits(), st.data())
    def test_eval_on_rows_matches_scalar(self, c, data):
        m = data.draw(st.integers(1, 8))
        rows = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, 1), min_size=c.input_width, max_size=c.input_width),
                    min_size=m,
                    max_size=m,
                )
            ),
            dtype=np.uint8,
        )
        bulk = eval_on_rows(c, rows)
        assert bulk.tolist() == [reference_eval(c, r) for r in rows]

    @given(json_netlists(), st.data())
    def test_any_gate_order_matches_reference_walk(self, obj, data):
        c = circuit_from_json(obj)
        width = c.input_width
        m = data.draw(st.integers(1, 11))
        cols = data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=width, max_size=width))
        packed = _eval_packed(c, cols, (1 << m) - 1)
        for i in range(m):
            point = [(col >> i) & 1 for col in cols]
            assert (packed >> i) & 1 == reference_eval(c, point)
        rows = np.array([[(col >> i) & 1 for col in cols] for i in range(m)], dtype=np.uint8)
        assert eval_on_rows(c, rows).tolist() == [reference_eval(c, r) for r in rows]

    def test_pack_rows_roundtrip(self):
        rows = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        cols = pack_rows(rows)
        assert [(c & 1, (c >> 1) & 1) for c in cols] == [(1, 0), (0, 1), (1, 1)]
        with pytest.raises(InputShapeError, match="2-d"):
            pack_rows(np.array([1, 0, 1], dtype=np.uint8))

    @pytest.mark.parametrize("bad", [256, 0.9, 2])
    def test_non_bit_rows_refused_before_the_cast(self, bad):
        # a uint8 cast would read 256 and 0.9 as 0, and packbits reads 2 as 1
        b = CircuitBuilder(2)
        c = b.build(b.and_([0, 1]))
        rows = np.array([[1.0, 1.0], [bad, 1.0]])
        with pytest.raises(InputShapeError, match="row entries must be bits"):
            pack_rows(rows)
        with pytest.raises(InputShapeError, match="row entries must be bits"):
            eval_on_rows(c, rows)


class TestMetrics:
    def test_single_and_over_10_inputs(self):
        b = CircuitBuilder(10)
        c = b.build(b.and_(list(range(10))))
        assert circuit_metrics(c) == CircuitMetrics(1, 1)

    def test_dnf_4_terms_5_vars(self):
        b = CircuitBuilder(5)
        terms = [b.and_([i, i + 1]) for i in range(4)]
        c = b.build(b.or_(terms))
        assert circuit_metrics(c) == CircuitMetrics(5, 2)

    def test_not_is_free_depth_but_counted_size(self):
        b = CircuitBuilder(2)
        c = b.build(b.and_([b.not_(0), 1]))
        m = circuit_metrics(c)
        assert m.size == 2
        assert m.depth == 1

    def test_input_only(self):
        b = CircuitBuilder(3)
        c = b.build(b.input(1))
        assert circuit_metrics(c) == CircuitMetrics(0, 0)


# the minterms of x0 ^ x1: literal signs, variable 0 first
XOR_MINTERMS = [(False, True), (True, False)]


def table_minterms(table) -> tuple:
    """The minterms on which a truth table is 1, as a PRG over its variables derives them."""
    width = len(table).bit_length() - 1
    return LocalPrgParams(width, np.arange(width)[None], table).minterms[1]


class TestDnf:
    def test_xor_two_terms_depth_two(self):
        b = CircuitBuilder(2)
        c = b.build(append_dnf(b, XOR_MINTERMS, [0, 1]))
        m = circuit_metrics(c)
        assert m.depth == 2
        ands = sum(1 for g in c.gates if g.op == AND)
        assert ands == 2
        assert eval_on_rows(c, all_rows(2)).tolist() == [0, 1, 1, 0]

    def test_constant_zero_table(self):
        b = CircuitBuilder(2)
        c = b.build(append_dnf(b, [], [0, 1]))
        assert c.gates[c.output].op == CONST
        assert eval_on_rows(c, all_rows(2)).tolist() == [0, 0, 0, 0]

    def test_one_variable_minterm_is_a_lone_literal(self):
        b = CircuitBuilder(3)
        c = b.build(append_dnf(b, [(False,)], [2]))
        assert [g.op for g in c.gates[3:]] == [NOT, OR]
        assert eval_on_rows(c, all_rows(3)).tolist() == [1, 0] * 4

    def test_minterm_of_another_width_refused(self):
        with pytest.raises(ValueError):
            append_dnf(CircuitBuilder(3), XOR_MINTERMS, [0, 1, 2])

    def test_xor_and_predicate_16_terms(self):
        b = CircuitBuilder(5)
        c = b.build(append_dnf(b, table_minterms(xor_and_table(5)), list(range(5))))
        assert sum(1 for g in c.gates if g.op == AND) == 16
        x = all_rows(5)
        assert np.array_equal(eval_on_rows(c, x), x[:, 0] ^ x[:, 1] ^ x[:, 2] ^ (x[:, 3] & x[:, 4]))

    @given(st.integers(1, 5), st.data())
    def test_agrees_with_table(self, width, data):
        table = data.draw(
            st.lists(st.integers(0, 1), min_size=1 << width, max_size=1 << width)
        )
        b = CircuitBuilder(width)
        c = b.build(append_dnf(b, table_minterms(table), list(range(width))))
        assert eval_on_rows(c, all_rows(width)).tolist() == table

    def test_append_on_subset_of_wires(self):
        b = CircuitBuilder(4)
        out = append_dnf(b, XOR_MINTERMS, [3, 1])  # xor of wires 3 and 1
        c = b.build(out)
        x = all_rows(4)
        assert np.array_equal(eval_on_rows(c, x), x[:, 3] ^ x[:, 1])


class TestJson:
    @given(circuits())
    def test_roundtrip(self, c):
        back = circuit_from_json(json.loads(canonical_json(circuit_to_json(c))))
        assert back.input_width == c.input_width
        assert back.output == c.output
        assert back.gates == c.gates

    def test_json_shape(self):
        b = CircuitBuilder(2)
        c = b.build(b.and_([0, b.const(1)]))
        obj = json.loads(canonical_json(circuit_to_json(c)))
        assert set(obj) == {"input_width", "gates", "output"}
        assert obj["gates"][0] == {"id": 0, "op": INPUT, "args": [], "input_index": 0}
        assert obj["gates"][2] == {"id": 2, "op": CONST, "args": [], "value": 1}

    def test_rejects_forward_reference(self):
        obj = {
            "input_width": 1,
            "gates": [
                {"id": 0, "op": INPUT, "args": [], "input_index": 0},
                {"id": 1, "op": NOT, "args": [2]},
                {"id": 2, "op": NOT, "args": [0]},
            ],
            "output": 1,
        }
        with pytest.raises(CircuitFormatError):
            circuit_from_json(obj)

    def test_rejects_sparse_ids(self):
        obj = {
            "input_width": 1,
            "gates": [{"id": 1, "op": INPUT, "args": [], "input_index": 0}],
            "output": 1,
        }
        with pytest.raises(CircuitFormatError):
            circuit_from_json(obj)

    def test_rejects_unknown_op_and_bad_arity(self):
        base = [{"id": 0, "op": INPUT, "args": [], "input_index": 0}]
        for bad in (
            {"id": 1, "op": "XOR", "args": [0]},
            {"id": 1, "op": NOT, "args": [0, 0]},
            {"id": 1, "op": AND, "args": []},
            {"id": 1, "op": CONST, "args": [], "value": 2},
            {"id": 1, "op": INPUT, "args": [], "input_index": 3},
        ):
            with pytest.raises(CircuitFormatError):
                circuit_from_json({"input_width": 1, "gates": base + [bad], "output": 1})

    def test_rejects_output_out_of_range(self):
        obj = {
            "input_width": 1,
            "gates": [{"id": 0, "op": INPUT, "args": [], "input_index": 0}],
            "output": 5,
        }
        with pytest.raises(CircuitFormatError):
            circuit_from_json(obj)

    def test_rejects_gate_that_is_not_an_object(self):
        with pytest.raises(CircuitFormatError):
            circuit_from_json({"input_width": 1, "gates": [5], "output": 0})

    def test_rejects_non_json_text(self, tmp_path):
        (tmp_path / "c.json").write_text("{not json")
        with pytest.raises(FileFormatError):
            read_json(str(tmp_path / "c.json"))


class TestNetlistRules:
    """Circuit checks its own gates, whoever builds it."""

    def test_argument_past_the_gate_refused(self):
        with pytest.raises(CircuitFormatError, match="earlier gates"):
            Circuit(2, (Gate(INPUT, (), 0), Gate(AND, (5,))), 1)

    @pytest.mark.parametrize("width,gates,output", [
        (1, (Gate(INPUT, (), 0), Gate("XOR", (0,))), 1),
        (1, (Gate(INPUT, (), 0), Gate(NOT, (1,))), 1),       # points at itself
        (1, (Gate(INPUT, (), 0), Gate(NOT, (-1,))), 1),
        (1, (Gate(INPUT, (), 0), Gate(NOT, (0, 0))), 1),
        (1, (Gate(INPUT, (), 0), Gate(OR, ())), 1),
        (1, (Gate(INPUT, (), 0), Gate(CONST, (), 2)), 1),
        (1, (Gate(INPUT, (), 0), Gate(CONST, (0,), 1)), 1),
        (1, (Gate(INPUT, (), 1),), 0),                       # wire past the width
        (1, (Gate(INPUT, (), 0),), 1),                       # output past the end
        (-1, (), 0),
    ])
    def test_malformed_netlists_refused(self, width, gates, output):
        with pytest.raises(CircuitFormatError):
            Circuit(width, gates, output)

    def test_builder_errors_surface_at_build(self):
        for append in (lambda b: b.const(2), lambda b: b.not_(7), lambda b: b.or_([0, 9])):
            b = CircuitBuilder(2)
            g = append(b)
            with pytest.raises(CircuitFormatError):
                b.build(g)
        with pytest.raises(CircuitFormatError, match="output"):
            CircuitBuilder(2).build(2)


class TestHashAndPickle:
    SRC = os.path.join(os.path.dirname(__file__), "..", "src")

    @given(circuits())
    def test_pickles_as_its_constructor_call(self, c):
        assert c.__reduce__() == (Circuit, (c.input_width, c.gates, c.output))
        back = pickle.loads(pickle.dumps(c))
        assert back == c and hash(back) == hash(c)

    def test_pickle_crosses_hash_seeds(self):
        # str hashes are salted per process, so a pickled hash would be stale
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        code = (
            "import pickle, sys; from ttpa.circuit import CircuitBuilder; "
            "b = CircuitBuilder(3); c = b.build(b.or_([0, b.not_(2)])); "
            "sys.stdout.buffer.write(pickle.dumps((hash(c), c)))"
        )
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": self.SRC}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, check=True
        ).stdout
        their_hash, theirs = pickle.loads(out)
        b = CircuitBuilder(3)
        ours = b.build(b.or_([0, b.not_(2)]))
        assert their_hash != hash(ours)
        assert theirs is not ours and {ours: "hit"}.get(theirs) == "hit"


class TestBuilder:
    def test_empty_fanin_rejected(self):
        # gates are appended unchecked; the netlist rules run at build()
        b = CircuitBuilder(1)
        g = b.and_([])
        with pytest.raises(CircuitFormatError):
            b.build(g)

    def test_not_and_const_are_deduplicated(self):
        b = CircuitBuilder(1)
        assert b.not_(0) == b.not_(0)
        assert b.const(1) == b.const(1)
        assert b.const(0) != b.const(1)

    def test_literal(self):
        b = CircuitBuilder(2)
        assert b.literal(1, True) == 1
        neg = b.literal(1, False)
        c = b.build(neg)
        assert eval_on_rows(c, [[0, 0]]).tolist() == [1]

    def test_wire_bounds(self):
        b = CircuitBuilder(2)
        with pytest.raises(InputShapeError):
            b.input(2)
