import itertools
import json

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
    append_minterm_dnf,
    circuit_from_json,
    circuit_metrics,
    circuit_to_json,
    circuits_equivalent,
    constant_fold,
    eval_circuit,
    eval_on_rows,
    exhaustive_columns,
    pack_rows,
    truth_table,
)
from ttpa.crypto import xor_and_table
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
        assert eval_circuit(c, (1, 1)) == 1
        assert [eval_circuit(c, r) for r in all_rows(2)] == [0, 0, 0, 1]

    def test_not(self):
        b = CircuitBuilder(1)
        c = b.build(b.not_(0))
        assert eval_circuit(c, (0,)) == 1
        assert eval_circuit(c, (1,)) == 0

    def test_or_and_not_hand_value(self):
        b = CircuitBuilder(3)
        c = b.build(b.or_([b.and_([0, 1]), b.not_(2)]))
        assert eval_circuit(c, (0, 1, 1)) == 0

    def test_width_and_bit_validation(self):
        b = CircuitBuilder(2)
        c = b.build(b.and_([0, 1]))
        with pytest.raises(InputShapeError):
            eval_circuit(c, (1,))
        with pytest.raises(InputShapeError):
            eval_circuit(c, (1, 2))

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
        assert bulk.tolist() == [eval_circuit(c, r) for r in rows]

    @given(circuits(max_width=5))
    def test_truth_table_matches_brute_force(self, c):
        tt = truth_table(c)
        rows = all_rows(c.input_width)
        want = [eval_circuit(c, r) for r in rows]
        got = [(tt >> i) & 1 for i in range(len(rows))]
        assert got == want

    @given(json_netlists(), st.data())
    def test_any_gate_order_matches_reference_walk(self, obj, data):
        c = circuit_from_json(obj)
        prefix = 0
        while prefix < len(obj["gates"]) and obj["gates"][prefix].get("input_index") == prefix:
            prefix += 1
        assert c.input_prefix == prefix
        width = c.input_width
        m = data.draw(st.integers(1, 11))
        cols = data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=width, max_size=width))
        packed = _eval_packed(c, cols, (1 << m) - 1)
        for i in range(m):
            point = [(col >> i) & 1 for col in cols]
            assert (packed >> i) & 1 == reference_eval(c, point)
        rows = np.array([[(col >> i) & 1 for col in cols] for i in range(m)], dtype=np.uint8)
        assert eval_on_rows(c, rows).tolist() == [reference_eval(c, r) for r in rows]
        tt = truth_table(c)
        assert [(tt >> i) & 1 for i in range(1 << width)] == [
            reference_eval(c, r) for r in all_rows(width)
        ]

    def test_input_prefix_takes_no_part_in_equality(self):
        b = CircuitBuilder(4)
        c = b.build(b.input(3))
        other = Circuit(c.input_width, c.gates, c.output)
        object.__setattr__(other, "input_prefix", 0)
        assert (c.input_prefix, other.input_prefix) == (4, 0)
        assert c == other
        assert hash(c) == hash(other)
        assert repr(c) == repr(other)
        assert "input_prefix" not in repr(c)

    def test_exhaustive_columns_are_assignment_bits(self):
        width = 4
        cols = exhaustive_columns(width)
        rows = all_rows(width)
        for w, col in enumerate(cols):
            want = rows[:, w]
            got = [(col >> i) & 1 for i in range(len(rows))]
            assert got == want.tolist()

    def test_pack_rows_roundtrip(self):
        rows = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        cols = pack_rows(rows)
        assert [(c & 1, (c >> 1) & 1) for c in cols] == [(1, 0), (0, 1), (1, 1)]

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
        with pytest.raises(InputShapeError, match="input bits must be 0/1"):
            eval_circuit(c, [1, bad])


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


class TestDnf:
    def test_xor_two_terms_depth_two(self):
        b = CircuitBuilder(2)
        c = b.build(append_minterm_dnf(b, [0, 1, 1, 0], [0, 1]))
        m = circuit_metrics(c)
        assert m.depth == 2
        ands = sum(1 for g in c.gates if g.op == AND)
        assert ands == 2
        assert [eval_circuit(c, r) for r in all_rows(2)] == [0, 1, 1, 0]

    def test_constant_zero_table(self):
        b = CircuitBuilder(2)
        c = b.build(append_minterm_dnf(b, [0, 0, 0, 0], [0, 1]))
        assert c.gates[c.output].op == CONST
        assert truth_table(c) == 0

    def test_xor_and_predicate_16_terms(self):
        b = CircuitBuilder(5)
        c = b.build(append_minterm_dnf(b, xor_and_table(5).tolist(), list(range(5))))
        assert sum(1 for g in c.gates if g.op == AND) == 16
        for row in all_rows(5):
            assert eval_circuit(c, row) == row[0] ^ row[1] ^ row[2] ^ (row[3] & row[4])

    @given(st.integers(1, 5), st.data())
    def test_agrees_with_table(self, width, data):
        table = data.draw(
            st.lists(st.integers(0, 1), min_size=1 << width, max_size=1 << width)
        )
        b = CircuitBuilder(width)
        c = b.build(append_minterm_dnf(b, table, list(range(width))))
        assert [eval_circuit(c, r) for r in all_rows(width)] == table

    def test_append_on_subset_of_wires(self):
        b = CircuitBuilder(4)
        out = append_minterm_dnf(b, [0, 1, 1, 0], [3, 1])  # xor of wires 3 and 1
        c = b.build(out)
        for row in all_rows(4):
            assert eval_circuit(c, row) == row[3] ^ row[1]


class TestConstantFold:
    def test_or_with_const_zero_passthrough(self):
        b = CircuitBuilder(1)
        c = b.build(b.or_([b.const(0), 0]))
        folded = constant_fold(c)
        assert circuit_metrics(folded).size == 0
        assert circuits_equivalent(c, folded)

    def test_and_with_const_zero_absorbs(self):
        b = CircuitBuilder(3)
        sub = b.or_([b.and_([0, 1]), 2])
        c = b.build(b.and_([b.const(0), sub]))
        folded = constant_fold(c)
        assert folded.gates[folded.output] == Gate(CONST, (), 0)

    @given(circuits())
    def test_fold_preserves_semantics_and_never_grows(self, c):
        folded = constant_fold(c)
        assert circuits_equivalent(c, folded)
        assert circuit_metrics(folded).size <= circuit_metrics(c).size
        assert circuit_metrics(folded).depth <= circuit_metrics(c).depth

    @given(circuits())
    def test_fold_is_idempotent_on_size(self, c):
        once = constant_fold(c)
        twice = constant_fold(once)
        assert circuit_metrics(twice).size == circuit_metrics(once).size


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
        obj = circuit_to_json(c)
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
        assert eval_circuit(c, (0, 0)) == 1

    def test_wire_bounds(self):
        b = CircuitBuilder(2)
        with pytest.raises(InputShapeError):
            b.input(2)


class TestEquivalence:
    def test_same_function_different_shape(self):
        b1 = CircuitBuilder(2)
        c1 = b1.build(b1.and_([0, 1]))
        b2 = CircuitBuilder(2)
        c2 = b2.build(b2.not_(b2.or_([b2.not_(0), b2.not_(1)])))
        assert circuits_equivalent(c1, c2)

    def test_detects_difference(self):
        b1 = CircuitBuilder(2)
        c1 = b1.build(b1.and_([0, 1]))
        b2 = CircuitBuilder(2)
        c2 = b2.build(b2.or_([0, 1]))
        assert not circuits_equivalent(c1, c2)

    def test_width_mismatch(self):
        b1 = CircuitBuilder(1)
        c1 = b1.build(b1.input(0))
        b2 = CircuitBuilder(2)
        c2 = b2.build(b2.input(0))
        assert not circuits_equivalent(c1, c2)
