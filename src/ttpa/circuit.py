"""Boolean circuits as flat netlists.

A circuit is an immutable list of gates in topological order (every gate
argument points at an earlier gate), a fixed input width, and one output
gate.  INPUT gates carry a wire index, CONST gates carry 0/1, and
AND/OR gates have unbounded fan-in (>= 1).

Size counts AND/OR/NOT gates.  Depth counts AND/OR layers on the longest
input-to-output path; NOT gates are free, i.e. negations are treated as
pushed onto literals.  Multi-bit values are big-endian throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import CircuitFormatError, InputShapeError, as_bits

INPUT = "INPUT"
CONST = "CONST"
NOT = "NOT"
AND = "AND"
OR = "OR"

# JSON field holding a gate's aux value, by op
_AUX_FIELDS = {INPUT: "input_index", CONST: "value"}
_SERIALS = itertools.count()  # Circuit.serial

class Gate(NamedTuple):
    op: str
    args: tuple[int, ...] = ()
    aux: int = -1  # input wire for INPUT, value for CONST, unused otherwise


@dataclass(frozen=True, slots=True)
class Circuit:
    input_width: int
    gates: tuple[Gate, ...]
    output: int
    # the next number in this process, never reused: answer memos key on it
    serial: int = field(default_factory=_SERIALS.__next__, init=False, compare=False, repr=False)

    def __post_init__(self):
        width = self.input_width
        if width < 0:
            raise CircuitFormatError(f"input width must be >= 0, got {width}")
        for pos, (op, args, aux) in enumerate(self.gates):
            if args and (min(args) < 0 or max(args) >= pos):
                raise CircuitFormatError(
                    f"gate {pos} arguments {args} must point at earlier gates"
                )
            if op == INPUT:
                if args or not 0 <= aux < width:
                    raise CircuitFormatError(f"INPUT gate {pos} malformed")
            elif op == CONST:
                if args or aux not in (0, 1):
                    raise CircuitFormatError(f"CONST gate {pos} malformed")
            elif op == NOT:
                if len(args) != 1:
                    raise CircuitFormatError(f"NOT gate {pos} needs exactly one argument")
            elif op == AND or op == OR:
                if not args:
                    raise CircuitFormatError(f"{op} gate {pos} needs fan-in >= 1")
            else:
                raise CircuitFormatError(f"unknown op {op!r}")
        if not 0 <= self.output < len(self.gates):
            raise CircuitFormatError(f"output gate {self.output} out of range")

    def __reduce__(self):
        # rebuilt by the constructor: an unpickled circuit takes a fresh serial
        return Circuit, (self.input_width, self.gates, self.output)


@dataclass(frozen=True, slots=True)
class CircuitMetrics:
    size: int   # number of AND/OR/NOT gates
    depth: int  # AND/OR layers on the longest path; NOT gates free


class CircuitBuilder:
    """Append-only netlist builder; gate ids are list positions.

    Input gates for all wires are created up front, so wire w is gate w.
    NOT and CONST gates are deduplicated (they are pure and cheap to
    share); AND/OR gates are not.  Gates are appended unchecked: build()
    hands them to Circuit, which refuses a netlist that breaks its rules.
    """

    def __init__(self, input_width: int):
        self._width = input_width
        self._gates: list[Gate] = [Gate(INPUT, (), w) for w in range(input_width)]
        self._not_cache: dict[int, int] = {}
        self._const_cache: dict[int, int] = {}

    def input(self, wire: int) -> int:
        # a wire past the width would alias a later gate, which the
        # netlist rules in Circuit cannot tell apart from a real argument
        if not 0 <= wire < self._width:
            raise InputShapeError(f"input wire {wire} outside width {self._width}")
        return wire

    def const(self, value: int) -> int:
        got = self._const_cache.get(value)
        if got is None:
            got = self._append(Gate(CONST, (), value))
            self._const_cache[value] = got
        return got

    def not_(self, arg: int) -> int:
        got = self._not_cache.get(arg)
        if got is None:
            got = self._append(Gate(NOT, (arg,)))
            self._not_cache[arg] = got
        return got

    def and_(self, args: Iterable[int]) -> int:
        return self._append(Gate(AND, tuple(args)))

    def or_(self, args: Iterable[int]) -> int:
        return self._append(Gate(OR, tuple(args)))

    def literal(self, wire: int, positive: bool) -> int:
        w = self.input(wire)
        return w if positive else self.not_(w)

    def build(self, output: int) -> Circuit:
        """The netlist so far; Circuit refuses any gate that breaks its rules."""
        return Circuit(self._width, tuple(self._gates), output)

    def _append(self, gate: Gate) -> int:
        self._gates.append(gate)
        return len(self._gates) - 1


def _eval_packed(circ: Circuit, cols: Sequence[int], mask: int) -> int:
    """Forward pass with one machine word (or bigint) per gate.

    cols[w] holds the bits of wire w across all evaluation points; the
    return value holds the output bit for each point.
    """
    vals: list[int] = []
    append = vals.append
    for op, args, aux in circ.gates:
        if op == AND:
            v = vals[args[0]]
            for a in args[1:]:
                v &= vals[a]
        elif op == OR:
            v = vals[args[0]]
            for a in args[1:]:
                v |= vals[a]
        elif op == NOT:
            v = vals[args[0]] ^ mask
        elif op == INPUT:
            v = cols[aux]
        else:
            v = mask if aux else 0
        append(v)
    return vals[circ.output]


def pack_rows(rows: np.ndarray) -> list[int]:
    """Pack a (points, width) bit matrix into one int per wire (column)."""
    arr = np.asarray(rows)
    if arr.ndim != 2:
        raise InputShapeError("expected a 2-d bit matrix")
    arr = as_bits(arr, "row entries must be bits")
    return [
        int.from_bytes(np.packbits(arr[:, w], bitorder="little").tobytes(), "little")
        for w in range(arr.shape[1])
    ]


def _unpack_bits(value: int, count: int) -> np.ndarray:
    buf = np.frombuffer(value.to_bytes((count + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(buf, bitorder="little")[:count]


def eval_on_rows(circ: Circuit, rows: np.ndarray) -> np.ndarray:
    """Evaluate on every row of a (points, width) bit matrix at once."""
    arr = np.asarray(rows)
    if arr.ndim != 2 or arr.shape[1] != circ.input_width:
        raise InputShapeError(
            f"row matrix shape {arr.shape} does not match circuit width "
            f"{circ.input_width}"
        )
    m = arr.shape[0]
    out = _eval_packed(circ, pack_rows(arr), (1 << m) - 1)
    return _unpack_bits(out, m)


def circuit_metrics(circ: Circuit) -> CircuitMetrics:
    depths = [0] * len(circ.gates)
    size = 0
    for i, (op, args, _aux) in enumerate(circ.gates):
        if op == AND or op == OR:
            size += 1
            d = 0
            for a in args:
                if depths[a] > d:
                    d = depths[a]
            depths[i] = d + 1
        elif op == NOT:
            size += 1
            depths[i] = depths[args[0]]
    return CircuitMetrics(size=size, depth=depths[circ.output])


def append_dnf(b: CircuitBuilder, minterms: Sequence[Sequence[bool]], wires: Sequence[int]) -> int:
    """Append the DNF with these minterms onto existing wires.

    Each minterm holds one literal sign per variable (True for the
    variable, False for its negation), and wires maps the variables onto
    builder wires.  Returns the output gate id (a CONST 0 for the empty
    DNF).
    """
    wires = [b.input(w) for w in wires]  # checked once, not once per literal
    terms = []
    for signs in minterms:
        lits = [w if positive else b.not_(w) for w, positive in zip(wires, signs, strict=True)]
        terms.append(b.and_(lits) if len(lits) > 1 else lits[0])
    return b.or_(terms) if terms else b.const(0)


GATE_PIECE = 256  # gates circuit_to_json gives write_json a piece


def _gate_json(i: int, gate: Gate) -> dict:
    op, args, aux = gate
    g: dict = {"id": i, "op": op, "args": list(args)}
    if op in _AUX_FIELDS:
        g[_AUX_FIELDS[op]] = aux
    return g


def circuit_to_json(circ: Circuit) -> dict:
    """The netlist file's object; its gates are pieces, for write_json."""
    gates = circ.gates
    pieces = (
        [_gate_json(i, gates[i]) for i in range(lo, min(lo + GATE_PIECE, len(gates)))]
        for lo in range(0, len(gates), GATE_PIECE)
    )
    return {"input_width": circ.input_width, "gates": pieces, "output": circ.output}


def circuit_from_json(obj: dict) -> Circuit:
    """Parse a netlist object; Circuit checks the gates it gets."""
    try:
        width = int(obj["input_width"])
        output = int(obj["output"])
        gates: list[Gate] = []
        for pos, g in enumerate(obj["gates"]):
            if int(g.get("id", -1)) != pos:
                raise CircuitFormatError(
                    f"gate ids must be dense from 0; got {g.get('id')!r} at {pos}"
                )
            op = g.get("op")
            aux = int(g.get(_AUX_FIELDS[op], -1)) if op in _AUX_FIELDS else -1
            gates.append(Gate(op, tuple(int(a) for a in g.get("args", ())), aux))
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise CircuitFormatError(f"malformed netlist: {e}") from e
    return Circuit(width, tuple(gates), output)
