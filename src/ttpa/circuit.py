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

# widths where 2^width bitmask tricks stay cheap
_MAX_EXHAUSTIVE_WIDTH = 20


class Gate(NamedTuple):
    op: str
    args: tuple[int, ...] = ()
    aux: int = -1  # input wire for INPUT, value for CONST, unused otherwise


@dataclass(frozen=True, slots=True)
class Circuit:
    input_width: int
    gates: tuple[Gate, ...]
    output: int
    # length of the leading run where gate w is INPUT w; evaluation takes
    # those values straight from the input columns (derived, so it takes
    # no part in equality, hashing or repr)
    input_prefix: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        width = self.input_width
        if width < 0:
            raise CircuitFormatError(f"input width must be >= 0, got {width}")
        prefix = 0
        for pos, (op, args, aux) in enumerate(self.gates):
            if args and (min(args) < 0 or max(args) >= pos):
                raise CircuitFormatError(
                    f"gate {pos} arguments {args} must point at earlier gates"
                )
            if op == INPUT:
                if args or not 0 <= aux < width:
                    raise CircuitFormatError(f"INPUT gate {pos} malformed")
                if aux == prefix == pos:
                    prefix += 1
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
        object.__setattr__(self, "input_prefix", prefix)

    def __len__(self) -> int:
        return len(self.gates)


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

    def __len__(self) -> int:
        return len(self._gates)

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
    return value holds the output bit for each point.  The leading input
    gates are not walked: their values are the first columns themselves.
    """
    k = circ.input_prefix
    vals = list(cols[:k])
    append = vals.append
    for op, args, aux in circ.gates[k:]:
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


def eval_circuit(circ: Circuit, x: Sequence[int]) -> int:
    """Evaluate on a single input; x must hold exactly input_width 0/1 values."""
    if len(x) != circ.input_width:
        raise InputShapeError(
            f"input length {len(x)} != circuit width {circ.input_width}"
        )
    cols = as_bits(x, "input bits must be 0/1").tolist()
    return _eval_packed(circ, cols, 1)


def eval_on_rows(circ: Circuit, rows: np.ndarray) -> np.ndarray:
    """Evaluate on every row of a (points, width) bit matrix at once."""
    arr = np.asarray(rows)
    if arr.ndim != 2 or arr.shape[1] != circ.input_width:
        raise InputShapeError(
            f"row matrix shape {arr.shape} does not match circuit width "
            f"{circ.input_width}"
        )
    arr = as_bits(arr, "row entries must be bits")
    m = arr.shape[0]
    if m == 0:
        return np.zeros(0, dtype=np.uint8)
    out = _eval_packed(circ, pack_rows(arr), (1 << m) - 1)
    return _unpack_bits(out, m)


def exhaustive_columns(width: int) -> list[int]:
    """Packed wire columns enumerating all 2^width assignments.

    Bit i of column w is the value of wire w in assignment i, where
    assignment i sets the wires to the big-endian bits of i.
    """
    if not 1 <= width <= _MAX_EXHAUSTIVE_WIDTH:
        raise InputShapeError(f"exhaustive enumeration supports width 1..{_MAX_EXHAUSTIVE_WIDTH}")
    total = 1 << width
    cols = []
    for w in range(width):
        block = 1 << (width - 1 - w)
        period = 2 * block
        pattern = ((1 << block) - 1) << block
        reps = total // period
        cols.append(pattern * (((1 << (period * reps)) - 1) // ((1 << period) - 1)))
    return cols


def truth_table(circ: Circuit) -> int:
    """Output bits over all 2^width assignments, packed LSB-first by assignment."""
    width = circ.input_width
    return _eval_packed(circ, exhaustive_columns(width), (1 << (1 << width)) - 1)


def circuits_equivalent(a: Circuit, b: Circuit) -> bool:
    """Exact equivalence by exhaustive truth table (widths must match)."""
    if a.input_width != b.input_width:
        return False
    return truth_table(a) == truth_table(b)


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


def append_minterm_dnf(b: CircuitBuilder, table: Sequence[int], wires: Sequence[int]) -> int:
    """Append the canonical minterm DNF of a truth table onto existing wires.

    table[a] is the function value on the assignment whose big-endian
    encoding is a; wires maps the function's variables onto builder
    wires.  Returns the output gate id (a CONST 0 for the empty DNF).
    """
    nvars = len(wires)
    if len(table) != (1 << nvars):
        raise InputShapeError(
            f"table length {len(table)} != 2^{nvars}"
        )
    terms = []
    for a, v in enumerate(table):
        if v not in (0, 1):
            raise InputShapeError("truth table entries must be 0/1")
        if v:
            lits = [
                b.literal(wires[t], bool((a >> (nvars - 1 - t)) & 1))
                for t in range(nvars)
            ]
            terms.append(b.and_(lits) if len(lits) > 1 else lits[0])
    if not terms:
        return b.const(0)
    return b.or_(terms)


def _live_gates(circ: Circuit) -> bytearray:
    """needed[i] is 1 iff gate i is reachable from the output."""
    needed = bytearray(len(circ.gates))
    needed[circ.output] = 1
    for i in range(len(circ.gates) - 1, -1, -1):
        if needed[i]:
            for a in circ.gates[i].args:
                needed[a] = 1
    return needed


def _prune_dead(circ: Circuit) -> Circuit:
    """Rebuild keeping only gates reachable from the output."""
    needed = _live_gates(circ)
    b = CircuitBuilder(circ.input_width)
    remap = [0] * len(circ.gates)
    for i, (op, args, aux) in enumerate(circ.gates):
        if not needed[i]:
            continue
        if op == INPUT:
            remap[i] = b.input(aux)
        elif op == CONST:
            remap[i] = b.const(aux)
        elif op == NOT:
            remap[i] = b.not_(remap[args[0]])
        elif op == AND:
            remap[i] = b.and_(remap[a] for a in args)
        else:
            remap[i] = b.or_(remap[a] for a in args)
    return b.build(remap[circ.output])


def constant_fold(circ: Circuit) -> Circuit:
    """Propagate constants, drop dead gates, and collapse trivial gates.

    The result is semantically equivalent and never larger (in size or
    depth).  Constants absorbed by AND/OR disappear; single-argument
    AND/OR become aliases; unreachable gates are pruned, including ones
    orphaned by the propagation itself.
    """
    needed = _live_gates(circ)
    b = CircuitBuilder(circ.input_width)
    # each needed gate folds to ("c", bit) or ("g", new id)
    folded: list[tuple[str, int] | None] = [None] * len(circ.gates)
    for i, (op, args, aux) in enumerate(circ.gates):
        if not needed[i]:
            continue
        if op == INPUT:
            folded[i] = ("g", b.input(aux))
        elif op == CONST:
            folded[i] = ("c", aux)
        elif op == NOT:
            kind, v = folded[args[0]]
            folded[i] = ("c", 1 - v) if kind == "c" else ("g", b.not_(v))
        else:
            absorb = 0 if op == AND else 1
            new_args: list[int] = []
            seen: set[int] = set()
            dead = False
            for a in args:
                kind, v = folded[a]
                if kind == "c":
                    if v == absorb:
                        folded[i] = ("c", absorb)
                        dead = True
                        break
                elif v not in seen:
                    seen.add(v)
                    new_args.append(v)
            if dead:
                continue
            if not new_args:
                folded[i] = ("c", 1 - absorb)
            elif len(new_args) == 1:
                folded[i] = ("g", new_args[0])
            else:
                folded[i] = ("g", b.and_(new_args) if op == AND else b.or_(new_args))

    kind, v = folded[circ.output]
    # A gate emitted early can be orphaned when its consumer later absorbs
    # to a constant, so a final liveness pass is required for idempotence.
    return _prune_dead(b.build(b.const(v) if kind == "c" else v))


def circuit_to_json(circ: Circuit) -> dict:
    gates = []
    for i, (op, args, aux) in enumerate(circ.gates):
        g: dict = {"id": i, "op": op, "args": list(args)}
        if op == INPUT:
            g["input_index"] = aux
        elif op == CONST:
            g["value"] = aux
        gates.append(g)
    return {"input_width": circ.input_width, "gates": gates, "output": circ.output}


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
