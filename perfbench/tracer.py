"""Span tracer that times ttpa's layers from outside the package.

Each traced function is replaced, at the module or class attribute its
callers look it up through, by a wrapper that records one span: a name,
start and end times, the enclosing span, and an optional amount (work
done by the call, such as ciphertexts encrypted or gates evaluated).
Spans live in compact in-memory arrays until the run ends.  Use the
tracer as a context manager: leaving it puts every original back.

A span's self time is its duration minus the durations of its direct
children, so the self times along one call tree add up to the root's
duration without double counting.  A wrapper's own bookkeeping runs
outside its span but inside the caller's, so the tracer measures that
cost per span when it is made and takes it out of each caller's self
time again (``LayerTotals.tracer_s``).
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

import numpy as np

# import_module, because the package re-exports a function named sanitize
attack, cli, crypto, fpcode, sanitize, seeds, ttscheme = (
    import_module(f"ttpa.{m}")
    for m in ("attack", "cli", "crypto", "fpcode", "sanitize", "seeds", "ttscheme")
)
PirateOracle, TTDecQueryFamily = ttscheme.PirateOracle, ttscheme.TTDecQueryFamily

ROUND = "round"  # one call of a workload's run_round, the root of its spans

# What a traced call did, read from its arguments and result.
Amount = Callable[[tuple, object], float]


def _ciphertexts(args, _result) -> float:
    return np.shape(args[1])[1]


def _rows(args, _result) -> float:
    return np.shape(args[1])[0]


def _gates(args, _result) -> float:
    return len(args[0].gates)


def _code_length(_args, result) -> float:
    return result.ell


def _noop() -> None:
    pass


def _no_amount(_args, _result) -> float:
    return 0.0


CALIBRATION_CALLS = 20_000
CALIBRATION_REPEATS = 7


@dataclass(frozen=True)
class Target:
    owner: object       # module or class holding the attribute
    attr: str
    name: str           # span name, "<layer>.<function>"
    amount: Amount | None = None


# Every attribute a caller on the benchmarked paths resolves at call
# time.  A function imported into several modules is wrapped in each,
# under one span name.
TARGETS = (
    Target(attack, "tt_gen", "ttscheme.tt_gen"),
    Target(ttscheme, "tt_gen", "ttscheme.tt_gen"),
    Target(ttscheme, "tr_enc", "ttscheme.tr_enc", _ciphertexts),
    Target(ttscheme, "enc_encrypt_many", "crypto.enc_encrypt_many"),
    Target(TTDecQueryFamily, "from_ciphertexts", "ttscheme.family_build"),
    Target(TTDecQueryFamily, "evaluate_on_rows", "ttscheme.family_eval", _rows),
    Target(ttscheme, "prg_expand", "crypto.prg_expand"),
    Target(attack, "tt_trace_report", "ttscheme.trace"),
    Target(ttscheme, "linear_scan_report", "ttscheme.trace"),
    Target(PirateOracle, "answer", "ttscheme.pirate_answer"),
    Target(ttscheme, "fp_gen", "fpcode.fp_gen", _code_length),
    Target(ttscheme, "fp_trace", "fpcode.fp_trace"),
    Target(attack, "fp_feasible", "fpcode.fp_feasible"),
    Target(attack, "evaluate_batch", "sanitize.evaluate_batch"),
    Target(sanitize, "evaluate_batch", "sanitize.evaluate_batch"),
    Target(sanitize, "evaluate_query", "sanitize.evaluate_query", _gates),
    Target(attack, "sanitize_truths", "sanitize.sanitize_truths"),
    Target(sanitize, "sanitize_truths", "sanitize.sanitize_truths"),
    Target(sanitize, "pack_rows", "circuit.pack_rows"),
    Target(attack, "pirate_from_sanitizer", "attack.pirate_from_sanitizer"),
    Target(cli, "dp_audit", "attack.dp_audit"),
    Target(cli, "canonical_json", "cli.report_io"),
    Target(cli, "emit_summary", "cli.report_io"),
    Target(crypto, "prg_params_gen", "crypto.prg_params_gen"),
    Target(attack, "prg_params_gen", "crypto.prg_params_gen"),
    Target(ttscheme, "prg_params_gen", "crypto.prg_params_gen"),
    Target(seeds, "stream", "seeds.stream"),
    Target(attack, "stream", "seeds.stream"),
    Target(cli, "stream", "seeds.stream"),
    Target(crypto, "stream", "seeds.stream"),
    Target(fpcode, "stream", "seeds.stream"),
    Target(sanitize, "stream", "seeds.stream"),
)


class Tracer:
    """Records spans for the TARGETS while installed (single-threaded use).

    It can be installed and removed any number of times; the spans of
    every installation accumulate.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.with_amount: list[bool] = []  # by name id
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.amount = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # seconds each span adds to its caller, without and with an amount
        self.span_cost = (self._calibrate(None), self._calibrate(_no_amount))
        self._clear()

    def _clear(self) -> None:
        """Forget every name and span (in place: wrappers hold the stack)."""
        self.names.clear()
        self._ids.clear()
        self.with_amount.clear()
        for a in (self.name_id, self.start, self.end, self.parent, self.amount):
            del a[:]
        self._stack.clear()

    def _calibrate(self, amount: Amount | None) -> float:
        """Median seconds a wrapped call spends outside its own span beyond
        what the unwrapped call costs: the tracer's cost that lands in the
        caller's self time."""
        wrapped = self.span("calibration", _noop, amount)
        clock, calls = time.perf_counter, range(CALIBRATION_CALLS)
        costs = []
        for _ in range(CALIBRATION_REPEATS):
            self._clear()
            t0 = clock()
            for _ in calls:
                _noop()
            raw = clock() - t0
            t0 = clock()
            for _ in calls:
                wrapped()
            outside = clock() - t0 - (math.fsum(self.end) - math.fsum(self.start))
            costs.append((outside - raw) / CALIBRATION_CALLS)
        return statistics.median(costs)

    def _id(self, name: str, amount: Amount | None) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.with_amount.append(amount is not None)
        return self._ids[name]

    def span(self, name: str, fn: Callable, amount: Amount | None = None) -> Callable:
        """fn wrapped so that every call records one span called name."""
        nid = self._id(name, amount)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.amount.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if amount is not None:
                self.amount[idx] = amount(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        """Install the wrappers."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for t in TARGETS:
            raw = t.owner.__dict__[t.attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.span(t.name, raw.__func__, t.amount))
            else:
                wrapped = self.span(t.name, raw, t.amount)
            self._saved.append((t.owner, t.attr, raw))
            setattr(t.owner, t.attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        """Put every original function back."""
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "amount": np.frombuffer(self.amount, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


@dataclass(frozen=True)
class LayerTotals:
    """Per-name sums over the spans recorded inside round spans."""

    round_seconds: float
    tracer_s: float  # the tracer's own cost, taken out of the self times
    self_s: dict[str, float]
    total_s: dict[str, float]
    calls: dict[str, int]
    amount: dict[str, float]

    @property
    def coverage(self) -> float:
        """Share of round wall time the layer spans and the tracer account for."""
        inner = sum(v for k, v in self.self_s.items() if k != ROUND)
        return (inner + self.tracer_s) / self.round_seconds if self.round_seconds else 0.0


def layer_totals(tr: Tracer) -> LayerTotals:
    a = tr.arrays()
    n = a["start"].shape[0]
    names = tr.names
    if ROUND not in names:
        return LayerTotals(0.0, 0.0, {}, {}, {}, {})
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    plain, with_amount = tr.span_cost
    cost = np.where(np.array(tr.with_amount)[a["name_id"]], with_amount, plain)
    charged = np.bincount(parent[has_parent], weights=cost[has_parent], minlength=n)
    self_time = dur - child - charged
    # parents precede children, so pointer jumping reaches each root
    root = np.where(has_parent, parent, np.arange(n))
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    round_id = names.index(ROUND)
    in_round = a["name_id"][root] == round_id
    ids = a["name_id"][in_round]
    k = len(names)

    def by_name(values: np.ndarray) -> np.ndarray:
        return np.bincount(ids, weights=values[in_round], minlength=k)

    self_s, total_s, amount = by_name(self_time), by_name(dur), by_name(a["amount"])
    calls = np.bincount(ids, minlength=k)
    is_round = a["name_id"] == round_id
    return LayerTotals(
        round_seconds=float(dur[is_round].sum()),
        tracer_s=float(charged[in_round].sum()),
        self_s={nm: float(self_s[i]) for i, nm in enumerate(names)},
        total_s={nm: float(total_s[i]) for i, nm in enumerate(names)},
        calls={nm: int(calls[i]) for i, nm in enumerate(names)},
        amount={nm: float(amount[i]) for i, nm in enumerate(names)},
    )


def span_durations(tr: Tracer, name: str) -> list[float]:
    """Durations of every span called name, in or out of rounds."""
    if name not in tr._ids:
        return []
    nid = tr._ids[name]
    return [e - s for i, s, e in zip(tr.name_id, tr.start, tr.end) if i == nid]
