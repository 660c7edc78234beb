import json
import math

import numpy as np
import pytest

from ttpa.attack import AttackConfig, dp_audit, run_attack
from ttpa.circuit import circuit_to_json
from ttpa.crypto import FOLDED, LITERAL, LOCAL_PRG, prg_params_gen
from ttpa.errors import (
    FileFormatError,
    InputShapeError,
    as_bits,
    canonical_json,
    write_json,
)
from ttpa.fpcode import adversary_view_json, codebook_to_json, fp_gen
from ttpa.seeds import stream
from ttpa.ttscheme import keyset_to_json, tt_dec_circuit, tt_enc, tt_gen


class TestAsBits:
    def test_uint8_bits_pass_uncopied(self):
        arr = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        assert as_bits(arr, "x") is arr

    @pytest.mark.parametrize(
        "values",
        [
            [0, 1, 1],
            np.array([False, True, True]),
            np.array([0.0, 1.0, 1.0]),
            np.array([0, 1, 1], dtype=np.int64),
            np.array([0, 1, 1], dtype=np.int8),
        ],
    )
    def test_other_dtypes_cast_after_the_check(self, values):
        bits = as_bits(values, "x")
        assert bits.dtype == np.uint8 and bits.tolist() == [0, 1, 1]

    @pytest.mark.parametrize(
        "values",
        [
            np.array([0, 2], dtype=np.uint8),
            np.array([0, 256]),
            np.array([0, 257]),
            np.array([0.9, 1.0]),
            np.array([0.0, np.nan]),
            np.array([-1, 0], dtype=np.int8),
            [[1, 0], [0, 256]],
        ],
    )
    def test_non_bits_raise_the_callers_error(self, values):
        with pytest.raises(InputShapeError, match="^entries must be bits$"):
            as_bits(values, "entries must be bits")
        with pytest.raises(FileFormatError, match="row 3"):
            as_bits(values, "row 3", FileFormatError)

    def test_empty_arrays_pass(self):
        for values in (np.zeros(0, dtype=np.uint8), np.zeros((0, 4)), []):
            assert as_bits(values, "x").size == 0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_canonical_json_refuses_non_finite_numbers(value):
    # NaN and Infinity are not RFC 8259 JSON: a report holding one is a
    # program fault, not bad input
    with pytest.raises(RuntimeError, match="not JSON") as info:
        canonical_json({"scale": value})
    assert not isinstance(info.value, ValueError)


def artifacts() -> dict:
    """Each kind of artifact a command writes, as a maker of its object.

    An object holds iterators of pieces, which writing uses up, so each
    check makes it twice.  Sizes span more than one piece: 1,455 biases,
    1,500 key rows and a literal netlist of about 28,700 gates.
    """
    cb = fp_gen(11, 0.2, stream(6, "artifact-cb"), a=3.0)
    ks = tt_gen(24, 1500, LOCAL_PRG, stream(6, "artifact-ks"), prg=prg_params_gen(6, 12))
    small = tt_gen(16, 3, LOCAL_PRG, stream(6, "artifact-small"))
    ct = tt_enc(small, 1, stream(6, "artifact-ct"))
    [folded], [literal] = (tt_dec_circuit(ct, small.params, mode) for mode in (FOLDED, LITERAL))
    report = run_attack(AttackConfig(n=3, kappa=16, eps_fp=0.2, a=2.0, trials=3, seed=6))
    return {
        "codebook": lambda: codebook_to_json(cb),
        "view": lambda: adversary_view_json(cb, [2, 10, 0]),
        "keys": lambda: keyset_to_json(ks),
        "folded": lambda: circuit_to_json(folded),
        "literal": lambda: circuit_to_json(literal),
        "report": lambda: report.to_dict(dp_audit(report, 1.0, 0.01)),
    }


def test_written_file_holds_the_canonical_bytes(tmp_path):
    # a piece at a time, as the one list or dict the pieces join into: the
    # view's words arrive keyed "0", "10", "2", as canonical JSON sorts them
    for kind, make in artifacts().items():
        path = tmp_path / f"{kind}.json"
        write_json(make(), str(path))
        assert path.read_text() == canonical_json(make()) + "\n", kind
    assert list(json.loads((tmp_path / "view.json").read_text())["words"]) == ["0", "10", "2"]


@pytest.mark.parametrize("obj", [
    {"a": 1, "b": math.nan},
    {"a": iter([[1.0], [2.0, math.inf]])},  # fails after a piece is written
    {"a": iter([{"u": 1}, {"v": {1, 2}}])},  # a set is not JSON
])
def test_failed_write_leaves_no_file(tmp_path, obj):
    path = tmp_path / "x.json"
    with pytest.raises((RuntimeError, TypeError)):
        write_json(obj, str(path))
    assert not path.exists()


def test_failed_write_through_a_link_keeps_the_link(tmp_path):
    # a path such as /dev/stdout is a link to what the caller opened: removing
    # it would remove the link, not what was written
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("")
    link.symlink_to(target)
    with pytest.raises(RuntimeError):
        write_json({"a": math.nan}, str(link))
    assert link.is_symlink() and target.exists()


def test_pieces_join_into_one_value(tmp_path):
    # empty pieces add nothing, and no pieces at all make an empty list
    def make():
        return {"l": iter([[], [1], [], [2, 3]]), "d": iter([{"a": 1}, {"b": [2]}]), "e": iter([])}

    want = '{"d":{"a":1,"b":[2]},"e":[],"l":[1,2,3]}'
    assert canonical_json(make()) == want
    write_json(make(), str(tmp_path / "x.json"))
    assert (tmp_path / "x.json").read_text() == want + "\n"
