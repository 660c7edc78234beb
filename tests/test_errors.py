import math

import numpy as np
import pytest

from ttpa.errors import FileFormatError, InputShapeError, as_bits, canonical_json


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
