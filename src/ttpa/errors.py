"""Shared exception types, the allocation limit, and the codec every file format shares.

Everything derives from ValueError so callers that only care about
"bad input" can catch one thing; the CLI maps these to exit code 2.
Every size the library allocates from its inputs is counted and passed
to check_alloc before the allocation.  Every JSON artifact and report
is canonical JSON, whose files write_json writes and read_json reads;
every bit row is one hex string (bits_to_hex, bits_from_hex), and every
bit array is checked by as_bits.
"""

import json
import math
import os
import stat
from collections.abc import Iterator

import numpy as np


class InputShapeError(ValueError):
    """A bit vector, matrix, or circuit input has the wrong width or values."""


# largest array, or set of arrays held at once, the library allocates
# before refusing: a PRG draw, a key set, a tracing batch, a codebook,
# Laplace noise or a run's records
MAX_ALLOC_BYTES = 2 << 30


def check_alloc(need: int, what: str) -> int:
    """need, the bytes what would hold, or InputShapeError past MAX_ALLOC_BYTES."""
    if need > MAX_ALLOC_BYTES:
        # an int past float range (a code length near it times n) divides to an OverflowError
        gib = need / 2**30 if need < 1 << 1000 else math.inf
        raise InputShapeError(
            f"{what} would hold about {gib:.1f} GiB,"
            f" over the {MAX_ALLOC_BYTES / 2**30:.0f} GiB limit"
        )
    return need


class CircuitFormatError(ValueError):
    """A netlist (in-memory or JSON) violates the circuit format rules."""


class MalformedCiphertextError(ValueError):
    """A ciphertext index/nonce is outside the range the key admits."""


class UnsupportedSchemeError(ValueError):
    """The operation is undefined for this encryption scheme (no small circuit)."""


class OneShotViolationError(RuntimeError):
    """A single-use decoder oracle was queried more than once."""


class FileFormatError(ValueError):
    """An on-disk artifact (database, codebook, key set) failed to parse."""


class SanitizerFailure(RuntimeError):
    """The wrapped sanitizer errored while answering a tracing batch.

    Experiment runners record this as an availability violation for the
    trial instead of aborting the whole run.
    """


def _join_pieces(value):
    """An iterator of pieces as the one list or dict they join into (json's default hook)."""
    if not isinstance(value, Iterator):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    pieces = list(value)
    if pieces and isinstance(pieces[0], dict):
        return {key: v for piece in pieces for key, v in piece.items()}
    return [item for piece in pieces for item in piece]


def canonical_json(obj) -> str:
    """Sorted keys, no whitespace: the same object always gives the same bytes.

    An iterator of pieces, lists or dicts, is written as the one list or
    dict they join into, as write_json writes it.  Only RFC 8259 JSON is
    written: a NaN or infinite number is a program fault, raised as
    RuntimeError (exit 1), since inputs that give one are refused before
    any run.
    """
    try:
        return json.dumps(
            obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=_join_pieces
        )
    except ValueError as e:
        raise RuntimeError(f"report is not JSON: {e}") from e


def _write_pieces(f, pieces: Iterator) -> None:
    """Write the one list or dict that pieces join into, holding one piece's text at a time."""
    first = canonical_json(next(pieces, []))
    f.write(first[:-1])
    sep = "," if len(first) > 2 else ""
    for piece in pieces:
        inner = canonical_json(piece)[1:-1]
        if inner:
            f.write(sep + inner)
            sep = ","
    f.write(first[-1])


def write_json(obj: dict, path: str) -> None:
    """Write canonical_json(obj) + "\\n" to path, one top-level value at a time.

    A value that is an iterator of pieces, lists or dicts whose keys
    arrive in canonical (sorted string) order, is written a piece at a
    time, as the one list or dict they join into, so no artifact's whole
    text is held.  A write that raises leaves no regular file at path.
    """
    with open(path, "w") as f:
        try:
            f.write("{")
            for i, key in enumerate(sorted(obj)):
                f.write(("," if i else "") + canonical_json(key) + ":")
                value = obj[key]
                if isinstance(value, Iterator):
                    _write_pieces(f, value)
                else:
                    f.write(canonical_json(value))
            f.write("}\n")
        except BaseException:
            f.close()
            # a regular file only: not a link such as /dev/stdout, a device or a pipe
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
            raise


def read_json(path: str):
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise FileFormatError(f"{path}: not valid JSON: {e}") from e


def bits_to_hex(bits: np.ndarray) -> str:
    """The hex row bits_from_hex reads back."""
    return np.packbits(bits).tobytes().hex()


def bits_from_hex(text: str, nbits: int, what: str) -> np.ndarray:
    """Unpack a hex bit row, most significant bit first, zero-padded to whole bytes.

    Key rows, codebook words, database rows and pirate words are all
    stored this way: exactly ceil(nbits / 8) bytes, with every padding
    bit 0.  what names the row in the error.
    """
    try:
        raw = bytes.fromhex(text)
    except (TypeError, ValueError) as e:
        raise InputShapeError(f"{what} must be a hex string: {e}") from e
    nbytes = (nbits + 7) // 8
    if len(raw) != nbytes:
        raise InputShapeError(
            f"{what} is {len(raw)} bytes, expected {nbytes} for {nbits} bits"
        )
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if bits[nbits:].any():
        raise InputShapeError(f"{what} has nonzero padding bits")
    return bits[:nbits]


def as_bits(values, message: str, error: type[ValueError] = InputShapeError) -> np.ndarray:
    """values as a uint8 bit array, or error(message) if an entry is not 0 or 1.

    A uint8 array takes one max() pass and is returned as it is; a bool
    array is only cast.  Any other dtype is checked before the cast,
    which would wrap 256 to 0 and truncate 0.9 to 0.
    """
    arr = np.asarray(values)
    if arr.dtype == np.uint8:
        if arr.size and arr.max() > 1:
            raise error(message)
        return arr
    if arr.dtype != np.bool_ and arr.size and not ((arr == 0) | (arr == 1)).all():
        raise error(message)
    return arr.astype(np.uint8)
