"""Shared exception types, and the codec every file format shares.

Everything derives from ValueError so callers that only care about
"bad input" can catch one thing; the CLI maps these to exit code 2.
Every JSON artifact and report is written as canonical JSON and read
with read_json; every bit row is one hex string (bits_to_hex,
bits_from_hex).
"""

import json

import numpy as np


class InputShapeError(ValueError):
    """A bit vector, matrix, or circuit input has the wrong width or values."""


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


def canonical_json(obj) -> str:
    """Sorted keys, no whitespace: the same object always gives the same bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
