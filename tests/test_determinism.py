"""Byte-level determinism gate.

The digests below were taken from the implementation that encrypted
tracing batches one TTCiphertext object per column.  Any refactor of
the encryption, the pirate oracles or the query family must keep RNG
draw order, and so keep every one of these bytes.
"""

import hashlib
import json

import pytest

from ttpa.attack import pirate_from_sanitizer
from ttpa.cli import main
from ttpa.crypto import LOCAL_PRG
from ttpa.sanitize import SanitizerConfig
from ttpa.seeds import stream
from ttpa.ttscheme import linear_scan_report, tt_gen

ATTACK_REPORTS = {
    1: "ce28c8d5cf6b3e68a11cc3de90c225989df0b438081fc0498c0a4b11bb8a8887",
    2: "514903252542a632a7f40ff6bc7629b238c727890908f347cfff26e5392d0b9f",
    3: "ab3d3ff85ae22f30b3d82c15eb798b92fc0bd098d3010342a3fac0aaba4d976c",
}

TRACE_STDOUT = {
    (1, "sanitizer:exact"): "65a068abda97cbdc960e8da0196e52fa4a51c6a259c2bb89f8b28f5acc98ef92",
    (1, "honest:2"): "fc35b35ef8a37c4692089d8c83129f475769ceb3bca860c8264ac70aa1002971",
    (2, "sanitizer:exact"): "01bcae1abc363f7ad15bef4db515ac3a6ef9d04c3d613859ee100c59f7745322",
    (2, "honest:2"): "cf361724ac19974d6d886213c3b187f0d1ab854232bf40ccb70c8864f4e97169",
    (3, "sanitizer:exact"): "bd13ff9069f26886a893d32b0a779d9e44dc4360177a418208666e6556a6a1be",
    (3, "honest:2"): "9612cb77f3159d689016861cb512aa75b10f8506937dd2bbca789f9611703600",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(autouse=True)
def _in_tmp(monkeypatch, tmp_path):
    # reports echo file paths, so run from a fixed relative location
    monkeypatch.delenv("TTPA_SEED", raising=False)
    monkeypatch.chdir(tmp_path)


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("seed", sorted(ATTACK_REPORTS))
def test_attack_report_bytes(capsys, seed):
    run_cli(
        capsys, "attack", "run", "--n", "4", "--kappa", "16", "--eps-fp", "0.2",
        "--trials", "3", "--seed", str(seed), "--out", "r.json",
    )
    with open("r.json", "rb") as f:
        assert sha256(f.read()) == ATTACK_REPORTS[seed]


@pytest.mark.parametrize("seed,pirate", sorted(TRACE_STDOUT))
def test_tt_trace_stdout_bytes(capsys, seed, pirate):
    run_cli(capsys, "tt", "keygen", "--kappa", "16", "--n", "4", "--out", "keys.json",
            "--seed", str(seed))
    out = run_cli(capsys, "tt", "trace", "--keys", "keys.json", "--pirate", pirate,
                  "--eps-fp", "0.2", "--seed", str(seed))
    assert json.loads(out)["feasible"] is True
    assert sha256(out.encode()) == TRACE_STDOUT[(seed, pirate)]


def test_linear_scan_counts():
    ks = tt_gen(16, 4, LOCAL_PRG, stream(7, "det", "keys"))
    pirate = pirate_from_sanitizer(
        ks.params, ks.rows[[0, 2, 3]], SanitizerConfig(), stream(7, "det", "pirate")
    )
    out = linear_scan_report(ks, pirate, stream(7, "det", "scan"))
    assert out.repetitions == 340
    assert out.counts.tolist() == [0, 0, 0, 340, 340]
    assert out.accused == 3
