"""Byte-level determinism gate.

The attack, trace and scan digests were taken from the implementation
that encrypted tracing batches one TTCiphertext object per column; the
Laplace demo and ``sanitize run`` digests from the one that walked every
gate of an explicit netlist, input gates included; the export-circuit
digests from the one that built each user's decryption component from
a single-ciphertext object.  Any refactor of the encryption, the pirate
oracles, the query family or circuit construction and evaluation must
keep RNG draw order and answers, and so keep every one of these bytes.
The attack and trace digests predate the removal of the ``mode`` and
``scheme`` echoes, which are put back before hashing.  The key,
codebook, adversary-view and database files, and the stdout of
``tt keygen`` and ``fpcode gen``, were pinned while every format wrote
its own JSON and hex rows, before one codec wrote them all.  The
``tr_enc`` ciphertext digests were taken while ``tr_enc`` encrypted
LOCAL_PRG batches with its own stacked PRG lookup and PRF batches one
user key at a time, holding each PRF nonce as a Python int; the test
reads each PRF nonce row back as that int before hashing.  The
``attack run`` stdout, report and CSV digests, and the stdout of
``tt export-circuit``, ``fpcode trace`` and ``fpcode bench``, were
taken while each command wrote its own name and seed into its report
and the text summary and the CSV each read the attack report their own
way.
"""

import hashlib
import json

import numpy as np
import pytest

from ttpa.attack import EXP_FULL, AttackConfig, pirate_from_sanitizer
from ttpa.circuit import circuit_to_json
from ttpa.cli import canonical_json, main
from ttpa.crypto import LOCAL_PRG, PRF, prg_params_gen
from ttpa.fpcode import fp_gen
from ttpa.sanitize import LAPLACE, Database, SanitizerConfig, dictator_circuit, save_database
from ttpa.seeds import derive_seed, stream
from ttpa.ttscheme import linear_scan_report, tr_enc, tt_gen

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

TIGHTNESS_REPORT = "781f8c591046498b68f2c68f58e8c8ec75dc9fa6fc2ce37851263a2c7b00192e"

# netlist files written by `tt export-circuit` (keys: kappa=16, n=3, seed 5)
EXPORT_CIRCUIT = {
    ("literal", None): "d179a5424456ad34a359f2c9f0545051073c70518e5c4b85d4a4c85778baf57a",
    ("literal", 2): "42f88c605648512e087bf0d50da46937e10cabfa24446ffbbd7129516cb86076",
    ("folded", None): "d3fca954c08d2c90c31aa883db51e9ccafd7e36c52c5e3053a6945c6eb58b32a",
    ("folded", 2): "8df837eb3f59e0391b81561aabe760d00a7ed89657949c59ce083d7e70add383",
}

# the stdout of each `tt export-circuit` above, which still echoes "bit": 1
# when --level is given
EXPORT_CIRCUIT_STDOUT = {
    ("literal", None): "c414467e5347c7cfe72da32ea5ba9fcec4ab432402ccdbd6353ff7285cd8228e",
    ("literal", 2): "f619b7a510ea49a5389bddc4e8b644d15c263975683fe2a01f3197d11062c607",
    ("folded", None): "08134abba9871ec70aa4fedb681767ea6caa5292cc21ca8f5eb275795893843e",
    ("folded", 2): "8fadc86bd48b6ec77a78993ebc0b4938d43fed472142b57360f6768cf7cac21c",
}

# `attack run --n 4 --kappa 16 ... --out report.json`: the printed summary,
# and for the two 20-trial runs the report file and the --summary-csv file
ATTACK_RUN = {
    "conclusive": {
        "argv": ("--trials", "20", "--seed", "0"),
        "stdout": "66cfdf41c4327dd5a643895b0f19c32a45800e5912b1baac025ee266b67881f6",
        "report.json": "03902f9e0540c4e116faaab3be1b874644c6b3996a8ca63eb9925e931d5a2f9e",
        "summary.csv": "1462664287a5bd1b90abb4ebbac0fd542fc1d5a78b7bc5a1adec4492aad791fc",
    },
    "inconclusive": {
        "argv": ("--eps-fp", "0.2", "--trials", "3", "--seed", "1"),
        "stdout": "7da1c343564a1d944992fb747514bcb29aa33f0effd6bb77b656547933885209",
    },
    # no trial of experiment 1 accuses anyone, so there is no i* and no exp2
    "no-i-star": {
        "argv": ("--trials", "20", "--seed", "0", "--sanitizer", "laplace", "--eps", "50",
                 "--amp-rounds", "3"),
        "stdout": "1232cfba3dfbd8c3f7446e40119455b221e7011f4c439082fae085d56c4f17bc",
        "report.json": "99257076586a7abeec470557fa1dba4871700e72d055c0a2ef6b1ab160873beb",
        "summary.csv": "ac2ada584cb1255f4749b2537b9bddbe51119cb0275f65e3d0b4167630e90ad6",
    },
}

# after `fpcode gen --n 3 --eps-fp 0.2 --a 2 --out cb.json --seed 5`
FPCODE_STDOUT = {
    ("trace", "--codebook", "cb.json", "--word", "00000000000000"):
        "a36b614e345506a42829e8153a846b4f6d5b52feb869c0a4474a6c0ffbc30f7f",
    ("bench", "--n", "3", "--eps-fp", "0.2", "--a", "2", "--trials", "5", "--seed", "5"):
        "3af8b342502a1ef97288cb28b87222b9d55997f39b7df9abbb157b56c4cd66dc",
}

# `tt keygen --kappa 16 --n 3 --seed 5`: the key file and stdout per scheme
KEYGEN = {
    ("local-prg", "keys.json"): "c1caa0a9d16d25c8898bb259f0e3d37393e18d137a8f2cd0b05861bb82eb2cce",
    ("local-prg", "stdout"): "0a6c4031438e014685a865c51abc547e9493fe443a466d10b99e28314bcf6f9d",
    ("prf", "keys.json"): "db1ffa7d7bf6e604a3ba4d56c7fe6ebb7c52a17efdd9e2c36b2fdb694599aef7",
    ("prf", "stdout"): "714f74e115db81264cd16bcb582f8d3eabdc877bfd3e9be90fee620a75bb449a",
}

# tr_enc of seeded words under seeded keys: (scheme, kappa, n, k) -> digests of
# the canonical JSON of rs and masked; the PRF nonces are 9- and 68-bit ints,
# each the big-endian value of its nonce row.  The LOCAL_PRG stretches are
# 512 and 2^15 (Lemire's draw is a shift, never rejecting) and 1,000 (it
# multiplies and rejects).
TR_ENC = {
    (LOCAL_PRG, 16, 4, 200): {
        "rs": "be5fcff24303e72685231384a494c7c64b17053673fa2ad30de9f42bc2c2b60b",
        "masked": "7e23532968e1f2c3411af9f8b16e61c0ed8f171358d0c0e1ee0b98e8a89d7b3f",
    },
    (LOCAL_PRG, 20, 3, 300): {
        "rs": "18ae77843365e0cb8868f92f6d3a56d4857008ce986e020992ceca7fa9141515",
        "masked": "ee96bf42eee309a1ed580b6ac57685198cbdd46a1226926737ee4458b7065a1f",
    },
    (LOCAL_PRG, 64, 16, 2000): {
        "rs": "36cb5f55a1f7cc97ffab65b74ac2e1feb6488a9f4723228c803b57cdaefdf5ff",
        "masked": "f9115e34ee14fdd6dbceba161dadf22645db0f811d3fc038e16371a86b26f368",
    },
    (PRF, 18, 3, 7): {
        "rs": "ca6673a538a0c531daa73191fe0da9bb33c46ead83da68a3198e5ce446aff85a",
        "masked": "a5ff04c886902b1930a813f53ea0292946afa78d0c7abf3795612013227519a8",
    },
    (PRF, 136, 3, 7): {
        "rs": "e7e5c762baf2f49063a63e8b9fb9ad274ff120309d4c0fd22895cec52973f581",
        "masked": "d91caa64860d298a3d98c5d0539e22f9332e89ec5398f731d55d92bfc036db54",
    },
}

# the tracing batch of exp1 trial 0 at AttackConfig() defaults (n=10,
# kappa=64, 52,984 ciphertexts): the headline's batch, encrypted on the
# path that expands each seed in full; the masked bits packed, the PRG
# indices as little-endian uint16
HEADLINE_BATCH = {
    "masked": "c62f1b6e82e34bd318457932fb30583e37cb8939b58d8fd489f73c0b6ad46b4e",
    "rs": "ae044092953129e5b92dce1d2734b415a1b5475aeda25a9fb873a6994bd9df5e",
}

# `fpcode gen --n 3 --eps-fp 0.2 --a 2 --coalition 0,2 --seed 5`
FPCODE_GEN = {
    "codebook.json": "2e2611300bb9dc5e88f6f72a28367b71da3b5fe13bac8b82c2da5d144fdc4c12",
    "view.json": "c20f17c2dca47b3805b2be53d553739d1173a1e2aa7e473009b74ae485ccd5fe",
    "stdout": "db5d7132ebd4bd3a85b1e32b8c5a67c03093837296fc5fe9d07f811cd0df18bf",
}

# save_database of 333 seeded 13-bit rows, so each row ends in padding bits
DATABASE_FILE = "c8c186800644a105a4440180a8a75b26939f6208eb1655f7d79451affd31b70b"

SANITIZE_STDOUT = {
    "exact": "dd5a48324bbc1abafa0fd1a942123a2ce0f5145253646a0ddaf00993c8d7bebe",
    "laplace": "fdc9cdbc04566e6b28c596cc56818a5ea684233d223bcb061a6387afa5641f13",
}

# Width-16 netlists whose INPUT gates are not the leading run 0, 1, 2, ...:
# a constant and a NOT before any input, a wire read twice, inputs
# interleaved with logic, and a prefix that breaks off after two wires.
HAND_NETLISTS = [
    {
        "input_width": 16,
        "gates": [
            {"id": 0, "op": "CONST", "args": [], "value": 1},
            {"id": 1, "op": "INPUT", "args": [], "input_index": 5},
            {"id": 2, "op": "INPUT", "args": [], "input_index": 0},
            {"id": 3, "op": "NOT", "args": [1]},
            {"id": 4, "op": "INPUT", "args": [], "input_index": 5},
            {"id": 5, "op": "AND", "args": [2, 3]},
            {"id": 6, "op": "INPUT", "args": [], "input_index": 15},
            {"id": 7, "op": "OR", "args": [5, 6, 4]},
            {"id": 8, "op": "AND", "args": [7, 0]},
        ],
        "output": 8,
    },
    {
        "input_width": 16,
        "gates": [
            {"id": 0, "op": "INPUT", "args": [], "input_index": 0},
            {"id": 1, "op": "INPUT", "args": [], "input_index": 1},
            {"id": 2, "op": "INPUT", "args": [], "input_index": 3},
            {"id": 3, "op": "INPUT", "args": [], "input_index": 2},
            {"id": 4, "op": "OR", "args": [0, 2]},
            {"id": 5, "op": "NOT", "args": [3]},
            {"id": 6, "op": "AND", "args": [4, 5, 1]},
        ],
        "output": 6,
    },
]


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


def with_removed_keys(obj: dict, section: str, **keys) -> bytes:
    """The pinned bytes, with the keys an older report carried put back.

    Reports no longer echo settings that changed no output; everything
    else must be byte-identical to what the digests were taken from.
    """
    assert not set(keys) & set(obj[section])
    obj[section].update(keys)
    return (canonical_json(obj) + "\n").encode()


@pytest.mark.parametrize("seed", sorted(ATTACK_REPORTS))
def test_attack_report_bytes(capsys, seed):
    run_cli(
        capsys, "attack", "run", "--n", "4", "--kappa", "16", "--eps-fp", "0.2",
        "--trials", "3", "--seed", str(seed), "--out", "r.json",
    )
    with open("r.json") as f:
        obj = json.load(f)
    old = with_removed_keys(obj, "params", mode="folded", scheme="LOCAL_PRG")
    assert sha256(old) == ATTACK_REPORTS[seed]


@pytest.mark.parametrize("seed,pirate", sorted(TRACE_STDOUT))
def test_tt_trace_stdout_bytes(capsys, seed, pirate):
    run_cli(capsys, "tt", "keygen", "--kappa", "16", "--n", "4", "--out", "keys.json",
            "--seed", str(seed))
    out = run_cli(capsys, "tt", "trace", "--keys", "keys.json", "--pirate", pirate,
                  "--eps-fp", "0.2", "--seed", str(seed))
    obj = json.loads(out)
    assert obj["feasible"] is True
    assert sha256(with_removed_keys(obj, "config", mode="folded")) == TRACE_STDOUT[(seed, pirate)]


def test_linear_scan_counts():
    ks = tt_gen(16, 4, LOCAL_PRG, stream(7, "det", "keys"))
    pirate = pirate_from_sanitizer(
        ks.params, ks.rows[[0, 2, 3]], SanitizerConfig(), stream(7, "det", "pirate")
    )
    out = linear_scan_report(ks, pirate, stream(7, "det", "scan"))
    assert out.repetitions == 340
    assert out.counts.tolist() == [0, 0, 0, 340, 340]
    assert out.accused == 3


def test_linear_scan_counts_under_noise():
    # a noisy pirate's counts depend on which ciphertext sits where, so this
    # pins the shuffled level order, not just how many times each level is sent
    ks = tt_gen(16, 4, LOCAL_PRG, stream(7, "det", "keys"))
    pirate = pirate_from_sanitizer(
        ks.params, ks.rows[[0, 2, 3]], SanitizerConfig(LAPLACE, epsilon=2000.0),
        stream(7, "det", "pirate"),
    )
    out = linear_scan_report(ks, pirate, stream(7, "det", "scan"))
    assert out.repetitions == 340
    assert out.counts.tolist() == [16, 101, 99, 235, 314]
    assert out.accused == 1


@pytest.mark.parametrize("scheme,kappa,n,k", sorted(TR_ENC))
def test_tr_enc_bytes(scheme, kappa, n, k):
    ks = tt_gen(kappa, n, scheme, stream(3, "det", "tr-enc", "keys"))
    words = stream(3, "det", "tr-enc", "words").integers(0, 2, (n, k), dtype=np.uint8)
    cts = tr_enc(ks, words, stream(3, "det", "tr-enc", "enc"))
    rs = cts.rs.tolist() if scheme == LOCAL_PRG else [
        [int.from_bytes(cell.tobytes(), "big") for cell in row] for row in cts.rs
    ]
    got = {name: sha256(canonical_json(cells).encode())
           for name, cells in (("rs", rs), ("masked", cts.masked.tolist()))}
    assert got == TR_ENC[(scheme, kappa, n, k)]


def test_headline_trial_batch_bytes():
    # the keys and the batch that attack._run_trial makes for exp1 trial 0
    cfg = AttackConfig()
    prg = prg_params_gen(derive_seed(cfg.seed, "attack", "prg"), cfg.kappa // 2)
    keys = stream(cfg.seed, "attack", EXP_FULL, 0, "keys")
    ks = tt_gen(cfg.kappa, cfg.n, LOCAL_PRG, keys, prg=prg)
    rng = stream(cfg.seed, "attack", EXP_FULL, 0, "trace")
    cts = tr_enc(ks, fp_gen(cfg.n, cfg.eps_fp, rng, a=cfg.a).words, rng)
    assert cts.masked.shape == (52_984, 10)
    got = {"masked": sha256(np.packbits(cts.masked).tobytes()),
           "rs": sha256(cts.rs.astype("<u2").tobytes())}
    assert got == HEADLINE_BATCH


def test_laplace_demo_report_bytes(tightness_report):
    assert sha256(canonical_json(tightness_report).encode()) == TIGHTNESS_REPORT


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return sha256(f.read())


@pytest.mark.parametrize("scheme", ["local-prg", "prf"])
def test_keygen_bytes(capsys, scheme):
    out = run_cli(capsys, "tt", "keygen", "--kappa", "16", "--n", "3", "--scheme", scheme,
                  "--out", "keys.json", "--seed", "5")
    got = {"keys.json": file_digest("keys.json"), "stdout": sha256(out.encode())}
    assert got == {what: KEYGEN[(scheme, what)] for what in got}


def test_fpcode_gen_bytes(capsys):
    out = run_cli(capsys, "fpcode", "gen", "--n", "3", "--eps-fp", "0.2", "--a", "2",
                  "--out", "codebook.json", "--adversary-view", "view.json",
                  "--coalition", "0,2", "--seed", "5")
    got = {name: file_digest(name) for name in ("codebook.json", "view.json")}
    assert {**got, "stdout": sha256(out.encode())} == FPCODE_GEN


def test_database_file_bytes():
    rows = np.random.default_rng(11).integers(0, 2, (333, 13), dtype=np.uint8)
    save_database(Database(rows), "db.txt")
    assert file_digest("db.txt") == DATABASE_FILE


@pytest.mark.parametrize("kind", sorted(SANITIZE_STDOUT))
def test_sanitize_run_stdout_bytes(capsys, kind):
    # 333 rows, so the packed columns end in a partial byte
    rows = np.random.default_rng(11).integers(0, 2, (333, 16), dtype=np.uint8)
    save_database(Database(rows), "db.txt")
    with open("dictators.json", "w") as f:
        f.write(canonical_json([circuit_to_json(dictator_circuit(w, 16)) for w in (0, 7, 15)]))
    with open("hand.json", "w") as f:
        json.dump(HAND_NETLISTS, f)
    run_cli(capsys, "tt", "keygen", "--kappa", "16", "--n", "3", "--out", "keys.json",
            "--seed", "5")
    run_cli(capsys, "tt", "export-circuit", "--keys", "keys.json", "--out", "export.json",
            "--seed", "5")
    noise = ("--eps", "50", "--amp-rounds", "3") if kind == "laplace" else ()
    out = run_cli(capsys, "sanitize", "run", "--db", "db.txt", "--queries", "dictators.json",
                  "export.json", "hand.json", "--kind", kind, *noise, "--seed", "9")
    assert json.loads(out)["k"] == 6
    assert sha256(out.encode()) == SANITIZE_STDOUT[kind]


@pytest.mark.parametrize("mode,level", sorted(EXPORT_CIRCUIT, key=str))
def test_export_circuit_bytes(capsys, mode, level):
    run_cli(capsys, "tt", "keygen", "--kappa", "16", "--n", "3", "--out", "keys.json",
            "--seed", "5")
    which = () if level is None else ("--level", str(level))
    out = run_cli(capsys, "tt", "export-circuit", "--keys", "keys.json", "--mode", mode, *which,
                  "--out", "c.json", "--seed", "5")
    assert file_digest("c.json") == EXPORT_CIRCUIT[(mode, level)]
    assert sha256(out.encode()) == EXPORT_CIRCUIT_STDOUT[(mode, level)]


@pytest.mark.parametrize("case", sorted(ATTACK_RUN))
def test_attack_run_output_bytes(capsys, case):
    pins = ATTACK_RUN[case]
    csv_flag = ("--summary-csv", "summary.csv") if "summary.csv" in pins else ()
    out = run_cli(capsys, "attack", "run", "--n", "4", "--kappa", "16", *pins["argv"],
                  "--out", "report.json", *csv_flag)
    got = {"stdout": sha256(out.encode())}
    got.update((name, file_digest(name)) for name in pins if name.endswith((".json", ".csv")))
    assert got == {what: digest for what, digest in pins.items() if what != "argv"}


@pytest.mark.parametrize("argv", sorted(FPCODE_STDOUT))
def test_fpcode_stdout_bytes(capsys, argv):
    run_cli(capsys, "fpcode", "gen", "--n", "3", "--eps-fp", "0.2", "--a", "2",
            "--out", "cb.json", "--seed", "5")
    out = run_cli(capsys, "fpcode", *argv)
    assert sha256(out.encode()) == FPCODE_STDOUT[argv]
