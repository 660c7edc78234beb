"""Acceptance gate: ten numbered end-to-end criteria, one test each.

Every criterion funnels its verdict through the `acceptance` fixture so
the run ends with a PASS/FAIL line per criterion.  Tolerances and trial
counts here are fixed; loosening them defeats the point of the gate.
One more test replays criterion 6's run without cryptography.
"""

import json
import time

import numpy as np
import pytest

from ttpa.attack import (
    AttackConfig,
    dp_audit,
    pirate_from_sanitizer,
    run_attack,
    wilson_interval,
)
from ttpa.circuit import circuit_metrics, eval_on_rows
from ttpa.cli import main
from ttpa.crypto import (
    EncKey,
    FOLDED,
    LITERAL,
    LOCAL_PRG,
    PRF,
    enc_dec_circuit,
    enc_decrypt_many,
    enc_encrypt_many,
    enc_gen,
    prg_params_gen,
)
from ttpa.fpcode import COPY_ONE, MAJORITY, STRATEGIES, run_code_experiment
from ttpa.sanitize import EXACT, SanitizerConfig
from ttpa.seeds import stream
from ttpa.ttscheme import (
    TTCiphertext,
    TTDecQueryFamily,
    honest_pirate,
    linear_scan_report,
    tr_enc,
    tr_enc_index,
    tt_dec,
    tt_dec_circuit,
    tt_enc,
    tt_gen,
)

from reference import replay_trial


def all_rows(width: int) -> np.ndarray:
    cols = np.arange(1 << width, dtype=np.int64)
    return ((cols[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


def concat(*cts: TTCiphertext) -> TTCiphertext:
    """One batch holding the given ciphertexts, in order."""
    return TTCiphertext(
        np.concatenate([c.rs for c in cts]), np.concatenate([c.masked for c in cts])
    )


def wilson_lower(successes: int, trials: int) -> float:
    return wilson_interval(successes, trials)[0]


@pytest.fixture(scope="module")
def exact_attack_report():
    """Shared full-scale run: EXACT sanitizer pirate, defaults, seed 0."""
    report = run_attack(AttackConfig(seed=0))
    return report.to_dict(dp_audit(report, 1.0, 0.01))


def test_criterion_01_perfect_correctness(acceptance):
    t0 = time.perf_counter()
    trials = 10_000
    failures = 0

    prg64 = prg_params_gen(77, 64)
    for scheme in (LOCAL_PRG, PRF):
        rng = stream(0, "acceptance-1", scheme)
        prg = prg64 if scheme == LOCAL_PRG else None
        for _ in range(trials):
            key = enc_gen(64, scheme, rng, prg=prg)
            bit = int(rng.integers(2))
            rs, ms = enc_encrypt_many(key, np.array([bit]), rng)
            if enc_decrypt_many(key, rs, ms)[0] != bit:
                failures += 1

    tt_trials = 0
    for block in range(4):
        rng = stream(0, "acceptance-1", "tt", block)
        ks = tt_gen(64, 16, LOCAL_PRG, rng)
        bits, cts = [], []
        for _ in range(trials // (4 * 16) + 1):
            bits.append(int(rng.integers(2)))
            cts.append(tt_enc(ks, bits[-1], rng))
        batch = concat(*cts)
        for u in range(16):
            tt_trials += len(batch)
            failures += int(np.count_nonzero(tt_dec(ks.params, ks.rows[u], batch) != bits))

    elapsed = time.perf_counter() - t0
    acceptance(
        1,
        failures == 0 and tt_trials >= trials and elapsed < 10.0,
        f"{2 * trials} enc + {tt_trials} broadcast roundtrips, "
        f"{failures} failures, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_circuit_oracle_equivalence(acceptance):
    t0 = time.perf_counter()
    mismatches = 0
    compared = 0

    # exhaustive over every 10-bit seed, one-bit scheme
    prg = prg_params_gen(2, 10, ell=64)
    rng = stream(0, "acceptance-2", "enc")
    key = enc_gen(10, LOCAL_PRG, rng, prg=prg)
    rows10 = all_rows(10)
    for bit in (0, 1):
        rs, ms = enc_encrypt_many(key, np.array([bit]), rng)
        want = np.array(
            [enc_decrypt_many(EncKey(LOCAL_PRG, r, prg), rs, ms)[0] for r in rows10],
            dtype=np.uint8,
        )
        for mode in (LITERAL, FOLDED):
            got = eval_on_rows(enc_dec_circuit(rs[0], ms[0], prg, mode), rows10)
            mismatches += int((got != want).sum())
            compared += rows10.shape[0]

    # exhaustive over every 16-bit key row, 3-user scheme
    rng = stream(0, "acceptance-2", "tt")
    ks = tt_gen(16, 3, LOCAL_PRG, rng)
    rows16 = all_rows(16)
    cts = concat(tt_enc(ks, 1, rng), tt_enc(ks, 0, rng), tr_enc_index(ks, 2, rng))
    fam = TTDecQueryFamily.from_ciphertexts(cts, ks.params)
    bulk = fam.evaluate_on_rows(rows16)
    for mode in (LITERAL, FOLDED):
        for j, circ in enumerate(tt_dec_circuit(cts, ks.params, mode)):
            got = eval_on_rows(circ, rows16)
            mismatches += int((got != bulk[j]).sum())
            compared += rows16.shape[0]
    # spot-check the per-key decryptor itself on decodable rows
    valid = rows16[(rows16[:, 8] * 2 + rows16[:, 9]) < 3]
    sample = valid[stream(0, "acceptance-2", "pick").integers(0, len(valid), 500)]
    circ = tt_dec_circuit(cts, ks.params, FOLDED)[2]
    got = eval_on_rows(circ, sample)
    want = np.array([tt_dec(ks.params, r, cts)[2] for r in sample], dtype=np.uint8)
    mismatches += int((got != want).sum())
    compared += len(sample)

    # sampled at full size; the literal build is linear in the PRG
    # stretch, so at the default stretch only folded is materialized
    rng = stream(0, "acceptance-2", "big")
    ks64 = tt_gen(64, 16, LOCAL_PRG, rng)
    rows_s = rng.integers(0, 2, size=(10_000, 64), dtype=np.uint8)
    cts64 = concat(tt_enc(ks64, 1, rng), tt_enc(ks64, 0, rng), tr_enc_index(ks64, 8, rng))
    fam64 = TTDecQueryFamily.from_ciphertexts(cts64, ks64.params)
    bulk64 = fam64.evaluate_on_rows(rows_s)
    for j, circ in enumerate(tt_dec_circuit(cts64, ks64.params, FOLDED)):
        got = eval_on_rows(circ, rows_s)
        mismatches += int((got != bulk64[j]).sum())
        compared += rows_s.shape[0]
    # same kappa and n with a short PRG keeps literal buildable
    prg32 = prg_params_gen(9, 32, ell=64)
    ks64s = tt_gen(64, 16, LOCAL_PRG, rng, prg=prg32)
    ct_s = tt_enc(ks64s, 1, rng)
    fam_s = TTDecQueryFamily.from_ciphertexts(ct_s, ks64s.params)
    bulk_s = fam_s.evaluate_on_rows(rows_s)
    for mode in (LITERAL, FOLDED):
        [circ] = tt_dec_circuit(ct_s, ks64s.params, mode)
        got = eval_on_rows(circ, rows_s)
        mismatches += int((got != bulk_s[0]).sum())
        compared += rows_s.shape[0]

    elapsed = time.perf_counter() - t0
    acceptance(
        2,
        mismatches == 0 and elapsed < 30.0,
        f"{compared} circuit/oracle points, {mismatches} mismatches, "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_03_depth_bounds(acceptance):
    worst_enc = 0
    worst_tt = 0
    checked = 0

    prg = prg_params_gen(3, 16, ell=64)
    rng = stream(0, "acceptance-3", "enc")
    key = enc_gen(16, LOCAL_PRG, rng, prg=prg)
    for _ in range(100):
        rs, ms = enc_encrypt_many(key, np.array([rng.integers(2)]), rng)
        for mode in (LITERAL, FOLDED):
            d = circuit_metrics(enc_dec_circuit(rs[0], ms[0], prg, mode)).depth
            worst_enc = max(worst_enc, d)
            checked += 1

    rng = stream(0, "acceptance-3", "tt")
    ks = tt_gen(16, 3, LOCAL_PRG, rng)
    for i in range(100):
        ct = tr_enc_index(ks, i % 4, rng) if i % 2 else tt_enc(ks, i % 2, rng)
        for mode in (LITERAL, FOLDED):
            [circ] = tt_dec_circuit(ct, ks.params, mode)
            worst_tt = max(worst_tt, circuit_metrics(circ).depth)
            checked += 1

    # a few at the default full stretch, where only folded is buildable
    rng = stream(0, "acceptance-3", "full")
    key64 = enc_gen(64, LOCAL_PRG, rng)
    for _ in range(3):
        rs, ms = enc_encrypt_many(key64, np.array([rng.integers(2)]), rng)
        worst_enc = max(
            worst_enc, circuit_metrics(enc_dec_circuit(rs[0], ms[0], key64.prg, FOLDED)).depth
        )
        checked += 1
    ks64 = tt_gen(64, 16, LOCAL_PRG, rng)
    for bit in (0, 1):
        [circ] = tt_dec_circuit(tt_enc(ks64, bit, rng), ks64.params, FOLDED)
        worst_tt = max(worst_tt, circuit_metrics(circ).depth)
        checked += 1

    acceptance(
        3,
        worst_enc <= 4 and worst_tt <= 6,
        f"{checked} circuits: max one-key depth {worst_enc} (<= 4), "
        f"max broadcast depth {worst_tt} (<= 6)",
    )


def test_criterion_04_decode_identity(acceptance):
    prg = prg_params_gen(4, 32)  # broadcast keys at kappa=64 hold 32 seed bits
    bad = 0
    for t in range(20):
        rng = stream(0, "acceptance-4", t)
        ks = tt_gen(64, 10, LOCAL_PRG, rng, prg=prg)
        w = rng.integers(0, 2, size=(10, 200), dtype=np.uint8)
        cts = tr_enc(ks, w, rng)
        for u in range(10):
            bad += int(np.count_nonzero(tt_dec(ks.params, ks.rows[u], cts) != w[u]))
    acceptance(4, bad == 0, f"20 trials x 10x200 decode matrix, {bad} mismatches")


def test_criterion_05_code_rates(acceptance):
    results = {
        s: run_code_experiment(10, 0.05, s, 200, 0, a=100.0) for s in STRATEGIES
    }
    sound = True
    details = []
    for s, r in results.items():
        innocent = round(r["innocent_accused_rate"] * 200)
        sound = sound and wilson_lower(innocent, 200) <= 0.05
        details.append(f"{s}: innocent {innocent}/200")
    complete = all(
        results[s]["coalition_accused_rate"] >= 0.90 for s in (COPY_ONE, MAJORITY)
    )
    caught = {s: results[s]["coalition_accused_rate"] for s in (COPY_ONE, MAJORITY)}
    acceptance(
        5,
        sound and complete,
        "; ".join(details)
        + f"; caught COPY_ONE {caught[COPY_ONE]:.2f}, MAJORITY {caught[MAJORITY]:.2f} (>= 0.90)",
    )


def test_criterion_06_reduction_end_to_end(acceptance, exact_attack_report):
    d = exact_attack_report
    some_rate = 1.0 - d["exp1"]["none_freq"]
    i_star = d["i_star"]
    trials2 = d["exp2"]["trials"]
    freq2 = d["exp2"]["accused_freq"].get(str(i_star), 0.0)
    hits2 = round(freq2 * trials2)
    audit = d["audit"]
    acceptance(
        6,
        some_rate >= 0.95
        and wilson_lower(hits2, trials2) <= 0.05
        and audit["conclusive"]
        and audit["violated"],
        f"exp1 accused someone in {some_rate:.0%}, exp2 accused i*={i_star} "
        f"in {hits2}/{trials2}, audit margin {audit['margin']:.4f} -> violated",
    )


def test_default_run_replays_without_cryptography(exact_attack_report):
    # all 400 records, max_abs_err included, from the codebook and the noise alone
    cfg = AttackConfig(seed=0)
    for exp in ("exp1", "exp2"):
        d = exact_attack_report[exp]
        coalition = tuple(d["coalition"])
        for t, record in enumerate(d["trial_records"]):
            assert record == replay_trial(cfg, d["label"], coalition, t)._asdict(), (exp, t)


def test_criterion_07_feasible_words(acceptance, exact_attack_report):
    rate = exact_attack_report["exp1"]["feasible_rate"]
    acceptance(7, rate == 1.0, f"exp1 feasible word rate {rate:.0%} (= 100%)")


def test_criterion_08_linear_scan(acceptance):
    # planted example: the only key in play is row 2 of a 4-user set, so
    # the decryption rate jumps from 0 to 1 between levels 2 and 3
    ks = tt_gen(16, 4, LOCAL_PRG, stream(0, "acceptance-8", "hand"))
    out = linear_scan_report(ks, honest_pirate(ks, 2), stream(0, "acceptance-8", "s"))
    hand_ok = (
        out.accused == 3  # 1-based gap position, i.e. key row 2
        and np.array_equal(out.levels, [0.0, 0.0, 0.0, 1.0, 1.0])
    )

    bad = 0
    runs = 0
    for n in (4, 8, 16):
        prg = prg_params_gen(8, 16)
        for t in range(50):
            rng = stream(0, "acceptance-8", n, t)
            ks = tt_gen(32, n, LOCAL_PRG, rng, prg=prg)
            pirate = pirate_from_sanitizer(ks.params, ks.rows, SanitizerConfig(EXACT), rng)
            res = linear_scan_report(ks, pirate, rng)
            runs += 1
            ok = (
                res.accused is not None
                and res.counts[0] == 0
                and res.counts[n] == res.repetitions
            )
            bad += int(not ok)
    acceptance(
        8,
        hand_ok and bad == 0,
        f"planted 4-user example accused key row {None if out.accused is None else out.accused - 1}; "
        f"{runs} exact-pirate scans, {bad} without a gap or with bad endpoints",
    )


def test_criterion_09_laplace_tightness(acceptance, tightness_report):
    cal = tightness_report["calibration"]
    pts = {p["label"]: p for p in tightness_report["accuracy_points"]}
    large, small = pts["large"], pts["small"]
    ok = (
        cal["draws"] == 100_000
        and cal["calibrated_5pct"]
        and cal["exceed_within_3sigma"]
        and large["rows"] == 100_000
        and large["queries"] == 10_000
        and large["alpha"] == 0.10
        and large["accurate_rate"] >= 0.95
        and small["rows"] == 100
        and small["queries"] == 10_000
        and small["alpha"] == 0.49
        and small["accurate_rate"] <= 0.05
        and tightness_report["all_pass"]
    )
    acceptance(
        9,
        ok,
        f"|noise|/scale = {cal['mean_abs_ratio']:.3f} over {cal['draws']} draws, "
        f"exceed {cal['exceed_rate']:.3f} vs {cal['exceed_expected']:.3f}, "
        f"0.10-accurate at 1e5 rows in {large['accurate_rate']:.0%}, "
        f"0.49-accurate at 100 rows in {small['accurate_rate']:.0%}",
    )


def test_criterion_10_cli_determinism(acceptance, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TTPA_SEED", raising=False)

    def run(argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    report = str(tmp_path / "report.json")
    csv_path = str(tmp_path / "summary.csv")
    attack = [
        "attack", "run", "--n", "3", "--kappa", "16", "--eps-fp", "0.2",
        "--a", "2", "--trials", "6", "--seed", "5",
        "--out", report, "--summary-csv", csv_path,
    ]
    out_a = run(attack)
    bytes_a = (open(report, "rb").read(), open(csv_path, "rb").read())
    out_b = run(attack)
    bytes_b = (open(report, "rb").read(), open(csv_path, "rb").read())
    out_c = run([*attack, "--jobs", "2"])
    bytes_c = (open(report, "rb").read(), open(csv_path, "rb").read())
    attack_ok = out_a == out_b == out_c and bytes_a == bytes_b == bytes_c
    assert json.loads(open(report).read())["params"]["seed"] == 5

    keys = str(tmp_path / "ks.json")
    keygen = ["tt", "keygen", "--kappa", "16", "--n", "3", "--out", keys, "--seed", "1"]
    out_k1 = run(keygen)
    keys_1 = open(keys, "rb").read()
    out_k2 = run(keygen)
    keygen_ok = out_k1 == out_k2 and keys_1 == open(keys, "rb").read()

    trace = ["tt", "trace", "--keys", keys, "--pirate", "sanitizer:laplace",
             "--eps-fp", "0.2", "--eps", "5", "--seed", "2"]
    trace_ok = run(trace) == run(trace)

    acceptance(
        10,
        attack_ok and keygen_ok and trace_ok,
        "attack run (x2 + --jobs 2), tt keygen, tt trace: "
        "byte-identical stdout and artifacts per seed",
    )
