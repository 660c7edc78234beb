"""The benchmark's own tests: a tiny-size smoke run, repeatable counts,
and negative controls proving the output checks can fail.

    python3 -m pytest perfbench -q      (about half a minute)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracer import ROUND, Tracer, layer_totals  # noqa: E402
from workloads import TINY, WORKLOADS, ScanExact, check_attack_report, ttscheme  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

COUNTS = (
    "ttscheme.tr_enc.ciphertexts",
    "crypto.prg_expand.calls",
    "sanitize.evaluate_query.calls",
    "circuit.gates_evaluated",
    "circuit.pack_rows.calls",
    "seeds.stream.calls",
)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke(workload, trace):
    if workload == "laplace-demo" and trace:
        pytest.skip("the demo has one fixed size; its traced run is test_counts_repeat")
    res = result_of(bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.001", "--trace", str(trace),
        "--size", "tiny",
    ))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in res["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def traced_round(workload: str, seed: int, tmp_path) -> dict:
    wl = WORKLOADS[workload](seed, TINY, str(tmp_path))
    tr = Tracer()
    with tr:
        tally = tr.span(ROUND, wl.run_round)(0)
    assert tally.failed == 0
    phase = run.Phase(tally.attempted, tally.failed, 1, 1.0)
    return run.layer_metrics(tr, wl, phase, phase)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat(workload, tmp_path):
    first = traced_round(workload, 5, tmp_path)
    second = traced_round(workload, 5, tmp_path)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["trace.coverage"][0] > 0.5
    if workload == "laplace-demo":
        assert first["sanitize.evaluate_query.calls"][0] == 520_000
        assert first["circuit.pack_rows.calls"][0] == 3
    else:
        assert first["ttscheme.tr_enc.ciphertexts"][0] > 0


def test_tracer_cost_is_not_charged_to_the_caller():
    tr = Tracer()
    child = tr.span("child", lambda: None)

    def parent():
        for _ in range(20_000):
            child()

    tr.span(ROUND, parent)()
    tot = layer_totals(tr)
    assert tot.calls["child"] == 20_000
    # the loop itself costs far less than the wrappers' bookkeeping
    assert abs(tot.self_s[ROUND]) < 0.5 * tot.tracer_s


def test_zeros_pirate_scan_fails_the_check(tmp_path):
    wl = ScanExact(7, TINY, str(tmp_path))
    assert wl.run_round(0).failed == 0
    wl.make_pirate = lambda ks, i: ttscheme.zeros_pirate()
    assert wl.run_round(1) == (1, 1)


def test_attack_report_checks_can_fail():
    record = {"accused": 1, "feasible": True, "max_abs_err": 0.0, "failed": False}
    exp = {"trial_records": [record, record], "failed_rate": 0.0, "feasible_rate": 1.0}
    good = {"i_star": 1, "exp1": exp, "exp2": exp, "audit": {"violated": False}}
    assert check_attack_report(0, good) == ((4, 0), 0)
    assert check_attack_report(1, good) == ((4, 4), 0)
    assert check_attack_report(0, {**good, "i_star": -1}) == ((4, 4), 0)
    assert check_attack_report(0, {k: v for k, v in good.items() if k != "audit"}) == ((4, 4), 0)
    failed = {**record, "failed": True, "feasible": False, "max_abs_err": None}
    bad_exp = {"trial_records": [record, failed], "failed_rate": 0.5, "feasible_rate": 0.5}
    assert check_attack_report(0, {**good, "exp2": bad_exp}) == ((4, 4), 1)


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "scan-exact", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
