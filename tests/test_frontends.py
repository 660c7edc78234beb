"""The README's library example, the package's module imports, the
scripts/ front ends and the benchmark tracer's targets still run."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import types

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMO = os.path.join(ROOT, "scripts", "run_attack_demo.py")
TIGHTNESS = os.path.join(ROOT, "scripts", "laplace_tightness.py")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def test_readme_library_block_runs(capsys):
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert "'violated'" in capsys.readouterr().out


@pytest.mark.parametrize("name", [
    "attack", "circuit", "cli", "crypto", "errors", "fpcode", "sanitize", "seeds", "ttscheme",
])
def test_import_as_gives_the_module(name):
    # `import a.b as m` reads attribute b of package a: a re-exported
    # function of the same name would shadow the module
    scope = {}
    exec(f"import ttpa.{name} as mod", scope)
    assert isinstance(scope["mod"], types.ModuleType)
    assert scope["mod"].__name__ == f"ttpa.{name}"


def run_demo(*argv):
    env = {k: v for k, v in os.environ.items() if k != "TTPA_SEED"}
    return subprocess.run(
        [sys.executable, DEMO, *argv], capture_output=True, text=True, env=env
    )


def test_attack_demo_refuses_bad_budget_before_any_trial(tmp_path):
    proc = run_demo("--quick", "--eps", "-1", "--out-dir", str(tmp_path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "nonnegative" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "report.json").exists()


def test_attack_demo_quick_run_is_pinned(tmp_path):
    proc = run_demo("--quick", "--seed", "0", "--out-dir", str(tmp_path))
    assert proc.returncode == 0
    assert proc.stdout.endswith(f"summary: {tmp_path / 'summary.csv'}\n")
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("report.json", "summary.csv")
    }
    assert digests == {
        "report.json": "03902f9e0540c4e116faaab3be1b874644c6b3996a8ca63eb9925e931d5a2f9e",
        "summary.csv": "1462664287a5bd1b90abb4ebbac0fd542fc1d5a78b7bc5a1adec4492aad791fc",
    }


def test_laplace_tightness_honours_env_seed(tmp_path):
    # TTPA_SEED=3 used to be ignored, and the report said "seed": 0
    out = tmp_path / "r.json"
    env = dict(os.environ, TTPA_SEED="3")
    proc = subprocess.run(
        [sys.executable, TIGHTNESS, "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["seed"] == 3


def test_laplace_tightness_refuses_bad_env_seed():
    env = dict(os.environ, TTPA_SEED="x")
    proc = subprocess.run(
        [sys.executable, TIGHTNESS], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "TTPA_SEED must be an integer" in proc.stderr and "Traceback" not in proc.stderr


def test_every_tracer_target_is_where_the_tracer_looks(monkeypatch):
    # the benchmark's tracer wraps owner.__dict__[attr] for each target, so a
    # function moved out of the module that calls it fails only when a
    # benchmark run installs the tracer
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look their module up
    spec.loader.exec_module(tracer)
    missing = [
        f"{t.owner.__name__}.{t.attr}" for t in tracer.TARGETS if t.attr not in t.owner.__dict__
    ]
    assert tracer.TARGETS and missing == []
