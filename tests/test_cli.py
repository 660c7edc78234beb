import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ttpa.circuit import circuit_from_json, circuit_to_json
from ttpa.cli import (
    CSV_HEADER,
    canonical_json,
    emit_summary,
    main,
    main_tt,
    resolve_seed,
    summary_csv,
)
from ttpa.crypto import EXPORT_BYTES, EXPORT_GATE_BYTES, LITERAL, dec_circuit_gates
from ttpa.errors import InputShapeError, read_json
from ttpa.fpcode import DEFAULT_EPS_FP, check_codebook_file, codebook_from_json
from ttpa.sanitize import Database, dictator_circuit, save_database
from ttpa.seeds import stream
from ttpa.ttscheme import keyset_from_json

import ttpa.attack as attack_mod
import ttpa.cli as cli_mod
import ttpa.fpcode as fpcode_mod
import ttpa.ttscheme as ttscheme_mod


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("TTPA_SEED", raising=False)


class TestSeedResolution:
    def test_explicit_and_default(self):
        assert resolve_seed(None) == 0
        assert resolve_seed(7) == 7

    def test_env_wins(self, monkeypatch):
        monkeypatch.setenv("TTPA_SEED", "123")
        assert resolve_seed(7) == 123

    def test_empty_env_ignored(self, monkeypatch):
        monkeypatch.setenv("TTPA_SEED", "")
        assert resolve_seed(7) == 7

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("TTPA_SEED", "ten")
        with pytest.raises(InputShapeError):
            resolve_seed(7)

    def test_bad_env_exits_2_through_cli(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TTPA_SEED", "ten")
        code, out, err = run_cli(capsys, "demo", "laplace-tightness")
        assert code == 2 and out == "" and "TTPA_SEED must be an integer" in err

    def test_env_overrides_flag_through_cli(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TTPA_SEED", "9")
        out_path = str(tmp_path / "cb.json")
        code, out, _ = run_cli(
            capsys, "fpcode", "gen", "--n", "2", "--eps-fp", "0.2",
            "--a", "2", "--out", out_path, "--seed", "5",
        )
        assert code == 0
        assert stdout_json(out)["config"]["seed"] == 9


class TestFpcodeCommands:
    def gen(self, capsys, tmp_path, *extra):
        out_path = str(tmp_path / "cb.json")
        code, out, err = run_cli(
            capsys, "fpcode", "gen", "--n", "2", "--eps-fp", "0.2",
            "--a", "100", "--out", out_path, "--seed", "4", *extra,
        )
        return code, out, err, out_path

    def test_gen_writes_loadable_codebook(self, capsys, tmp_path):
        code, out, _err, path = self.gen(capsys, tmp_path)
        assert code == 0
        cb = codebook_from_json(read_json(path))
        assert cb.n == 2 and cb.ell == 922
        echo = stdout_json(out)
        assert echo["ell"] == 922
        assert echo["threshold"] == cb.threshold

    def test_gen_adversary_view(self, capsys, tmp_path):
        view_path = str(tmp_path / "view.json")
        code, _out, _err, _path = self.gen(
            capsys, tmp_path, "--adversary-view", view_path, "--coalition", "0"
        )
        assert code == 0
        view = json.load(open(view_path))
        assert sorted(view) == ["coalition", "ell", "n", "words"]
        assert view["coalition"] == [0]
        assert list(view["words"]) == ["0"]

    def test_gen_view_requires_coalition(self, capsys, tmp_path):
        code, _out, err, _path = self.gen(
            capsys, tmp_path, "--adversary-view", str(tmp_path / "v.json")
        )
        assert code == 2
        assert "coalition" in err
        assert not (tmp_path / "cb.json").exists()

    def test_gen_coalition_requires_view(self, capsys, tmp_path):
        # the coalition only chooses the view's rows: without a view it is refused
        code, out, err, _path = self.gen(capsys, tmp_path, "--coalition", "99")
        assert code == 2 and out == "" and "--coalition needs --adversary-view" in err
        assert not (tmp_path / "cb.json").exists()

    def test_gen_checks_coalition_before_writing(self, capsys, tmp_path):
        code, _out, err, path = self.gen(
            capsys, tmp_path, "--adversary-view", str(tmp_path / "v.json"),
            "--coalition", "7",
        )
        assert code == 2 and "coalition user 7 outside [0, 2)" in err
        assert not (tmp_path / "cb.json").exists()
        assert not (tmp_path / "v.json").exists()

    def test_gen_refuses_missing_view_directory(self, capsys, tmp_path):
        code, _out, err, _path = self.gen(
            capsys, tmp_path, "--adversary-view", str(tmp_path / "nodir" / "v.json"),
            "--coalition", "0",
        )
        assert code == 2 and "--adversary-view" in err and "nodir" in err
        assert not (tmp_path / "cb.json").exists()

    @pytest.mark.parametrize("coalition,why", [
        ("0,x", "comma-separated ints"),
        (",", "coalition is empty"),
    ])
    def test_gen_refuses_malformed_coalition(self, capsys, tmp_path, coalition, why):
        code, out, err, _path = self.gen(
            capsys, tmp_path, "--adversary-view", str(tmp_path / "v.json"),
            "--coalition", coalition,
        )
        assert code == 2 and out == "" and why in err
        assert not (tmp_path / "cb.json").exists()

    def test_gen_onto_a_directory_is_a_runtime_failure(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "fpcode", "gen", "--n", "2", "--out", str(tmp_path)
        )
        assert code == 1 and out == ""
        assert "Is a directory" in err and "Traceback" not in err

    def test_gen_rejects_bad_n(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys, "fpcode", "gen", "--n", "0", "--out", str(tmp_path / "x.json")
        )
        assert code == 2 and "n >= 2" in err

    def test_trace_member_word(self, capsys, tmp_path):
        _code, _out, _err, path = self.gen(capsys, tmp_path)
        word_hex = json.load(open(path))["words"][0]
        code, out, _ = run_cli(
            capsys, "fpcode", "trace", "--codebook", path, "--word", word_hex
        )
        assert code == 0
        echo = stdout_json(out)
        assert echo["accused"] == 0
        assert echo["max_score"] > echo["threshold"]

    def test_trace_takes_no_seed(self, capsys, tmp_path, monkeypatch):
        # the command draws nothing, so neither --seed nor TTPA_SEED reaches it
        _code, _out, _err, path = self.gen(capsys, tmp_path)
        word_hex = json.load(open(path))["words"][0]
        code, _out2, err = run_cli(
            capsys, "fpcode", "trace", "--codebook", path, "--word", word_hex, "--seed", "1"
        )
        assert code == 2 and "--seed" in err
        monkeypatch.setenv("TTPA_SEED", "not-a-seed")
        code, out, _ = run_cli(capsys, "fpcode", "trace", "--codebook", path, "--word", word_hex)
        assert code == 0
        assert stdout_json(out)["config"] == {"codebook": path}

    def test_trace_word_file(self, capsys, tmp_path):
        _code, _out, _err, path = self.gen(capsys, tmp_path)
        word_path = str(tmp_path / "word.txt")
        with open(word_path, "w") as f:
            f.write(json.load(open(path))["words"][1])
        code, out, _ = run_cli(
            capsys, "fpcode", "trace", "--codebook", path, "--word-file", word_path
        )
        assert code == 0
        assert stdout_json(out)["accused"] == 1

    def test_trace_rejects_bad_word(self, capsys, tmp_path):
        _code, _out, _err, path = self.gen(capsys, tmp_path)
        code, _out2, err = run_cli(
            capsys, "fpcode", "trace", "--codebook", path, "--word", "zz"
        )
        assert code == 2

    def test_trace_refuses_zero_bias_codebook(self, capsys, tmp_path):
        # a bias of 0 used to load and print "max_score":NaN with exit 0
        _code, _out, _err, path = self.gen(capsys, tmp_path)
        obj = json.load(open(path))
        obj["biases"][0] = 0.0
        with open(path, "w") as f:
            json.dump(obj, f)
        code, out, err = run_cli(
            capsys, "fpcode", "trace", "--codebook", path, "--word", obj["words"][0]
        )
        assert code == 2 and out == ""
        assert "biases" in err and "Traceback" not in err

    def test_trace_refuses_codebook_scalars(self, capsys, tmp_path):
        # n=1, eps_fp=5, a=-1 and threshold=-100 used to accuse user 0 with exit 0
        _code, _out, _err, path = self.gen(capsys, tmp_path)
        obj = json.load(open(path))
        obj.update(n=1, eps_fp=5.0, a=-1.0, threshold=-100.0, words=obj["words"][:1])
        with open(path, "w") as f:
            json.dump(obj, f)
        code, out, err = run_cli(
            capsys, "fpcode", "trace", "--codebook", path, "--word", obj["words"][0]
        )
        assert code == 2 and out == ""
        assert "n >= 2" in err and "Traceback" not in err

    def test_trace_missing_codebook(self, capsys, tmp_path):
        code, _out, _err = run_cli(
            capsys, "fpcode", "trace", "--codebook", str(tmp_path / "nope.json"),
            "--word", "00",
        )
        assert code == 2

    def test_bench_all_strategies(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "fpcode", "bench", "--n", "3", "--eps-fp", "0.2", "--a", "2",
            "--trials", "5", "--strategy", "all", "--seed", "4",
        )
        assert code == 0
        results = stdout_json(out)["results"]
        assert sorted(results) == ["COPY_ONE", "MAJORITY", "MINORITY", "RANDOM_FEASIBLE"]
        for r in results.values():
            assert r["trials"] == 5


class TestTTCommands:
    def keygen(self, capsys, tmp_path, *extra):
        path = str(tmp_path / "ks.json")
        code, out, err = run_cli(
            capsys, "tt", "keygen", "--kappa", "16", "--n", "3",
            "--out", path, "--seed", "3", *extra,
        )
        return code, out, err, path

    def test_keygen_local_prg(self, capsys, tmp_path):
        code, out, _err, path = self.keygen(capsys, tmp_path)
        assert code == 0
        assert stdout_json(out)["stretch"] == 512
        ks = keyset_from_json(read_json(path))
        assert ks.params.n == 3 and ks.params.kappa == 16

    def test_keygen_prf_has_no_stretch(self, capsys, tmp_path):
        code, out, _err, _path = self.keygen(capsys, tmp_path, "--scheme", "prf")
        assert code == 0
        assert stdout_json(out)["stretch"] is None

    def test_trace_honest_pirate(self, capsys, tmp_path):
        _c, _o, _e, path = self.keygen(capsys, tmp_path)
        code, out, _ = run_cli(
            capsys, "tt", "trace", "--keys", path, "--pirate", "honest:1",
            "--eps-fp", "0.2", "--seed", "3",
        )
        assert code == 0
        echo = stdout_json(out)
        assert echo["accused"] == 1
        assert echo["feasible"] is True
        assert echo["ell_fp"] == 2438
        # reported birthday bound: ell_fp^2 / prg stretch
        assert echo["collision_bound"] == 2438 * 2438 / 512

    def test_trace_zeros_pirate(self, capsys, tmp_path):
        _c, _o, _e, path = self.keygen(capsys, tmp_path)
        code, out, _ = run_cli(
            capsys, "tt", "trace", "--keys", path, "--pirate", "zeros",
            "--eps-fp", "0.2", "--seed", "3",
        )
        assert code == 0
        echo = stdout_json(out)
        assert echo["accused"] is None and echo["feasible"] is None

    def test_trace_sanitizer_pirate(self, capsys, tmp_path):
        _c, _o, _e, path = self.keygen(capsys, tmp_path)
        code, out, _ = run_cli(
            capsys, "tt", "trace", "--keys", path, "--pirate", "sanitizer:exact",
            "--coalition", "0,1", "--eps-fp", "0.2", "--seed", "3",
        )
        assert code == 0
        echo = stdout_json(out)
        assert echo["accused"] == 0
        assert echo["feasible"] is True

    def test_trace_bad_pirate_spec(self, capsys, tmp_path):
        _c, _o, _e, path = self.keygen(capsys, tmp_path)
        for spec in ("oracle9000", "sanitizer:bogus", "zeros:1"):
            code, out, err = run_cli(capsys, "tt", "trace", "--keys", path, "--pirate", spec)
            assert code == 2 and out == "" and f"unknown pirate {spec!r}" in err

    def test_export_circuit_literal_depth(self, capsys, tmp_path):
        _c, _o, _e, path = self.keygen(capsys, tmp_path)
        out_path = str(tmp_path / "lit.json")
        code, out, _ = run_cli(
            capsys, "tt", "export-circuit", "--keys", path, "--mode", "literal",
            "--out", out_path, "--seed", "3",
        )
        assert code == 0
        echo = stdout_json(out)
        assert echo["depth"] == 6 and echo["input_width"] == 16
        circ = circuit_from_json(json.load(open(out_path)))
        assert circ.input_width == 16

    def test_export_circuit_folded_level(self, capsys, tmp_path):
        _c, _o, _e, path = self.keygen(capsys, tmp_path)
        out_path = str(tmp_path / "fol.json")
        code, out, _ = run_cli(
            capsys, "tt", "export-circuit", "--keys", path, "--level", "2",
            "--out", out_path, "--seed", "3",
        )
        assert code == 0
        assert stdout_json(out)["depth"] <= 4

    @pytest.mark.parametrize("bit", ["0", "1"])
    def test_export_circuit_refuses_bit_with_level(self, capsys, tmp_path, bit):
        # a level ciphertext has no plaintext bit; --bit 1 equals the old default
        _c, _o, _e, path = self.keygen(capsys, tmp_path)
        out_path = tmp_path / "c.json"
        code, out, err = run_cli(
            capsys, "tt", "export-circuit", "--keys", path, "--bit", bit,
            "--level", "2", "--out", str(out_path),
        )
        assert code == 2 and out == "" and "not allowed with argument" in err
        assert not out_path.exists()

    def test_trace_refuses_rounds_over_the_memory_limit(self, capsys, tmp_path, monkeypatch):
        # n=10 at the default code length: 5000 Laplace rounds hold about 4 GiB
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a codebook")

        monkeypatch.setattr(ttscheme_mod, "fp_gen", no_draw)
        path = str(tmp_path / "ks.json")
        run_cli(capsys, "tt", "keygen", "--kappa", "16", "--n", "10", "--out", path)
        code, out, err = run_cli(
            capsys, "tt", "trace", "--keys", path, "--pirate", "sanitizer:laplace",
            "--amp-rounds", "5000",
        )
        assert code == 2 and out == "" and "rounds=5000" in err and "GiB" in err

    def test_export_circuit_prf_refused(self, capsys, tmp_path):
        _c, _o, _e, path = self.keygen(capsys, tmp_path, "--scheme", "prf")
        code, _out, err = run_cli(
            capsys, "tt", "export-circuit", "--keys", path,
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2 and "LOCAL_PRG" in err

    @pytest.mark.parametrize("field,changes", [
        ("index_sets", {}),  # position 40, past the 8-bit seed
        ("kappa", {"kappa": 16}),
        ("table", {"table": "96"}),  # 8 of the 32 bits a locality-5 predicate needs
        ("ell", {"ell": 0, "index_sets": ""}),
        ("locality", {"locality": 0, "index_sets": "", "table": "80"}),
    ])
    def test_trace_rejects_malformed_prg(self, capsys, tmp_path, field, changes):
        _c, _o, _e, path = self.keygen(capsys, tmp_path)
        obj = json.load(open(path))
        prg = obj["prg"]
        if field == "index_sets":
            prg["index_sets"] = "0028" + prg["index_sets"][4:]
        prg.update(changes)
        with open(path, "w") as f:
            json.dump(obj, f)
        code, out, err = run_cli(
            capsys, "tt", "trace", "--keys", path, "--pirate", "sanitizer:exact",
            "--coalition", "0,1", "--eps-fp", "0.2", "--seed", "3",
        )
        assert code == 2 and out == ""
        assert "prg." + field in err and "Traceback" not in err

    @pytest.mark.parametrize("scheme,keep_prg,why", [
        ("FOO", True, "unknown scheme"),
        ("LOCAL_PRG", False, "need a PRG"),
        ("PRF", True, "carry no PRG"),
    ])
    def test_trace_rejects_scheme_that_does_not_fit(
        self, capsys, tmp_path, scheme, keep_prg, why
    ):
        _c, _o, _e, path = self.keygen(capsys, tmp_path)
        obj = json.load(open(path))
        obj["scheme"] = scheme
        if not keep_prg:
            obj["prg"] = None
        with open(path, "w") as f:
            json.dump(obj, f)
        code, out, err = run_cli(
            capsys, "tt", "trace", "--keys", path, "--pirate", "honest:1",
            "--eps-fp", "0.2", "--seed", "3",
        )
        assert code == 2 and out == ""
        assert why in err and "Traceback" not in err

    def test_trace_rejects_index_sets_of_the_wrong_length(self, capsys, tmp_path):
        # a truncated string used to fail in numpy's reshape, naming no field
        _c, _o, _e, path = self.keygen(capsys, tmp_path)
        obj = json.load(open(path))
        obj["prg"]["index_sets"] = obj["prg"]["index_sets"][:-2]
        with open(path, "w") as f:
            json.dump(obj, f)
        code, out, err = run_cli(
            capsys, "tt", "trace", "--keys", path, "--pirate", "honest:1",
            "--eps-fp", "0.2", "--seed", "3",
        )
        assert code == 2 and out == ""
        assert "prg.index_sets is 10238 hex digits, expected 10240" in err
        assert "Traceback" not in err

    def test_missing_keys_file(self, capsys, tmp_path):
        code, _out, _err = run_cli(
            capsys, "tt", "trace", "--keys", str(tmp_path / "nope.json"),
            "--pirate", "zeros",
        )
        assert code == 2

    def test_group_entry_point(self, capsys, tmp_path):
        path = str(tmp_path / "ks.json")
        code = main_tt(
            ["keygen", "--kappa", "16", "--n", "2", "--out", path, "--seed", "3"]
        )
        capsys.readouterr()
        assert code == 0
        assert keyset_from_json(read_json(path)).params.n == 2


class TestSanitizeCommand:
    @pytest.fixture
    def db_and_queries(self, tmp_path):
        rows = np.array([[1, 0, 1], [1, 1, 0], [0, 0, 0], [1, 0, 0]], dtype=np.uint8)
        db_path = str(tmp_path / "db.txt")
        save_database(Database(rows), db_path)
        q0 = str(tmp_path / "q0.json")
        with open(q0, "w") as f:
            f.write(canonical_json(circuit_to_json(dictator_circuit(0, 3))))
        qs = str(tmp_path / "qs.json")
        with open(qs, "w") as f:
            json.dump(
                [
                    circuit_to_json(dictator_circuit(1, 3)),
                    circuit_to_json(dictator_circuit(2, 3)),
                ],
                f,
            )
        return db_path, q0, qs

    def test_exact_answers_are_column_means(self, capsys, db_and_queries):
        db_path, q0, qs = db_and_queries
        code, out, _ = run_cli(
            capsys, "sanitize", "run", "--db", db_path, "--queries", q0, qs,
            "--kind", "exact", "--seed", "4",
        )
        assert code == 0
        echo = stdout_json(out)
        assert echo["answers"] == [0.75, 0.25, 0.25]
        assert echo["scale"] is None
        assert (echo["m"], echo["d"], echo["k"]) == (4, 3, 3)

    def test_laplace_scale_echoed(self, capsys, db_and_queries):
        db_path, q0, _qs = db_and_queries
        code, out, _ = run_cli(
            capsys, "sanitize", "run", "--db", db_path, "--queries", q0,
            "--kind", "laplace", "--eps", "100000", "--seed", "4",
        )
        assert code == 0
        echo = stdout_json(out)
        assert echo["scale"] == 1 / (100000 * 4)
        assert abs(echo["answers"][0] - 0.75) < 0.01

    def test_deterministic_across_reruns(self, capsys, db_and_queries):
        db_path, q0, _qs = db_and_queries
        argv = (
            "sanitize", "run", "--db", db_path, "--queries", q0,
            "--kind", "laplace", "--eps", "2", "--seed", "8",
        )
        _c1, out1, _ = run_cli(capsys, *argv)
        _c2, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_bad_inputs(self, capsys, tmp_path, db_and_queries):
        db_path, q0, _qs = db_and_queries
        bad_db = str(tmp_path / "bad.txt")
        with open(bad_db, "w") as f:
            f.write("m=3\n")
        code, _out, _err = run_cli(
            capsys, "sanitize", "run", "--db", bad_db, "--queries", q0,
            "--kind", "exact",
        )
        assert code == 2
        bad_q = str(tmp_path / "badq.json")
        with open(bad_q, "w") as f:
            f.write("[1, 2]")
        code, _out, _err = run_cli(
            capsys, "sanitize", "run", "--db", db_path, "--queries", bad_q,
            "--kind", "exact",
        )
        assert code == 2
        wide_q = str(tmp_path / "wide.json")
        with open(wide_q, "w") as f:
            f.write(canonical_json(circuit_to_json(dictator_circuit(0, 5))))
        code, _out, _err = run_cli(
            capsys, "sanitize", "run", "--db", db_path, "--queries", wide_q,
            "--kind", "exact",
        )
        assert code == 2


class TestAttackCommand:
    ARGS = (
        "attack", "run", "--n", "3", "--kappa", "16", "--eps-fp", "0.2",
        "--a", "2", "--trials", "6", "--seed", "5",
    )

    def run(self, capsys, tmp_path, name, *extra):
        out_path = str(tmp_path / name)
        code, out, err = run_cli(capsys, *self.ARGS, "--out", out_path, *extra)
        return code, out, err, out_path

    def test_report_written_and_summarized(self, capsys, tmp_path):
        csv_path = str(tmp_path / "s.csv")
        code, out, _err, out_path = self.run(
            capsys, tmp_path, "r.json", "--summary-csv", csv_path
        )
        assert code == 0
        report = json.load(open(out_path))
        assert set(report) == {"params", "i_star", "exp1", "exp2", "audit"}
        assert report["params"]["n"] == 3 and report["params"]["seed"] == 5
        assert "attack report" in out
        assert f"report: {out_path}" in out
        assert "INCONCLUSIVE" in out  # 6 trials is below the audit minimum
        with open(csv_path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == CSV_HEADER
        assert all(len(r) == len(CSV_HEADER) for r in rows)

    def test_reruns_and_jobs_are_byte_identical(self, capsys, tmp_path):
        _c1, _o1, _e1, p1 = self.run(capsys, tmp_path, "a.json")
        _c2, _o2, _e2, p2 = self.run(capsys, tmp_path, "b.json")
        _c3, _o3, _e3, p3 = self.run(capsys, tmp_path, "c.json", "--jobs", "2")
        b1, b2, b3 = (open(p, "rb").read() for p in (p1, p2, p3))
        assert b1 == b2 == b3

    def test_env_seed_overrides_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TTPA_SEED", "11")
        code, _out, _err, out_path = self.run(capsys, tmp_path, "r.json")
        assert code == 0
        assert json.load(open(out_path))["params"]["seed"] == 11

    def test_rejects_single_user(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys, "attack", "run", "--n", "1", "--out", str(tmp_path / "x.json")
        )
        assert code == 2 and "two users" in err

    def test_rejects_oversized_tracing_batch(self, capsys, tmp_path):
        # the defaults eps_fp=0.05, a=100 at n=100: a 7.5 GiB trial, refused
        # before any key, codebook or worker process exists
        out_path = tmp_path / "r.json"
        code, _out, err = run_cli(
            capsys, "attack", "run", "--n", "100", "--jobs", "2", "--out", str(out_path)
        )
        assert code == 2 and "GiB" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ("attack", "run", "--kappa", "256"),
        ("tt", "keygen", "--kappa", "256", "--n", "2"),
    ])
    def test_rejects_prg_too_large_to_draw(self, capsys, tmp_path, argv):
        # 128 seed bits at the cubic stretch: a 4 GiB index-set draw, refused
        # before it is allocated
        out_path = tmp_path / "r.json"
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 2 and out == "" and "GiB" in err
        assert not out_path.exists()

    def test_rejects_rounds_over_the_memory_limit(self, capsys, tmp_path, monkeypatch):
        # n=10 at the defaults: 5000 Laplace rounds hold about 4 GiB per trial
        def no_run(*args, **kwargs):
            raise AssertionError("started the attack")

        monkeypatch.setattr(cli_mod, "run_attack", no_run)
        out_path = tmp_path / "r.json"
        code, out, err = run_cli(
            capsys, "attack", "run", "--sanitizer", "laplace", "--amp-rounds", "5000",
            "--out", str(out_path),
        )
        assert code == 2 and out == "" and "rounds=5000" in err and "GiB" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_rejects_jobs_below_one(self, capsys, tmp_path, jobs):
        code, _out, err, _path = self.run(capsys, tmp_path, "r.json", "--jobs", jobs)
        assert code == 2 and "jobs must be >= 1" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--eps", "-1"),
        ("--delta", "-0.5"),
        ("--eps", "nan"),
        ("--eps", "inf"),
        ("--delta", "nan"),
        ("--eps", "710"),  # e^710 overflows: dp_audit raised OverflowError after every trial
        ("--delta", "1.01"),  # a delta above 1 claims nothing
        ("--delta", "1.7e308"),  # with --eps 709 this made the margin -inf, not JSON
    ])
    def test_rejects_negative_audit_budget_before_any_trial(
        self, capsys, tmp_path, monkeypatch, flag, value
    ):
        def no_trial(*args):
            raise AssertionError("a trial ran before the audit budget was checked")

        monkeypatch.setattr(attack_mod, "_run_trial", no_trial)
        code, out, err, out_path = self.run(capsys, tmp_path, "r.json", flag, value)
        why = {"710": "overflows", "1.01": "claims nothing", "1.7e308": "claims nothing"}
        why = why.get(value, "nonnegative")
        assert code == 2 and out == "" and why in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flag", ["--out", "--summary-csv"])
    def test_missing_output_directory_refused_before_the_attack(
        self, capsys, tmp_path, monkeypatch, flag
    ):
        def no_attack(*args, **kwargs):
            raise AssertionError("the attack ran before its output directory was checked")

        monkeypatch.setattr(cli_mod, "run_attack", no_attack)
        missing = str(tmp_path / "nodir" / "f")
        argv = [*self.ARGS, "--out", str(tmp_path / "r.json"), flag, missing]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"{flag}: no directory" in err
        assert not (tmp_path / "r.json").exists()

    def test_unknown_flag(self, capsys):
        code, _out, _err = run_cli(capsys, "attack", "run", "--frobnicate")
        assert code == 2

    @pytest.mark.parametrize("argv", [("attack", "run"), ("tt", "trace", "--keys", "k.json")])
    def test_mode_is_not_an_option(self, capsys, argv):
        # the bulk query family answers the same in either circuit mode
        code, _out, err = run_cli(capsys, *argv, "--mode", "folded")
        assert code == 2 and "unrecognized arguments: --mode" in err

    def test_unknown_subcommand(self, capsys):
        code, _out, _err = run_cli(capsys, "attack", "foo")
        assert code == 2


class TestSummaryFormats:
    def sample_report(self):
        return {
            "params": {
                "n": 3, "kappa": 16, "trials": 40, "eps_fp": 0.2, "a": 2.0, "seed": 5,
                "sanitizer": {
                    "kind": "EXACT", "epsilon": None, "delta": None,
                    "composition": "BASIC", "amplification_rounds": 0,
                },
            },
            "i_star": 1,
            "exp1": {
                "label": "full", "coalition": [0, 1, 2], "trials": 40,
                "accused_freq": {"1": 0.6, "0": 0.2}, "none_freq": 0.2,
                "feasible_rate": 1.0, "failed_rate": 0.0,
                "max_abs_err": {"mean": 0.0, "max": 0.0},
                "trial_records": [
                    {"accused": 1, "feasible": True, "max_abs_err": 0.0, "failed": False}
                ],
            },
            "exp2": {
                "label": "minus", "coalition": [0, 2], "trials": 40,
                "accused_freq": {"0": 0.1}, "none_freq": 0.9,
                "feasible_rate": 1.0, "failed_rate": 0.0,
                "max_abs_err": {"mean": 0.0, "max": 0.0},
                "trial_records": [],
            },
            "audit": {
                "epsilon": 1.0, "delta": 0.01, "i_star": 1,
                "trials_full": 40, "trials_minus": 40,
                "p_full": 0.6, "p_minus": 0.0, "eps_stat": 0.2,
                "margin": 0.39, "conclusive": True, "violated": True,
            },
        }

    def test_emit_summary_tables_and_verdict(self):
        text = emit_summary(self.sample_report())
        assert "  n=3 kappa=16 trials=40\n" in text
        assert "[exp1]" in text and "[exp2]" in text
        assert "VIOLATED" in text
        assert "NONE  0.200000" in text
        assert "p_full=0.600000" in text

    def test_emit_summary_inconclusive(self):
        report = self.sample_report()
        report["audit"]["conclusive"] = False
        report["audit"]["violated"] = False
        text = emit_summary(report)
        assert "INCONCLUSIVE" in text
        assert "VIOLATED" not in text

    def test_csv_roundtrip_is_lossless(self):
        text = summary_csv(self.sample_report())
        header, *rows = csv.reader(io.StringIO(text))
        assert header == CSV_HEADER
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        assert buf.getvalue() == text
        assert ["accused_freq", "exp1", "1", "0.600000"] in rows
        assert ["accused_freq", "exp2", "NONE", "0.900000"] in rows

    @pytest.mark.parametrize("argv", [
        ("fpcode", "trace", "--codebook", "{path}", "--word", "00"),
        ("tt", "trace", "--keys", "{path}", "--pirate", "zeros"),
        ("tt", "export-circuit", "--keys", "{path}", "--out", "c.json"),
        ("sanitize", "run", "--db", "{db}", "--queries", "{path}", "--kind", "exact"),
    ])
    def test_invalid_json_is_an_input_error(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        db = tmp_path / "db.txt"
        db.write_text("d=3\na0\n")
        code, out, err = run_cli(
            capsys, *(a.format(path=path, db=db) for a in argv)
        )
        assert code == 2 and out == ""
        assert "not valid JSON" in err and "Traceback" not in err

    def test_canonical_json_is_sorted_and_tight(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


@pytest.mark.parametrize("argv", [
    ("attack", "run", "--n", "3", "--kappa", "16", "--out", "{out}"),
    ("sanitize", "run", "--db", "{db}", "--queries", "{query}", "--kind", "exact"),
    ("tt", "trace", "--keys", "{keys}", "--pirate", "sanitizer:exact"),
])
def test_exact_sanitizer_refuses_amp_rounds(capsys, tmp_path, argv):
    # the exact sanitizer adds no noise, so it has no rounds to take a median of
    files = input_files(capsys, tmp_path)
    code, stdout, err = run_cli(capsys, *(a.format(**files) for a in argv), "--amp-rounds", "7")
    assert code == 2 and stdout == "" and "LAPLACE only" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ("sanitize", "run", "--db", "{db}", "--queries", "{query}", "--kind", "laplace", "--eps", "nan"),
    ("sanitize", "run", "--db", "{db}", "--queries", "{query}", "--kind", "laplace", "--eps", "inf"),
    ("sanitize", "run", "--db", "{db}", "--queries", "{query}", "--kind", "laplace",
     "--delta", "nan"),
    ("tt", "trace", "--keys", "{keys}", "--pirate", "sanitizer:laplace", "--eps", "nan"),
])
def test_non_finite_noise_budget_refused_before_any_draw(capsys, tmp_path, monkeypatch, argv):
    # --eps nan printed NaN answers and scale, and --eps inf a scale of 0.0:
    # neither NaN nor Infinity is JSON
    files = input_files(capsys, tmp_path)

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(cli_mod, "stream", no_draw)
    code, stdout, err = run_cli(capsys, *(a.format(**files) for a in argv), "--out", files["out"])
    assert code == 2 and stdout == "" and "finite" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv,why", [
    (("attack", "run", "--n", "4", "--kappa", "16", "--trials", "3", "--a", "inf"),
     "length constant"),
    (("fpcode", "gen", "--n", "2", "--a", "inf"), "length constant"),
    (("fpcode", "bench", "--n", "2", "--trials", "2", "--a", "inf"), "length constant"),
    (("tt", "trace", "--keys", "{keys}", "--pirate", "honest:1", "--a", "inf"),
     "length constant"),
    (("attack", "run", "--n", "4", "--kappa", "16", "--trials", "3", "--eps-fp", "1e-320"),
     "not finite"),
    (("fpcode", "gen", "--n", "2", "--a", "1e308"), "not finite"),
    (("sanitize", "run", "--db", "{db}", "--queries", "{query}", "--kind", "laplace",
      "--eps", "1e-320"), "noise scale of inf for 1 queries over 2 rows"),
    (("sanitize", "run", "--db", "{db}", "--queries", "{query}", "--kind", "laplace",
      "--eps", "1", "--delta", "1e-320", "--composition", "advanced"), "noise scale of inf"),
    (("attack", "run", "--n", "4", "--kappa", "16", "--trials", "3", "--sanitizer", "laplace",
      "--eps", "1e-320"), "noise scale of inf for 7012 queries over 3 rows"),
    (("tt", "trace", "--keys", "{keys}", "--pirate", "sanitizer:laplace", "--coalition", "0,2",
      "--eps", "1e-320"), "noise scale of inf for 3685 queries over 2 rows"),
])
def test_non_finite_lengths_and_scales_refused_before_any_draw(
    capsys, tmp_path, monkeypatch, argv, why
):
    # the first four failed with an OverflowError traceback from code_length,
    # and the sanitize runs printed "scale":Infinity, which is not JSON
    files = input_files(capsys, tmp_path)
    made = []

    def tracked_stream(*labels):
        rng = stream(*labels)
        made.append((rng, rng.bit_generator.state))
        return rng

    def no_run(*args, **kwargs):
        raise AssertionError("ran before refusing")

    for mod in (cli_mod, fpcode_mod):
        monkeypatch.setattr(mod, "stream", tracked_stream)
    monkeypatch.setattr(cli_mod, "run_attack", no_run)
    code, stdout, err = run_cli(capsys, *(a.format(**files) for a in argv), "--out", files["out"])
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and why in err
    assert all(rng.bit_generator.state == state for rng, state in made)
    assert not (tmp_path / "r.json").exists()


def test_non_finite_report_is_a_runtime_failure(capsys, tmp_path, monkeypatch):
    # inputs that give a non-finite number are refused first, so a report
    # that still holds one is a program fault: exit 1, and no file written
    out = str(tmp_path / "r.json")
    monkeypatch.setattr(cli_mod, "laplace_tightness_demo", lambda seed: {"scale": float("inf")})
    code, stdout, err = run_cli(capsys, "demo", "laplace-tightness", "--out", out)
    assert code == 1 and stdout == ""
    assert err.startswith("error: report is not JSON") and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def input_files(capsys, tmp_path) -> dict:
    """A 2-row database, a dictator query over it, a 3-user key set, and an output path."""
    db, query, keys = (str(tmp_path / name) for name in ("db.txt", "q.json", "ks.json"))
    save_database(Database(np.zeros((2, 3), dtype=np.uint8)), db)
    with open(query, "w") as f:
        f.write(canonical_json(circuit_to_json(dictator_circuit(0, 3))))
    run_cli(capsys, "tt", "keygen", "--kappa", "16", "--n", "3", "--out", keys)
    return {"db": db, "query": query, "keys": keys, "out": str(tmp_path / "r.json")}


TRACE = ("tt", "trace", "--keys", "{keys}", "--pirate")
SANITIZE_EXACT = ("sanitize", "run", "--db", "{db}", "--queries", "{query}", "--kind", "exact")


@pytest.mark.parametrize("argv,flag", [
    ((*TRACE, "honest:1", "--coalition", "0,2"), "--coalition"),
    ((*TRACE, "honest", "--eps", "3"), "--eps"),
    ((*TRACE, "zeros", "--delta", "0.2"), "--delta"),
    ((*TRACE, "honest:2", "--composition", "advanced"), "--composition"),
    ((*TRACE, "zeros", "--amp-rounds", "0"), "--amp-rounds"),
    ((*TRACE, "sanitizer:exact", "--eps", "3"), "--eps"),
    ((*TRACE, "sanitizer:exact", "--delta", "0.2"), "--delta"),
    ((*TRACE, "sanitizer:exact", "--composition", "advanced"), "--composition"),
    ((*SANITIZE_EXACT, "--eps", "3"), "--eps"),
    ((*SANITIZE_EXACT, "--delta", "0.2"), "--delta"),
    ((*SANITIZE_EXACT, "--composition", "advanced"), "--composition"),
    (("attack", "run", "--n", "3", "--kappa", "16", "--composition", "advanced"), "--composition"),
])
def test_settings_a_run_ignores_are_refused_before_any_draw(
    capsys, tmp_path, monkeypatch, argv, flag
):
    # each used to run and print the same bytes as without the flag
    files = input_files(capsys, tmp_path)

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(cli_mod, "stream", no_draw)
    monkeypatch.setattr(cli_mod, "run_attack", no_draw)
    code, stdout, err = run_cli(capsys, *(a.format(**files) for a in argv), "--out", files["out"])
    assert code == 2 and stdout == "" and f"{flag} would be ignored" in err
    assert not (tmp_path / "r.json").exists()


# Every numeric flag of each command, over edge values.  The bases are small, so
# an accepted value runs in milliseconds, and attack run's one trial starts no
# worker even at --jobs 2, which makes --trials reach the pool's sizing.
EDGE_VALUES = (
    "0", "-1", "nan", "inf", "-inf", "1e308", "5e-324", "1e-320", "100000", "10000000000",
    str(1 << 63),
)
NUMERIC_FLAGS = {
    ("attack", "run", "--n", "3", "--kappa", "16", "--trials", "1", "--jobs", "2",
     "--sanitizer", "laplace"):
        ("--n", "--kappa", "--eps-fp", "--trials", "--a", "--jobs", "--eps", "--delta",
         "--amp-rounds", "--seed"),
    (*TRACE, "sanitizer:laplace"): ("--eps-fp", "--a", "--eps", "--delta", "--amp-rounds", "--seed"),
    ("tt", "keygen", "--kappa", "16", "--n", "3"): ("--kappa", "--n", "--seed"),
    ("fpcode", "gen", "--n", "3"): ("--n", "--eps-fp", "--a", "--seed"),
    ("fpcode", "bench", "--n", "3", "--trials", "1", "--strategy", "majority"):
        ("--n", "--eps-fp", "--a", "--trials", "--coalition-size", "--seed"),
    ("sanitize", "run", "--db", "{db}", "--queries", "{query}", "--kind", "laplace"):
        ("--eps", "--delta", "--amp-rounds", "--seed"),
    ("tt", "export-circuit", "--keys", "{keys}"): ("--level", "--seed"),
    ("demo", "laplace-tightness"): ("--seed",),
}
ENDLESS = pytest.mark.skip(
    reason="fpcode bench keeps only counters, so it refuses no trial count, and attack run's"
    " records admit 100,000 trials: these run for minutes, and 2^63 trials never end"
)
ENDLESS_ARGS = {("fpcode", "--trials", v) for v in ("100000", "10000000000", str(1 << 63))} | {
    ("attack", "--trials", "100000")
}


@pytest.mark.parametrize("argv", [
    pytest.param(
        (*base, flag, value),
        id=f"{base[0]}-{base[1]}{flag}={value}",
        marks=[ENDLESS] if (base[0], flag, value) in ENDLESS_ARGS else [],
    )
    for base, flags in NUMERIC_FLAGS.items()
    for flag in flags
    for value in EDGE_VALUES
])
def test_numeric_flags_run_or_refuse_cleanly(capsys, tmp_path, argv):
    files = input_files(capsys, tmp_path)
    code, stdout, err = run_cli(capsys, *(a.format(**files) for a in argv), "--out", files["out"])
    assert code in (0, 2), err
    if code == 2:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
        assert stdout == "" and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ("tt", "keygen", "--kappa", str(1 << 63), "--n", "2"),
    ("tt", "keygen", "--kappa", "64", "--n", "4000000000"),
    ("tt", "trace", "--keys", "{big_kappa}", "--pirate", "honest:1"),
    ("attack", "run", "--kappa", str(1 << 63)),
    ("attack", "run", "--n", "3", "--kappa", "16", "--jobs", "2", "--trials", str(1 << 62)),
    ("attack", "run", "--n", "3", "--kappa", "16", "--jobs", "2", "--trials", str(1 << 63)),
    ("fpcode", "gen", "--n", "100000"),
    ("fpcode", "bench", "--n", "100000", "--trials", "1"),
    ("sanitize", "run", "--db", "{db}", "--queries", "{query}", "--kind", "laplace",
     "--amp-rounds", "10000000000"),
    ("tt", "export-circuit", "--keys", "{keys64}", "--mode", "literal"),
    ("fpcode", "gen", "--n", "120"),
])
def test_sizes_past_the_memory_limit_refused_before_any_draw(capsys, tmp_path, monkeypatch, argv):
    # these ended in a MemoryError or OverflowError traceback, numpy's "Unable to
    # allocate 238. GiB" (106. TiB for the codebook, 74.5 GiB for the noise), or,
    # run serially, trials that could never finish; a kappa-64 literal netlist
    # for 32 users (12 GiB to write) and the 3.1 GiB of an n=120 codebook file
    # passed every count and were built
    files = input_files(capsys, tmp_path)
    keys = read_json(files["keys"])
    files["big_kappa"] = str(tmp_path / "big-kappa.json")
    with open(files["big_kappa"], "w") as f:
        json.dump(dict(keys, kappa=1 << 63), f)
    if "{keys64}" in argv:
        files["keys64"] = str(tmp_path / "keys64.json")
        run_cli(capsys, "tt", "keygen", "--kappa", "64", "--n", "32", "--out", files["keys64"])

    def no_draw(*args, **kwargs):
        raise AssertionError("drew or ran before refusing")

    for module, name in (
        (ttscheme_mod, "prg_params_gen"), (cli_mod, "run_attack"),
        (cli_mod, "fp_gen"), (cli_mod, "tt_dec_circuit"),
    ):
        monkeypatch.setattr(module, name, no_draw)
    code, stdout, err = run_cli(capsys, *(a.format(**files) for a in argv), "--out", files["out"])
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "limit" in err
    assert not (tmp_path / "r.json").exists()


def traced_peak(capsys, *argv) -> int:
    """Tracemalloc peak of one warm CLI run, which must succeed."""
    assert run_cli(capsys, *argv)[0] == 0
    tracemalloc.start()
    try:
        assert run_cli(capsys, *argv)[0] == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n,a", [(2, 1000.0), (16, 50.0), (80, 5.0)])
def test_codebook_file_peak_within_the_count(capsys, tmp_path, n, a):
    out = str(tmp_path / "cb.json")
    peak = traced_peak(capsys, "fpcode", "gen", "--n", str(n), "--a", str(a), "--out", out)
    assert peak <= check_codebook_file(n, DEFAULT_EPS_FP, a)


@pytest.mark.parametrize("kappa,n", [(16, 1), (16, 3), (18, 2)])
def test_literal_export_peak_within_the_count(capsys, tmp_path, kappa, n):
    keys, out = str(tmp_path / "ks.json"), str(tmp_path / "c.json")
    run_cli(capsys, "tt", "keygen", "--kappa", str(kappa), "--n", str(n), "--out", keys)
    export = ("tt", "export-circuit", "--keys", keys, "--mode", "literal", "--out", out)
    peak = traced_peak(capsys, *export)
    prg = keyset_from_json(read_json(keys)).params.prg
    assert peak <= dec_circuit_gates(prg, LITERAL, kappa, n) * EXPORT_GATE_BYTES + EXPORT_BYTES


@pytest.mark.parametrize("argv", [
    ("fpcode", "bench", "--n", "3", "--eps-fp", "0.2", "--a", "2", "--trials", "2"),
    (*TRACE, "honest:1", "--eps-fp", "0.2", "--a", "2"),
    (*SANITIZE_EXACT,),
    ("demo", "laplace-tightness", "--seed", "0"),
])
def test_out_file_holds_the_printed_report(capsys, tmp_path, monkeypatch, tightness_report, argv):
    from test_determinism import TIGHTNESS_REPORT

    files = input_files(capsys, tmp_path)
    monkeypatch.setattr(cli_mod, "laplace_tightness_demo", lambda seed: tightness_report)
    code, stdout, _err = run_cli(capsys, *(a.format(**files) for a in argv), "--out", files["out"])
    assert code == 0 and open(files["out"]).read() == stdout
    if argv[0] == "demo":
        report = canonical_json(stdout_json(stdout)["report"])
        assert hashlib.sha256(report.encode()).hexdigest() == TIGHTNESS_REPORT


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["tt", "--help"]) == 0
        capsys.readouterr()

    def test_demo_subcommand_listed(self, capsys):
        code, _out, _err = run_cli(capsys, "demo")
        assert code == 2  # subcommand required


class TestOneParserPerProcess:
    ATTACK = (
        "attack", "run", "--n", "3", "--kappa", "16", "--eps-fp", "0.2",
        "--a", "2", "--trials", "4", "--seed", "5",
    )

    def commands(self, tmp_path):
        return [
            (*self.ATTACK, "--sanitizer", "laplace", "--eps", "2",
             "--out", str(tmp_path / "laplace.json")),
            # refused, by the run and by argparse: neither flag may reach the next call
            (*self.ATTACK, "--composition", "advanced", "--out", str(tmp_path / "no.json")),
            (*self.ATTACK, "--frobnicate", "--out", str(tmp_path / "no.json")),
            (*self.ATTACK, "--sanitizer", "exact", "--out", str(tmp_path / "exact.json")),
            ("tt", "keygen", "--kappa", "16", "--n", "3", "--seed", "5",
             "--out", str(tmp_path / "keys.json")),
        ]

    @staticmethod
    def run(capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        path = argv[argv.index("--out") + 1]
        written = open(path, "rb").read() if os.path.exists(path) else None
        return code, out, err, written

    def test_commands_in_one_process_give_the_bytes_they_give_alone(self, capsys, tmp_path):
        # the parser is built once and reused, so --eps 2 set for the Laplace
        # run must not become the exact run's audit epsilon, nor a refused
        # flag stay behind
        commands = self.commands(tmp_path)
        cli_mod.build_parser.cache_clear()
        together = [self.run(capsys, argv) for argv in commands]
        assert cli_mod.build_parser.cache_info().misses == 1
        alone = []
        for argv in commands:
            cli_mod.build_parser.cache_clear()
            alone.append(self.run(capsys, argv))
        assert together == alone
        assert [code for code, *_ in together] == [0, 2, 2, 0, 0]
        assert together[0][1] != together[3][1]
        exact = json.loads(together[3][3])
        assert exact["params"]["sanitizer"]["epsilon"] is None
        assert exact["audit"]["epsilon"] == 1.0


def test_cli_import_leaves_the_pool_unloaded():
    # only attack run --jobs > 1 starts a pool, so a serial process never
    # loads multiprocessing
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "import sys, ttpa.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.strip() == "[]"
