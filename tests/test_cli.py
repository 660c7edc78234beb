import csv
import io
import json

import numpy as np
import pytest

from ttpa.circuit import circuit_from_json, circuit_to_json
from ttpa.cli import (
    CSV_HEADER,
    canonical_json,
    csv_from_rows,
    emit_summary,
    main,
    main_tt,
    resolve_seed,
    summary_csv,
)
from ttpa.errors import InputShapeError, read_json
from ttpa.fpcode import codebook_from_json
from ttpa.sanitize import Database, dictator_circuit, save_database
from ttpa.ttscheme import keyset_from_json

import ttpa.attack as attack_mod
import ttpa.cli as cli_mod
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
        code, _out, err = run_cli(
            capsys, "tt", "trace", "--keys", path, "--pirate", "oracle9000"
        )
        assert code == 2 and "pirate" in err

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
        # the defaults eps_fp=0.05, a=100 at n=100: an 8 GiB trial, refused
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

    @pytest.mark.parametrize("flag,value", [("--eps", "-1"), ("--delta", "-0.5")])
    def test_rejects_negative_audit_budget_before_any_trial(
        self, capsys, tmp_path, monkeypatch, flag, value
    ):
        def no_trial(*args):
            raise AssertionError("a trial ran before the audit budget was checked")

        monkeypatch.setattr(attack_mod, "_run_trial", no_trial)
        code, out, err, out_path = self.run(capsys, tmp_path, "r.json", flag, value)
        assert code == 2 and out == "" and "nonnegative" in err
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
        assert csv_from_rows(rows) == text
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
    db, query, keys = (str(tmp_path / name) for name in ("db.txt", "q.json", "ks.json"))
    save_database(Database(np.zeros((2, 3), dtype=np.uint8)), db)
    with open(query, "w") as f:
        f.write(canonical_json(circuit_to_json(dictator_circuit(0, 3))))
    run_cli(capsys, "tt", "keygen", "--kappa", "16", "--n", "3", "--out", keys)
    out = tmp_path / "r.json"
    code, stdout, err = run_cli(
        capsys, *(a.format(out=out, db=db, query=query, keys=keys) for a in argv),
        "--amp-rounds", "7",
    )
    assert code == 2 and stdout == "" and "LAPLACE only" in err
    assert not out.exists()


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["tt", "--help"]) == 0
        capsys.readouterr()

    def test_demo_subcommand_listed(self, capsys):
        code, _out, _err = run_cli(capsys, "demo")
        assert code == 2  # subcommand required
