"""Experiment command line.

Five tool groups behind one parser: fpcode (fingerprinting codes), tt
(the tracing scheme), sanitize (counting-query mechanisms), attack
(the two-experiment reduction), demo (calibration checks).  Every run
resolves one master seed (env TTPA_SEED overrides --seed, default 0),
echoes the resolved configuration in its output, and writes canonical
JSON, so reruns with the same seed are byte-identical regardless of
--jobs.  Exit codes: 0 ok, 1 runtime failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import asdict
from typing import Sequence

import numpy as np

from .attack import (
    AttackConfig,
    check_audit_budget,
    dp_audit,
    pirate_from_sanitizer,
    run_attack,
)
from .circuit import circuit_from_json, circuit_metrics, circuit_to_json
from .crypto import FOLDED, LITERAL, LOCAL_PRG, PRF, collision_bound
from .errors import (
    FileFormatError,
    InputShapeError,
    bits_from_hex,
    canonical_json,
    read_json,
)
from .fpcode import (
    MAJORITY,
    MINORITY,
    COPY_ONE,
    DEFAULT_EPS_FP,
    DEFAULT_LENGTH_CONSTANT,
    RANDOM_FEASIBLE,
    adversary_view_json,
    codebook_from_json,
    codebook_to_json,
    fp_feasible,
    fp_gen,
    fp_scores,
    fp_trace,
    run_code_experiment,
)
from .sanitize import (
    ADVANCED,
    BASIC,
    EXACT,
    LAPLACE,
    SanitizerConfig,
    laplace_scale,
    laplace_tightness_demo,
    load_database,
    sanitize,
)
from .seeds import stream
from .ttscheme import (
    honest_pirate,
    keyset_from_json,
    keyset_to_json,
    tr_enc_index,
    tt_dec_circuit,
    tt_enc,
    tt_gen,
    tt_trace_report,
    zeros_pirate,
)

_SCHEMES = {"local-prg": LOCAL_PRG, "prf": PRF}
_MODES = {"literal": LITERAL, "folded": FOLDED}
_COMPOSITIONS = {"basic": BASIC, "advanced": ADVANCED}
_STRATEGY_FLAGS = {
    "majority": MAJORITY,
    "minority": MINORITY,
    "random-feasible": RANDOM_FEASIBLE,
    "copy-one": COPY_ONE,
}

CSV_HEADER = ["section", "experiment", "key", "value"]


def resolve_seed(explicit: int | None) -> int:
    """TTPA_SEED wins over --seed; default 0."""
    env = os.environ.get("TTPA_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InputShapeError(f"TTPA_SEED must be an integer, got {env!r}")
    return 0 if explicit is None else int(explicit)


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)
        if not text.endswith("\n"):
            f.write("\n")


def _write_json(obj, path: str) -> None:
    _write_text(path, canonical_json(obj))


def _report(obj: dict, out: str | None) -> int:
    """Print a command's report, and write it to out when one is named."""
    if out:
        _write_json(obj, out)
    print(canonical_json(obj))
    return 0


def _parse_coalition(text: str | None, n: int) -> tuple[int, ...]:
    if text is None:
        return tuple(range(n))
    try:
        users = sorted({int(x) for x in text.split(",") if x.strip()})
    except ValueError as e:
        raise InputShapeError(f"coalition must be comma-separated ints: {e}") from e
    if not users:
        raise InputShapeError("coalition is empty")
    for u in users:
        if not 0 <= u < n:
            raise InputShapeError(f"coalition user {u} outside [0, {n})")
    return tuple(users)


def _sanitizer_cfg(kind: str, args) -> SanitizerConfig:
    if kind == "exact":
        return SanitizerConfig(EXACT, amplification_rounds=args.amp_rounds)
    return SanitizerConfig(
        LAPLACE,
        epsilon=args.eps,
        delta=args.delta,
        composition=_COMPOSITIONS[args.composition],
        amplification_rounds=args.amp_rounds,
    )


# ---------------------------------------------------------------- fpcode

def _cmd_fpcode_gen(args) -> int:
    seed = resolve_seed(args.seed)
    if args.adversary_view and args.coalition is None:
        raise InputShapeError("--adversary-view needs --coalition")
    if args.coalition is not None and not args.adversary_view:
        raise InputShapeError("--coalition needs --adversary-view")
    coalition = _parse_coalition(args.coalition, args.n) if args.adversary_view else None
    cb = fp_gen(args.n, args.eps_fp, stream(seed, "fpcode-gen"), a=args.a)
    _write_json(codebook_to_json(cb), args.out)
    if coalition:
        _write_json(adversary_view_json(cb, list(coalition)), args.adversary_view)
    obj = {
        "command": "fpcode gen",
        "config": {
            "n": args.n,
            "eps_fp": args.eps_fp,
            "a": args.a,
            "seed": seed,
            "out": args.out,
            "adversary_view": args.adversary_view,
            "coalition": args.coalition,
        },
        "ell": cb.ell,
        "cutoff": cb.cutoff,
        "threshold": cb.threshold,
    }
    return _report(obj, None)


def _cmd_fpcode_trace(args) -> int:
    seed = resolve_seed(args.seed)
    cb = codebook_from_json(read_json(args.codebook))
    hex_word = args.word
    if hex_word is None:
        with open(args.word_file) as f:
            hex_word = f.read()
    word = bits_from_hex(hex_word, cb.ell, "word")
    scores = fp_scores(cb, word)
    obj = {
        "command": "fpcode trace",
        "config": {"codebook": args.codebook, "seed": seed},
        "accused": fp_trace(cb, word),
        "max_score": float(scores.max()),
        "threshold": cb.threshold,
    }
    return _report(obj, None)


def _cmd_fpcode_bench(args) -> int:
    seed = resolve_seed(args.seed)
    names = (
        list(_STRATEGY_FLAGS) if args.strategy == "all" else [args.strategy]
    )
    results = {
        _STRATEGY_FLAGS[s]: run_code_experiment(
            args.n,
            args.eps_fp,
            _STRATEGY_FLAGS[s],
            args.trials,
            seed,
            coalition_size=args.coalition_size,
            a=args.a,
        )
        for s in names
    }
    obj = {
        "command": "fpcode bench",
        "config": {
            "n": args.n,
            "eps_fp": args.eps_fp,
            "a": args.a,
            "trials": args.trials,
            "coalition_size": args.coalition_size,
            "strategy": args.strategy,
            "seed": seed,
        },
        "results": results,
    }
    return _report(obj, args.out)


# -------------------------------------------------------------------- tt

def _cmd_tt_keygen(args) -> int:
    seed = resolve_seed(args.seed)
    scheme = _SCHEMES[args.scheme]
    ks = tt_gen(args.kappa, args.n, scheme, stream(seed, "tt-keygen"))
    _write_json(keyset_to_json(ks), args.out)
    obj = {
        "command": "tt keygen",
        "config": {
            "kappa": args.kappa,
            "n": args.n,
            "scheme": scheme,
            "seed": seed,
            "out": args.out,
        },
        "stretch": None if ks.params.prg is None else ks.params.prg.ell,
    }
    return _report(obj, None)


def _build_pirate(spec: str, ks, args, rng):
    """Returns (oracle, coalition or None) for a --pirate spec string."""
    if spec == "zeros":
        return zeros_pirate(), None
    if spec == "honest" or spec.startswith("honest:"):
        user = int(spec.split(":", 1)[1]) if ":" in spec else 0
        return honest_pirate(ks, user), (user,)
    if spec.startswith("sanitizer:"):
        kind = spec.split(":", 1)[1]
        if kind not in ("exact", "laplace"):
            raise InputShapeError(f"unknown sanitizer kind in pirate spec {spec!r}")
        coalition = _parse_coalition(args.coalition, ks.params.n)
        cfg = _sanitizer_cfg(kind, args)
        rows = ks.rows[list(coalition)]
        return pirate_from_sanitizer(ks.params, rows, cfg, rng), coalition
    raise InputShapeError(
        f"unknown pirate {spec!r}; use honest[:user], zeros, or sanitizer:{{exact|laplace}}"
    )


def _cmd_tt_trace(args) -> int:
    seed = resolve_seed(args.seed)
    ks = keyset_from_json(read_json(args.keys))
    pirate, coalition = _build_pirate(
        args.pirate, ks, args, stream(seed, "tt-trace", "pirate")
    )
    rounds = args.amp_rounds if args.pirate.startswith("sanitizer:") else 0
    out = tt_trace_report(
        ks, pirate, args.eps_fp, stream(seed, "tt-trace", "trace"), a=args.a, rounds=rounds
    )
    feasible = (
        None
        if coalition is None
        else bool(fp_feasible(out.codebook.words[list(coalition)], out.word))
    )
    prg = ks.params.prg
    obj = {
        "command": "tt trace",
        "config": {
            "keys": args.keys,
            "pirate": args.pirate,
            "eps_fp": args.eps_fp,
            "a": args.a,
            "coalition": args.coalition,
            "seed": seed,
        },
        "n": ks.params.n,
        "kappa": ks.params.kappa,
        "accused": out.accused,
        "ell_fp": out.codebook.ell,
        "threshold": out.codebook.threshold,
        "feasible": feasible,
        "collision_bound": None
        if prg is None
        else collision_bound(prg.ell, out.codebook.ell),
    }
    return _report(obj, args.out)


def _cmd_tt_export_circuit(args) -> int:
    seed = resolve_seed(args.seed)
    ks = keyset_from_json(read_json(args.keys))
    rng = stream(seed, "tt-export")
    bit = 1 if args.bit is None else args.bit
    if args.level is not None:
        ct = tr_enc_index(ks, args.level, rng)
    else:
        ct = tt_enc(ks, bit, rng)
    circ = tt_dec_circuit(ct, ks.params, _MODES[args.mode])
    _write_json(circuit_to_json(circ), args.out)
    met = circuit_metrics(circ)
    obj = {
        "command": "tt export-circuit",
        "config": {
            "keys": args.keys,
            "bit": bit,
            "level": args.level,
            "mode": args.mode,
            "seed": seed,
            "out": args.out,
        },
        "input_width": circ.input_width,
        "size": met.size,
        "depth": met.depth,
    }
    return _report(obj, None)


# -------------------------------------------------------------- sanitize

def _load_queries(paths: Sequence[str]) -> list:
    queries = []
    for path in paths:
        obj = read_json(path)
        items = obj if isinstance(obj, list) else [obj]
        for item in items:
            if not isinstance(item, dict):
                raise FileFormatError(f"{path}: netlist entries must be objects")
            queries.append(circuit_from_json(item))
    return queries


def _cmd_sanitize_run(args) -> int:
    seed = resolve_seed(args.seed)
    db = load_database(args.db)
    queries = _load_queries(args.queries)
    cfg = _sanitizer_cfg(args.kind, args)
    answers = sanitize(cfg, db, queries, stream(seed, "sanitize-run"))
    scale = (
        laplace_scale(cfg, len(queries), db.m)
        if cfg.kind == LAPLACE and queries
        else None
    )
    obj = {
        "command": "sanitize run",
        "config": {
            "db": args.db,
            "queries": list(args.queries),
            **asdict(cfg),
            "seed": seed,
        },
        "m": db.m,
        "d": db.d,
        "k": len(queries),
        "scale": scale,
        "answers": [float(a) for a in answers],
    }
    return _report(obj, args.out)


# ---------------------------------------------------------------- attack

def _hist_rows(errs: list[float]) -> list[tuple[float, float, int]]:
    counts, edges = np.histogram(np.array(errs, dtype=np.float64), bins=20, range=(0.0, 1.0))
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(len(counts))
    ]


def summary_rows(report: dict) -> list[list[str]]:
    """Flat accusation-frequency and accuracy-histogram rows for the CSV."""
    rows: list[list[str]] = []
    for name in ("exp1", "exp2"):
        exp = report.get(name)
        if not exp:
            continue
        for u, freq in sorted((int(k), v) for k, v in exp["accused_freq"].items()):
            rows.append(["accused_freq", name, str(u), f"{freq:.6f}"])
        rows.append(["accused_freq", name, "NONE", f"{exp['none_freq']:.6f}"])
        errs = [
            r["max_abs_err"]
            for r in exp.get("trial_records", [])
            if r.get("max_abs_err") is not None
        ]
        for lo, hi, count in _hist_rows(errs):
            rows.append(["accuracy_hist", name, f"{lo:.2f}-{hi:.2f}", str(count)])
    return rows


def csv_from_rows(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


def summary_csv(report: dict) -> str:
    return csv_from_rows(summary_rows(report))


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.6f}"


def emit_summary(report: dict) -> str:
    """Aligned text tables for one attack report dict."""
    params = report.get("params") or {}
    san = params.get("sanitizer") or {}
    lines = [
        "attack report",
        f"  n={params.get('n')} kappa={params.get('kappa')} trials={params.get('trials')}",
        f"  eps_fp={params.get('eps_fp')} a={params.get('a')} seed={params.get('seed')}",
        f"  sanitizer: kind={san.get('kind')} epsilon={san.get('epsilon')}"
        f" delta={san.get('delta')} composition={san.get('composition')}",
    ]
    any_trials = False
    for name in ("exp1", "exp2"):
        exp = report.get(name)
        if not exp:
            continue
        any_trials = any_trials or bool(exp.get("trials"))
        coalition = exp.get("coalition") or []
        lines.append("")
        lines.append(
            f"  [{name}] trials={exp.get('trials')}"
            f" coalition={','.join(str(u) for u in coalition)}"
        )
        lines.append("    user  freq")
        for u, freq in sorted((int(k), v) for k, v in exp["accused_freq"].items()):
            lines.append(f"    {u:>4d}  {freq:.6f}")
        lines.append(f"    NONE  {exp['none_freq']:.6f}")
        err = exp.get("max_abs_err") or {}
        lines.append(
            f"    feasible_rate={_fmt(exp.get('feasible_rate'))}"
            f" failed_rate={_fmt(exp.get('failed_rate'))}"
            f" answer_err mean={_fmt(err.get('mean'))} max={_fmt(err.get('max'))}"
        )
    lines.append("")
    audit = report.get("audit")
    if not any_trials or audit is None or not audit.get("conclusive"):
        lines.append("  audit: INCONCLUSIVE")
        if audit is not None:
            lines.append(
                f"    i_star={audit.get('i_star')}"
                f" trials_full={audit.get('trials_full')}"
                f" trials_minus={audit.get('trials_minus')}"
            )
    else:
        verdict = "VIOLATED" if audit["violated"] else "not violated"
        lines.append(f"  audit: {verdict}")
        lines.append(
            f"    epsilon={audit['epsilon']} delta={audit['delta']}"
            f" i_star={audit['i_star']}"
        )
        lines.append(
            f"    p_full={_fmt(audit['p_full'])} p_minus={_fmt(audit['p_minus'])}"
            f" eps_stat={_fmt(audit['eps_stat'])} margin={_fmt(audit['margin'])}"
        )
    return "\n".join(lines)


def _cmd_attack_run(args) -> int:
    seed = resolve_seed(args.seed)
    cfg = AttackConfig(
        n=args.n,
        kappa=args.kappa,
        eps_fp=args.eps_fp,
        trials=args.trials,
        sanitizer=_sanitizer_cfg(args.sanitizer, args),
        a=args.a,
        seed=seed,
    )
    check_audit_budget(args.eps, args.delta)
    report = run_attack(cfg, jobs=args.jobs)
    obj = report.to_dict(dp_audit(report, args.eps, args.delta))
    _write_json(obj, args.out)
    if args.summary_csv:
        _write_text(args.summary_csv, summary_csv(obj))
    print(emit_summary(obj))
    print(f"report: {args.out}")
    return 0


# ------------------------------------------------------------------ demo

def _cmd_demo_laplace(args) -> int:
    seed = resolve_seed(args.seed)
    obj = {
        "command": "demo laplace-tightness",
        "config": {"seed": seed},
        "report": laplace_tightness_demo(seed),
    }
    return _report(obj, args.out)


# ---------------------------------------------------------------- parser

def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed", type=int, default=None, help="master seed (TTPA_SEED overrides)"
    )


def _add_sanitizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=1.0, help="privacy budget epsilon")
    p.add_argument("--delta", type=float, default=0.01, help="privacy budget delta")
    p.add_argument(
        "--composition", choices=sorted(_COMPOSITIONS), default="basic",
        help="per-batch noise accounting rule",
    )
    p.add_argument(
        "--amp-rounds", type=int, default=0,
        help="median-of-r amplification rounds (0 = off)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttpa",
        description="traitor tracing vs differential privacy experiments",
    )
    top = parser.add_subparsers(dest="group", required=True, metavar="GROUP")

    # fpcode
    fp = top.add_parser("fpcode", help="fingerprinting codes").add_subparsers(
        dest="command", required=True, metavar="CMD"
    )
    p = fp.add_parser("gen", help="draw a codebook and export it")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps-fp", type=float, default=DEFAULT_EPS_FP)
    p.add_argument("--a", type=float, default=DEFAULT_LENGTH_CONSTANT, help="length constant")
    p.add_argument("--out", required=True, help="codebook JSON (tracer-side, secret)")
    p.add_argument("--adversary-view", help="optional coalition-visible JSON")
    p.add_argument("--coalition", help="comma-separated users for the view")
    _add_seed(p)
    p.set_defaults(func=_cmd_fpcode_gen)

    p = fp.add_parser("trace", help="accuse from a pirate word")
    p.add_argument("--codebook", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--word", help="hex-packed pirate word")
    g.add_argument("--word-file", help="file holding the hex word")
    _add_seed(p)
    p.set_defaults(func=_cmd_fpcode_trace)

    p = fp.add_parser("bench", help="Monte Carlo soundness/completeness rates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps-fp", type=float, default=DEFAULT_EPS_FP)
    p.add_argument("--a", type=float, default=DEFAULT_LENGTH_CONSTANT)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--coalition-size", type=int, default=None)
    p.add_argument(
        "--strategy", choices=[*sorted(_STRATEGY_FLAGS), "all"], default="all"
    )
    p.add_argument("--out", help="also write the report JSON here")
    _add_seed(p)
    p.set_defaults(func=_cmd_fpcode_bench)

    # tt
    tt = top.add_parser("tt", help="traitor tracing scheme").add_subparsers(
        dest="command", required=True, metavar="CMD"
    )
    p = tt.add_parser("keygen", help="generate a user key set")
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scheme", choices=sorted(_SCHEMES), default="local-prg")
    p.add_argument("--out", required=True, help="key set JSON (secret)")
    _add_seed(p)
    p.set_defaults(func=_cmd_tt_keygen)

    p = tt.add_parser("trace", help="trace a pirate decoder")
    p.add_argument("--keys", required=True)
    p.add_argument(
        "--pirate", default="honest",
        help="honest[:user], zeros, or sanitizer:{exact|laplace}",
    )
    p.add_argument("--eps-fp", type=float, default=DEFAULT_EPS_FP)
    p.add_argument("--a", type=float, default=DEFAULT_LENGTH_CONSTANT)
    p.add_argument("--coalition", help="users behind a sanitizer pirate (default all)")
    p.add_argument("--out", help="also write the report JSON here")
    _add_sanitizer_flags(p)
    _add_seed(p)
    p.set_defaults(func=_cmd_tt_trace)

    p = tt.add_parser("export-circuit", help="export one decryption circuit")
    p.add_argument("--keys", required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--bit", type=int, choices=(0, 1), help="plaintext bit (default 1)")
    g.add_argument("--level", type=int, default=None, help="mixed ciphertext level")
    p.add_argument("--mode", choices=sorted(_MODES), default="folded")
    p.add_argument("--out", required=True, help="netlist JSON")
    _add_seed(p)
    p.set_defaults(func=_cmd_tt_export_circuit)

    # sanitize
    sa = top.add_parser("sanitize", help="counting-query sanitizers").add_subparsers(
        dest="command", required=True, metavar="CMD"
    )
    p = sa.add_parser("run", help="answer a query batch over a database file")
    p.add_argument("--db", required=True, help="database file (d=<int> header)")
    p.add_argument(
        "--queries", nargs="+", required=True,
        help="netlist JSON files (each a netlist or an array of netlists)",
    )
    p.add_argument("--kind", choices=("exact", "laplace"), required=True)
    p.add_argument("--out", help="also write the answers JSON here")
    _add_sanitizer_flags(p)
    _add_seed(p)
    p.set_defaults(func=_cmd_sanitize_run)

    # attack
    at = top.add_parser("attack", help="sanitizer-as-pirate reduction").add_subparsers(
        dest="command", required=True, metavar="CMD"
    )
    p = at.add_parser("run", help="two-experiment tracing audit")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--kappa", type=int, default=64)
    p.add_argument("--eps-fp", type=float, default=DEFAULT_EPS_FP)
    p.add_argument("--sanitizer", choices=("exact", "laplace"), default="exact")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--a", type=float, default=DEFAULT_LENGTH_CONSTANT)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", default="report.json")
    p.add_argument("--summary-csv", help="also write the frequency/accuracy CSV")
    _add_sanitizer_flags(p)
    _add_seed(p)
    p.set_defaults(func=_cmd_attack_run)

    # demo
    de = top.add_parser("demo", help="calibration demonstrations").add_subparsers(
        dest="command", required=True, metavar="CMD"
    )
    p = de.add_parser("laplace-tightness", help="noise calibration and accuracy demo")
    p.add_argument("--out", help="also write the report JSON here")
    _add_seed(p)
    p.set_defaults(func=_cmd_demo_laplace)

    return parser


def _check_output_dirs(args) -> None:
    """Refuse before any work when a file a command writes has no directory to go in."""
    for flag in ("out", "summary_csv", "adversary_view"):
        parent = os.path.dirname(getattr(args, flag, None) or "")
        if parent and not os.path.isdir(parent):
            raise FileNotFoundError(f"--{flag.replace('_', '-')}: no directory {parent!r}")


def parse_and_dispatch(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        _check_output_dirs(args)
        return int(args.func(args) or 0)
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    return parse_and_dispatch(sys.argv[1:] if argv is None else list(argv))


def _group_main(group: str):
    def runner(argv: Sequence[str] | None = None) -> int:
        rest = sys.argv[1:] if argv is None else list(argv)
        return parse_and_dispatch([group, *rest])

    return runner


main_fpcode = _group_main("fpcode")
main_tt = _group_main("tt")
main_sanitize = _group_main("sanitize")
main_attack = _group_main("attack")
main_demo = _group_main("demo")


if __name__ == "__main__":
    sys.exit(main())
