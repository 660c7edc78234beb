"""Experiment command line.

Five tool groups behind one parser: fpcode (fingerprinting codes), tt
(the tracing scheme), sanitize (counting-query mechanisms), attack
(the two-experiment reduction), demo (calibration checks).  Every run
but fpcode trace (which draws nothing) resolves one master seed: env
TTPA_SEED overrides --seed, default 0.  Every command but attack run
prints one canonical JSON report of its configuration and results, to
which the dispatcher adds the command's name and the resolved seed.
attack run writes its report to a file and prints a text summary of
it; the summary and the optional CSV read the report the same way.
Reruns with one seed are byte-identical whatever --jobs.  Exit codes:
0 ok, 1 runtime failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from dataclasses import asdict
from pathlib import Path
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
    write_json,
)
from .fpcode import (
    MAJORITY,
    MINORITY,
    COPY_ONE,
    DEFAULT_EPS_FP,
    DEFAULT_LENGTH_CONSTANT,
    RANDOM_FEASIBLE,
    adversary_view_json,
    code_length,
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
_COMPOSITIONS = {"basic": BASIC, "advanced": ADVANCED}
_STRATEGY_FLAGS = {
    "majority": MAJORITY,
    "minority": MINORITY,
    "random-feasible": RANDOM_FEASIBLE,
    "copy-one": COPY_ONE,
}

CSV_HEADER = ["section", "experiment", "key", "value"]
# filled only where a run reads them, so that a flag it ignores is refused
_SANITIZER_DEFAULTS = {"eps": 1.0, "delta": 0.01, "composition": "basic", "amp_rounds": 0}
_LAPLACE_ONLY = ("eps", "delta", "composition")


def resolve_seed(explicit: int | None) -> int:
    """TTPA_SEED wins over --seed; default 0."""
    env = os.environ.get("TTPA_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InputShapeError(f"TTPA_SEED must be an integer, got {env!r}")
    return 0 if explicit is None else int(explicit)


def _report(args, obj: dict, out: str | None = None) -> int:
    """Print a command's report, and write it to out when one is named.

    The report names its command, and a command that takes --seed
    echoes the seed it resolved in its config.
    """
    obj["command"] = f"{args.group} {args.command}"
    if "seed" in args:
        obj["config"]["seed"] = args.seed
    if out:
        write_json(obj, out)
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


def _fill_sanitizer_flags(args, ignored: Sequence[str], why: str) -> None:
    """Refuse the flags a run would ignore, then fill the sanitizer flags' defaults."""
    given = ["--" + flag.replace("_", "-") for flag in ignored if getattr(args, flag) is not None]
    if given:
        raise InputShapeError(f"{', '.join(given)} would be ignored {why}")
    for flag, default in _SANITIZER_DEFAULTS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)


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
    if args.adversary_view and args.coalition is None:
        raise InputShapeError("--adversary-view needs --coalition")
    if args.coalition is not None and not args.adversary_view:
        raise InputShapeError("--coalition needs --adversary-view")
    coalition = _parse_coalition(args.coalition, args.n) if args.adversary_view else None
    cb = fp_gen(args.n, args.eps_fp, stream(args.seed, "fpcode-gen"), a=args.a)
    write_json(codebook_to_json(cb), args.out)
    if coalition:
        write_json(adversary_view_json(cb, list(coalition)), args.adversary_view)
    obj = {
        "config": {
            "n": args.n,
            "eps_fp": args.eps_fp,
            "a": args.a,
            "out": args.out,
            "adversary_view": args.adversary_view,
            "coalition": args.coalition,
        },
        "ell": cb.ell,
        "cutoff": cb.cutoff,
        "threshold": cb.threshold,
    }
    return _report(args, obj)


def _cmd_fpcode_trace(args) -> int:
    cb = codebook_from_json(read_json(args.codebook))
    hex_word = Path(args.word_file).read_text() if args.word is None else args.word
    [word] = bits_from_hex([hex_word], cb.ell, "word".format)
    scores = fp_scores(cb, word)
    obj = {
        "config": {"codebook": args.codebook},
        "accused": fp_trace(cb, word),
        "max_score": float(scores.max()),
        "threshold": cb.threshold,
    }
    return _report(args, obj)


def _cmd_fpcode_bench(args) -> int:
    names = list(_STRATEGY_FLAGS) if args.strategy == "all" else [args.strategy]
    results = {
        _STRATEGY_FLAGS[s]: run_code_experiment(
            args.n,
            args.eps_fp,
            _STRATEGY_FLAGS[s],
            args.trials,
            args.seed,
            coalition_size=args.coalition_size,
            a=args.a,
        )
        for s in names
    }
    obj = {
        "config": {
            "n": args.n,
            "eps_fp": args.eps_fp,
            "a": args.a,
            "trials": args.trials,
            "coalition_size": args.coalition_size,
            "strategy": args.strategy,
        },
        "results": results,
    }
    return _report(args, obj, args.out)


# -------------------------------------------------------------------- tt

def _cmd_tt_keygen(args) -> int:
    scheme = _SCHEMES[args.scheme]
    ks = tt_gen(args.kappa, args.n, scheme, stream(args.seed, "tt-keygen"))
    write_json(keyset_to_json(ks), args.out)
    obj = {
        "config": {
            "kappa": args.kappa,
            "n": args.n,
            "scheme": scheme,
            "out": args.out,
        },
        "stretch": None if ks.params.prg is None else ks.params.prg.ell,
    }
    return _report(args, obj)


def _cmd_tt_trace(args) -> int:
    kind, colon, arg = args.pirate.partition(":")
    if args.pirate == "zeros" or kind == "honest":
        ignored = ("coalition", *_SANITIZER_DEFAULTS)
    elif kind == "sanitizer" and arg in ("exact", "laplace"):
        ignored = _LAPLACE_ONLY if arg == "exact" else ()
    else:
        raise InputShapeError(
            f"unknown pirate {args.pirate!r};"
            " use honest[:user], zeros, or sanitizer:{exact|laplace}"
        )
    _fill_sanitizer_flags(args, ignored, f"by the {args.pirate} pirate")
    ks = keyset_from_json(read_json(args.keys))
    if kind == "zeros":
        pirate, coalition = zeros_pirate(), None
    elif kind == "honest":
        coalition = (int(arg) if colon else 0,)
        pirate = honest_pirate(ks, coalition[0])
    else:
        coalition = _parse_coalition(args.coalition, ks.params.n)
        cfg = _sanitizer_cfg(arg, args)
        if cfg.kind == LAPLACE:
            laplace_scale(cfg, code_length(ks.params.n, args.eps_fp, args.a), len(coalition))
        pirate = pirate_from_sanitizer(
            ks.params, ks.rows[list(coalition)], cfg, stream(args.seed, "tt-trace", "pirate")
        )
    out = tt_trace_report(ks, pirate, args.eps_fp, stream(args.seed, "tt-trace", "trace"), a=args.a)
    feasible = (
        None if coalition is None else fp_feasible(out.codebook.words[list(coalition)], out.word)
    )
    prg = ks.params.prg
    obj = {
        "config": {
            "keys": args.keys,
            "pirate": args.pirate,
            "eps_fp": args.eps_fp,
            "a": args.a,
            "coalition": args.coalition,
        },
        "n": ks.params.n,
        "kappa": ks.params.kappa,
        "accused": out.accused,
        "ell_fp": out.codebook.ell,
        "threshold": out.codebook.threshold,
        "feasible": feasible,
        "collision_bound": None if prg is None else collision_bound(prg.ell, out.codebook.ell),
    }
    return _report(args, obj, args.out)


def _cmd_tt_export_circuit(args) -> int:
    ks = keyset_from_json(read_json(args.keys))
    rng = stream(args.seed, "tt-export")
    bit = 1 if args.bit is None else args.bit
    ct = tt_enc(ks, bit, rng) if args.level is None else tr_enc_index(ks, args.level, rng)
    [circ] = tt_dec_circuit(ct, ks.params, args.mode)
    write_json(circuit_to_json(circ), args.out)
    met = circuit_metrics(circ)
    obj = {
        "config": {
            "keys": args.keys,
            "bit": bit,
            "level": args.level,
            "mode": args.mode,
            "out": args.out,
        },
        "input_width": circ.input_width,
        "size": met.size,
        "depth": met.depth,
    }
    return _report(args, obj)


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
    _fill_sanitizer_flags(args, _LAPLACE_ONLY if args.kind == "exact" else (), "by --kind exact")
    db = load_database(args.db)
    queries = _load_queries(args.queries)
    cfg = _sanitizer_cfg(args.kind, args)
    scale = laplace_scale(cfg, len(queries), db.m) if cfg.kind == LAPLACE and queries else None
    answers = sanitize(cfg, db, queries, stream(args.seed, "sanitize-run"))
    obj = {
        "config": {
            "db": args.db,
            "queries": list(args.queries),
            **asdict(cfg),
        },
        "m": db.m,
        "d": db.d,
        "k": len(queries),
        "scale": scale,
        "answers": [float(a) for a in answers],
    }
    return _report(args, obj, args.out)


# ---------------------------------------------------------------- attack

def _freq_rows(exp: dict) -> list[tuple[str, float]]:
    """An experiment's accused-frequency table: each accused user in order, then NONE."""
    users = sorted((int(u), freq) for u, freq in exp["accused_freq"].items())
    return [*((str(u), freq) for u, freq in users), ("NONE", exp["none_freq"])]


def summary_csv(report: dict) -> str:
    """Accused-frequency and accuracy-histogram rows of one attack report dict, as CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for name in ("exp1", "exp2"):
        exp = report[name]
        if exp is None:
            continue
        for user, freq in _freq_rows(exp):
            writer.writerow(["accused_freq", name, user, f"{freq:.6f}"])
        errs = [r["max_abs_err"] for r in exp["trial_records"] if r["max_abs_err"] is not None]
        counts, edges = np.histogram(np.array(errs, dtype=np.float64), bins=20, range=(0.0, 1.0))
        for lo, hi, count in zip(edges, edges[1:], counts):
            writer.writerow(["accuracy_hist", name, f"{lo:.2f}-{hi:.2f}", int(count)])
    return buf.getvalue()


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.6f}"


def emit_summary(report: dict) -> str:
    """Aligned text tables for one attack report dict."""
    params = report["params"]
    san = params["sanitizer"]
    lines = [
        "attack report",
        f"  n={params['n']} kappa={params['kappa']} trials={params['trials']}",
        f"  eps_fp={params['eps_fp']} a={params['a']} seed={params['seed']}",
        f"  sanitizer: kind={san['kind']} epsilon={san['epsilon']}"
        f" delta={san['delta']} composition={san['composition']}",
    ]
    for name in ("exp1", "exp2"):
        exp = report[name]
        if exp is None:
            continue
        lines.append("")
        lines.append(
            f"  [{name}] trials={exp['trials']}"
            f" coalition={','.join(str(u) for u in exp['coalition'])}"
        )
        lines.append("    user  freq")
        for user, freq in _freq_rows(exp):
            lines.append(f"    {user:>4}  {freq:.6f}")
        err = exp["max_abs_err"]
        lines.append(
            f"    feasible_rate={_fmt(exp['feasible_rate'])}"
            f" failed_rate={_fmt(exp['failed_rate'])}"
            f" answer_err mean={_fmt(err['mean'])} max={_fmt(err['max'])}"
        )
    lines.append("")
    audit = report["audit"]
    if not audit["conclusive"]:
        lines.append("  audit: INCONCLUSIVE")
        lines.append(
            f"    i_star={audit['i_star']}"
            f" trials_full={audit['trials_full']}"
            f" trials_minus={audit['trials_minus']}"
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
    ignored = ("composition",) if args.sanitizer == "exact" else ()
    _fill_sanitizer_flags(args, ignored, "by --sanitizer exact")
    cfg = AttackConfig(
        n=args.n,
        kappa=args.kappa,
        eps_fp=args.eps_fp,
        trials=args.trials,
        sanitizer=_sanitizer_cfg(args.sanitizer, args),
        a=args.a,
        seed=args.seed,
    )
    check_audit_budget(args.eps, args.delta)
    report = run_attack(cfg, jobs=args.jobs)
    obj = report.to_dict(dp_audit(report, args.eps, args.delta))
    write_json(obj, args.out)
    if args.summary_csv:
        with open(args.summary_csv, "w") as f:
            f.write(summary_csv(obj))
    print(emit_summary(obj))
    print(f"report: {args.out}")
    return 0


# ------------------------------------------------------------------ demo

def _cmd_demo_laplace(args) -> int:
    obj = {
        "config": {},
        "report": laplace_tightness_demo(args.seed),
    }
    return _report(args, obj, args.out)


# ---------------------------------------------------------------- parser

def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed", type=int, default=None, help="master seed (TTPA_SEED overrides)"
    )


def _add_sanitizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, help="privacy budget epsilon (default 1.0)")
    p.add_argument("--delta", type=float, help="privacy budget delta (default 0.01)")
    p.add_argument(
        "--composition", choices=sorted(_COMPOSITIONS),
        help="per-batch noise accounting rule (default basic)",
    )
    p.add_argument(
        "--amp-rounds", type=int, help="median-of-r amplification rounds (default 0 = off)"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process: parsing keeps no state in it,
    and the handlers it names read this module's globals when they are called."""
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
    p.add_argument("--mode", choices=(FOLDED, LITERAL), default=FOLDED)
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
        if "seed" in args:  # fpcode trace draws nothing and takes no seed
            args.seed = resolve_seed(args.seed)
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
