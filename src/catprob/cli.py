"""Command-line front door.

Subcommands:

    theory-check <semiring>      backend self-test + positivity report
    eval <file.diag>             parse, typecheck, evaluate, print the matrix
    eq <lhs.diag> <rhs.diag> <bindings>   equal / unequal with first difference
    bell <scenario.scn>          validate, evaluate, print, no-signalling check
    toyzoo                       table of the supported toy theories

Exit status is 0 iff every reported check passed. The seed flag (or the
CATPROB_SEED environment variable) makes randomized self-tests reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import backend as bk
from . import bell, diagram, matcat, scenarios
from .semirings import SemiringError, get_semiring

DEFAULT_SEED = 20170901


class UsageError(ValueError):
    """A bad environment variable, or an unreadable input or output path."""


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CATPROB_SEED")
    if not env:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"CATPROB_SEED must be an integer, got {env!r}") from None


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(str(exc)) from None


def _emit(args, text: str):
    if not getattr(args, "out", None):
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(str(exc)) from None


def cmd_theory_check(args) -> int:
    sr = get_semiring(args.semiring, tolerance=args.tolerance)
    if args.backend == "quantum":
        b = bk.QuantumBackend(sr)
    else:
        b = bk.ClassicalBackend(sr)
    problems = bk.backend_self_test(b, seed=_seed(args))
    lines = [f"theory-check {args.semiring} ({args.backend} backend)"]
    if problems:
        lines += [f"FAIL: {p}" for p in problems]
    else:
        lines.append("all probabilistic-theory laws hold on sampled instances")
    if sr.exact:
        lines.append(bk.positivity_report(sr))
    else:
        lines.append(f"positive semiring: n/a (approximate mode, tolerance {sr.tolerance})")
    lines.append("status: " + ("PASS" if not problems else "FAIL"))
    _emit(args, "\n".join(lines) + "\n")
    return 0 if not problems else 1


def cmd_eval(args) -> int:
    doc = diagram.parse(_read(args.file))
    b = bk.ClassicalBackend(get_semiring(args.semiring, tolerance=args.tolerance))
    value = diagram.run_document(doc, b)
    lines = [
        f"dom: {value.dom}",
        f"cod: {value.cod}",
    ]
    for row in value.entries:
        lines.append("  ".join(b.sr.fmt(x) for x in row))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_eq(args) -> int:
    lhs = diagram.parse(_read(args.lhs))
    rhs = diagram.parse(_read(args.rhs))
    sr, raw = diagram.parse_bindings(_read(args.bindings), args.tolerance)
    b = bk.ClassicalBackend(sr or get_semiring(args.semiring, tolerance=args.tolerance))
    lv = diagram.run_document(lhs, b, diagram.bind_generators(lhs, b, raw))
    rv = diagram.run_document(rhs, b, diagram.bind_generators(rhs, b, raw))
    diff = matcat.first_difference(lv, rv)
    if diff is None:
        _emit(args, "equal\n")
        return 0
    r, c, a, d = diff
    if a is None:
        _emit(args, "unequal: incompatible shapes\n")
    else:
        _emit(args, f"unequal at row {r}, col {c}: {b.sr.fmt(a)} vs {b.sr.fmt(d)}\n")
    return 1


def cmd_bell(args) -> int:
    s = scenarios.parse_scenario_text(_read(args.scenario))
    problems = bell.validate_scenario(s)
    if problems:
        _emit(args, "invalid scenario:\n" + "\n".join(f"  {p}" for p in problems) + "\n")
        return 1
    try:
        model = bell.evaluate(s)
    except bell.InvalidScenario as exc:
        _emit(args, f"invalid scenario:\n  {exc}\n")
        return 1
    report = bell.no_signalling_check(model)
    out = [bell.export_empirical_model(model, args.format).rstrip("\n")]
    out.append("rows normalised: " + ("PASS" if report.rows_normalised else "FAIL"))
    if report.ok:
        out.append("no-signalling: PASS")
        if model.sr.tolerance is not None:
            out.append(f"max marginal discrepancy: {report.max_discrepancy:.3g}")
    else:
        party, ca, cb, rest, va, vb = report.violation
        out.append(
            f"no-signalling: FAIL (party {party}, contexts {ca} vs {cb}: "
            f"{model.sr.fmt(va)} != {model.sr.fmt(vb)})"
        )
    _emit(args, "\n".join(out) + "\n")
    return 0 if report.ok else 1


def cmd_toyzoo(args) -> int:
    rows = bk.toyzoo_table()
    header = f"{'theory':<14} {'S':<12} {'involution':<28} {'R':<8} description"
    lines = [header, "-" * len(header)]
    for name, sid, inv, rid, desc in rows:
        lines.append(f"{name:<14} {sid:<12} {inv:<28} {rid:<8} {desc}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="catprob", description=__doc__)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--tolerance", type=float, default=1e-9)
    ap.add_argument("--out", default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory-check", help="run the probabilistic-theory self-test")
    p.add_argument("semiring")
    p.add_argument("--backend", choices=("classical", "quantum"), default="classical")
    p.set_defaults(fn=cmd_theory_check)

    p = sub.add_parser("eval", help="evaluate a diagram file")
    p.add_argument("file")
    p.add_argument("--semiring", default="ratnn")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("eq", help="check two diagram files for equality")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("bindings")
    p.add_argument("--semiring", default="ratnn")
    p.set_defaults(fn=cmd_eq)

    p = sub.add_parser("bell", help="evaluate a Bell scenario file")
    p.add_argument("scenario")
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p.set_defaults(fn=cmd_bell)

    p = sub.add_parser("toyzoo", help="print the toy-theory table")
    p.set_defaults(fn=cmd_toyzoo)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SemiringError, matcat.ShapeError, diagram.DiagramSyntaxError,
            diagram.DiagramTypeError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
