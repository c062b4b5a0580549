"""Command-line frontend.

One executable, subcommand per question: defect computations, quadratic
classification, branch shapes, predicted and measured relative
positions, the stem-distance formula, the realisability decision, and
the seeded self-test.  Output is text by default, JSON with
``--format json``; element and matrix arguments use the same grammar
everywhere (terms ``c*t^e`` joined by ``+``, matrices
``[[a,b],[c,d]]``).

Exit codes: 0 pass, 1 a comparison found a mismatch, 2 usage, 3 not
determined: the working precision, or for ``oracle`` the window, is too
small to settle the requested quantity.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from math import inf

from .defects import classify, render_ideal
from .existence import (DegenerateForm, algebra_spec, decide, search_pair,
                        search_zero_divisor)
from .geometry import (InfiniteFoliage, branch_shape, fake_distance,
                       predict_relpos)
from .gf2 import field
from .mat2 import NonIntegral, ScalarMatrix, m_parse, m_render, make_pair
from .series import DEFAULT_PREC, UndeterminedAtPrecision, s_parse, s_render
from .tree import dot_export, enumerate_window, largest_radius, oracle_branch
from .selftest import compare_pair, run_selftest
from . import defects


def _emit(args, text: str, record: dict) -> None:
    if args.format == "json":
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(text)


# -- JSON records ---------------------------------------------------

def _json_val(v: int | float) -> int | None:
    """A valuation as JSON has it: null for inf."""
    return None if v == inf else v


def _shape_record(shape) -> dict:
    if isinstance(shape, InfiniteFoliage):
        return {"shape": "foliage", "end": shape.end.render(),
                "level": shape.level}
    rec = {"shape": "thick", "stem_kind": shape.stem_kind,
           "depth": shape.depth}
    if shape.stem_kind == "maxpath":
        rec["ends"] = [e.render() for e in shape.ends]
    else:
        rec["stem"] = [v.render() for v in shape.stem]
    return rec


def _relpos_record(pred) -> dict:
    return {"kind": pred.kind, **asdict(pred)}


# -- subcommands ----------------------------------------------------

def _cmd_defect(args) -> int:
    fld = field(args.tau, args.modulus)
    a = s_parse(fld, args.element)
    res = (defects.as_defect if args.map == "as" else defects.quad_defect)(a)
    ideal, witness = render_ideal(res.ideal), s_render(res.witness)
    _emit(args, f"defect {ideal}  witness {witness}",
          {"ideal": ideal, "ideal_val": _json_val(res.ideal),
           "witness": witness})
    return 0


def _cmd_classify(args) -> int:
    fld = field(args.tau, args.modulus)
    m = classify(s_parse(fld, args.a), s_parse(fld, args.b), args.prec)
    _emit(args,
          f"{m.kind} (cell {m.cell}), jump t={m.t}, "
          f"defect {render_ideal(m.defect.ideal)}",
          {"class": m.kind, "cell": m.cell, "t": m.t,
           "ideal_val": _json_val(m.defect.ideal),
           "witness": s_render(m.defect.witness)})
    return 0


def _cmd_branch(args) -> int:
    fld = field(args.tau, args.modulus)
    q = m_parse(fld, args.matrix)
    shape = branch_shape(q, args.prec)
    window = _window(fld, args) if args.dot else None
    _emit(args, shape.render(), _shape_record(shape))
    if args.dot:
        members = oracle_branch(q, window)
        with open(args.dot, "w") as fh:
            fh.write(dot_export(window, {"lightblue": members}, "branch"))
    return 0


def _cmd_relpos(args) -> int:
    fld = field(args.tau, args.modulus)
    pair = make_pair(m_parse(fld, args.q1), m_parse(fld, args.q2), args.prec)
    pred = predict_relpos(pair)
    _emit(args, pred.render(), _relpos_record(pred))
    return 0


def _datum(args):
    """The datum of --lambda, --m1 and --m2 ("a,b" each) at --prec."""
    fld = field(args.tau, args.modulus)
    coeffs = [s_parse(fld, args.lam)]
    for text in (args.m1, args.m2):
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'a,b', got {text!r}")
        coeffs += [s_parse(fld, part) for part in parts]
    return algebra_spec(*coeffs, args.prec)


def _cmd_df(args) -> int:
    twice = fake_distance(_datum(args))
    if twice == -inf:
        kind, twice, value = "neg_inf", 0, "-inf"
    else:
        kind = "fin"
        value = f"{twice}/2" if twice % 2 else str(twice // 2)
    _emit(args, f"stem distance {value}",
          {"kind": kind, "twice": twice, "value": value})
    return 0


def _cmd_oracle(args) -> int:
    fld = field(args.tau, args.modulus)
    pair = make_pair(m_parse(fld, args.q1), m_parse(fld, args.q2), args.prec)
    window = _window(fld, args)
    sets = None
    if args.dot:
        sets = (oracle_branch(pair.q1, window), oracle_branch(pair.q2, window))
    status, why, pred, meas = compare_pair(pair, window, args.margin,
                                           sets=sets)
    verdict = {"matched": "MATCH", "mismatched": f"MISMATCH ({why})",
               "skipped": f"UNDETERMINED ({why})"}[status]
    meas_text = ", ".join(f"{k}={v}" for k, v in asdict(meas).items()
                          if v not in (None, ""))
    ok = status == "matched"
    _emit(args,
          f"predicted: {pred.render()}\nmeasured:  {meas_text}\n"
          f"verdict: {verdict}",
          {"predicted": _relpos_record(pred), "measured": asdict(meas),
           "match": ok, "note": "" if ok else why})
    if args.dot:
        s1, s2 = sets
        groups = {"violet": s1 & s2, "lightblue": s1 - s2, "salmon": s2 - s1}
        with open(args.dot, "w") as fh:
            fh.write(dot_export(window, groups, "oracle"))
    return {"matched": 0, "mismatched": 1, "skipped": 3}[status]


def _cmd_exists(args) -> int:
    datum = _datum(args)
    verdict = decide(datum)
    lines = [f"exists: {'yes' if verdict.exists else 'no'} "
             f"(condition {verdict.matched_condition})"]
    rec = {"exists": verdict.exists,
           "condition": verdict.matched_condition,
           "commutative_note": verdict.matched_condition == "v",
           "witness": None}
    if rec["commutative_note"]:
        lines.append("note: every realising pair is commutative")
    if args.witness and verdict.witness is not None:
        rec["witness"] = [m_render(q) for q in verdict.witness]
        lines.append(f"q1 = {m_render(verdict.witness[0])}")
        lines.append(f"q2 = {m_render(verdict.witness[1])}")
    if args.search_box and datum.disc.is_zero:
        lines.append("searches: not run (Delta = 0: the algebra is "
                     "degenerate, so a hit proves nothing)")
    elif args.search_box:
        lo, hi = args.search_box
        zd = search_zero_divisor(datum, lo, hi)
        pr = search_pair(datum, lo, hi)
        rec["zero_divisor"] = ([s_render(x) for x in zd] if zd else None)
        rec["pair_hit"] = ([s_render(x) for x in pr] if pr else None)
        lines.append(f"zero divisor search: "
                     f"{'hit' if zd else 'no hit in box'}")
        lines.append(f"norm-form search: {'hit' if pr else 'no hit in box'}")
    _emit(args, "\n".join(lines), rec)
    return 0


def _cmd_selftest(args) -> int:
    rep = run_selftest(args.seed, args.tau, args.modulus, args.count,
                       _radius(args), args.margin, args.prec)
    _emit(args, rep.render().rstrip("\n"), rep.record())
    return 0 if rep.passing else 1


# -- argument plumbing ----------------------------------------------

#: the window radius of a measurement when --radius is not given
DEFAULT_RADIUS = 8


def default_radius(tau: int) -> int:
    """DEFAULT_RADIUS where its window over F_(2^tau) fits, otherwise
    the largest radius within MAX_WINDOW_VERTICES (6 at tau 3, 4 at
    tau 4, ...).  A tau below 1 gets DEFAULT_RADIUS: the field refuses it."""
    if tau < 1:
        return DEFAULT_RADIUS
    return min(DEFAULT_RADIUS, largest_radius(2 ** tau))


def _radius(args) -> int:
    if args.window_radius is None:
        return default_radius(args.tau)
    return args.window_radius


def _window(fld, args):
    """The measurement window.  For a --dot file its vertices are listed
    at once, so a radius too large to list prints nothing."""
    window = enumerate_window(fld, _radius(args))
    if args.dot:
        window.vertices
    return window


def _search_box(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO,HI (two integers), got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(
            f"expected LO,HI with LO <= HI, got {text!r}")
    return lo, hi


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


#: the flags beyond --tau, --modulus and --format, each given only to
#: the subcommands that read it
_FLAGS = {
    "--prec": dict(type=_at_least(1), default=DEFAULT_PREC,
                   help="working precision for inexact arithmetic"),
    "--radius": dict(dest="window_radius", type=_at_least(0), default=None,
                     help=f"window radius for measurements (default "
                          f"{DEFAULT_RADIUS}, or the largest whose window "
                          "fits the vertex limit)"),
    "--margin": dict(type=_at_least(0), default=2,
                     help="boundary margin for certification"),
    "--seed": dict(type=int, default=7),
    "--dot": dict(metavar="PATH", default=None,
                  help="write a GraphViz view of the window"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tau", type=int, default=1,
                        help="residue field is F_(2^tau)")
    common.add_argument("--modulus", type=lambda s: int(s, 0), default=None,
                        help="residue field modulus, e.g. 0b111")
    common.add_argument("--format", choices=("text", "json"), default="text")

    p = argparse.ArgumentParser(prog="btbranch",
                                description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags, args=()):
        cmd = sub.add_parser(name, parents=[common], help=help)
        for arg in args:
            cmd.add_argument(arg)
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
        cmd.set_defaults(func=func, parser=cmd)
        return cmd

    pd = command("defect", _cmd_defect, "defect ideal of an element")
    pd.add_argument("map", choices=("as", "quad"))
    pd.add_argument("element")
    command("classify", _cmd_classify, "classify X^2 + aX + b", "--prec",
            args=("a", "b"))
    command("branch", _cmd_branch, "branch shape of a matrix",
            "--prec", "--radius", "--dot", args=("matrix",))
    command("relpos", _cmd_relpos,
            "predicted relative position of two branches", "--prec",
            args=("q1", "q2"))
    pf = command("df", _cmd_df, "stem distance from (lambda, m1, m2)",
                 "--prec")
    command("oracle", _cmd_oracle, "predicted vs measured, side by side",
            "--prec", "--radius", "--margin", "--dot", args=("q1", "q2"))
    pe = command("exists", _cmd_exists,
                 "decide whether a pair with the datum exists", "--prec")
    for cmd in (pf, pe):
        cmd.add_argument("--lambda", dest="lam", required=True)
        cmd.add_argument("--m1", required=True, metavar="A,B")
        cmd.add_argument("--m2", required=True, metavar="A,B")
    pe.add_argument("--witness", action="store_true",
                    help="print the witness pair when one is constructed")
    pe.add_argument("--search-box", metavar="LO,HI", type=_search_box,
                    default=None,
                    help="also run the bounded searches on this exponent box")
    ps = command("selftest", _cmd_selftest,
                 "run the seeded differential suite",
                 "--prec", "--radius", "--margin", "--seed")
    ps.add_argument("--count", type=int, default=500)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a negative LO reads as an option, so glue the box to its flag
    if "--search-box" in argv[:-1]:
        i = argv.index("--search-box")
        argv[i:i + 2] = [f"--search-box={argv[i + 1]}"]
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        # reported by the subcommand, whose usage lists the flags it takes
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except UndeterminedAtPrecision as exc:
        print(f"precision: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError, ScalarMatrix, NonIntegral,
            DegenerateForm) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
