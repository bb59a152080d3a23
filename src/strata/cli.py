"""Command-line entry point.

Exit codes, uniformly: 0 for success / equal / pass, 1 for a negative
or violated result, 2 when the question could not be decided within
the budget, 3 for usage errors (bad syntax, bad flags, unreadable
files, a meaningful term given to genericity, whose theorem then does
not apply), 4 for an internal error (the machinery failed, for example
by running out of recursion depth): never a verdict.

genericity answers for all its probes at once: 1 if one is violated,
else 3 if one is inapplicable, else 2 if one is unknown, else 0.  A
vacuous probe (C<t> has no normal form at the level, or one with a bot
at or above the level) is decided: the theorem holds trivially.
"""

from __future__ import annotations

import argparse
import json
import sys

from .approx import (
    MEANINGFUL,
    MEANINGLESS,
    Oracle,
    Undetermined,
    meaningful_approximant,
)
from .deriv_transform import typable
from .genericity import (
    DEFAULT_PROBES,
    INAPPLICABLE,
    UNKNOWN,
    VIOLATED,
    axiom_suite,
    stratified_genericity_check,
)
from .nf import NOT_NF, classify_nf, strat_eq
from .reduce import normalize, trace_to_dict
from .terms import CBN, CBV, ParseError, parse, parse_context, parse_level, show
from .theories import EQUAL, HSTAR, NOT_EQUAL, THEORIES, judge
from .typecheck import SYSTEM_OF, check_derivation
from .types_core import deriv_from_dict, deriv_to_dict, show_ty

USAGE_ERROR = 3
INTERNAL_ERROR = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _fuel(text: str) -> int:
    """At most this many steps per normalization; a natural number."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"fuel must be a natural number, got {text!r}")
    return int(text)


def _count(text: str) -> int:
    """How many checks a campaign makes: at least one, or it passes unchecked."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"count must be a positive integer, got {text!r}")
    return int(text)


def _add_common(p, level=False, fuel=True):
    p.add_argument("--calculus", choices=[CBV, CBN], default=CBV)
    if level:
        p.add_argument("--level", default="omega")
    if fuel:
        p.add_argument("--fuel", type=_fuel, default=None)


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(prog="strata",
                   description="workbench for stratified lambda-calculi "
                               "with explicit substitutions")
    sub = root.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser("parse", help="parse a term and echo it canonically")
    p.add_argument("term")
    p.add_argument("--context", action="store_true",
                   help="accept exactly one hole '@'")

    p = sub.add_parser("reduce", help="normalize at a level, printing the trace")
    p.add_argument("term")
    _add_common(p, level=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("nf-check", help="classify a term against the "
                                        "normal-form grammar of a level")
    p.add_argument("term")
    _add_common(p, level=True, fuel=False)

    p = sub.add_parser("eq", help="stratified equality of two terms at a level")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p, level=True, fuel=False)

    p = sub.add_parser("meaning", help="decide meaningfulness (surface "
                                       "normalization) of a term")
    p.add_argument("term")
    _add_common(p)

    p = sub.add_parser("approximant", help="meaningful approximant of a term")
    p.add_argument("term")
    _add_common(p)

    p = sub.add_parser("type-check", help="check a derivation file")
    p.add_argument("file")
    _add_common(p, fuel=False)

    p = sub.add_parser("type-infer", help="infer a typing derivation by "
                                          "normalize-type-expand")
    p.add_argument("term")
    _add_common(p)
    p.add_argument("--dump", help="write the derivation to a JSON file")

    p = sub.add_parser("genericity", help="check that a meaningless term is "
                                          "generic in a context")
    p.add_argument("term")
    p.add_argument("--context", required=True)
    p.add_argument("--probe", action="append", default=None,
                   help="probe term, repeatable; defaults to a small pool")
    _add_common(p, level=True)

    p = sub.add_parser("judge", help="judge an equation in the three theories")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p)
    p.add_argument("--theory", choices=list(THEORIES), default=HSTAR,
                   help="which verdict drives the exit code")

    p = sub.add_parser("axioms", help="randomized campaign for the "
                                      "approximation and lifting laws")
    _add_common(p, fuel=False)
    p.add_argument("-n", type=_count, default=5000)
    p.add_argument("--seed", type=int, default=0)

    return root


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def _dispatch(args) -> int:
    match args.cmd:
        case "parse":
            t = parse_context(args.term) if args.context else parse(args.term)
            print(show(t, rename=not args.context))
            return 0
        case "reduce":
            t = parse(args.term)
            trace = normalize(t, args.calculus, parse_level(args.level), args.fuel)
            if args.json:
                print(json.dumps(trace_to_dict(trace), indent=2))
            else:
                print(show(trace.start))
                for s in trace.steps:
                    pos = "".join(s.position) or "root"
                    print(f"  --{s.rule}@{pos}--> {show(s.after)}")
                print(f"outcome: {trace.outcome}")
            return 0 if trace.outcome in ("normal", "cycle") else 2
        case "nf-check":
            t = parse(args.term)
            sort = classify_nf(t, args.calculus, parse_level(args.level))
            print(sort)
            return 0 if sort != NOT_NF else 1
        case "eq":
            t, u = parse(args.left), parse(args.right)
            same = strat_eq(t, u, args.calculus, parse_level(args.level))
            print("equal" if same else "different")
            return 0 if same else 1
        case "meaning":
            report = Oracle(args.calculus, args.fuel).meaning(parse(args.term))
            print(report.status)
            return {MEANINGFUL: 0, MEANINGLESS: 1}.get(report.status, 2)
        case "approximant":
            a = meaningful_approximant(parse(args.term),
                                       Oracle(args.calculus, args.fuel))
            if isinstance(a, Undetermined):
                print(f"undetermined at position {''.join(a.position) or 'root'}")
                return 2
            print(show(a))
            return 0
        case "type-check":
            with open(args.file) as fh:
                d = deriv_from_dict(json.load(fh))
            errors = check_derivation(d, SYSTEM_OF[args.calculus])
            for e in errors:
                print(e)
            if not errors:
                print("valid")
            return 0 if not errors else 1
        case "type-infer":
            status, d = typable(parse(args.term), args.calculus, args.fuel)
            if status == "typable":
                env = ", ".join(f"{k}: {show_ty(m)}" for k, m in d.env)
                print(f"{env or '.'} |- {show(d.term, rename=False)} : {show_ty(d.ty)}")
                if args.dump:
                    with open(args.dump, "w") as fh:
                        json.dump(deriv_to_dict(d), fh, indent=2)
                return 0
            print(status)
            return 1 if status == "untypable" else 2
        case "genericity":
            t = parse(args.term)
            ctx = parse_context(args.context)
            probes = [parse(p) for p in (args.probe or DEFAULT_PROBES)]
            level = parse_level(args.level)
            oracle = Oracle(args.calculus, args.fuel)
            statuses = []
            for u in probes:
                r = stratified_genericity_check(t, ctx, u, args.calculus,
                                                level, oracle, args.fuel)
                statuses.append(r.status)
                print(f"probe {show(u)}: {r.status}"
                      + (f" ({r.detail})" if r.detail else ""))
            if VIOLATED in statuses:
                return 1
            if INAPPLICABLE in statuses:
                return USAGE_ERROR
            return 2 if UNKNOWN in statuses else 0
        case "judge":
            j = judge(parse(args.left), parse(args.right), args.calculus, args.fuel)
            for th in THEORIES:
                c = j[th].certificate
                why = c.describe() if c else j[th].reason
                if c and c.kind == "context-witness":
                    why += f": {show(c.data['context'])}"
                print(f"{th}: {j[th].result}" + (f" ({why})" if why else ""))
            result = j[args.theory].result
            return {EQUAL: 0, NOT_EQUAL: 1}.get(result, 2)
        case "axioms":
            report = axiom_suite(args.calculus, args.n, args.seed)
            print(f"checked: {report.checked}")
            for v in report.violations:
                print(f"violation: {v}")
            print("ok" if report.ok else "failed")
            return 0 if report.ok else 1
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
