"""Sound partial judges for three equational theories.

For each calculus three theories are compared, each coarser than the
previous: conversion (two terms are equal when reduction joins them),
the closure that also collapses all meaningless terms ("mute"), and
observational equivalence (no context separates surface behavior).

The judge is sound, never complete: every verdict other than Unknown
is backed by a certificate that can be re-verified from scratch.

The search for a separating context skips contexts that cannot
separate, by two rules read off the surface trace of C<@> itself, in
which the hole is an inert constant that no rule inspects, like bot.
Both rest on lifting: every step of C<@> replays on C<t>, for every t,
at the same position and by the same rule.  Surface reduction is
diamond in both calculi (Accattoli & Paolini, FLOPS 2012, for
call-by-value), so a term that has a surface normal form reaches it
by every surface reduction (uniform normalization), and every reduct
of a term has the term's status.

- Dead contexts.  When C<@> reaches a normal form with every hole at
  level 1 or deeper, the lifted trace takes C<t> to that normal form
  with t, or an instance of t, in the holes, which is still surface
  normal: no level-0 rule inspects a position deeper than level 0.
  So C<t> is meaningful for every t.  When C<@> cycles, the lifted
  trace is an infinite surface reduction of C<t>, which then has no
  normal form.  Either way the oracle cannot answer both statuses,
  and the context is never tried.
- Classes.  Live contexts whose C<@> reach alpha-equal normal forms
  S<@> form a class.  The binders of contexts, and the names they are
  renamed to, are b<digits>; a t with no such free name is neither
  captured nor substituted into by the lifted steps, so every member
  reduces C<t> to S<t>, and all members give t the same status.  Once
  one member decides both pluggings without separating them, the rest
  of its class cannot separate them either.  An undecided plugging
  leaves the class open.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from typing import Optional

from .terms import (OMEGA, AlphaTable, Position, Term, Var, alpha_eq, hole_positions,
                    level_of, plug, replace_at, subst)
from .reduce import Trace, normalize
from .approx import MEANINGFUL, MEANINGLESS, UNKNOWN as UNDECIDED, Oracle
from .corpus import enumerate_contexts

LAMBDA = "conversion"
H = "mute"
HSTAR = "observational"
THEORIES = (LAMBDA, H, HSTAR)

EQUAL = "equal"
NOT_EQUAL = "not-equal"
UNKNOWN = "unknown"

# the search for a separating context: the largest context tried, and
# the oracle fuel of each plugged term
CONTEXT_SIZE = 5
CONTEXT_FUEL = 200
NO_WITNESS = f"no separating context of size <= {CONTEXT_SIZE} found"


# each kind of certificate: what it shows, its result, and the theories
# in which it proves that result
KINDS = {
    "common-reduct": ("both terms reduce to a common term", EQUAL, THEORIES),
    "both-meaningless": ("both terms are meaningless", EQUAL, (H, HSTAR)),
    "distinct-normal-forms": ("the terms have distinct normal forms", NOT_EQUAL, (LAMBDA, H)),
    "meaningfulness-separation": ("exactly one term is meaningful", NOT_EQUAL, (H, HSTAR)),
    "context-witness": ("a context separates the terms' meaningfulness", NOT_EQUAL, (H, HSTAR)),
}


@dataclass
class Certificate:
    kind: str
    data: dict

    def describe(self) -> str:
        return KINDS[self.kind][0]


@dataclass
class Verdict:
    theory: str
    result: str
    certificate: Optional[Certificate] = None
    # why a verdict stayed unknown: a note, left out when verdicts are compared
    reason: str = field(default="", compare=False)


@dataclass
class Judgment:
    left: Term
    right: Term
    calculus: str
    verdicts: dict[str, Verdict]

    def __getitem__(self, theory: str) -> Verdict:
        return self.verdicts[theory]


def _common_reduct(tr_t: Trace, tr_u: Trace) -> Term | None:
    """The first term of tr_u alpha-equal to a term of tr_t, if any."""
    seen = AlphaTable((r, True) for r in tr_t.terms)
    return next((r for r in tr_u.terms if seen.get(r)), None)


_SWAP_XY = {"x": Var("y"), "y": Var("x")}
# the names of context binders, and of the names they are renamed to
_CONTEXT_BINDER = re.compile(r"b[0-9]+")


@cache
def _contexts() -> list[tuple[Term, Position, bool]]:
    """The contexts of the search, smallest first, each with the position
    of its hole and whether it comes before its x<->y mirror; built once,
    on first use."""
    table, seen = [], AlphaTable()
    for ctx in enumerate_contexts(CONTEXT_SIZE):
        (hole,) = hole_positions(ctx)
        table.append((ctx, hole, seen.get(subst(ctx, _SWAP_XY)) is None))
        seen.add(ctx, True)
    return table


@cache
def _classes(calculus: str) -> list[int | None]:
    """The class of each context of the search, read off the surface
    trace of C<@>: None for a dead context, else the index of the first
    context of its class.  Built once per calculus, on first use."""
    classes, stuck = [], AlphaTable()
    for ctx, _, _ in _contexts():
        tr = normalize(ctx, calculus, 0.0, CONTEXT_FUEL)
        group = len(classes)  # a class of its own, unless its normal form is known
        if tr.outcome == "cycle" or (tr.outcome == "normal" and all(
                level_of(pos, calculus) >= 1 for pos in hole_positions(tr.final))):
            group = None
        elif tr.outcome == "normal":
            group = stuck.get(tr.final)
            if group is None:
                group = len(classes)
                stuck.add(tr.final, group)
        classes.append(group)
    return classes


def falsify_observational(t: Term, u: Term, calculus: str) -> Term | None:
    """Search small contexts for one whose pluggings differ in
    meaningfulness; a witness refutes observational equivalence.

    When neither term has x or y free, plugging into a context's x<->y
    mirror gives the mirror of each plugging, whose surface trace is the
    mirror of the first one step by step: only the first context of each
    mirror pair is tried.  Dead contexts are never tried, and when
    neither term has a free name b<digits>, a class is closed by its
    first member that decides both pluggings (see the module docstring).
    u is not plugged where t's plugging is undecided."""
    oracle = Oracle(calculus, CONTEXT_FUEL)
    names = t.free | u.free
    mirrored = _SWAP_XY.keys().isdisjoint(names)
    grouped = not any(_CONTEXT_BINDER.fullmatch(x) for x in names)
    closed: set[int] = set()
    for (ctx, hole, first), group in zip(_contexts(), _classes(calculus)):
        if group is None or group in closed or (mirrored and not first):
            continue
        mt = oracle.status(replace_at(ctx, hole, t))
        if mt == UNDECIDED:
            continue
        mu = oracle.status(replace_at(ctx, hole, u))
        if {mt, mu} == {MEANINGFUL, MEANINGLESS}:
            return ctx
        if grouped and mu != UNDECIDED:
            closed.add(group)
    return None


def judge(t: Term, u: Term, calculus: str, fuel: int | None = None) -> Judgment:
    verdicts = {th: Verdict(th, UNKNOWN) for th in THEORIES}

    def certify(kind: str, data: dict) -> Judgment:
        """Record a certificate's result in every theory it proves it in."""
        cert = Certificate(kind, data)
        _, result, theories = KINDS[kind]
        for th in theories:
            verdicts[th] = Verdict(th, result, cert)
        return Judgment(t, u, calculus, verdicts)

    oracle = Oracle(calculus, fuel)
    tr_t = normalize(t, calculus, OMEGA, fuel)
    tr_u = normalize(u, calculus, OMEGA, fuel)

    common = _common_reduct(tr_t, tr_u)
    if common is not None:
        return certify("common-reduct", {"term": common, "left": tr_t, "right": tr_u})

    mt = oracle.meaning(t)
    mu = oracle.meaning(u)
    if mt.status == MEANINGLESS and mu.status == MEANINGLESS:
        return certify("both-meaningless", {"left": mt, "right": mu})

    def separate() -> None:
        """Certify a separating context, if the search finds one.  It
        plugs each side's normal form at omega, which has the side's
        status in every context, or the side itself when it has none."""
        left, right = (tr.final if tr.outcome == "normal" else tr.start
                       for tr in (tr_t, tr_u))
        witness = falsify_observational(left, right, calculus)
        if witness is not None:
            certify("context-witness", {"context": witness, "left": left, "right": right})
            return
        for th in KINDS["context-witness"][2]:
            if verdicts[th].result == UNKNOWN:
                verdicts[th].reason = NO_WITNESS

    if tr_t.outcome == "normal" and tr_u.outcome == "normal" \
            and not alpha_eq(tr_t.final, tr_u.final):
        separate()  # the normal forms then decide H
        return certify("distinct-normal-forms", {"left": tr_t.final, "right": tr_u.final})

    if {mt.status, mu.status} == {MEANINGFUL, MEANINGLESS}:
        return certify("meaningfulness-separation", {"left": mt, "right": mu})

    separate()
    return Judgment(t, u, calculus, verdicts)


def reverify(j: Judgment, fuel: int | None = None) -> bool:
    """Re-check every non-Unknown verdict's certificate from scratch,
    and that the certificate proves that verdict in that theory."""
    oracle = Oracle(j.calculus, fuel)
    traces: dict[str, Trace] = {}

    def omega(side: str) -> Trace:
        """The trace at omega of the left or right term, made once."""
        if side not in traces:
            traces[side] = normalize(getattr(j, side), j.calculus, OMEGA, fuel)
        return traces[side]

    for theory, v in j.verdicts.items():
        if v.result == UNKNOWN:
            continue
        c = v.certificate
        if c is None or v.theory != theory or c.kind not in KINDS:
            return False
        _, result, theories = KINDS[c.kind]
        if v.result != result or theory not in theories:
            return False
        match c.kind:
            case "common-reduct":
                if _common_reduct(omega("left"), omega("right")) is None:
                    return False
            case "both-meaningless":
                if oracle.status(j.left) != MEANINGLESS:
                    return False
                if oracle.status(j.right) != MEANINGLESS:
                    return False
            case "distinct-normal-forms":
                tr_t, tr_u = omega("left"), omega("right")
                if tr_t.outcome != "normal" or tr_u.outcome != "normal":
                    return False
                if alpha_eq(tr_t.final, tr_u.final):
                    return False
            case "meaningfulness-separation":
                pair = {oracle.status(j.left), oracle.status(j.right)}
                if pair != {MEANINGFUL, MEANINGLESS}:
                    return False
            case "context-witness":
                # each plugged term, when recorded, is its side or the
                # side's normal form at omega
                plugged = []
                for side in ("left", "right"):
                    term = getattr(j, side)
                    s = c.data.get(side, term)
                    if not alpha_eq(s, term):
                        tr = omega(side)
                        if tr.outcome != "normal" or not alpha_eq(tr.final, s):
                            return False
                    plugged.append(oracle.status(plug(c.data["context"], s)))
                if set(plugged) != {MEANINGFUL, MEANINGLESS}:
                    return False
    return True
