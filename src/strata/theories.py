"""Sound partial judges for three equational theories.

For each calculus three theories are compared, each coarser than the
previous: conversion (two terms are equal when reduction joins them),
the closure that also collapses all meaningless terms ("mute"), and
observational equivalence (no context separates surface behavior).

The judge is sound, never complete: every verdict other than Unknown
is backed by a certificate that can be re-verified from scratch.

A separating context refutes observational equivalence.  It is built,
not searched for: separating_context (in bohm) reads the Böhm-tree
shape of the two plugged terms from their level-0 normal forms and
builds a context from abstractions that close free heads, the
permutator \\a.\\t.t a and selectors, padding arguments and a
divergent argument \\a.Ω, placed at the first difference.  A built
context counts only once an oracle at CONTEXT_FUEL decides one
plugging meaningful and the other meaningless, and reverify decides
them again at that fuel.  Every pair of the tests' corpora that some
context of size at most 5 separates, the built context separates too,
so no search over contexts runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .terms import OMEGA, AlphaTable, Term, alpha_eq, plug
from .reduce import Trace, normalize
from .approx import MEANINGFUL, MEANINGLESS, UNKNOWN, Oracle
from .bohm import separating_context

LAMBDA = "conversion"
H = "mute"
HSTAR = "observational"
THEORIES = (LAMBDA, H, HSTAR)

EQUAL = "equal"
NOT_EQUAL = "not-equal"

# the oracle fuel of each term a separating context is built from or
# plugged with
CONTEXT_FUEL = 200
NO_WITNESS = "Böhm-out from the normal forms built no separating context"


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


def falsify_observational(t: Term, u: Term, calculus: str) -> Term | None:
    """The context built from the normal forms of t and u, when an
    oracle decides its pluggings of t and u one meaningful and the other
    meaningless: a witness that refutes observational equivalence."""
    oracle = Oracle(calculus, CONTEXT_FUEL)
    ctx = separating_context(t, u, oracle)
    if ctx is not None and {oracle.status(plug(ctx, t)), oracle.status(plug(ctx, u))} \
            == {MEANINGFUL, MEANINGLESS}:
        return ctx
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
        """Certify a separating context, if one is built.  It is built
        from and plugged with each side's normal form at omega, which
        has the side's status in every context, or the side itself when
        it has none."""
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
    and that the certificate proves that verdict in that theory; context
    witnesses at CONTEXT_FUEL, the fuel they were found at."""
    oracle = Oracle(j.calculus, fuel)
    context_oracle = Oracle(j.calculus, CONTEXT_FUEL)
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
                    plugged.append(context_oracle.status(plug(c.data["context"], s)))
                if set(plugged) != {MEANINGFUL, MEANINGLESS}:
                    return False
    return True
