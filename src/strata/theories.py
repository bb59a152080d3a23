"""Sound partial judges for three equational theories.

For each calculus three theories are compared, each coarser than the
previous: conversion (two terms are equal when reduction joins them),
the closure that also collapses all meaningless terms ("mute"), and
observational equivalence (no context separates surface behavior).

The judge is sound, never complete: every verdict other than Unknown
is backed by a certificate that can be re-verified from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .terms import OMEGA, AlphaTable, Term, alpha_eq, hole_positions, plug, replace_at
from .reduce import Trace, normalize
from .approx import MEANINGFUL, MEANINGLESS, Oracle
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
    """Search small contexts for one whose pluggings differ in
    meaningfulness; a witness refutes observational equivalence."""
    oracle = Oracle(calculus, CONTEXT_FUEL)
    for ctx in enumerate_contexts(CONTEXT_SIZE):
        (hole,) = hole_positions(ctx)
        mt = oracle.status(replace_at(ctx, hole, t))
        mu = oracle.status(replace_at(ctx, hole, u))
        if {mt, mu} == {MEANINGFUL, MEANINGLESS}:
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

    if tr_t.outcome == "normal" and tr_u.outcome == "normal" \
            and not alpha_eq(tr_t.final, tr_u.final):
        witness = falsify_observational(t, u, calculus)
        if witness is not None:  # the normal forms then decide H
            certify("context-witness", {"context": witness})
        return certify("distinct-normal-forms", {"left": tr_t.final, "right": tr_u.final})

    if {mt.status, mu.status} == {MEANINGFUL, MEANINGLESS}:
        return certify("meaningfulness-separation", {"left": mt, "right": mu})

    witness = falsify_observational(t, u, calculus)
    if witness is not None:
        return certify("context-witness", {"context": witness})
    return Judgment(t, u, calculus, verdicts)


def reverify(j: Judgment, fuel: int | None = None) -> bool:
    """Re-check every non-Unknown verdict's certificate from scratch,
    and that the certificate proves that verdict in that theory."""
    oracle = Oracle(j.calculus, fuel)
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
                tr_t = normalize(j.left, j.calculus, OMEGA, fuel)
                tr_u = normalize(j.right, j.calculus, OMEGA, fuel)
                if _common_reduct(tr_t, tr_u) is None:
                    return False
            case "both-meaningless":
                if oracle.status(j.left) != MEANINGLESS:
                    return False
                if oracle.status(j.right) != MEANINGLESS:
                    return False
            case "distinct-normal-forms":
                tr_t = normalize(j.left, j.calculus, OMEGA, fuel)
                tr_u = normalize(j.right, j.calculus, OMEGA, fuel)
                if tr_t.outcome != "normal" or tr_u.outcome != "normal":
                    return False
                if alpha_eq(tr_t.final, tr_u.final):
                    return False
            case "meaningfulness-separation":
                pair = {oracle.status(j.left), oracle.status(j.right)}
                if pair != {MEANINGFUL, MEANINGLESS}:
                    return False
            case "context-witness":
                ctx = c.data["context"]
                pair = {oracle.status(plug(ctx, j.left)), oracle.status(plug(ctx, j.right))}
                if pair != {MEANINGFUL, MEANINGLESS}:
                    return False
    return True
