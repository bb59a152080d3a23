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

from .terms import OMEGA, Term, alpha_eq, hole_positions, plug, replace_at
from .reduce import Trace, normalize
from .approx import MEANINGFUL, MEANINGLESS, Oracle
from .corpus import enumerate_contexts
from .summary import AlphaTable

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


@dataclass
class Certificate:
    kind: str
    data: dict

    def describe(self) -> str:
        return {
            "common-reduct": "both terms reduce to a common term",
            "both-meaningless": "both terms are meaningless",
            "distinct-normal-forms": "the terms have distinct normal forms",
            "meaningfulness-separation": "exactly one term is meaningful",
            "context-witness": "a context separates the terms' meaningfulness",
        }[self.kind]


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
    oracle = Oracle(calculus, fuel)

    tr_t = normalize(t, calculus, OMEGA, fuel)
    tr_u = normalize(u, calculus, OMEGA, fuel)

    common = _common_reduct(tr_t, tr_u)
    if common is not None:
        cert = Certificate("common-reduct", {"term": common, "left": tr_t, "right": tr_u})
        for th in THEORIES:
            verdicts[th] = Verdict(th, EQUAL, cert)
        return Judgment(t, u, calculus, verdicts)

    mt = oracle.meaning(t)
    mu = oracle.meaning(u)

    if mt.status == MEANINGLESS and mu.status == MEANINGLESS:
        cert = Certificate("both-meaningless", {"left": mt, "right": mu})
        verdicts[H] = Verdict(H, EQUAL, cert)
        verdicts[HSTAR] = Verdict(HSTAR, EQUAL, cert)
        return Judgment(t, u, calculus, verdicts)

    if tr_t.outcome == "normal" and tr_u.outcome == "normal" \
            and not alpha_eq(tr_t.final, tr_u.final):
        cert = Certificate(
            "distinct-normal-forms", {"left": tr_t.final, "right": tr_u.final}
        )
        verdicts[LAMBDA] = Verdict(LAMBDA, NOT_EQUAL, cert)
        verdicts[H] = Verdict(H, NOT_EQUAL, cert)
        witness = falsify_observational(t, u, calculus)
        if witness is not None:
            verdicts[HSTAR] = Verdict(
                HSTAR, NOT_EQUAL, Certificate("context-witness", {"context": witness})
            )
        return Judgment(t, u, calculus, verdicts)

    if {mt.status, mu.status} == {MEANINGFUL, MEANINGLESS}:
        cert = Certificate("meaningfulness-separation", {"left": mt, "right": mu})
        verdicts[HSTAR] = Verdict(HSTAR, NOT_EQUAL, cert)
        verdicts[H] = Verdict(H, NOT_EQUAL, cert)
        return Judgment(t, u, calculus, verdicts)

    witness = falsify_observational(t, u, calculus)
    if witness is not None:
        cert = Certificate("context-witness", {"context": witness})
        verdicts[HSTAR] = Verdict(HSTAR, NOT_EQUAL, cert)
        verdicts[H] = Verdict(H, NOT_EQUAL, cert)
    return Judgment(t, u, calculus, verdicts)


def reverify(j: Judgment, fuel: int | None = None) -> bool:
    """Re-check every non-Unknown verdict's certificate from scratch."""
    oracle = Oracle(j.calculus, fuel)
    for v in j.verdicts.values():
        if v.result == UNKNOWN or v.certificate is None:
            continue
        c = v.certificate
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
            case _:
                return False
    return True
