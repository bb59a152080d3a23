"""Meaningfulness and meaningful approximants.

A term is meaningful when its surface (level-0) reduction reaches a
normal form.  The oracle below decides this operationally, with three
outcomes: a normal form proves Meaningful, a repeated term proves
Meaningless (level-0 reduction is deterministic enough that a cycle on
the chosen strategy is a genuine loop), and running out of fuel leaves
the question Unknown.

An annotation store lets callers assert meaninglessness for terms the
bounded oracle cannot decide; assertions are consulted up to alpha.

The meaningful approximant A(t) prunes the meaningless parts of a term
down to bot.  A meaningless node collapses to bot exactly when pruning
its children is not enough to isolate the divergence: either the pruned
node still carries a bot at surface level (the divergence sat in an
argument position that surface reduction can never discard), or the
pruned node itself fails to surface-normalize.  When pruning the
children does isolate the divergence, the node keeps its shape over the
pruned children.  approximate_step pushes a single reduction step
through A; lift_step replays a step of a partial term on any refinement
of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .terms import (
    Abs,
    App,
    BOT,
    Es,
    Position,
    Term,
    alpha_eq,
    bot_positions,
    canonical,
    level_of,
    parse,
    partial_leq,
)
from .reduce import Step, apply_step, normalize, redex_at

MEANINGFUL = "meaningful"
MEANINGLESS = "meaningless"
UNKNOWN = "unknown"


class Annotations:
    """User-supplied meaninglessness assertions, matched up to alpha."""

    def __init__(self, terms: list[Term] | None = None):
        self._keys = {canonical(t) for t in (terms or [])}

    @classmethod
    def load(cls, path: str) -> "Annotations":
        terms = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    terms.append(parse(line))
        return cls(terms)

    def asserts_meaningless(self, t: Term) -> bool:
        return canonical(t) in self._keys


@dataclass(frozen=True)
class MeaningReport:
    status: str
    # a surface normal form for Meaningful, a cycle trace for
    # Meaningless (None when asserted), nothing for Unknown
    witness: object = None
    asserted: bool = False


class Oracle:
    """Memoizing meaningfulness oracle for one calculus."""

    def __init__(self, calculus: str, fuel: int | None = None,
                 annotations: Annotations | None = None):
        self.calculus = calculus
        self.fuel = fuel
        self.annotations = annotations or Annotations()
        self._memo: dict[tuple, MeaningReport] = {}

    def meaning(self, t: Term) -> MeaningReport:
        key = canonical(t)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if self.annotations.asserts_meaningless(t):
            report = MeaningReport(MEANINGLESS, None, asserted=True)
        else:
            trace = normalize(t, self.calculus, 0.0, self.fuel)
            match trace.outcome:
                case "normal":
                    report = MeaningReport(MEANINGFUL, trace)
                case "cycle":
                    report = MeaningReport(MEANINGLESS, trace)
                case _:
                    report = MeaningReport(UNKNOWN)
        self._memo[key] = report
        return report

    def status(self, t: Term) -> str:
        return self.meaning(t).status


@dataclass(frozen=True)
class Undetermined:
    """Raised channel for approximants: the oracle could not decide the
    subterm at this position, so A(t) is not computable at this fuel."""

    position: Position


def meaningful_approximant(t: Term, oracle: Oracle) -> Union[Term, Undetermined]:
    """A(t): prune every subterm down to the shape surface reduction can
    still make use of.

    Meaningful nodes keep their constructor over the approximants of
    their immediate subterms.  A meaningless node first prunes its
    children the same way; if the pruned node carries a bot at surface
    level or still fails to surface-normalize, the divergence is
    inseparable from the node and it collapses to bot, otherwise the
    pruned shape is kept."""

    def go(t: Term, pos: Position) -> Term:
        status = oracle.status(t)
        if status == UNKNOWN:
            raise _Undecided(pos)
        match t:
            case Abs(x, b):
                hat = Abs(x, go(b, pos + ("b",)))
            case App(f, a):
                hat = App(go(f, pos + ("l",)), go(a, pos + ("r",)))
            case Es(b, x, a):
                hat = Es(go(b, pos + ("s",)), x, go(a, pos + ("e",)))
            case _:
                hat = t
        if status == MEANINGFUL:
            return hat
        if any(level_of(hat, p, oracle.calculus) == 0.0 for p in bot_positions(hat)):
            return BOT
        trace = normalize(hat, oracle.calculus, 0.0, oracle.fuel)
        if trace.outcome == "cycle":
            return BOT
        if trace.outcome != "normal":
            raise _Undecided(pos)
        return hat

    try:
        return go(t, ())
    except _Undecided as exc:
        return Undetermined(exc.position)


class _Undecided(Exception):
    def __init__(self, position: Position):
        self.position = position


@dataclass(frozen=True)
class Collapsed:
    """The step happened inside a meaningless region: the approximant
    does not move."""

    approximant: Term


@dataclass(frozen=True)
class Mapped:
    """The step survives in the approximant as the same rule at the
    same position; over is the contraction of the surviving redex,
    which refines the approximant of the step's target."""

    step: Step
    over: Term


def approximate_step(
    step: Step, oracle: Oracle
) -> Union[Collapsed, Mapped, Undetermined]:
    """Push one reduction step through the approximant map.

    When the step happens inside a region that A(before) pruned away,
    the approximant does not move (Collapsed).  Otherwise the redex
    pattern survives at the same position of A(before), the same rule
    applies there, and the contraction refines A(after) (Mapped).
    """
    before_hat = meaningful_approximant(step.before, oracle)
    if isinstance(before_hat, Undetermined):
        return before_hat
    after_hat = meaningful_approximant(step.after, oracle)
    if isinstance(after_hat, Undetermined):
        return after_hat

    if alpha_eq(before_hat, after_hat):
        return Collapsed(before_hat)

    r = redex_at(before_hat, step.position, oracle.calculus, step.level)
    if r is None or r.rule != step.rule:
        raise AssertionError(
            "redex did not survive in the approximant of a meaningful prefix"
        )
    mapped = apply_step(before_hat, r, oracle.calculus)
    if not partial_leq(after_hat, mapped.after):
        raise AssertionError(
            "approximant of the target does not refine into the mapped step"
        )
    return Mapped(mapped, mapped.after)


def lift_step(step: Step, refined: Term, calculus: str) -> Step:
    """Replay a step of a partial term on a refinement of its source.

    The same rule matches at the same position of any refinement,
    because bot never matches the parts of a pattern that the rules
    inspect.  The result refines the step's own target.
    """
    if not partial_leq(step.before, refined):
        raise ValueError("term does not refine the step's source")
    r = redex_at(refined, step.position, calculus, step.level)
    if r is None or r.rule != step.rule:
        raise AssertionError("redex vanished under refinement")
    lifted = apply_step(refined, r, calculus)
    if not partial_leq(step.after, lifted.after):
        raise AssertionError("lifted step left the approximation order")
    return lifted


def lift_trace(steps: list[Step], refined: Term, calculus: str) -> list[Step]:
    """Replay a whole partial reduction sequence on a refinement."""
    out = []
    for s in steps:
        lifted = lift_step(s, refined, calculus)
        out.append(lifted)
        refined = lifted.after
    return out
