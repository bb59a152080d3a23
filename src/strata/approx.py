"""Meaningfulness and meaningful approximants.

A term is meaningful when its surface (level-0) reduction reaches a
normal form.  The oracle below decides this operationally, with three
outcomes: a normal form proves Meaningful, a repeated term proves
Meaningless (level-0 reduction is deterministic enough that a cycle on
the chosen strategy is a genuine loop), and running out of fuel leaves
the question Unknown.

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
    AlphaTable,
    App,
    BOT,
    Es,
    Position,
    Term,
    alpha_eq,
    bot_positions,
    level_of,
    partial_leq,
)
from .reduce import Redex, Step, apply_step, normalize

MEANINGFUL = "meaningful"
MEANINGLESS = "meaningless"
UNKNOWN = "unknown"
_STATUS = {"normal": MEANINGFUL, "cycle": MEANINGLESS}  # by trace outcome


@dataclass(frozen=True)
class MeaningReport:
    status: str
    # the surface trace, ending in a normal form for Meaningful and in a
    # cycle for Meaningless; nothing for Unknown
    witness: object = None


class Oracle:
    """Memoizing meaningfulness oracle for one calculus.  Its memo maps
    terms up to alpha."""

    def __init__(self, calculus: str, fuel: int | None = None):
        self.calculus = calculus
        self.fuel = fuel
        self._memo = AlphaTable()
        # the last approximant computed: for every node met on the way,
        # by id(node), the node itself (so that its id stays taken) and
        # its approximant
        self._approximants: dict[int, tuple[Term, Term]] = {}

    def meaning(self, t: Term) -> MeaningReport:
        report = self._memo.get(t)
        if report is not None:
            return report
        trace = normalize(t, self.calculus, 0.0, self.fuel)
        status = _STATUS.get(trace.outcome, UNKNOWN)
        report = MeaningReport(status, None if status == UNKNOWN else trace)
        self._memo.add(t, report)
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
    pruned shape is kept.  A node that pruning leaves unchanged is
    returned as the same node.

    The approximant of a node is taken from the oracle's table of the
    last approximant computed, or from earlier in this one, whenever the
    node is there: along a reduction, only the nodes that a step rebuilt
    are approximated again."""
    last = oracle._approximants
    hit = last.get(id(t))
    if hit is not None:
        return hit[1]
    table: dict[int, tuple[Term, Term]] = {}

    def go(t: Term, pos: Position) -> Term:
        hit = last.get(id(t)) or table.get(id(t))
        if hit is not None:
            table[id(t)] = hit
            return hit[1]
        report = oracle.meaning(t)
        if report.status == UNKNOWN:
            raise _Undecided(pos)
        match t:
            case Abs(x, b):
                b2 = go(b, pos + ("b",))
                hat = t if b2 is b else Abs(x, b2)
            case App(f, a):
                f2, a2 = go(f, pos + ("l",)), go(a, pos + ("r",))
                hat = t if f2 is f and a2 is a else App(f2, a2)
            case Es(b, x, a):
                b2, a2 = go(b, pos + ("s",)), go(a, pos + ("e",))
                hat = t if b2 is b and a2 is a else Es(b2, x, a2)
            case _:
                hat = t
        if report.status == MEANINGLESS and _inseparable(hat, oracle, pos):
            hat = BOT
        table[id(t)] = (t, hat)
        return hat

    try:
        hat = go(t, ())
    except _Undecided as exc:
        return Undetermined(exc.position)
    oracle._approximants = table
    return hat


def _inseparable(hat: Term, oracle: Oracle, pos: Position) -> bool:
    """The pruned form hat of a meaningless node still carries a bot at
    surface level or is itself meaningless."""
    if any(level_of(p, oracle.calculus) == 0.0 for p in bot_positions(hat)):
        return True
    status = oracle.status(hat)
    if status == UNKNOWN:
        raise _Undecided(pos)
    return status == MEANINGLESS


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
    same position; step is the contraction of the surviving redex,
    whose target refines the approximant of the original step's."""

    step: Step


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

    redex = Redex(step.position, step.rule, step.level)
    try:
        mapped = apply_step(before_hat, redex, oracle.calculus)
    except ValueError:
        raise AssertionError(
            "redex did not survive in the approximant of a meaningful prefix"
        ) from None
    if not partial_leq(after_hat, mapped.after):
        raise AssertionError(
            "approximant of the target does not refine into the mapped step"
        )
    return Mapped(mapped)


def lift_step(step: Step, refined: Term, calculus: str) -> Step:
    """Replay a step of a partial term on a refinement of its source.

    The same rule matches at the same position of any refinement,
    because bot never matches the parts of a pattern that the rules
    inspect.  The result refines the step's own target.
    """
    if not partial_leq(step.before, refined):
        raise ValueError("term does not refine the step's source")
    try:
        lifted = apply_step(refined, Redex(step.position, step.rule, step.level), calculus)
    except ValueError:
        raise AssertionError("redex vanished under refinement") from None
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
