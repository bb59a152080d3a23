"""Meaningfulness and meaningful approximants.

A term is meaningful when its surface (level-0) reduction reaches a
partial normal form of level 0: a normal form whose bots all sit below
level 0.  The oracle below decides this operationally, with three
outcomes: a normal form proves Meaningful, or Meaningless when a bot
sits at its level 0, a repeated term proves Meaningless (level-0
reduction is deterministic enough that a cycle on the chosen strategy
is a genuine loop), and running out of fuel leaves the question
Unknown.

The leftmost-outermost surface step is a function of the term, up to
alpha, so a term's surface trace runs on through the trace of each of
its reducts, and a reduct has the status of the term.  An oracle
therefore learns the status of every term a decided trace passes
through, and the trace of each such term decides the same way within
the same fuel: for a trace s_0 ... s_n decided at step n, the trace of
s_j is the suffix from s_j, of n - j steps, or, when the trace cycles
back to s_c with j > c, goes once round the cycle, in n - c <= n steps.

The meaningful approximant A(t) prunes the meaningless parts of a term
down to bot: A(t) = bot when t is meaningless, and otherwise the same
constructor over the approximants of its children.  So a meaningless
subterm of t always sits under a bot of A(t), which is what the
genericity check needs.  approximate_step pushes a single reduction
step through A; lift_step replays a step of a partial term on any
refinement of it.

A is computed by asking the oracle once per level-0 region, by rule
(b): a term with a meaningless subterm s at a level-0 position is
meaningless, in both calculi.  A surface step inside s is a surface
step of the whole term, as levels add up along a position.  Surface
reduction is diamond, hence uniformly normalizing (Accattoli & Paolini,
FLOPS 2012, by value; by name likewise), so if s has no surface normal
form the whole term has none either.  Otherwise s reduces, inside the
term, to a normal form with a bot at its level 0, and that bot survives
every surface step outside it: by value a step erases only a
substituted value, inside which nothing sits at level 0, and by name
only a substitution's argument, which sits at level 1 or deeper; a dB
step and a substitution keep a level-0 bot at level 0.  Every level-0
subterm of a meaningful node is therefore meaningful.  The oracle would
also have decided it within its fuel: in a diamond reduction every
reduction to the normal form has the same length, and the subterm's,
carried out inside the node and continued, is one of the node's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .terms import (CBN, CBV, Abs, AlphaTable, App, BOT, Es, Position, Term, alpha_eq,
                    level_of, partial_leq)
from .reduce import (Redex, Step, Trace, apply_step, check_fuel, min_level_reader,
                     normalize)
from .nf import has_bot_within

MEANINGFUL = "meaningful"
MEANINGLESS = "meaningless"
UNKNOWN = "unknown"


def surface_status(run: Trace | Term, calculus: str) -> str:
    """The status that a surface trace proves by its outcome, or that a
    term with no surface redex has as its own normal form: a normal
    form is meaningless exactly when a bot sits at its level 0, a cycle
    is meaningless, and running out of fuel proves nothing."""
    if type(run) is Trace:
        if run.outcome != "normal":
            return MEANINGLESS if run.outcome == "cycle" else UNKNOWN
        run = run.final
    return MEANINGLESS if has_bot_within(run, calculus, 0.0) else MEANINGFUL


@dataclass(frozen=True)
class MeaningReport:
    status: str
    # the surface trace, ending in a normal form for Meaningful and, for
    # Meaningless, in a cycle or in a normal form with a bot at level 0;
    # nothing for Unknown
    witness: object = None


class Oracle:
    """Meaningfulness oracle for one calculus.  Its one table maps terms
    up to alpha to their status: the terms of decided traces, and each
    start that ran out of fuel as unknown."""

    def __init__(self, calculus: str, fuel: int | None = None):
        self.calculus = calculus
        self.fuel = check_fuel(fuel)
        self._redex_level = min_level_reader(calculus)
        self._known = AlphaTable()  # term -> status
        # the last approximant computed: for every node met on the way,
        # by id(node), the node itself (so that its id stays taken) and
        # its approximant
        self._approximants: dict[int, tuple[Term, Term]] = {}

    def meaning(self, t: Term) -> MeaningReport:
        """The status of t, witnessed by its whole surface trace unless
        the table has it as unknown; nothing of the report is kept."""
        known = self._known.get(t)
        if known == UNKNOWN:
            return MeaningReport(UNKNOWN)
        trace = normalize(t, self.calculus, 0.0, self.fuel)
        status = known or self._learn(trace)
        return MeaningReport(status, None if status == UNKNOWN else trace)

    def status(self, t: Term) -> str:
        """The status of meaning(t), from the table or from t's trace."""
        if self._redex_level(t) > 0:  # no surface redex: t is its own normal form
            return surface_status(t, self.calculus)
        return self._known.get(t) or self._learn(normalize(t, self.calculus, 0.0, self.fuel))

    def _learn(self, trace: Trace) -> str:
        """Record the status of every term of a decided trace but its
        last (a normal form, or a repeat), or of the start alone of a
        trace that ran out of fuel; returns the status."""
        status = surface_status(trace, self.calculus)
        learned = trace.terms[:len(trace.steps)] if status != UNKNOWN else (trace.start,)
        for s in learned:
            self._known.add(s, status)
        return status


@dataclass(frozen=True)
class Undetermined:
    """Raised channel for approximants: the oracle could not decide the
    subterm at this position, so A(t) is not computable at this fuel."""

    position: Position


# for each calculus, whether each edge stays at the level of its node
_FLAT = {c: {e: level_of((e,), c) == 0 for e in "blrse"} for c in (CBV, CBN)}


def meaningful_approximant(t: Term, oracle: Oracle) -> Union[Term, Undetermined]:
    """A(t): bot if t is meaningless, otherwise t's constructor over the
    approximants of its immediate subterms.  A node that this leaves
    unchanged is returned as the same node.

    The approximant of a node is taken from the oracle's table of the
    last approximant computed, or from earlier in this one, whenever the
    node is there: along a reduction, only the nodes that a step rebuilt
    are approximated again."""
    last = oracle._approximants
    hit = last.get(id(t))
    if hit is not None:
        return hit[1]
    table: dict[int, tuple[Term, Term]] = {}
    flat = _FLAT[oracle.calculus]

    def go(t: Term, pos: tuple, meaningful: bool) -> Term:
        """pos: t's position, as a chain (position of the parent, edge),
        () at the root.  meaningful: t sits at level 0 of a meaningful
        node, so t is meaningful by rule (b): the oracle is asked once
        per level-0 region, not once per node."""
        hit = last.get(id(t)) or table.get(id(t))
        if hit is not None:
            table[id(t)] = hit
            return hit[1]
        status = MEANINGFUL if meaningful else oracle.status(t)
        meaningful = status == MEANINGFUL
        if status == UNKNOWN:
            edges = []
            while pos:
                pos, edge = pos
                edges.append(edge)
            raise _Undecided(tuple(reversed(edges)))
        if status == MEANINGLESS:
            table[id(t)] = (t, BOT)
            return BOT
        match t:
            case Abs(x, b):
                b2 = go(b, (pos, "b"), meaningful and flat["b"])
                hat = t if b2 is b else Abs(x, b2)
            case App(f, a):
                f2 = go(f, (pos, "l"), meaningful and flat["l"])
                a2 = go(a, (pos, "r"), meaningful and flat["r"])
                hat = t if f2 is f and a2 is a else App(f2, a2)
            case Es(b, x, a):
                b2 = go(b, (pos, "s"), meaningful and flat["s"])
                a2 = go(a, (pos, "e"), meaningful and flat["e"])
                hat = t if b2 is b and a2 is a else Es(b2, x, a2)
            case _:
                hat = t
        table[id(t)] = (t, hat)
        return hat

    try:
        hat = go(t, (), False)
    except _Undecided as exc:
        return Undetermined(exc.position)
    oracle._approximants = table
    return hat


class _Undecided(Exception):
    def __init__(self, position: Position):
        self.position = position


def approximate_step(step: Step, oracle: Oracle) -> Union[Step, None, Undetermined]:
    """Push one reduction step through the approximant map.

    When the step happens inside a region that A(before) pruned away,
    the approximant does not move, and there is no step (None).
    Otherwise the redex pattern survives at the same position of
    A(before), the same rule applies there, and that step is returned:
    its contraction refines A(after).
    """
    before_hat = meaningful_approximant(step.before, oracle)
    if isinstance(before_hat, Undetermined):
        return before_hat
    after_hat = meaningful_approximant(step.after, oracle)
    if isinstance(after_hat, Undetermined):
        return after_hat

    if alpha_eq(before_hat, after_hat):
        return None

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
    return mapped


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
