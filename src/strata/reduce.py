"""Stratified reduction for both calculi.

Two rewrite rules per calculus, both applied at a distance through a
list context L of explicit substitutions:

  shared   dB : L<\\x.s> t      -> L< s[x\\t] >
  cbv      sv : t[x\\L<v>]      -> L< t{x:=v} >   (v a value)
  cbn      sN : t[x\\u]         -> t{x:=u}

A redex occurrence is gated by its level: the depth of its position in
the stratification order of the calculus (binders crossed for
call-by-value, argument edges crossed for call-by-name).  Reduction at
level k contracts only redexes whose level is at most k; level omega
lifts the gate entirely.

The default strategy is leftmost-outermost: the redex whose position
comes first in the pre-order traversal.  The search for it descends
from the root along the node summaries of ``strata.terms``,
into the leftmost child whose subterm holds a redex the level lets
through, so a step costs time in the depth of the redex, not in the
size of the term.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from operator import attrgetter

from .terms import (
    ABS,
    CBN,
    CBV,
    NO_REDEX,
    OTHER,
    AlphaTable,
    App,
    Es,
    Level,
    Position,
    Term,
    Var,
    alpha_eq,
    deep_edges,
    fresh_name,
    free_vars,
    level_of,
    parse,
    parse_level,
    path_to,
    rebuild,
    show,
    show_level,
    subst,
    subterms,
)

DB = "dB"
SV = "sv"
SN = "sN"

DEFAULT_FUEL = 10_000


@dataclass(frozen=True)
class Redex:
    position: Position
    rule: str
    level: Level
    # from leftmost_redex, for apply_step: the nodes on the way from the
    # root of the term it was found on to the redex; never compared
    path: tuple[Term, ...] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Step:
    before: Term
    after: Term
    position: Position
    rule: str
    level: Level


def _peel_es_spine(t: Term) -> tuple[list[tuple[str, Term]], Term]:
    """Split t = L<core> along the explicit-substitution body spine into
    (binder, argument) pairs, outermost first, and the core."""
    spine: list[tuple[str, Term]] = []
    while isinstance(t, Es):
        spine.append((t.binder, t.arg))
        t = t.body
    return spine, t


def _rule_at(t: Term, calculus: str) -> str | None:
    """The rule (if any) whose left-hand side matches at the root of t,
    read from the summaries of its children: dB needs an abstraction
    under the function's spine, sv a value under the argument's."""
    kind = type(t)
    if kind is App:
        return DB if t.fun.core == ABS else None
    if kind is Es:
        if calculus == CBN:  # sN matches every substitution
            return SN
        return SV if t.arg.core != OTHER else None
    return None


def find_redexes(t: Term, calculus: str, level: Level) -> list[Redex]:
    """All redexes gated at the given level, leftmost-outermost first."""
    return [Redex(pos, rule, lvl) for pos, s in subterms(t)
            if (rule := _rule_at(s, calculus)) is not None
            and (lvl := level_of(pos, calculus)) <= level]


def min_level_reader(calculus: str) -> attrgetter:
    """The reader of the node slot that holds the shallowest redex level
    of a calculus, which is named after it."""
    deep_edges(calculus)
    return attrgetter(calculus)


def min_redex_level(t: Term, calculus: str) -> Level | None:
    """The smallest level at which t has a redex, or None if t is normal
    even at level omega."""
    lvl = min_level_reader(calculus)(t)
    return None if lvl == NO_REDEX else float(lvl)


# The deepest level a redex can have: level omega lets through every
# redex but is no gate for NO_REDEX, which lies beyond it.
_LAST_LEVEL = sys.float_info.max


def leftmost_redex(t: Term, calculus: str, level: Level) -> Redex | None:
    """The first redex of find_redexes(t, calculus, level), or None.

    Descends from the root: at each node that is not itself the redex,
    into the leftmost child whose summary promises a redex within the
    level.  Only the returned redex gets a position tuple, and it keeps
    the nodes passed on the way."""
    min_level = min_level_reader(calculus)
    by_value = calculus == CBV
    gate = min(level, _LAST_LEVEL)
    if min_level(t) > gate:
        return None
    # invariant: t holds a redex at level at most gate, counting depth
    # for the edges crossed to reach t
    edges: list[str] = []
    nodes: list[Term] = []
    depth = 0
    while True:
        nodes.append(t)
        kind = type(t)
        if kind is App:
            f = t.fun
            if f.core == ABS:
                return Redex(tuple(edges), DB, float(depth), tuple(nodes))
            if depth + min_level(f) <= gate:
                edges.append("l")
                t = f
            else:
                edges.append("r")
                t = t.arg
                if not by_value:
                    depth += 1
        elif kind is Es:
            if not by_value:
                return Redex(tuple(edges), SN, float(depth), tuple(nodes))
            if t.arg.core != OTHER:
                return Redex(tuple(edges), SV, float(depth), tuple(nodes))
            if depth + min_level(t.body) <= gate:
                edges.append("s")
                t = t.body
            else:
                edges.append("e")
                t = t.arg
        else:  # an abstraction: leaves hold no redex
            edges.append("b")
            t = t.body
            if by_value:
                depth += 1


def _rebuild_spine(spine: list[tuple[str, Term]], core: Term) -> Term:
    for binder, arg in reversed(spine):
        core = Es(core, binder, arg)
    return core


def _freshen_spine(t: Term, incoming: frozenset[str]) -> Term:
    """t = L<core> with the binders of L that are among the incoming
    free names, which move under L, renamed out of their way; the same
    node when there are none.  Binders inside the core or the arguments
    of L keep their names: nothing moves under them."""
    spine, core = _peel_es_spine(t)
    if not any(x in incoming for x, _ in spine):
        return t
    for x, arg in reversed(spine):  # core is the scope of x
        if x in incoming:
            y = fresh_name(x, free_vars(core) | incoming)
            core, x = subst(core, {x: Var(y)}), y
        core = Es(core, x, arg)
    return core


def _contract(t: Term, rule: str) -> Term:
    """Contract the root redex of t, which matches the rule."""
    match rule, t:
        case "dB", App(f, a):
            if isinstance(f, Es):  # a moves under the spine binders
                f = _freshen_spine(f, free_vars(a))
            spine, core = _peel_es_spine(f)
            return _rebuild_spine(spine, Es(core.body, core.binder, a))
        case "sv", Es(b, x, arg):
            if isinstance(arg, Es):  # b moves under the spine binders
                arg = _freshen_spine(arg, free_vars(b) - {x})
            spine, v = _peel_es_spine(arg)
            return _rebuild_spine(spine, subst(b, {x: v}))
        case "sN", Es(b, x, arg):
            return subst(b, {x: arg})


def apply_step(t: Term, redex: Redex, calculus: str) -> Step:
    """Contract one redex occurrence; checks first that the position is
    in t and that the redex's rule matches there, and raises ValueError
    if not.  This is the one check of a redex replayed at a position.

    The nodes on the way to the redex are those the redex kept when it
    was found on t, or else those of one descent; one ascent rebuilds
    them over the contractum."""
    pos, path = redex.position, redex.path
    if path is None or path[0] is not t:
        path = path_to(t, pos)
    sub = path[-1]
    rule = _rule_at(sub, calculus)
    if rule != redex.rule:
        raise ValueError(f"no {redex.rule} redex at position {''.join(pos) or 'root'}")
    return Step(t, rebuild(path, pos, _contract(sub, rule)), pos, rule, redex.level)


def reduce_once(t: Term, calculus: str, level: Level) -> Step | None:
    """One leftmost-outermost step at the given level, or None if normal."""
    redex = leftmost_redex(t, calculus, level)
    return None if redex is None else apply_step(t, redex, calculus)


@dataclass(frozen=True)
class Trace:
    """Outcome of a bounded normalization run.

    outcome is one of "normal", "cycle", "fuel", and "joined" for a run
    that stopped at a term of its known table; for a cycle, cycle_start
    is the index in terms of the first occurrence of the repeated term.
    """

    start: Term
    calculus: str
    level: Level
    steps: tuple[Step, ...]
    outcome: str
    cycle_start: int | None = None

    @property
    def final(self) -> Term:
        return self.steps[-1].after if self.steps else self.start

    @property
    def terms(self) -> tuple[Term, ...]:  # start, steps[0].after, ...
        return (self.start, *(s.after for s in self.steps))


def check_fuel(fuel: int | None) -> int:
    """The fuel itself, or DEFAULT_FUEL for None; negative fuel is a
    ValueError."""
    if fuel is None:
        return DEFAULT_FUEL
    if fuel < 0:
        raise ValueError(f"fuel must be a natural number, got {fuel}")
    return fuel


def normalize(t: Term, calculus: str, level: Level, fuel: int | None = None,
              known: AlphaTable | None = None) -> Trace:
    """Reduce with the leftmost-outermost strategy until a normal form,
    a repeated term (up to alpha), or fuel exhaustion.

    At most fuel steps are taken; a term that is normal when the fuel
    runs out, fuel 0 included, reports "normal".  Negative fuel is a
    ValueError.

    The terms met so far are kept in an AlphaTable, so the first repeat
    found is the first term alpha-equal to an earlier one.
    leftmost_redex and apply_step are looked up at each call, so a
    caller may patch them to observe every step.

    known maps terms to pairs whose second item bounds the steps the
    term's own run takes to end in a normal form or a cycle.  With it,
    the run stops as "joined" at the first term after the start whose
    bound, added to the steps taken, is within the fuel: the whole run
    would have ended as that term's does, within the fuel."""
    fuel = check_fuel(fuel)
    steps: list[Step] = []
    seen = AlphaTable([(t, 0)])  # each term met, with its index
    cur = t
    while True:
        redex = leftmost_redex(cur, calculus, level)
        if redex is None:
            return Trace(t, calculus, level, tuple(steps), "normal")
        if len(steps) == fuel:
            return Trace(t, calculus, level, tuple(steps), "fuel")
        step = apply_step(cur, redex, calculus)
        steps.append(step)
        cur = step.after
        i = seen.get(cur)
        if i is not None:
            return Trace(t, calculus, level, tuple(steps), "cycle", i)
        if known is not None:
            hit = known.get(cur)
            if hit is not None and len(steps) + hit[1] <= fuel:
                return Trace(t, calculus, level, tuple(steps), "joined")
        seen.add(cur, len(steps))


# ---------------------------------------------------------------------------
# Serialization


def step_to_dict(s: Step) -> dict:
    return {
        "before": show(s.before),
        "after": show(s.after),
        "position": "".join(s.position),
        "rule": s.rule,
        "level": show_level(s.level),
    }


def trace_to_dict(tr: Trace) -> dict:
    d = {
        "start": show(tr.start),
        "calculus": tr.calculus,
        "level": show_level(tr.level),
        "outcome": tr.outcome,
        "final": show(tr.final),
        "steps": [step_to_dict(s) for s in tr.steps],
    }
    if tr.cycle_start is not None:
        d["cycle_start"] = tr.cycle_start
    return d


def step_from_dict(d: dict, calculus: str) -> Step:
    """Replay a recorded step on its source; a ValueError unless its
    position holds a redex of its rule, its level is that of the
    position and its target is the contraction, up to alpha."""
    before = parse(d["before"])
    pos = tuple(d["position"])
    level = level_of(pos, calculus)
    try:
        step = apply_step(before, Redex(pos, d["rule"], level), calculus)
    except ValueError:
        step = None
    if (step is None or parse_level(d["level"]) != level
            or not alpha_eq(step.after, parse(d["after"]))):
        raise ValueError("recorded step does not match a redex of its term")
    return step
