"""Genericity checking through approximants.

A meaningless subterm is generic: plugging anything else into the same
context cannot change the observable outcome.  The check here is fully
constructive.  Given t meaningless, a context C and a probe u:

  1. compute the approximant of C<t>; the hole sits inside a bot;
  2. normalize C<t> at the observation level, recording the trace;
  3. push the trace through the approximant map, keeping the steps
     that survive (the ones outside every meaningless region);
  4. the surviving partial reduction starts below both C<t> and C<u>,
     so it lifts onto each of them; C<u> is never normalized on its
     own, its whole reduction is constructed by lifting;
  5. the partial endpoint is a partial normal form whose bots all sit
     below the observation level, so both lifted endpoints are normal
     forms and agree up to that level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .terms import (Level, Term, bot_positions, parse, partial_leq, plug, replace_at,
                    show, subterms)
from .reduce import Step, apply_step, find_redexes, normalize, step_from_dict, step_to_dict
from .nf import NOT_NF, classify_nf, has_bot_within, is_bno, is_normal, strat_eq
from .approx import (
    MEANINGLESS,
    UNKNOWN,
    Oracle,
    Undetermined,
    approximate_step,
    lift_step,
    lift_trace,
    meaningful_approximant,
)
from .corpus import random_term

OK = "ok"
VIOLATED = "violated"
VACUOUS = "vacuous"  # C<t> has no partial normal form at this level: nothing to check
INAPPLICABLE = "inapplicable"  # t is meaningful: the theorem's hypothesis fails

# the oracle fuel of the axiom campaigns and of their replays, which
# must agree for a recorded violation to occur again
AXIOM_FUEL = 400

# closed meaningless terms; a quarter of a campaign's terms carry one,
# so that approximants hold bots for the refinements to fill
MUTE_FILLERS = (parse(r"(\w.w w) (\w.w w)"), parse(r"(w w)[w\\w.w w]"))

DEFAULT_PROBES = ["x", "\\z.z", "\\w.w w", "\\x.(\\w.w w)(\\w.w w)", "y z"]


@dataclass
class GenericityReport:
    status: str
    level: Level
    detail: str = ""
    approximant: Term | None = None
    partial_steps: list[Step] = field(default_factory=list)
    partial_end: Term | None = None
    lifted_t_end: Term | None = None
    lifted_u_end: Term | None = None


def stratified_genericity_check(
    t: Term, ctx: Term, u: Term, calculus: str, level: Level,
    oracle: Oracle | None = None, fuel: int | None = None,
) -> GenericityReport:
    oracle = oracle or Oracle(calculus, fuel)
    status = oracle.status(t)
    if status == UNKNOWN:
        return GenericityReport(UNKNOWN, level, "cannot decide meaninglessness of t")
    if status != MEANINGLESS:
        return GenericityReport(
            INAPPLICABLE, level, "t is meaningful: genericity does not apply"
        )

    ct = plug(ctx, t)
    cu = plug(ctx, u)

    a_hat = meaningful_approximant(ct, oracle)
    if isinstance(a_hat, Undetermined):
        return GenericityReport(UNKNOWN, level, "approximant of C<t> undetermined")

    trace = normalize(ct, calculus, level, fuel)
    if trace.outcome == "fuel":
        return GenericityReport(UNKNOWN, level, "normalization of C<t> ran out of fuel")
    if trace.outcome == "cycle":
        return GenericityReport(VACUOUS, level, "C<t> has no normal form at this level")
    if has_bot_within(trace.final, calculus, level):
        return GenericityReport(
            VACUOUS, level, "the normal form of C<t> has a bot at this level or above")

    partial_steps: list[Step] = []
    for step in trace.steps:
        mapped = approximate_step(step, oracle)
        if isinstance(mapped, Undetermined):
            return GenericityReport(UNKNOWN, level, "a step could not be approximated")
        if mapped is not None:
            partial_steps.append(mapped)

    s_hat = partial_steps[-1].after if partial_steps else a_hat
    report = GenericityReport(OK, level, approximant=a_hat,
                              partial_steps=partial_steps, partial_end=s_hat)

    if not is_bno(s_hat, calculus, level):
        report.status = VIOLATED
        report.detail = "partial endpoint is not a partial normal form at this level"
        return report
    if not partial_leq(a_hat, cu):
        report.status = VIOLATED
        report.detail = "approximant of C<t> does not sit below C<u>"
        return report

    lifted_t = lift_trace(partial_steps, ct, calculus)
    lifted_u = lift_trace(partial_steps, cu, calculus)
    t_end = lifted_t[-1].after if lifted_t else ct
    u_end = lifted_u[-1].after if lifted_u else cu
    report.lifted_t_end = t_end
    report.lifted_u_end = u_end

    checks = [
        (is_normal(t_end, calculus, level), "lifted C<t> endpoint is not normal"),
        (is_normal(u_end, calculus, level), "lifted C<u> endpoint is not normal"),
        (classify_nf(u_end, calculus, level) != NOT_NF,
         "lifted C<u> endpoint escapes the normal-form grammar"),
        (strat_eq(s_hat, u_end, calculus, level),
         "endpoints differ below the observation level"),
        (strat_eq(t_end, u_end, calculus, level),
         "the two lifted endpoints differ at the observation level"),
    ]
    for ok, msg in checks:
        if not ok:
            report.status = VIOLATED
            report.detail = msg
            return report
    return report


# ---------------------------------------------------------------------------
# Randomized campaigns for the four structural assumptions the pipeline
# rests on


@dataclass
class AxiomReport:
    calculus: str
    checked: dict[str, int]
    # each violation is a self-contained certificate: a dict with the
    # failing check's kind, level, and the serialized step or term
    # needed to replay it via reproduce_violation
    violations: list[dict]

    @property
    def ok(self) -> bool:
        return not self.violations


def axiom_suite(calculus: str, n: int = 5000, seed: int = 0) -> AxiomReport:
    """Randomized checks of the four assumptions:

      1. every decided step is either collapsed or mapped by the
         approximant, landing below the approximant of the target;
      2. a partial step lifts onto every refinement of its source;
      3. the approximant of a level-k normal form is a level-k partial
         normal form;
      4. refining a partial normal form keeps it normal and equal up
         to the level.
    """
    rng = random.Random(seed)
    oracle = Oracle(calculus, AXIOM_FUEL)
    checked = {"steps": 0, "lifts": 0, "approximants": 0, "refinements": 0}
    violations: list[dict] = []
    levels = [0.0, 1.0, 2.0, float("inf")]

    def refine(t: Term) -> Term:
        for pos in bot_positions(t):
            filler = random_term(rng, rng.randint(1, 4))
            t = replace_at(t, pos, filler)
        return t

    while sum(checked.values()) < n:
        t = random_term(rng, rng.randint(2, 8))
        if rng.random() < 0.25:
            pos, _ = rng.choice(list(subterms(t)))
            t = replace_at(t, pos, rng.choice(MUTE_FILLERS))
        k = rng.choice(levels)
        redexes = find_redexes(t, calculus, k)
        if redexes:
            step = apply_step(t, rng.choice(redexes), calculus)
            try:
                mapped = approximate_step(step, oracle)
            except AssertionError as exc:
                checked["steps"] += 1
                violations.append({"kind": "approximate", "calculus": calculus,
                                   "step": step_to_dict(step), "detail": str(exc)})
                continue
            if isinstance(mapped, Undetermined):
                continue
            checked["steps"] += 1
            if mapped is not None:
                # assumption 2: lift the surviving partial step onto a
                # random refinement of its source
                refined = refine(mapped.before)
                try:
                    lift_step(mapped, refined, calculus)
                    checked["lifts"] += 1
                except (AssertionError, ValueError) as exc:
                    violations.append({"kind": "lift", "calculus": calculus,
                                       "step": step_to_dict(mapped),
                                       "refined": show(refined), "detail": str(exc)})
        else:
            # t is a level-k normal form: assumption 3
            a_hat = meaningful_approximant(t, oracle)
            if isinstance(a_hat, Undetermined):
                continue
            checked["approximants"] += 1
            if not is_bno(a_hat, calculus, k):
                violations.append({"kind": "bno", "calculus": calculus,
                                   "term": show(t), "level": k})
                continue
            # assumption 4: refine the partial normal form
            refined = refine(a_hat)
            checked["refinements"] += 1
            if not (is_bno(refined, calculus, k)
                    and strat_eq(a_hat, refined, calculus, k)):
                violations.append({"kind": "refinement", "calculus": calculus,
                                   "term": show(a_hat), "refined": show(refined),
                                   "level": k})
    return AxiomReport(calculus, checked, violations)


def reproduce_violation(v: dict) -> bool:
    """Replay a violation certificate from axiom_suite; True when the
    recorded failure still occurs.  A step or term that does not decode
    is a ValueError, never a replayed failure."""
    calculus = v["calculus"]
    kind = v["kind"]
    if kind == "approximate":
        step = step_from_dict(v["step"], calculus)
        try:
            approximate_step(step, Oracle(calculus, AXIOM_FUEL))
        except AssertionError:
            return True
        return False
    if kind == "lift":
        step, refined = step_from_dict(v["step"], calculus), parse(v["refined"])
        try:
            lift_step(step, refined, calculus)
        except (AssertionError, ValueError):
            return True
        return False
    if kind == "bno":
        a_hat = meaningful_approximant(parse(v["term"]), Oracle(calculus, AXIOM_FUEL))
        return isinstance(a_hat, Undetermined) or not is_bno(a_hat, calculus, v["level"])
    if kind == "refinement":
        a_hat, refined = parse(v["term"]), parse(v["refined"])
        return not (is_bno(refined, calculus, v["level"])
                    and strat_eq(a_hat, refined, calculus, v["level"]))
    raise ValueError(f"unknown violation kind: {kind}")
