"""The three workloads: seeded inputs, the queries of one round, and the
re-check of every answer.

A workload's inputs are plain strings drawn from the seed, so the same
seed gives the same inputs and a fresh interpreter can parse them to
time set-up.  One round runs every query of the inputs once, in a
closed loop with one client, against fresh program state (new
``Oracle`` objects), so each round does the same work.

Each query is a ``Query``: ``run`` is the call a user of the program
waits for and is timed; ``check`` re-checks its answer afterwards with
code that did not produce it, and is not timed.  A check returns one of

  ok         the answer is a verdict and it re-checks;
  undecided  the program answered unknown, Undetermined or out of fuel
             where a verdict was asked for;
  error      the program's own checker rejected its certificate
             (check_derivation, reverify) or reported a violation;
  wrong      the answer contradicts the benchmark's own reference
             (Church arithmetic, normality, alpha-equality).

``error`` and ``wrong`` both count in ``error_ratio``; only ``wrong``
makes a run incorrect.  A query that raises counts as ``error``.

Calls into the program go through module attributes
(``strata.reduce.normalize``), so a tracer installed later is seen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import strata.approx
import strata.deriv_transform
import strata.genericity
import strata.nf
import strata.reduce
import strata.terms
import strata.theories
import strata.typecheck

import reference

OK, UNDECIDED, ERROR, WRONG = "ok", "undecided", "error", "wrong"
CBV, CBN = strata.terms.CBV, strata.terms.CBN
CALCULI = (CBV, CBN)
OMEGA = strata.terms.OMEGA


@dataclass
class Query:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]


def level_value(k) -> float:
    return OMEGA if k == "omega" else float(k)


# ---------------------------------------------------------------------------
# Church arithmetic, written as text


def church(n: int) -> str:
    return "\\f.\\x." + "f (" * n + "x" + ")" * n


OPS = {
    "add": (lambda a, b: a + b, "\\m.\\n.\\f.\\x.m f (n f x)"),
    "mul": (lambda a, b: a * b, "\\m.\\n.\\f.m (n f)"),
    "exp": (lambda a, b: a ** b, "\\m.\\n.n m"),
}


def arith(op: str, a: str, b: str) -> str:
    return f"({OPS[op][1]}) ({a}) ({b})"


def operand(rng: random.Random, v: int) -> str:
    """Church text of value v: ``add p q`` with p + q = v, the split
    drawn at random, or the numeral when v = 1.  Every split costs about
    the same to normalize, so the seed changes the inputs and not the
    work."""
    if v == 1:
        return church(v)
    p = rng.randint(1, v - 1)
    return arith("add", church(p), church(v - p))


def draw(rng: random.Random, op: str, a: int, b: int) -> str:
    """Church text computing op(a, b).  The operands of add and mul are
    drawn by ``operand``; those of exp stay numerals, because writing the
    base as a computation makes every one of its uses recompute it."""
    if op == "exp":
        return arith(op, church(a), church(b))
    return arith(op, operand(rng, a), operand(rng, b))


# ---------------------------------------------------------------------------
# deep-normalize

# The value plan: (operation, a, b).  The plan fixes the length of the
# long traces; the seed draws how the operands of add and mul are
# written (``operand``) and the order of the queries.
DEEP_OMEGA_PLAN = (
    [("exp", 2, 8), ("exp", 4, 4), ("exp", 3, 4), ("exp", 5, 3), ("exp", 2, 6),
     ("exp", 4, 3), ("exp", 16, 2), ("exp", 12, 2), ("exp", 9, 2), ("exp", 3, 3),
     ("exp", 2, 5), ("exp", 6, 2), ("exp", 2, 4), ("exp", 3, 2)]
    + [("mul", a, b) for a, b in [(16, 16), (12, 13), (9, 14), (15, 10), (11, 8),
                                   (7, 9), (6, 8), (5, 7), (4, 6), (3, 5), (2, 9),
                                   (16, 3), (13, 4), (14, 2), (8, 8), (10, 6), (12, 4),
                                   (9, 9), (7, 7), (6, 6), (5, 5), (4, 4), (3, 3),
                                   (2, 2), (16, 2), (11, 3), (15, 4), (3, 10)]]
    + [("add", a, b) for a, b in [(16, 16), (15, 12), (14, 9), (13, 11), (10, 10),
                                   (9, 7), (8, 8), (6, 5), (5, 3), (4, 4), (3, 12),
                                   (2, 7), (1, 15), (11, 1), (16, 8), (12, 12), (14, 3),
                                   (7, 7), (6, 10), (5, 11), (2, 2), (3, 3), (9, 1),
                                   (13, 2), (4, 15), (8, 1), (10, 5), (1, 1)]]
)
DEEP_LEVEL_PLAN = [("exp", 2, 4), ("mul", 8, 8), ("add", 5, 7), ("exp", 3, 3)]
DEEP_FUEL = 10_000
GROWING = "(\\x.x x x) (\\x.x x x)"
GROWING_FUEL = 400
GROWING_SIZE = 1413  # nodes after 400 level-0 steps, in either calculus


def deep_normalize_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"deep-normalize/{seed}")
    items = []
    for op, a, b in DEEP_OMEGA_PLAN:
        items.append({"expr": draw(rng, op, a, b), "value": OPS[op][0](a, b),
                      "level": "omega"})
    for op, a, b in DEEP_LEVEL_PLAN:
        for level in (1, 2):
            items.append({"expr": draw(rng, op, a, b), "value": OPS[op][0](a, b),
                          "level": level})
    items.append({"expr": GROWING, "fuel": GROWING_FUEL, "level": 0})
    rng.shuffle(items)
    return items


def deep_normalize_round(items: list[dict], terms: dict) -> list[Query]:
    queries = []
    for item in items:
        t = terms[item["expr"]]
        level = level_value(item["level"])
        fuel = item.get("fuel", DEEP_FUEL)
        for calc in CALCULI:
            run = (lambda t=t, calc=calc, level=level, fuel=fuel:
                   strata.reduce.normalize(t, calc, level, fuel))
            queries.append(Query("normalize", run, _normalize_check(item, calc, level)))
    return queries


def _normalize_check(item: dict, calc: str, level: float):
    def check(trace) -> str:
        if "fuel" in item:
            # the term grows forever: the answer is out of fuel, at the
            # size the leftmost-outermost strategy reaches
            if (trace.outcome == "fuel" and len(trace.steps) == item["fuel"]
                    and reference.size(trace.final) == GROWING_SIZE):
                return UNDECIDED
            return WRONG
        if trace.outcome != "normal":
            return UNDECIDED if trace.outcome == "fuel" else WRONG
        if level == OMEGA:
            # at level omega the normal form is the numeral; call-by-value
            # leaves substitutions of non-values in it
            ok = reference.is_numeral(trace.final, item["value"], unfold=calc == CBV)
        else:
            ok = strata.nf.classify_nf(trace.final, calc, level) != strata.nf.NOT_NF
        return OK if ok else WRONG

    return check


# ---------------------------------------------------------------------------
# surface-corpus

SURFACE_LEAVES = ["\\i.i", "\\a.\\b.a", "\\a.\\b.\\c.a c (b c)", "\\w.w w",
                  church(2), church(3)]
SURFACE_OMEGA = "(\\w.w w) (\\w.w w)"
SURFACE_NAMES = ["x", "y", "z", "f", "g"]
SURFACE_TERMS = 2500
SURFACE_FUEL = 30
SURFACE_LEVELS = (0.0, 1.0, OMEGA)
SURFACE_COMBINATOR_SHARE = 0.25


def random_text(rng: random.Random, size: int, scope: tuple = ()) -> str:
    """A random term of about the given size.  Leaves are variables in
    scope, two free variables, or (``SURFACE_COMBINATOR_SHARE`` of them)
    a combinator."""
    if size <= 1:
        if rng.random() < SURFACE_COMBINATOR_SHARE:
            return f"({rng.choice(SURFACE_LEAVES)})"
        return rng.choice(list(scope) + ["a0", "a1"])
    shape = rng.choice(["abs", "app", "es"] if size >= 3 else ["abs"])
    if shape == "abs":
        x = rng.choice(SURFACE_NAMES)
        return f"(\\{x}.{random_text(rng, size - 1, scope + (x,))})"
    i = rng.randint(1, size - 2)
    if shape == "app":
        return (f"({random_text(rng, i, scope)} "
                f"{random_text(rng, size - 1 - i, scope)})")
    x = rng.choice(SURFACE_NAMES)
    return (f"({random_text(rng, i, scope + (x,))})"
            f"[{x}\\{random_text(rng, size - 1 - i, scope)}]")


def surface_corpus_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"surface-corpus/{seed}")
    items = []
    for _ in range(SURFACE_TERMS):
        text = random_text(rng, rng.randint(6, 14))
        if rng.random() < 0.2:  # meaningless terms need a divergence
            text = (f"({text}) ({SURFACE_OMEGA})" if rng.random() < 0.5
                    else f"({SURFACE_OMEGA}) ({text})")
        items.append({"term": text})
    return items


def surface_corpus_round(items: list[dict], terms: dict) -> list[Query]:
    oracles = {c: strata.approx.Oracle(c, SURFACE_FUEL) for c in CALCULI}
    queries = []
    for item in items:
        t = terms[item["term"]]
        for calc in CALCULI:
            oracle = oracles[calc]
            queries += [
                Query("meaning", lambda t=t, o=oracle: o.meaning(t),
                      _meaning_check(t, calc)),
                Query("approximant",
                      lambda t=t, o=oracle: strata.approx.meaningful_approximant(t, o),
                      _approximant_check(t)),
                Query("classify_nf",
                      lambda t=t, c=calc: [strata.nf.classify_nf(t, c, k)
                                           for k in SURFACE_LEVELS],
                      _classify_check(t, calc)),
                Query("typable", lambda t=t, c=calc: _typable_and_check(t, c),
                      _typable_check(t, oracle)),
            ]
    return queries


def _meaning_check(t, calc: str):
    def check(report) -> str:
        if report.status == strata.approx.UNKNOWN:
            return UNDECIDED
        trace = report.witness
        if not reference.alpha_equal(trace.start, t):
            return WRONG
        if report.status == strata.approx.MEANINGFUL:
            # the witness ends in a surface normal form, by the grammar
            nf = strata.nf.classify_nf(trace.final, calc, 0.0)
            return OK if trace.outcome == "normal" and nf != strata.nf.NOT_NF else WRONG
        # the witness ends where it has been before
        seq = [trace.start] + [s.after for s in trace.steps]
        looped = (trace.outcome == "cycle"
                  and reference.alpha_equal(seq[trace.cycle_start], seq[-1]))
        return OK if looped else WRONG

    return check


def _approximant_check(t):
    def check(a) -> str:
        if isinstance(a, strata.approx.Undetermined):
            return UNDECIDED
        return OK if reference.below(a, t) else WRONG

    return check


def _classify_check(t, calc: str):
    def check(sorts) -> str:
        # the grammar must agree with the redex search, level by level
        for k, sort in zip(SURFACE_LEVELS, sorts):
            if (sort != strata.nf.NOT_NF) != strata.nf.is_normal(t, calc, k):
                return WRONG
        return OK

    return check


def _typable_and_check(t, calc: str):
    status, d = strata.deriv_transform.typable(t, calc, SURFACE_FUEL)
    errors = (strata.typecheck.check_derivation(d, strata.typecheck.SYSTEM_OF[calc])
              if d is not None else [])
    return status, d, errors


def _typable_check(t, oracle):
    def check(answer) -> str:
        status, d, errors = answer
        if status == "unknown":
            return UNDECIDED
        if status == "untypable":
            # typability tracks meaningfulness; the oracle saw the term first
            meaning = oracle.meaning(t).status
            return OK if meaning == strata.approx.MEANINGLESS else WRONG
        if not reference.alpha_equal(d.term, t):
            return WRONG
        return ERROR if errors else OK

    return check


# ---------------------------------------------------------------------------
# genericity-judge

MEANINGLESS = SURFACE_OMEGA
GENERICITY_LEVELS = (0, 1, 2, "omega")
# Church operands of the contexts, each used once per calculus and
# level; the seed draws the probe of each query, whether add and mul
# take their operands in swapped order, and the order of the queries
GENERICITY_OPERANDS = {
    "add": [(1, 2), (2, 3), (4, 4), (5, 6)],
    "mul": [(1, 3), (2, 2), (2, 4), (3, 3)],
    "exp": [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)],
}
GENERICITY_FUEL = 300
# the arithmetic of the "same-value" and "next-value" pairs, each used
# once per calculus and family: their context searches are the tail
JUDGE_ARITHMETIC = [("add", 1, 1), ("add", 1, 2), ("add", 1, 3), ("add", 2, 2),
                    ("mul", 1, 2), ("mul", 1, 3), ("mul", 2, 2), ("mul", 1, 4)]
JUDGE_RANDOM_PER_FAMILY = 4  # per calculus, for the other families
# small terms without self-application, for the other families
JUDGE_POOL = ["x", "y", "x y", "y x", "x (\\z.z)", "\\z.x", "\\x.x", "\\x.\\y.x",
              "\\x.\\y.y", "\\x.x y", "\\x.y x", "\\f.\\x.f x", "\\x.\\y.x y",
              "(\\a.a) y", "(z)[z\\x]", "(x z)[z\\\\a.a]"]
JUDGE_FUEL = 200
AXIOM_CHECKS = 800


def _judge_pair(rng: random.Random, family: str, arithmetic=None) -> dict:
    """A pair of terms whose relation the benchmark knows in part.

    Numerals stay small: the context search plugs them into contexts
    such as ``@ (\\w.w w)``, where the numeral n grows to 2^n nodes.
    Other terms come from ``JUDGE_POOL``: judge normalizes at level
    omega and the context search runs 200 steps, and a random term such
    as ``\\x.\\z.x (x)[g\\x]`` doubles in size at every step there."""
    if arithmetic:
        op, a, b = arithmetic
        value = OPS[op][0](a, b)
        if rng.random() < 0.5:
            a, b = b, a
        pair = [arith(op, church(a), church(b)),
                church(value if family == "same-value" else value + 1)]
        rng.shuffle(pair)
        left, right = pair
    else:
        t, u = rng.sample(JUDGE_POOL, 2)
        left, right = {
            "separated": (t, f"({u}) ({MEANINGLESS})"),
            "mute": (MEANINGLESS, f"({MEANINGLESS}) ({t})"),
            "random": (t, u),
        }[family]
    return {"left": left, "right": right, "family": family}


def genericity_judge_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"genericity-judge/{seed}")
    items = []
    for calc in CALCULI:
        for level in GENERICITY_LEVELS:
            for op, pairs in GENERICITY_OPERANDS.items():
                for a, b in pairs:
                    if op != "exp" and rng.random() < 0.5:
                        a, b = b, a
                    items.append({
                        "kind": "genericity", "calculus": calc, "level": level,
                        "term": MEANINGLESS,
                        "context": f"(\\k.{arith(op, church(a), church(b))}) (\\z.@)",
                        "probe": rng.choice(strata.genericity.DEFAULT_PROBES)})
        for family in ("same-value", "next-value"):
            for arithmetic in JUDGE_ARITHMETIC:
                items.append({"kind": "judge", "calculus": calc,
                              **_judge_pair(rng, family, arithmetic)})
        for family in ("separated", "mute", "random"):
            for _ in range(JUDGE_RANDOM_PER_FAMILY):
                items.append({"kind": "judge", "calculus": calc,
                              **_judge_pair(rng, family)})
    rng.shuffle(items)
    for calc in CALCULI:
        items.append({"kind": "axioms", "calculus": calc, "n": AXIOM_CHECKS,
                      "seed": seed})
    return items


def genericity_judge_round(items: list[dict], terms: dict) -> list[Query]:
    queries = []
    for item in items:
        calc = item["calculus"]
        if item["kind"] == "genericity":
            t, ctx, u = terms[item["term"]], terms[item["context"]], terms[item["probe"]]
            level = level_value(item["level"])
            # one oracle per check, as the command line makes one per
            # invocation: a query's cost does not depend on the ones before
            run = (lambda t=t, ctx=ctx, u=u, c=calc, k=level:
                   strata.genericity.stratified_genericity_check(
                       t, ctx, u, c, k, strata.approx.Oracle(c, GENERICITY_FUEL),
                       GENERICITY_FUEL))
            queries.append(Query("genericity", run, _genericity_check(calc, level)))
        elif item["kind"] == "judge":
            left, right = terms[item["left"]], terms[item["right"]]
            queries.append(Query("judge", lambda l=left, r=right, c=calc: _judge(l, r, c),
                                 _judge_check(item)))
        else:
            run = (lambda c=calc, n=item["n"], s=item["seed"]:
                   strata.genericity.axiom_suite(c, n, s))
            queries.append(Query("axioms", run, _axioms_check))
    return queries


def _genericity_check(calc: str, level: float):
    G = strata.genericity

    def check(report) -> str:
        if report.status == G.UNKNOWN:
            return UNDECIDED
        if report.status == G.VIOLATED:
            return ERROR
        if report.status == G.VACUOUS:
            return WRONG  # every context discards its hole and normalizes
        ends = (report.lifted_t_end, report.lifted_u_end)
        normal = all(strata.nf.is_normal(e, calc, level) for e in ends)
        # the program checks only u's endpoint against the normal-form
        # grammar; t's is checked here by the grammar too, not only by
        # the redex search
        in_grammar = all(strata.nf.classify_nf(e, calc, level) != strata.nf.NOT_NF
                         for e in ends)
        return OK if normal and in_grammar else WRONG

    return check


def _judge(left, right, calc: str):
    j = strata.theories.judge(left, right, calc, JUDGE_FUEL)
    return j, strata.theories.reverify(j, JUDGE_FUEL)


def _judge_check(item: dict):
    T = strata.theories

    def check(answer) -> str:
        j, reverified = answer
        if not reverified:
            return ERROR
        conversion = j[T.LAMBDA].result
        if item["family"] == "next-value" and conversion == T.EQUAL:
            return WRONG  # two different numbers are never convertible
        if (item["family"] == "same-value" and item["calculus"] == CBN
                and conversion == T.NOT_EQUAL):
            return WRONG  # in call-by-name both reach the same numeral
        return UNDECIDED if j[T.HSTAR].result == T.UNKNOWN else OK

    return check


def _axioms_check(report) -> str:
    # a reported violation must replay from its certificate alone
    for v in report.violations:
        if not strata.genericity.reproduce_violation(v):
            return WRONG
    return ERROR if report.violations else OK


# ---------------------------------------------------------------------------

WORKLOADS = {
    "deep-normalize": (deep_normalize_inputs, deep_normalize_round),
    "surface-corpus": (surface_corpus_inputs, surface_corpus_round),
    "genericity-judge": (genericity_judge_inputs, genericity_judge_round),
}

TEXT_FIELDS = ("expr", "term", "left", "right", "probe")


def input_strings(items: list[dict]) -> list[tuple[str, bool]]:
    """Every distinct string of the inputs, with whether it is a context."""
    out: dict[str, bool] = {}
    for item in items:
        for field in TEXT_FIELDS:
            if field in item:
                out.setdefault(item[field], False)
        if "context" in item:
            out[item["context"]] = True
    return list(out.items())


def parse_inputs(strings: list[tuple[str, bool]]) -> dict:
    T = strata.terms
    return {s: T.parse_context(s) if ctx else T.parse(s) for s, ctx in strings}
