"""Randomized invariants over the whole stack: syntax round trips,
order laws for partial terms, agreement between the normal-form
grammars and the redex search, approximant soundness, and the diamond
property of surface reduction."""

import random

from hypothesis import assume, given, settings, strategies as st

from strata import (
    Abs,
    App,
    BOT,
    CBN,
    CBV,
    Es,
    OMEGA,
    Oracle,
    Var,
    alpha_eq,
    apply_step,
    canonical,
    check_derivation,
    classify_nf,
    find_redexes,
    free_vars,
    is_normal,
    meaningful_approximant,
    normalize,
    parse,
    partial_leq,
    parse_context,
    show,
    strat_eq,
    stratified_genericity_check,
    subst,
    typable,
)
from strata.approx import Undetermined
from strata.corpus import random_term
from strata.typecheck import SYSTEM_OF

from conftest import ID, OMEGA_LOOP, p

CALCULI = st.sampled_from([CBV, CBN])
LEVELS = st.sampled_from([0.0, 1.0, 2.0, OMEGA])


@st.composite
def terms(draw, max_size=9, bot_weight=0.0):
    seed = draw(st.integers(0, 2**32 - 1))
    size = draw(st.integers(1, max_size))
    return random_term(random.Random(seed), size, bot_weight=bot_weight)


# names that the printer and fresh_name give out, and the free names of
# random_term: binders that carry them are where capture happens
CLASH_PRONE = ["x", "y", "x0", "x1", "y1"]


def _rename_literally(t, names):
    """t with every name in names replaced, binders and variables alike,
    with no regard for capture."""
    match t:
        case Var(x):
            return Var(names.get(x, x))
        case Abs(x, b):
            return Abs(names.get(x, x), _rename_literally(b, names))
        case App(f, a):
            return App(_rename_literally(f, names), _rename_literally(a, names))
        case Es(b, x, a):
            return Es(_rename_literally(b, names), names.get(x, x),
                      _rename_literally(a, names))
        case _:
            return t


@st.composite
def clashing_terms(draw, max_size=9, bot_weight=0.0):
    """A random term whose binders b0, b1, ... are renamed to clash-prone
    names, kept only where the renaming is an alpha-variant."""
    t = draw(terms(max_size, bot_weight))
    picks = draw(st.lists(st.sampled_from(CLASH_PRONE), min_size=max_size,
                          max_size=max_size))
    u = _rename_literally(t, {f"b{i}": n for i, n in enumerate(picks)})
    assume(canonical(u) == canonical(t))
    return t, u


class TestClashProneNames:
    @settings(max_examples=500)
    @given(clashing_terms(bot_weight=0.2))
    def test_printing_is_alpha_invariant(self, pair):
        t, u = pair
        assert show(u) == show(t)
        assert alpha_eq(parse(show(u)), u)

    @given(clashing_terms(max_size=7), clashing_terms(max_size=4),
           st.sampled_from(CLASH_PRONE))
    def test_substitution_is_alpha_invariant(self, pair, arg, name):
        (t, u), (s, s2) = pair, arg
        assert alpha_eq(subst(u, {name: s2}), subst(t, {name: s}))

    @settings(deadline=None)
    @given(clashing_terms(max_size=8), CALCULI, LEVELS)
    def test_normalization_is_alpha_invariant(self, pair, calculus, k):
        t, u = pair
        a, b = normalize(t, calculus, k, 30), normalize(u, calculus, k, 30)
        assert (a.outcome, a.cycle_start, len(a.steps)) == \
            (b.outcome, b.cycle_start, len(b.steps))
        assert canonical(a.final) == canonical(b.final)

    @settings(deadline=None)
    @given(clashing_terms(max_size=8), CALCULI)
    def test_typing_is_alpha_invariant(self, pair, calculus):
        t, u = pair
        status, d = typable(u, calculus, 30)
        assert status == typable(t, calculus, 30)[0]
        if d is not None:
            assert check_derivation(d, SYSTEM_OF[calculus]) == []
            assert alpha_eq(d.term, u)


class TestSyntax:
    @given(terms())
    def test_printing_then_parsing_is_identity_up_to_alpha(self, t):
        assert alpha_eq(parse(show(t)), t)

    @given(terms(bot_weight=0.3))
    def test_round_trip_covers_partial_terms(self, t):
        assert alpha_eq(parse(show(t)), t)

    @given(terms(), CALCULI)
    def test_equality_at_unbounded_level_is_alpha(self, t, calculus):
        u = parse(show(t))
        assert strat_eq(t, u, calculus, OMEGA)
        assert canonical(t) == canonical(u)


class TestPartialOrder:
    @given(terms(bot_weight=0.3))
    def test_reflexive_with_bottom_least(self, t):
        assert partial_leq(t, t)
        assert partial_leq(BOT, t)
        assert partial_leq(t, BOT) == alpha_eq(t, BOT)

    @given(terms(bot_weight=0.4), terms(bot_weight=0.4))
    def test_antisymmetric(self, t, u):
        if partial_leq(t, u) and partial_leq(u, t):
            assert alpha_eq(t, u)

    @given(terms(bot_weight=0.4), CALCULI, LEVELS)
    def test_compatible_with_stratified_equality(self, t, calculus, k):
        assert strat_eq(t, t, calculus, k)


class TestSubstitution:
    @given(terms(), terms(max_size=5))
    def test_no_op_when_the_variable_is_not_free(self, t, u):
        name = "zzz"
        assert name not in free_vars(t)
        assert alpha_eq(subst(t, {name: u}), t)

    @given(terms(max_size=6), terms(max_size=4))
    def test_free_variables_shrink_correctly(self, t, u):
        out = subst(t, {"x": u})
        assert free_vars(out) <= (free_vars(t) - {"x"}) | free_vars(u)


class TestNormalForms:
    @given(terms(), CALCULI, LEVELS)
    def test_grammar_membership_matches_redex_search(self, t, calculus, k):
        assert is_normal(t, calculus, k) == \
            (classify_nf(t, calculus, k) != "not-nf")
        assert is_normal(t, calculus, k) == (not find_redexes(t, calculus, k))

    @given(terms(max_size=7), CALCULI)
    def test_normalization_endpoints_are_normal(self, t, calculus):
        trace = normalize(t, calculus, 0.0, 200)
        if trace.outcome == "normal":
            assert is_normal(trace.final, calculus, 0.0)


class TestApproximant:
    @given(terms(max_size=7), CALCULI)
    def test_approximant_sits_below_its_term(self, t, calculus):
        a = meaningful_approximant(t, Oracle(calculus, 200))
        if not isinstance(a, Undetermined):
            assert partial_leq(a, t)

    @given(terms(max_size=7), CALCULI)
    def test_approximant_is_idempotent(self, t, calculus):
        oracle = Oracle(calculus, 200)
        a = meaningful_approximant(t, oracle)
        if not isinstance(a, Undetermined):
            b = meaningful_approximant(a, oracle)
            assert not isinstance(b, Undetermined) and alpha_eq(a, b)


class TestGenericity:
    # seeds whose approximant is bottom, the case where replacement
    # inside any context must be unobservable
    SEEDS = st.sampled_from([OMEGA_LOOP, rf"(x x)[x\(\w.w w)]",
                             rf"({ID}) ((\w.w w) (\w.w w))"])
    CONTEXTS = st.sampled_from([
        "@", rf"(\y.{ID}) (\z.@)", rf"\x.x ({ID}) (\z.@)", r"(\z.@) w",
    ])
    PROBES = st.sampled_from(["x", ID, "y z", r"\w.w w"])

    @settings(deadline=None, max_examples=40)
    @given(SEEDS, CONTEXTS, PROBES, CALCULI, LEVELS)
    def test_replacing_a_mute_seed_never_violates(self, seed, ctx, probe,
                                                  calculus, k):
        oracle = Oracle(calculus, 400)
        # the claim applies to seeds that approximate to bottom in the
        # calculus at hand; others carry observable structure
        if not alpha_eq(meaningful_approximant(p(seed), oracle), BOT):
            return
        r = stratified_genericity_check(
            p(seed), parse_context(ctx), p(probe), calculus, k, oracle)
        assert r.status in ("ok", "vacuous", "unknown"), r.detail


class TestDiamond:
    @given(terms(max_size=8), CALCULI)
    @settings(deadline=None)
    def test_surface_peaks_rejoin_in_one_step(self, t, calculus):
        redexes = find_redexes(t, calculus, 0.0)
        if len(redexes) < 2:
            return
        for s1 in redexes:
            for s2 in redexes:
                if s1.position == s2.position:
                    continue
                a = apply_step(t, s1, calculus).after
                b = apply_step(t, s2, calculus).after
                joins_a = [apply_step(a, s, calculus).after
                           for s in find_redexes(a, calculus, 0.0)]
                joins_b = [apply_step(b, s, calculus).after
                           for s in find_redexes(b, calculus, 0.0)]
                assert any(alpha_eq(x, y) for x in joins_a + [a]
                           for y in joins_b + [b])
