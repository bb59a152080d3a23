"""Normal-form grammars, bottom-free observations, and stratified
equality."""

import hashlib
import itertools

import pytest

from strata import CBN, CBV, OMEGA, alpha_eq, classify_nf, find_redexes, is_bno, is_normal, parse, strat_eq
from strata.corpus import enumerate_terms
from strata.nf import NE, NO, NOT_NF, VR, has_bot_within
from strata.terms import BOT, level_of, replace_at, subterms

from conftest import ID, OMEGA_LOOP


class TestGrammarCbv:
    def test_variable_is_a_value_form(self):
        assert classify_nf(parse("x"), CBV, 0.0) == VR

    def test_abstraction_is_opaque_at_surface(self):
        assert classify_nf(parse(rf"\x.{OMEGA_LOOP}"), CBV, 0.0) == NO

    def test_abstraction_body_counts_at_depth_one(self):
        assert classify_nf(parse(rf"\x.{OMEGA_LOOP}"), CBV, 1.0) == NOT_NF
        assert classify_nf(parse(r"\x.x y"), CBV, 1.0) == NO

    def test_neutral_application(self):
        assert classify_nf(parse("x y"), CBV, 0.0) == NE
        assert classify_nf(parse(r"x (\y.y)"), CBV, 0.0) == NE

    def test_redex_is_not_normal(self):
        assert classify_nf(parse(rf"({ID}) x"), CBV, 0.0) == NOT_NF

    def test_blocked_closure_keeps_the_variable_sort(self):
        assert classify_nf(parse(r"(x)[x\y z]"), CBV, 0.0) == VR

    def test_fireable_closure_is_not(self):
        assert classify_nf(parse(r"(x)[x\\y.y]"), CBV, 0.0) == NOT_NF


class TestGrammarCbn:
    def test_head_variable_spine_is_normal(self):
        assert classify_nf(parse(rf"x ({OMEGA_LOOP})"), CBN, 0.0) == NE

    def test_argument_counts_one_level_down(self):
        assert classify_nf(parse(rf"x ({OMEGA_LOOP})"), CBN, 1.0) == NOT_NF
        assert classify_nf(parse(r"x (y z)"), CBN, 1.0) == NE

    def test_closure_always_fires_at_surface(self):
        assert classify_nf(parse(r"(x)[x\y z]"), CBN, 0.0) == NOT_NF

    def test_abstraction_body_is_surface(self):
        assert classify_nf(parse(rf"\x.{OMEGA_LOOP}"), CBN, 0.0) == NOT_NF
        assert classify_nf(parse(r"\x.x"), CBN, 0.0) == NO


@pytest.mark.parametrize("calculus", [CBV, CBN])
@pytest.mark.parametrize("k", [0.0, 1.0, OMEGA])
def test_grammar_agrees_with_redex_search_small(calculus, k):
    for t in enumerate_terms(5):
        grammar_normal = classify_nf(t, calculus, k) != NOT_NF
        assert grammar_normal == (find_redexes(t, calculus, k) == []), t
        assert is_normal(t, calculus, k) == grammar_normal


# SHA-256 over the sorts of every term of size <= 6, in both calculi at
# levels 0, 1, 2 and omega: pinned
SORTS_PIN = "70cdf09e82790825e8265a79de7cd364862420548ea7a500d40e8e059a47b886"


def test_sorts_are_pinned():
    digest = hashlib.sha256()
    for t in enumerate_terms(6):
        for calculus in (CBV, CBN):
            for k in (0.0, 1.0, 2.0, OMEGA):
                digest.update(classify_nf(t, calculus, k).encode() + b"\n")
    assert digest.hexdigest() == SORTS_PIN


class TestBottomFreeObservation:
    def test_requires_normality(self):
        assert not is_bno(parse(rf"({ID}) x"), CBV, 0.0)

    def test_requires_bottoms_above_the_level(self):
        assert is_bno(parse(r"\x.bot"), CBV, 0.0)
        assert not is_bno(parse(r"\x.bot"), CBV, 1.0)
        assert not is_bno(parse(r"x bot"), CBV, 0.0)

    def test_cbn_counts_argument_depth(self):
        assert is_bno(parse("x bot"), CBN, 0.0)
        assert not is_bno(parse("x bot"), CBN, 1.0)
        assert is_bno(parse(r"\x.x"), CBN, OMEGA)

    @pytest.mark.parametrize("calculus", [CBV, CBN])
    def test_the_bot_walk_finds_a_bot_exactly_within_its_level(self, calculus):
        for t in enumerate_terms(4):
            for pos, _ in subterms(t):
                planted = replace_at(t, pos, BOT)
                for k in (0.0, 1.0, 2.0, OMEGA):
                    assert has_bot_within(planted, calculus, k) == (level_of(pos, calculus) <= k)


class TestStratifiedEquality:
    def test_cbv_pair_agrees_to_depth_one(self):
        t0 = parse(r"(\x.x (\y.x)) z")
        t1 = parse(r"(\x.x (\z.z)) z")
        assert strat_eq(t0, t1, CBV, 0.0)
        assert strat_eq(t0, t1, CBV, 1.0)
        assert not strat_eq(t0, t1, CBV, 2.0)
        assert not strat_eq(t0, t1, CBV, OMEGA)

    def test_cbn_pair_agrees_to_depth_one(self):
        t0 = parse(rf"(x ({ID}))[x\y ({OMEGA_LOOP})]")
        t1 = parse(rf"(x ({ID}))[x\y ({ID})]")
        assert strat_eq(t0, t1, CBN, 0.0)
        assert strat_eq(t0, t1, CBN, 1.0)
        assert not strat_eq(t0, t1, CBN, 2.0)

    def test_cbv_abstractions_opaque_at_surface(self):
        assert strat_eq(parse(r"\x.x"), parse(rf"\y.{OMEGA_LOOP}"), CBV, 0.0)
        assert not strat_eq(parse(r"\x.x"), parse(rf"\y.{OMEGA_LOOP}"), CBV, 1.0)

    def test_cbn_abstractions_transparent_at_surface(self):
        assert not strat_eq(parse(r"\x.x"), parse(r"\x.y"), CBN, 0.0)

    def test_bottom_equal_at_every_level(self):
        assert strat_eq(parse("bot"), parse("bot"), CBV, OMEGA)
        assert strat_eq(parse(r"\x.bot"), parse(r"\y.bot"), CBN, OMEGA)

    def test_full_depth_coincides_with_alpha(self):
        pairs = itertools.combinations(itertools.islice(enumerate_terms(4), 60), 2)
        for t, u in pairs:
            for calculus in (CBV, CBN):
                assert strat_eq(t, u, calculus, OMEGA) == alpha_eq(t, u)

    def test_alpha_renamed_terms_equal_everywhere(self):
        t = parse(r"\a.a (\b.b a)")
        u = parse(r"\c.c (\d.d c)")
        for calculus in (CBV, CBN):
            for k in (0.0, 1.0, 2.0, OMEGA):
                assert strat_eq(t, u, calculus, k)
