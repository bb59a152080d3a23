"""Acceptance gate: eleven end-to-end checks, one test (and one
pass/fail line under pytest -v) per criterion."""

import itertools
import time

import pytest

from strata import (
    Abs,
    App,
    CBN,
    CBV,
    OMEGA,
    Oracle,
    Var,
    alpha_eq,
    apply_step,
    check_derivation,
    classify_nf,
    find_redexes,
    is_bno,
    judge,
    lift_trace,
    meaningful_approximant,
    normalize,
    parse,
    parse_context,
    plug,
    reverify,
    strat_eq,
    stratified_genericity_check,
    typable,
    typed_genericity,
)
from strata import H, HSTAR, LAMBDA
from strata.corpus import enumerate_terms
from strata.terms import is_value, subterms
from strata.typecheck import SYS_V
from strata.types_core import EMPTY, Arrow, Mult, TyVar, mk

from conftest import DELTA, ID, OMEGA_LOOP, p


def test_criterion_01_two_step_collapse_lifts_to_every_probe(cbv_oracle):
    started = time.perf_counter()
    ctx = parse_context(rf"(\y.{ID}) (\z.@)")

    trace = normalize(plug(ctx, p(OMEGA_LOOP)), CBV, OMEGA)
    assert trace.outcome == "normal" and len(trace.steps) == 2
    assert alpha_eq(trace.final, p(ID))

    report = stratified_genericity_check(
        p(OMEGA_LOOP), ctx, p("x"), CBV, OMEGA, cbv_oracle)
    assert report.status == "ok" and len(report.partial_steps) == 2

    probes = list(itertools.islice(enumerate_terms(4), 25))
    assert len(probes) >= 20
    for u in probes:
        lifted = lift_trace(report.partial_steps, plug(ctx, u), CBV)
        assert len(lifted) == 2
        assert alpha_eq(lifted[-1].after, p(ID))

    assert time.perf_counter() - started < 1.0


def test_criterion_02_level_gating_on_the_frozen_chain():
    chain = parse(rf"\x.((\y.x w)[w\\z.{OMEGA_LOOP}])")

    # the closure step sits one binder deep: eligible from level 1 on
    assert find_redexes(chain, CBV, 0.0) == []
    sv = find_redexes(chain, CBV, 1.0)[0]
    assert sv.rule == "sv" and sv.level == 1.0

    # after it fires, the loop sits under three binders: its unfolding
    # and refolding steps are blocked for k <= 2, enabled at 3 and up
    post = parse(rf"\x.\y.x (\z.{OMEGA_LOOP})")
    assert find_redexes(post, CBV, 2.0) == []
    for k in (3.0, OMEGA):
        inner = find_redexes(post, CBV, k)
        assert [r.rule for r in inner] == ["dB"] and inner[0].level == 3.0
    mid = apply_step(post, find_redexes(post, CBV, 3.0)[0], CBV).after
    assert find_redexes(mid, CBV, 2.0) == []
    refold = find_redexes(mid, CBV, 3.0)[0]
    assert refold.rule == "sv" and refold.level == 3.0
    assert alpha_eq(apply_step(mid, refold, CBV).after, post)


def test_criterion_03_frozen_approximants(cbv_oracle):
    a1 = meaningful_approximant(
        p(rf"(\x.x ({OMEGA_LOOP})) (\y.{OMEGA_LOOP})"), cbv_oracle)
    assert alpha_eq(a1, p("bot"))

    a2 = meaningful_approximant(
        p(rf"\x.x (\y.({ID}) ({ID})) (\z.({ID}) ({OMEGA_LOOP}))"), cbv_oracle)
    assert alpha_eq(a2, p(rf"\x.x (\y.({ID}) ({ID})) (\z.bot)"))
    assert is_bno(a2, CBV, 1.0)


def test_criterion_04_stratified_equality_pairs():
    v0, v1 = p(r"(\x.x (\y.x)) z"), p(r"(\x.x (\z.z)) z")
    assert strat_eq(v0, v1, CBV, 0.0)
    assert strat_eq(v0, v1, CBV, 1.0)
    assert not strat_eq(v0, v1, CBV, 2.0)

    n0 = p(rf"(x ({ID}))[x\y ({OMEGA_LOOP})]")
    n1 = p(rf"(x ({ID}))[x\y ({ID})]")
    assert strat_eq(n0, n1, CBN, 0.0)
    assert strat_eq(n0, n1, CBN, 1.0)
    assert not strat_eq(n0, n1, CBN, 2.0)

    pool = list(enumerate_terms(5))
    import random
    rng = random.Random(0)
    for _ in range(1000):
        t, u = rng.choice(pool), rng.choice(pool)
        for calculus in (CBV, CBN):
            assert strat_eq(t, u, calculus, OMEGA) == alpha_eq(t, u)


def test_criterion_05_weak_beta_misses_a_divergence_the_engine_sees(cbv_oracle):
    t = p(rf"(\x.{DELTA}) (y y) ({DELTA})")

    # t is pure, and no subterm anywhere is a beta-redex with a value argument
    full = [pos for pos, s in subterms(t)
            if isinstance(s, App) and isinstance(s.fun, Abs)
            and is_value(s.arg)]
    assert full == []

    report = cbv_oracle.meaning(t)
    assert report.status == "meaningless"
    assert report.witness is not None and report.witness.outcome == "cycle"


def test_criterion_06_typed_replacement_under_an_untyped_argument():
    alpha = TyVar("a")
    m = Mult((Arrow(EMPTY, alpha),))
    loop_abs = Abs("z", p(OMEGA_LOOP))
    body = App(Var("y"), loop_abs)
    d = mk("abs", {"y": m}, Abs("x", body), m, (
        mk("app", {"y": m}, body, alpha, (
            mk("var", {"y": m}, Var("y"), m),
            mk("abs", {}, loop_abs, EMPTY),
        )),
    ))
    assert check_derivation(d, SYS_V) == []

    ctx = Abs("x", App(Var("y"), Abs("z", parse_context("@"))))
    for probe in ("y", ID, "x x"):
        d2 = typed_genericity(d, ctx, p(probe))
        assert check_derivation(d2, SYS_V) == []
        assert d2.env == d.env and d2.ty == d.ty


def test_criterion_07_nf_grammar_matches_redex_search_exhaustively():
    started = time.perf_counter()
    pool = list(enumerate_terms(7))
    assert len(pool) == 9130
    for t in pool:
        for calculus in (CBV, CBN):
            for k in (0.0, 1.0, 2.0, 3.0, OMEGA):
                in_grammar = classify_nf(t, calculus, k) != "not-nf"
                assert in_grammar == (not find_redexes(t, calculus, k)), \
                    (t, calculus, k)
    assert time.perf_counter() - started < 60.0


def test_criterion_08_surface_peaks_always_rejoin():
    for t in enumerate_terms(7):
        for calculus in (CBV, CBN):
            redexes = find_redexes(t, calculus, 0.0)
            if len(redexes) < 2:
                continue
            for s1, s2 in itertools.combinations(redexes, 2):
                a = apply_step(t, s1, calculus).after
                b = apply_step(t, s2, calculus).after
                ja = [apply_step(a, s, calculus).after
                      for s in find_redexes(a, calculus, 0.0)] + [a]
                jb = [apply_step(b, s, calculus).after
                      for s in find_redexes(b, calculus, 0.0)] + [b]
                assert any(alpha_eq(x, y) for x in ja for y in jb), \
                    (t, calculus, s1.position, s2.position)


@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_criterion_09_axiom_campaign_is_clean(calculus):
    from strata import axiom_suite, reproduce_violation
    report = axiom_suite(calculus, 5000)
    for v in report.violations:
        # any reported violation must replay from its certificate alone
        assert reproduce_violation(v)
    assert report.ok, report.violations


@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_criterion_10_typability_tracks_meaningfulness(calculus):
    oracle = Oracle(calculus, 200)
    decided = 0
    for t in itertools.chain(enumerate_terms(6), [p(rf"\x.{OMEGA_LOOP}")]):
        m_status = oracle.status(t)
        t_status, _ = typable(t, calculus, 200)
        if m_status == "unknown" or t_status == "unknown":
            continue
        decided += 1
        assert (t_status == "typable") == (m_status == "meaningful"), t
    assert decided >= 200

    guarded = p(rf"\x.{OMEGA_LOOP}")
    expected = "typable" if calculus == CBV else "untypable"
    assert typable(guarded, calculus)[0] == expected


def test_criterion_11_theory_judge_frozen_verdicts():
    j1 = judge(p(OMEGA_LOOP), p(rf"(x x)[x\{DELTA}]"), CBV)
    assert j1[LAMBDA].result == "equal"
    assert reverify(j1)

    j2 = judge(p(OMEGA_LOOP), p(rf"x ({OMEGA_LOOP})"), CBV)
    assert j2[H].result == "equal"
    assert reverify(j2)

    j3 = judge(p(ID), p(r"\x.\y.x y"), CBV)
    assert j3[H].result == "not-equal"
    assert j3[H].certificate.kind == "distinct-normal-forms"
    assert j3[HSTAR].result == "unknown"
    assert reverify(j3)

    j4 = judge(p(ID), p(OMEGA_LOOP), CBV)
    assert j4[HSTAR].result == "not-equal"
    assert reverify(j4)
