"""Quantitative type systems: derivation checking, synthesis for
surface normal forms, replay across reduction steps, and the
derivation-level genericity transformer."""

import json

import pytest

from strata import (
    Abs,
    App,
    CBN,
    CBV,
    Var,
    alpha_eq,
    check_derivation,
    normalize,
    parse,
    parse_context,
    parse_ty,
    plug,
    show_ty,
    synth_nf_derivation,
    typable,
    typed_genericity,
)
from strata.deriv_transform import (
    GenericityContradiction,
    expand_derivation,
    reduce_derivation,
)
from strata.typecheck import SYS_N, SYS_V
from strata.types_core import (
    EMPTY,
    Arrow,
    Mult,
    TyVar,
    deriv_from_dict,
    deriv_to_dict,
    env_eq,
    mk,
    valid_ty,
)

from conftest import ID, OMEGA_LOOP


class TestTypeSyntax:
    @pytest.mark.parametrize("text", ["a", "[]", "[a]", "[a,a]", "[[] -> a]",
                                      "[[a] -> [b] -> c]"])
    def test_round_trip(self, text):
        assert parse_ty(show_ty(parse_ty(text))) == parse_ty(text)

    def test_multisets_are_canonically_ordered(self):
        assert parse_ty("[a,b]") == parse_ty("[b,a]")
        assert Mult((TyVar("b"), TyVar("a"))) == Mult((TyVar("a"), TyVar("b")))

    def test_by_name_types_never_judge_bare_multisets(self):
        assert valid_ty(parse_ty("[a] -> b"), SYS_N)
        assert not valid_ty(parse_ty("[a]"), SYS_N)
        assert valid_ty(parse_ty("[a]"), SYS_V)


def spine_derivation():
    """y : [[] -> a] |- \\x.y (\\z.loop) : [[] -> a], with the loop
    under an untyped (zero-premise) abstraction."""
    alpha = TyVar("a")
    m = Mult((Arrow(EMPTY, alpha),))
    loop_abs = Abs("z", parse(OMEGA_LOOP))
    d_head = mk("var", {"y": m}, Var("y"), m)
    d_arg = mk("abs", {}, loop_abs, EMPTY)
    d_app = mk("app", {"y": m}, App(Var("y"), loop_abs), alpha, (d_head, d_arg))
    return mk("abs", {"y": m}, Abs("x", App(Var("y"), loop_abs)), m, (d_app,))


class TestChecker:
    def test_accepts_a_hand_built_derivation(self):
        assert check_derivation(spine_derivation(), SYS_V) == []

    def test_rejects_a_wrong_environment(self):
        d = spine_derivation()
        bad = mk(d.rule, {}, d.term, d.ty, d.premises)
        assert check_derivation(bad, SYS_V) != []

    def test_rejects_a_wrong_type(self):
        d = spine_derivation()
        bad = mk(d.rule, d.env_dict, d.term, EMPTY, d.premises)
        assert check_derivation(bad, SYS_V) != []

    def test_rejects_a_bad_rule_for_the_term(self):
        bad = mk("abs", {}, Var("x"), EMPTY)
        assert check_derivation(bad, SYS_V) != []

    @pytest.mark.parametrize("text", ["x", r"\x.x", r"x (\y.z)", "x y z",
                                      r"(x)[x\y z]"])
    def test_accepts_synthesized_by_value(self, text):
        d = synth_nf_derivation(parse(text), CBV)
        assert check_derivation(d, SYS_V) == []

    @pytest.mark.parametrize("text", ["x", r"\x.x y", "x y z", r"\x.\y.x"])
    def test_accepts_synthesized_by_name(self, text):
        d = synth_nf_derivation(parse(text), CBN)
        assert check_derivation(d, SYS_N) == []


class TestTypability:
    def test_identity_is_typable_in_both(self):
        for calculus in (CBV, CBN):
            status, d = typable(parse(rf"({ID}) ({ID})"), calculus)
            assert status == "typable"
            assert check_derivation(d, SYS_V if calculus == CBV else SYS_N) == []
            assert alpha_eq(d.term, parse(rf"({ID}) ({ID})"))

    def test_loop_is_untypable_in_both(self):
        for calculus in (CBV, CBN):
            assert typable(parse(OMEGA_LOOP), calculus)[0] == "untypable"

    def test_guarded_loop_splits_the_calculi(self):
        t = parse(rf"\x.{OMEGA_LOOP}")
        assert typable(t, CBV)[0] == "typable"
        assert typable(t, CBN)[0] == "untypable"

    def test_growing_term_is_unknown(self):
        status, d = typable(parse(r"(\x.x x x) (\x.x x x)"), CBV, fuel=40)
        assert status == "unknown" and d is None


class TestReplay:
    @pytest.mark.parametrize("calculus,system", [(CBV, SYS_V), (CBN, SYS_N)])
    @pytest.mark.parametrize("text", [
        rf"({ID}) ({ID})",
        rf"({ID}) x y",
        rf"(\x.\y.y x) z ({ID})",
        rf"(x ({ID}))[x\{ID}]",
        # binders that the steps must rename: a spine binder the moved
        # argument names, an abstraction that captures the substituted
        # term, and a step target whose fresh names the source reuses
        r"((\x.x)[y\z]) y",
        r"((\y.x)[x\y]) z",
        r"(\x.x1[y1\(\x1.x0) x1])[x0\x0] x0",
    ])
    def test_expansion_then_reduction_round_trip(self, text, calculus, system):
        t = parse(text)
        trace = normalize(t, calculus, 0.0)
        assert trace.outcome == "normal"
        d = synth_nf_derivation(trace.final, calculus)
        # walk the trace backwards, expanding to the original term
        for step in reversed(trace.steps):
            d = expand_derivation(d, step, system)
            assert check_derivation(d, system) == []
        assert alpha_eq(d.term, t)
        top = (d.env, d.ty)
        # and forwards again, preserving the judgment
        for step in trace.steps:
            d = reduce_derivation(d, step, system)
            assert check_derivation(d, system) == []
        assert (d.env, d.ty) == top
        assert alpha_eq(d.term, trace.final)


class TestSerialization:
    def test_json_round_trip(self):
        d = spine_derivation()
        blob = json.dumps(deriv_to_dict(d))
        d2 = deriv_from_dict(json.loads(blob))
        assert check_derivation(d2, SYS_V) == []
        assert d2.ty == d.ty and env_eq(d2.env_dict, d.env_dict)
        assert alpha_eq(d2.term, d.term)


class TestTypedGenericity:
    def test_replacement_in_an_untyped_zone_preserves_the_judgment(self):
        d = spine_derivation()
        ctx = Abs("x", App(Var("y"), Abs("z", parse_context("@"))))
        for probe in ("y", ID, "x x"):
            d2 = typed_genericity(d, ctx, parse(probe), SYS_V)
            assert check_derivation(d2, SYS_V) == []
            assert d2.env == d.env and d2.ty == d.ty
            assert alpha_eq(d2.term, plug(ctx, parse(probe)))

    def test_refuses_when_the_hole_is_typed(self):
        d = synth_nf_derivation(parse(r"\x.x"), CBV)
        with pytest.raises(GenericityContradiction):
            typed_genericity(d, parse_context("@"), parse("y"), SYS_V)
