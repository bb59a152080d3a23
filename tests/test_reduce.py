"""Rewrite engine: the two rule families, action at a distance,
level gating, strategy order and cycle detection."""

import pytest

import strata.reduce
from strata import (
    CBN,
    CBV,
    OMEGA,
    alpha_eq,
    apply_step,
    find_redexes,
    normalize,
    parse,
    reduce_once,
)
from strata.reduce import (
    DB,
    SN,
    SV,
    Redex,
    min_redex_level,
    step_from_dict,
    step_to_dict,
    trace_to_dict,
)
from strata.terms import free_vars, show

from conftest import DELTA, ID, OMEGA_LOOP


class TestRules:
    def test_beta_fires_regardless_of_argument(self):
        s = reduce_once(parse(rf"(\x.x) ({OMEGA_LOOP})"), CBV, 0.0)
        assert s.rule == DB
        assert alpha_eq(s.after, parse(rf"x[x\{OMEGA_LOOP}]"))

    def test_beta_acts_through_a_closure_spine(self):
        s = reduce_once(parse(r"((\x.x)[y\z]) w"), CBV, 0.0)
        assert s.rule == DB and s.position == ()
        assert alpha_eq(s.after, parse(r"(x[x\w])[y\z]"))

    def test_cbv_closure_waits_for_a_value(self):
        t = parse(r"(x)[x\y z]")
        assert find_redexes(t, CBV, 0.0) == []

    def test_cbv_closure_fires_on_variable_and_abstraction(self):
        for arg in ("z", r"\z.z"):
            s = reduce_once(parse(rf"(x x)[x\{arg}]"), CBV, 0.0)
            assert s.rule == SV
            assert alpha_eq(s.after, parse(f"({arg}) ({arg})"))

    def test_bottom_is_not_a_value(self):
        assert find_redexes(parse(r"(x)[x\bot]"), CBV, 0.0) == []

    def test_cbv_substitution_acts_through_a_spine(self):
        s = reduce_once(parse(r"(x x)[x\(\z.z)[w\y]]"), CBV, 0.0)
        assert s.rule == SV
        assert alpha_eq(s.after, parse(r"((\z.z) (\z.z))[w\y]"))

    def test_spine_binder_does_not_capture_body_variables(self):
        # the spine binds y; the body's free y must survive the move
        s = reduce_once(parse(r"(x y)[x\(\w.w)[y\z]]"), CBV, 0.0)
        assert s.rule == SV
        assert "y" in free_vars(s.after)
        assert alpha_eq(s.after, parse(r"((\w.w) y)[u\z]"))

    def test_db_at_a_distance_renames_only_the_spine_binder(self):
        # the argument's free x moves under the spine binder x, not under
        # the core's \x
        s = reduce_once(parse(r"(\y.x (\x.x y))[x\w] x"), CBV, 0.0)
        assert s.rule == DB
        assert show(s.after, rename=False) == r"(x0 (\x.x y))[y\x][x0\w]"
        assert alpha_eq(s.after, parse(r"(v (\u.u y))[y\x][v\w]"))
        # no clash, no renaming
        s = reduce_once(parse(r"(\y.x (\x.x y))[x\w] z"), CBV, 0.0)
        assert show(s.after, rename=False) == r"(x (\x.x y))[y\z][x\w]"

    def test_sv_at_a_distance_renames_only_the_spine_binder(self):
        # the body's free y moves under the spine binder y, not under the
        # value's \y
        s = reduce_once(parse(r"(x y)[x\(\u.y (\y.y u))[y\w]]"), CBV, 0.0)
        assert s.rule == SV
        assert show(s.after, rename=False) == r"((\u.y0 (\y.y u)) y)[y0\w]"
        assert alpha_eq(s.after, parse(r"((\u.v (\z.z u)) y)[v\w]"))

    def test_cbn_closure_substitutes_any_argument(self):
        s = reduce_once(parse(r"(x x)[x\y z]"), CBN, 0.0)
        assert s.rule == SN
        assert alpha_eq(s.after, parse("(y z) (y z)"))

    def test_cbn_closure_discards_unused_argument(self):
        s = reduce_once(parse(rf"(y)[x\{OMEGA_LOOP}]"), CBN, 0.0)
        assert s.rule == SN and s.after == parse("y")


class TestLevelGating:
    def test_cbv_redex_under_binder_needs_its_depth(self):
        t = parse(rf"\x.({ID}) x")
        assert find_redexes(t, CBV, 0.0) == []
        assert [r.position for r in find_redexes(t, CBV, 1.0)] == [("b",)]
        assert find_redexes(t, CBV, OMEGA) != []

    def test_cbn_redex_in_argument_needs_its_depth(self):
        t = parse(rf"x (({ID}) y)")
        assert find_redexes(t, CBN, 0.0) == []
        assert [r.position for r in find_redexes(t, CBN, 1.0)] == [("r",)]

    def test_cbn_ignores_binder_depth(self):
        t = parse(rf"\x.({ID}) x")
        assert [r.position for r in find_redexes(t, CBN, 0.0)] == [("b",)]

    def test_min_redex_level(self):
        t = parse(rf"\x.\y.({ID}) y")
        assert min_redex_level(t, CBV) == 2.0
        assert min_redex_level(parse("x"), CBV) is None

    def test_redexes_carry_their_level(self):
        t = parse(rf"(\x.({ID}) x) (({ID}) y)")
        levels = {r.position: r.level for r in find_redexes(t, CBV, OMEGA)}
        assert levels[()] == 0.0 and levels[("l", "b")] == 1.0
        assert levels[("r",)] == 0.0


class TestStrategy:
    def test_leftmost_outermost_picks_the_first_preorder_redex(self):
        t = parse(rf"(({ID}) x) (({ID}) y)")
        s = reduce_once(t, CBV, 0.0)
        assert s.position == ("l",)

    def test_normalize_to_normal_form(self):
        tr = normalize(parse(rf"({ID}) ({ID})"), CBV, 0.0)
        assert tr.outcome == "normal"
        assert len(tr.steps) == 2
        assert alpha_eq(tr.final, parse(ID))

    def test_omega_level_reaches_full_normal_form(self):
        tr = normalize(parse(rf"\x.({ID}) x"), CBV, OMEGA)
        assert tr.outcome == "normal" and alpha_eq(tr.final, parse(r"\x.x"))

    def test_cycle_detection(self):
        tr = normalize(parse(OMEGA_LOOP), CBV, 0.0)
        assert tr.outcome == "cycle"
        assert tr.cycle_start is not None
        # the state at cycle_start recurs later in the trace
        states = [tr.start] + [s.after for s in tr.steps]
        assert any(alpha_eq(states[tr.cycle_start], st)
                   for st in states[tr.cycle_start + 1:])

    def test_fuel_exhaustion_on_growing_term(self):
        grower = r"(\x.x x x) (\x.x x x)"
        tr = normalize(parse(grower), CBV, 0.0, fuel=50)
        assert tr.outcome == "fuel"

    def test_level_respects_gating_during_normalization(self):
        t = parse(rf"\x.({ID}) x")
        assert normalize(t, CBV, 0.0).outcome == "normal"
        assert len(normalize(t, CBV, 0.0).steps) == 0
        assert len(normalize(t, CBV, 1.0).steps) == 2


class TestSerialization:
    def test_step_round_trip(self):
        s = reduce_once(parse(rf"({ID}) ({DELTA})"), CBV, 0.0)
        s2 = step_from_dict(step_to_dict(s), CBV)
        assert (s2.position, s2.rule, s2.level) == (s.position, s.rule, s.level)
        assert alpha_eq(s2.before, s.before) and alpha_eq(s2.after, s.after)

    def test_trace_dict_shape(self):
        tr = normalize(parse(rf"({ID}) ({ID})"), CBV, 0.0)
        d = trace_to_dict(tr)
        assert d["outcome"] == "normal" and len(d["steps"]) == 2


def test_apply_step_revalidates():
    t = parse(rf"({ID}) x")
    (r,) = find_redexes(t, CBV, 0.0)
    with pytest.raises(ValueError):
        apply_step(parse("x y"), r, CBV)  # no rule matches at the root
    with pytest.raises(ValueError):
        apply_step(t, Redex(("r",), SV, 0.0), CBV)  # x is no substitution
    with pytest.raises(ValueError):
        apply_step(t, Redex(("r", "l"), DB, 0.0), CBV)  # x has no children
    with pytest.raises(ValueError):
        apply_step(t, Redex(("l", "l"), DB, 0.0), CBV)  # an abstraction has no l


@pytest.mark.parametrize("text", [
    rf"({ID}) ({ID})", OMEGA_LOOP, r"(\x.x x x) (\x.x x x)",
    r"(\m.\n.\f.m (n f)) (\f.\x.f (f x)) (\f.\x.f (f (f x)))",
])
def test_normalize_contracts_through_the_module_apply_step(monkeypatch, text):
    """Every step of normalize is one call of strata.reduce.apply_step,
    looked up at call time: a benchmark counts steps by patching it."""
    calls = []
    original = strata.reduce.apply_step

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(strata.reduce, "apply_step", counting)
    for c in (CBV, CBN):
        for k in (0.0, OMEGA):
            calls.clear()
            tr = normalize(parse(text), c, k, 40)
            assert len(calls) == len(tr.steps) > 0, (c, k)
