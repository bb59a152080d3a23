"""Meaningfulness oracle, approximants, and the step
approximation/lifting machinery."""

import pytest

import strata.approx
from strata import (
    BOT,
    CBN,
    CBV,
    Annotations,
    Collapsed,
    Mapped,
    Oracle,
    Undetermined,
    alpha_eq,
    approximate_step,
    find_redexes,
    apply_step,
    lift_step,
    lift_trace,
    meaningful_approximant,
    normalize,
    parse,
    parse_context,
    partial_leq,
    plug,
    reduce_once,
)
from strata.approx import MEANINGFUL, MEANINGLESS, UNKNOWN
from strata.corpus import enumerate_contexts
from strata.terms import OMEGA, canonical

from conftest import DELTA, ID, OMEGA_LOOP

GROWER = r"(\x.x x x) (\x.x x x)"


class TestOracle:
    def test_loop_is_meaningless_with_cycle_witness(self, cbv_oracle):
        report = cbv_oracle.meaning(parse(OMEGA_LOOP))
        assert report.status == MEANINGLESS
        assert report.witness.outcome == "cycle"

    def test_surface_normal_form_is_meaningful(self, cbv_oracle):
        report = cbv_oracle.meaning(parse(r"x (\y.z)"))
        assert report.status == MEANINGFUL
        assert report.witness.outcome == "normal"

    def test_guarded_loop_meaningful_by_value_meaningless_by_name(
            self, cbv_oracle, cbn_oracle):
        t = parse(rf"\x.{OMEGA_LOOP}")
        assert cbv_oracle.status(t) == MEANINGFUL
        assert cbn_oracle.status(t) == MEANINGLESS

    def test_applied_variable_blocks_by_value_not_by_name(
            self, cbv_oracle, cbn_oracle):
        t = parse(rf"x ({OMEGA_LOOP})")
        assert cbv_oracle.status(t) == MEANINGLESS
        assert cbn_oracle.status(t) == MEANINGFUL

    def test_growing_term_is_unknown_within_fuel(self):
        assert Oracle(CBV, 40).status(parse(GROWER)) == UNKNOWN

    def test_a_miss_builds_one_canonical_key(self, monkeypatch):
        keys = []
        canonical = strata.approx.canonical
        monkeypatch.setattr(strata.approx, "canonical",
                            lambda t: keys.append(t) or canonical(t))
        oracle = Oracle(CBV, 40)
        oracle.meaning(parse(OMEGA_LOOP))
        assert len(keys) == 1

    def test_annotation_decides_a_growing_term(self, tmp_path):
        f = tmp_path / "meaningless.txt"
        f.write_text(f"# asserted divergent terms\n{GROWER}\n")
        oracle = Oracle(CBV, 40, Annotations.load(str(f)))
        report = oracle.meaning(parse(r"(\y.y y y) (\y.y y y)"))
        assert report.status == MEANINGLESS and report.asserted


class TestApproximant:
    def A(self, text, oracle):
        return meaningful_approximant(parse(text), oracle)

    def test_loop_collapses(self, cbv_oracle):
        assert self.A(OMEGA_LOOP, cbv_oracle) == BOT

    def test_blocked_loop_in_closure_collapses(self, cbv_oracle):
        assert self.A(rf"(x x)[x\{DELTA}]", cbv_oracle) == BOT

    def test_meaningful_spine_keeps_shape_over_pruned_parts(self, cbv_oracle):
        a = self.A(rf"x (\y.{OMEGA_LOOP})", cbv_oracle)
        assert alpha_eq(a, parse(r"x (\y.bot)"))

    def test_undiscardable_argument_collapses_the_spine(self, cbv_oracle):
        # by value an application never erases a diverging argument, so
        # pruning x Ω to x bot cannot be observed: the node collapses
        assert self.A(rf"x ({OMEGA_LOOP})", cbv_oracle) == BOT

    def test_divergent_application_of_meaningful_parts(self, cbv_oracle):
        a = self.A(rf"(\x.x ({OMEGA_LOOP})) (\y.{OMEGA_LOOP})", cbv_oracle)
        assert alpha_eq(a, parse(r"(\x.bot) (\y.bot)"))

    def test_pruning_is_homomorphic_inside_values(self, cbv_oracle):
        a = self.A(rf"\x.(x (\y.({ID}) ({ID})) (\z.({ID}) ({OMEGA_LOOP})))",
                   cbv_oracle)
        assert alpha_eq(a, parse(rf"\x.(x (\y.({ID}) ({ID})) (\z.bot))"))

    def test_by_name_head_spine_survives(self, cbn_oracle):
        assert alpha_eq(self.A(rf"x ({OMEGA_LOOP})", cbn_oracle), parse("x bot"))
        assert self.A(rf"\x.{OMEGA_LOOP}", cbn_oracle) == BOT

    def test_refines_its_term(self, cbv_oracle):
        for text in (OMEGA_LOOP, rf"x (\y.{OMEGA_LOOP})", r"\x.x",
                     rf"(\x.x ({OMEGA_LOOP})) (\y.{OMEGA_LOOP})"):
            a = self.A(text, cbv_oracle)
            assert partial_leq(a, parse(text))

    def test_undetermined_reports_the_first_unknown_position(self):
        oracle = Oracle(CBV, 40)
        # the root is a value, hence decided; the body is not
        a = meaningful_approximant(parse(rf"\x.{GROWER}"), oracle)
        assert isinstance(a, Undetermined)
        assert a.position == ("b",)


CHURCH_ADD = (r"(\k.(\m.\n.\f.\x.m f (n f x)) (\f.\x.f x) (\f.\x.f (f x)))"
              r" (\z.@)")


def _same_approximant(a, b):
    if isinstance(a, Undetermined) or isinstance(b, Undetermined):
        return a == b
    return alpha_eq(a, b)


class TestApproximantTable:
    """One oracle reuses the approximants of the nodes a step leaves
    alone; the answers must be those of a fresh oracle."""

    @pytest.mark.parametrize("calculus", [CBV, CBN])
    def test_along_traces_equals_a_fresh_oracle(self, calculus):
        fuel = 12
        fillers = [OMEGA_LOOP, rf"\z.{OMEGA_LOOP}", rf"x ({OMEGA_LOOP})", GROWER]
        contexts = list(enumerate_contexts(3)) + [parse_context(CHURCH_ADD)]
        undetermined = 0
        for ctx in contexts:
            for filler in fillers:
                ct = plug(ctx, parse(filler))
                oracle = Oracle(calculus, fuel)
                terms = [ct]
                for s in normalize(ct, calculus, OMEGA, fuel).steps:
                    terms += [s.before, s.after]
                for t in terms:
                    shared = meaningful_approximant(t, oracle)
                    fresh = meaningful_approximant(t, Oracle(calculus, fuel))
                    assert _same_approximant(shared, fresh), (ctx, filler)
                    undetermined += isinstance(fresh, Undetermined)
        assert undetermined

    def test_unpruned_nodes_are_returned_as_they_are(self, cbv_oracle):
        t = parse(rf"(\x.x ({OMEGA_LOOP})) (\y.y y)")
        a = meaningful_approximant(t, cbv_oracle)
        assert alpha_eq(a, parse(r"(\x.bot) (\y.y y)"))
        assert a.arg is t.arg
        u = parse(r"\x.x (\y.y)")
        assert meaningful_approximant(u, cbv_oracle) is u

    def test_a_step_asks_only_about_the_nodes_it_rebuilt(self, monkeypatch):
        oracle = Oracle(CBV, 40)
        step = reduce_once(parse(rf"x (\y.y) (({ID}) z)"), CBV, 0.0)
        meaningful_approximant(step.before, oracle)
        asked = []
        meaning = Oracle.meaning
        monkeypatch.setattr(Oracle, "meaning",
                            lambda self, t: asked.append(t) or meaning(self, t))
        meaningful_approximant(step.after, oracle)
        # the new root and the contractum i[i\z], whose children were met
        # before
        assert len(asked) == 2
        meaningful_approximant(step.after, oracle)
        assert len(asked) == 2


    def test_an_unpruned_loop_is_not_normalized_again(self, monkeypatch):
        normalized = []
        normalize = strata.approx.normalize
        monkeypatch.setattr(strata.approx, "normalize",
                            lambda t, *a: normalized.append(t) or normalize(t, *a))
        for c in (CBV, CBN):
            for text in (OMEGA_LOOP, rf"(x x)[x\{DELTA}]", rf"\z.{OMEGA_LOOP}"):
                oracle = Oracle(c, 40)
                t = parse(text)
                assert meaningful_approximant(t, oracle) is not t
                # the oracle's cycle trace of a loop that pruning left as
                # it was answers for it: no term is normalized twice
                assert len(normalized) == len({canonical(u) for u in normalized}), (c, text)
                normalized.clear()

    def test_an_asserted_loop_is_still_normalized(self, monkeypatch):
        normalized = []
        normalize = strata.approx.normalize
        monkeypatch.setattr(strata.approx, "normalize",
                            lambda t, *a: normalized.append(t) or normalize(t, *a))
        t = parse(GROWER)
        oracle = Oracle(CBV, 40, Annotations([t]))
        # the assertion carries no trace: pruning left the node as it
        # was, and only normalizing it can tell whether it stays stuck
        assert meaningful_approximant(t, oracle) == Undetermined(())
        assert [u for u in normalized if u is t] == [t]


class TestApproximateStep:
    def test_step_inside_a_pruned_zone_collapses(self, cbv_oracle):
        s = reduce_once(parse(OMEGA_LOOP), CBV, 0.0)
        out = approximate_step(s, cbv_oracle)
        assert isinstance(out, Collapsed) and out.approximant == BOT

    def test_faithful_step_maps_exactly(self, cbv_oracle):
        s = reduce_once(parse(rf"({ID}) ({ID})"), CBV, 0.0)
        out = approximate_step(s, cbv_oracle)
        assert isinstance(out, Mapped)
        assert alpha_eq(out.over, parse(rf"x[x\{ID}]"))
        assert alpha_eq(out.over, meaningful_approximant(s.after, cbv_oracle))

    def test_substitution_step_may_over_approximate(self, cbv_oracle):
        s = reduce_once(parse(rf"(x (\y.z ({DELTA})))[z\{DELTA}]"), CBV, 0.0)
        out = approximate_step(s, cbv_oracle)
        assert isinstance(out, Mapped)
        assert alpha_eq(out.over, parse(rf"x (\y.{OMEGA_LOOP})"))
        after_hat = meaningful_approximant(s.after, cbv_oracle)
        assert alpha_eq(after_hat, parse(r"x (\y.bot)"))
        assert partial_leq(after_hat, out.over) and not alpha_eq(after_hat, out.over)

    def test_mapped_target_always_refines(self, cbv_oracle):
        t = parse(rf"(\y.{ID}) (\z.{OMEGA_LOOP})")
        trace = normalize(t, CBV, 0.0)
        for s in trace.steps:
            out = approximate_step(s, cbv_oracle)
            if isinstance(out, Mapped):
                hat = meaningful_approximant(s.after, cbv_oracle)
                assert partial_leq(hat, out.over)

    def test_undetermined_propagates(self):
        s = reduce_once(parse(rf"x[x\{ID}] ({GROWER})"), CBV, 0.0)
        assert isinstance(approximate_step(s, Oracle(CBV, 40)), Undetermined)


class TestLift:
    def partial_step(self):
        t = parse(r"(\y.bot w)[w\\z.bot]")
        (r,) = find_redexes(t, CBV, 0.0)
        return apply_step(t, r, CBV)

    def test_lift_replays_on_a_refinement(self):
        s = self.partial_step()
        bigger = parse(rf"(\y.({ID}) w)[w\\z.\x.bot]")
        lifted = lift_step(s, bigger, CBV)
        assert alpha_eq(lifted.after, parse(rf"\y.({ID}) (\z.\x.bot)"))
        assert partial_leq(s.after, lifted.after)

    def test_lift_over_itself_is_identity(self):
        s = self.partial_step()
        lifted = lift_step(s, s.before, CBV)
        assert alpha_eq(lifted.after, s.after)

    def test_lift_requires_refinement(self):
        s = self.partial_step()
        with pytest.raises(ValueError):
            lift_step(s, parse("x y"), CBV)

    def test_lift_trace_chains(self, cbv_oracle):
        t = parse(rf"(\y.{ID}) (\z.{OMEGA_LOOP})")
        trace = normalize(t, CBV, 0.0)
        partial = []
        for s in trace.steps:
            out = approximate_step(s, cbv_oracle)
            if isinstance(out, Mapped):
                partial.append(out.step)
        lifted = lift_trace(partial, parse(rf"(\y.{ID}) (\z.z)"), CBV)
        assert len(lifted) == len(partial) == 2
        assert alpha_eq(lifted[-1].after, parse(ID))
