"""Meaningfulness oracle, approximants, and the step
approximation/lifting machinery."""

import gc
import random
import sys
import weakref

import pytest

import strata.approx
import strata.terms
from strata import (
    BOT,
    CBN,
    CBV,
    LAMBDA,
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
    reverify,
    judge,
    stratified_genericity_check,
)
from strata.approx import MEANINGFUL, MEANINGLESS, UNKNOWN
from strata.corpus import enumerate_contexts, enumerate_terms
from strata.genericity import OK
from strata.reduce import DB, SV, Step
from strata.terms import OMEGA, Abs, AlphaTable, App, Es, canonical, show

from conftest import DELTA, ID, OMEGA_LOOP
from test_genericity import GATE_FILLERS

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

    def test_a_lookup_walks_only_the_entries_with_its_free_names(self, monkeypatch):
        walks = []
        alpha_eq = strata.terms.alpha_eq
        monkeypatch.setattr(strata.terms, "alpha_eq",
                            lambda t, u: walks.append(u) or alpha_eq(t, u))
        oracle = Oracle(CBV, 40)
        # one step to a normal form: the start is learned, nothing walked
        assert oracle.status(parse(r"(\a.a) (x z)")) == MEANINGFUL
        assert walks == []
        # same fingerprint, other free names: a miss that walks nothing
        assert oracle.status(parse(r"(\a.a) (y z)")) == MEANINGFUL
        assert walks == []
        # an alpha-variant: one walk, over its own row alone, and no run
        monkeypatch.setattr(strata.approx, "normalize", None)
        assert oracle.status(parse(r"(\b.b) (x z)")) == MEANINGFUL
        assert len(walks) == 1

    @pytest.mark.parametrize("calculus", [CBV, CBN])
    def test_meaning_keeps_no_report(self, calculus):
        oracle = Oracle(calculus, 40)
        report = oracle.meaning(parse(OMEGA_LOOP))
        witness = weakref.ref(report.witness)
        del report
        gc.collect()
        assert witness() is None

    @pytest.mark.parametrize("calculus", [CBV, CBN])
    def test_an_undecided_term_is_answered_again_without_a_run(self, calculus, monkeypatch):
        oracle = Oracle(calculus, 40)
        assert oracle.status(parse(GROWER)) == UNKNOWN
        runs = []
        normalize = strata.approx.normalize
        monkeypatch.setattr(strata.approx, "normalize",
                            lambda *a: runs.append(a) or normalize(*a))
        assert oracle.status(parse(GROWER)) == UNKNOWN
        report = oracle.meaning(parse(r"(\y.y y y) (\y.y y y)"))
        assert report.status == UNKNOWN and report.witness is None
        assert runs == []

    @pytest.mark.parametrize("calculus", [CBV, CBN])
    @pytest.mark.parametrize("text", ["x", r"\y.z", OMEGA_LOOP, GROWER])
    def test_negative_fuel_is_an_error_even_on_a_normal_term(self, calculus, text):
        with pytest.raises(ValueError, match="fuel must be a natural number"):
            Oracle(calculus, -1).status(parse(text))
        with pytest.raises(ValueError, match="fuel must be a natural number"):
            Oracle(calculus, -1).meaning(parse(text))

    @pytest.mark.parametrize("text", ["x", OMEGA_LOOP])
    def test_an_unknown_calculus_is_an_error(self, text):
        with pytest.raises(ValueError, match="unknown calculus 'cbx'"):
            Oracle("cbx").status(parse(text))
        with pytest.raises(ValueError, match="unknown calculus 'cbx'"):
            Oracle("cbx").meaning(parse(text))


# The oracle's table of known statuses: a trace stops at a term an
# earlier trace decided only when its bound, added to the steps taken,
# is within the fuel, so every answer is that of a trace run in full.

JOIN_FUELS = (0, 1, 2, 3, 5, 8, 20, 60)
JOIN_FILLERS = (OMEGA_LOOP, GROWER, r"\z.z",
                r"(\m.\n.\f.\x.m f (n f x)) (\f.\x.f x) (\f.\x.f (f x))",
                rf"x ({OMEGA_LOOP})")


def _join_corpus(term_size, context_size):
    """Every term up to term_size and every context up to context_size
    plugged with each filler, shuffled, so that the traces of terms
    asked later run into the reducts of terms asked earlier."""
    fillers = [parse(f) for f in JOIN_FILLERS]
    corpus = list(enumerate_terms(term_size))
    corpus += [plug(ctx, f) for ctx in enumerate_contexts(context_size) for f in fillers]
    random.Random(0).shuffle(corpus)
    return corpus


def _fresh_status(t, calculus, fuel):
    outcome = normalize(t, calculus, 0.0, fuel).outcome
    return {"normal": MEANINGFUL, "cycle": MEANINGLESS}.get(outcome, UNKNOWN)


def _status_mismatches(corpus, calculus, fuel):
    oracle = Oracle(calculus, fuel)
    return [t for t in corpus if oracle.status(t) != _fresh_status(t, calculus, fuel)]


@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_a_shared_oracle_answers_as_a_fresh_normalize(calculus):
    corpus = _join_corpus(6, 4)
    assert len(corpus) == 1952
    for fuel in JOIN_FUELS:
        assert _status_mismatches(corpus, calculus, fuel) == [], fuel


@pytest.mark.slow
@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_a_shared_oracle_answers_as_a_fresh_normalize_on_larger_terms(calculus):
    corpus = _join_corpus(7, 5)
    for fuel in JOIN_FUELS:
        assert _status_mismatches(corpus, calculus, fuel) == [], fuel


class TestJoinOneStepTooLate:
    """A trace that meets a known term one step too late for the fuel
    would decide one step after the fuel runs out: it stays unknown."""

    def _too_late(self, calculus, learned, text, fuel):
        t = parse(text)
        assert normalize(t, calculus, 0.0, fuel).outcome == "fuel"
        assert normalize(t, calculus, 0.0, fuel + 1).outcome == "cycle"
        oracle = Oracle(calculus, fuel)
        assert oracle.status(parse(learned)) == MEANINGLESS
        assert oracle.status(t) == UNKNOWN
        oracle = Oracle(calculus, fuel + 1)
        assert oracle.status(parse(learned)) == MEANINGLESS
        assert oracle.status(t) == MEANINGLESS

    @pytest.mark.parametrize("calculus", [CBV, CBN])
    def test_a_term_on_a_cycle(self, calculus):
        # after Omega's trace, its reduct (x x)[x\w.w w] is known with
        # bound 2 (once round the cycle), not 1; the term below reaches
        # it in 2 steps and decides at step 4
        self._too_late(calculus, OMEGA_LOOP, rf"(\y.(x x)[x\{DELTA}]) z", 3)

    @pytest.mark.parametrize("calculus", [CBV, CBN])
    def test_a_term_before_a_cycle(self, calculus):
        # (\y.Omega) z, two steps before its cycle, decides at step 4;
        # the term below reaches it in 2 steps and decides at step 6
        learned = rf"(\y.{OMEGA_LOOP}) z"
        self._too_late(calculus, learned, rf"(\u.{learned}) v", 5)


def _refuse_canonical(monkeypatch):
    """Make canonical raise under every strata module name that holds it."""

    def refuse(t):
        raise AssertionError("canonical was called")

    original = strata.terms.canonical
    for name, module in list(sys.modules.items()):
        if name == "strata" or name.startswith("strata."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)


def test_no_program_path_builds_a_canonical_key(monkeypatch):
    _refuse_canonical(monkeypatch)
    assert normalize(parse(OMEGA_LOOP), CBV, 0.0, 20).outcome == "cycle"
    oracle = Oracle(CBV, 40)
    assert alpha_eq(meaningful_approximant(parse(rf"x (\y.{OMEGA_LOOP})"), oracle),
                    parse(r"x (\y.bot)"))
    report = stratified_genericity_check(
        parse(OMEGA_LOOP), parse_context(r"(\y.\i.i) (\z.@)"), parse(ID),
        CBV, 0.0, fuel=40)
    assert report.status == OK
    j = judge(parse(rf"({ID}) ({ID})"), parse(r"\j.j"), CBV, 40)
    assert j[LAMBDA].certificate.kind == "common-reduct"
    assert reverify(j, 40)


def _one_row(*terms):
    """The terms, asserted to share one fingerprint, so that only their
    free names and alpha_eq can tell them apart in an AlphaTable."""
    assert len({t.fp for t in terms}) == 1
    return terms


class TestAlphaTable:
    """Every case is checked within one fingerprint: the terms of each
    case differ only in names."""

    def test_alpha_variants_share_a_value(self):
        entries = _one_row(parse(r"\a.\b.a (b x)"), parse(r"\a.\b.b (a x)"))
        table = AlphaTable(zip(entries, (1, 2)))
        same, swapped, other = _one_row(
            parse(r"\c.\d.c (d x)"), parse(r"\c.\d.d (c x)"), parse(r"\c.\d.c (d y)"))
        assert table.get(same) == 1
        assert table.get(swapped) == 2
        assert table.get(other) is None

    @pytest.mark.parametrize("left,right", [
        (parse("x"), parse("y")),
        (parse("x y"), parse("y x")),
        (parse(r"\a.\b.a"), parse(r"\a.\b.b")),
        (parse(r"(a y)[a\z]"), parse(r"(z y)[a\z]")),
    ])
    def test_distinct_terms_are_kept_apart(self, left, right):
        _one_row(left, right)
        table = AlphaTable([(left, "left")])
        assert table.get(right) is None
        table.add(right, "right")
        assert (table.get(left), table.get(right)) == ("left", "right")

    def test_names_alone_tell_the_first_three_pairs_apart(self):
        for left, right in (("x", "y"), ("x y", "y x"), (r"\a.\b.a", r"\a.\b.b")):
            _one_row(parse(left), parse(right))


# plugged into every context of enumerate_contexts(4), whose free names
# x and y give terms that differ only in free names, and so share a
# fingerprint
MEANINGLESS_FILLERS = (OMEGA_LOOP, GROWER, rf"\z.{OMEGA_LOOP}")
CORPUS_FUEL = 60


def _first_repeat(t, calculus, fuel):
    """The reference cycle check, by canonical keys: the index of the
    earlier term that the first repeated one repeats, and the number of
    steps taken to reach it; None when no term repeats."""
    index = {canonical(t): 0}
    for n in range(1, fuel + 1):
        step = reduce_once(t, calculus, 0.0)
        if step is None:
            return None
        t = step.after
        key = canonical(t)
        if key in index:
            return index[key], n
        index[key] = n
    return None


@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_meaningless_corpus_shared_oracle_answers_as_fresh_ones(calculus):
    contexts = list(enumerate_contexts(4))
    assert len(contexts) == 48
    shared = Oracle(calculus, CORPUS_FUEL)
    tally = {MEANINGFUL: 0, MEANINGLESS: 0, UNKNOWN: 0}
    for ctx in contexts:
        for filler in MEANINGLESS_FILLERS:
            t = plug(ctx, parse(filler))
            fresh = Oracle(calculus, CORPUS_FUEL).meaning(t)
            report = shared.meaning(t)
            assert report.status == fresh.status, (ctx, filler)
            tally[fresh.status] += 1
            if fresh.status != MEANINGLESS:
                continue
            # the shared witness may be the trace of an alpha-variant
            for cycle in (fresh.witness, report.witness):
                assert alpha_eq(cycle.terms[cycle.cycle_start], cycle.final), (ctx, filler)
                assert _first_repeat(cycle.start, calculus, CORPUS_FUEL) == (
                    cycle.cycle_start, len(cycle.steps)), (ctx, filler)
    assert tally == {
        CBV: {MEANINGFUL: 89, MEANINGLESS: 30, UNKNOWN: 25},
        CBN: {MEANINGFUL: 57, MEANINGLESS: 58, UNKNOWN: 29},
    }[calculus]


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
        assert alpha_eq(a, parse("bot"))

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
        a = meaningful_approximant(parse(rf"x y (\x.{GROWER})"), Oracle(CBV, 40))
        assert a.position == ("r", "b")

    @pytest.mark.parametrize("calculus,tests", [(CBV, 1), (CBN, 801)])
    def test_bot_test_runs_once_per_level_0_region(self, monkeypatch, calculus, tests):
        # by value the 800-argument spine is one level-0 region; by name
        # each argument is a region of its own
        calls = []
        real = strata.approx.has_bot_within
        monkeypatch.setattr(strata.approx, "has_bot_within",
                            lambda *args: calls.append(args) or real(*args))
        t = parse("f " + " ".join(["x"] * 800))
        assert meaningful_approximant(t, Oracle(calculus)) is t
        assert len(calls) == tests


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
        t = parse(rf"x (\z.{OMEGA_LOOP}) (\y.y y)")
        a = meaningful_approximant(t, cbv_oracle)
        assert alpha_eq(a, parse(r"x (\z.bot) (\y.y y)"))
        assert a.arg is t.arg
        u = parse(r"\x.x (\y.y)")
        assert meaningful_approximant(u, cbv_oracle) is u

    @pytest.mark.parametrize("text,level,asks", [
        # only the new root: the contractum i[i\z] sits at its level 0
        (rf"x (\y.y) (({ID}) z)", 0.0, 1),
        # the new root, and the contractum across the binder
        (rf"x (\y.({ID}) z)", 1.0, 2),
    ], ids=["at-level-0", "across-a-binder"])
    def test_a_step_asks_only_about_the_nodes_it_rebuilt(self, monkeypatch, text, level, asks):
        oracle = Oracle(CBV, 40)
        step = reduce_once(parse(text), CBV, level)
        meaningful_approximant(step.before, oracle)
        asked = []
        status = Oracle.status
        monkeypatch.setattr(Oracle, "status",
                            lambda self, t: asked.append(t) or status(self, t))
        meaningful_approximant(step.after, oracle)
        assert len(asked) == asks
        meaningful_approximant(step.after, oracle)
        assert len(asked) == asks


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


def _plain_approximant(t, oracle, pos=()):
    """A(t) from the definition alone, asking the oracle at every node;
    Undetermined at the first undecided node in the order
    meaningful_approximant visits them."""
    status = oracle.status(t)
    if status == UNKNOWN:
        return Undetermined(pos)
    if status == MEANINGLESS:
        return BOT
    match t:
        case Abs(x, b):
            children, build = [("b", b)], lambda b: Abs(x, b)
        case App(f, a):
            children, build = [("l", f), ("r", a)], App
        case Es(b, x, a):
            children, build = [("s", b), ("e", a)], lambda b, a: Es(b, x, a)
        case _:
            return t
    hats = []
    for edge, child in children:
        hat = _plain_approximant(child, oracle, pos + (edge,))
        if isinstance(hat, Undetermined):
            return hat
        hats.append(hat)
    return build(*hats)


class TestRegionRule:
    """meaningful_approximant asks the oracle once per level-0 region:
    by rule (b), every level-0 subterm of a meaningful node is
    meaningful."""

    @pytest.mark.parametrize("calculus", [CBV, CBN])
    def test_it_agrees_with_asking_at_every_node(self, calculus):
        # the growing term, in the shapes of the gate fillers, leaves
        # parts undecided at this fuel
        growers = (GROWER, rf"\z.{GROWER}", rf"x ({GROWER})")
        fillers = [parse(f) for f in GATE_FILLERS + growers]
        terms = list(enumerate_terms(6))
        terms += [plug(ctx, f) for ctx in enumerate_contexts(4) for f in fillers]
        region, plain = Oracle(calculus, 30), Oracle(calculus, 30)
        undetermined = 0
        for t in terms:
            a, b = meaningful_approximant(t, region), _plain_approximant(t, plain)
            assert _same_approximant(a, b), show(t)
            undetermined += isinstance(a, Undetermined)
        assert (len(terms), undetermined) == (2096, 144)

    @pytest.mark.parametrize("calculus,text,asks", [
        # the root and the body of each \i.i: the arguments sit at the
        # root's level 0, the bodies across a binder
        (CBV, rf"x (({ID}) z) (({ID}) w)", 3),
        # the root and each of the three arguments, which sit at level 1
        # by name
        (CBN, rf"({ID}) x (({ID}) z)", 4),
    ])
    def test_oracle_questions(self, monkeypatch, calculus, text, asks):
        asked = []
        status = Oracle.status
        monkeypatch.setattr(Oracle, "status",
                            lambda self, t: asked.append(t) or status(self, t))
        meaningful_approximant(parse(text), Oracle(calculus, 40))
        assert len(asked) == asks


class TestApproximateStep:
    def test_step_inside_a_pruned_zone_collapses(self, cbv_oracle):
        s = reduce_once(parse(OMEGA_LOOP), CBV, 0.0)
        out = approximate_step(s, cbv_oracle)
        assert out is None and meaningful_approximant(s.before, cbv_oracle) == BOT

    def test_faithful_step_maps_exactly(self, cbv_oracle):
        s = reduce_once(parse(rf"({ID}) ({ID})"), CBV, 0.0)
        out = approximate_step(s, cbv_oracle)
        assert isinstance(out, Step)
        assert alpha_eq(out.after, parse(rf"x[x\{ID}]"))
        assert alpha_eq(out.after, meaningful_approximant(s.after, cbv_oracle))

    def test_substitution_step_may_over_approximate(self, cbv_oracle):
        s = reduce_once(parse(rf"(x (\y.z ({DELTA})))[z\{DELTA}]"), CBV, 0.0)
        out = approximate_step(s, cbv_oracle)
        assert isinstance(out, Step)
        assert alpha_eq(out.after, parse(rf"x (\y.{OMEGA_LOOP})"))
        after_hat = meaningful_approximant(s.after, cbv_oracle)
        assert alpha_eq(after_hat, parse(r"x (\y.bot)"))
        assert partial_leq(after_hat, out.after) and not alpha_eq(after_hat, out.after)

    def test_mapped_target_always_refines(self, cbv_oracle):
        t = parse(rf"(\y.{ID}) (\z.{OMEGA_LOOP})")
        trace = normalize(t, CBV, 0.0)
        for s in trace.steps:
            out = approximate_step(s, cbv_oracle)
            if isinstance(out, Step):
                hat = meaningful_approximant(s.after, cbv_oracle)
                assert partial_leq(hat, out.after)

    def test_a_redex_that_does_not_survive_is_refused(self, cbv_oracle):
        # (\x.x) y is its own approximant, with a dB redex at the root
        s = Step(parse(rf"({ID}) y"), parse("y"), (), SV, 0.0)
        with pytest.raises(AssertionError) as exc:
            approximate_step(s, cbv_oracle)
        assert str(exc.value) == \
            "redex did not survive in the approximant of a meaningful prefix"

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

    def test_a_redex_that_vanishes_is_refused(self):
        s = Step(BOT, BOT, (), DB, 0.0)
        with pytest.raises(AssertionError) as exc:
            lift_step(s, parse("x"), CBV)  # x refines bot, but holds no redex
        assert str(exc.value) == "redex vanished under refinement"

    def test_lift_trace_chains(self, cbv_oracle):
        t = parse(rf"(\y.{ID}) (\z.{OMEGA_LOOP})")
        trace = normalize(t, CBV, 0.0)
        partial = []
        for s in trace.steps:
            out = approximate_step(s, cbv_oracle)
            if isinstance(out, Step):
                partial.append(out)
        lifted = lift_trace(partial, parse(rf"(\y.{ID}) (\z.z)"), CBV)
        assert len(lifted) == len(partial) == 2
        assert alpha_eq(lifted[-1].after, parse(ID))
