"""End-to-end genericity pipeline: replacing a meaningless subterm by
anything else must not change the observable outcome, and the
randomized campaigns backing that claim must produce replayable
certificates when they fail."""

from collections import Counter

import pytest

from strata import (
    CBN,
    CBV,
    DEFAULT_PROBES,
    OMEGA,
    Oracle,
    Undetermined,
    alpha_eq,
    axiom_suite,
    normalize,
    parse_context,
    reproduce_violation,
    show,
    stratified_genericity_check,
)
from strata import genericity
from strata.corpus import enumerate_contexts, enumerate_terms
from strata.reduce import step_to_dict
from strata.terms import bot_positions, hole_positions, level_of, plug, replace_at, subterms

from conftest import ID, OMEGA_LOOP, p

PROBES = ["x", ID, r"\w.w w", "y z"]
BOT_WITHIN = "the normal form of C<t> has a bot at this level or above"


class TestPipeline:
    @pytest.mark.parametrize("level", [0.0, 1.0, 2.0])
    def test_value_guarded_erasing_context(self, cbv_oracle, level):
        ctx = parse_context(rf"(\y.{ID}) (\z.@)")
        for probe in PROBES:
            r = stratified_genericity_check(
                p(OMEGA_LOOP), ctx, p(probe), CBV, level, cbv_oracle)
            assert r.status == "ok", r.detail
            assert alpha_eq(r.lifted_t_end, r.lifted_u_end) or level < OMEGA

    @pytest.mark.parametrize("ctx_text", [rf"(\y.{ID}) @", rf"\x.x ({ID}) @"])
    def test_by_name_erasing_and_frozen_contexts(self, cbn_oracle, ctx_text):
        for probe in PROBES:
            r = stratified_genericity_check(
                p(OMEGA_LOOP), parse_context(ctx_text), p(probe), CBN, 0.0,
                cbn_oracle)
            assert r.status == "ok", r.detail

    @pytest.mark.parametrize("ctx_text, fuel, detail", [
        (r"(\y.\i.i) (\z.@) ((\x.x x x) (\x.x x x))", 40,
         "approximant of C<t> undetermined"),
        (r"(\y.\i.i) (\z.@)", 1, "normalization of C<t> ran out of fuel"),
        # the target of a step has an undetermined approximant
        (r"(\y.(\a.\v.a a a) (\x.x x x)) (\z.@)", 40, "a step could not be approximated"),
    ])
    def test_each_undecided_part_is_unknown(self, ctx_text, fuel, detail):
        r = stratified_genericity_check(p(OMEGA_LOOP), parse_context(ctx_text), p("y"),
                                        CBV, 0.0, Oracle(CBV, 40), fuel)
        assert (r.status, r.detail) == ("unknown", detail)

    def test_unguarded_by_value_context_is_vacuous(self, cbv_oracle):
        # by value the diverging argument must be evaluated, so the
        # plugged term has no normal form and the claim holds vacuously
        r = stratified_genericity_check(
            p(OMEGA_LOOP), parse_context(rf"(\y.{ID}) @"), p("x"), CBV, 0.0,
            cbv_oracle)
        assert r.status == "vacuous"

    @pytest.mark.parametrize("filler, ctx_text, level, calculus, status, detail", [
        (OMEGA_LOOP, r"(\z.bot) @", 0.0, CBN, "vacuous", BOT_WITHIN),
        ("bot", "@", 0.0, CBV, "vacuous", BOT_WITHIN),
        ("x bot", r"\z.@", 1.0, CBV, "vacuous", BOT_WITHIN),
        (r"\z.bot", "@", 0.0, CBN, "vacuous", BOT_WITHIN),
        (OMEGA_LOOP, r"bot (\z.@)", 0.0, CBV, "vacuous", BOT_WITHIN),
        (OMEGA_LOOP, rf"(\y.{ID}) @", 0.0, CBV, "vacuous",
         "C<t> has no normal form at this level"),
        ("x bot", r"\z.@", 0.0, CBV, "ok", ""),
    ])
    def test_a_normal_form_with_a_bot_within_the_level_is_vacuous(
            self, filler, ctx_text, level, calculus, status, detail):
        # a level-k normal form of the partial calculus has no bot at
        # level k or above: one that does is not the theorem's hypothesis,
        # and neither is a cycle, each with its own detail
        r = stratified_genericity_check(p(filler), parse_context(ctx_text), p("y"),
                                        calculus, level, Oracle(calculus, 200))
        assert (r.status, r.detail) == (status, detail)

    @pytest.mark.parametrize("name, wrong, detail", [
        ("is_bno", lambda *a: False,
         "partial endpoint is not a partial normal form at this level"),
        ("partial_leq", lambda *a: False, "approximant of C<t> does not sit below C<u>"),
        ("is_normal", lambda *a: False, "lifted C<t> endpoint is not normal"),
        ("classify_nf", lambda *a: genericity.NOT_NF,
         "lifted C<u> endpoint escapes the normal-form grammar"),
        ("strat_eq", lambda *a: False, "endpoints differ below the observation level"),
    ])
    def test_a_wrong_checker_makes_the_check_violated(self, monkeypatch, name, wrong, detail):
        # a case the gate answers ok, with one of the checks it rests on
        # made to answer wrongly
        def check():
            return stratified_genericity_check(
                p(OMEGA_LOOP), parse_context(rf"(\y.{ID}) (\z.@)"), p("x"), CBV, OMEGA,
                Oracle(CBV, GATE_FUEL), GATE_FUEL)

        assert check().status == "ok"
        monkeypatch.setattr(genericity, name, wrong)
        r = check()
        assert (r.status, r.detail) == ("violated", detail)

    def test_meaningful_seed_is_rejected(self, cbv_oracle):
        r = stratified_genericity_check(
            p(ID), parse_context(rf"(\y.{ID}) (\z.@)"), p("x"), CBV, 0.0,
            cbv_oracle)
        assert r.status == "inapplicable"
        assert "meaningful" in r.detail

    def test_undecidable_seed_is_unknown(self):
        oracle = Oracle(CBV, 40)
        r = stratified_genericity_check(
            p(r"(\x.x x x) (\x.x x x)"), parse_context(rf"(\y.{ID}) (\z.@)"),
            p("x"), CBV, 0.0, oracle)
        assert r.status == "unknown"

    def test_report_carries_the_partial_reduction(self, cbv_oracle):
        ctx = parse_context(rf"(\y.{ID}) (\z.@)")
        r = stratified_genericity_check(p(OMEGA_LOOP), ctx, p("x"), CBV,
                                        0.0, cbv_oracle)
        assert r.approximant is not None
        assert r.partial_steps and alpha_eq(r.partial_end, p(ID))
        assert alpha_eq(r.lifted_u_end, p(ID))


class TestAxiomCampaign:
    @pytest.mark.parametrize("calculus", [CBV, CBN])
    def test_small_campaign_is_clean(self, calculus):
        report = axiom_suite(calculus, n=300, seed=7)
        assert report.ok, report.violations
        assert report.calculus == calculus
        assert all(count > 0 for count in report.checked.values())

    @pytest.mark.parametrize("calculus", [CBV, CBN])
    def test_refinements_meet_bots(self, calculus, monkeypatch):
        # assumptions 2 and 4 say something only where a refinement has
        # a bot to fill: count the refinements that meet one
        met = []
        bot_positions = genericity.bot_positions

        def counting(t):
            positions = bot_positions(t)
            met.append(bool(positions))
            return positions

        monkeypatch.setattr(genericity, "bot_positions", counting)
        report = axiom_suite(calculus, n=800, seed=0)
        assert report.ok, report.violations
        assert sum(met) >= 10, (sum(met), len(met))

    @pytest.mark.parametrize("kind,law,count", [
        ("approximate", "approximate_step", "steps"),
        ("lift", "lift_step", "lifts"),
        ("bno", "is_bno", "approximants"),
        ("refinement", "strat_eq", "refinements"),
    ])
    @pytest.mark.parametrize("calculus", [CBV, CBN])
    def test_a_failing_law_is_recorded_and_replays(self, calculus, kind, law, count,
                                                   monkeypatch):
        # each law made to fail everywhere: every check of it is a
        # violation of its kind, and each replays as one
        def fails(*args):
            if law in ("is_bno", "strat_eq"):
                return False
            raise AssertionError(f"{law} fails")

        monkeypatch.setattr(genericity, law, fails)
        report = axiom_suite(calculus, n=200, seed=7)
        found = [v for v in report.violations if v["kind"] == kind]
        assert not report.ok and found == report.violations
        assert report.checked["steps"] > 0
        if kind == "lift":  # a lift is counted only when it holds
            assert report.checked["lifts"] == 0
        else:
            assert len(found) == report.checked[count]
        assert all(v["calculus"] == calculus for v in found)
        assert all(reproduce_violation(v) is True for v in found)

    @pytest.mark.parametrize("calculus", [CBV, CBN])
    def test_undetermined_checks_are_skipped_uncounted(self, calculus, monkeypatch):
        # at oracle fuel 1 many steps and normal forms are undetermined:
        # each is skipped, and only the decided ones are counted
        results = {"approximate_step": [], "meaningful_approximant": []}
        for law, seen in results.items():
            def counting(*args, law=getattr(genericity, law), seen=seen):
                seen.append(law(*args))
                return seen[-1]
            monkeypatch.setattr(genericity, law, counting)
        monkeypatch.setattr(genericity, "AXIOM_FUEL", 1)
        report = axiom_suite(calculus, 300, 0)
        assert report.ok, report.violations
        for law, count in (("approximate_step", "steps"),
                           ("meaningful_approximant", "approximants")):
            skipped = sum(isinstance(r, Undetermined) for r in results[law])
            assert skipped > 0, law
            assert report.checked[count] == len(results[law]) - skipped, law

    def test_seeded_campaigns_are_reproducible(self):
        a = axiom_suite(CBV, n=100, seed=3)
        b = axiom_suite(CBV, n=100, seed=3)
        assert a.checked == b.checked and a.violations == b.violations


class TestCertificateReplay:
    def _step_cert(self, kind, calculus, text, level=0.0):
        trace = normalize(p(text), calculus, level, 400)
        step = trace.steps[0]
        return {"kind": kind, "calculus": calculus,
                "step": step_to_dict(step)}, step

    def test_true_violations_replay_as_real(self):
        # a fabricated "lift" certificate whose target is not a
        # refinement of the source really does fail again
        cert, step = self._step_cert("lift", CBV, rf"({ID}) ({ID})")
        cert["refined"] = show(p("x y"))
        assert reproduce_violation(cert) is True

    @pytest.mark.parametrize("kind", ["lift", "approximate"])
    @pytest.mark.parametrize("step", [
        # y, at position rr, has no children
        {"before": rf"({ID}) y", "after": "y", "position": "rr", "rule": "dB",
         "level": "0"},
        # the root's dB redex, with a target that is not its contraction
        {"before": rf"({ID}) y", "after": "y", "position": "", "rule": "dB",
         "level": "0"},
    ])
    def test_a_certificate_whose_step_does_not_decode_is_an_error(self, kind, step):
        cert = {"kind": kind, "calculus": CBV, "step": step, "refined": rf"({ID}) y"}
        with pytest.raises(ValueError, match="does not match a redex"):
            reproduce_violation(cert)

    def test_refinement_certificates_replay(self):
        # x refined to y is no refinement at omega: the failure recurs;
        # x bot refined to x y is, by name at level 0
        true = {"kind": "refinement", "calculus": CBV, "level": OMEGA,
                "term": "x", "refined": "y"}
        sound = {"kind": "refinement", "calculus": CBN, "level": 0.0,
                 "term": "x bot", "refined": "x y"}
        assert reproduce_violation(true) is True
        assert reproduce_violation(sound) is False

    def test_an_unknown_kind_is_an_error(self):
        with pytest.raises(ValueError, match="unknown violation kind: typo"):
            reproduce_violation({"kind": "typo", "calculus": CBV})

    def test_sound_steps_replay_as_non_violations(self):
        cert, step = self._step_cert("approximate", CBV, rf"({ID}) ({ID})")
        assert reproduce_violation(cert) is False
        # a step lifts onto its own source, which refines itself
        cert, step = self._step_cert("lift", CBV, rf"({ID}) ({ID})")
        cert["refined"] = show(step.before)
        assert reproduce_violation(cert) is False

        bno_cert = {"kind": "bno", "calculus": CBN, "level": 0.0,
                    "term": show(p(r"x (\y.y)"))}
        assert reproduce_violation(bno_cert) is False


# The genericity theorem as an exhaustive gate: every small context,
# five fillers, three observation levels and the default probes.  The
# fillers are Omega, which is meaningless in both calculi, a guarded
# Omega, meaningless by name only, and an applied Omega, meaningless by
# value only: where a filler is meaningful the theorem does not apply.
# The last two are meaningless in both calculi though made of meaningful
# parts (an abstraction, an identity): their approximant is bot, not a
# shape over those parts.
GATE_FILLERS = (OMEGA_LOOP, rf"\z.{OMEGA_LOOP}", rf"x ({OMEGA_LOOP})",
                rf"(\x.x ({OMEGA_LOOP})) (\y.{OMEGA_LOOP})", rf"({ID}) ({OMEGA_LOOP})")
GATE_LEVELS = (0.0, 1.0, OMEGA)
GATE_FUEL = 60


def _sits_under_a_bot(report, ctx):
    """Some prefix of the hole's position in ctx is a bot position of the
    approximant of the plugged context."""
    hole, bots = hole_positions(ctx)[0], set(bot_positions(report.approximant))
    return any(hole[:i] in bots for i in range(len(hole) + 1))


def _tally(oracle, fillers, contexts, probes):
    """The statuses of every check of a filler in a context at each gate
    level with each probe.  None is violated, and in every ok one the
    hole sits under a bot of the approximant."""
    tally = Counter()
    for filler in fillers:
        for ctx in contexts:
            for level in GATE_LEVELS:
                for u in probes:
                    r = stratified_genericity_check(
                        filler, ctx, u, oracle.calculus, level, oracle, GATE_FUEL)
                    assert r.status != "violated", (show(filler), show(ctx, rename=False),
                                                    show(u), level, r.detail)
                    assert r.status != "ok" or _sits_under_a_bot(r, ctx)
                    tally[r.status] += 1
    return dict(tally)


def _gate_tallies(calculus, max_context_size):
    contexts = list(enumerate_contexts(max_context_size))
    probes = [p(u) for u in DEFAULT_PROBES]
    return {filler: _tally(Oracle(calculus, GATE_FUEL), [p(filler)], contexts, probes)
            for filler in GATE_FILLERS}


OMEGA_BY_VALUE = {"ok": 735, "vacuous": 3390}
OMEGA_BY_NAME = {"ok": 1580, "vacuous": 2545}
ALL_INAPPLICABLE = {"inapplicable": 4125}


@pytest.mark.parametrize("calculus, expected", [
    (CBV, [OMEGA_BY_VALUE, ALL_INAPPLICABLE, OMEGA_BY_VALUE, OMEGA_BY_VALUE,
           OMEGA_BY_VALUE]),
    (CBN, [OMEGA_BY_NAME, OMEGA_BY_NAME, ALL_INAPPLICABLE, OMEGA_BY_NAME,
           OMEGA_BY_NAME]),
])
def test_genericity_holds_in_every_context_of_size_5(calculus, expected):
    assert _gate_tallies(calculus, 5) == dict(zip(GATE_FILLERS, expected))


@pytest.mark.slow
@pytest.mark.parametrize("calculus, expected", [
    (CBV, [{"ok": 5215, "vacuous": 17075}, {"inapplicable": 22290},
           {"ok": 5215, "vacuous": 17075}, {"ok": 5215, "vacuous": 17075},
           {"ok": 5215, "vacuous": 17075}]),
    (CBN, [{"ok": 9725, "vacuous": 12565}, {"ok": 9725, "vacuous": 12565},
           {"inapplicable": 22290}, {"ok": 9725, "vacuous": 12565},
           {"ok": 9725, "vacuous": 12565}]),
])
def test_genericity_holds_in_every_context_of_size_6(calculus, expected):
    assert _gate_tallies(calculus, 6) == dict(zip(GATE_FILLERS, expected))


# ROADMAP item 2, rule (b): a term with a meaningless subterm at a
# level-0 position is meaningless.  In every context whose hole sits at
# level 0, each gate filler that the oracle finds meaningless plugs to a
# meaningless term; holes deeper down are tallied too, where a plugging
# may be meaningful.
def _surface_context_tally(calculus, max_context_size):
    oracle = Oracle(calculus, GATE_FUEL)
    mute = [f for f in map(p, GATE_FILLERS) if oracle.status(f) == "meaningless"]
    tally = Counter()
    for ctx in enumerate_contexts(max_context_size):
        where = "deeper" if level_of(hole_positions(ctx)[0], calculus) else "level 0"
        for filler in mute:
            status = oracle.status(plug(ctx, filler))
            assert where == "deeper" or status == "meaningless", (
                show(filler), show(ctx, rename=False))
            tally[where, status] += 1
    return dict(tally)


@pytest.mark.parametrize("calculus, expected", [
    (CBV, {("level 0", "meaningless"): 720,
           ("deeper", "meaningful"): 360, ("deeper", "meaningless"): 20}),
    (CBN, {("level 0", "meaningless"): 420,
           ("deeper", "meaningful"): 560, ("deeper", "meaningless"): 120}),
])
def test_a_mute_filler_at_level_0_mutes_every_context_of_size_5(calculus, expected):
    assert _surface_context_tally(calculus, 5) == expected


@pytest.mark.slow
@pytest.mark.parametrize("calculus, expected", [
    (CBV, {("level 0", "meaningless"): 2784,
           ("deeper", "meaningful"): 2864, ("deeper", "meaningless"): 296}),
    (CBN, {("level 0", "meaningless"): 1984,
           ("deeper", "meaningful"): 3304, ("deeper", "meaningless"): 656}),
])
def test_a_mute_filler_at_level_0_mutes_every_context_of_size_6(calculus, expected):
    assert _surface_context_tally(calculus, 6) == expected


# A census of meaningless fillers: every term of enumerate_terms(5) with
# one non-root position replaced by Omega, kept where the oracle finds
# it meaningless, checked in every context of enumerate_contexts(4).
@pytest.mark.slow
@pytest.mark.parametrize("calculus, fillers, expected", [
    (CBV, 667, {"ok": 19343, "vacuous": 76705}),
    (CBN, 787, {"ok": 33841, "vacuous": 79487}),
])
def test_genericity_holds_for_every_omega_planted_filler(calculus, fillers, expected):
    oracle = Oracle(calculus, GATE_FUEL)
    planted = [replace_at(t, pos, p(OMEGA_LOOP))
               for t in enumerate_terms(5) for pos, _ in subterms(t) if pos]
    mute = [t for t in planted if oracle.status(t) == "meaningless"]
    assert len(mute) == fillers
    assert _tally(oracle, mute, list(enumerate_contexts(4)), [p("x")]) == expected
