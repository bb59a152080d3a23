"""Judging term pairs against the three equational theories:
plain conversion, the theory that equates all mute (meaningless)
terms, and the observational theory."""

import itertools
import random

import pytest

from strata import (
    CBN,
    CBV,
    H,
    HSTAR,
    LAMBDA,
    OMEGA,
    THEORIES,
    Oracle,
    alpha_eq,
    falsify_observational,
    judge,
    normalize,
    parse_context,
    plug,
    reverify,
    show,
)
from strata.approx import MEANINGFUL, MEANINGLESS, UNKNOWN
from strata.corpus import enumerate_contexts, random_term
from strata.terms import replace_at
from strata.theories import (_CONTEXT_BINDER, CONTEXT_FUEL, CONTEXT_SIZE, Certificate,
                             Judgment, Verdict, _classes, _contexts)

from conftest import DELTA, ID, OMEGA_LOOP, p


class TestJudgments:
    def test_convertible_pair_is_equal_everywhere(self, ):
        j = judge(p(rf"({ID}) ({ID})"), p(ID), CBV)
        for th in THEORIES:
            assert j[th].result == "equal"
        assert j[LAMBDA].certificate.kind == "common-reduct"
        assert reverify(j)

    def test_interconvertible_mute_terms_are_equal_everywhere(self):
        j = judge(p(OMEGA_LOOP), p(rf"(x x)[x\{DELTA}]"), CBV)
        for th in THEORIES:
            assert j[th].result == "equal"
        assert reverify(j)

    def test_mute_terms_with_different_shapes_merge_beyond_conversion(self):
        # x applied to a loop is as meaningless as the loop itself by
        # value, but the two never reduce to a common term
        j = judge(p(OMEGA_LOOP), p(rf"x ({OMEGA_LOOP})"), CBV)
        assert j[LAMBDA].result == "unknown"
        assert j[H].result == "equal" and j[HSTAR].result == "equal"
        assert j[H].certificate.kind == "both-meaningless"
        assert reverify(j)

    def test_distinct_normal_forms_split_mute_from_observational(self):
        j = judge(p(ID), p(r"\x.\y.x y"), CBV)
        assert j[LAMBDA].result == "not-equal"
        assert j[H].result == "not-equal"
        assert j[H].certificate.kind == "distinct-normal-forms"
        # distinct normal forms alone do not refute observational
        # equivalence; without a separating context the judge abstains
        assert j[HSTAR].result == "unknown"
        assert reverify(j)

    def test_meaningfulness_separation_refutes_mute_and_observational(self):
        j = judge(p(ID), p(OMEGA_LOOP), CBV)
        assert j[H].result == "not-equal"
        assert j[HSTAR].result == "not-equal"
        assert j[HSTAR].certificate.kind in (
            "meaningfulness-separation", "context-witness")
        assert reverify(j)

    @pytest.mark.parametrize("calculus", [CBV, CBN])
    def test_judgments_exist_in_both_calculi(self, calculus):
        j = judge(p(ID), p(ID), calculus)
        assert j.calculus == calculus
        assert all(j[th].result == "equal" for th in THEORIES)


class TestContextSearch:
    def test_trivial_hole_separates_a_value_from_a_loop(self):
        ctx = falsify_observational(p(ID), p(OMEGA_LOOP), CBV)
        assert ctx is not None
        # plugging really does separate: one side normalizes, not the other
        from strata import Oracle
        oracle = Oracle(CBV, 400)
        statuses = {oracle.status(plug(ctx, p(ID))),
                    oracle.status(plug(ctx, p(OMEGA_LOOP)))}
        assert statuses == {"meaningful", "meaningless"}

    @pytest.mark.parametrize("calculus", [CBV, CBN])
    def test_distinct_normal_forms_with_a_separating_context(self, calculus):
        j = judge(p(r"\x.x x"), p(r"\x.x"), calculus)
        assert j[LAMBDA].certificate.kind == "distinct-normal-forms"
        assert j[H].certificate.kind == "distinct-normal-forms"
        assert (j[HSTAR].result, j[HSTAR].certificate.kind) == ("not-equal", "context-witness")
        assert show(j[HSTAR].certificate.data["context"], rename=False) == r"(b0 b0)[b0\@]"
        assert reverify(j)

    def test_a_context_separates_where_nothing_else_decides(self):
        # by value, both abstractions are meaningful and \z.Ω has no
        # normal form at omega: only a context tells them apart
        j = judge(p(rf"\z.{OMEGA_LOOP}"), p(r"\z.z"), CBV)
        assert j[LAMBDA].result == "unknown"
        for th in (H, HSTAR):
            assert (j[th].result, j[th].certificate.kind) == ("not-equal", "context-witness")
        assert show(j[HSTAR].certificate.data["context"], rename=False) == "@ x"
        assert reverify(j)

    def test_no_witness_for_identical_terms(self):
        assert falsify_observational(p(ID), p(ID), CBV) is None

    @pytest.mark.parametrize("calculus", [CBV, CBN])
    def test_the_certificate_records_the_plugged_normal_forms(self, calculus):
        j = judge(p(rf"({ID}) (\x.x x)"), p(r"(\x.x) (\x.x)"), calculus)
        data = j[HSTAR].certificate.data
        assert alpha_eq(data["left"], p(r"\x.x x"))
        assert alpha_eq(data["right"], p(r"\x.x"))
        assert reverify(j)


def reference_search(t, u, calculus):
    """The separating-context search in its plainest form: every
    context, with the terms plugged as given."""
    oracle = Oracle(calculus, CONTEXT_FUEL)
    for ctx in enumerate_contexts(CONTEXT_SIZE):
        if {oracle.status(plug(ctx, t)), oracle.status(plug(ctx, u))} == {MEANINGFUL, MEANINGLESS}:
            return ctx
    return None


def judge_search(t, u, calculus):
    """The search as judge runs it, on the normal form of each side
    that has one."""
    def plugged(s):
        tr = normalize(s, calculus, OMEGA)
        return tr.final if tr.outcome == "normal" else s
    return falsify_observational(plugged(t), plugged(u), calculus)


def assert_same_witnesses(pairs, calculus) -> int:
    """The judge's search finds the reference's witness, or none where
    it finds none, on every pair; returns how many witnesses."""
    found = 0
    for left, right in pairs:
        t, u = p(left), p(right)
        expected, got = reference_search(t, u, calculus), judge_search(t, u, calculus)
        if expected is None:
            assert got is None, (left, right)
        else:
            assert got is not None and alpha_eq(got, expected), (left, right)
            found += 1
    return found


def _church(n):
    return r"\f.\x." + "f (" * n + "x" + ")" * n


ADD_1_1 = rf"(\m.\n.\f.\x.m f (n f x)) ({_church(1)}) ({_church(1)})"
# small terms without self-application, as the benchmark judges
POOL = ["x", "y", "x y", "y x", r"x (\z.z)", r"\z.x", r"\x.x", r"\x.\y.x",
        r"\x.\y.y", r"\x.x y", r"\x.y x", r"\f.\x.f x", r"\x.\y.x y",
        r"(\a.a) y", r"(z)[z\x]", r"(x z)[z\\a.a]"]
FILLERS = [OMEGA_LOOP, rf"\z.{OMEGA_LOOP}", rf"x ({OMEGA_LOOP})"]
FIXED_TERMS = FILLERS + [ADD_1_1, _church(2), _church(3),
                         r"\x.x", r"x (\z.z)", r"\x.\y.x", r"(\a.a) y"]


@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_the_search_finds_the_reference_witnesses_on_fixed_pairs(calculus):
    assert assert_same_witnesses(itertools.combinations(FIXED_TERMS, 2), calculus) > 0


@pytest.mark.slow
@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_the_search_finds_the_reference_witnesses_on_a_corpus(calculus):
    # 350 pairs per calculus in the benchmark's families: a term against
    # a loop applied to another, a loop against a loop applied to a
    # term, and two terms
    rng = random.Random(f"witnesses/{calculus}")
    pairs = []
    for _ in range(350):
        t, u = rng.sample(POOL + FILLERS, 2)
        pairs.append(rng.choice([(t, f"({u}) ({OMEGA_LOOP})"),
                                 (OMEGA_LOOP, f"({OMEGA_LOOP}) ({t})"), (t, u)]))
    assert assert_same_witnesses(pairs, calculus) > 0


# terms with a free name that context binders use, which a context can
# capture: the search then tries every member of a class
CAPTURED = [(rf"b0 ({DELTA}) ({DELTA})", "x"), (rf"b1 ({DELTA}) ({DELTA})", "x")]


@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_the_search_tries_every_member_of_a_class_on_captured_names(calculus):
    assert assert_same_witnesses(CAPTURED, calculus) > 0


@pytest.mark.parametrize("calculus,dead,classes,first_classes",
                         [(CBV, 90, 85, 49), (CBN, 140, 40, 28)])
def test_the_context_table(calculus, dead, classes, first_classes):
    groups = _classes(calculus)
    assert len(_contexts()) == len(groups) == 275
    assert groups.count(None) == dead
    assert len(set(groups) - {None}) == classes
    # the classes the search meets when it skips the second of each mirror pair
    assert len({group for (*_, first), group in zip(_contexts(), groups)
                if first and group is not None}) == first_classes


def assert_the_skip_rules_hold(terms, calculus):
    """In every context of the search: a dead context gives no term the
    status that its C<@> rules out (meaningless when C<@> reaches a
    normal form, meaningful when it cycles), and the members of a class
    give each term one status where the oracle decides it."""
    oracle = Oracle(calculus, CONTEXT_FUEL)
    table = [(ctx, hole, group) for (ctx, hole, _), group in zip(_contexts(), _classes(calculus))]
    ruled_out = {i: MEANINGFUL if normalize(ctx, calculus, 0.0, CONTEXT_FUEL).outcome == "cycle"
                 else MEANINGLESS
                 for i, (ctx, _, group) in enumerate(table) if group is None}
    for t in terms:
        assert not any(_CONTEXT_BINDER.fullmatch(x) for x in t.free)
        statuses = {}
        for i, (ctx, hole, group) in enumerate(table):
            status = oracle.status(replace_at(ctx, hole, t))
            if group is None:
                assert status != ruled_out[i], (show(t), show(ctx))
            elif status != UNKNOWN:
                assert statuses.setdefault(group, status) == status, (show(t), show(ctx))


@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_dead_contexts_and_classes_on_fixed_terms(calculus):
    assert_the_skip_rules_hold([p(s) for s in FIXED_TERMS + POOL], calculus)


@pytest.mark.slow
@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_dead_contexts_and_classes_on_random_terms(calculus):
    rng = random.Random(f"skip-rules/{calculus}")
    assert_the_skip_rules_hold([random_term(rng, rng.randint(2, 10)) for _ in range(500)],
                               calculus)


class TestCertificates:
    def test_every_certificate_describes_itself(self):
        pairs = [(rf"({ID}) ({ID})", ID), (OMEGA_LOOP, rf"(x x)[x\{DELTA}]"),
                 (ID, r"\x.\y.x y"), (ID, OMEGA_LOOP)]
        for a, b in pairs:
            j = judge(p(a), p(b), CBV)
            for th in THEORIES:
                cert = j[th].certificate
                if cert is not None:
                    assert isinstance(cert.describe(), str) and cert.describe()


# the result each kind of certificate proves, and in which theories
PROVES = {
    "common-reduct": ("equal", THEORIES),
    "both-meaningless": ("equal", (H, HSTAR)),
    "distinct-normal-forms": ("not-equal", (LAMBDA, H)),
    "meaningfulness-separation": ("not-equal", (H, HSTAR)),
    "context-witness": ("not-equal", (H, HSTAR)),
}

# Each certificate on a pair it does not hold for: the judgment that
# reverify receives carries that one certificate, with a verdict it
# would prove if it held.
TAMPERED = [
    ("common-reduct", ID, r"\x.\y.x", {}),
    ("both-meaningless", ID, OMEGA_LOOP, {}),
    ("both-meaningless", OMEGA_LOOP, ID, {}),
    ("distinct-normal-forms", ID, OMEGA_LOOP, {}),
    ("distinct-normal-forms", ID, r"\y.y", {}),
    ("meaningfulness-separation", ID, r"\y.y", {}),
    ("context-witness", ID, r"\x.\y.x y", {"context": parse_context("@")}),
    # the recorded plugging separates, but is not the left term's normal form
    ("context-witness", ID, OMEGA_LOOP,
     {"context": parse_context("@"), "left": p(r"\x.\y.x")}),
    ("no-such-kind", ID, ID, {}),
]


@pytest.mark.parametrize("kind,left,right,data", TAMPERED,
                         ids=[f"{k}-{i}" for i, (k, *_) in enumerate(TAMPERED)])
def test_reverify_rejects_a_certificate_that_does_not_hold(kind, left, right, data):
    result, theories = PROVES.get(kind, ("not-equal", (HSTAR,)))
    theory = theories[-1]
    j = Judgment(p(left), p(right), CBV,
                 {theory: Verdict(theory, result, Certificate(kind, data))})
    assert not reverify(j)


# a pair on which each kind of certificate holds
HOLDS = {
    "common-reduct": (rf"({ID}) ({ID})", ID, {}),
    "both-meaningless": (OMEGA_LOOP, rf"(x x)[x\{DELTA}]", {}),
    "distinct-normal-forms": (ID, r"\x.\y.x y", {}),
    "meaningfulness-separation": (ID, OMEGA_LOOP, {}),
    "context-witness": (ID, OMEGA_LOOP, {"context": parse_context("@")}),
}


@pytest.mark.parametrize("kind", sorted(HOLDS))
def test_reverify_accepts_a_certificate_only_for_the_verdicts_it_proves(kind):
    left, right, data = HOLDS[kind]
    proved, theories = PROVES[kind]
    for result in ("equal", "not-equal"):
        for theory in THEORIES:
            j = Judgment(p(left), p(right), CBV,
                         {theory: Verdict(theory, result, Certificate(kind, data))})
            assert reverify(j) == (result == proved and theory in theories), (
                kind, result, theory)


@pytest.mark.parametrize("left,right,result,kind", [
    (rf"({ID}) ({ID})", ID, "not-equal", "common-reduct"),
    (ID, r"\x.\y.x y", "equal", "distinct-normal-forms"),
])
def test_reverify_rejects_a_certificate_attached_to_the_opposite_verdict(
        left, right, result, kind):
    j = judge(p(left), p(right), CBV)
    cert = j[HSTAR].certificate if kind == "common-reduct" else j[LAMBDA].certificate
    assert cert.kind == kind and reverify(j)
    tampered = Judgment(j.left, j.right, CBV, {**j.verdicts, HSTAR: Verdict(HSTAR, result, cert)})
    assert not reverify(tampered)


def test_reverify_rejects_a_verdict_without_certificate_or_under_another_theory():
    j = judge(p(rf"({ID}) ({ID})"), p(ID), CBV)
    assert not reverify(Judgment(j.left, j.right, CBV, {H: Verdict(H, "equal")}))
    assert not reverify(Judgment(j.left, j.right, CBV,
                                 {H: Verdict(LAMBDA, "equal", j[H].certificate)}))
