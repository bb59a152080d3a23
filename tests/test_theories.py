"""Judging term pairs against the three equational theories:
plain conversion, the theory that equates all mute (meaningless)
terms, and the observational theory."""

import itertools
import random
from collections import Counter

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
from strata.approx import MEANINGFUL, MEANINGLESS
from strata.bohm import ROUNDS, _spine, diverger, separating_context
from strata.corpus import enumerate_contexts, enumerate_terms
from strata.terms import ABS, App, Var, fresh_name
from strata.theories import CONTEXT_FUEL, NO_WITNESS, NOT_EQUAL, Certificate, Judgment, Verdict

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
        assert show(j[HSTAR].certificate.data["context"], rename=False) == (
            r"@ (\a0.\z.z a0) (\a0.\a1.(\w.w w) (\w.w w)) v2")
        assert reverify(j)

    def test_a_context_separates_where_nothing_else_decides(self):
        # by value, both abstractions are meaningful and \z.Ω has no
        # normal form at omega: only a context tells them apart
        j = judge(p(rf"\z.{OMEGA_LOOP}"), p(r"\z.z"), CBV)
        assert j[LAMBDA].result == "unknown"
        for th in (H, HSTAR):
            assert (j[th].result, j[th].certificate.kind) == ("not-equal", "context-witness")
        assert show(j[HSTAR].certificate.data["context"], rename=False) == "@ v0"
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


REFERENCE_SIZE = 5


def reference_search(t, u, calculus):
    """The separating-context search in its plainest form: every
    context up to size 5, with the terms plugged as given."""
    oracle = Oracle(calculus, CONTEXT_FUEL)
    for ctx in enumerate_contexts(REFERENCE_SIZE):
        if {oracle.status(plug(ctx, t)), oracle.status(plug(ctx, u))} == {MEANINGFUL, MEANINGLESS}:
            return ctx
    return None


def assert_separated_pairs_stay_separated(pairs, calculus) -> int:
    """Every pair that the reference search separates is not-equal
    under observational, with a certificate that reverify accepts;
    returns how many pairs it separates."""
    found = 0
    for left, right in pairs:
        t, u = p(left), p(right)
        if reference_search(t, u, calculus) is not None:
            j = judge(t, u, calculus)
            assert j[HSTAR].result == NOT_EQUAL and reverify(j), (left, right)
            found += 1
    return found


def _church(n):
    return r"\f.\x." + "f (" * n + "x" + ")" * n


ADD = r"\m.\n.\f.\x.m f (n f x)"
MUL = r"\m.\n.\f.m (n f)"
ADD_1_1 = rf"({ADD}) ({_church(1)}) ({_church(1)})"
# small terms without self-application, as the benchmark judges
POOL = ["x", "y", "x y", "y x", r"x (\z.z)", r"\z.x", r"\x.x", r"\x.\y.x",
        r"\x.\y.y", r"\x.x y", r"\x.y x", r"\f.\x.f x", r"\x.\y.x y",
        r"(\a.a) y", r"(z)[z\x]", r"(x z)[z\\a.a]"]
FILLERS = [OMEGA_LOOP, rf"\z.{OMEGA_LOOP}", rf"x ({OMEGA_LOOP})"]
FIXED_TERMS = FILLERS + [ADD_1_1, _church(2), _church(3),
                         r"\x.x", r"x (\z.z)", r"\x.\y.x", r"(\a.a) y"]


@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_pairs_the_reference_separates_stay_separated_on_fixed_pairs(calculus):
    assert assert_separated_pairs_stay_separated(
        itertools.combinations(FIXED_TERMS, 2), calculus) > 0


@pytest.mark.slow
@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_pairs_the_reference_separates_stay_separated_on_a_corpus(calculus):
    # 350 pairs per calculus in the benchmark's families: a term against
    # a loop applied to another, a loop against a loop applied to a
    # term, and two terms
    rng = random.Random(f"witnesses/{calculus}")
    pairs = []
    for _ in range(350):
        t, u = rng.sample(POOL + FILLERS, 2)
        pairs.append(rng.choice([(t, f"({u}) ({OMEGA_LOOP})"),
                                 (OMEGA_LOOP, f"({OMEGA_LOOP}) ({t})"), (t, u)]))
    assert assert_separated_pairs_stay_separated(pairs, calculus) > 0


# Consistency of the mute theory as an exhaustive gate: no context of
# enumerate_contexts(5) tells two meaningless fillers apart, under mute
# or observational equality, and every judgment reverifies.  The fillers
# are those of the five below that are meaningless in the calculus:
# \z.Omega is meaningful by value and x Omega by name.
MUTE_CANDIDATES = [OMEGA_LOOP, rf"\z.{OMEGA_LOOP}", rf"x ({OMEGA_LOOP})",
                   rf"(\x.x ({OMEGA_LOOP})) (\y.{OMEGA_LOOP})", rf"({ID}) ({OMEGA_LOOP})"]
MUTE_FUEL = 200


@pytest.mark.parametrize("calculus, expected", [
    (CBV, {("equal", "both-meaningless"): 1035, ("equal", "common-reduct"): 165,
           ("unknown", None): 450}),
    (CBN, {("equal", "both-meaningless"): 408, ("equal", "common-reduct"): 1080,
           ("unknown", None): 162}),
])
def test_no_context_separates_two_meaningless_terms(calculus, expected):
    oracle = Oracle(calculus, MUTE_FUEL)
    fillers = [p(t) for t in MUTE_CANDIDATES if oracle.status(p(t)) == MEANINGLESS]
    assert len(fillers) == 4
    tally = Counter()
    for ctx in enumerate_contexts(5):
        for a, b in itertools.combinations(fillers, 2):
            j = judge(plug(ctx, a), plug(ctx, b), calculus, MUTE_FUEL)
            assert NOT_EQUAL not in (j[H].result, j[HSTAR].result), show(ctx, rename=False)
            assert reverify(j, MUTE_FUEL)
            tally[j[H].result, j[H].certificate and j[H].certificate.kind] += 1
    assert tally == expected


# terms with a free name that the reference's context binders use, which
# its contexts capture
CAPTURED = [(rf"b0 ({DELTA}) ({DELTA})", "x"), (rf"b1 ({DELTA}) ({DELTA})", "x")]


@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_pairs_the_reference_separates_stay_separated_on_captured_names(calculus):
    assert assert_separated_pairs_stay_separated(CAPTURED, calculus) > 0


def _numerals(n):
    """Terms of value n: the numeral, and for n >= 2 an addition and a
    multiplication of smaller numerals, whose normal forms by value keep
    explicit substitutions."""
    yield _church(n)
    if n >= 2:
        yield rf"({ADD}) ({_church(1)}) ({_church(n - 1)})"
        a = next(a for a in range(2, n + 1) if n % a == 0)
        yield rf"({MUL}) ({_church(a)}) ({_church(n // a)})"


def assert_separated_by_a_built_context(left, right, calculus):
    j = judge(p(left), p(right), calculus)
    assert (j[HSTAR].result, j[HSTAR].certificate.kind) == (NOT_EQUAL, "context-witness"), (
        left, right)
    assert reverify(j)
    return j


@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_a_built_context_separates_church_n_from_n_plus_1(calculus):
    pairs = [(t, u) for n in range(7) for t in _numerals(n) for u in _numerals(n + 1)]
    for t, u in pairs:
        assert_separated_by_a_built_context(t, u, calculus)
    # by value some of the arithmetic reaches normal forms with explicit substitutions
    assert any("[" in show(normalize(p(t), CBV, OMEGA).final) for t, _ in pairs)


@pytest.mark.parametrize("left,right,calculus", [
    (r"\x.\y.y", f"y ({OMEGA_LOOP})", CBN),
    (r"\x.y x", "x y", CBV),
])
def test_a_built_context_separates_pairs_out_of_reach_of_size_5(left, right, calculus):
    assert reference_search(p(left), p(right), calculus) is None
    assert_separated_by_a_built_context(left, right, calculus)


@pytest.mark.parametrize("fuel", [5, 10])
@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_a_context_witness_is_reverified_at_the_fuel_it_was_found_at(calculus, fuel):
    # the judge builds and checks the context at CONTEXT_FUEL, whatever
    # the fuel it is given, and so does reverify
    j = judge(p(_church(2)), p(_church(3)), calculus, fuel)
    assert (j[HSTAR].result, j[HSTAR].certificate.kind) == (NOT_EQUAL, "context-witness")
    assert reverify(j, fuel)


def test_reverify_rejects_a_built_context_with_its_divergent_argument_made_harmless():
    j = assert_separated_by_a_built_context(_church(2), _church(3), CBV)
    cert = j[HSTAR].certificate
    args, ctx = [], cert.data["context"]
    while isinstance(ctx, App):
        args.append(ctx.arg)
        ctx = ctx.fun
    assert any(alpha_eq(a, diverger(1)) for a in args)
    for a in reversed(args):
        ctx = App(ctx, p(r"\i.i") if alpha_eq(a, diverger(1)) else a)
    tampered = Certificate("context-witness", {**cert.data, "context": ctx})
    assert not reverify(Judgment(j.left, j.right, CBV,
                                 {HSTAR: Verdict(HSTAR, NOT_EQUAL, tampered)}))


def test_same_value_pairs_by_value_stay_unknown_with_the_reason():
    # Böhm trees by value are out of reach of the construction
    j = judge(p(r"\f.\x.(f y)[y\f x]"), p(r"\f.\x.f (f x)"), CBV)
    assert j[HSTAR].result == "unknown" and j[HSTAR].reason == NO_WITNESS


class CountingOracle(Oracle):
    """An oracle at CONTEXT_FUEL that counts the calls made to it."""

    def __init__(self, calculus):
        super().__init__(calculus, CONTEXT_FUEL)
        self.calls = Counter()

    def meaning(self, t):
        self.calls["meaning"] += 1
        return super().meaning(t)

    def status(self, t):
        self.calls["status"] += 1
        return super().status(t)


def test_the_construction_gives_up_on_equal_arguments():
    # by value (y x)[x0\y] reduces to y x, and x0[x0\y x] is stuck but
    # read as y x: the normal forms differ, their spines do not
    s, r = p(r"(y x)[x0\y]"), p(r"x0[x0\y x]")
    oracle = CountingOracle(CBV)
    assert not alpha_eq(oracle.meaning(s).witness.final, oracle.meaning(r).witness.final)
    oracle.calls.clear()
    assert separating_context(s, r, oracle) is None
    assert oracle.calls == {"meaning": 2}  # one round, no diverger tried


def test_the_construction_gives_up_when_no_diverger_separates():
    oracle = CountingOracle(CBV)
    assert separating_context(p(r"x[x0\y x]"), p(r"y[x0\x x]"), oracle) is None
    # a round that pads both heads with an argument, then one that tries both divergers
    assert oracle.calls == {"meaning": 4, "status": 4}


@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_the_construction_gives_up_when_its_rounds_run_out(calculus):
    oracle = CountingOracle(calculus)
    assert separating_context(p(_church(30)), p(_church(31)), oracle) is None
    assert oracle.calls["meaning"] == 2 * ROUNDS


@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_every_normal_form_the_construction_reads_has_a_variable_head(calculus):
    """A level-0 normal form that is not an abstraction is a spine with
    a variable head, as the construction reads it: for every meaningful
    term of enumerate_terms(6), and each applied to a fresh variable."""
    oracle, spines = Oracle(calculus, CONTEXT_FUEL), 0
    for t in enumerate_terms(6):
        for s in (t, App(t, Var(fresh_name("v", t.free)))):
            report = oracle.meaning(s)
            if report.status == MEANINGFUL and report.witness.final.core != ABS:
                head, _ = _spine(report.witness.final)
                assert type(head) is Var, show(s)
                spines += 1
    assert spines == 2051


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
