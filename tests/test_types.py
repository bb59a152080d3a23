"""Quantitative type systems: derivation checking, synthesis for
surface normal forms, replay across reduction steps, and the
derivation-level genericity transformer."""

import hashlib
import json
import random
from collections import Counter

import pytest

import strata.deriv_transform
import strata.types_core

from strata import (
    Abs,
    App,
    CBN,
    CBV,
    DEFAULT_PROBES,
    Es,
    OMEGA,
    Var,
    alpha_eq,
    check_derivation,
    normalize,
    parse,
    parse_context,
    parse_ty,
    plug,
    show,
    show_ty,
    synth_nf_derivation,
    typable,
    typed_genericity,
)
from strata.corpus import enumerate_contexts, enumerate_terms
from strata.deriv_transform import (
    GenericityContradiction,
    TransformError,
    expand_derivation,
    reduce_derivation,
)
from strata.reduce import DB, Step
from strata.typecheck import SYS_N, SYS_V, SYSTEM_OF, NotTypable
from strata.types_core import (
    EMPTY,
    Arrow,
    Derivation,
    Mult,
    TyParseError,
    TyVar,
    deriv_from_dict,
    deriv_to_dict,
    env_get,
    env_minus,
    env_sum,
    mk,
    valid_ty,
)

from conftest import ID, OMEGA_LOOP

# the message of each rejection of parse_ty: pinned
TY_ERRORS = [
    ('', 'expected a type at offset 0'),
    ('   ', 'expected a type at offset 3'),
    ('[a', "expected ',' or ']' at offset 2"),
    ('[a b]', "expected ',' or ']' at offset 3"),
    ('[a,', 'expected a type at offset 3'),
    ('(a', "expected ')' at offset 2"),
    ('(a b', "expected ')' at offset 3"),
    ('([a] -> b', "expected ')' at offset 9"),
    ('a b', 'trailing input at offset 2'),
    ('a -> b', 'arrow source must be a multiset'),
    ('[a] -> ', 'expected a type at offset 7'),
    ('->', 'expected a type at offset 0'),
    ('[a] --> b', 'trailing input at offset 4'),
    ('[]]', 'trailing input at offset 2'),
    ('[,]', 'expected a type at offset 1'),
    ('(', 'expected a type at offset 1'),
    (')', 'expected a type at offset 0'),
    ('[a] ->> b', 'expected a type at offset 6'),
    ('a,b', 'trailing input at offset 1'),
    ('é', 'expected a type at offset 0'),
    ('[a] -> b c', 'trailing input at offset 9'),
]


class TestTypeSyntax:
    @pytest.mark.parametrize("text", ["a", "[]", "[a]", "[a,a]", "[[] -> a]",
                                      "[[a] -> [b] -> c]"])
    def test_round_trip(self, text):
        assert parse_ty(show_ty(parse_ty(text))) == parse_ty(text)

    @pytest.mark.parametrize("text,message", TY_ERRORS)
    def test_error_messages(self, text, message):
        with pytest.raises(TyParseError) as exc:
            parse_ty(text)
        assert str(exc.value) == message

    def test_names_may_start_with_any_name_character(self):
        assert parse_ty("['x, 0_] -> (a)") == Arrow(m(TyVar("'x"), TyVar("0_")), TyVar("a"))

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
        bad = mk(d.rule, dict(d.env), d.term, EMPTY, d.premises)
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

    @pytest.mark.parametrize("calculus", [CBV, CBN])
    def test_synthesis_refuses_what_is_not_a_normal_form(self, calculus):
        with pytest.raises(NotTypable) as exc:
            synth_nf_derivation(parse(r"(\x.x) y"), calculus)
        assert str(exc.value) == r"(\x0.x0) y is not a level-0 normal form"


# Hand-corrupted derivations, one per rejection of check_derivation, each
# in the system whose rule it breaks.  A var node gets the environment
# its rule asks for unless one is given.
A, B = TyVar("a"), TyVar("b")
XY, X_Y = parse("x y"), parse(r"x[x\y]")


def m(*items):
    return Mult(items)


def var(name, ty, system, env=None, premises=()):
    if env is None:
        own = ty if system == SYS_V else m(ty)
        env = {name: own}
    return mk("var", env, Var(name), ty, premises)


def v_app(head, arg, env, ty=A):
    return mk("app", env, XY, ty, (head, arg))


def n_app(head, args, env, ty=A):
    return mk("app", env, XY, ty, (head, *args))


V_HEAD = var("x", m(Arrow(EMPTY, A)), SYS_V)  # x : [[] -> a]
N_HEAD = var("x", Arrow(m(B), A), SYS_N)  # x : [b] -> a
N_ARG = var("y", B, SYS_N)
N_ID = parse(r"\x.x")

REJECTIONS = [
    # shared by both systems
    (SYS_V, var("x", m(A), SYS_V, premises=(var("x", m(A), SYS_V),)),
     "root: var takes no premises"),
    (SYS_V, var("x", m(A), SYS_V, env={}),
     "root: var environment must carry exactly its own demand"),
    (SYS_V, mk("abs", {"y": m(A)}, N_ID, m(Arrow(EMPTY, m(A))), (var("y", m(A), SYS_V),)),
     "root: premise 0 does not type the body"),
    (SYS_N, mk("abs", {}, Var("x"), Arrow(m(A), A)), "root: rule abs does not match the term shape"),
    (SYS_V, mk("app", {}, XY, A), "root: missing premises"),
    (SYS_V, v_app(var("z", m(Arrow(EMPTY, A)), SYS_V), var("y", EMPTY, SYS_V),
                  {"z": m(Arrow(EMPTY, A))}),
     "root: first premise types the wrong term"),
    # system V
    (SYS_V, var("x", A, SYS_V, env={}), "root: a variable types with a multiset"),
    (SYS_V, mk("abs", {}, N_ID, A), "root: an abstraction types with a multiset of arrows"),
    (SYS_V, mk("abs", {}, N_ID, m(Arrow(m(A), m(B))), (var("x", m(A), SYS_V),)),
     "root: premise family does not realize the multiset"),
    (SYS_V, mk("abs", {"z": m(A)}, N_ID, m(Arrow(m(A), m(A))), (var("x", m(A), SYS_V),)),
     "root: environment is not the sum of the premises"),
    (SYS_V, mk("es", {"y": m(A)}, X_Y, m(B), (var("x", m(A), SYS_V), var("y", m(A), SYS_V))),
     "root: substitution preserves the type of its body"),
    (SYS_V, mk("app", dict(V_HEAD.env), XY, A, (V_HEAD,)), "root: takes exactly two premises"),
    (SYS_V, v_app(V_HEAD, var("z", EMPTY, SYS_V), dict(V_HEAD.env)),
     "root: second premise types the wrong term"),
    (SYS_V, v_app(V_HEAD, var("y", A, SYS_V, env={}), dict(V_HEAD.env)),
     "root: argument premise must type with a multiset"),
    (SYS_V, v_app(V_HEAD, var("y", EMPTY, SYS_V), dict(V_HEAD.env), ty=B),
     "root: head must type with the singleton [M -> s]"),
    (SYS_V, v_app(V_HEAD, var("y", EMPTY, SYS_V), {}),
     "root: environment is not the sum of the premises"),
    (SYS_V, mk("es", {"y": m(B)}, X_Y, m(A), (var("x", m(A), SYS_V), var("y", m(B), SYS_V))),
     "root: argument multiset must match the binder's demand"),
    (SYS_V, mk("es", {}, X_Y, m(A), (var("x", m(A), SYS_V), var("y", m(A), SYS_V))),
     "root: environment is not the sum of the premises"),
    # system N
    (SYS_N, var("x", m(A), SYS_N), "root: type [a] is not a N judgment type"),
    (SYS_N, mk("abs", {}, N_ID, Arrow(m(A), A)), "root: abs takes exactly one premise"),
    (SYS_N, mk("abs", {}, N_ID, Arrow(m(B), A), (var("x", A, SYS_N),)),
     "root: conclusion type must be M -> s from the premise"),
    (SYS_N, mk("abs", {"z": m(A)}, N_ID, Arrow(m(A), A), (var("x", A, SYS_N),)),
     "root: environment must be the premise's minus the binder"),
    (SYS_N, n_app(N_HEAD, [var("z", B, SYS_N)], {"x": m(Arrow(m(B), A)), "z": m(B)}),
     "root: argument premise 0 types the wrong term"),
    (SYS_N, n_app(var("x", A, SYS_N), [], {"x": m(A)}), "root: head must type with an arrow"),
    (SYS_N, n_app(N_HEAD, [], dict(N_HEAD.env)),
     "root: argument family does not realize the arrow source"),
    (SYS_N, mk("es", {}, X_Y, A, (var("x", A, SYS_N),)),
     "root: argument family does not realize the binder's demand"),
    (SYS_N, n_app(N_HEAD, [N_ARG], {}), "root: environment is not the sum of the premises"),
]


@pytest.mark.parametrize("system,d,error", REJECTIONS,
                         ids=[f"{sys}-{i}" for i, (sys, *_) in enumerate(REJECTIONS)])
def test_every_rejection_of_the_checker(system, d, error):
    assert error in check_derivation(d, system)


N_APP = n_app(N_HEAD, [N_ARG], {"x": m(Arrow(m(B), A)), "y": m(B)})
V_ES = mk("es", {"y": m(A)}, X_Y, m(A), (var("x", m(A), SYS_V), var("y", m(A), SYS_V)))


@pytest.mark.parametrize("system,d", [
    (SYS_V, v_app(V_HEAD, var("y", EMPTY, SYS_V), dict(V_HEAD.env))),
    (SYS_V, V_ES),
    (SYS_N, N_APP),
    (SYS_N, mk("es", {"y": m(A)}, X_Y, A, (var("x", A, SYS_N), var("y", A, SYS_N)))),
    (SYS_N, mk("abs", {}, N_ID, Arrow(m(A), A), (var("x", A, SYS_N),))),
])
def test_the_uncorrupted_nodes_check(system, d):
    assert check_derivation(d, system) == []


@pytest.mark.parametrize("system,d,env", [
    (SYS_N, N_APP, N_APP.env[::-1]),  # unsorted
    (SYS_N, N_APP, N_APP.env + (("z", EMPTY),)),
    (SYS_V, var("x", EMPTY, SYS_V), (("x", EMPTY),)),
    (SYS_V, V_ES, (("x", EMPTY),) + V_ES.env),
])
def test_the_checker_rejects_an_environment_out_of_its_stored_form(system, d, env):
    """The environment is compared as stored: sorted by variable, with no
    empty multiset.  A node that holds the same multisets in another form
    is rejected."""
    assert check_derivation(d, system) == []
    assert {k: v for k, v in env if v.items} == dict(d.env) and env != d.env
    assert check_derivation(Derivation(d.rule, env, d.term, d.ty, d.premises), system) != []


def _random_env(rng):
    """A random environment over a few names and type variables."""
    return mk("var", {x: m(*(rng.choice((A, B, m(A))) for _ in range(rng.randint(0, 3))))
                      for x in rng.sample("uvwxyz", rng.randint(0, 4))}, Var("x"), A).env


def _counts(env):
    return {x: Counter(ms.items) for x, ms in env}


def _stored(env):
    names = [x for x, _ in env]
    return names == sorted(set(names)) and all(ms.items for _, ms in env)


def test_environment_arithmetic_agrees_with_counters():
    """env_sum, env_minus and env_get, which derive and the checker
    share, against multisets as Counters."""
    rng = random.Random(0)
    for _ in range(2000):
        envs = [_random_env(rng) for _ in range(rng.randint(0, 4))]
        want = {}
        for env in envs:
            for x, c in _counts(env).items():
                want[x] = want.get(x, Counter()) + c
        total = env_sum(*envs)
        assert _stored(total) and _counts(total) == want
        x = rng.choice("uvwxyz")
        for env in envs:
            got, rest = env_minus(env, x)
            assert got == env_get(env, x)
            assert Counter(got.items) == _counts(env).get(x, Counter())
            assert _stored(rest)
            assert _counts(rest) == {y: c for y, c in _counts(env).items() if y != x}


def test_only_system_n_checks_the_shape_of_types(monkeypatch):
    """Every type is a V judgment type, so valid_ty answers for system V
    without walking the type; in system N it walks every arrow."""
    ty = parse_ty("[[a] -> b, [c]] -> [d]")
    valid = strata.types_core.valid_ty

    def no_walk(t, system):
        raise AssertionError(f"walked into {t!r}")

    monkeypatch.setattr(strata.types_core, "valid_ty", no_walk)
    assert valid(ty, SYS_V) and valid(parse_ty("[a]"), SYS_V)
    monkeypatch.undo()
    assert not valid(ty, SYS_N) and not valid(parse_ty("[a] -> [b]"), SYS_N)
    assert valid(parse_ty("[[a] -> b, c] -> d"), SYS_N)


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

    def test_types_its_input_not_an_alpha_variant(self):
        # the steps rename the spine binder y out of the way of the argument
        t = parse(r"((\x.x)[y\z]) y")
        for calculus in (CBV, CBN):
            status, d = typable(t, calculus)
            assert status == "typable" and d.term == t

    def test_a_redex_under_two_substitutions(self):
        # the dB step finds its abstraction under a spine of two
        # substitutions, which the expansion carries back onto t
        t = parse(r"((\x.x)[a\y y][b\z z]) w")
        for calculus in (CBV, CBN):
            status, d = typable(t, calculus)
            assert status == "typable" and d.term is t
            assert check_derivation(d, SYSTEM_OF[calculus]) == []

    def test_type_variables_are_numbered_per_derivation(self):
        t = parse(r"\x.x y")
        first, second = typable(t, CBN), typable(t, CBN)
        assert first == second
        assert show_ty(first[1].ty) == "[[] -> a0] -> a0"

    def test_growing_term_is_unknown(self):
        status, d = typable(parse(r"(\x.x x x) (\x.x x x)"), CBV, fuel=40)
        assert status == "unknown" and d is None


REPLAY_TEXTS = [
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
    # renamed spines whose value and argument bind or use the clashing
    # name, so the two endpoints hold different copies of them
    r"(x y)[x\(\a.y)[y\\y.y]]",
    r"((\x.x)[y\\y.y]) y",
    # the substituted name bound again below its substitution, under an
    # abstraction and under a substitution
    r"((\x.x) x)[x\y]",
    r"(x[x\x])[x\y]",
]


def unshared(d):
    """d with every node below the root over its own copy of its term,
    equal to the root's subterm but not the same node."""
    def copy(d):
        return Derivation(d.rule, d.env, parse(show(d.term, rename=False)), d.ty,
                          tuple(copy(p) for p in d.premises))

    return Derivation(d.rule, d.env, d.term, d.ty, tuple(copy(p) for p in d.premises))


class TestReplay:
    @pytest.mark.parametrize("calculus,system", [(CBV, SYS_V), (CBN, SYS_N)])
    @pytest.mark.parametrize("text", REPLAY_TEXTS)
    def test_expansion_then_reduction_round_trip(self, text, calculus, system):
        t = parse(text)
        trace = normalize(t, calculus, 0.0)
        assert trace.outcome == "normal"
        d = synth_nf_derivation(trace.final, calculus)
        # walk the trace backwards, expanding to the original term
        for step in reversed(trace.steps):
            d = expand_derivation(d, step, system)
            assert check_derivation(d, system) == []
            assert d.term is step.before
        top = (d.env, d.ty)
        # and forwards again, preserving the judgment
        for step in trace.steps:
            d = reduce_derivation(d, step, system)
            assert check_derivation(d, system) == []
            assert d.term is step.after
        assert (d.env, d.ty) == top

    @pytest.mark.parametrize("calculus,system", [(CBV, SYS_V), (CBN, SYS_N)])
    @pytest.mark.parametrize("text", REPLAY_TEXTS)
    def test_a_derivation_sharing_no_node_with_the_step(self, text, calculus, system):
        """Only the root of the derivation is the step's own node; the
        walker tells bound names apart by scope, not by node identity."""
        t = parse(text)
        status, d = typable(t, calculus)
        assert status == "typable"
        top = (d.env, d.ty)
        trace = normalize(t, calculus, 0.0)
        for step in trace.steps:
            d = reduce_derivation(unshared(d), step, system)
            assert check_derivation(d, system) == [] and (d.env, d.ty) == top
        for step in reversed(trace.steps):
            d = expand_derivation(unshared(d), step, system)
            assert check_derivation(d, system) == [] and (d.env, d.ty) == top
        assert d == typable(t, calculus)[1]

    @pytest.mark.parametrize("calculus,system", [(CBV, SYS_V), (CBN, SYS_N)])
    def test_one_node_as_body_and_argument(self, calculus, system):
        """x[x\\x] built from one node: its occurrence as the body is
        still an occurrence of the substituted name."""
        x = Var("x")
        t = Es(x, "x", x)
        status, d = typable(t, calculus)
        assert status == "typable" and d.term is t
        assert check_derivation(d, system) == []

    @pytest.mark.parametrize("calculus,system", [(CBV, SYS_V), (CBN, SYS_N)])
    def test_a_derivation_of_an_alpha_variant_is_carried_first(self, calculus, system):
        """A derivation of another alpha-variant of the step's endpoint
        replays onto the step's own terms."""
        t = parse(r"(\x.\y.y x) z (\i.i)")
        variant = parse(r"(\a.\b.b a) z (\j.j)")
        _, d = typable(variant, calculus)
        trace = normalize(t, calculus, 0.0)
        d = reduce_derivation(d, trace.steps[0], system)
        assert d.term is trace.steps[0].after
        assert check_derivation(d, system) == []
        _, d = typable(variant, calculus)
        d = reduce_derivation(deriv_from_dict(json.loads(json.dumps(deriv_to_dict(d)))),
                              trace.steps[0], system)
        back = expand_derivation(d, trace.steps[0], system)
        assert back.term is t and back == typable(t, calculus)[1]

    @pytest.mark.parametrize("calculus,system", [(CBV, SYS_V), (CBN, SYS_N)])
    def test_a_transform_that_changes_the_judgment_is_refused(
            self, monkeypatch, calculus, system):
        """Every step of (\\x.x x) y is at the root: dB, then sv or sN.
        Each local transform, made to give the subterm it types another
        type, is refused, in both directions."""
        steps = normalize(parse(r"(\x.x x) y"), calculus, 0.0).steps
        assert [s.position for s in steps] == [(), ()]
        typed = {id(t): typable(t, calculus)[1]
                 for s in steps for t in (s.before, s.after)}
        derive = strata.deriv_transform.derive
        for step in steps:
            for replay, src, dst in ((reduce_derivation, step.before, step.after),
                                     (expand_derivation, step.after, step.before)):
                monkeypatch.setattr(
                    strata.deriv_transform, "derive",
                    lambda rule, t, ty, premises=(), dst=dst: derive(
                        rule, t, TyVar("changed") if t is dst else ty, premises))
                with pytest.raises(TransformError) as exc:
                    replay(typed[id(src)], step, system)
                assert str(exc.value) == "transformation changed the final judgment"
                monkeypatch.setattr(strata.deriv_transform, "derive", derive)

    @pytest.mark.parametrize("calculus,system", [(CBV, SYS_V), (CBN, SYS_N)])
    def test_an_unknown_rule_is_refused(self, calculus, system):
        step = normalize(parse(rf"({ID}) y"), calculus, 0.0).steps[0]
        bogus = Step(step.before, step.after, step.position, "xx", step.level)
        for replay, src in ((reduce_derivation, step.before),
                            (expand_derivation, step.after)):
            with pytest.raises(TransformError) as exc:
                replay(typable(src, calculus)[1], bogus, system)
            assert str(exc.value) == "unknown rule xx"


# Each local transform refuses a derivation that is corrupted at the
# redex with a TransformError, as the walker refuses a step it cannot
# reach or a derivation of another term.  A case is (direction, calculus,
# the text of a term whose first surface step is at the root, the
# corrupted derivation of the endpoint the replay starts from, made from
# that endpoint, the message).
ARROW = Arrow(EMPTY, A)


def _spine_demand_changed(t):
    # (\x.x)[z\w] y, whose argument w is typed with a demand that z,
    # absent from the body, does not make
    lam, w, y = t.fun.body, t.fun.arg, t.arg
    d_abs = mk("abs", {}, lam, m(Arrow(EMPTY, EMPTY)), (mk("var", {}, lam.body, EMPTY),))
    d_es = mk("es", {"w": m(A)}, t.fun, m(Arrow(EMPTY, EMPTY)),
              (d_abs, mk("var", {"w": m(A)}, w, m(A))))
    return mk("app", {"w": m(A)}, t, EMPTY, (d_es, mk("var", {}, y, EMPTY)))


REFUSALS = [
    ("reduce", CBV, rf"({ID}) y", lambda t: mk("abs", {}, t, A),
     "dB expects an application node"),
    ("reduce", CBV, rf"({ID}) y",
     lambda t: mk("app", {}, t, A, (mk("var", {}, t.fun, A), mk("var", {}, t.arg, EMPTY))),
     "dB expects an abstraction under the spine"),
    ("reduce", CBV, rf"({ID}) y",
     lambda t: mk("app", {}, t, A, (mk("abs", {}, t.fun, EMPTY), mk("var", {}, t.arg, EMPTY))),
     "a singleton arrow multiset carries one premise"),
    ("reduce", CBN, rf"({ID}) y", lambda t: mk("app", {}, t, A, (mk("abs", {}, t.fun, A),)),
     "dB cannot fire on an untyped abstraction body"),
    ("reduce", CBV, rf"(({ID})[z\w]) y", _spine_demand_changed,
     "substitution spine demand changed"),
    ("expand", CBV, rf"({ID}) y", lambda t: mk("app", {}, t, A),
     "contractum is not a substitution node"),
    ("expand", CBV, rf"(({ID})[z\w]) y", lambda t: mk("app", {}, t, A),
     "derivation has a shorter substitution spine than the term"),
    ("reduce", CBV, r"x[x\y]", lambda t: mk("app", {}, t, A),
     "sv expects a substitution node"),
    ("reduce", CBV, r"x[x\y]",
     lambda t: mk("es", {}, t, A, (mk("var", {}, t.body, A), mk("app", {}, t.arg, EMPTY))),
     "sv expects a value under the spine"),
    ("reduce", CBV, r"x[x\y]",
     lambda t: mk("es", {"y": m(B)}, t, m(A),
                  (var("x", m(A), SYS_V), mk("var", {"y": m(B)}, t.arg, m(B)))),
     "binder demand does not match the value's multiset"),
    ("reduce", CBV, r"x[x\y]",
     lambda t: mk("es", {"y": m(A, A)}, t, m(A),
                  (mk("var", {"x": m(A, A)}, t.body, m(A)),
                   mk("var", {"y": m(A, A)}, t.arg, m(A, A)))),
     "value derivation not exhausted: [a] left"),
    ("reduce", CBV, r"x[x\y]",
     lambda t: mk("es", {"y": m(A)}, t, m(B),
                  (mk("var", {"x": m(A)}, t.body, m(B)), mk("var", {"y": m(A)}, t.arg, m(A)))),
     "value derivation cannot supply [b]"),
    ("reduce", CBV, r"x[x\\z.z]",
     lambda t: mk("es", {}, t, m(ARROW),
                  (mk("var", {"x": m(ARROW)}, t.body, m(ARROW)),
                   mk("abs", {}, t.arg, m(ARROW), (mk("var", {"z": m(B)}, t.arg.body, m(B)),)))),
     "value derivation cannot supply [] -> a"),
    ("expand", CBV, r"x[x\y]", lambda t: mk("var", {"y": m(A)}, t, A),
     "a value occurrence must type with a multiset"),
    ("expand", CBV, r"(x x)[x\\z.z]",
     lambda t: mk("app", {}, t, A, (mk("abs", {}, t.fun, EMPTY), mk("app", {}, t.arg, EMPTY))),
     "the copies of a value do not type it as one value"),
    ("expand", CBV, r"x[x\\z.z]",
     lambda t: mk("abs", {}, t, EMPTY, (mk("var", {"z": m(A)}, t.body, m(A)),)),
     "collected value demand is inconsistent"),
    ("reduce", CBN, r"x[x\y]", lambda t: mk("app", {}, t, A),
     "sN expects a substitution node"),
    ("reduce", CBN, r"x[x\y]", lambda t: mk("es", {}, t, A, (var("x", A, SYS_N),)),
     "no argument derivation of a"),
    ("reduce", CBN, r"z[x\y]",
     lambda t: mk("es", {}, t, A, (var("z", A, SYS_N), var("y", B, SYS_N))),
     "argument derivations left over"),
    ("expand", CBN, r"(x x)[x\y]", lambda t: mk("abs", {}, t, A),
     "derivation out of step with the term"),
]


@pytest.mark.parametrize("direction,calculus,text,corrupt,message", REFUSALS)
def test_a_derivation_corrupted_at_the_redex_is_refused(direction, calculus, text, corrupt,
                                                        message):
    step = normalize(parse(text), calculus, 0.0).steps[0]
    assert step.position == ()
    system = SYSTEM_OF[calculus]
    if direction == "reduce":
        replay, start = reduce_derivation, step.before
    else:
        replay, start = expand_derivation, step.after
    with pytest.raises(TransformError) as exc:
        replay(corrupt(start), step, system)
    assert type(exc.value) is TransformError and str(exc.value) == message


def test_a_step_the_derivation_cannot_reach_is_refused():
    # by name the argument of an application is out of the derivation's
    # reach: the walker does not descend into it
    step = normalize(parse(rf"y (({ID}) z)"), CBN, OMEGA).steps[0]
    assert step.position == ("r",)
    with pytest.raises(TransformError) as exc:
        reduce_derivation(typable(step.before, CBN)[1], step, SYS_N)
    assert str(exc.value) == "cannot navigate edge 'r' through a app node in system N"


@pytest.mark.parametrize("calculus,system", [(CBV, SYS_V), (CBN, SYS_N)])
def test_a_derivation_of_another_term_is_refused(calculus, system):
    step = normalize(parse(rf"({ID}) y"), calculus, 0.0).steps[0]
    other = typable(parse("z"), calculus)[1]
    for replay, end in ((reduce_derivation, "source"), (expand_derivation, "target")):
        with pytest.raises(TransformError) as exc:
            replay(other, step, system)
        assert str(exc.value) == f"derivation does not type the step's {end}"


class TestExhaustiveReplay:
    """Every term up to size 6: typable's derivation, carried along the
    surface trace and back, stays valid with the same judgment, and
    each derivation types the step's own endpoint, not an alpha-variant."""

    @pytest.mark.parametrize("calculus,system", [(CBV, SYS_V), (CBN, SYS_N)])
    def test_every_small_term(self, calculus, system):
        for t in enumerate_terms(6):
            status, d = typable(t, calculus)
            # every term up to size 7 is typable in both calculi
            assert status == "typable" and d.term is t
            assert typable(t, calculus) == (status, d)
            assert check_derivation(d, system) == []
            top = (d.env, d.ty)
            trace = normalize(t, calculus, 0.0)
            forward = [d]
            for step in trace.steps:
                d = reduce_derivation(d, step, system)
                assert check_derivation(d, system) == []
                assert (d.env, d.ty) == top and d.term is step.after
                forward.append(d)
            for step, before in zip(reversed(trace.steps), reversed(forward[:-1])):
                d = expand_derivation(d, step, system)
                assert check_derivation(d, system) == []
                assert (d.env, d.ty) == top and d.term is step.before
                assert d == before

    def test_derivations_are_pinned(self):
        """typable's derivations of every term up to size 5, by value
        then by name, as deriv_to_dict writes them."""
        blobs = [json.dumps(deriv_to_dict(typable(t, c)[1]), sort_keys=True)
                 for c in (CBV, CBN) for t in enumerate_terms(5)]
        assert len(blobs) == 684
        digest = hashlib.sha256("\n".join(blobs).encode()).hexdigest()
        assert digest == DERIVATIONS_PIN


DERIVATIONS_PIN = "cb414691c62892681817922f0f3906dc7f147cdc504e9de40d8e5695c7fc9092"


def nodes(d: Derivation, rule: str | None = None) -> int:
    """The nodes of d, or those of one rule."""
    n, todo = 0, [d]
    while todo:
        d = todo.pop()
        n += rule is None or d.rule == rule
        todo.extend(d.premises)
    return n


@pytest.mark.parametrize("calculus,steps", [(CBV, 8477), (CBN, 12222)])
def test_a_derivation_bounds_its_surface_trace(calculus, steps):
    """Every term up to size 7 (Accattoli, Graham-Lengrand & Kesner,
    ICFP 2018): each surface step strictly shrinks typable's derivation
    carried along the trace, and the dB steps are as many as the app
    nodes it loses on the way to the normal form."""
    system, total = SYSTEM_OF[calculus], 0
    for t in enumerate_terms(7):
        status, d = typable(t, calculus)
        assert status == "typable"
        apps, db = nodes(d, "app"), 0
        for step in normalize(t, calculus, 0.0).steps:
            smaller = reduce_derivation(d, step, system)
            assert nodes(smaller) < nodes(d), (show(t), step.rule)
            d, db, total = smaller, db + (step.rule == DB), total + 1
        assert db == apps - nodes(d, "app"), show(t)
    assert total == steps


class TestSerialization:
    def test_json_round_trip(self):
        d = spine_derivation()
        blob = json.dumps(deriv_to_dict(d))
        d2 = deriv_from_dict(json.loads(blob))
        assert check_derivation(d2, SYS_V) == []
        assert d2.ty == d.ty and d2.env == d.env
        assert alpha_eq(d2.term, d.term)


class TestTypedGenericity:
    def test_replacement_in_an_untyped_zone_preserves_the_judgment(self):
        d = spine_derivation()
        ctx = Abs("x", App(Var("y"), Abs("z", parse_context("@"))))
        for probe in ("y", ID, "x x"):
            d2 = typed_genericity(d, ctx, parse(probe))
            assert check_derivation(d2, SYS_V) == []
            assert d2.env == d.env and d2.ty == d.ty
            assert alpha_eq(d2.term, plug(ctx, parse(probe)))

    def test_refuses_when_the_hole_is_typed(self):
        d = synth_nf_derivation(parse(r"\x.x"), CBV)
        with pytest.raises(GenericityContradiction):
            typed_genericity(d, parse_context("@"), parse("y"))

    @pytest.mark.parametrize("calculus,system", [(CBV, SYS_V), (CBN, SYS_N)])
    def test_every_small_context_around_omega(self, calculus, system):
        """For every context C up to size 6 with C<Omega> typable, the
        derivation is carried onto C<probe> for every default probe."""
        omega = parse(OMEGA_LOOP)
        probes = [parse(q) for q in DEFAULT_PROBES]
        typed = 0
        for ctx in enumerate_contexts(6):
            status, d = typable(plug(ctx, omega), calculus)
            if status != "typable":
                continue
            typed += 1
            for u in probes:
                d2 = typed_genericity(d, ctx, u)
                assert check_derivation(d2, system) == []
                assert (d2.env, d2.ty) == (d.env, d.ty)
                assert alpha_eq(d2.term, plug(ctx, u))
        assert typed == {CBV: 716, CBN: 826}[calculus]
