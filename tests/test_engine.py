"""The guided leftmost-outermost engine against find_redexes, the full
redex listing it replaces on the hot path; fingerprints and the
summaries that every node is built with, also the nodes contraction
builds; a pin on the traces; fuel semantics; and the typing regressions of the
call-by-name expansion."""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from strata import (
    BOT,
    Bot,
    CBN,
    CBV,
    OMEGA,
    Abs,
    App,
    Var,
    alpha_eq,
    canonical,
    check_derivation,
    find_redexes,
    is_normal,
    normalize,
    parse,
    reduce_once,
    show,
    typable,
)
import strata.terms
from strata.cli import main
from strata.corpus import enumerate_terms
from strata.reduce import (
    DB,
    SN,
    SV,
    Redex,
    apply_step,
    leftmost_redex,
    min_redex_level,
    trace_to_dict,
)
from strata.terms import ABS, Es, Node, free_vars, path_to, subterms

from conftest import ID, OMEGA_LOOP

LEVELS = (0.0, 1.0, 2.0, OMEGA)
CALCULI = (CBV, CBN)

PARTIAL = [parse(s) for s in (
    r"bot", r"bot x", r"(\x.x) bot", r"(x)[x\bot]", r"(\x.bot) y",
    r"\x.(\y.y) bot", r"(x x)[x\(\z.bot)[w\bot]]", r"bot ((\x.x) y)",
)]


# no term of enumerate_terms(6) loops or outgrows the fuel: these do,
# at some levels, in either calculus
OMEGA_TERM = parse(OMEGA_LOOP)
LOOPING = [parse(s) for s in (
    OMEGA_LOOP, r"(\x.x x x) (\x.x x x)", r"(w w)[w\\w.w w]",
    rf"\z.{OMEGA_LOOP}", r"(\x.\y.x x) (\x.\y.x x)",
)] + [App(t, OMEGA_TERM) for t in enumerate_terms(3)] + [
    App(OMEGA_TERM, t) for t in enumerate_terms(3)] + [
    Abs("z", App(t, OMEGA_TERM)) for t in enumerate_terms(3)]


def corpus():
    return list(enumerate_terms(6)) + PARTIAL + LOOPING


@pytest.fixture(scope="module")
def terms():
    return corpus()


class TestAgainstTheFullListing:
    def test_reduce_once_contracts_the_first_listed_redex(self, terms):
        for t in terms:
            for c in CALCULI:
                for k in LEVELS:
                    listed = find_redexes(t, c, k)
                    step = reduce_once(t, c, k)
                    if not listed:
                        assert step is None, (t, c, k)
                        continue
                    first = listed[0]
                    found = leftmost_redex(t, c, k)
                    # the nodes it carries take no part in equality
                    assert found == first and first.path is None, (t, c, k)
                    nodes = path_to(t, first.position)
                    assert len(found.path) == len(nodes), (t, c, k)
                    assert all(a is b for a, b in zip(found.path, nodes)), (t, c, k)
                    assert (step.position, step.rule, step.level) == (
                        first.position, first.rule, first.level), (t, c, k)

    def test_is_normal_agrees(self, terms):
        for t in terms:
            for c in CALCULI:
                for k in LEVELS:
                    assert is_normal(t, c, k) == (not find_redexes(t, c, k)), (t, c, k)

    def test_cached_shallowest_level_is_the_least_listed(self, terms):
        for t in terms:
            for c in CALCULI:
                levels = [r.level for r in find_redexes(t, c, OMEGA)]
                assert min_redex_level(t, c) == (min(levels) if levels else None), (t, c)

    def test_redex_at_matches_the_listing(self, terms):
        """A redex replayed at a position is checked by apply_step alone:
        it contracts every listed redex as the listed one does, and
        refuses every other rule and position, also one below a leaf."""
        for t in terms[::7]:
            for c in CALCULI:
                listed = {(r.position, r.rule): r for r in find_redexes(t, c, OMEGA)}
                for pos, s in subterms(t):
                    for rule in (DB, SV, SN):
                        r = listed.get((pos, rule))
                        if r is not None:
                            replayed = apply_step(t, Redex(pos, rule, r.level), c)
                            assert replayed == apply_step(t, r, c), (t, c, pos)
                            continue
                        with pytest.raises(ValueError):
                            apply_step(t, Redex(pos, rule, 0.0), c)
                        if isinstance(s, (Var, Bot)):
                            with pytest.raises(ValueError):
                                apply_step(t, Redex(pos + ("l",), rule, 0.0), c)

    def test_normalize_stops_at_the_first_repeat(self, terms):
        for t in terms:
            for c in CALCULI:
                for k in LEVELS:
                    tr = normalize(t, c, k, 12)
                    states = [tr.start] + [s.after for s in tr.steps]
                    keys = [canonical(s) for s in states]
                    first_repeat = next(
                        (i for i, key in enumerate(keys) if key in keys[:i]), None)
                    if first_repeat is None:
                        assert tr.cycle_start is None, (t, c, k)
                        assert tr.outcome == (
                            "fuel" if find_redexes(tr.final, c, k) else "normal"), (t, c, k)
                    else:
                        assert first_repeat == len(states) - 1, (t, c, k)
                        assert tr.outcome == "cycle", (t, c, k)
                        assert tr.cycle_start == keys.index(keys[-1]), (t, c, k)


class TestSummaries:
    def test_alpha_equal_terms_share_a_fingerprint(self):
        assert _fingerprint(r"\x.\y.x y") == _fingerprint(r"\a.\b.a b")
        assert _fingerprint(r"(x)[x\y]") == _fingerprint(r"(z)[z\y]")

    def test_fingerprint_sees_the_shape(self):
        assert _fingerprint(r"\x.x x") != _fingerprint(r"(\x.x) x")
        assert _fingerprint(r"x (y z)") != _fingerprint(r"x y z")

    def test_summary_lives_in_a_slot(self):
        t = Abs("x", App(Var("x"), Var("y")))  # summarized as it is built
        for node in (t, t.body, t.body.arg, BOT, Es(Var("x"), "x", t)):
            assert not hasattr(node, "__dict__")
            assert not any(isinstance(v, tuple) for v in _summary(node)), node
        assert t.core == ABS and t.free == {"y"}
        # every variable of a name shares one free-name set
        assert Var("y").free is t.body.arg.free
        assert Var("x").free is t.body.fun.free is Var("x").free

    def test_only_the_constructors_write_node_fields(self):
        """Nodes are immutable by convention: no line of the program
        assigns or deletes a node field, or sets one by name, outside
        the constructors of the term classes."""
        fields = set(Node.__slots__) | {
            f for cls in (Var, Abs, App, Es) for f in cls.__dataclass_fields__}
        writes, exempt = [], 0
        for path in sorted(Path(strata.terms.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            constructors = set()  # the ids of the nodes of their bodies
            if path.name == "terms.py":
                for cls in tree.body:
                    if isinstance(cls, ast.ClassDef) and issubclass(
                            getattr(strata.terms, cls.name, object), Node):
                        for f in cls.body:
                            if isinstance(f, ast.FunctionDef) and f.name == "__init__":
                                constructors |= {id(n) for n in ast.walk(f)}
            exempt += len(constructors)
            for n in ast.walk(tree):
                if id(n) in constructors:
                    continue
                stored = isinstance(n, ast.Attribute) and n.attr in fields and \
                    isinstance(n.ctx, (ast.Store, ast.Del))
                named = isinstance(n, ast.Call) and ast.unparse(n.func).endswith(
                    ("setattr", "__setattr__", "__set__")) and any(
                    isinstance(a, ast.Constant) and a.value in fields for a in n.args)
                if stored or named:
                    writes.append(f"{path.name}:{n.lineno}: {ast.unparse(n)}")
        assert exempt > 100 and writes == []

    def test_deep_term_needs_no_deep_recursion(self):
        deep = Var("x")
        for i in range(5000):
            deep = Abs(f"v{i}", App(deep, Var("y")))
        t = App(App(Var("f"), deep), App(parse(ID), Var("z")))
        assert min_redex_level(t, CBV) == 0.0
        assert leftmost_redex(t, CBV, 0.0).position == ("r",)
        assert is_normal(Abs("x", t), CBV, 0.0)


def _fingerprint(text):
    return parse(text).fp


def _summary(node):
    """The five summary slots of a node, in a tuple."""
    return tuple(getattr(node, slot) for slot in Node.__slots__)


def _names(t):
    """The free names of t, by a walk that reads no cache."""
    match t:
        case Var(x):
            return {x}
        case Abs(x, b):
            return _names(b) - {x}
        case App(f, a):
            return _names(f) | _names(a)
        case Es(b, x, a):
            return (_names(b) - {x}) | _names(a)
        case _:
            return set()


class TestContractionCaches:
    """Every node of a contractum, shared or rebuilt, carries the
    summary that the same term parsed afresh has, and free names equal
    to those of a walk that reads no summary."""

    def test_rebuilt_summaries_and_cached_names_are_fresh(self, terms):
        checked = 0
        for t in terms:
            for c in CALCULI:
                for k in (0.0, 1.0, OMEGA):
                    for step in normalize(t, c, k, 12).steps:
                        after = step.after
                        unshared = parse(show(after, rename=False))
                        for pos, s in subterms(after):
                            assert _summary(s) == _summary(path_to(unshared, pos)[-1]), (t, c, k, pos)
                            assert free_vars(s) == _names(s), (t, c, k, pos)
                        checked += 1
        assert checked > 10_000


def _trace_hash(runs):
    h = hashlib.sha256()
    for t, c, k, fuel in runs:
        h.update(json.dumps(trace_to_dict(normalize(t, c, k, fuel))).encode())
    return h.hexdigest()


def _church(n):
    return r"\f.\x." + "f (" * n + "x" + ")" * n


ADD, MUL, EXP = r"\m.\n.\f.\x.m f (n f x)", r"\m.\n.\f.m (n f)", r"\m.\n.n m"

# SHA-256 over the JSON of the traces, as the engine gave them before
# contraction cached summaries and free names
SMALL_TERMS_PIN = "869a5334ef4682c4deee5b66221eaf517c727eebae6d00913e93ea7e5d3492ff"
LONG_TRACES_PIN = "6af0c07de339845c2c1f8dba4b859376bb5f5c6ab2ac6cbd6703b4c9980bac59"


def test_traces_of_small_terms_are_pinned():
    assert _trace_hash((t, c, k, 30) for t in enumerate_terms(5) for c in CALCULI
                       for k in (0.0, 1.0, OMEGA)) == SMALL_TERMS_PIN


def test_long_traces_are_pinned():
    runs = [(f"({EXP}) ({_church(2)}) ({_church(4)})", OMEGA, 2000),
            (f"({MUL}) (({ADD}) ({_church(2)}) ({_church(2)})) ({_church(4)})", OMEGA, 2000),
            (f"({EXP}) ({_church(4)}) ({_church(2)})", 1.0, 2000),
            (r"(\x.x x x) (\x.x x x)", 0.0, 150)]  # deeper at every step
    assert _trace_hash((parse(t), c, k, fuel) for t, k, fuel in runs
                       for c in CALCULI) == LONG_TRACES_PIN


class TestFuel:
    def test_normal_term_is_normal_at_fuel_zero(self):
        for c in CALCULI:
            tr = normalize(parse(r"\x.x y"), c, OMEGA, 0)
            assert tr.outcome == "normal" and tr.steps == ()

    def test_fuel_bounds_the_steps(self):
        t = parse(rf"({ID}) ({ID})")  # two steps to a normal form
        assert normalize(t, CBV, 0.0, 2).outcome == "normal"
        short = normalize(t, CBV, 0.0, 1)
        assert short.outcome == "fuel" and len(short.steps) == 1
        assert normalize(t, CBV, 0.0, 0).outcome == "fuel"

    def test_negative_fuel_is_an_error(self):
        with pytest.raises(ValueError):
            normalize(parse("x"), CBV, 0.0, -1)

    def test_cli_rejects_negative_fuel(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "x", "--fuel", "-1"])
        assert exc.value.code == 3

    def test_cli_fuel_zero_on_a_normal_form(self, capsys):
        assert main(["reduce", "x", "--fuel", "0"]) == 0
        assert "outcome: normal" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    r"(\b1.b0 b1)[b0\\b0.\b1.b0]",
    r"(\x.((x)[x\((\f.\x.f (f (f (x)))) x)] (\x.x)))",
])
def test_cbn_expansion_types_the_argument_itself(text):
    status, d = typable(parse(text), CBN)
    assert status == "typable"
    assert check_derivation(d, "N") == []


def test_bot_holds_no_redex():
    assert find_redexes(BOT, CBV, OMEGA) == []
    assert min_redex_level(App(BOT, Var("x")), CBN) is None
    assert alpha_eq(normalize(BOT, CBN, OMEGA, 0).final, BOT)
