"""The guided leftmost-outermost engine against find_redexes, the full
redex listing it replaces on the hot path; fingerprints and cached
summaries; fuel semantics; and the typing regressions of the
call-by-name expansion."""

import pytest

from strata import (
    BOT,
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
    typable,
)
from strata.cli import main
from strata.corpus import enumerate_terms
from strata.reduce import (
    leftmost_redex,
    min_redex_level,
    plotkin_normalize,
    redex_at,
)
from strata.summary import fingerprint, summary

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
                    assert leftmost_redex(t, c, k) == first, (t, c, k)
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
        for t in terms[::7]:
            for c in CALCULI:
                for k in LEVELS:
                    for r in find_redexes(t, c, OMEGA):
                        expected = r if r.level <= k else None
                        assert redex_at(t, r.position, c, k) == expected, (t, c, k)

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
        assert fingerprint(parse(r"\x.\y.x y")) == fingerprint(parse(r"\a.\b.a b"))
        assert fingerprint(parse(r"(x)[x\y]")) == fingerprint(parse(r"(z)[z\y]"))

    def test_fingerprint_sees_the_shape(self):
        assert fingerprint(parse(r"\x.x x")) != fingerprint(parse(r"(\x.x) x"))
        assert fingerprint(parse(r"x (y z)")) != fingerprint(parse(r"x y z"))

    def test_summary_lives_in_a_slot(self):
        t = parse(ID)
        summary(t)
        assert not hasattr(t, "__dict__")
        assert t._summary is summary(t)

    def test_deep_term_needs_no_deep_recursion(self):
        deep = Var("x")
        for i in range(5000):
            deep = Abs(f"v{i}", App(deep, Var("y")))
        t = App(App(Var("f"), deep), App(parse(ID), Var("z")))
        assert min_redex_level(t, CBV) == 0.0
        assert leftmost_redex(t, CBV, 0.0).position == ("r",)
        assert is_normal(Abs("x", t), CBV, 0.0)


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
        with pytest.raises(ValueError):
            plotkin_normalize(parse("x"), -1)

    def test_plotkin_shares_the_fuel_rule(self):
        t = parse(rf"({ID}) ({ID})")
        assert plotkin_normalize(t, 1).outcome == "normal"
        assert plotkin_normalize(t, 0).outcome == "fuel"
        assert plotkin_normalize(parse(OMEGA_LOOP), 5).outcome == "cycle"

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
