"""Syntax layer: parsing, printing, substitution, alpha, the partial
order, and one-hole contexts."""

import random
import sys

import pytest

from strata import (
    Abs,
    App,
    BOT,
    CBN,
    CBV,
    Es,
    OMEGA,
    Var,
    alpha_eq,
    parse,
    parse_context,
    partial_leq,
    plug,
    show,
    strat_eq,
    subst,
)
from strata.terms import (
    HOLE,
    ParseError,
    canonical,
    fresh_name,
    free_vars,
    hole_positions,
    is_context,
    is_value,
    level_of,
    parse_level,
    path_to,
    replace_at,
    subterms,
    tokenize,
)

from strata.corpus import by_size, enumerate_contexts, enumerate_terms, random_term

from conftest import ID, OMEGA_LOOP

# the message, offset included, of each rejection: pinned
PARSE_ERRORS = [
    ('', 'expected a term (at offset 0)'),
    ('\\x.', 'expected a term (at offset 3)'),
    ('  \\x  y', "expected '.' (at offset 6)"),
    ('\\.x', 'expected identifier (at offset 1)'),
    ('\\0.x', 'expected identifier (at offset 1)'),
    ('x)', 'trailing input (at offset 1)'),
    ('(x', "expected ')' (at offset 2)"),
    ('x[y\\z', "expected ']' (at offset 5)"),
    ('x[y z]', "expected '\\\\' (at offset 4)"),
    ('x[\\z]', 'expected identifier (at offset 2)'),
    ('\\bot.x', "'bot' is a reserved word (at offset 1)"),
    ('x[bot\\y]', "'bot' is a reserved word (at offset 2)"),
    ('x @', 'trailing input (at offset 2)'),
    ('(@)', 'hole not allowed here (at offset 1)'),
    ('-> x', 'expected a term (at offset 0)'),
    ('x -> y', 'trailing input (at offset 2)'),
    ('x\xa0é', 'trailing input (at offset 2)'),
    ('x [y\\z]  (', 'expected a term (at offset 10)'),
    ('()', 'expected a term (at offset 1)'),
    ('\\x.x[y\\', 'expected a term (at offset 7)'),
    ('f (\\x.x) -', 'trailing input (at offset 9)'),
]


class TestParsePrint:
    @pytest.mark.parametrize("text", [
        "x",
        r"\x.x",
        "x y z",
        r"x (\y.y z)",
        r"(\x.x x) (\y.y)",
        r"(x y)[x\z]",
        r"(x[x\y]) z",
        r"\x.(x w)[w\\z.z]",
        "bot",
        r"(\x.bot) (\y.bot)",
    ])
    def test_round_trip(self, text):
        t = parse(text)
        assert alpha_eq(parse(show(t)), t)

    def test_application_is_left_associative(self):
        assert parse("x y z") == App(App(Var("x"), Var("y")), Var("z"))

    def test_abstraction_extends_right(self):
        assert parse(r"\x.x y") == Abs("x", App(Var("x"), Var("y")))

    def test_abstraction_as_the_last_argument(self):
        assert parse(r"f \x.x") == App(Var("f"), Abs("x", Var("x")))

    def test_closure_binds_tighter_than_application(self):
        t = parse(r"x[x\y] z")
        assert isinstance(t, App) and isinstance(t.fun, Es)

    def test_closure_body_spans_postfix_chain(self):
        t = parse(r"x[x\y][y\z]")
        assert isinstance(t, Es) and isinstance(t.body, Es)

    @pytest.mark.parametrize("bad", ["", "(", r"\x", r"x[y]", "x)", "@ x",
                                     r"\.x", "x [", "bot bot)"])
    def test_rejects_malformed_input(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    @pytest.mark.parametrize("text,message", PARSE_ERRORS)
    def test_error_messages_and_offsets(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message
        assert str(exc.value.offset) in message

    def test_tokens_carry_their_offsets(self):
        assert tokenize("\\f1'.[a]->x\u00a0-é") == [
            ("\\", 0), ("f1'", 1), (".", 4), ("[", 5), ("a", 6), ("]", 7),
            ("->", 8), ("x", 10), ("-", 12), ("é", 13), ("", 14)]

    def test_printer_renames_binders_canonically(self):
        t = parse(r"\a.\b.a (\c.c b)")
        u = parse(r"\u.\v.u (\w.w v)")
        assert show(t) == show(u)

    def test_printed_binders_avoid_free_names(self):
        t = parse(r"\a.a x0")
        assert "x0" in free_vars(t)
        assert alpha_eq(parse(show(t)), t)

    def test_printed_binders_do_not_capture_each_other(self):
        # K, whose binders carry the names the printer gives out
        t = parse(r"\x1.\x0.x1")
        assert show(t) == r"\x0.\x1.x0"
        assert alpha_eq(parse(show(t)), t)

    def test_raw_printing_keeps_the_names(self):
        assert show(parse(r"\x1.\x0.x1 (y)[y\z]"), rename=False) == r"\x1.\x0.x1 y[y\z]"

    def test_levels_parse(self):
        assert parse_level("omega") == OMEGA
        assert parse_level("3") == 3.0


class TestSubstitution:
    def test_replaces_free_occurrences(self):
        t = subst(parse("x x"), {"x": parse(ID)})
        assert alpha_eq(t, parse(rf"({ID}) ({ID})"))

    def test_ignores_bound_occurrences(self):
        t = subst(parse(r"x (\x.x)"), {"x": Var("y")})
        assert alpha_eq(t, parse(r"y (\x.x)"))

    def test_avoids_capture_under_abstraction(self):
        t = subst(parse(r"\y.x"), {"x": Var("y")})
        assert isinstance(t, Abs)
        assert t.binder != "y" and t.body == Var("y")

    def test_avoids_capture_under_closure(self):
        t = subst(parse(r"(x y)[y\z]"), {"x": Var("y")})
        assert "y" in free_vars(t)
        assert alpha_eq(t, parse(r"(y w)[w\z]"))

    def test_closure_binder_scopes_over_body_not_argument(self):
        t = parse(r"(x)[x\x]")
        assert free_vars(t) == {"x"}
        assert alpha_eq(subst(t, {"x": Var("z")}), parse(r"(x)[x\z]"))

    def test_rename_free(self):
        t = subst(parse(r"x (\x.x)"), {"x": Var("y")})
        assert alpha_eq(t, parse(r"y (\x.x)"))

    @pytest.mark.parametrize("inner", ["y0", "y1", "y2"])
    def test_renamed_binder_is_not_captured_below(self, inner):
        # the binder y must be renamed, and its new name must not be
        # captured by the inner binder, whatever that is called
        t = subst(parse(rf"\y.\{inner}. x y"), {"x": Var("y")})
        assert alpha_eq(t, parse(r"\a.\b. y a"))

    def test_names_do_not_depend_on_earlier_calls(self):
        first = subst(parse(r"\y.x"), {"x": Var("y")})
        second = subst(parse(r"\y.x"), {"x": Var("y")})
        assert first == second == Abs("y0", Var("y"))

    def test_substitution_is_simultaneous(self):
        t = subst(parse(r"x y (\z.x)"), {"x": Var("y"), "y": Var("x")})
        assert t == parse(r"y x (\z.y)")

    def test_no_renaming_where_nothing_is_substituted(self):
        t = parse(r"(\y.z) x")
        out = subst(t, {"x": Var("y")})
        assert out == App(t.fun, Var("y")) and out.fun is t.fun

    def test_unchanged_term_is_the_same_node(self):
        t = parse(r"\y.(z y)[w\y]")
        assert subst(t, {"x": Var("y")}) is t
        assert subst(t, {}) is t

    def test_subtree_without_the_variable_is_not_walked(self):
        # 5,000 nested binders with no x under them: returned as the same
        # node without a walk, so the interpreter's default recursion
        # limit is enough
        deep = Var("y")
        for i in range(5000):
            deep = Abs(f"v{i}", App(deep, Var("z")))
        t = App(App(deep, Var("x")), Es(deep, "w", Var("x")))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            out = subst(t, {"x": parse(r"\y.y")})
        finally:
            sys.setrecursionlimit(limit)
        assert out.fun.fun is deep and out.arg.body is deep
        assert out.fun.arg == out.arg.arg == parse(r"\y.y")

    def test_closure_binder_shadows_the_variable(self):
        t = parse(r"(x y)[x\x]")
        assert alpha_eq(subst(t, {"x": Var("y")}), parse(r"(x y)[x\y]"))

    def test_fresh_name_is_the_lowest_free_variant(self):
        assert fresh_name("y", {"y"}) == "y0"
        assert fresh_name("y", {"y", "y0", "y2"}) == "y1"
        assert fresh_name("x12", {"x12"}) == "x0"


class TestAlpha:
    def test_alpha_eq_binder_names_irrelevant(self):
        assert alpha_eq(parse(r"\x.x y"), parse(r"\z.z y"))

    def test_alpha_eq_distinguishes_free_names(self):
        assert not alpha_eq(parse("x"), parse("y"))

    def test_canonical_is_alpha_invariant(self):
        assert canonical(parse(r"\a.a (\b.a b)")) == canonical(parse(r"\c.c (\d.c d)"))

    def test_closure_binder_is_nameless(self):
        assert alpha_eq(parse(r"(x y)[x\z]"), parse(r"(w y)[w\z]"))


class TestLevels:
    def test_cbv_level_counts_abstraction_bodies(self):
        # positions in \x.\y.(x z)[w\z]
        assert level_of(("b", "b", "s"), CBV) == 2.0
        assert level_of(("b",), CBV) == 1.0
        assert level_of((), CBV) == 0.0

    def test_cbn_level_counts_argument_edges(self):
        # positions in x (y z), then in (x)[x\y]
        assert level_of(("r",), CBN) == 1.0
        assert level_of(("l",), CBN) == 0.0
        assert level_of(("e",), CBN) == 1.0
        assert level_of(("s",), CBN) == 0.0

    def test_cbn_level_ignores_abstraction_bodies(self):
        # a position in \x.\y.x
        assert level_of(("b", "b"), CBN) == 0.0


class TestPartialOrder:
    def test_bottom_refines_to_anything(self):
        assert partial_leq(BOT, parse(OMEGA_LOOP))

    def test_reflexive(self):
        t = parse(r"(\x.bot) y")
        assert partial_leq(t, t)

    def test_congruent(self):
        assert partial_leq(parse(r"(\x.bot) (\y.bot)"), parse(r"(\x.x (\i.i)) (\y.bot)"))

    def test_not_symmetric(self):
        assert not partial_leq(parse(r"\x.x"), BOT)

    def test_shape_mismatch(self):
        assert not partial_leq(parse("x y"), parse(r"\x.x y"))

    def test_alpha_aware(self):
        assert partial_leq(parse(r"\x.x bot"), parse(r"\y.y z"))


def _leq_by_keys(t, u):
    """partial_leq on the canonical keys t and u."""

    def go(t, u):
        if t[0] == "bot":
            return True
        if t[0] != u[0] or t[0] in ("v", "f"):
            return t == u
        return all(go(tc, uc) for tc, uc in zip(t[1:], u[1:]))

    return go(t, u)


def _strat_eq_by_keys(t, u, calculus, k):
    """strat_eq on the canonical keys t and u: by value a binder lowers
    the level, by name the argument of an application or substitution
    does."""

    def go(t, u, k):
        if t[0] != u[0]:
            return False
        lower = k if k == OMEGA else k - 1
        match t[0]:
            case "l":
                if calculus == CBV:
                    return k == 0 or go(t[1], u[1], lower)
                return go(t[1], u[1], k)
            case "a" | "s":
                if not go(t[1], u[1], k):
                    return False
                if calculus == CBV:
                    return go(t[2], u[2], k)
                return k == 0 or go(t[2], u[2], lower)
            case _:
                return t == u

    return go(t, u, k)


CLASHING = ["x", "y", "z", "x0"]


def _positions(t):
    return [pos for pos, _ in subterms(t)]


def _renamed_binders(rng, t):
    """t with every binder renamed at random among a few names, with no
    regard for capture; variables keep their names."""
    match t:
        case Abs(_, b):
            return Abs(rng.choice(CLASHING), _renamed_binders(rng, b))
        case App(f, a):
            return App(_renamed_binders(rng, f), _renamed_binders(rng, a))
        case Es(b, _, a):
            return Es(_renamed_binders(rng, b), rng.choice(CLASHING),
                      _renamed_binders(rng, a))
        case _:
            return t


def _variant(rng, t):
    """A term close to t: new nodes at a few positions, the rest of t
    shared with it."""
    for _ in range(rng.randint(0, 2)):
        pos = rng.choice(_positions(t))
        s = path_to(t, pos)[-1]
        match rng.randrange(4):
            case 0:  # another subterm, bot included
                s = random_term(rng, rng.randint(1, 4), ("x", "y", "z"), 0.3)
            case 1:  # another binder over the same, shared body
                if isinstance(s, Abs):
                    s = Abs(rng.choice(CLASHING), s.body)
                elif isinstance(s, Es):
                    s = Es(s.body, rng.choice(CLASHING), s.arg)
            case 2:  # the same subterm under new binder names
                s = _renamed_binders(rng, s)
            case 3:
                s = BOT
        t = replace_at(t, pos, s)
    return t


def _random_pair(rng):
    t = _renamed_binders(rng, random_term(rng, rng.randint(1, 10), ("x", "y", "z"), 0.15))
    u = _variant(rng, t)
    return (t, u) if rng.random() < 0.5 else (u, t)


class TestTwoTermWalk:
    """partial_leq, strat_eq and alpha_eq walk both terms at once; they
    must answer as a comparison of canonical keys does."""

    def test_agrees_with_canonical_keys_on_random_pairs(self):
        rng = random.Random(6)
        seen = {"leq": 0, "eq": 0, "alpha": 0}
        for _ in range(100_000):
            t, u = _random_pair(rng)
            calculus = rng.choice((CBV, CBN))
            k = rng.choice((0.0, 1.0, 2.0, OMEGA))
            leq, eq, alpha = (partial_leq(t, u), strat_eq(t, u, calculus, k),
                              alpha_eq(t, u))
            kt, ku = canonical(t), canonical(u)
            expected = (_leq_by_keys(kt, ku), _strat_eq_by_keys(kt, ku, calculus, k),
                        kt == ku)
            assert (leq, eq, alpha) == expected, \
                (show(t, False), show(u, False), calculus, k)
            seen["leq"] += leq
            seen["eq"] += eq
            seen["alpha"] += alpha
        # both answers occur often enough for the comparison to mean something
        assert all(20_000 < n < 80_000 for n in seen.values()), seen

    def test_shared_body_under_different_binders(self):
        n = Var("x")
        for t, u in ((Abs("x", n), Abs("y", n)), (Es(n, "x", n), Es(n, "y", n))):
            assert not partial_leq(t, u)
            assert not alpha_eq(t, u)
            for calculus in (CBV, CBN):
                assert not strat_eq(t, u, calculus, OMEGA)

    @staticmethod
    def deep():
        """A spine too deep to walk by recursion."""
        t = Var("x")
        for _ in range(5000):
            t = App(t, Var("y"))
        return t

    def test_shared_node_under_equal_binders_is_not_walked(self):
        deep = self.deep()
        assert partial_leq(Abs("y", deep), Abs("y", deep))
        assert strat_eq(Abs("y", deep), Abs("y", deep), CBN, OMEGA)

    def test_bot_on_the_left_ends_the_walk(self):
        deep = self.deep()
        assert partial_leq(App(BOT, BOT), App(deep, deep))
        assert not partial_leq(App(deep, deep), App(BOT, BOT))


class TestContexts:
    def test_parse_context_requires_one_hole(self):
        c = parse_context(r"(\y.\i.i) (\z.@)")
        assert is_context(c)
        assert hole_positions(c) == [("r", "b")]

    @pytest.mark.parametrize("text,found", [("x", 0), ("@ @", 2)])
    def test_a_context_needs_exactly_one_hole(self, text, found):
        with pytest.raises(ValueError) as exc:
            parse_context(text)
        assert str(exc.value) == "a context must contain exactly one hole '@'"
        with pytest.raises(ValueError) as exc:
            plug(parse(text, allow_hole=True), Var("y"))
        assert str(exc.value) == f"context must have exactly one hole, found {found}"

    def test_parse_rejects_hole_in_plain_term(self):
        with pytest.raises(ParseError):
            parse("@ x")

    def test_plug_allows_capture(self):
        c = parse_context(r"\x.@")
        t = plug(c, Var("x"))
        assert t == Abs("x", Var("x"))
        assert free_vars(t) == set()

    def test_plug_positions(self):
        c = parse_context(r"x (@ y)")
        t = plug(c, parse(ID))
        assert alpha_eq(path_to(t, ("r", "l"))[-1], parse(ID))

    def test_context_enumeration_order(self):
        # the reference search and the gates of the tests read this order
        ctxs = [show(c, rename=False) for c in enumerate_contexts(4, ("z",))]
        assert ctxs[:8] == ["@", r"\b0.@", r"\b0.\b1.@", "@ z", "z @", r"@[b0\z]",
                            r"z[b0\@]", r"b0[b0\@]"]
        assert len(ctxs) == 32 and all(is_context(c) for c in enumerate_contexts(5))
        assert len(list(enumerate_contexts(5))) == 275

    @pytest.mark.parametrize("frees", [("x", "y"), ("z",)])
    def test_one_generator_keeps_the_order_of_two(self, frees):
        """The generator of terms and contexts lists them in the order of
        the two enumerators it replaced, copied here."""

        def terms_table():
            memo = {}

            def at(size, depth):
                if (size, depth) not in memo:
                    out = []
                    if size == 1:
                        out.extend(Var(v) for v in frees)
                        out.extend(Var(f"b{i}") for i in range(depth))
                    else:
                        binder = f"b{depth}"
                        out.extend(Abs(binder, b) for b in at(size - 1, depth + 1))
                        for i in range(1, size - 1):
                            j = size - 1 - i
                            out.extend(App(f, a) for f in at(i, depth) for a in at(j, depth))
                            out.extend(Es(b, binder, a) for b in at(i, depth + 1)
                                       for a in at(j, depth))
                    memo[size, depth] = out
                return memo[size, depth]

            return at

        terms, memo = terms_table(), {}

        def ctxs(size, depth):
            if (size, depth) not in memo:
                out = []
                if size == 1:
                    out.append(HOLE)
                else:
                    binder = f"b{depth}"
                    out.extend(Abs(binder, b) for b in ctxs(size - 1, depth + 1))
                    for i in range(1, size - 1):
                        j = size - 1 - i
                        out.extend(App(f, a) for f in ctxs(i, depth) for a in terms(j, depth))
                        out.extend(App(f, a) for f in terms(i, depth) for a in ctxs(j, depth))
                        out.extend(Es(b, binder, a) for b in ctxs(i, depth + 1)
                                   for a in terms(j, depth))
                        out.extend(Es(b, binder, a) for b in terms(i, depth + 1)
                                   for a in ctxs(j, depth))
                memo[size, depth] = out
            return memo[size, depth]

        at = by_size(frees)
        for size in range(1, 8):
            assert at(size, 0, 0) == terms(size, 0)
        for size in range(1, 7):
            assert at(size, 0, 1) == ctxs(size, 0)
        assert list(enumerate_contexts(6, frees)) == [c for n in range(1, 7) for c in ctxs(n, 0)]
        if frees == ("x", "y"):
            assert list(enumerate_terms(7)) == [t for n in range(1, 8) for t in terms(n, 0)]


class TestStructure:
    def test_subterms_preorder(self):
        t = parse(r"(\x.x) (y z)")
        positions = [pos for pos, _ in subterms(t)]
        assert positions == [(), ("l",), ("l", "b"), ("r",), ("r", "l"), ("r", "r")]

    def test_values_are_variables_and_abstractions(self):
        assert is_value(Var("x")) and is_value(parse(r"\x.bot"))
        assert not is_value(parse("x y")) and not is_value(BOT)
        assert not is_value(parse(r"(x)[x\y]"))


class TestFreeNames:
    def test_deep_terms_need_no_deep_recursion(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # the interpreter's default
        try:
            spine = Var("f")
            for i in range(5000):
                spine = App(spine, Var(f"a{i % 3}"))
            assert free_vars(spine) == {"f", "a0", "a1", "a2"}
            nested = Es(App(Var("v0"), Var("z")), "w", Var("u"))
            for i in range(4999, -1, -1):
                nested = Abs(f"v{i}", nested)
            assert free_vars(nested) == {"z", "u"}
        finally:
            sys.setrecursionlimit(limit)

    def test_alpha_eq_walks_long_spines_in_a_loop(self):
        def spine(last):
            t = Var("f")
            for i in range(5000):
                t = App(t, Var(f"a{i % 3}"))
            return App(t, parse(last))

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # the interpreter's default
        try:
            assert alpha_eq(spine(r"\y.y"), spine(r"\z.z"))
            assert not alpha_eq(spine(r"\y.y"), spine(r"\y.x"))
            assert partial_leq(App(spine("x").fun, BOT), spine("y"))
            assert strat_eq(spine(r"\y.y"), spine(r"\y.x"), CBN, 0.0)
        finally:
            sys.setrecursionlimit(limit)

    def test_names_are_cached_and_shared(self):
        t = parse(r"(\x.x y) (\z.y y)")
        names = free_vars(t)
        assert names == {"y"} and free_vars(t) is names
        # the argument adds no name to the function's
        assert names is free_vars(t.fun)
        # z is not free in the body of \z.y y
        assert free_vars(t.arg) is free_vars(t.arg.body)
        assert free_vars(parse(r"\x.x")) == set() and free_vars(BOT) == set()
