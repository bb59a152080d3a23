"""Syntax layer: parsing, printing, substitution, alpha, the partial
order, and one-hole contexts."""

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
    subst,
)
from strata.terms import (
    ParseError,
    canonical,
    fresh_name,
    free_vars,
    freshen,
    hole_positions,
    is_context,
    is_pure,
    is_value,
    level_of,
    parse_level,
    size,
    subterm_at,
    subterms,
)

from strata.corpus import enumerate_contexts

from conftest import ID, OMEGA_LOOP


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

    def test_closure_binder_shadows_the_variable(self):
        t = parse(r"(x y)[x\x]")
        assert alpha_eq(subst(t, {"x": Var("y")}), parse(r"(x y)[x\y]"))

    def test_fresh_name_is_the_lowest_free_variant(self):
        assert fresh_name("y", {"y"}) == "y0"
        assert fresh_name("y", {"y", "y0", "y2"}) == "y1"
        assert fresh_name("x12", {"x12"}) == "x0"

    def test_freshen_renames_the_clashing_binders(self):
        t = parse(r"(\x.\y.x y z)[y\x]")
        out = freshen(t, {"x", "y"})
        assert alpha_eq(out, t)
        binders = [s.binder for _, s in subterms(out) if isinstance(s, (Abs, Es))]
        assert not {"x", "y"} & set(binders)
        assert freshen(t, {"w"}) is t
        assert freshen(parse(r"\x.z"), {"x"}) == parse(r"\x0.z")


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
        t = parse(r"\x.\y.(x z)[w\z]")
        assert level_of(t, ("b", "b", "s"), CBV) == 2.0
        assert level_of(t, ("b",), CBV) == 1.0
        assert level_of(t, (), CBV) == 0.0

    def test_cbn_level_counts_argument_edges(self):
        t = parse(r"x (y z)")
        assert level_of(t, ("r",), CBN) == 1.0
        assert level_of(t, ("l",), CBN) == 0.0
        u = parse(r"(x)[x\y]")
        assert level_of(u, ("e",), CBN) == 1.0
        assert level_of(u, ("s",), CBN) == 0.0

    def test_cbn_level_ignores_abstraction_bodies(self):
        t = parse(r"\x.\y.x")
        assert level_of(t, ("b", "b"), CBN) == 0.0


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


class TestContexts:
    def test_parse_context_requires_one_hole(self):
        c = parse_context(r"(\y.\i.i) (\z.@)")
        assert is_context(c)
        assert hole_positions(c) == [("r", "b")]

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
        assert alpha_eq(subterm_at(t, ("r", "l")), parse(ID))

    def test_context_enumeration_order(self):
        # the judge's context search depends on this order
        ctxs = [show(c, rename=False) for c in enumerate_contexts(4, ("z",))]
        assert ctxs[:8] == ["@", r"\b0.@", r"\b0.\b1.@", "@ z", "z @", r"@[b0\z]",
                            r"z[b0\@]", r"b0[b0\@]"]
        assert len(ctxs) == 32 and all(is_context(c) for c in enumerate_contexts(5))
        assert len(list(enumerate_contexts(5))) == 275


class TestStructure:
    def test_subterms_preorder(self):
        t = parse(r"(\x.x) (y z)")
        positions = [pos for pos, _ in subterms(t)]
        assert positions == [(), ("l",), ("l", "b"), ("r",), ("r", "l"), ("r", "r")]

    def test_size_counts_nodes(self):
        assert size(parse(r"(\x.x) y")) == 4

    def test_values_are_variables_and_abstractions(self):
        assert is_value(Var("x")) and is_value(parse(r"\x.bot"))
        assert not is_value(parse("x y")) and not is_value(BOT)
        assert not is_value(parse(r"(x)[x\y]"))

    def test_purity_excludes_closures_and_bottom(self):
        assert is_pure(parse(r"\x.x y"))
        assert not is_pure(parse(r"(x)[x\y]")) and not is_pure(BOT)
