"""Derivation checking and synthesis for the two quantitative systems.

System V (call-by-value) rules, with + for environment/multiset sum:

  var  x:M |- x : M
  abs  (G_i ; x:M_i |- t : s_i) for i in I   =>  +G_i |- \\x.t : [M_i -> s_i]_I
  app  G |- t : [M -> s]    D |- u : M       =>  G + D |- t u : s
  es   G ; x:M |- t : s     D |- u : M       =>  G + D |- t[x\\u] : s

The abs family may be empty: every abstraction types with [].

System N (call-by-name) rules:

  var  x:[s] |- x : s
  abs  G ; x:M |- t : s                      =>  G |- \\x.t : M -> s
  app  G |- t : [s_i]_I -> s   (D_i |- u : s_i)_I  =>  G + D_i... |- t u : s
  es   G ; x:[s_i]_I |- t : s  (D_i |- u : s_i)_I  =>  ...       |- t[x\\u] : s

Arguments in N carry one premise per multiset element, possibly none.
"""

from __future__ import annotations

from .terms import Abs, App, Es, Term, Var, show
from .nf import classify_nf, NOT_NF
from .terms import CBN, CBV
from .types_core import (
    EMPTY,
    Arrow,
    Derivation,
    Mult,
    SYS_N,
    SYS_V,
    Ty,
    TyVar,
    derive,
    env_get,
    env_minus,
    env_sum,
    show_ty,
    valid_ty,
)

SYSTEM_OF = {CBV: SYS_V, CBN: SYS_N}


# ---------------------------------------------------------------------------
# Checking


def check_derivation(d: Derivation, system: str) -> list[str]:
    """All violations in the derivation tree; empty means valid."""
    errors: list[str] = []

    def fail(path: str, msg: str):
        errors.append(f"{path or 'root'}: {msg}")

    def go(d: Derivation, path: str):
        if not valid_ty(d.ty, system):
            fail(path, f"type {show_ty(d.ty)} is not a {system} judgment type")
        match d.rule, d.term:
            case "var", Var(x):
                if d.premises:
                    fail(path, "var takes no premises")
                if system == SYS_V:
                    if not isinstance(d.ty, Mult):
                        fail(path, "a variable types with a multiset")
                    want = ((x, d.ty),) if isinstance(d.ty, Mult) and d.ty.items else ()
                else:
                    want = ((x, Mult((d.ty,))),)
                if d.env != want:
                    fail(path, "var environment must carry exactly its own demand")
            case "abs", Abs(x, b):
                for i, p in enumerate(d.premises):
                    if p.term != b:
                        fail(path, f"premise {i} does not type the body")
                if system == SYS_V:
                    if not isinstance(d.ty, Mult) or not all(
                        isinstance(i, Arrow) for i in d.ty.items
                    ):
                        fail(path, "an abstraction types with a multiset of arrows")
                    elif Mult(tuple(Arrow(env_get(p.env, x), p.ty) for p in d.premises)) != d.ty:
                        fail(path, "premise family does not realize the multiset")
                    if d.env != env_sum(*(env_minus(p.env, x)[1] for p in d.premises)):
                        fail(path, "environment is not the sum of the premises")
                else:
                    if len(d.premises) != 1:
                        fail(path, "abs takes exactly one premise")
                    else:
                        p = d.premises[0]
                        m, rest = env_minus(p.env, x)
                        if d.ty != Arrow(m, p.ty):
                            fail(path, "conclusion type must be M -> s from the premise")
                        if d.env != rest:
                            fail(path, "environment must be the premise's minus the binder")
            case "app", App(f, a):
                go_app_like(d, path, f, a, binder=None)
            case "es", Es(b, x, a):
                go_app_like(d, path, b, a, binder=x)
            case rule, _:
                fail(path, f"rule {rule} does not match the term shape")
            # fallthrough: premises recursed below
        for i, p in enumerate(d.premises):
            go(p, f"{path}.{i}" if path else str(i))

    def go_app_like(d: Derivation, path: str, left: Term, right: Term, binder: str | None):
        if not d.premises:
            fail(path, "missing premises")
            return
        head, args = d.premises[0], d.premises[1:]
        if head.term != left:
            fail(path, "first premise types the wrong term")
        if binder is not None and head.ty != d.ty:
            fail(path, "substitution preserves the type of its body")
        m, rest = (EMPTY, head.env) if binder is None else env_minus(head.env, binder)
        if system == SYS_V:
            if len(args) != 1:
                fail(path, "takes exactly two premises")
                return
            arg = args[0]
            if arg.term != right:
                fail(path, "second premise types the wrong term")
            if not isinstance(arg.ty, Mult):
                fail(path, "argument premise must type with a multiset")
                return
            if binder is None:
                if head.ty != Mult((Arrow(arg.ty, d.ty),)):
                    fail(path, "head must type with the singleton [M -> s]")
            elif arg.ty != m:
                fail(path, "argument multiset must match the binder's demand")
        else:
            for i, p in enumerate(args):
                if p.term != right:
                    fail(path, f"argument premise {i} types the wrong term")
            got = Mult(tuple(p.ty for p in args))
            if binder is None:
                if not isinstance(head.ty, Arrow):
                    fail(path, "head must type with an arrow")
                    return
                if head.ty.src != got or head.ty.tgt != d.ty:
                    fail(path, "argument family does not realize the arrow source")
            elif m != got:
                fail(path, "argument family does not realize the binder's demand")
        if d.env != env_sum(rest, *(p.env for p in args)):
            fail(path, "environment is not the sum of the premises")

    go(d, "")
    return errors


# ---------------------------------------------------------------------------
# Synthesis for level-0 normal forms


class NotTypable(ValueError):
    pass


def _synth_v(t: Term, demand: Ty) -> Derivation:
    """System V: give t the demanded type, driving demands top down.

    Only level-0 call-by-value normal forms come here: neutral spines
    end in a variable (which absorbs any demand) and abstractions are
    only ever demanded the empty multiset, typing with an empty family.
    The head path is read in a loop; only arguments recurse.
    """
    path = []  # the nodes above the head, with their demands
    while type(t) in (App, Es):
        path.append((t, demand))
        if type(t) is App:
            t, demand = t.fun, Mult((Arrow(EMPTY, demand),))
        else:
            t = t.body
    d = derive("abs", t, EMPTY) if type(t) is Abs else derive("var", t, demand)
    for node, demand in reversed(path):
        if type(node) is App:
            d = derive("app", node, demand, (d, _synth_v(node.arg, EMPTY)))
        else:
            d = derive("es", node, demand, (d, _synth_v(node.arg, env_get(d.env, node.binder))))
    return d


def _synth_n(t: Term) -> Derivation:
    """System N: type a level-0 call-by-name normal form.

    Abstractions are synthesized bottom up; the one neutral spine under
    them is given an arrow chain of empty sources ending in the type
    variable a0, so the arguments need no derivation at all.  The chain
    of binders and the spine are read in loops.
    """
    binders = []
    while type(t) is Abs:
        binders.append(t)
        t = t.body
    spine = []
    while type(t) is App:
        spine.append(t)
        t = t.fun
    ty: Ty = TyVar("a0")
    for _ in spine:
        ty = Arrow(EMPTY, ty)
    d = derive("var", t, ty)
    for node in reversed(spine):
        d = derive("app", node, d.ty.tgt, (d,))
    for node in reversed(binders):
        d = derive("abs", node, Arrow(env_get(d.env, node.binder), d.ty), (d,))
    return d


def synth_nf_derivation(t: Term, calculus: str) -> Derivation:
    """A derivation for a level-0 normal form of the calculus.  The
    grammar check is the one refusal: synthesis trusts it."""
    if classify_nf(t, calculus, 0.0) == NOT_NF:
        raise NotTypable(f"{show(t)} is not a level-0 normal form")
    if calculus == CBV:
        return _synth_v(t, EMPTY)
    return _synth_n(t)
