"""Normal-form grammars and stratified equality.

Normal forms at level k admit a grammar characterization.  For
call-by-value the grammar is mutual, with three sorts: terms that
unwrap to a variable (vr), neutral terms (ne), and arbitrary normal
forms (no); a binder lowers the level of its body.  For call-by-name
there are two sorts (ne and no) and it is the argument side of an
application or substitution that drops a level.

Stratified equality compares terms only up to depth k of the same
stratification: at level omega it coincides with alpha-equality, and
lower levels ignore the parts of the terms that level-k reduction can
never reach.
"""

from __future__ import annotations

from .terms import (
    CBN,
    CBV,
    Abs,
    App,
    Es,
    Level,
    OMEGA,
    Term,
    Var,
    bot_positions,
    canonical,
    level_of,
)
from .reduce import min_redex_level

VR = "vr"
NE = "ne"
NO = "no"
NOT_NF = "not-nf"


def _dec(k: Level) -> Level:
    return k if k == OMEGA else k - 1


def _cbv_vr(t: Term, k: Level) -> bool:
    match t:
        case Var(_):
            return True
        case Es(b, _, a):
            return _cbv_vr(b, k) and _cbv_ne(a, k)
        case _:
            return False


def _cbv_ne(t: Term, k: Level) -> bool:
    match t:
        case App(f, a):
            return (_cbv_vr(f, k) or _cbv_ne(f, k)) and _cbv_no(a, k)
        case Es(b, _, a):
            return _cbv_ne(b, k) and _cbv_ne(a, k)
        case _:
            return False


def _cbv_no(t: Term, k: Level) -> bool:
    match t:
        case Abs(_, b):
            return True if k == 0 else _cbv_no(b, _dec(k))
        case Var(_):
            return True
        case App(_, _):
            return _cbv_ne(t, k)
        case Es(b, _, a):
            return _cbv_no(b, k) and _cbv_ne(a, k)
        case _:
            return False


def _cbn_ne(t: Term, k: Level) -> bool:
    match t:
        case Var(_):
            return True
        case App(f, a):
            if not _cbn_ne(f, k):
                return False
            return True if k == 0 else _cbn_no(a, _dec(k))
        case _:
            return False


def _cbn_no(t: Term, k: Level) -> bool:
    match t:
        case Abs(_, b):
            return _cbn_no(b, k)
        case _:
            return _cbn_ne(t, k)


def classify_nf(t: Term, calculus: str, k: Level) -> str:
    """Grammar sort of t among the level-k normal forms, or "not-nf".

    Call-by-value distinguishes vr (a variable under substitutions),
    ne (neutral) and no (any normal form); call-by-name has ne and no.
    """
    if calculus == CBV:
        if _cbv_vr(t, k):
            return VR
        if _cbv_ne(t, k):
            return NE
        if _cbv_no(t, k):
            return NO
        return NOT_NF
    if calculus == CBN:
        if _cbn_ne(t, k):
            return NE
        if _cbn_no(t, k):
            return NO
        return NOT_NF
    raise ValueError(f"unknown calculus {calculus!r}")


def is_normal(t: Term, calculus: str, k: Level) -> bool:
    """Reduction-based normality: no redex at level k or below."""
    lvl = min_redex_level(t, calculus)
    return lvl is None or lvl > k


def is_bno(t: Term, calculus: str, k: Level) -> bool:
    """Membership in the level-k normal forms of the partial calculus:
    no level-k redex and every bot sits strictly below level k."""
    if not is_normal(t, calculus, k):
        return False
    return all(level_of(t, p, calculus) > k for p in bot_positions(t))


def strat_eq(t: Term, u: Term, calculus: str, k: Level) -> bool:
    """Equality up to depth k of the stratification, on canonical keys.

    At level omega this is alpha-equality.  At a finite level the parts
    of the term out of reach of level-k reduction are not compared: in
    call-by-value an abstraction at exhausted level equates with any
    abstraction, in call-by-name it is the argument of an application
    or substitution that stops being compared.
    """

    if calculus not in (CBV, CBN):
        raise ValueError(f"unknown calculus {calculus!r}")
    by_value = calculus == CBV

    def go(t: tuple, u: tuple, k: Level) -> bool:
        if t[0] != u[0]:
            return False
        match t[0]:
            case "l":
                if by_value:
                    return k == 0 or go(t[1], u[1], _dec(k))
                return go(t[1], u[1], k)
            case "a" | "s":
                if not go(t[1], u[1], k):
                    return False
                if by_value:
                    return go(t[2], u[2], k)
                return k == 0 or go(t[2], u[2], _dec(k))
            case _:
                return t == u

    return go(canonical(t), canonical(u), k)
