"""Normal-form grammars and stratified equality.

Normal forms at level k admit a grammar characterization by sorts.
Call-by-value has three: terms that unwrap to a variable (vr),
neutral terms (ne), and arbitrary normal forms (no); a binder lowers
the level of its body.  Call-by-name has two (ne and no), and it is
the argument of an application that drops a level.  classify_nf finds
the most specific sort of a term in one walk.

Stratified equality compares terms only up to depth k of the same
stratification: at level omega it coincides with alpha-equality, and
lower levels ignore the parts of the terms that level-k reduction can
never reach.
"""

from __future__ import annotations

from .terms import CBV, Abs, App, Bot, Es, Level, Term, Var, agree, deep_edges
from .reduce import min_redex_level

VR = "vr"
NE = "ne"
NO = "no"
NOT_NF = "not-nf"


def _cbv_sort(t: Term, k: Level) -> str:
    # the head path (function sides and closure bodies) and a binder
    # chain are read in loops: only arguments and chain bodies recurse
    path, depth = [], k
    while type(t) is App or type(t) is Es:
        path.append(t)
        t = t.fun if type(t) is App else t.body
    sort = VR if type(t) is Var else NOT_NF
    if type(t) is Abs:
        while type(t) is Abs and depth > 0:
            t, depth = t.body, depth - 1
        sort = NO if type(t) is Abs or _cbv_sort(t, depth) != NOT_NF else NOT_NF
    for node in reversed(path):
        if type(node) is App:  # a neutral spine takes normal arguments
            sort = NE if sort in (VR, NE) and _cbv_sort(node.arg, k) != NOT_NF else NOT_NF
        elif _cbv_sort(node.arg, k) != NE:
            # a closure keeps its body's sort while its argument is neutral
            sort = NOT_NF
    return sort


def _cbn_sort(t: Term, k: Level) -> str:
    # a binder chain over a neutral spine, both read in loops: only
    # arguments recurse, one level down
    under_binder = type(t) is Abs
    while type(t) is Abs:
        t = t.body
    args = []
    while type(t) is App:
        args.append(t.arg)
        t = t.fun
    if type(t) is not Var or k != 0 and any(_cbn_sort(a, k - 1) == NOT_NF for a in args):
        return NOT_NF
    return NO if under_binder else NE


def classify_nf(t: Term, calculus: str, k: Level) -> str:
    """The most specific grammar sort of t among the level-k normal
    forms, or "not-nf".

    Call-by-value distinguishes vr (a variable under substitutions),
    ne (neutral) and no (any normal form); call-by-name has ne and no.
    Every vr and every ne is also a no.
    """
    deep_edges(calculus)
    return (_cbv_sort if calculus == CBV else _cbn_sort)(t, k)


def is_normal(t: Term, calculus: str, k: Level) -> bool:
    """Reduction-based normality: no redex at level k or below."""
    lvl = min_redex_level(t, calculus)
    return lvl is None or lvl > k


def is_bno(t: Term, calculus: str, k: Level) -> bool:
    """Membership in the level-k normal forms of the partial calculus:
    no level-k redex and every bot sits strictly below level k."""
    return is_normal(t, calculus, k) and not has_bot_within(t, calculus, k)


def has_bot_within(t: Term, calculus: str, k: Level) -> bool:
    """Whether some bot of t sits at level k or above it.

    Walks only that part of t, one level at a time and without
    recursion: by value both sides of applications and substitutions,
    and the body of a binder one level down; by name function sides,
    bodies and substitution bodies, and arguments one level down.
    """
    deep_edges(calculus)
    by_value, layer, level = calculus == CBV, [t], 0
    while layer:
        deeper: list[Term] = []
        args, bodies = (layer, deeper) if by_value else (deeper, layer)
        while layer:
            t = layer.pop()
            cls = type(t)
            if cls is App:
                layer.append(t.fun)
                args.append(t.arg)
            elif cls is Abs:
                bodies.append(t.body)
            elif cls is Es:
                layer.append(t.body)
                args.append(t.arg)
            elif cls is Bot:
                return True
        if level >= k:
            return False
        layer, level = deeper, level + 1
    return False


def strat_eq(t: Term, u: Term, calculus: str, k: Level) -> bool:
    """Equality up to depth k of the stratification.

    At level omega this is alpha-equality.  At a finite level the parts
    of the term out of reach of level-k reduction are not compared: in
    call-by-value an abstraction at exhausted level equates with any
    abstraction, in call-by-name it is the argument of an application
    or substitution that stops being compared.
    """
    return agree(t, u, calculus, k)
