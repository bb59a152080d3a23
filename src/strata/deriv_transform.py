"""Transporting typing derivations along reduction steps.

Both systems enjoy subject reduction and subject expansion for surface
(level-0) steps: contracting or un-contracting a redex preserves the
final judgment env |- term : type exactly.  The transformations here
are constructive: given a derivation of one endpoint of a step they
build a derivation of the other endpoint, recomputing environments
bottom-up so the result can be re-checked independently.

The same machinery yields the typed genericity transformer: a
derivation of C<t> with t meaningless never inspects t, so t can be
replaced by any term without touching the judgment.
"""

from __future__ import annotations

from .terms import (
    Abs,
    App,
    Es,
    Hole,
    Position,
    Term,
    Var,
    alpha_eq,
    free_vars,
    freshen,
    hole_positions,
    plug,
    replace_at,
    subst,
    subterm_at,
)
from .reduce import Step, _peel_es_spine
from .types_core import (
    EMPTY,
    Arrow,
    Derivation,
    Mult,
    SYS_N,
    SYS_V,
    demand,
    derive,
    env_eq,
    mult_minus,
    mult_sum,
    show_ty,
)


class TransformError(ValueError):
    pass


class GenericityContradiction(ValueError):
    """A derivation demanded a typing of a meaningless subterm."""


# ---------------------------------------------------------------------------
# Alpha-renaming inside derivations


def _retarget(d: Derivation, target: Term) -> Derivation:
    """The derivation d of an alpha-variant of target, carried over so
    that every node types the matching subterm of target itself."""
    match d.rule, target:
        case "var", Var(_):
            premises = ()
        case "abs", Abs(_, b):
            premises = tuple(_retarget(p, b) for p in d.premises)
        case ("app", App(f, a)) | ("es", Es(f, _, a)):
            premises = (_retarget(d.premises[0], f),) + tuple(
                _retarget(p, a) for p in d.premises[1:])
        case _:
            raise TransformError("derivation out of step with the term")
    return derive(d.rule, target, d.ty, premises)


def _freshen_deriv(d: Derivation, clash: frozenset[str]) -> Derivation:
    """d with the binders of its term that are in clash renamed."""
    t = freshen(d.term, clash)
    return d if t is d.term else _retarget(d, t)


def _arrows(premises, binder: str) -> Mult:
    """The multiset [M_i -> s_i] that an abstraction's premises realize."""
    return Mult(tuple(Arrow(p.env_dict.get(binder, EMPTY), p.ty) for p in premises))


# ---------------------------------------------------------------------------
# Splitting and merging derivations of values (system V)


def _split_value(dv: Derivation, need: Mult) -> tuple[Derivation, Derivation]:
    """Split a value derivation into one proving the needed multiset and
    one proving the rest."""
    match dv.rule:
        case "var":
            return derive("var", dv.term, need), derive("var", dv.term, mult_minus(dv.ty, need))
        case "abs":
            binder = dv.term.binder
            avail = list(dv.premises)
            taken: list[Derivation] = []
            for want in need.items:
                for i, p in enumerate(avail):
                    if Arrow(p.env_dict.get(binder, EMPTY), p.ty) == want:
                        taken.append(avail.pop(i))
                        break
                else:
                    raise TransformError(
                        f"value derivation cannot supply {show_ty(want)}"
                    )
            return tuple(derive("abs", dv.term, _arrows(ps, binder), tuple(ps))
                         for ps in (taken, avail))
        case r:
            raise TransformError(f"a value derivation ends in var or abs, not {r}")


def _merge_values_v(collected: list[Derivation], v: Term) -> Derivation:
    if not collected:
        if not isinstance(v, (Var, Abs)):
            raise TransformError("only values are merged")
        return derive("var" if isinstance(v, Var) else "abs", v, EMPTY)
    term = collected[0].term
    if all(c.rule == "var" for c in collected):
        return derive("var", term, mult_sum(*(c.ty for c in collected)))
    if all(c.rule == "abs" for c in collected):
        premises = tuple(p for c in collected for p in c.premises)
        return derive("abs", term, _arrows(premises, term.binder), premises)
    raise TransformError("mixed value derivations cannot be merged")


# ---------------------------------------------------------------------------
# Substitution on derivations (the sv / sN contraction core)


def _subst_deriv(db: Derivation, x: str, u: Term, occurrence) -> Derivation:
    """Rebuild a derivation of t{x:=u} from one of t.  Each typed
    occurrence of x gets the derivation occurrence(type) returns: in
    system V a part split off the value's derivation, in system N one
    of the argument derivations.  Subterms that no premise types are
    substituted as terms."""
    db = _freshen_deriv(db, free_vars(u) | {x})

    def go(d: Derivation) -> Derivation:
        t = d.term
        if d.rule == "var":
            return occurrence(d.ty) if t.name == x else d
        ps = tuple(go(p) for p in d.premises)
        match t:
            case Abs(y, _):
                term = Abs(y, ps[0].term) if ps else subst(t, {x: u})
            case App(_, a):
                term = App(ps[0].term, ps[1].term if len(ps) > 1 else subst(a, {x: u}))
            case Es(_, y, a):
                term = Es(ps[0].term, y, ps[1].term if len(ps) > 1 else subst(a, {x: u}))
            case _:
                raise TransformError(f"unknown rule {d.rule}")
        return derive(d.rule, term, d.ty, ps)

    return go(db)


# ---------------------------------------------------------------------------
# Anti-substitution: recover a derivation of t and the derivations of
# the substituted occurrences from a derivation of t{x:=v}


def _anti_subst(
    nd: Derivation, b: Term, x: str, system: str
) -> tuple[Derivation, list[Derivation]]:
    collected: list[Derivation] = []

    # mapping: each binder of the source in scope, to the variable of
    # the derivation's binder that it became
    def go(d: Derivation, b: Term, mapping: dict[str, Var]) -> Derivation:
        match b:
            case Var(y):
                if y in mapping or y != x:
                    return d
                collected.append(d)
                if system == SYS_V and not isinstance(d.ty, Mult):
                    raise TransformError("a value occurrence must type with a multiset")
                return derive("var", Var(x), d.ty)
            case Abs(y, bb):
                if d.rule != "abs":
                    raise TransformError("derivation out of step with the source term")
                if not d.premises:
                    return derive("abs", subst(b, mapping), d.ty)
                ab = d.term.binder
                ps = tuple(go(p, bb, {**mapping, y: Var(ab)}) for p in d.premises)
                return derive("abs", Abs(ab, ps[0].term), d.ty, ps)
            case App(bf, ba) | Es(bf, _, ba):
                rule = "app" if isinstance(b, App) else "es"
                if d.rule != rule:
                    raise TransformError("derivation out of step with the source term")
                inner = mapping if rule == "app" else {**mapping, b.binder: Var(d.term.binder)}
                ps = (go(d.premises[0], bf, inner),) + tuple(
                    go(p, ba, mapping) for p in d.premises[1:])
                arg = ps[1].term if len(ps) > 1 else subst(ba, mapping)
                term = (App(ps[0].term, arg) if rule == "app"
                        else Es(ps[0].term, d.term.binder, arg))
                return derive(rule, term, d.ty, ps)
            case _:
                raise TransformError("cannot walk this term shape")

    return go(nd, b, {}), collected


# ---------------------------------------------------------------------------
# Local transforms per rule, then navigation


def _peel_chain(d: Derivation, n: int | None = None) -> tuple[list[Derivation], Derivation]:
    chain = []
    while d.rule == "es" and (n is None or len(chain) < n):
        chain.append(d)
        d = d.premises[0]
    if n is not None and len(chain) != n:
        raise TransformError("derivation has a shorter substitution spine than the term")
    return chain, d


def _wrap_chain(chain: list[Derivation], core: Derivation) -> Derivation:
    for node in reversed(chain):
        binder = node.term.binder
        args = node.premises[1:]
        if core.env_dict.get(binder, EMPTY) != mult_sum(*(demand(p.ty) for p in args)):
            raise TransformError("substitution spine demand changed")
        core = derive("es", Es(core.term, binder, node.term.arg), core.ty, (core,) + args)
    return core


def _reduce_db(d: Derivation, system: str) -> Derivation:
    if d.rule != "app":
        raise TransformError("dB expects an application node")
    df, dargs = d.premises[0], d.premises[1:]
    arg_term = dargs[0].term if dargs else d.term.arg
    df = _freshen_deriv(df, free_vars(arg_term))
    chain, core = _peel_chain(df)
    if core.rule != "abs":
        raise TransformError("dB expects an abstraction under the spine")
    if system == SYS_V and len(core.premises) != 1:
        raise TransformError("a singleton arrow multiset carries one premise")
    if not core.premises:
        raise TransformError("dB cannot fire on an untyped abstraction body")
    ds = core.premises[0]
    new_core = derive("es", Es(ds.term, core.term.binder, arg_term), ds.ty, (ds,) + dargs)
    out = _wrap_chain(chain, new_core)
    _check_same_judgment(d, out)
    return out


def _expand_db(d: Derivation, before_sub: Term, system: str) -> Derivation:
    spine, _ = _peel_es_spine(before_sub.fun)
    chain, des = _peel_chain(d, len(spine))
    if des.rule != "es":
        raise TransformError("contractum is not a substitution node")
    ds, dargs = des.premises[0], des.premises[1:]
    xa = des.term.binder
    arrow = Arrow(ds.env_dict.get(xa, EMPTY), ds.ty)
    abs_ty = Mult((arrow,)) if system == SYS_V else arrow
    d_abs = derive("abs", Abs(xa, ds.term), abs_ty, (ds,))
    arg_term = dargs[0].term if dargs else des.term.arg
    clash = {c.term.binder for c in chain} & set(free_vars(arg_term))
    if clash:
        raise TransformError(f"argument uses spine binders {clash}")
    d_fun = _wrap_chain(chain, d_abs)
    out = derive("app", App(d_fun.term, arg_term), ds.ty, (d_fun,) + dargs)
    _check_same_judgment(d, out)
    return out


def _reduce_sv(d: Derivation) -> Derivation:
    if d.rule != "es":
        raise TransformError("sv expects a substitution node")
    db, darg = d.premises
    x = d.term.binder
    darg = _freshen_deriv(darg, free_vars(db.term) - {x})
    chain, dv = _peel_chain(darg)
    if dv.rule not in ("var", "abs"):
        raise TransformError("sv expects a value under the spine")
    if db.env_dict.get(x, EMPTY) != dv.ty:
        raise TransformError("binder demand does not match the value's multiset")
    pool = [dv]

    def split(need: Mult) -> Derivation:
        taken, pool[0] = _split_value(pool[0], need)
        return taken

    nd = _subst_deriv(db, x, dv.term, split)
    if pool[0].ty != EMPTY:
        raise TransformError(f"value derivation not exhausted: {show_ty(pool[0].ty)} left")
    out = _wrap_chain(chain, nd)
    _check_same_judgment(d, out)
    return out


def _expand_sv(d: Derivation, before_sub: Term) -> Derivation:
    spine, v = _peel_es_spine(before_sub.arg)
    x = before_sub.binder
    chain, nd = _peel_chain(d, len(spine))
    db, collected = _anti_subst(nd, before_sub.body, x, SYS_V)
    if collected:
        v_after = collected[0].term
    else:
        v_after = subst(v, {y: Var(c.term.binder) for (y, _), c in zip(spine, chain)})
    dv = _merge_values_v(collected, v_after)
    if db.env_dict.get(x, EMPTY) != dv.ty:
        raise TransformError("collected value demand is inconsistent")
    darg = _wrap_chain(chain, dv)
    out = derive("es", Es(db.term, x, darg.term), nd.ty, (db, darg))
    _check_same_judgment(d, out)
    return out


def _reduce_sn(d: Derivation) -> Derivation:
    if d.rule != "es":
        raise TransformError("sN expects a substitution node")
    pool = list(d.premises[1:])

    def pop(want) -> Derivation:
        for i, p in enumerate(pool):
            if p.ty == want:
                return pool.pop(i)
        raise TransformError(f"no argument derivation of {show_ty(want)}")

    out = _subst_deriv(d.premises[0], d.term.binder, d.term.arg, pop)
    if pool:
        raise TransformError("argument derivations left over")
    _check_same_judgment(d, out)
    return out


def _expand_sn(d: Derivation, before_sub: Term) -> Derivation:
    x = before_sub.binder
    u = before_sub.arg
    db, collected = _anti_subst(d, before_sub.body, x, SYS_N)
    # the occurrences may type alpha-variants of u: the argument
    # premises must type u itself
    collected = tuple(_retarget(c, u) for c in collected)
    out = derive("es", Es(db.term, x, u), d.ty, (db,) + collected)
    _check_same_judgment(d, out)
    return out


def _check_same_judgment(old: Derivation, new: Derivation):
    if new.ty != old.ty or not env_eq(new.env_dict, old.env_dict):
        raise TransformError("transformation changed the final judgment")


_EDGE_PREMISE = {
    SYS_V: {("app", "l"): 0, ("app", "r"): 1, ("es", "s"): 0, ("es", "e"): 1},
    SYS_N: {("app", "l"): 0, ("es", "s"): 0, ("abs", "b"): 0},
}


def _walk(d: Derivation, pos: Position, system: str, transform) -> Derivation:
    if not pos:
        return transform(d)
    edge = pos[0]
    idx = _EDGE_PREMISE[system].get((d.rule, edge))
    if idx is None or idx >= len(d.premises):
        raise TransformError(
            f"cannot navigate edge {edge!r} through a {d.rule} node in system {system}"
        )
    child = _walk(d.premises[idx], pos[1:], system, transform)
    premises = d.premises[:idx] + (child,) + d.premises[idx + 1 :]
    return derive(d.rule, replace_at(d.term, (edge,), child.term), d.ty, premises)


def reduce_derivation(d: Derivation, step: Step, system: str) -> Derivation:
    """From a derivation of the step's source, one of its target."""
    if not alpha_eq(d.term, step.before):
        raise TransformError("derivation does not type the step's source")

    def local(node: Derivation) -> Derivation:
        match step.rule:
            case "dB":
                return _reduce_db(node, system)
            case "sv":
                return _reduce_sv(node)
            case "sN":
                return _reduce_sn(node)
            case r:
                raise TransformError(f"unknown rule {r}")

    return _walk(d, step.position, system, local)


def expand_derivation(d: Derivation, step: Step, system: str) -> Derivation:
    """From a derivation of the step's target, one of its source."""
    if not alpha_eq(d.term, step.after):
        raise TransformError("derivation does not type the step's target")
    # the step renamed the binders of its target out of the way of its
    # source's free names: the transforms below rely on those names
    if d.term != step.after:
        d = _retarget(d, step.after)
    before_sub = subterm_at(step.before, step.position)

    def local(node: Derivation) -> Derivation:
        match step.rule:
            case "dB":
                return _expand_db(node, before_sub, system)
            case "sv":
                return _expand_sv(node, before_sub)
            case "sN":
                return _expand_sn(node, before_sub)
            case r:
                raise TransformError(f"unknown rule {r}")

    return _walk(d, step.position, system, local)


# ---------------------------------------------------------------------------
# Typability coincides with meaningfulness: surface-normalize, type the
# normal form, and pull the derivation back through the steps


def typable(t: Term, calculus: str, fuel: int | None = None):
    """Decide typability of a term by surface normalization.

    Returns (status, derivation) with status in "typable" (derivation
    attached), "untypable" (the surface reduction loops), or "unknown"
    (fuel ran out).
    """
    from .reduce import normalize
    from .typecheck import SYSTEM_OF, synth_nf_derivation

    trace = normalize(t, calculus, 0.0, fuel)
    if trace.outcome == "cycle":
        return "untypable", None
    if trace.outcome == "fuel":
        return "unknown", None
    d = synth_nf_derivation(trace.final, calculus)
    system = SYSTEM_OF[calculus]
    for step in reversed(trace.steps):
        d = expand_derivation(d, step, system)
    # the steps chose the binder names of the terms they passed through
    return "typable", d if d.term == t else _retarget(d, t)


# ---------------------------------------------------------------------------
# Typed genericity


def typed_genericity(d: Derivation, ctx: Term, u: Term, system: str) -> Derivation:
    """Turn a derivation of C<t> into one of C<u> with the same final
    judgment, without ever typing what sits in the hole.

    Raises GenericityContradiction if the derivation does reach the
    hole, i.e. if the plugged subterm is itself typed somewhere.
    """

    def hole_edge(c: Term) -> str:
        return hole_positions(c)[0][0]

    def go(d: Derivation, c: Term) -> Derivation:
        if isinstance(c, Hole):
            raise GenericityContradiction(
                "the derivation types the plugged subterm itself"
            )
        match c:
            case Abs(_, cb):
                if d.rule != "abs":
                    raise TransformError("derivation out of step with the context")
                ps = tuple(go(p, cb) for p in d.premises)
            case App(cf, ca) | Es(cf, _, ca):
                if d.rule != ("app" if isinstance(c, App) else "es"):
                    raise TransformError("derivation out of step with the context")
                if hole_edge(c) in ("l", "s"):
                    ps = (go(d.premises[0], cf),) + d.premises[1:]
                else:
                    ps = (d.premises[0],) + tuple(go(p, ca) for p in d.premises[1:])
            case _:
                raise TransformError("a context is built from abs, app and es")
        return derive(d.rule, plug(c, u), d.ty, ps)

    return go(d, ctx)
