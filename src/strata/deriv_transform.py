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
    env_eq,
    env_minus,
    env_sum,
    mk,
    mult_minus,
    show_ty,
)


class TransformError(ValueError):
    pass


class GenericityContradiction(ValueError):
    """A derivation demanded a typing of a meaningless subterm."""


# ---------------------------------------------------------------------------
# Alpha-renaming inside derivations


def _retarget(d: Derivation, target: Term) -> Derivation:
    """Rename a derivation of an alpha-variant of target so that every
    node types the matching subterm of target itself, binder names
    included."""

    def go(d: Derivation, t: Term, names: dict[str, str]) -> Derivation:
        env = {names.get(k, k): m for k, m in d.env}
        match d.rule, t:
            case "var", Var(_):
                premises = ()
            case "abs", Abs(y, b):
                inner = {**names, d.term.binder: y}
                premises = tuple(go(p, b, inner) for p in d.premises)
            case "app", App(f, a):
                premises = (go(d.premises[0], f, names),) + tuple(
                    go(p, a, names) for p in d.premises[1:])
            case "es", Es(b, y, a):
                premises = (go(d.premises[0], b, {**names, d.term.binder: y}),) + tuple(
                    go(p, a, names) for p in d.premises[1:])
            case _:
                raise TransformError("derivation out of step with the term")
        return mk(d.rule, env, t, d.ty, premises)

    return go(d, target, {})


def _freshen_deriv(d: Derivation, clash: frozenset[str]) -> Derivation:
    """d with the binders of its term that are in clash renamed."""
    t = freshen(d.term, clash)
    return d if t is d.term else _retarget(d, t)


# ---------------------------------------------------------------------------
# Splitting and merging derivations of values (system V)


def _split_value(dv: Derivation, need: Mult) -> tuple[Derivation, Derivation]:
    """Split a value derivation into one proving the needed multiset and
    one proving the rest."""
    match dv.rule:
        case "var":
            x = dv.term.name
            rest = mult_minus(dv.ty, need)
            return (
                mk("var", {x: need}, dv.term, need),
                mk("var", {x: rest}, dv.term, rest),
            )
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

            def pack(ps: list[Derivation]) -> Derivation:
                env = env_sum(*(env_minus(p.env_dict, binder)[1] for p in ps))
                ty = Mult(tuple(Arrow(p.env_dict.get(binder, EMPTY), p.ty) for p in ps))
                return mk("abs", env, dv.term, ty, tuple(ps))

            return pack(taken), pack(avail)
        case r:
            raise TransformError(f"a value derivation ends in var or abs, not {r}")


def _merge_values_v(collected: list[Derivation], v: Term) -> Derivation:
    if not collected:
        match v:
            case Var(_):
                return mk("var", {}, v, EMPTY)
            case Abs(_, _):
                return mk("abs", {}, v, EMPTY)
            case _:
                raise TransformError("only values are merged")
    term = collected[0].term
    if all(c.rule == "var" for c in collected):
        total = Mult(tuple(i for c in collected for i in c.ty.items))
        return mk("var", {term.name: total}, term, total)
    if all(c.rule == "abs" for c in collected):
        premises = tuple(p for c in collected for p in c.premises)
        binder = term.binder
        env = env_sum(*(env_minus(p.env_dict, binder)[1] for p in premises))
        ty = Mult(tuple(Arrow(p.env_dict.get(binder, EMPTY), p.ty) for p in premises))
        return mk("abs", env, term, ty, premises)
    raise TransformError("mixed value derivations cannot be merged")


# ---------------------------------------------------------------------------
# Substitution on derivations (the sv / sN contraction core)


def _subst_deriv_v(db: Derivation, x: str, dv: Derivation) -> Derivation:
    """Rebuild a derivation of t{x:=v} from one of t, splitting the
    value derivation across the occurrences of x."""
    v = dv.term
    db = _freshen_deriv(db, free_vars(v) | {x})
    pool = [dv]

    def go(d: Derivation) -> Derivation:
        match d.rule:
            case "var":
                if d.term.name != x:
                    return d
                taken, rest = _split_value(pool[0], d.ty)
                pool[0] = rest
                return taken
            case "abs":
                if not d.premises:
                    return mk("abs", {}, subst(d.term, {x: v}), d.ty)
                y = d.term.binder
                ps = tuple(go(p) for p in d.premises)
                env = env_sum(*(env_minus(p.env_dict, y)[1] for p in ps))
                return mk("abs", env, Abs(y, ps[0].term), d.ty, ps)
            case "app":
                p0, p1 = (go(p) for p in d.premises)
                return mk(
                    "app",
                    env_sum(p0.env_dict, p1.env_dict),
                    App(p0.term, p1.term),
                    d.ty,
                    (p0, p1),
                )
            case "es":
                y = d.term.binder
                p0 = go(d.premises[0])
                p1 = go(d.premises[1])
                _, rest = env_minus(p0.env_dict, y)
                return mk(
                    "es",
                    env_sum(rest, p1.env_dict),
                    Es(p0.term, y, p1.term),
                    d.ty,
                    (p0, p1),
                )
            case r:
                raise TransformError(f"unknown rule {r}")

    out = go(db)
    leftover = pool[0].ty
    if leftover != EMPTY:
        raise TransformError(f"value derivation not exhausted: {show_ty(leftover)} left")
    return out


def _subst_deriv_n(db: Derivation, x: str, u: Term, args: list[Derivation]) -> Derivation:
    """Rebuild a derivation of t{x:=u} from one of t, handing one
    argument derivation to each typed occurrence of x."""
    db = _freshen_deriv(db, free_vars(u) | {x})
    pool = list(args)

    def go(d: Derivation) -> Derivation:
        match d.rule:
            case "var":
                if d.term.name != x:
                    return d
                want = d.ty
                for i, p in enumerate(pool):
                    if p.ty == want:
                        return pool.pop(i)
                raise TransformError(f"no argument derivation of {show_ty(want)}")
            case "abs":
                y = d.term.binder
                p = go(d.premises[0])
                _, rest = env_minus(p.env_dict, y)
                return mk("abs", rest, Abs(y, p.term), d.ty, (p,))
            case "app":
                ps = tuple(go(p) for p in d.premises)
                arg = ps[1].term if len(ps) > 1 else subst(d.term.arg, {x: u})
                env = env_sum(*(p.env_dict for p in ps))
                return mk("app", env, App(ps[0].term, arg), d.ty, ps)
            case "es":
                y = d.term.binder
                p0 = go(d.premises[0])
                rest_ps = tuple(go(p) for p in d.premises[1:])
                arg = rest_ps[0].term if rest_ps else subst(d.term.arg, {x: u})
                _, rest = env_minus(p0.env_dict, y)
                env = env_sum(rest, *(p.env_dict for p in rest_ps))
                return mk("es", env, Es(p0.term, y, arg), d.ty, (p0,) + rest_ps)
            case r:
                raise TransformError(f"unknown rule {r}")

    out = go(db)
    if pool:
        raise TransformError("argument derivations left over")
    return out


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
                if system == SYS_V:
                    if not isinstance(d.ty, Mult):
                        raise TransformError("a value occurrence must type with a multiset")
                    return mk("var", {x: d.ty}, Var(x), d.ty)
                return mk("var", {x: Mult((d.ty,))}, Var(x), d.ty)
            case Abs(y, bb):
                if d.rule != "abs":
                    raise TransformError("derivation out of step with the source term")
                if not d.premises:
                    return mk("abs", {}, subst(b, mapping), d.ty)
                ab = d.term.binder
                ps = tuple(go(p, bb, {**mapping, y: Var(ab)}) for p in d.premises)
                env = env_sum(*(env_minus(p.env_dict, ab)[1] for p in ps))
                return mk("abs", env, Abs(ab, ps[0].term), d.ty, ps)
            case App(bf, ba):
                if d.rule != "app":
                    raise TransformError("derivation out of step with the source term")
                p0 = go(d.premises[0], bf, mapping)
                rest = tuple(go(p, ba, mapping) for p in d.premises[1:])
                arg = rest[0].term if rest else subst(ba, mapping)
                env = env_sum(*(p.env_dict for p in (p0,) + rest))
                return mk("app", env, App(p0.term, arg), d.ty, (p0,) + rest)
            case Es(bb, y, ba):
                if d.rule != "es":
                    raise TransformError("derivation out of step with the source term")
                ab = d.term.binder
                p0 = go(d.premises[0], bb, {**mapping, y: Var(ab)})
                rest = tuple(go(p, ba, mapping) for p in d.premises[1:])
                arg = rest[0].term if rest else subst(ba, mapping)
                _, outer = env_minus(p0.env_dict, ab)
                env = env_sum(outer, *(p.env_dict for p in rest))
                return mk("es", env, Es(p0.term, ab, arg), d.ty, (p0,) + rest)
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


def _wrap_chain(chain: list[Derivation], core: Derivation, system: str) -> Derivation:
    for node in reversed(chain):
        binder = node.term.binder
        args = node.premises[1:]
        m, rest = env_minus(core.env_dict, binder)
        if system == SYS_V:
            if args[0].ty != m:
                raise TransformError("substitution spine demand changed")
            env = env_sum(rest, args[0].env_dict)
        else:
            if Mult(tuple(p.ty for p in args)) != m:
                raise TransformError("substitution spine demand changed")
            env = env_sum(rest, *(p.env_dict for p in args))
        core = mk("es", env, Es(core.term, binder, node.term.arg), core.ty, (core,) + args)
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
    xa = core.term.binder
    _, rest = env_minus(ds.env_dict, xa)
    env = env_sum(rest, *(p.env_dict for p in dargs))
    new_core = mk("es", env, Es(ds.term, xa, arg_term), ds.ty, (ds,) + dargs)
    out = _wrap_chain(chain, new_core, system)
    _check_same_judgment(d, out)
    return out


def _expand_db(d: Derivation, before_sub: Term, system: str) -> Derivation:
    spine, _ = _peel_es_spine(before_sub.fun)
    chain, des = _peel_chain(d, len(spine))
    if des.rule != "es":
        raise TransformError("contractum is not a substitution node")
    ds, dargs = des.premises[0], des.premises[1:]
    xa = des.term.binder
    m, rest = env_minus(ds.env_dict, xa)
    if system == SYS_V:
        abs_ty: object = Mult((Arrow(m, ds.ty),))
    else:
        abs_ty = Arrow(m, ds.ty)
    d_abs = mk("abs", rest, Abs(xa, ds.term), abs_ty, (ds,))
    clash = {c.term.binder for c in chain} & set(
        free_vars(dargs[0].term if dargs else des.term.arg)
    )
    if clash:
        raise TransformError(f"argument uses spine binders {clash}")
    d_fun = _wrap_chain(chain, d_abs, system)
    arg_term = dargs[0].term if dargs else des.term.arg
    env = env_sum(d_fun.env_dict, *(p.env_dict for p in dargs))
    out = mk("app", env, App(d_fun.term, arg_term), ds.ty, (d_fun,) + dargs)
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
    nd = _subst_deriv_v(db, x, dv)
    out = _wrap_chain(chain, nd, SYS_V)
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
    darg = _wrap_chain(chain, dv, SYS_V)
    _, rest = env_minus(db.env_dict, x)
    out = mk(
        "es",
        env_sum(rest, darg.env_dict),
        Es(db.term, x, darg.term),
        nd.ty,
        (db, darg),
    )
    _check_same_judgment(d, out)
    return out


def _reduce_sn(d: Derivation) -> Derivation:
    if d.rule != "es":
        raise TransformError("sN expects a substitution node")
    db, dargs = d.premises[0], list(d.premises[1:])
    x = d.term.binder
    out = _subst_deriv_n(db, x, d.term.arg, dargs)
    _check_same_judgment(d, out)
    return out


def _expand_sn(d: Derivation, before_sub: Term) -> Derivation:
    x = before_sub.binder
    u = before_sub.arg
    db, collected = _anti_subst(d, before_sub.body, x, SYS_N)
    # the occurrences may type alpha-variants of u: the argument
    # premises must type u itself
    collected = [_retarget(c, u) for c in collected]
    _, rest = env_minus(db.env_dict, x)
    env = env_sum(rest, *(c.env_dict for c in collected))
    out = mk("es", env, Es(db.term, x, u), d.ty, (db,) + tuple(collected))
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
    match d.term, edge:
        case App(_, a), "l":
            term: Term = App(child.term, a)
        case App(f, _), "r":
            term = App(f, child.term)
        case Es(_, x, a), "s":
            term = Es(child.term, x, a)
        case Es(b, x, _), "e":
            term = Es(b, x, child.term)
        case Abs(x, _), "b":
            term = Abs(x, child.term)
        case _:
            raise TransformError("derivation term out of step with the position")
    return mk(d.rule, d.env_dict, term, d.ty, premises)


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
    return "typable", d


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
        new_term = plug(c, u)
        match c:
            case Abs(_, cb):
                if d.rule != "abs":
                    raise TransformError("derivation out of step with the context")
                ps = tuple(go(p, cb) for p in d.premises)
            case App(cf, ca):
                if d.rule != "app":
                    raise TransformError("derivation out of step with the context")
                if hole_edge(c) == "l":
                    ps = (go(d.premises[0], cf),) + d.premises[1:]
                else:
                    ps = (d.premises[0],) + tuple(go(p, ca) for p in d.premises[1:])
            case Es(cb, _, ca):
                if d.rule != "es":
                    raise TransformError("derivation out of step with the context")
                if hole_edge(c) == "s":
                    ps = (go(d.premises[0], cb),) + d.premises[1:]
                else:
                    ps = (d.premises[0],) + tuple(go(p, ca) for p in d.premises[1:])
            case _:
                raise TransformError("a context is built from abs, app and es")
        return mk(d.rule, d.env_dict, new_term, d.ty, ps)

    return go(d, ctx)
