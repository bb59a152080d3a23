"""Transporting typing derivations along reduction steps.

Both systems enjoy subject reduction and subject expansion for surface
(level-0) steps: contracting or un-contracting a redex preserves the
final judgment env |- term : type exactly.  The transformations here
are constructive: given a derivation of one endpoint of a step they
build a derivation of the other endpoint, over that endpoint's own
subterms, recomputing environments bottom-up so the result can be
re-checked independently.  One walker, _carry, moves a derivation
onto a term of the same shape up to names; the rules differ only in
what happens at the occurrences of the substituted variable.

The same walker yields the typed genericity transformer: a
derivation of C<t> with t meaningless never inspects t, so t can be
replaced by any term without touching the judgment.
"""

from __future__ import annotations

from .terms import Abs, App, Es, Hole, Position, Term, Var, alpha_eq, free_vars, path_to, plug
from .reduce import Step, _peel_es_spine, normalize
from .typecheck import SYSTEM_OF, synth_nf_derivation
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
# Carrying a derivation onto a term


def _carry(d: Derivation, t: Term, x: str | None = None, hook=None) -> Derivation:
    """d carried onto t, a term of the same shape up to names: the same
    rules and types, each node over the matching subterm of t, with its
    environment computed from t's names.  While x is free on both
    sides, hook(d, t) takes over where either side is an occurrence of
    x.  A hole of t is a subterm that d must not type."""
    if d.term is t and (x is None or x not in free_vars(t)):
        return d
    if x is not None and (type(t) is Var and t.name == x
                          or d.rule == "var" and d.term.name == x):
        return hook(d, t)
    match d.rule, t:
        case "var", Var(_):
            return derive("var", t, d.ty)
        case "abs", Abs(y, b):
            if x in (y, d.term.binder):
                x = None
            premises = tuple(_carry(p, b, x, hook) for p in d.premises)
        case ("app", App(f, a)) | ("es", Es(f, _, a)):
            inner = None if d.rule == "es" and x in (t.binder, d.term.binder) else x
            premises = (_carry(d.premises[0], f, inner, hook),) + tuple(
                _carry(p, a, x, hook) for p in d.premises[1:])
        case _, Hole():
            raise GenericityContradiction("the derivation types the plugged subterm itself")
        case _:
            raise TransformError("derivation out of step with the term")
    return derive(d.rule, t, d.ty, premises)


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


def _merge_value(copies: list[Derivation], v: Term) -> Derivation:
    """One derivation of the value v from the derivations of its copies."""
    if isinstance(v, Var) and all(c.rule == "var" for c in copies):
        return derive("var", v, mult_sum(*(c.ty for c in copies)))
    if isinstance(v, Abs) and all(c.rule == "abs" for c in copies):
        premises = tuple(_carry(p, v.body) for c in copies for p in c.premises)
        return derive("abs", v, _arrows(premises, v.binder), premises)
    raise TransformError("the copies of a value do not type it as one value")


def _uncopy(d: Derivation, body: Term, x: str, system: str
            ) -> tuple[Derivation, list[Derivation]]:
    """From a derivation d of body{x:=u}, one of body and the derivations
    of the copies of u that d types, in the order met."""
    copies: list[Derivation] = []

    def collect(c: Derivation, var: Term) -> Derivation:
        if system == SYS_V and not isinstance(c.ty, Mult):
            raise TransformError("a value occurrence must type with a multiset")
        copies.append(c)
        return derive("var", var, c.ty)

    return _carry(d, body, x, collect), copies


# ---------------------------------------------------------------------------
# Local transforms per rule, then navigation.  Each takes the derivation
# of one endpoint's redex or contractum and the other endpoint's term at
# that position.


def _peel_chain(d: Derivation, n: int | None = None) -> tuple[list[Derivation], Derivation]:
    chain = []
    while d.rule == "es" and (n is None or len(chain) < n):
        chain.append(d)
        d = d.premises[0]
    if n is not None and len(chain) != n:
        raise TransformError("derivation has a shorter substitution spine than the term")
    return chain, d


def _below(t: Term, n: int) -> Term:
    """t's subterm under the bodies of its first n substitutions."""
    for _ in range(n):
        t = t.body
    return t


def _wrap_chain(chain: list[Derivation], core: Derivation, t: Term) -> Derivation:
    """core, a derivation of _below(t, len(chain)), under the substitution
    nodes of chain carried onto t's."""
    spine = [t]
    for _ in chain[1:]:
        spine.append(spine[-1].body)
    for node, s in zip(reversed(chain), reversed(spine)):
        args = tuple(_carry(p, s.arg) for p in node.premises[1:])
        if core.env_dict.get(s.binder, EMPTY) != mult_sum(*(demand(p.ty) for p in args)):
            raise TransformError("substitution spine demand changed")
        core = derive("es", s, core.ty, (core,) + args)
    return core


def _reduce_db(d: Derivation, t: Term, system: str) -> Derivation:
    if d.rule != "app":
        raise TransformError("dB expects an application node")
    chain, core = _peel_chain(d.premises[0])
    if core.rule != "abs":
        raise TransformError("dB expects an abstraction under the spine")
    if system == SYS_V and len(core.premises) != 1:
        raise TransformError("a singleton arrow multiset carries one premise")
    if not core.premises:
        raise TransformError("dB cannot fire on an untyped abstraction body")
    ds = core.premises[0]
    es = _below(t, len(chain))
    new_core = derive("es", es, ds.ty, (_carry(ds, es.body),) + d.premises[1:])
    out = _wrap_chain(chain, new_core, t)
    _check_same_judgment(d, out)
    return out


def _expand_db(d: Derivation, t: Term, system: str) -> Derivation:
    spine, lam = _peel_es_spine(t.fun)
    chain, des = _peel_chain(d, len(spine))
    if des.rule != "es":
        raise TransformError("contractum is not a substitution node")
    ds = _carry(des.premises[0], lam.body)
    arrow = Arrow(ds.env_dict.get(lam.binder, EMPTY), ds.ty)
    d_abs = derive("abs", lam, Mult((arrow,)) if system == SYS_V else arrow, (ds,))
    d_fun = _wrap_chain(chain, d_abs, t.fun)
    out = derive("app", t, ds.ty, (d_fun,) + des.premises[1:])
    _check_same_judgment(d, out)
    return out


def _reduce_sv(d: Derivation, t: Term) -> Derivation:
    if d.rule != "es":
        raise TransformError("sv expects a substitution node")
    db, darg = d.premises
    x = d.term.binder
    chain, dv = _peel_chain(darg)
    if dv.rule not in ("var", "abs"):
        raise TransformError("sv expects a value under the spine")
    if db.env_dict.get(x, EMPTY) != dv.ty:
        raise TransformError("binder demand does not match the value's multiset")
    pool = [dv]

    def split(occurrence: Derivation, v: Term) -> Derivation:
        taken, pool[0] = _split_value(pool[0], occurrence.ty)
        return _carry(taken, v)

    nd = _carry(db, _below(t, len(chain)), x, split)
    if pool[0].ty != EMPTY:
        raise TransformError(f"value derivation not exhausted: {show_ty(pool[0].ty)} left")
    out = _wrap_chain(chain, nd, t)
    _check_same_judgment(d, out)
    return out


def _expand_sv(d: Derivation, t: Term) -> Derivation:
    spine, v = _peel_es_spine(t.arg)
    chain, nd = _peel_chain(d, len(spine))
    db, copies = _uncopy(nd, t.body, t.binder, SYS_V)
    dv = _merge_value(copies, v)
    if db.env_dict.get(t.binder, EMPTY) != dv.ty:
        raise TransformError("collected value demand is inconsistent")
    out = derive("es", t, nd.ty, (db, _wrap_chain(chain, dv, t.arg)))
    _check_same_judgment(d, out)
    return out


def _reduce_sn(d: Derivation, t: Term) -> Derivation:
    if d.rule != "es":
        raise TransformError("sN expects a substitution node")
    pool = list(d.premises[1:])

    def pop(occurrence: Derivation, u: Term) -> Derivation:
        for i, p in enumerate(pool):
            if p.ty == occurrence.ty:
                return _carry(pool.pop(i), u)
        raise TransformError(f"no argument derivation of {show_ty(occurrence.ty)}")

    out = _carry(d.premises[0], t, d.term.binder, pop)
    if pool:
        raise TransformError("argument derivations left over")
    _check_same_judgment(d, out)
    return out


def _expand_sn(d: Derivation, t: Term) -> Derivation:
    db, copies = _uncopy(d, t.body, t.binder, SYS_N)
    out = derive("es", t, d.ty, (db,) + tuple(copies))
    _check_same_judgment(d, out)
    return out


def _check_same_judgment(old: Derivation, new: Derivation):
    if new.ty != old.ty or not env_eq(new.env_dict, old.env_dict):
        raise TransformError("transformation changed the final judgment")


_EDGE_PREMISE = {
    SYS_V: {("app", "l"): 0, ("app", "r"): 1, ("es", "s"): 0, ("es", "e"): 1},
    SYS_N: {("app", "l"): 0, ("es", "s"): 0, ("abs", "b"): 0},
}


def _walk(d: Derivation, src: Term, dst: Term, pos: Position, system: str,
          local) -> Derivation:
    """A derivation of dst from d, one of src, where src and dst are the
    endpoints of a step at pos: local(node, sub) turns the derivation of
    src's subterm at pos into one of dst's subterm sub, and the nodes
    above it are rebuilt over dst's path.  The premises off the path
    type subterms that both endpoints share."""
    if d.term is not src:
        d = _carry(d, src)
    above: list[tuple[Derivation, int]] = []
    for edge in pos:
        idx = _EDGE_PREMISE[system].get((d.rule, edge))
        if idx is None or idx >= len(d.premises):
            raise TransformError(
                f"cannot navigate edge {edge!r} through a {d.rule} node in system {system}"
            )
        above.append((d, idx))
        d = d.premises[idx]
    path = path_to(dst, pos)
    out = local(d, path[-1])
    for (node, idx), t in zip(reversed(above), reversed(path[:-1])):
        out = derive(node.rule, t, node.ty,
                     node.premises[:idx] + (out,) + node.premises[idx + 1:])
    return out


def reduce_derivation(d: Derivation, step: Step, system: str) -> Derivation:
    """From a derivation of the step's source, one of its target."""
    if not alpha_eq(d.term, step.before):
        raise TransformError("derivation does not type the step's source")

    def local(node: Derivation, t: Term) -> Derivation:
        match step.rule:
            case "dB":
                return _reduce_db(node, t, system)
            case "sv":
                return _reduce_sv(node, t)
            case "sN":
                return _reduce_sn(node, t)
            case r:
                raise TransformError(f"unknown rule {r}")

    return _walk(d, step.before, step.after, step.position, system, local)


def expand_derivation(d: Derivation, step: Step, system: str) -> Derivation:
    """From a derivation of the step's target, one of its source."""
    if not alpha_eq(d.term, step.after):
        raise TransformError("derivation does not type the step's target")

    def local(node: Derivation, t: Term) -> Derivation:
        match step.rule:
            case "dB":
                return _expand_db(node, t, system)
            case "sv":
                return _expand_sv(node, t)
            case "sN":
                return _expand_sn(node, t)
            case r:
                raise TransformError(f"unknown rule {r}")

    return _walk(d, step.after, step.before, step.position, system, local)


# ---------------------------------------------------------------------------
# Typability coincides with meaningfulness: surface-normalize, type the
# normal form, and pull the derivation back through the steps


def typable(t: Term, calculus: str, fuel: int | None = None):
    """Decide typability of a term by surface normalization.

    Returns (status, derivation) with status in "typable" (derivation
    attached), "untypable" (the surface reduction loops), or "unknown"
    (fuel ran out).
    """
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


def typed_genericity(d: Derivation, ctx: Term, u: Term) -> Derivation:
    """Turn a derivation of C<t> into one of C<u> with the same final
    judgment, without ever typing what sits in the hole.

    Raises GenericityContradiction if the derivation does reach the
    hole, i.e. if the plugged subterm is itself typed somewhere: the
    derivation is carried onto the context first, where a hole stops
    it, then onto C<u>.
    """
    return _carry(_carry(d, ctx), plug(ctx, u))
