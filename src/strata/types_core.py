"""Quantitative (non-idempotent intersection) types and derivations.

Two systems share the syntax of types:

  system V (call-by-value):  sigma ::= alpha | M | M -> sigma
  system N (call-by-name):   sigma ::= alpha | M -> sigma

where M is a finite multiset of types.  Multisets are kept in a sorted
canonical form so that structural equality is multiset equality.

A derivation is a tree of judgments env |- term : type, one node per
rule instance.  Typing environments map variables to multisets; a
variable absent from the environment carries the empty multiset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .terms import NAME_CHARS, Term, parse, show, tokenize

SYS_V = "V"
SYS_N = "N"


@dataclass(frozen=True)
class TyVar:
    name: str


@dataclass(frozen=True)
class Mult:
    items: tuple["Ty", ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(sorted(self.items, key=ty_key)))


@dataclass(frozen=True)
class Arrow:
    src: Mult
    tgt: "Ty"


Ty = Union[TyVar, Mult, Arrow]

def ty_key(t: Ty) -> tuple:
    match t:
        case TyVar(n):
            return (0, n)
        case Mult(items):
            return (1, tuple(ty_key(i) for i in items))
        case Arrow(src, tgt):
            return (2, ty_key(src), ty_key(tgt))


EMPTY = Mult(())


def mult_sum(*ms: Mult) -> Mult:
    items: tuple[Ty, ...] = ()
    for m in ms:
        items += m.items
    return Mult(items)

def mult_minus(a: Mult, b: Mult) -> Mult:
    """Multiset difference; b must be included in a."""
    items = list(a.items)
    for x in b.items:
        items.remove(x)  # raises ValueError if not included
    return Mult(tuple(items))


def valid_ty(t: Ty, system: str) -> bool:
    """Shape check: system N forbids bare multisets as judgment types;
    every type is a V judgment type."""
    if system != SYS_N or isinstance(t, TyVar):
        return True
    if isinstance(t, Mult):
        return False
    return all(valid_ty(i, system) for i in t.src.items) and valid_ty(t.tgt, system)


# ---------------------------------------------------------------------------
# Environments: (variable, multiset) pairs sorted by variable, none empty


Env = tuple[tuple[str, Mult], ...]


def env_get(env: Env, x: str) -> Mult:
    """The multiset that env assigns to x."""
    for k, m in env:
        if k == x:
            return m
    return EMPTY


def env_sum(*envs: Env) -> Env:
    """The sum of the environments: each variable's multisets added up."""
    parts = [env for env in envs if env]
    if len(parts) < 2:
        return parts[0] if parts else ()
    total: dict[str, Mult] = {}
    for env in parts:
        for k, m in env:
            total[k] = mult_sum(total[k], m) if k in total else m
    return tuple(sorted(total.items()))


def env_minus(env: Env, x: str) -> tuple[Mult, Env]:
    """The multiset assigned to x, and the environment without x."""
    for i, (k, m) in enumerate(env):
        if k == x:
            return m, env[:i] + env[i + 1:]
    return EMPTY, env


# ---------------------------------------------------------------------------
# Derivations


@dataclass(frozen=True)
class Derivation:
    rule: str  # var | abs | app | es
    env: Env
    term: Term
    ty: Ty
    premises: tuple["Derivation", ...] = ()


def mk(rule: str, env: dict[str, Mult], term: Term, ty: Ty,
       premises: tuple[Derivation, ...] = ()) -> Derivation:
    """A node with the given environment, for derivations read from outside."""
    return Derivation(rule, tuple(sorted((k, m) for k, m in env.items() if m.items)),
                      term, ty, premises)


def demand(ty: Ty) -> Mult:
    """What a variable, or an argument, typed with ty asks of the
    environment: ty itself in system V, where it is a multiset, and
    [ty] in system N."""
    return ty if isinstance(ty, Mult) else Mult((ty,))


def derive(rule: str, term: Term, ty: Ty,
           premises: tuple[Derivation, ...] = ()) -> Derivation:
    """A node whose environment is computed as its rule computes it:
    var carries its own demand, abs sums its premises without the
    binder, app sums its premises, and es sums its head without the
    binder and its arguments."""
    match rule:
        case "var":
            own = demand(ty)
            env = ((term.name, own),) if own.items else ()
            return Derivation(rule, env, term, ty, premises)
        case "abs":
            parts = [env_minus(p.env, term.binder)[1] for p in premises]
        case "app":
            parts = [p.env for p in premises]
        case "es":
            parts = [env_minus(premises[0].env, term.binder)[1]] + [p.env for p in premises[1:]]
        case _:
            raise ValueError(f"unknown rule {rule}")
    return Derivation(rule, env_sum(*parts), term, ty, premises)


# ---------------------------------------------------------------------------
# Concrete syntax for types: alpha | [t1, t2, ...] | [..] -> t


class TyParseError(ValueError):
    pass


def parse_ty(text: str) -> Ty:
    tokens = tokenize(text)
    i = 0

    def error(msg: str) -> TyParseError:
        return TyParseError(f"{msg} at offset {tokens[i][1]}")

    def atom() -> Ty:
        nonlocal i
        tok = tokens[i][0]
        if tok == "[":
            i += 1
            items = []
            if tokens[i][0] != "]":
                items.append(ty())
                while tokens[i][0] == ",":
                    i += 1
                    items.append(ty())
                if tokens[i][0] != "]":
                    raise error("expected ',' or ']'")
            i += 1
            return Mult(tuple(items))
        if tok == "(":
            i += 1
            t = ty()
            if tokens[i][0] != ")":
                raise error("expected ')'")
            i += 1
            return t
        if tok[:1] not in NAME_CHARS:
            raise error("expected a type")
        i += 1
        return TyVar(tok)

    def ty() -> Ty:
        nonlocal i
        left = atom()
        if tokens[i][0] == "->":
            i += 1
            if not isinstance(left, Mult):
                raise TyParseError("arrow source must be a multiset")
            return Arrow(left, ty())
        return left

    t = ty()
    if tokens[i][0]:
        raise error("trailing input")
    return t


def show_ty(t: Ty) -> str:
    match t:
        case TyVar(n):
            return n
        case Mult(items):
            return "[" + ", ".join(show_ty(i) for i in items) + "]"
        case Arrow(src, tgt):
            return f"{show_ty(src)} -> {show_ty(tgt)}"


def deriv_to_dict(d: Derivation) -> dict:
    return {
        "rule": d.rule,
        "env": {k: show_ty(v) for k, v in d.env},
        "term": show(d.term, rename=False),
        "type": show_ty(d.ty),
        "premises": [deriv_to_dict(p) for p in d.premises],
    }


def deriv_from_dict(obj) -> Derivation:
    """The derivation a deriv_to_dict object describes.  Raises
    TyParseError on any object of another shape."""
    if not isinstance(obj, dict):
        raise TyParseError(f"a derivation node is an object, not {type(obj).__name__}")
    for key in ("rule", "term", "type"):
        if not isinstance(obj.get(key), str):
            raise TyParseError(f"a derivation node needs a string {key!r}")
    entries, premises = obj.get("env", {}), obj.get("premises", [])
    if not isinstance(entries, dict) or not isinstance(premises, list):
        raise TyParseError("'env' must be an object and 'premises' a list")
    env = {}
    for k, v in entries.items():
        m = parse_ty(v) if isinstance(v, str) else None
        if not isinstance(m, Mult):
            raise TyParseError(f"environment entry for {k} must be a multiset")
        env[k] = m
    return mk(
        obj["rule"],
        env,
        parse(obj["term"]),
        parse_ty(obj["type"]),
        tuple(deriv_from_dict(p) for p in premises),
    )
