"""Terms of the lambda-calculus with explicit substitutions.

The term grammar is

    t ::= x | \\x.t | t t | t[x\\u] | bot

where ``t[x\\u]`` is an explicit (delayed) substitution binding ``x`` in
``t``, and ``bot`` is the partial-term constant standing for an
unevaluated or discarded fragment.  Terms with no ``bot`` are called
total; terms with no explicit substitution are called pure.

Contexts are terms with exactly one occurrence of the hole ``@``.
Plugging a term into a context is literal replacement: the context may
capture free variables of the plugged term, which is deliberate.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from typing import Iterator, Union

# Levels: a natural number or omega.  float('inf') gives us the right
# ordering and the right arithmetic (omega - 1 == omega) for free.
Level = float
OMEGA: Level = float("inf")

CBV = "cbv"
CBN = "cbn"

# Position edges: b = under a binder, l/r = function/argument of an
# application, s/e = body/argument of an explicit substitution.
Position = tuple[str, ...]


class Node:
    """Base of the term classes.  It reserves the slot in which
    ``strata.summary`` caches a node's summary; construction leaves the
    slot empty."""

    __slots__ = ("_summary",)


@dataclass(frozen=True, slots=True)
class Var(Node):
    name: str


@dataclass(frozen=True, slots=True)
class Abs(Node):
    binder: str
    body: "Term"


@dataclass(frozen=True, slots=True)
class App(Node):
    fun: "Term"
    arg: "Term"


@dataclass(frozen=True, slots=True)
class Es(Node):
    """Explicit substitution ``body[binder\\arg]``; binder scopes over body."""

    body: "Term"
    binder: str
    arg: "Term"


@dataclass(frozen=True, slots=True)
class Bot(Node):
    pass


@dataclass(frozen=True, slots=True)
class Hole(Node):
    pass


Term = Union[Var, Abs, App, Es, Bot, Hole]

BOT = Bot()
HOLE = Hole()


def is_value(t: Term) -> bool:
    """Values are variables and abstractions.  ``bot`` is not a value."""
    return isinstance(t, (Var, Abs))


def is_pure(t: Term) -> bool:
    """True when t contains no explicit substitution and no bot."""
    match t:
        case Var():
            return True
        case Abs(_, b):
            return is_pure(b)
        case App(f, a):
            return is_pure(f) and is_pure(a)
        case _:
            return False


def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(x):
            return frozenset((x,))
        case Abs(x, b):
            return free_vars(b) - {x}
        case App(f, a):
            return free_vars(f) | free_vars(a)
        case Es(b, x, a):
            return (free_vars(b) - {x}) | free_vars(a)
        case _:
            return frozenset()


def subterms(t: Term) -> Iterator[tuple[Position, Term]]:
    """All subterm occurrences, position-first (outer before inner,
    left before right)."""
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        pos, s = stack.pop()
        yield pos, s
        match s:
            case Abs(_, b):
                stack.append((pos + ("b",), b))
            case App(f, a):
                stack.append((pos + ("r",), a))
                stack.append((pos + ("l",), f))
            case Es(b, _, a):
                stack.append((pos + ("e",), a))
                stack.append((pos + ("s",), b))
            case _:
                pass


# the child each edge leads to, by node class
_EDGE_CHILD = {(Abs, "b"): "body", (App, "l"): "fun", (App, "r"): "arg",
               (Es, "s"): "body", (Es, "e"): "arg"}


def subterm_at(t: Term, pos: Position) -> Term:
    for edge in pos:
        child = _EDGE_CHILD.get((type(t), edge))
        if child is None:
            raise ValueError(f"position {''.join(pos)} not in term")
        t = getattr(t, child)
    return t


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    """t with the subterm at pos replaced by new; only the nodes on the
    path to pos are rebuilt."""
    path = []
    for edge in pos:
        child = _EDGE_CHILD.get((type(t), edge))
        if child is None:
            raise ValueError(f"position {''.join(pos)} not in term")
        path.append(t)
        t = getattr(t, child)
    for node, edge in zip(reversed(path), reversed(pos)):
        if edge == "b":
            new = Abs(node.binder, new)
        elif edge == "l":
            new = App(new, node.arg)
        elif edge == "r":
            new = App(node.fun, new)
        elif edge == "s":
            new = Es(new, node.binder, node.arg)
        else:
            new = Es(node.body, node.binder, new)
    return new


def level_of(t: Term, pos: Position, calculus: str) -> Level:
    """Depth of a position in the stratification order of the calculus.

    Call-by-value counts binders crossed on the path; call-by-name
    counts argument edges (of applications and substitutions) crossed.
    """
    subterm_at(t, pos)  # validate
    if calculus == CBV:
        return float(sum(1 for e in pos if e == "b"))
    if calculus == CBN:
        return float(sum(1 for e in pos if e in ("r", "e")))
    raise ValueError(f"unknown calculus {calculus!r}")


def size(t: Term) -> int:
    match t:
        case Abs(_, b):
            return 1 + size(b)
        case App(f, a) | Es(f, _, a):
            return 1 + size(f) + size(a)
        case _:
            return 1


# ---------------------------------------------------------------------------
# Fresh names, substitution, alpha-equality


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """The lowest-numbered variant of base not in avoid: base without
    its trailing digits, followed by 0, 1, 2, ..."""
    root = base.rstrip(string.digits) or "v"
    i = 0
    while f"{root}{i}" in avoid:
        i += 1
    return f"{root}{i}"


def subst(t: Term, sigma: dict[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution t{x1:=u1, ..., xn:=un}.

    A binder is renamed only where it would capture a free variable of
    a term substituted below it.  Every subterm that the substitution
    leaves unchanged is returned as the same node."""
    if not sigma:
        return t
    # each substituted variable, with its term and the term's free names
    env = {x: (u, free_vars(u)) for x, u in sigma.items()}

    def go(t: Term, env: dict) -> Term:
        kind = type(t)
        if kind is Var:
            hit = env.get(t.name)
            return t if hit is None else hit[0]
        if kind is App:
            f, a = go(t.fun, env), go(t.arg, env)
            return t if f is t.fun and a is t.arg else App(f, a)
        if kind is Abs:
            y, b = under(t.binder, t.body, env)
            return t if b is t.body else Abs(y, b)
        if kind is Es:
            y, b = under(t.binder, t.body, env)
            a = go(t.arg, env)
            return t if b is t.body and a is t.arg else Es(b, y, a)
        return t

    def under(y: str, b: Term, env: dict) -> tuple[str, Term]:
        """The binder y and the body b it scopes over, substituted."""
        if y in env:
            env = {x: hit for x, hit in env.items() if x != y}
        if any(y in fv for _, fv in env.values()):
            fv_b = free_vars(b)
            env = {x: hit for x, hit in env.items() if x in fv_b}
            if any(y in fv for _, fv in env.values()):
                y2 = fresh_name(y, fv_b.union(*(fv for _, fv in env.values())))
                env[y] = (Var(y2), frozenset((y2,)))
                y = y2
        return (y, go(b, env)) if env else (y, b)

    return go(t, env)


def freshen(t: Term, clash: frozenset[str] | set[str]) -> Term:
    """t with every binder in clash renamed, by subst, to a name outside
    clash; the same node when no binder of t is in clash."""

    def away(y: str, b: Term) -> tuple[str, Term]:
        if y in clash:
            y2 = fresh_name(y, free_vars(b) | clash)
            y, b = y2, subst(b, {y: Var(y2)})
        return y, go(b)

    def go(t: Term) -> Term:
        match t:
            case Abs(y, b):
                y2, b2 = away(y, b)
                return t if b2 is b and y2 == y else Abs(y2, b2)
            case App(f, a):
                f2, a2 = go(f), go(a)
                return t if f2 is f and a2 is a else App(f2, a2)
            case Es(b, y, a):
                y2, b2 = away(y, b)
                a2 = go(a)
                return t if b2 is b and y2 == y and a2 is a else Es(b2, y2, a2)
            case _:
                return t

    return go(t)


def canonical(t: Term) -> tuple:
    """Nameless canonical form: equal iff the terms are alpha-equal.

    Hashable, so it doubles as a key for cycle detection and memo
    tables.
    """

    def go(t: Term, env: tuple[str, ...]) -> tuple:
        match t:
            case Var(x):
                for i in range(len(env) - 1, -1, -1):
                    if env[i] == x:
                        return ("v", len(env) - 1 - i)
                return ("f", x)
            case Abs(x, b):
                return ("l", go(b, env + (x,)))
            case App(f, a):
                return ("a", go(f, env), go(a, env))
            case Es(b, x, a):
                return ("s", go(b, env + (x,)), go(a, env))
            case Bot():
                return ("bot",)
            case Hole():
                return ("hole",)

    return go(t, ())


def alpha_eq(t: Term, u: Term) -> bool:
    return canonical(t) == canonical(u)


def partial_leq(t: Term, u: Term) -> bool:
    """The approximation order: t is u with some subterms cut to bot.

    Compares canonical keys, so up to alpha; bot is below everything,
    and the order is structural everywhere else.
    """

    def go(t: tuple, u: tuple) -> bool:
        if t[0] == "bot":
            return True
        if t[0] != u[0] or t[0] in ("v", "f"):
            return t == u
        return all(go(tc, uc) for tc, uc in zip(t[1:], u[1:]))

    return go(canonical(t), canonical(u))


def bot_positions(t: Term) -> list[Position]:
    return [pos for pos, s in subterms(t) if isinstance(s, Bot)]


# ---------------------------------------------------------------------------
# Contexts


def hole_positions(t: Term) -> list[Position]:
    return [pos for pos, s in subterms(t) if isinstance(s, Hole)]


def is_context(t: Term) -> bool:
    return len(hole_positions(t)) == 1


def plug(ctx: Term, t: Term) -> Term:
    """Replace the unique hole of ctx by t.  Capture is allowed: plugging
    is literal, not substitution."""
    holes = hole_positions(ctx)
    if len(holes) != 1:
        raise ValueError(f"context must have exactly one hole, found {len(holes)}")
    return replace_at(ctx, holes[0], t)


# ---------------------------------------------------------------------------
# Parsing

_IDENT_START = set(string.ascii_letters + "_")
_IDENT_CHARS = set(string.ascii_letters + string.digits + "_'")


class ParseError(ValueError):
    def __init__(self, msg: str, offset: int):
        super().__init__(f"{msg} (at offset {offset})")
        self.offset = offset


class _Parser:
    def __init__(self, text: str, allow_hole: bool):
        self.text = text
        self.pos = 0
        self.allow_hole = allow_hole

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        if self.peek() not in _IDENT_START:
            raise self.error("expected identifier")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CHARS:
            self.pos += 1
        name = self.text[start : self.pos]
        if name == "bot":
            self.pos = start
            raise self.error("'bot' is a reserved word")
        return name

    def term(self) -> Term:
        self.skip_ws()
        if self.peek() == "\\":
            self.pos += 1
            x = self.ident()
            self.expect(".")
            return Abs(x, self.term())
        return self.app()

    def app(self) -> Term:
        t = self.postfix()
        while True:
            self.skip_ws()
            c = self.peek()
            if c == "\\":
                # an abstraction in argument position extends to the right
                t = App(t, self.term())
                return t
            if c in _IDENT_START or c == "(" or (c == "@" and self.allow_hole):
                t = App(t, self.postfix())
            else:
                return t

    def postfix(self) -> Term:
        t = self.atom()
        while True:
            self.skip_ws()
            if self.peek() == "[":
                self.pos += 1
                x = self.ident()
                self.expect("\\")
                body = self.term()
                self.expect("]")
                t = Es(t, x, body)
            else:
                return t

    def atom(self) -> Term:
        self.skip_ws()
        c = self.peek()
        if c == "(":
            self.pos += 1
            t = self.term()
            self.expect(")")
            return t
        if c == "@":
            if not self.allow_hole:
                raise self.error("hole not allowed here")
            self.pos += 1
            return HOLE
        if c in _IDENT_START:
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CHARS:
                self.pos += 1
            name = self.text[start : self.pos]
            return BOT if name == "bot" else Var(name)
        raise self.error("expected a term")


def parse(text: str, allow_hole: bool = False) -> Term:
    p = _Parser(text, allow_hole)
    t = p.term()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("trailing input")
    return t


def parse_context(text: str) -> Term:
    c = parse(text, allow_hole=True)
    if not is_context(c):
        raise ValueError("a context must contain exactly one hole '@'")
    return c


def parse_level(text: str) -> Level:
    if text == "omega":
        return OMEGA
    if text.isdigit():
        return float(int(text))
    raise ValueError(f"level must be a natural number or 'omega', got {text!r}")


def show_level(k: Level) -> str:
    return "omega" if k == OMEGA else str(int(k))


# ---------------------------------------------------------------------------
# Printing


def show(t: Term, rename: bool = True) -> str:
    """Render a term in the concrete syntax accepted by parse.

    With rename (the default) binders are canonically named x0, x1, ...
    in traversal order, skipping the free names of the term, so that
    alpha-equal terms print identically.
    """
    free = free_vars(t) if rename else frozenset()
    names = (n for i in itertools.count() if (n := f"x{i}") not in free)
    printed: dict[str, str | None] = {}  # the printed name of each binder in scope

    def under(x: str, b: Term, prec: int) -> tuple[str, str]:
        """The printed name of binder x, and the text of its scope b."""
        outer = printed.get(x)
        name = printed[x] = next(names) if rename else x
        body = text(b, prec)
        printed[x] = outer
        return name, body

    # prec 0: term, 1: application element (function side),
    # 2: atom (argument side or substitution target)
    def text(t: Term, prec: int) -> str:
        match t:
            case Var(x):
                return printed.get(x) or x
            case Bot():
                return "bot"
            case Hole():
                return "@"
            case Abs(x, b):
                name, body = under(x, b, 0)
                s = f"\\{name}.{body}"
                return f"({s})" if prec > 0 else s
            case App(f, a):
                s = f"{text(f, 1)} {text(a, 2)}"
                return f"({s})" if prec > 1 else s
            case Es(b, x, a):
                name, body = under(x, b, 2)
                return f"{body}[{name}\\{text(a, 0)}]"

    return text(t, 0)
