"""Terms of the lambda-calculus with explicit substitutions.

The term grammar is

    t ::= x | \\x.t | t t | t[x\\u] | bot

where ``t[x\\u]`` is an explicit (delayed) substitution binding ``x`` in
``t``, and ``bot`` is the partial-term constant standing for an
unevaluated or discarded fragment.  Terms with no ``bot`` are called
total; terms with no explicit substitution are called pure.

Every node is built with its summary (see below): the engine, the
alpha-keyed tables and free_vars read it instead of walking the term.

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


# A node's summary is computed when the node is built, from its
# children's summaries alone, and kept in its ``summary`` slot.  It is a
# tuple with five fields:
#
#   FINGERPRINT  a structural hash that ignores every name, so that
#                alpha-equal terms have equal fingerprints;
#   CORE         what the node is under its explicit-substitution body
#                spine: ABS, VAR or OTHER.  The rules look no further
#                below a node than this (dB needs an abstraction under
#                the function's spine, sv a value under the argument's);
#   CBV_MIN      the shallowest level of a call-by-value redex in the
#   CBN_MIN      subterm, and of a call-by-name one, relative to the
#                node, as an int; NO_REDEX when the subterm has none;
#   FREE         the free names, as a frozenset shared with a child
#                whenever the child has the same names.
#
# Levels add up along a path (a binder counts one in call-by-value, an
# argument edge one in call-by-name), so the shallowest level is
# compositional: zero when the node itself is a redex, otherwise the
# least over its children of the edge's cost plus the child's value.
FINGERPRINT, CORE, CBV_MIN, CBN_MIN, FREE = range(5)

ABS, VAR, OTHER = range(3)

NO_REDEX: Level = float("inf")

# The fingerprint's tags are small integers, whose hashes do not vary
# from run to run as those of strings do.  Fingerprints and levels are
# kept below 2**30, where an int takes the least memory (and levels
# below 257 are shared objects); a fingerprint only files the entries
# of strata.summary.AlphaTable, so its width only costs collisions.
_MASK = (1 << 30) - 1
_NO_NAMES: frozenset[str] = frozenset()
_BOT = (hash((4,)) & _MASK, OTHER, NO_REDEX, NO_REDEX, _NO_NAMES)
_HOLE = (hash((5,)) & _MASK, OTHER, NO_REDEX, NO_REDEX, _NO_NAMES)
_VAR_FINGERPRINT = hash((0,)) & _MASK
_VARS: dict[str, tuple] = {}  # the summary of each variable, by name


class Node:
    """Base of the term classes: every node is built with its summary."""

    __slots__ = ("summary",)


_store = Node.summary.__set__  # writes the slot of a frozen node

# Each constructor below reads its children's summaries only, so a term
# of any depth is summarized as it is built, bottom-up.  Comparisons
# stand in for min() and a free-name set is copied only when it gains
# or loses a name, as this runs once per new node; a level seen across
# an edge that counts is one more, but NO_REDEX stays the one shared
# object.


@dataclass(frozen=True, slots=True)
class Var(Node):
    name: str

    def __post_init__(self):
        s = _VARS.get(self.name)
        if s is None:
            s = _VARS[self.name] = (_VAR_FINGERPRINT, VAR, NO_REDEX, NO_REDEX,
                                    frozenset((self.name,)))
        _store(self, s)


@dataclass(frozen=True, slots=True)
class Abs(Node):
    binder: str
    body: "Term"

    def __post_init__(self):
        sb = self.body.summary
        free = sb[FREE]
        if self.binder in free:
            free = free - {self.binder} or _NO_NAMES
        cbv = sb[CBV_MIN]
        _store(self, (hash((1, sb[FINGERPRINT])) & _MASK, ABS,
                      cbv if cbv == NO_REDEX else cbv + 1, sb[CBN_MIN], free))


@dataclass(frozen=True, slots=True)
class App(Node):
    fun: "Term"
    arg: "Term"

    def __post_init__(self):
        sl, sr = self.fun.summary, self.arg.summary
        fp = hash((2, sl[FINGERPRINT], sr[FINGERPRINT])) & _MASK
        free, fa = sl[FREE], sr[FREE]
        if not fa <= free:
            free = fa if free <= fa else free | fa
        if sl[CORE] == ABS:  # dB at the node
            s = (fp, OTHER, 0, 0, free)
        else:
            cbv, right = sl[CBV_MIN], sr[CBV_MIN]
            cbn, arg = sl[CBN_MIN], sr[CBN_MIN]
            if arg != NO_REDEX and arg + 1 < cbn:
                cbn = arg + 1
            s = (fp, OTHER, cbv if cbv < right else right, cbn, free)
        _store(self, s)


@dataclass(frozen=True, slots=True)
class Es(Node):
    """Explicit substitution ``body[binder\\arg]``; binder scopes over body."""

    body: "Term"
    binder: str
    arg: "Term"

    def __post_init__(self):
        sl, sr = self.body.summary, self.arg.summary
        free, fa = sl[FREE], sr[FREE]
        if self.binder in free:
            free = free - {self.binder} or _NO_NAMES
        if not fa <= free:
            free = fa if free <= fa else free | fa
        # sN matches every substitution, sv one whose argument is a
        # value under its spine
        if sr[CORE] != OTHER:
            cbv = 0
        else:
            cbv, right = sl[CBV_MIN], sr[CBV_MIN]
            if right < cbv:
                cbv = right
        _store(self, (hash((3, sl[FINGERPRINT], sr[FINGERPRINT])) & _MASK,
                      sl[CORE], cbv, 0, free))


@dataclass(frozen=True, slots=True)
class Bot(Node):
    def __post_init__(self):
        _store(self, _BOT)


@dataclass(frozen=True, slots=True)
class Hole(Node):
    def __post_init__(self):
        _store(self, _HOLE)


Term = Union[Var, Abs, App, Es, Bot, Hole]

BOT = Bot()
HOLE = Hole()


def is_value(t: Term) -> bool:
    """Values are variables and abstractions.  ``bot`` is not a value."""
    return isinstance(t, (Var, Abs))


def free_vars(t: Term) -> frozenset[str]:
    """The free names of t, read from its summary."""
    return t.summary[FREE]


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


def path_to(t: Term, pos: Position) -> list[Term]:
    """The nodes on the way from the root of t to pos: the root first,
    the subterm at pos last."""
    path = [t]
    for edge in pos:
        child = _EDGE_CHILD.get((type(t), edge))
        if child is None:
            raise ValueError(f"position {''.join(pos)} not in term")
        t = getattr(t, child)
        path.append(t)
    return path


def subterm_at(t: Term, pos: Position) -> Term:
    return path_to(t, pos)[-1]


def with_child(node: Term, edge: str, child: Term) -> Term:
    """A copy of node with child in place of its child along edge."""
    if edge == "b":
        return Abs(node.binder, child)
    if edge == "l":
        return App(child, node.arg)
    if edge == "r":
        return App(node.fun, child)
    if edge == "s":
        return Es(child, node.binder, node.arg)
    return Es(node.body, node.binder, child)


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    """t with the subterm at pos replaced by new; only the nodes on the
    path to pos are rebuilt."""
    path = path_to(t, pos)
    for i in range(len(pos) - 1, -1, -1):
        new = with_child(path[i], pos[i], new)
    return new


def level_of(t: Term, pos: Position, calculus: str) -> Level:
    """Depth of a position in the stratification order of the calculus.

    Call-by-value counts binders crossed on the path; call-by-name
    counts argument edges (of applications and substitutions) crossed.
    """
    subterm_at(t, pos)  # validate
    deep = _deep_edges(calculus)
    return float(sum(1 for e in pos if e in deep))


# the edges that lead one level deeper: binders by value, arguments (of
# applications and substitutions) by name; the body of a substitution
# is never deeper in either calculus
_DEEP_EDGES = {CBV: ("b",), CBN: ("r", "e")}


def _deep_edges(calculus: str) -> tuple[str, ...]:
    deep = _DEEP_EDGES.get(calculus)
    if deep is None:
        raise ValueError(f"unknown calculus {calculus!r}")
    return deep


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


def canonical(t: Term) -> tuple:
    """Nameless canonical form: equal iff the terms are alpha-equal.

    The program decides alpha-equality with alpha_eq and
    strata.summary.AlphaTable; these keys are an independent reference
    to check them against.
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
    return agree(t, u)


def partial_leq(t: Term, u: Term) -> bool:
    """The approximation order: t is u with some subterms cut to bot.

    Up to alpha; bot is below everything, and the order is structural
    everywhere else.
    """
    return agree(t, u, bot_below=True)


def agree(t: Term, u: Term, calculus: str = CBV, k: Level = OMEGA,
          bot_below: bool = False) -> bool:
    """t and u are alpha-equal down to level k of the calculus: the
    parts of both terms deeper than k are not compared.  With
    bot_below, a bot of t matches any subterm of u.

    Walks both terms together and stops at the first difference.  A
    node that both terms share is not walked when every binder above it
    has the same name on both sides, as it then means the same on both.
    """
    deep = _deep_edges(calculus)

    # left and right give the depth of the innermost binder of each name
    # in scope on each side; the last child of a node is walked by the
    # loop, the others by recursion
    def go(t: Term, u: Term, k: Level, left: dict, right: dict,
           depth: int, same: bool) -> bool:
        while not (t is u and same):
            kind = type(t)
            if kind is Bot and bot_below:
                return True
            if kind is not type(u):
                return False
            if kind is Var:
                i, j = left.get(t.name), right.get(u.name)
                return i == j and (i is not None or t.name == u.name)
            if kind is Abs:
                left, right = {**left, t.binder: depth}, {**right, u.binder: depth}
                same = same and t.binder == u.binder
                edge, t, u, depth = "b", t.body, u.body, depth + 1
            elif kind is App:
                if not go(t.fun, u.fun, k, left, right, depth, same):
                    return False
                edge, t, u = "r", t.arg, u.arg
            elif kind is Es:
                if not go(t.body, u.body, k, {**left, t.binder: depth},
                          {**right, u.binder: depth}, depth + 1,
                          same and t.binder == u.binder):
                    return False
                edge, t, u = "e", t.arg, u.arg
            else:
                return True
            if edge in deep:
                if k == 0:
                    return True
                k -= 1
        return True

    return go(t, u, k, {}, {}, 0, True)


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
