"""Terms of the lambda-calculus with explicit substitutions.

The term grammar is

    t ::= x | \\x.t | t t | t[x\\u] | bot

where ``t[x\\u]`` is an explicit (delayed) substitution binding ``x`` in
``t``, and ``bot`` is the partial-term constant standing for an
unevaluated or discarded fragment.  Terms with no ``bot`` are called
total; terms with no explicit substitution are called pure.

Every node is built with its summary (see below): the engine, the
alpha-keyed tables and free_vars read it instead of walking the term.
Nodes are immutable by convention: only the constructors write their
fields, which a test checks by scanning the source.  A frozen dataclass
would enforce it, but then each field is written by object.__setattr__:
building an App took 1.6-2.1 us that way against 0.6-1.0 us by plain
assignment (Python 3.11), and building nodes is most of a reduction
step.  Terms are not hashable; the alpha-keyed tables file them by fp
and free.

Contexts are terms with exactly one occurrence of the hole ``@``.
Plugging a term into a context is literal replacement: the context may
capture free variables of the plugged term, which is deliberate.
"""

from __future__ import annotations

import itertools
import re
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
# children's summaries alone, and kept in five slots of the node:
#
#   fp     a structural hash that ignores every name, so that alpha-equal
#          terms have equal fingerprints;
#   core   what the node is under its explicit-substitution body spine:
#          ABS, VAR or OTHER.  The rules look no further below a node
#          than this (dB needs an abstraction under the function's spine,
#          sv a value under the argument's);
#   cbv    the shallowest level of a call-by-value redex in the subterm,
#   cbn    and of a call-by-name one, relative to the node, as an int;
#          NO_REDEX when the subterm has none;
#   free   the free names, as a frozenset shared with a child whenever
#          the child has the same names, and by every variable of a name.
#
# Levels add up along a path (a binder counts one in call-by-value, an
# argument edge one in call-by-name), so the shallowest level is
# compositional: zero when the node itself is a redex, otherwise the
# least over its children of the edge's cost plus the child's value.

ABS, VAR, OTHER = range(3)

NO_REDEX: Level = float("inf")

# The fingerprint's tags are small integers, whose hashes do not vary
# from run to run as those of strings do.  Fingerprints and levels are
# kept below 2**30, where an int takes the least memory (and levels
# below 257 are shared objects); a fingerprint only files the entries
# of an AlphaTable, so its width only costs collisions.
_MASK = (1 << 30) - 1
_NO_NAMES: frozenset[str] = frozenset()
_BOT = (hash((4,)) & _MASK, OTHER, NO_REDEX, NO_REDEX, _NO_NAMES)
_HOLE = (hash((5,)) & _MASK, OTHER, NO_REDEX, NO_REDEX, _NO_NAMES)
_VAR = (hash((0,)) & _MASK, VAR, NO_REDEX, NO_REDEX)
_VAR_NAMES: dict[str, frozenset[str]] = {}  # the free names of each variable


class Node:
    """Base of the term classes: every node is built with its summary."""

    __slots__ = ("fp", "core", "cbv", "cbn", "free")


# Each constructor below reads its children's summaries only, so a term
# of any depth is summarized as it is built, bottom-up.  Comparisons
# stand in for min() and a free-name set is copied only when it gains
# or loses a name, as this runs once per new node; a level seen across
# an edge that counts is one more, but NO_REDEX stays the one shared
# object.


@dataclass(slots=True)
class Var(Node):
    name: str

    def __init__(self, name: str):
        self.name = name
        self.free = _VAR_NAMES.get(name) or _VAR_NAMES.setdefault(name, frozenset((name,)))
        self.fp, self.core, self.cbv, self.cbn = _VAR


@dataclass(slots=True)
class Abs(Node):
    binder: str
    body: "Term"

    def __init__(self, binder: str, body: "Term"):
        self.binder, self.body = binder, body
        free = body.free
        if binder in free:
            free = free - {binder} or _NO_NAMES
        self.free = free
        self.fp, self.core, self.cbn = hash((1, body.fp)) & _MASK, ABS, body.cbn
        cbv = body.cbv
        self.cbv = cbv if cbv == NO_REDEX else cbv + 1


@dataclass(slots=True)
class App(Node):
    fun: "Term"
    arg: "Term"

    def __init__(self, fun: "Term", arg: "Term"):
        self.fun, self.arg = fun, arg
        free, fa = fun.free, arg.free
        if not fa <= free:
            free = fa if free <= fa else free | fa
        self.free = free
        self.fp, self.core = hash((2, fun.fp, arg.fp)) & _MASK, OTHER
        if fun.core == ABS:  # dB at the node
            self.cbv = self.cbn = 0
        else:
            cbv, right = fun.cbv, arg.cbv
            self.cbv = cbv if cbv < right else right
            cbn, right = fun.cbn, arg.cbn
            self.cbn = right + 1 if right != NO_REDEX and right + 1 < cbn else cbn


@dataclass(slots=True)
class Es(Node):
    """Explicit substitution ``body[binder\\arg]``; binder scopes over body."""

    body: "Term"
    binder: str
    arg: "Term"

    def __init__(self, body: "Term", binder: str, arg: "Term"):
        self.body, self.binder, self.arg = body, binder, arg
        free, fa = body.free, arg.free
        if binder in free:
            free = free - {binder} or _NO_NAMES
        if not fa <= free:
            free = fa if free <= fa else free | fa
        self.free = free
        self.fp, self.core = hash((3, body.fp, arg.fp)) & _MASK, body.core
        # sN matches every substitution, sv one whose argument is a
        # value under its spine
        if arg.core != OTHER:
            self.cbv = 0
        else:
            cbv, right = body.cbv, arg.cbv
            self.cbv = right if right < cbv else cbv
        self.cbn = 0


@dataclass(slots=True)
class Bot(Node):
    def __init__(self):
        self.fp, self.core, self.cbv, self.cbn, self.free = _BOT


@dataclass(slots=True)
class Hole(Node):
    def __init__(self):
        self.fp, self.core, self.cbv, self.cbn, self.free = _HOLE


Term = Union[Var, Abs, App, Es, Bot, Hole]

BOT = Bot()
HOLE = Hole()


def is_value(t: Term) -> bool:
    """Values are variables and abstractions.  ``bot`` is not a value."""
    return isinstance(t, (Var, Abs))


def free_vars(t: Term) -> frozenset[str]:
    """The free names of t, read from its summary."""
    return t.free


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


def rebuild(path: list[Term] | tuple[Term, ...], pos: Position, new: Term) -> Term:
    """The term at the head of path, the nodes from its root to pos, with
    new in place of the subterm at pos; only the nodes of path are
    rebuilt, bottom-up."""
    for i in range(len(pos) - 1, -1, -1):
        new = with_child(path[i], pos[i], new)
    return new


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    """t with the subterm at pos replaced by new."""
    return rebuild(path_to(t, pos), pos, new)


def level_of(pos: Position, calculus: str) -> Level:
    """Depth of a position in the stratification order of the calculus.

    Call-by-value counts binders crossed on the path; call-by-name
    counts argument edges (of applications and substitutions) crossed.
    Only the edges are read: the position is not looked up in a term.
    """
    deep = deep_edges(calculus)
    return float(sum(1 for e in pos if e in deep))


# the edges that lead one level deeper: binders by value, arguments (of
# applications and substitutions) by name; the body of a substitution
# is never deeper in either calculus
_DEEP_EDGES = {CBV: ("b",), CBN: ("r", "e")}


def deep_edges(calculus: str) -> tuple[str, ...]:
    """The edges that lead one level deeper in the calculus.  This is
    the one place that refuses a calculus other than CBV and CBN."""
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
    leaves unchanged is returned as the same node, and a subterm in
    which no substituted name is free is not walked."""
    if not sigma:
        return t
    # each substituted variable, with its term and the term's free names
    env = {x: (u, free_vars(u)) for x, u in sigma.items()}

    def go(t: Term, env: dict) -> Term:
        kind = type(t)
        if kind is Var:
            hit = env.get(t.name)
            return t if hit is None else hit[0]
        if t.free.isdisjoint(env):  # no substituted name is free in t
            return t
        if kind is App:  # down the function side in a loop: spines outgrow the stack
            spine, f = [t], t.fun
            while type(f) is App and not f.free.isdisjoint(env):
                spine.append(f)
                f = f.fun
            f = go(f, env)
            for t in reversed(spine):
                a = go(t.arg, env)
                f = t if f is t.fun and a is t.arg else App(f, a)
            return f
        if kind is Abs:  # down a chain of binders in a loop: nests outgrow the stack
            chain = []
            while type(t) is Abs and env and not t.free.isdisjoint(env):
                y, env = under(t.binder, t.body, env)
                chain.append((t, y))
                t = t.body
            b = go(t, env) if env else t
            for t, y in reversed(chain):
                b = t if b is t.body else Abs(y, b)
            return b
        if kind is Es:
            y, inner = under(t.binder, t.body, env)
            b = go(t.body, inner) if inner else t.body
            a = go(t.arg, env)
            return t if b is t.body and a is t.arg else Es(b, y, a)
        return t

    def under(y: str, b: Term, env: dict) -> tuple[str, dict]:
        """The binder y, renamed where it would capture, and the
        substitution for the body b it scopes over."""
        if y in env:
            env = {x: hit for x, hit in env.items() if x != y}
        if any(y in fv for _, fv in env.values()):
            fv_b = free_vars(b)
            env = {x: hit for x, hit in env.items() if x in fv_b}
            if any(y in fv for _, fv in env.values()):
                y2 = fresh_name(y, fv_b.union(*(fv for _, fv in env.values())))
                env[y] = (Var(y2), frozenset((y2,)))
                y = y2
        return y, env

    return go(t, env)


def canonical(t: Term) -> tuple:
    """Nameless canonical form: equal iff the terms are alpha-equal.

    The program decides alpha-equality with alpha_eq and AlphaTable;
    these keys are an independent reference to check them against.
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


class AlphaTable:
    """A map from terms up to alpha, built from (term, value) entries.

    Entries are filed by fingerprint and free names, which alpha-equal
    terms share, so a lookup is one dict probe and then alpha_eq on the
    entries of its row alone."""

    def __init__(self, entries=()):
        self._rows: dict[tuple[int, frozenset[str]], list[tuple[Term, object]]] = {}
        for t, value in entries:
            self.add(t, value)

    def get(self, t: Term):
        """The value of the first entry alpha-equal to t, or None."""
        row = self._rows.get((t.fp, t.free))
        if row:
            for u, value in row:
                if alpha_eq(u, t):
                    return value
        return None

    def add(self, t: Term, value) -> None:
        self._rows.setdefault((t.fp, t.free), []).append((t, value))


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
    deep = deep_edges(calculus)
    # left and right give the depth of the innermost binder of each name
    # in scope on each side.  The loop walks one child of each node and
    # leaves the other, with its budget and scopes, on a stack: a spine
    # or a chain of binders takes no recursion, however long.
    left: dict = {}
    right: dict = {}
    depth, same, todo = 0, True, []
    while True:
        if not (t is u and same):
            kind = type(t)
            if kind is Bot and bot_below:
                pass
            elif kind is not type(u):
                return False
            elif kind is Var:
                i, j = left.get(t.name), right.get(u.name)
                if i != j or (i is None and t.name != u.name):
                    return False
            elif kind is Abs:
                if "b" not in deep or k > 0:
                    left, right = {**left, t.binder: depth}, {**right, u.binder: depth}
                    same = same and t.binder == u.binder
                    t, u, depth = t.body, u.body, depth + 1
                    k -= "b" in deep
                    continue
            elif kind is App:
                if "r" not in deep or k > 0:
                    todo.append((t.arg, u.arg, k - ("r" in deep), left, right, depth, same))
                t, u = t.fun, u.fun
                continue
            elif kind is Es:
                if "e" not in deep or k > 0:
                    todo.append((t.arg, u.arg, k - ("e" in deep), left, right, depth, same))
                left, right = {**left, t.binder: depth}, {**right, u.binder: depth}
                same = same and t.binder == u.binder
                t, u, depth = t.body, u.body, depth + 1
                continue
        if not todo:
            return True
        t, u, k, left, right, depth, same = todo.pop()


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

# One scanner serves the term and the type syntaxes: a token is a run of
# name characters, the arrow, or any other non-space character alone.
_TOKEN = re.compile(r"[A-Za-z0-9_']+|->|\S")
NAME_CHARS = frozenset(string.ascii_letters + string.digits + "_'")
_IDENT_START = frozenset(string.ascii_letters + "_")


def tokenize(text: str) -> list[tuple[str, int]]:
    """The tokens of text with their offsets, closed by an empty token
    at the end of the text."""
    tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
    tokens.append(("", len(text)))
    return tokens


class ParseError(ValueError):
    def __init__(self, msg: str, offset: int):
        super().__init__(f"{msg} (at offset {offset})")
        self.offset = offset


class _Parser:
    def __init__(self, text: str, allow_hole: bool):
        self.tokens = tokenize(text)
        self.i = 0
        self.allow_hole = allow_hole

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.tokens[self.i][1])

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise self.error(f"expected {tok!r}")
        self.i += 1

    def ident(self) -> str:
        name = self.peek()
        if name[:1] not in _IDENT_START:
            raise self.error("expected identifier")
        if name == "bot":
            raise self.error("'bot' is a reserved word")
        self.i += 1
        return name

    def term(self) -> Term:
        # a chain of binders is read in a loop, not by recursion; the
        # tokens are read directly, as every term and subterm passes here
        tokens, binders = self.tokens, []
        while tokens[self.i][0] == "\\":
            self.i += 1
            binders.append(self.ident())
            self.expect(".")
        t = self.app()
        while binders:
            t = Abs(binders.pop(), t)
        return t

    def app(self) -> Term:
        t = self.postfix()
        while True:
            c = self.peek()
            if c == "\\":
                # an abstraction in argument position extends to the right
                return App(t, self.term())
            if c[:1] in _IDENT_START or c == "(" or (c == "@" and self.allow_hole):
                t = App(t, self.postfix())
            else:
                return t

    def postfix(self) -> Term:
        t = self.atom()
        while self.peek() == "[":
            self.i += 1
            x = self.ident()
            self.expect("\\")
            body = self.term()
            self.expect("]")
            t = Es(t, x, body)
        return t

    def atom(self) -> Term:
        c = self.peek()
        if c == "(":
            self.i += 1
            t = self.term()
            self.expect(")")
            return t
        if c == "@":
            if not self.allow_hole:
                raise self.error("hole not allowed here")
            self.i += 1
            return HOLE
        if c[:1] in _IDENT_START:
            self.i += 1
            return BOT if c == "bot" else Var(c)
        raise self.error("expected a term")


def parse(text: str, allow_hole: bool = False) -> Term:
    p = _Parser(text, allow_hole)
    t = p.term()
    if p.peek():
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

    # prec 0: term, 1: application element (function side),
    # 2: atom (argument side or substitution target).  A chain of
    # binders and an application spine are each printed in a loop.
    def text(t: Term, prec: int) -> str:
        match t:
            case Var(x):
                return printed.get(x) or x
            case Bot():
                return "bot"
            case Hole():
                return "@"
            case Abs():
                outer, heads = [], []
                while isinstance(t, Abs):
                    x = t.binder
                    outer.append((x, printed.get(x)))
                    printed[x] = next(names) if rename else x
                    heads.append(f"\\{printed[x]}.")
                    t = t.body
                s = "".join(heads) + text(t, 0)
                for x, name in reversed(outer):
                    printed[x] = name
                return f"({s})" if prec > 0 else s
            case App():
                args = []
                while isinstance(t, App):
                    args.append(t.arg)
                    t = t.fun
                s = " ".join([text(t, 1), *(text(a, 2) for a in reversed(args))])
                return f"({s})" if prec > 1 else s
            case Es(b, x, a):
                outer = printed.get(x)
                name = printed[x] = next(names) if rename else x
                body = text(b, 2)
                printed[x] = outer
                return f"{body}[{name}\\{text(a, 0)}]"

    return text(t, 0)
