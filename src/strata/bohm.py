"""Separating contexts built from normal forms (Böhm-out).

Two terms whose Böhm trees differ are told apart by a context that
makes one of them meaningful and the other meaningless: by name this
is Böhm's theorem (Barendregt 1984, §10.3-10.4), by value Paolini's
(ICTCS 2001).  separating_context builds such a context one Böhm
transformation at a time: it applies both terms to a fresh variable,
or substitutes a closed value for a free variable of both, and reads
the two level-0 normal forms again.  A normal form that is not an
abstraction is a head variable h applied to arguments M1..Mm; by value
a substitution t[x\\n] left in it has a stuck argument n and is read
as t{x:=n}.  At each step:

- when either term is an abstraction, both are applied to a fresh
  variable: it fills the leading binder, or pads the other term with
  one more argument (an eta-expansion);
- distinct heads h and h' are told apart by the divergent argument
  \\a1..am.Ω for h: the term with head h then diverges and the other
  keeps its head, or the other way round;
- a head h that occurs elsewhere, or that takes a different number of
  arguments in the two terms, becomes the permutator
  \\a1..ak.\\z.z a1..ak, k the most arguments h takes anywhere: every
  occurrence of h then waits for k - m padding arguments and a fresh
  head z of its own, whose arguments are h's arguments;
- a head h that occurs only there, with m arguments on both sides,
  becomes the selector \\a1..am.ai for the first argument i that
  differs, and the search goes on in the i-th arguments.

Only values are substituted or passed, and divergence stays under a
binder until the term applies it, so the same steps hold by value.
Reduction is substitutive, so the statuses read at the end are those
of the plugged terms; the caller still keeps the context only once an
oracle decides both pluggings.
"""

from __future__ import annotations

from .terms import ABS, HOLE, Abs, App, Es, Term, Var, alpha_eq, fresh_name, subst
from .approx import MEANINGFUL, MEANINGLESS, Oracle

# the most transformations a construction makes before it gives up
ROUNDS = 64

_DELTA = Abs("w", App(Var("w"), Var("w")))
_OMEGA = App(_DELTA, _DELTA)


def _lam(k: int, body: Term) -> Term:
    """\\a0..a(k-1).body."""
    for i in reversed(range(k)):
        body = Abs(f"a{i}", body)
    return body


def _apply(head: Term, args) -> Term:
    for a in args:
        head = App(head, a)
    return head


def permutator(k: int) -> Term:
    """\\a0..a(k-1).\\z.z a0..a(k-1)."""
    return _lam(k, Abs("z", _apply(Var("z"), (Var(f"a{i}") for i in range(k)))))


def selector(k: int, i: int) -> Term:
    """\\a0..a(k-1).ai."""
    return _lam(k, Var(f"a{i}"))


def diverger(k: int) -> Term:
    """\\a0..a(k-1).Ω, a value for k >= 1."""
    return _lam(k, _OMEGA)


def _spine(t: Term) -> tuple[Term, list[Term]]:
    """The head and the arguments of t, each substitution t[x\\n] on
    the way read as t{x:=n}."""
    args = []
    while True:
        if type(t) is App:
            args.append(t.arg)
            t = t.fun
        elif type(t) is Es:
            t = subst(t.body, {t.binder: t.arg})
        else:
            return t, args[::-1]


def _uses(t: Term, h: str) -> tuple[int, int]:
    """How many times the free variable h occurs in t, and the most
    arguments it is applied to."""
    count, most, stack = 0, 0, [t]
    while stack:
        t, n = stack.pop(), 0
        while type(t) is App:
            stack.append(t.arg)
            t, n = t.fun, n + 1
        if type(t) is Var:
            if t.name == h:
                count, most = count + 1, max(most, n)
        elif type(t) is Es:
            stack.append(t.arg)
            if t.binder != h:
                stack.append(t.body)
        elif type(t) is Abs and t.binder != h:
            stack.append(t.body)
    return count, most


def separating_context(t: Term, u: Term, oracle: Oracle) -> Term | None:
    """A context whose pluggings of t and u the oracle reads as one
    meaningful and one meaningless, built from their level-0 normal
    forms; None when the construction meets equal or undecided terms,
    or runs out of rounds.

    The context is (\\y1. .. (\\yj.@) V1 .. ) Vj w1 .. wn: each yi a
    free variable of t or u, captured and given the closed value Vi,
    and each wi a fresh variable, or the closed value given to it."""
    given = t.free | u.free
    used = set(given)
    closing: list[tuple[str, Term]] = []
    fresh: list[str] = []
    values: dict[str, Term] = {}
    s, r = t, u

    def context() -> Term:
        ctx = HOLE
        for y, v in closing:
            ctx = App(Abs(y, ctx), v)
        return _apply(ctx, (values.get(w) or Var(w) for w in fresh))

    def assign(h: str, value: Term) -> None:
        nonlocal s, r
        if h in given:
            closing.append((h, value))
        else:
            values[h] = value
        s, r = subst(s, {h: value}), subst(r, {h: value})

    def pad() -> None:
        nonlocal s, r
        w = fresh_name("v", used)
        used.add(w)
        fresh.append(w)
        s, r = App(s, Var(w)), App(r, Var(w))

    for _ in range(ROUNDS):
        ms, mr = oracle.meaning(s), oracle.meaning(r)
        if {ms.status, mr.status} == {MEANINGFUL, MEANINGLESS}:
            return context()
        if ms.status != MEANINGFUL or mr.status != MEANINGFUL:
            return None
        s, r = ms.witness.final, mr.witness.final
        if alpha_eq(s, r):
            return None
        if s.core == ABS or r.core == ABS:
            pad()
            continue
        (hs, xs), (hr, xr) = _spine(s), _spine(r)
        if hs.name != hr.name:
            if not (xs and xr):  # a diverger takes at least one argument
                pad()
                continue
            for h, m in ((hs.name, len(xs)), (hr.name, len(xr))):
                sigma = {h: diverger(m)}
                if {oracle.status(subst(s, sigma)), oracle.status(subst(r, sigma))} \
                        == {MEANINGFUL, MEANINGLESS}:
                    assign(h, sigma[h])
                    return context()
            return None
        (ns, ks), (nr, kr) = _uses(s, hs.name), _uses(r, hs.name)
        if ns == nr == 1 and len(xs) == len(xr):
            i = next((i for i, (a, b) in enumerate(zip(xs, xr)) if not alpha_eq(a, b)), None)
            if i is None:
                return None
            assign(hs.name, selector(len(xs), i))
        else:
            assign(hs.name, permutator(max(ks, kr, len(xs), len(xr))))
    return None
