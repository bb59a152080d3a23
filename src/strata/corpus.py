"""Term enumeration and random generation for campaigns and tests."""

from __future__ import annotations

import random
from typing import Iterator

from .terms import BOT, HOLE, Abs, App, Es, Term, Var


def _terms_by_size(frees: tuple[str, ...], include_bot: bool):
    """The memoized table of enumerate_terms: at(size, depth) lists the
    terms of that size under depth binders named b0, b1, ..."""
    memo: dict[tuple[int, int], list[Term]] = {}

    def at(size: int, depth: int) -> list[Term]:
        key = (size, depth)
        if key in memo:
            return memo[key]
        out: list[Term] = []
        if size == 1:
            out.extend(Var(v) for v in frees)
            out.extend(Var(f"b{i}") for i in range(depth))
            if include_bot:
                out.append(BOT)
        else:
            binder = f"b{depth}"
            out.extend(Abs(binder, b) for b in at(size - 1, depth + 1))
            for i in range(1, size - 1):
                j = size - 1 - i
                out.extend(App(f, a) for f in at(i, depth) for a in at(j, depth))
                out.extend(
                    Es(b, binder, a) for b in at(i, depth + 1) for a in at(j, depth)
                )
        memo[key] = out
        return out

    return at


def enumerate_terms(
    max_size: int,
    frees: tuple[str, ...] = ("x", "y"),
    include_bot: bool = False,
) -> Iterator[Term]:
    """All terms up to the given size over the free variables, one per
    alpha-class (binders are named canonically by depth)."""
    at = _terms_by_size(frees, include_bot)
    for size in range(1, max_size + 1):
        yield from at(size, 0)


def enumerate_contexts(
    max_size: int, frees: tuple[str, ...] = ("x", "y")
) -> Iterator[Term]:
    """All one-hole contexts up to the given size, smallest first."""
    terms = _terms_by_size(frees, False)
    ctx_memo: dict[tuple[int, int], list[Term]] = {}

    def ctxs(size: int, depth: int) -> list[Term]:
        key = (size, depth)
        if key in ctx_memo:
            return ctx_memo[key]
        out: list[Term] = []
        if size == 1:
            out.append(HOLE)
        else:
            binder = f"b{depth}"
            out.extend(Abs(binder, b) for b in ctxs(size - 1, depth + 1))
            for i in range(1, size - 1):
                j = size - 1 - i
                out.extend(App(f, a) for f in ctxs(i, depth) for a in terms(j, depth))
                out.extend(App(f, a) for f in terms(i, depth) for a in ctxs(j, depth))
                out.extend(
                    Es(b, binder, a) for b in ctxs(i, depth + 1) for a in terms(j, depth)
                )
                out.extend(
                    Es(b, binder, a) for b in terms(i, depth + 1) for a in ctxs(j, depth)
                )
        ctx_memo[key] = out
        return out

    for size in range(1, max_size + 1):
        yield from ctxs(size, 0)


def random_term(
    rng: random.Random,
    size: int,
    frees: tuple[str, ...] = ("x", "y"),
    bot_weight: float = 0.0,
) -> Term:
    """A random term of exactly the given size (when reachable)."""

    def go(size: int, scope: tuple[str, ...]) -> Term:
        if size <= 1:
            if bot_weight and rng.random() < bot_weight:
                return BOT
            return Var(rng.choice(scope))
        choices = ["abs"]
        if size >= 3:
            choices += ["app", "es"]
        match rng.choice(choices):
            case "abs":
                binder = f"b{len(scope) - len(frees)}"
                return Abs(binder, go(size - 1, scope + (binder,)))
            case "app":
                i = rng.randint(1, size - 2)
                return App(go(i, scope), go(size - 1 - i, scope))
            case _:
                binder = f"b{len(scope) - len(frees)}"
                i = rng.randint(1, size - 2)
                return Es(go(i, scope + (binder,)), binder, go(size - 1 - i, scope))

    return go(size, frees)
