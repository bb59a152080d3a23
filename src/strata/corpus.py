"""Term enumeration and random generation for campaigns and tests."""

from __future__ import annotations

import random
from typing import Iterator

from .terms import BOT, HOLE, Abs, App, Es, Term, Var


def by_size(frees: tuple[str, ...]):
    """The memoized generator of terms and contexts: at(size, depth,
    holes) lists the terms (holes=0) or the one-hole contexts (holes=1)
    of that size under depth binders named b0, b1, ...  At each split of
    an application or a substitution the hole goes left before right."""
    memo: dict[tuple[int, int, int], list[Term]] = {}

    def at(size: int, depth: int, holes: int) -> list[Term]:
        key = (size, depth, holes)
        if key in memo:
            return memo[key]
        out: list[Term] = []
        if size == 1:
            if holes:
                out.append(HOLE)
            else:
                out.extend(Var(v) for v in frees)
                out.extend(Var(f"b{i}") for i in range(depth))
        else:
            binder = f"b{depth}"
            out.extend(Abs(binder, b) for b in at(size - 1, depth + 1, holes))
            for i in range(1, size - 1):
                j = size - 1 - i
                for h in range(holes, -1, -1):
                    out.extend(App(f, a) for f in at(i, depth, h)
                               for a in at(j, depth, holes - h))
                for h in range(holes, -1, -1):
                    out.extend(Es(b, binder, a) for b in at(i, depth + 1, h)
                               for a in at(j, depth, holes - h))
        memo[key] = out
        return out

    return at


def enumerate_terms(max_size: int) -> Iterator[Term]:
    """All terms up to the given size over the free variables x and y,
    one per alpha-class (binders are named canonically by depth)."""
    at = by_size(("x", "y"))
    for size in range(1, max_size + 1):
        yield from at(size, 0, 0)


def enumerate_contexts(
    max_size: int, frees: tuple[str, ...] = ("x", "y")
) -> Iterator[Term]:
    """All one-hole contexts up to the given size, smallest first."""
    at = by_size(frees)
    for size in range(1, max_size + 1):
        yield from at(size, 0, 1)


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
