"""Lookups over the node summaries of ``strata.terms``.

Every node carries its summary from construction: a name-free
fingerprint, the core under its substitution spine, the shallowest
redex level per calculus, and its free names.  This module files terms
by those summaries up to alpha, and names the level slot of each
calculus.
"""

from __future__ import annotations

from .terms import CBN, CBV, Term, alpha_eq


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


def min_level_field(calculus: str) -> str:
    """The node slot holding the shallowest redex level of a calculus,
    which is named after it."""
    if calculus in (CBV, CBN):
        return calculus
    raise ValueError(f"unknown calculus {calculus!r}")
