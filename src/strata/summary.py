"""Lookups over the node summaries of ``strata.terms``.

Every node carries its summary from construction: a name-free
fingerprint, the core under its substitution spine, the shallowest
redex level per calculus, and its free names.  This module files terms
by those summaries up to alpha, and names the level field of each
calculus.
"""

from __future__ import annotations

from .terms import CBN, CBN_MIN, CBV, CBV_MIN, FINGERPRINT, FREE, Term, alpha_eq


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
        s = t.summary
        row = self._rows.get((s[FINGERPRINT], s[FREE]))
        if row:
            for u, value in row:
                if alpha_eq(u, t):
                    return value
        return None

    def add(self, t: Term, value) -> None:
        s = t.summary
        self._rows.setdefault((s[FINGERPRINT], s[FREE]), []).append((t, value))


def min_level_field(calculus: str) -> int:
    """The summary field holding the shallowest redex level of a calculus."""
    if calculus == CBV:
        return CBV_MIN
    if calculus == CBN:
        return CBN_MIN
    raise ValueError(f"unknown calculus {calculus!r}")
