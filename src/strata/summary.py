"""Per-node term summaries, cached on the nodes.

A node's summary is computed once, from its children's summaries
alone, and kept in the slot that ``strata.terms.Node`` reserves.  It is
a tuple with four fields:

  FINGERPRINT  a structural hash that ignores every name, so that
               alpha-equal terms have equal fingerprints;
  CORE         what the node is under its explicit-substitution body
               spine: ABS, VAR or OTHER.  The rules look no further
               below a node than this (dB needs an abstraction under
               the function's spine, sv a value under the argument's);
  CBV_MIN      the shallowest level of a call-by-value redex in the
  CBN_MIN      subterm, and of a call-by-name one, relative to the
               node, as an int; NO_REDEX when the subterm has none.

Levels add up along a path (a binder counts one in call-by-value, an
argument edge one in call-by-name), so the shallowest level is
compositional: zero when the node itself is a redex, otherwise the
least over its children of the edge's cost plus the child's value.
"""

from __future__ import annotations

from .terms import CBN, CBV, Abs, App, Bot, Es, Level, Node, Term, Var, alpha_eq, free_vars

FINGERPRINT, CORE, CBV_MIN, CBN_MIN = range(4)

ABS, VAR, OTHER = range(3)

NO_REDEX: Level = float("inf")

_store = Node._summary.__set__  # writes the reserved slot of a frozen node

# The fingerprint's tags are small integers, whose hashes do not vary
# from run to run as those of strings do.  Fingerprints and levels are
# kept below 2**30, where an int takes the least memory (and levels
# below 257 are shared objects); a fingerprint only files the entries
# of an AlphaTable, so its width only costs collisions.
_MASK = (1 << 30) - 1
_VAR = (hash((0,)) & _MASK, VAR, NO_REDEX, NO_REDEX)
_BOT = (hash((4,)) & _MASK, OTHER, NO_REDEX, NO_REDEX)
_HOLE = (hash((5,)) & _MASK, OTHER, NO_REDEX, NO_REDEX)


def summary(t: Term) -> tuple:
    """The cached summary of t, computing the missing ones below it.

    Iterative, so a deep term needs no deep recursion: a node stays on
    the stack until its children have their summaries.  A node shared
    by several parents is summarized once."""
    s = getattr(t, "_summary", None)
    if s is not None:
        return s
    stack = [t]
    while stack:
        node = stack[-1]
        kind = type(node)
        if kind is App or kind is Es:
            left = node.fun if kind is App else node.body
            if getattr(left, "_summary", None) is None:
                stack.append(left)
                continue
            if getattr(node.arg, "_summary", None) is None:
                stack.append(node.arg)
                continue
        elif kind is Abs and getattr(node.body, "_summary", None) is None:
            stack.append(node.body)
            continue
        s = summarize(node)
        stack.pop()
    return s


def summarize(node: Term) -> tuple:
    """Compute and cache the summary of a node whose children have
    theirs cached."""
    # comparisons rather than min(), as this runs once per new node; a
    # level seen across an edge that counts is one more, but NO_REDEX
    # stays the one shared object
    kind = type(node)
    if kind is App:
        sl, sr = node.fun._summary, node.arg._summary
        fp = hash((2, sl[FINGERPRINT], sr[FINGERPRINT])) & _MASK
        if sl[CORE] == ABS:  # dB at the node
            s = (fp, OTHER, 0, 0)
        else:
            cbv, right = sl[CBV_MIN], sr[CBV_MIN]
            cbn, arg = sl[CBN_MIN], sr[CBN_MIN]
            if arg != NO_REDEX and arg + 1 < cbn:
                cbn = arg + 1
            s = (fp, OTHER, cbv if cbv < right else right, cbn)
    elif kind is Es:
        sl, sr = node.body._summary, node.arg._summary
        fp = hash((3, sl[FINGERPRINT], sr[FINGERPRINT])) & _MASK
        # sN matches every substitution, sv one whose argument is a
        # value under its spine
        if sr[CORE] != OTHER:
            cbv = 0
        else:
            cbv, right = sl[CBV_MIN], sr[CBV_MIN]
            if right < cbv:
                cbv = right
        s = (fp, sl[CORE], cbv, 0)
    elif kind is Abs:
        sb = node.body._summary
        cbv = sb[CBV_MIN]
        s = (hash((1, sb[FINGERPRINT])) & _MASK, ABS,
             cbv if cbv == NO_REDEX else cbv + 1, sb[CBN_MIN])
    elif kind is Var:
        s = _VAR
    else:
        s = _BOT if kind is Bot else _HOLE
    _store(node, s)
    return s


def fingerprint(t: Term) -> int:
    """A name-free structural hash: equal for alpha-equal terms."""
    return summary(t)[FINGERPRINT]


class AlphaTable:
    """A map from terms up to alpha, built from (term, value) entries.

    Entries are filed by fingerprint.  Within a row a term is compared
    first by its free names (cached sets), then by alpha_eq; a lookup
    in an empty row costs one fingerprint read."""

    def __init__(self, entries=()):
        self._rows: dict[int, list[tuple[Term, object]]] = {}
        for t, value in entries:
            self.add(t, value)

    def get(self, t: Term):
        """The value of the first entry alpha-equal to t, or None."""
        row = self._rows.get(fingerprint(t))
        if row:
            names = free_vars(t)
            for u, value in row:
                if free_vars(u) == names and alpha_eq(u, t):
                    return value
        return None

    def add(self, t: Term, value) -> None:
        self._rows.setdefault(fingerprint(t), []).append((t, value))


def min_level_field(calculus: str) -> int:
    """The summary field holding the shallowest redex level of a calculus."""
    if calculus == CBV:
        return CBV_MIN
    if calculus == CBN:
        return CBN_MIN
    raise ValueError(f"unknown calculus {calculus!r}")
