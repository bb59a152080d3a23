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

from .terms import CBN, CBV, Abs, App, Bot, Es, Level, Node, Term, Var

FINGERPRINT, CORE, CBV_MIN, CBN_MIN = range(4)

ABS, VAR, OTHER = range(3)

NO_REDEX: Level = float("inf")

_store = Node._summary.__set__  # writes the reserved slot of a frozen node

# The fingerprint's tags are small integers, whose hashes do not vary
# from run to run as those of strings do.  Fingerprints and levels are
# kept below 2**30, where an int takes the least memory (and levels
# below 257 are shared objects); a fingerprint only filters the
# comparisons of canonical keys, so its width only costs collisions.
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
            sl = getattr(left, "_summary", None)
            if sl is None:
                stack.append(left)
                continue
            sr = getattr(node.arg, "_summary", None)
            if sr is None:
                stack.append(node.arg)
                continue
            fp = hash((2 if kind is App else 3, sl[FINGERPRINT], sr[FINGERPRINT])) & _MASK
            if kind is Es:
                # sN matches every substitution, sv one whose argument
                # is a value under its spine
                cbv = 0 if sr[CORE] != OTHER else min(sl[CBV_MIN], sr[CBV_MIN])
                s = (fp, sl[CORE], cbv, 0)
            elif sl[CORE] == ABS:  # dB at the node
                s = (fp, OTHER, 0, 0)
            else:
                s = (fp, OTHER, min(sl[CBV_MIN], sr[CBV_MIN]),
                     min(sl[CBN_MIN], _below(sr[CBN_MIN])))
        elif kind is Abs:
            sb = getattr(node.body, "_summary", None)
            if sb is None:
                stack.append(node.body)
                continue
            s = (hash((1, sb[FINGERPRINT])) & _MASK, ABS, _below(sb[CBV_MIN]), sb[CBN_MIN])
        elif kind is Var:
            s = _VAR
        else:
            s = _BOT if kind is Bot else _HOLE
        _store(node, s)
        stack.pop()
    return s


def _below(level):
    """A relative level seen from one edge higher up that counts."""
    return level if level == NO_REDEX else level + 1


def fingerprint(t: Term) -> int:
    """A name-free structural hash: equal for alpha-equal terms."""
    return summary(t)[FINGERPRINT]


def min_level_field(calculus: str) -> int:
    """The summary field holding the shallowest redex level of a calculus."""
    if calculus == CBV:
        return CBV_MIN
    if calculus == CBN:
        return CBN_MIN
    raise ValueError(f"unknown calculus {calculus!r}")
