"""The benchmark's own term code, used to re-check the program's answers.

Nothing here calls into ``strata`` except to read the fields of its term
objects, so a check built from these functions shares no code with the
answer it checks.  Every walk is iterative: a check must not fail on a
term deeper than the interpreter's recursion limit allows.

Terms are compared through nameless pre-order token lists.  A bound
variable becomes ``("v", i)``, with ``i`` the number of binders between
it and its binder, and a free one ``("f", name)``.  Two terms are
alpha-equal exactly when their token lists are equal.
"""

from __future__ import annotations

from strata.terms import Abs, App, Bot, Es, Var

# children per token kind: abstraction, application, explicit
# substitution (body first, then argument); every other token is a leaf
_ARITY = {"l": 1, "a": 2, "s": 2}


def _shift(tokens: list, k: int) -> list:
    """Add k to every index that points outside a substitution-free
    token list, as when it moves under k more binders."""
    if k == 0:
        return tokens
    out = []
    depth = 0
    pending: list[list] = []  # per open node: [children left, is a binder]
    for tok in tokens:
        if tok[0] == "v" and tok[1] >= depth:
            tok = ("v", tok[1] + k)
        out.append(tok)
        if tok[0] in _ARITY:
            pending.append([_ARITY[tok[0]], tok[0] == "l"])
            depth += tok[0] == "l"
            continue
        while pending:
            pending[-1][0] -= 1
            if pending[-1][0]:
                break
            depth -= pending.pop()[1]
    return out


def tokens(t, unfold: bool = False) -> list:
    """Nameless pre-order tokens of a term.

    With unfold, every explicit substitution ``b[x\\a]`` is replaced by
    the meta-level substitution of ``a`` for ``x`` in ``b``, so the
    tokens are those of a substitution-free term.
    """
    out: list = []
    # env is a linked list of (kind, name, arg tokens, parent); kind "l"
    # is a binder that counts in indices, "s" an unfolded substitution
    work = [("walk", t, None, out)]
    while work:
        task = work.pop()
        if task[0] == "body":
            _, body, name, arg, env, dst = task
            work.append(("walk", body, ("s", name, arg, env), dst))
            continue
        _, t, env, dst = task
        if isinstance(t, Var):
            crossed, e = 0, env
            while e is not None and e[1] != t.name:
                crossed += e[0] == "l"
                e = e[3]
            if e is None:
                dst.append(("f", t.name))
            elif e[0] == "l":
                dst.append(("v", crossed))
            else:
                dst.extend(_shift(e[2], crossed))
        elif isinstance(t, Abs):
            dst.append(("l",))
            work.append(("walk", t.body, ("l", t.binder, None, env), dst))
        elif isinstance(t, App):
            dst.append(("a",))
            work.append(("walk", t.arg, env, dst))
            work.append(("walk", t.fun, env, dst))
        elif isinstance(t, Es) and unfold:
            arg: list = []
            work.append(("body", t.body, t.binder, arg, env, dst))
            work.append(("walk", t.arg, env, arg))
        elif isinstance(t, Es):
            dst.append(("s",))
            work.append(("walk", t.arg, env, dst))
            work.append(("walk", t.body, ("l", t.binder, None, env), dst))
        elif isinstance(t, Bot):
            dst.append(("bot",))
        else:
            dst.append(("hole",))
    return out


def key(t) -> tuple:
    """A hashable key, equal for two terms exactly when they are
    alpha-equal."""
    return tuple(tokens(t))


def alpha_equal(t, u) -> bool:
    return tokens(t) == tokens(u)


def below(approx, t) -> bool:
    """The approximation order: approx is t with some subterms cut to
    bot, up to alpha."""
    a, b = tokens(approx), tokens(t)
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == ("bot",):
            j = _subtree_end(b, j)
        elif a[i] != b[j]:
            return False
        else:
            j += 1
        i += 1
    return i == len(a) and j == len(b)


def _subtree_end(toks: list, i: int) -> int:
    """Index just past the subtree that starts at toks[i]."""
    pending = 1
    while pending:
        pending += _ARITY.get(toks[i][0], 0) - 1
        i += 1
    return i


def size(t) -> int:
    """Number of nodes, counted without recursion."""
    n = 0
    work = [t]
    while work:
        s = work.pop()
        n += 1
        if isinstance(s, Abs):
            work.append(s.body)
        elif isinstance(s, (App, Es)):
            work.append(s.fun if isinstance(s, App) else s.body)
            work.append(s.arg)
    return n


def numeral(n: int):
    """The Church numeral ``\\f.\\x.f (f ... x)`` as a term object; the
    parser's recursion cannot read the text of a large one."""
    body = Var("x")
    for _ in range(n):
        body = App(Var("f"), body)
    return Abs("f", Abs("x", body))


def is_numeral(t, n: int, unfold: bool) -> bool:
    """t is the Church numeral n, up to alpha and, with unfold, after
    unfolding its explicit substitutions."""
    return tokens(t, unfold) == tokens(numeral(n))
