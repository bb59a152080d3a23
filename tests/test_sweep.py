"""Exhaustive sweep, marked slow and left out of the default run
(``pytest -m slow`` runs it, in about 5 minutes on a 2-core machine):
every term up to size 9, the first size that holds Omega.  Each typable
term's derivation is checked independently and carried along the
surface trace step by step and back, each derivation typing the step's
own endpoint.  Each surface trace that ends in a cycle is checked
against a reference loop keyed by canonical."""

import pytest

from strata import (
    CBN, CBV, canonical, check_derivation, expand_derivation, normalize, reduce_derivation,
    typable,
)
from strata.corpus import enumerate_terms
from strata.typecheck import SYSTEM_OF

FUEL = 30

# the terms up to size 9 whose surface trace is a cycle: Omega, written
# as an application or as (x x)[x\\x.x x]; by name also two terms whose
# cycle runs under a binder
CYCLES = {CBV: 2, CBN: 4}


def _cycle_mismatch(trace) -> str | None:
    """What the reference loop, which keys every term of the trace by
    canonical, finds wrong with the trace's cycle; None if nothing."""
    keys = [canonical(t) for t in trace.terms]
    seen = {}
    for i, key in enumerate(keys):
        if key in seen:
            if i != len(keys) - 1:
                return f"a repeat at step {i}, before the trace ends"
            if seen[key] != trace.cycle_start:
                return f"cycle_start {trace.cycle_start}, reference {seen[key]}"
            return None
        seen[key] = i
    return "no repeat"


@pytest.mark.slow
@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_derivations_check_and_follow_the_surface_trace(calculus):
    system = SYSTEM_OF[calculus]
    bad = []
    cycles = 0
    for t in enumerate_terms(9):
        status, d = typable(t, calculus, FUEL)
        if status != "typable":
            trace = normalize(t, calculus, 0.0, FUEL)
            if trace.outcome == "cycle":
                cycles += 1
                mismatch = _cycle_mismatch(trace)
                if mismatch:
                    bad.append((t, mismatch))
            continue
        if check_derivation(d, system):
            bad.append((t, "typable"))
            continue
        steps = normalize(t, calculus, 0.0, FUEL).steps
        for step in steps:
            d = reduce_derivation(d, step, system)
            if check_derivation(d, system) or d.term is not step.after:
                bad.append((t, step.rule, step.position))
                break
        else:
            for step in reversed(steps):
                d = expand_derivation(d, step, system)
                if check_derivation(d, system) or d.term is not step.before:
                    bad.append((t, "back", step.rule, step.position))
                    break
    assert bad == []
    assert cycles == CYCLES[calculus]
