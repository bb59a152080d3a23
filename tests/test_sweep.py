"""Exhaustive sweep, marked slow and left out of the default run
(``pytest -m slow`` runs it, in about 40 s on a 2-core machine): every
term up to size 8 is typed, the derivation is checked independently,
and it is carried along the surface trace step by step and back, each
derivation typing the step's own endpoint."""

import pytest

from strata import (
    CBN, CBV, check_derivation, expand_derivation, normalize, reduce_derivation, typable,
)
from strata.corpus import enumerate_terms
from strata.typecheck import SYSTEM_OF

FUEL = 30


@pytest.mark.slow
@pytest.mark.parametrize("calculus", [CBV, CBN])
def test_derivations_check_and_follow_the_surface_trace(calculus):
    system = SYSTEM_OF[calculus]
    bad = []
    for t in enumerate_terms(8):
        status, d = typable(t, calculus, FUEL)
        if status != "typable":
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
