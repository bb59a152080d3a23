"""Tests of the benchmark itself: seeded inputs, the failure count and
the repeatability of the traced counts.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import strata.reduce  # noqa: E402
import reference  # noqa: E402
import rounds  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def texts(items):
    return {s for s, _ in workloads.input_strings(items)}


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_inputs(name):
    make = workloads.WORKLOADS[name][0]
    assert make(7) == make(7)


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_gives_other_inputs(name):
    make = workloads.WORKLOADS[name][0]
    assert make(7) != make(8)
    assert texts(make(7)) != texts(make(8))


def small_church_round():
    items = [it for it in workloads.deep_normalize_inputs(3)
             if it["level"] == "omega" and it["value"] <= 30][:4]
    terms = workloads.parse_inputs(workloads.input_strings(items))
    return workloads.deep_normalize_round(items, terms)


def run(queries):
    tally = rounds.Tally()
    rounds.run_round(queries, tally, tracing.StepCounter())
    return tally


def test_right_answers_pass():
    tally = run(small_church_round())
    assert tally.attempted == 8
    assert tally.failed == 0
    assert tally.outcomes[workloads.OK] == 8


def test_wrong_answer_counts_in_error_ratio(monkeypatch):
    # claim that every expression is already its own normal form
    def lazy(t, calculus, level, fuel=None):
        return strata.reduce.Trace(t, calculus, level, (), "normal")

    queries = small_church_round()
    monkeypatch.setattr(strata.reduce, "normalize", lazy)
    tally = run(queries)
    assert tally.outcomes[workloads.WRONG] == tally.attempted == 8
    assert tally.failed / tally.attempted == 1.0


def test_raising_query_counts_as_error(monkeypatch):
    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    queries = small_church_round()
    monkeypatch.setattr(strata.reduce, "normalize", overflow)
    tally = run(queries)
    assert tally.outcomes[workloads.ERROR] == tally.attempted == 8
    assert tally.errors and "RecursionError" in tally.errors[0]


def test_traced_counts_repeat_exactly():
    items = workloads.surface_corpus_inputs(5)[:20]
    terms = workloads.parse_inputs(workloads.input_strings(items))

    def counts():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.detail = True
            rounds.run_traced_round(workloads.surface_corpus_round(items, terms),
                                    rounds.Tally(), tracer, 0)
        finally:
            tracer.uninstall()
        return tracer.snapshot()

    original = strata.reduce.normalize
    first, second = counts(), counts()
    assert first["reduce.apply_step.calls"] > 0
    assert first == second
    assert strata.reduce.normalize is original  # uninstall restores the program


def test_unfolding_reads_a_call_by_value_numeral():
    t = workloads.parse_inputs([(workloads.arith("mul", workloads.church(3),
                                                 workloads.church(4)), False)])
    trace = strata.reduce.normalize(next(iter(t.values())), workloads.CBV,
                                    workloads.OMEGA, 1000)
    assert reference.is_numeral(trace.final, 12, unfold=True)
    assert not reference.is_numeral(trace.final, 13, unfold=True)
