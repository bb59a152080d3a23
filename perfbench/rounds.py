"""Rounds of queries and the tally of their outcomes and latencies.

A round runs every query of a workload once, one after another: a
closed loop with one client.  Each query is timed alone; its answer is
re-checked after the clock stops.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import Counter

import tracing
import workloads as w

MIN_ROUNDS = 3


class Tally:
    """Outcomes and latencies of the queries of a run, round by round.

    Every round runs the same queries, so a query's latency is its
    median over the rounds, and a rate is the median of the rounds'
    rates: a burst of noise on the machine moves one round, not the
    figure."""

    def __init__(self):
        self.rounds: list[list[float]] = []
        self.round_steps: list[int] = []
        self.outcomes = {w.OK: 0, w.UNDECIDED: 0, w.ERROR: 0, w.WRONG: 0}
        self.errors: list[str] = []  # the first exceptions, as text
        self.failures: Counter = Counter()  # by query kind and outcome

    def add(self, query, result, error, seconds) -> None:
        self.rounds[-1].append(seconds)
        if error is None:
            try:
                outcome = query.check(result)
            except Exception as exc:  # a check that cannot run is a failure
                error = exc
        if error is not None:
            outcome = w.ERROR
            if len(self.errors) < 5:
                self.errors.append(f"{query.kind}: {type(error).__name__}: {error}"[:300])
        self.outcomes[outcome] += 1
        if outcome in (w.ERROR, w.WRONG):
            self.failures[f"{query.kind} {outcome}"] += 1

    @property
    def attempted(self) -> int:
        return sum(map(len, self.rounds))

    @property
    def failed(self) -> int:
        return self.outcomes[w.ERROR] + self.outcomes[w.WRONG]

    def ratio(self, outcome: str) -> float:
        return self.outcomes[outcome] / self.attempted

    def per_query(self) -> list[float]:
        return [statistics.median(q) for q in zip(*self.rounds)]

    def rate(self, work: list) -> float:
        return statistics.median(n / sum(r) for n, r in zip(work, self.rounds))


def run_round(queries, tally: Tally, steps) -> None:
    """Untraced: time each query alone, then re-check it."""
    clock = time.perf_counter
    tally.rounds.append([])
    made = 0
    for q in queries:
        result = error = None
        before = steps.steps
        start = clock()
        try:
            result = q.run()
        except Exception as exc:  # the query's failure is the measurement
            error = exc
        seconds = clock() - start
        made += steps.steps - before
        tally.add(q, result, error, seconds)
    tally.round_steps.append(made)


def run_traced_round(queries, tally: Tally, tracer, first_id: int) -> None:
    tally.rounds.append([])
    for i, q in enumerate(queries):
        result, error, seconds = tracer.run_query(first_id + i, q.run)
        tally.add(q, result, error, seconds)


def end_to_end(make_round, items, terms, seconds: float) -> tuple[Tally, dict]:
    """Untraced rounds, at least MIN_ROUNDS and until seconds have passed;
    the end-to-end metrics other than set-up time."""
    steps = tracing.StepCounter()
    steps.install()
    tally = Tally()
    began = time.perf_counter()
    while len(tally.rounds) < MIN_ROUNDS or time.perf_counter() - began < seconds:
        run_round(make_round(items, terms), tally, steps)
        if len(tally.rounds) == MIN_ROUNDS:
            # after a fixed number of rounds, so the figure does not grow
            # with the number of rounds that fit in the time
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    steps.uninstall()
    latency = tally.per_query()
    return tally, {
        "queries_per_s": (tally.rate([len(r) for r in tally.rounds]), "1/s"),
        "query_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "query_p90_ms": (statistics.quantiles(latency, n=10)[8] * 1e3, "ms"),
        "steps_per_s": (tally.rate(tally.round_steps), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "decided_ratio": (1 - tally.ratio(w.UNDECIDED), "ratio"),
        "ok_ratio": (1 - tally.failed / tally.attempted, "ratio"),
    }


def per_layer(make_round, items, terms, seconds: float,
              tracer: tracing.Tracer) -> tuple[Tally, dict]:
    """One untraced round, then traced rounds as in ``end_to_end``.

    Counts are those of set-up and the first traced round, so they repeat
    exactly at a fixed seed; self times are set-up plus the mean of the
    traced rounds."""
    # the untraced round is the baseline for the tracing overhead, and
    # gives the outcome ratios exactly as an untraced run sees them
    baseline = Tally()
    run_round(make_round(items, terms), baseline, tracing.StepCounter())
    untraced_s = sum(baseline.rounds[0])

    tracer.install()
    tracer.detail = True
    setup_self = list(tracer.self_s)
    tally = Tally()
    counts = None
    began = time.perf_counter()
    while len(tally.rounds) < MIN_ROUNDS or time.perf_counter() - began < seconds:
        queries = make_round(items, terms)
        run_traced_round(queries, tally, tracer, len(tally.rounds) * len(queries))
        if counts is None:
            counts = tracer.snapshot()
            tracer.detail = False
    tracer.uninstall()
    rounds = len(tally.rounds)
    traced_s = sum(map(sum, tally.rounds)) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for i, name in enumerate(tracing.NAMES):
        if name != "reduce.apply_step":  # its calls are reduce.steps
            metrics[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (
            setup_self[i] + (tracer.self_s[i] - setup_self[i]) / rounds, "s")
    steps = counts["reduce.apply_step.calls"]
    metrics.update({
        "reduce.steps": (steps, "count"),
        "reduce.redex_use_ratio": (ratio(steps, counts["reduce.redexes_listed"]), "ratio"),
        "reduce.mean_term_size": (ratio(counts["reduce.walked_nodes"],
                                        counts["reduce.walks"]), "nodes"),
        "reduce.peak_term_size": (counts["reduce.peak_term_size"], "nodes"),
        "approx.meaning.hit_ratio": (ratio(counts["approx.meaning.hits"],
                                           counts["approx.meaning.calls"]), "ratio"),
        "approx.approximant_repeat_ratio": (
            ratio(counts["approx.approximant_repeats"],
                  counts["approx.meaningful_approximant.calls"]), "ratio"),
        "corpus.enumerate_contexts.yielded": (
            counts["corpus.enumerate_contexts.yielded"], "count"),
        "trace.query_s": (traced_s, "s"),
        "trace.untraced_query_s": (untraced_s, "s"),
        "trace.overhead_ratio": (traced_s / untraced_s - 1, "ratio"),
        "trace.bookkeeping_s": (tracer.bookkeeping_s / rounds, "s"),
        "undecided_ratio": (baseline.ratio(w.UNDECIDED), "ratio"),
        "error_ratio": (baseline.failed / baseline.attempted, "ratio"),
    })
    return tally, metrics
