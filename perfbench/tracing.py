"""Outside-in tracing of the ``strata`` layers, from the benchmark's files.

Each layer is a public function of a ``strata`` module (or the
``Oracle.meaning`` method).  Installing a wrapper replaces the function
under every name a caller looks it up by: the attribute of each loaded
``strata`` module that holds it.  The program's own code is not changed.

A wrapper records one span per call: layer, start, end, parent span and
query id.  A layer's self time is its span time minus the time of its
child spans.  The layers run on one thread and never wait on each
other, so no layer has a wait time to report.

Work done by the tracer itself between two clock readings of a span's
parent, such as measuring a term's size, is taken out of the parent's
self time and reported as ``bookkeeping_s``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import reference

# (layer name, module, attribute); the name is the metric prefix
LAYERS = [
    ("terms.parse", "strata.terms", "parse"),
    ("terms.canonical", "strata.terms", "canonical"),
    ("terms.subst", "strata.terms", "subst"),
    ("reduce.find_redexes", "strata.reduce", "find_redexes"),
    ("reduce.apply_step", "strata.reduce", "apply_step"),
    ("reduce.normalize", "strata.reduce", "normalize"),
    ("approx.meaning", "strata.approx", "Oracle.meaning"),
    ("approx.meaningful_approximant", "strata.approx", "meaningful_approximant"),
    ("approx.approximate_step", "strata.approx", "approximate_step"),
    ("approx.lift_step", "strata.approx", "lift_step"),
    ("deriv_transform.typable", "strata.deriv_transform", "typable"),
    ("deriv_transform.expand_derivation", "strata.deriv_transform", "expand_derivation"),
    ("typecheck.check_derivation", "strata.typecheck", "check_derivation"),
    ("typecheck.synth_nf_derivation", "strata.typecheck", "synth_nf_derivation"),
    ("nf.classify_nf", "strata.nf", "classify_nf"),
    ("nf.is_bno", "strata.nf", "is_bno"),
    ("nf.strat_eq", "strata.nf", "strat_eq"),
    ("genericity.stratified_genericity_check", "strata.genericity",
     "stratified_genericity_check"),
    ("genericity.axiom_suite", "strata.genericity", "axiom_suite"),
    ("theories.judge", "strata.theories", "judge"),
    ("theories.falsify_observational", "strata.theories", "falsify_observational"),
    ("theories.reverify", "strata.theories", "reverify"),
]
ROOT = "bench.query"
NAMES = [ROOT] + [name for name, _, _ in LAYERS]
_INDEX = {name: i for i, name in enumerate(NAMES)}

clock = time.perf_counter


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def _patch(original, replacement) -> list:
    """Rebind original to replacement under every strata module name
    that holds it; returns what to restore."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "strata" and not modname.startswith("strata."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


class StepCounter:
    """Counts contractions (calls of ``apply_step``) without timing them,
    for ``steps_per_s`` in an untraced run."""

    def __init__(self):
        self.steps = 0
        self._undo: list = []

    def install(self) -> None:
        import strata.reduce

        original = strata.reduce.apply_step

        def apply_step(*args, **kwargs):
            self.steps += 1
            return original(*args, **kwargs)

        self._undo = _patch(original, apply_step)

    def uninstall(self) -> None:
        for owner, attr, value in self._undo:
            setattr(owner, attr, value)
        self._undo = []


class Tracer:
    """Spans and counts at every layer boundary of the listed layers."""

    def __init__(self):
        self.on = False
        self.detail = False  # keep spans and take the costly counts
        self.spans: list[tuple] = []
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.counts: Counter = Counter()
        self.bookkeeping_s = 0.0
        self.query_id = -1
        self._stack: list[list] = []  # open spans: [id, layer, start, child time]
        self._next_id = 0
        self._seen_approximants: set = set()
        self._undo: list = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for name, module, attr in LAYERS:
            owner, attr = _resolve(module, attr)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if owner is sys.modules[module]:
                self._undo += _patch(original, wrapper)
            else:  # a method: the class attribute is the only name
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
        import strata.corpus

        self._undo += _patch(strata.corpus.enumerate_contexts,
                             self._count_yields(strata.corpus.enumerate_contexts))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []

    def _count_yields(self, generator):
        counts = self.counts

        def enumerate_contexts(*args, **kwargs):
            for item in generator(*args, **kwargs):
                if self.on:
                    counts["corpus.enumerate_contexts.yielded"] += 1
                yield item

        return enumerate_contexts

    def _wrap(self, name: str, fn):
        index = _INDEX[name]
        before = {"approx.meaningful_approximant": self._before_approximant,
                  "approx.meaning": self._before_meaning}.get(name)
        after = {"reduce.find_redexes": self._after_find_redexes,
                 "approx.meaning": self._after_meaning}.get(name)

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            t0 = clock()
            parent = self._stack[-1]
            note = before(args) if before else None
            span = [self._next_id, index, 0.0, 0.0]
            self._next_id += 1
            self._stack.append(span)
            span[2] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.calls[index] += 1
                self.self_s[index] += end - start - span[3]
                parent[3] += end - t0
                self.bookkeeping_s += start - t0
                if self.detail:
                    self.spans.append((span[0], index, start, end, parent[0],
                                       self.query_id))
            if after:
                after(args, result, note)
            done = clock()
            parent[3] += done - end
            self.bookkeeping_s += done - end
            return result

        traced.__wrapped__ = fn
        return traced

    # -- layer-specific counts ----------------------------------------

    def _after_find_redexes(self, args, result, note) -> None:
        self.counts["reduce.redexes_listed"] += len(result)
        if self.detail:
            n = reference.size(args[0])
            self.counts["reduce.walked_nodes"] += n
            self.counts["reduce.walks"] += 1
            if n > self.counts["reduce.peak_term_size"]:
                self.counts["reduce.peak_term_size"] = n

    def _before_meaning(self, args):
        return self.calls[_INDEX["reduce.normalize"]]

    def _after_meaning(self, args, result, normalize_calls) -> None:
        if self.calls[_INDEX["reduce.normalize"]] == normalize_calls:
            self.counts["approx.meaning.hits"] += 1

    def _before_approximant(self, args):
        if self.detail:
            k = reference.key(args[0])
            if k in self._seen_approximants:
                self.counts["approx.approximant_repeats"] += 1
            self._seen_approximants.add(k)
        return None

    # -- queries ------------------------------------------------------

    def run_query(self, query_id: int, thunk):
        """Run one query under a root span.

        Returns (result, exception, seconds); an exception the query
        raises is part of the measurement, so it is caught here."""
        self.query_id = query_id
        self._seen_approximants = set()
        root = [self._next_id, 0, 0.0, 0.0]
        self._next_id += 1
        self._stack = [[-1, 0, 0.0, 0.0], root]
        result = error = None
        self.on = True
        root[2] = start = clock()
        try:
            result = thunk()
        except Exception as exc:
            error = exc
        end = clock()
        self.on = False
        self.calls[0] += 1
        self.self_s[0] += (end - start) - root[3]
        if self.detail:
            self.spans.append((root[0], 0, start, end, -1, query_id))
        return result, error, end - start

    def snapshot(self) -> Counter:
        """Counts so far, by metric name."""
        out = Counter({f"{name}.calls": self.calls[i] for i, name in enumerate(NAMES)})
        out.update(self.counts)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,layer,start_s,end_s,parent,query\n")
            for sid, index, start, end, parent, query in self.spans:
                fh.write(f"{sid},{NAMES[index]},{start:.9f},{end:.9f},{parent},{query}\n")
