"""Compare two checkouts of strata on the benchmark, in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_13.json

PARENT and CHANGE are the roots of two checkouts (for example one made
with ``git archive`` of the parent commit, and this one).  For every
workload of ``BENCHMARK.json``, ``perfbench/run.py`` runs ``PAIRS``
times in each checkout with ``--seed SEED --seconds SECONDS --trace 0``,
the two sides alternating which runs first; ``--seed`` replaces
``SEED``, to confirm a result at another seed.  For every end-to-end
metric the output gives each side's median and quartiles, every run's
value, and how many pairs the change won, in the metric's better
direction (ties count for neither).
It also makes one ``--trace 1 --seconds 0`` run per side and workload
at that seed and records its ``reduce.steps`` and every ``.calls``
counter, which show where work was saved on any host, and the
``tools/answer_digest.py`` digest of one round's answers, so that a
report shows by itself whether both sides gave the same answers.  For
the garbage collector, it runs one round per side and workload in a
fresh process, after an untimed one, the way ``perfbench/rounds.py``
runs it, and records through ``gc.callbacks`` the collector's seconds
inside timed queries, its seconds in all, and its collections per
generation: a full collection that lands inside a timed query, rather
than in an untimed answer check, moves a workload's rate.  It also
times ``enumerate_terms(9)`` in a fresh process per side and run, with
that process's peak RSS.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# fixed, so that every report of this tool compares like with like
PAIRS = 10
SEED = 43
SECONDS = 30.0

ENUMERATE = """
import resource, sys, time
sys.path.insert(0, "src")
from strata.corpus import enumerate_terms
start = time.perf_counter()
n = sum(1 for _ in enumerate_terms(9))
print(n, time.perf_counter() - start,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""

COLLECTOR = """
import gc, json, sys, time
sys.path[:0] = ["src", "perfbench"]
import rounds, tracing, workloads
make_inputs, make_round = workloads.WORKLOADS[sys.argv[1]]
items = make_inputs(int(sys.argv[2]))
terms = workloads.parse_inputs(workloads.input_strings(items))
steps = tracing.StepCounter()
steps.install()
rounds.run_round(make_round(items, terms), rounds.Tally(), steps)
record = {"in_query_s": 0.0, "total_s": 0.0, "collections": [0, 0, 0]}
inside = started = 0


def timed(run):
    def run_inside():
        global inside
        inside = 1
        try:
            return run()
        finally:
            inside = 0
    return run_inside


def on_gc(phase, info):
    global started
    if phase == "start":
        started = time.perf_counter()
        return
    seconds = time.perf_counter() - started
    record["total_s"] += seconds
    record["in_query_s"] += seconds * inside
    record["collections"][info["generation"]] += 1


queries = make_round(items, terms)
for q in queries:
    q.run = timed(q.run)
tally = rounds.Tally()
gc.callbacks.append(on_gc)
rounds.run_round(queries, tally, steps)
gc.callbacks.remove(on_gc)
record["query_s"] = sum(tally.rounds[0])
print(json.dumps(record))
"""


def run_benchmark(root: Path, workload: str, seed: int, seconds: float = SECONDS,
                  trace: int = 0) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def work_counters(root: Path, workload: str, seed: int) -> dict:
    """reduce.steps and every .calls counter of one traced run."""
    metrics = run_benchmark(root, workload, seed, 0, 1)["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if name == "reduce.steps" or name.endswith(".calls")}


def answer_digest(root: Path, workload: str, seed: int) -> str:
    """The SHA-256 over the answers of one round, made in a fresh process."""
    argv = [sys.executable, str(Path(__file__).with_name("answer_digest.py")), str(root),
            "--workload", workload, "--seed", str(seed)]
    return subprocess.run(argv, capture_output=True, text=True, check=True).stdout.strip()


def collector(root: Path, workload: str, seed: int) -> dict:
    """The garbage collector's work in one timed round, in a fresh process."""
    done = subprocess.run([sys.executable, "-c", COLLECTOR, workload, str(seed)], cwd=root,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def run_enumerate(root: Path) -> dict:
    done = subprocess.run([sys.executable, "-c", ENUMERATE], cwd=root,
                          capture_output=True, text=True, check=True)
    n, seconds, rss = done.stdout.split()
    return {"terms": int(n), "seconds": float(seconds), "peak_rss_mb": float(rss)}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[dict], change: list[dict], better: str) -> dict:
    """Each side's summary over its runs, and the pairs the change won."""
    sign = 1 if better == "higher" else -1
    p = [r["value"] for r in parent]
    c = [r["value"] for r in change]
    return {"parent": summarize(p), "change": summarize(c),
            "change_won": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            "pairs": len(p)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=SEED)
    args = ap.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    report = {
        "settings": {"pairs": PAIRS, "seed": args.seed, "seconds": SECONDS,
                     "trace": 0, "quartiles": "statistics.quantiles(n=4, inclusive)",
                     "counters": "one --trace 1 --seconds 0 run per side",
                     "answers": "tools/answer_digest.py, one round per side",
                     "collector": "gc.callbacks over one round per side, after an untimed one"},
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "system": platform.system(), "cpus": os.cpu_count()},
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_benchmark(sides[side], name, args.seed)
                runs[side].append(result)
                print(f"# {name} pair {i} {side}: steps_per_s "
                      f"{result['metrics']['steps_per_s']['value']:.0f}", file=sys.stderr)
        report["workloads"][name] = {
            "correct": {s: [r["correct"] for r in runs[s]] for s in runs},
            "failed": {s: [r["failed"] for r in runs[s]] for s in runs},
            "metrics": {
                m["name"]: {"unit": m["unit"], "better": m["better"], **compare(
                    [r["metrics"][m["name"]] for r in runs["parent"]],
                    [r["metrics"][m["name"]] for r in runs["change"]], m["better"])}
                for m in spec["end_to_end"]},
            "counters": {side: work_counters(sides[side], name, args.seed)
                         for side in sides},
            "answers": {side: answer_digest(sides[side], name, args.seed)
                        for side in sides},
            "collector": {side: collector(sides[side], name, args.seed) for side in sides},
        }
    enum = {side: [] for side in sides}
    for i in range(PAIRS):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            enum[side].append(run_enumerate(sides[side]))
    report["enumerate_terms_9"] = {
        side: {"terms": enum[side][0]["terms"],
               "seconds": summarize([r["seconds"] for r in enum[side]]),
               "peak_rss_mb": summarize([r["peak_rss_mb"] for r in enum[side]])}
        for side in sides}
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
