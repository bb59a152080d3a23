"""The strata benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``
there.  The workload's inputs are drawn from the seed.  Whole rounds of
queries run, one query at a time (a closed loop with one client), at
least three and until ``--seconds`` have passed; every answer is
re-checked after it is timed.  The last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` one untraced round is followed by traced rounds, the
metrics are per layer, and the spans of the first traced round are
written to ``perfbench/out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
MEMORY_LIMIT = 1 << 30  # bytes of address space for this process


def limit_memory() -> None:
    """Make a query whose term explodes fail with MemoryError, which
    counts as an error, instead of taking the machine's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Import strata from this checkout's sources, never from elsewhere."""
    if not (SRC / "strata" / "__init__.py").is_file():
        fail(f"no program sources at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import strata

    if Path(strata.__file__).resolve().parent != SRC / "strata":
        fail(f"imported strata from {strata.__file__}, not from {SRC}")


def median_wall(argv: list[str], stdin: bytes = b"", env=None) -> float:
    """Median wall time of SETUP_REPEATS fresh processes, after one
    untimed run that leaves the bytecode cache warm."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        done = subprocess.run(argv, input=stdin, capture_output=True, env=env,
                              cwd=ROOT, timeout=60)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            fail(f"{' '.join(argv)} exited {done.returncode}: "
                 f"{done.stderr.decode(errors='replace')[-500:]}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def setup_seconds(strings) -> float:
    """A fresh interpreter imports strata and parses the input strings."""
    child = [sys.executable, "-E", "-s", str(HERE / "setup_child.py"), str(SRC)]
    return median_wall(child, json.dumps(strings).encode())


def cli_startup_seconds() -> float:
    """A fresh ``python -m strata.cli parse x``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return median_wall([sys.executable, "-m", "strata.cli", "parse", "x"], env=env)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    import_program()
    limit_memory()
    import rounds
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    make_inputs, make_round = workloads.WORKLOADS[args.workload]
    items = make_inputs(args.seed)
    strings = workloads.input_strings(items)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.detail = True
        terms, error, _ = tracer.run_query(-1, lambda: workloads.parse_inputs(strings))
        tracer.uninstall()
        if error is not None:
            raise error
        tally, metrics = rounds.per_layer(make_round, items, terms, args.seconds, tracer)
        metrics["cli.startup_s"] = (cli_startup_seconds(), "s")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write_spans(out / f"spans-{args.workload}.csv")
    else:
        terms = workloads.parse_inputs(strings)
        tally, metrics = rounds.end_to_end(make_round, items, terms, args.seconds)
        metrics = {"setup_s": (setup_seconds(strings), "s"), **metrics}

    per_round = ", ".join(f"{k} {v // len(tally.rounds)}" for k, v in tally.outcomes.items())
    print(f"# {args.workload} seed {args.seed}: {len(tally.rounds)} rounds of "
          f"{len(tally.rounds[0])} queries; outcomes per round: {per_round}")
    print("# query seconds per round: "
          + ", ".join(f"{sum(r):.3f}" for r in tally.rounds))
    for kind, n in sorted(tally.failures.items()):
        print(f"# failed: {kind} x{n}")
    for line in tally.errors:
        print(f"# raised: {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.outcomes[workloads.WRONG] == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
