"""A SHA-256 over every answer of one benchmark round, to show that two
checkouts give the same answers.

    python3 tools/answer_digest.py ROOT --workload genericity-judge --seed 43

ROOT is the root of a checkout.  Its ``perfbench/workloads.py`` draws the
inputs from the seed and builds one round of queries, which run once,
in order, against the program in ``ROOT/src``.  Each answer is encoded
and fed to the hash:

- a term as ``show(t, rename=False)``, so binder names count;
- a dataclass by its class name and its compared fields, in order (a
  field declared with ``compare=False`` is a note, not the answer);
- lists, tuples, dicts, sets, strings, numbers, booleans and None by
  their contents;
- a query that raised by its exception's class name and arguments.

Anything else would be encoded by an object address, which differs from
run to run, and raises TypeError.  Prints the hex digest.  Standard
library only; nothing under ROOT is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path


def encoder(terms, h):
    """The function that feeds the encoding of an answer to h, given the
    program's terms module."""

    def text(tag: str, s: str) -> None:
        h.update(f"{tag}{len(s)}:".encode())
        h.update(s.encode())

    def feed(obj) -> None:
        if isinstance(obj, terms.Node):
            text("T", terms.show(obj, rename=False))
        elif obj is None or isinstance(obj, (bool, int, float)):
            text("P", repr(obj))
        elif isinstance(obj, str):
            text("S", obj)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            fields = [f for f in dataclasses.fields(obj) if f.compare]
            text("D", type(obj).__qualname__)
            h.update(f"{len(fields)}(".encode())
            for f in fields:
                text("F", f.name)
                feed(getattr(obj, f.name))
            h.update(b")")
        elif isinstance(obj, (list, tuple)):
            h.update(f"L{len(obj)}(".encode())
            for item in obj:
                feed(item)
            h.update(b")")
        elif isinstance(obj, dict):
            h.update(f"M{len(obj)}(".encode())
            for key, value in obj.items():
                feed(key)
                feed(value)
            h.update(b")")
        elif isinstance(obj, (set, frozenset)):
            parts = []
            for item in obj:
                sub = hashlib.sha256()
                encoder(terms, sub)(item)
                parts.append(sub.hexdigest())
            text("Z", ",".join(sorted(parts)))
        elif isinstance(obj, BaseException):
            text("E", type(obj).__qualname__)
            feed(list(obj.args))
        else:
            raise TypeError(f"cannot encode a {type(obj).__qualname__} "
                            "without its object address")

    return feed


def digest(root: Path, workload: str, seed: int) -> str:
    root = root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import strata.terms
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; one of {sorted(workloads.WORKLOADS)}")
    make_inputs, make_round = workloads.WORKLOADS[workload]
    items = make_inputs(seed)
    queries = make_round(items, workloads.parse_inputs(workloads.input_strings(items)))
    h = hashlib.sha256()
    feed = encoder(strata.terms, h)
    for q in queries:
        try:
            answer = q.run()
        except Exception as exc:  # a raised query is an answer too
            answer = exc
        h.update(f"Q{len(q.kind)}:{q.kind}".encode())
        feed(answer)
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(digest(args.root, args.workload, args.seed))


if __name__ == "__main__":
    main()
