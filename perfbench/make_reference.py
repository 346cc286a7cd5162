#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the outputs of the default seed at
full size, which later runs are checked against.

Usage (from the repository root): python3 perfbench/make_reference.py

Run it only on the commit whose outputs are the reference; a run on changed
code would make the benchmark accept whatever that code computes.
"""

import json
import shutil
import sys

import run as bench

CERTIFY_OPS = 1500


def entry(op):
    return op["fit"] if op["ok"] else {"error": op["error"]}


def main() -> int:
    seed = bench.DEFAULT_SEED
    work = bench.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ref = {}
    try:
        for name, cls in bench.CLASSES.items():
            w = cls(seed, "full", work, {})
            w.setup()
            if name.startswith("estimate"):
                ref[name] = {str(label): entry(w.run((label, cs))) for label, cs in w.chains()}
                continue
            if name == "replicate":
                ops = [w.run(spec) for spec in w.batch()]
                ref[name] = {str(op["info"]["chain_seed"]): entry(op) for op in ops}
            else:
                ops = [w.run(w.batch()[0]) for _ in range(CERTIFY_OPS)]
                ref[name] = {
                    "verdicts": {op["info"]["code"]: op["fit"]["approved"] for op in ops if op["info"]["code"]},
                    "ops": [entry(op) for op in ops],
                }
            print(name, "done", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (bench.HERE / "reference.json").write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
