"""Run one ``markovfilter`` CLI command under the tracer and dump its spans.

Usage: python traced_cli.py OUT.json <markovfilter arguments...>

Runs ``cli.main`` with the given arguments while the tracer records spans,
then makes probe calls (``segment_chain`` on the chain read, ``e_step`` at
the estimate) and records how long they took, so the caller can keep them
out of the op's time. Writes spans, the exit code and the facts the
benchmark's checks need to OUT.json.
"""

import contextlib
import io as _stdio
import json
import os
import sys
import time

import markovfilter.cli as cli
import markovfilter.em as em
from tracer import Tracer, input_stats


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    seen: dict = {}
    tracer.hooks["io.read_filtered_chain"] = lambda a, kw, r: seen.update(
        y=r, read_bytes=os.path.getsize(a[0])
    )
    tracer.hooks["io.read_filter_csv"] = lambda a, kw, r: seen.update(F=r)
    tracer.hooks["em.run_em"] = lambda a, kw, r: seen.update(em=r)
    tracer.hooks["sem.run_sem"] = lambda a, kw, r: seen.update(sem=r)
    tracer.install()
    tracer.op = 0
    with contextlib.redirect_stdout(_stdio.StringIO()):
        code = cli.main(argv)
    main_end = time.perf_counter()
    record = {"exit": code}
    if "y" in seen:
        y, F = seen["y"], seen["F"]
        record["read_bytes"] = seen["read_bytes"]
        record["input"] = input_stats(y, tracer.probe_call(em.segment_chain, y)[1])
        if "em" in seen:
            res = seen["em"]
            tracer.probe_call(em.e_step, y, res.theta_hat, F)
            record["iterations"] = res.iterations
            record["loglik_trace"] = list(res.loglik_trace)
        if "sem" in seen:
            record["asymmetry"] = seen["sem"].asymmetry
    tracer.uninstall()
    record["probe_s"] = time.perf_counter() - main_end
    record["spans"] = tracer.to_json()
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
