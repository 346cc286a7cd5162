#!/usr/bin/env python3
"""Benchmark for markovfilter: filter -> certify -> EM -> SEM.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads (see perfbench/NOTES.md for why each exists):

* ``estimate-long``   -- one op is one ``markovfilter estimate`` subprocess on
  the 3-state bench case at n = 1 000 000 transitions.
* ``estimate-sparse`` -- the same CLI op on a fixed panel of 5-state chains
  (n = 5 000) whose cost is dominated by the E-step and SEM.
* ``replicate``       -- one in-process replication of the simulation study
  (simulate, filter, EM, SEM, chi-square test and intervals) at n = 1 000.
* ``certify``         -- one in-process identifiability certification of a
  candidate filter, plus a separation check for approved small filters.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics from a
run in which the package's layer-boundary functions are wrapped by
``perfbench/tracer.py``. Every op's output is checked; failures are counted,
never retried. A run record (machine, versions, per-op details, failure
tally) goes to ``.perfbench_out/`` and one line of it to standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3  # untraced runs report the median; traced runs set up once
DEFAULT_SEED = 0

# One process runs one op at a time; BLAS gets one thread (<= nproc) so
# that timings do not depend on thread scheduling of tiny matrix products.
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")
os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from tracer import END, NAME, PROBE, START, Tracer, input_stats, self_times, split_by_op  # noqa: E402

#: The 3-state bench case (the matrix and filter of the test suite's fixtures).
BENCH_PROBS = np.array([[0.2, 0.3, 0.5], [0.8, 0.1, 0.1], [0.7, 0.1, 0.2]])
BENCH_FILTER = np.array([[0, 1, 0], [1, 1, 0], [1, 0, 0]], dtype=bool)

#: The 5-state sparse case: a one-zero-row witness filter, ~37 % blanks.
_SPARSE_ROWS = [
    [0.15, 0.048, 0.724, 0.056],
    [0.475, 0.141, 0.154, 0.02],
    [0.26, 0.067, 0.412, 0.062],
    [0.035, 0.191, 0.1, 0.145],
    [0.14, 0.114, 0.348, 0.251],
]
SPARSE_PROBS = np.array([r + [1.0 - sum(r)] for r in _SPARSE_ROWS])
SPARSE_FILTER = np.array([[c == "1" for c in row] for row in "00000 11000 01100 00100 00111".split()])

SIZES = {
    # workload -> {size: parameters}
    "estimate-long": {"full": {"n": 1_000_000}, "tiny": {"n": 20_000}},
    "estimate-sparse": {"full": {"n": 5_000, "panel": (0, 1, 2)}, "tiny": {"n": 2_000, "panel": (1,)}},
    "replicate": {"full": {"n": 1_000, "panel": 16}, "tiny": {"n": 300, "panel": 4}},
    "certify": {
        "full": {"small_k": (2, 3), "large_k": (8, 12, 16), "large_per_k": 44, "pairs": 5},
        "tiny": {"small_k": (2,), "large_k": (8,), "large_per_k": 4, "pairs": 2},
    },
}


# ----------------------------------------------------------------- helpers


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def median(values):
    return float(statistics.median(values)) if values else 0.0


def fresh_import_s() -> float:
    """Time ``import markovfilter.cli`` in a fresh interpreter (s)."""
    code = "import time; t = time.perf_counter(); import markovfilter.cli; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True, cwd=ROOT)
    return float(out.stdout.strip())


def random_probs(rng, k, floor=0.05):
    probs = rng.gamma(1.0, 1.0, (k, k)) + floor
    return probs / probs.sum(axis=1, keepdims=True)


def rows_ok(probs) -> bool:
    probs = np.asarray(probs, dtype=float)
    return bool(np.all(probs >= -1e-12) and np.allclose(probs.sum(axis=1), 1.0, atol=1e-9))


def spd(v) -> bool:
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)) or np.max(np.abs(v - v.T)) > 1e-12 * max(1.0, np.max(np.abs(v))):
        return False
    try:
        np.linalg.cholesky(v)
    except np.linalg.LinAlgError:
        return False
    return True


def monotone(trace) -> bool:
    trace = np.asarray(trace, dtype=float)
    slack = 1e-10 * max(1.0, float(np.max(np.abs(trace))))
    return bool(np.all(np.diff(trace) >= -slack))


def compare_fit(ref, theta, loglik, se, loglik_rel=0.0) -> list:
    """Differences from a stored reference fit: theta within 1e-8, the
    log-likelihood within 1e-6 (plus ``loglik_rel`` relative, for values
    read back from 12-digit reports), standard errors within 1e-3 relative.
    ``theta`` is the full k x k matrix, row-major; ``se`` the k(k-1) free
    parameters."""
    bad = []
    if np.max(np.abs(np.asarray(theta) - np.asarray(ref["theta"]))) > 1e-8:
        bad.append("theta differs from reference")
    if abs(loglik - ref["loglik"]) > max(1e-6, loglik_rel * abs(ref["loglik"])):
        bad.append("loglik differs from reference")
    # an estimate on the boundary has no meaningful standard error, so only
    # coordinates with reference estimate above 1e-6 are compared
    k = round(len(ref["theta"]) ** 0.5)
    free = np.asarray(ref["theta"]).reshape(k, k)[:, :-1].reshape(-1)
    ref_se, se = np.asarray(ref["se"]), np.asarray(se)
    inner = free > 1e-6
    if np.max(np.abs(se[inner] - ref_se[inner]) / ref_se[inner]) > 1e-3:
        bad.append("standard errors differ from reference")
    return bad


def _family_c2(bits) -> bool:
    k = bits.shape[0]
    zero_cols = [c for c in range(k) if not bits[:, c].any()]
    for a in zero_cols:
        for b in zero_cols:
            if b <= a:
                continue
            rest = [c for c in range(k) if c not in (a, b)]
            sub = bits[np.ix_(rest, rest)]
            if bits[a, rest].all() and bits[b, rest].all() and (sub.sum(0) == 1).all() and (sub.sum(1) == 1).all():
                return True
    return False


def in_a_family(bits) -> bool:
    """Independent membership test for the three identifiable families."""
    bits = np.asarray(bits, dtype=bool)
    k = bits.shape[0]
    rows, cols = bits.sum(1), bits.sum(0)
    for a in range(k):
        for b in range(k):
            if rows[a] == 0 and cols[b] == 0 and all(rows[r] == 1 for r in range(k) if r != a) and all(
                cols[c] == 1 for c in range(k) if c != b
            ):
                return True
    return k >= 3 and (_family_c2(bits) or _family_c2(bits.T))


def new_op(**info) -> dict:
    return {"ok": True, "wall_s": 0.0, "cpu_s": 0.0, "error": None, "check": [], "info": info}


def fail_check(op, problems) -> None:
    if problems:
        op["ok"] = False
        op["check"] = list(problems)
        op["error"] = op["error"] or "check: " + problems[0]


# --------------------------------------------------------------- workloads


class Workload:
    """One named stream of ops. ``setup`` is repeatable; ``batch`` returns the
    next ops to run back to back; ``run`` performs and checks one op."""

    in_process = True

    def __init__(self, seed, size, work, reference):
        self.seed = seed
        self.params = SIZES[self.name][size]
        self.work = work
        self.reference = reference if (size == "full") else {}
        self.tracer = None
        self.problems: list = []  # set-up level check failures

    def timing(self, ops, elapsed) -> tuple:
        """Op times (ms) for the percentiles, and successful ops per second."""
        ok = [op["wall_s"] * 1e3 for op in ops if op["ok"]] or [op["wall_s"] * 1e3 for op in ops]
        return ok, sum(op["ok"] for op in ops) / elapsed


class EstimateCli(Workload):
    """Shared CLI op: ``markovfilter estimate FILTERED FILTER --out REPORT``."""

    in_process = False
    probs = filt = None

    def chains(self):  # -> [(label, chain seed)]
        raise NotImplementedError

    def setup(self):
        from markovfilter import core, filtering, io

        P = core.TransitionMatrix.from_probs(self.probs)
        F = filtering.FilterMatrix(self.filt)
        io.write_matrix_csv(self.work / "filter.csv", F.bits)
        digests = []
        for label, chain_seed in self.chains():
            x = core.simulate_chain(P, 1, self.params["n"], chain_seed)
            y = filtering.apply_filter(x, F)
            path = self.work / f"chain-{label}.txt"
            io.write_filtered_chain(path, y)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        if getattr(self, "_digests", digests) != digests:
            self.problems.append("inputs differ between set-up repetitions")
        self._digests = digests
        fresh_import_s()

    def run(self, spec):
        label, _chain_seed = spec
        report = self.work / "report.txt"
        report.unlink(missing_ok=True)
        args = ["estimate", str(self.work / f"chain-{label}.txt"), str(self.work / "filter.csv"), "--out", str(report)]
        traced_out = self.work / "trace.json"
        if self.tracer is not None:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(traced_out)] + args
        else:
            cmd = [sys.executable, "-m", "markovfilter.cli"] + args
        op = new_op(chain=label)
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        op["wall_s"] = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        op["cpu_s"] = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        traced = None
        if self.tracer is not None:
            if proc.returncode != 0:  # the wrapper itself failed
                op.update(ok=False, error=f"wrapper exit {proc.returncode}")
                op["check"] = [proc.stderr.strip()[-300:]]
                return op
            traced = json.loads(traced_out.read_text())
            op["wall_s"] -= traced["probe_s"]
            op["cpu_s"] -= traced["probe_s"]  # probes are single-threaded CPU work
            op["spans"] = traced.pop("spans")
            op["info"].update({k: v for k, v in traced.items() if k not in ("loglik_trace",)})
            code = traced["exit"]
        else:
            code = proc.returncode
        if code != 0:
            op["ok"] = False
            errors = [s[6] for s in op.get("spans", []) if s[6]]
            op["error"] = f"exit {code}" + (f" ({errors[0]})" if errors else "")
            return op
        try:
            entries = {}
            for line in report.read_text().splitlines():
                key, sep, value = line.partition("=")
                if sep:
                    entries[key.strip()] = value.strip()
            bad = self.check(entries, label, traced, op)
        except (OSError, KeyError, ValueError) as err:
            bad = [f"report unreadable: {err!r}"]
        fail_check(op, bad)
        return op

    def check(self, entries, label, traced, op) -> list:
        k = int(entries["estimate.k"])
        d = k * (k - 1)
        fit = op["fit"] = {
            "theta": [float(entries[f"estimate.theta.{i}.{j}"]) for i in range(1, k + 1) for j in range(1, k + 1)],
            "loglik": float(entries["estimate.loglik"]),
            "se": [float(entries[f"estimate.se.{i}.{j}"]) for i in range(1, k + 1) for j in range(1, k)],
        }
        v = np.array([[float(entries[f"estimate.v_obs.{a}.{b}"]) for b in range(1, d + 1)] for a in range(1, d + 1)])
        bad = []
        if entries["estimate.converged"] != "true":
            bad.append("EM did not converge")
        if not (rows_ok(np.reshape(fit["theta"], (k, k))) and np.isfinite(fit["loglik"])):
            bad.append("estimate is not a transition matrix")
        if not spd(v):
            bad.append("V_obs is not symmetric positive definite")
        if not float(entries["estimate.symmetry"]) < 1e-4:
            bad.append("asymmetry >= 1e-4")
        if traced is not None and not monotone(traced.get("loglik_trace", [0.0])):
            bad.append("log-likelihood trace decreases")
        ref = self.reference.get(str(label))
        if ref is not None and "theta" in ref:
            bad += compare_fit(ref, fit["theta"], fit["loglik"], fit["se"], loglik_rel=1e-11)
        return bad


class EstimateLong(EstimateCli):
    name = "estimate-long"
    probs, filt = BENCH_PROBS, BENCH_FILTER

    def chains(self):
        return [(self.seed, self.seed)]

    batch = chains


class EstimateSparse(EstimateCli):
    name = "estimate-sparse"
    probs, filt = SPARSE_PROBS, SPARSE_FILTER

    def chains(self):
        return [(cs, cs) for cs in self.params["panel"]]

    def batch(self):
        # every pass covers the whole fixed panel; the seed only orders it
        panel = list(self.chains())
        np.random.default_rng(self.seed).shuffle(panel)
        return panel


class Replicate(Workload):
    name = "replicate"

    def setup(self):
        import markovfilter  # noqa: F401  (in-process import happens once)

        fresh_import_s()
        self.run(("warmup", 10**6 + self.seed))

    def batch(self):
        # whole passes over a fixed panel of chain seeds; the workload seed
        # only orders each pass (see NOTES.md for why the panel is fixed)
        self._passes = getattr(self, "_passes", 0) + 1
        panel = [("op", cs) for cs in range(self.params["panel"])]
        np.random.default_rng([self.seed, self._passes]).shuffle(panel)
        return panel

    def timing(self, ops, elapsed) -> tuple:
        # an op is deterministic in its chain, so a chain's op time is its
        # median over the passes: a burst of interference from the shared
        # host then moves one pass of a few chains, not the percentiles or
        # the throughput
        by_chain: dict = {}
        for op in ops:
            if op["ok"]:
                by_chain.setdefault(op["info"]["chain_seed"], []).append(op["wall_s"] * 1e3)
        if not by_chain:
            return super().timing(ops, elapsed)
        times = [median(v) for v in by_chain.values()]
        share_ok = sum(op["ok"] for op in ops) / len(ops)
        return times, share_ok * 1e3 * len(times) / sum(times)

    def run(self, spec):
        from markovfilter import core, em, filtering, inference, sem

        _kind, chain_seed = spec
        P = core.TransitionMatrix.from_probs(BENCH_PROBS)
        F = filtering.FilterMatrix(BENCH_FILTER)
        op = new_op(chain_seed=chain_seed)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            x = core.simulate_chain(P, 1, self.params["n"], chain_seed)
            y = filtering.apply_filter(x, F)
            fit = em.run_em(y, F)
            cov = sem.run_sem(y, F, fit)
            theta = fit.theta_hat.theta
            chi = inference.chi_square_test(theta, P.theta().theta, cov.v_obs)
            cis = [inference.confidence_interval(theta[i], cov.v_obs[i, i], 0.05) for i in range(theta.size)]
        except Exception as err:  # counted, never retried
            op.update(ok=False, error=type(err).__name__, wall_s=time.perf_counter() - t0)
            return op
        op["wall_s"] = time.perf_counter() - t0
        op["cpu_s"] = time.process_time() - cpu0
        op["info"].update(iterations=fit.iterations, asymmetry=cov.asymmetry)
        if self.tracer is not None:
            op["info"]["input"] = input_stats(y, self.tracer.probe_call(em.segment_chain, y)[1])
            self.tracer.probe_call(em.e_step, y, fit.theta_hat, F)
        se = np.sqrt(np.diag(cov.v_obs))
        bad = []
        if not fit.converged:
            bad.append("EM did not converge")
        if not monotone(fit.loglik_trace):
            bad.append("log-likelihood trace decreases")
        if not spd(cov.v_obs):
            bad.append("V_obs is not symmetric positive definite")
        if not cov.asymmetry < 1e-4:
            bad.append("asymmetry >= 1e-4")
        if not 0.0 <= chi.p_value <= 1.0 or not all(lo < t < hi for (lo, hi), t in zip(cis, theta)):
            bad.append("test or interval out of range")
        ref = self.reference.get(str(chain_seed))
        if ref is not None and "theta" in ref:
            bad += compare_fit(ref, fit.probs.reshape(-1), fit.final_observed_loglik, se)
        fail_check(op, bad)
        op["fit"] = {"theta": fit.probs.reshape(-1).tolist(), "loglik": fit.final_observed_loglik, "se": se.tolist()}
        return op


class Certify(Workload):
    name = "certify"
    SEP_LENGTH = 8
    SHORT_CHAIN = 6

    def setup(self):
        import markovfilter  # noqa: F401

        fresh_import_s()
        self._pass = self.build_pass()
        self._count = 0
        first_small = next(s for s in self._pass if s["k"] <= 3 and s["bits"].any())
        self.run(first_small)
        self.run(self._pass[-1])

    def build_pass(self):
        """Every filter with k in ``small_k`` (seed-shuffled), interleaved with
        random sparse (15 %) and dense (40-80 %) filters at each ``large_k``."""
        rng = np.random.default_rng([self.seed, 1])
        small = []
        for k in self.params["small_k"]:
            for code in range(2 ** (k * k)):
                bits = np.array([(code >> b) & 1 for b in range(k * k)], dtype=bool).reshape(k, k)
                small.append({"k": k, "bits": bits, "code": f"{k}:{code}"})
        rng.shuffle(small)
        large = []
        for _ in range(self.params["large_per_k"] // 2):
            for k in self.params["large_k"]:
                large.append({"k": k, "bits": rng.random((k, k)) < 0.15, "code": None})
                large.append({"k": k, "bits": rng.random((k, k)) < rng.uniform(0.4, 0.8), "code": None})
        rng.shuffle(large)
        stream, step = [], max(1, len(small) // max(1, len(large)))
        while small or large:
            stream += [small.pop() for _ in range(min(step, len(small)))]
            if large:
                stream.append(large.pop())
        return stream

    def batch(self):
        # ops cycle through the same seed-shuffled pass, so any stretch of
        # ops has the same mix of filters; the parameter pairs and short
        # chains are drawn per op
        n = self._count
        self._count += 1
        return [dict(self._pass[n % len(self._pass)], number=n, op_seed=[self.seed, 2, n])]

    def run(self, spec):
        from markovfilter import core, em, filtering, oracle

        k, bits = spec["k"], spec["bits"]
        rng = np.random.default_rng(spec.get("op_seed", [self.seed, 3]))
        pairs = [(random_probs(rng, k), random_probs(rng, k)) for _ in range(self.params["pairs"])]
        probs = random_probs(rng, k)
        chain_seed = int(rng.integers(2**31))
        op = new_op(k=k, code=spec["code"])
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        tvs, gap = [], None
        try:
            F = filtering.FilterMatrix(bits)
            verdict = filtering.identifiability_verdict(F)
            approved = verdict.verdict is filtering.Verdict.SUFFICIENT_IDENTIFIABLE
            if approved and k <= 3:
                tvs = [oracle.distinguishability_check(F, p1, p2, self.SEP_LENGTH, 1) for p1, p2 in pairs]
                x = core.simulate_chain(core.TransitionMatrix.from_probs(probs), 1, self.SHORT_CHAIN, chain_seed)
                y = filtering.apply_filter(x, F)
                gap = np.max(np.abs(em.e_step(y, probs, F).counts - oracle.oracle_expected_counts(y, F, probs).counts))
        except Exception as err:
            op.update(ok=False, error=type(err).__name__, wall_s=time.perf_counter() - t0)
            return op
        op["wall_s"] = time.perf_counter() - t0
        op["cpu_s"] = time.process_time() - cpu0
        enumerated = len(tvs) * k**self.SEP_LENGTH
        if gap is not None:
            enumerated += k ** y.blank_count
            if self.tracer is not None:
                op["info"]["input"] = input_stats(y, self.tracer.probe_call(em.segment_chain, y)[1])
        op["info"].update(approved=approved, chains_enumerated=enumerated)
        if self.tracer is not None and "input" not in op["info"]:
            op["info"]["input"] = {"k": k}
        bad = []
        wit = verdict.closure_witness
        if approved != (wit is not None):
            bad.append("verdict and witness disagree")
        if wit is not None and not (np.all(bits | ~wit.bits) and in_a_family(wit.bits)):
            bad.append("witness is not below the filter or not in a family")
        if approved and tvs and min(tvs) <= 1e-10:
            bad.append("approved filter does not separate a parameter pair")
        if gap is not None and not gap < 1e-10:
            bad.append("e_step differs from the enumeration oracle")
        ref = self.reference.get("verdicts", {}).get(spec["code"]) if spec["code"] else None
        if ref is not None and ref != approved:
            bad.append("verdict differs from reference")
        ref_ops = self.reference.get("ops", []) if self.seed == DEFAULT_SEED else []
        if spec.get("number", len(ref_ops)) < len(ref_ops):
            ref = ref_ops[spec["number"]]
            if ref["approved"] != approved or len(ref["tv"]) != len(tvs) or (
                tvs and np.max(np.abs(np.asarray(tvs) - ref["tv"])) > 1e-12
            ):
                bad.append("verdict or TV distances differ from reference")
        fail_check(op, bad)
        op["fit"] = {"approved": approved, "tv": tvs}
        return op


CLASSES = {cls.name: cls for cls in (EstimateLong, EstimateSparse, Replicate, Certify)}


# ------------------------------------------------------------------ phases


def timed_phase(workload, seconds) -> tuple:
    ops = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for spec in workload.batch():
            if workload.tracer is not None:
                workload.tracer.op = len(ops)
            op = workload.run(spec)
            if workload.tracer is not None:
                workload.tracer.op = None
            ops.append(op)
    return ops, time.perf_counter() - t0


def end_to_end(workload, ops, elapsed, setup_times) -> dict:
    times, throughput = workload.timing(ops, elapsed)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return {
        "setup_s": {"value": median(setup_times), "unit": "s"},
        "op_ms.p50": {"value": median(times), "unit": "ms"},
        "op_ms.p90": {"value": percentile(times, 90), "unit": "ms"},
        "ops_per_s": {"value": throughput, "unit": "1/s"},
        "peak_rss_mib": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MiB"},
    }


def per_layer(ops, setup_spans, import_times, overhead) -> dict:
    calls: dict = {}  # name -> [durations] (op, probe and set-up calls)
    per_op: list = []  # [{"<module>.self": s, "<name>": total s}, ...] for op spans
    for spans in [setup_spans] + [op.get("spans", []) for op in ops]:
        for s in spans:
            calls.setdefault(s[NAME], []).append(s[END] - s[START])
    for op in ops:
        spans = op.get("spans", [])
        totals: dict = {}
        for s, own in zip(spans, self_times(spans)):
            if s[PROBE]:
                continue
            module = s[NAME].split(".")[0]
            totals[module + ".self"] = totals.get(module + ".self", 0.0) + own
            totals[s[NAME]] = totals.get(s[NAME], 0.0) + (s[END] - s[START])
            totals[s[NAME] + "#"] = totals.get(s[NAME] + "#", 0) + 1
        per_op.append(totals)

    def call_ms(name, q=50):
        return percentile(calls.get(name, []), q) * 1e3

    def op_median(key, scale=1e3):
        return median([t.get(key, 0.0) for t in per_op]) * scale

    def op_mean(key):
        return sum(t.get(key, 0) for t in per_op) / max(1, len(per_op))

    def info(key, sub=None):
        vals = [op["info"][key] if sub is None else op["info"][key].get(sub) for op in ops if key in op["info"]]
        return median([v for v in vals if v is not None])

    em_ms_per_iter = [
        t["em.run_em"] * 1e3 / op["info"]["iterations"]
        for t, op in zip(per_op, ops)
        if "em.run_em" in t and op["info"].get("iterations")
    ]
    tests = [t.get("inference.chi_square_test", 0.0) + t.get("inference.confidence_interval", 0.0) for t in per_op]
    walls = [op["wall_s"] for op in ops]
    cpus = [op["cpu_s"] for op in ops]
    m = {
        "cli.import_s": (median(import_times), "s"),
        "cli.self_ms": (op_median("cli.self"), "ms"),
        "io.read_filtered_chain_ms": (call_ms("io.read_filtered_chain"), "ms"),
        "io.read_bytes": (info("read_bytes"), "bytes"),
        "io.write_kv_report_ms": (call_ms("io.write_kv_report"), "ms"),
        "io.self_ms": (op_median("io.self"), "ms"),
        "filtering.validate_consistency_ms": (call_ms("filtering.validate_consistency"), "ms"),
        "filtering.validate_calls": (op_mean("filtering.validate_consistency#"), "count"),
        "filtering.apply_filter_ms": (call_ms("filtering.apply_filter"), "ms"),
        "filtering.identifiability_verdict_ms.p50": (call_ms("filtering.identifiability_verdict"), "ms"),
        "filtering.identifiability_verdict_ms.p90": (call_ms("filtering.identifiability_verdict", 90), "ms"),
        "filtering.self_ms": (op_median("filtering.self"), "ms"),
        "core.simulate_chain_ms": (call_ms("core.simulate_chain"), "ms"),
        "core.self_ms": (op_median("core.self"), "ms"),
        "em.run_em_ms": (call_ms("em.run_em"), "ms"),
        "em.iterations": (info("iterations"), "count"),
        "em.ms_per_iteration": (median(em_ms_per_iter), "ms"),
        "em.e_step_ms": (call_ms("em.e_step"), "ms"),
        "em.segment_chain_ms": (call_ms("em.segment_chain"), "ms"),
        "em.self_ms": (op_median("em.self"), "ms"),
        "sem.run_sem_ms": (call_ms("sem.run_sem"), "ms"),
        "sem.sem_m1_ms": (call_ms("sem.sem_m1"), "ms"),
        "sem.asymmetry": (info("asymmetry"), "1"),
        "sem.self_ms": (op_median("sem.self"), "ms"),
        "inference.tests_ms": (median(tests) * 1e3, "ms"),
        "oracle.distinguishability_check_ms": (call_ms("oracle.distinguishability_check"), "ms"),
        "oracle.chains_enumerated": (sum(op["info"].get("chains_enumerated", 0) for op in ops) / max(1, len(ops)), "count"),
        "oracle.oracle_expected_counts_ms": (call_ms("oracle.oracle_expected_counts"), "ms"),
        "oracle.self_ms": (op_median("oracle.self"), "ms"),
        "proc.wall_s": (median(walls), "s"),
        "proc.cpu_s": (median(cpus), "s"),
        "proc.cpu_per_wall": (sum(cpus) / max(1e-12, sum(walls)), "fraction"),
        "input.k": (info("input", "k"), "count"),
        "input.n": (info("input", "n"), "count"),
        "input.blank_fraction": (info("input", "blank_fraction"), "fraction"),
        "input.gap_types": (info("input", "gap_types"), "count"),
        "input.longest_gap": (info("input", "longest_gap"), "count"),
        "error_rate": (sum(not op["ok"] for op in ops) / max(1, len(ops)), "fraction"),
        "trace.overhead": (overhead, "fraction"),
    }
    return {name: {"value": float(v), "unit": u} for name, (v, u) in m.items()}


def run_record(args) -> dict:
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        sha = out.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "markovfilter").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        lines = []
    cpu = next((ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("model name")), platform.processor())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def run(args) -> int:
    if not (SRC / "markovfilter" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text()).get(args.workload, {})
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = CLASSES[args.workload](args.seed, args.size, work, reference)
        record = run_record(args)
        tracer = None
        if args.trace:
            import markovfilter  # noqa: F401

            tracer = Tracer()
            tracer.install()
            workload.tracer = tracer
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        record["setup_s"] = setup_times
        # keep the harness's own long-lived objects (reference data, inputs)
        # out of the cyclic collector's full passes during timed ops
        gc.collect()
        gc.freeze()
        if args.trace:
            # untraced ops first, for the overhead; then the traced phase
            tracer.uninstall()
            workload.tracer = None
            plain, _ = timed_phase(workload, args.seconds)
            setup_spans = tracer.to_json()
            tracer.spans = []
            tracer.install()
            workload.tracer = tracer
            ops, elapsed = timed_phase(workload, args.seconds)
            tracer.uninstall()
            if workload.in_process:
                by_op = split_by_op(tracer.to_json())
                for i, op in enumerate(ops):
                    op["spans"] = by_op.get(i, [])
            overhead = median([o["wall_s"] for o in ops if o["ok"]]) / median([o["wall_s"] for o in plain if o["ok"]] or [1.0]) - 1.0
            imports = [fresh_import_s() for _ in range(3)]
            metrics = per_layer(ops, setup_spans, imports, overhead)
            record["trace_overhead"] = overhead
            all_ops = plain + ops
        else:
            ops, elapsed = timed_phase(workload, args.seconds)
            metrics = end_to_end(workload, ops, elapsed, setup_times)
            all_ops = ops
        failed = sum(not op["ok"] for op in all_ops)
        correct = not workload.problems and not any(op["check"] for op in all_ops)
        record.update(
            elapsed_s=elapsed,
            failures=dict(Counter(op["error"] for op in all_ops if not op["ok"])),
            problems=workload.problems + sorted({c for op in all_ops for c in op["check"]}),
            ops=[{k: v for k, v in op.items() if k != "spans"} for op in all_ops],
        )
        result = {"correct": correct, "attempted": len(all_ops), "failed": failed, "metrics": metrics}
        record["result"] = result
        OUT.mkdir(exist_ok=True)
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        summary = {k: record[k] for k in ("git_sha", "src_sha256", "seed", "nproc", "cpu_model", "python", "numpy", "scipy", "blas_threads", "failures")}
        summary["trace_overhead"] = record.get("trace_overhead")
        print("run-record " + json.dumps(summary))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def smoke() -> int:
    """Run every workload at tiny size, untraced and traced, and check that
    each metric named in BENCHMARK.json is printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    ok = True
    for name in names:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, cwd=ROOT,
            )
            if out.returncode != 0:
                print(f"{name} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            missing = [m["name"] for m in wanted[trace] if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            status = "ok" if not missing and result["correct"] else f"missing/unit mismatch {missing}, correct={result['correct']}"
            ok &= status == "ok"
            print(f"{name} trace={trace}: {status} (attempted {result['attempted']}, failed {result['failed']})")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(CLASSES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload, checking the printed metrics")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
