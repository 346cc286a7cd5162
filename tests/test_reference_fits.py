"""The benchmark's reference fits (``perfbench/reference.json``), refitted in
process with the harness's tolerances, so that a fit that drifts past them
fails here and not only as a failed check of a benchmark run. The cases
are copied from ``perfbench/run.py`` rather than imported: importing that
script edits ``os.environ`` and ``sys.path``."""

import json
from pathlib import Path

import numpy as np
import pytest

from markovfilter import FilterMatrix, TransitionMatrix, apply_filter, run_em, run_sem, simulate_chain
from conftest import BENCH_FILTER, BENCH_PROBS, SPARSE5_PROBS

REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())

#: The filter of the benchmark's 5-state sparse case, as in
#: ``perfbench/run.py`` (``SPARSE5_PROBS`` is its matrix).
SPARSE_FILTER = np.array([[c == "1" for c in row] for row in "00000 11000 01100 00100 00111".split()])

#: workload -> (probs, filter, n, loglik_rel); the CLI workloads'
#: references were read back from 12-digit reports, hence their relative
#: slack.
CASES = {
    "estimate-long": (BENCH_PROBS, BENCH_FILTER, 1_000_000, 1e-11),
    "estimate-sparse": (SPARSE5_PROBS, SPARSE_FILTER, 5_000, 1e-11),
    "replicate": (BENCH_PROBS, BENCH_FILTER, 1_000, 0.0),
}

#: The chains a full-size benchmark run checks: ``replicate`` runs seeds
#: 0-15 (the file holds older entries beyond them), and an entry that holds
#: an error (``estimate-sparse`` chain 2) has no fit to compare.
FITS = [
    pytest.param(workload, seed, id=f"{workload}-{seed}")
    for workload in CASES
    for seed, entry in REFERENCE[workload].items()
    if "theta" in entry and (workload != "replicate" or int(seed) < 16)
]


@pytest.mark.parametrize("workload,seed", FITS)
def test_refit_matches_the_benchmark_reference(workload, seed):
    probs, bits, n, loglik_rel = CASES[workload]
    ref = REFERENCE[workload][seed]
    F = FilterMatrix(bits)
    y = apply_filter(simulate_chain(TransitionMatrix.from_probs(probs), 1, n, int(seed)), F)
    fit = run_em(y, F)
    se = np.sqrt(np.diag(run_sem(y, F, fit).v_obs))
    # the harness's ``compare_fit``: theta within 1e-8, the log-likelihood
    # within 1e-6 (plus ``loglik_rel``), and the standard errors within 1e-3
    # relative where the reference estimate is above 1e-6
    np.testing.assert_allclose(fit.probs.reshape(-1), ref["theta"], rtol=0.0, atol=1e-8)
    assert abs(fit.final_observed_loglik - ref["loglik"]) <= max(1e-6, loglik_rel * abs(ref["loglik"]))
    k = fit.probs.shape[0]
    inner = np.reshape(ref["theta"], (k, k))[:, :-1].reshape(-1) > 1e-6
    np.testing.assert_allclose(se[inner], np.asarray(ref["se"])[inner], rtol=1e-3, atol=0.0)
