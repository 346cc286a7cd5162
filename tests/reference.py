"""Reference routines that only the tests use: helpers for cross-checks
against the library, kept out of the package."""

import numpy as np

from markovfilter import em
from markovfilter.core import CountMatrix, _as_theta, _normalize_rows


def default_sem_start(theta_hat, v_com_mat: np.ndarray, k: int) -> np.ndarray:
    """Estimate shifted by two complete-data standard deviations, pulled back
    toward the estimate where a row would leave the parameter space: a
    start for the forced iteration ``sem_m1``."""
    theta = _as_theta(theta_hat).copy()
    delta = 2.0 * np.sqrt(np.clip(np.diag(v_com_mat), 0.0, None))
    delta[theta == 0.0] = 0.0  # structurally fixed coordinates stay put
    start = theta + delta
    for i in range(k):
        sl = slice(i * (k - 1), (i + 1) * (k - 1))
        total = start[sl].sum()
        if total >= 1.0:
            base = theta[sl].sum()
            # scale the shift so the row lands midway to the boundary
            scale = (1.0 - base) / (2.0 * (total - base))
            start[sl] = theta[sl] + scale * (start[sl] - theta[sl])
    return start


def plain_em(y, F, tol: float, max_iter: int = 100_000) -> em.EMResult:
    """Plain EM from the uniform start, the reference for ``run_em``'s
    SQUAREM cycles: one E-step pass (read from the module, so that a
    wrapper on ``em._e_pass`` sees it) and one M-step per iteration, until
    a step moves no coordinate by ``tol``; it ends on the estimate's pass."""
    probs = np.full((y.space.k, y.space.k), 1.0 / y.space.k)
    counts, loglik = em._e_pass(y.segments, probs, F.bits)
    trace, converged = [float(loglik)], False
    while not converged and len(trace) <= max_iter:
        probs, old = _normalize_rows(counts), probs
        converged = np.max(np.abs(probs[:, :-1] - old[:, :-1])) < tol
        counts, loglik = em._e_pass(y.segments, probs, F.bits)
        trace.append(float(loglik))
    n = len(trace) - 1
    return em.EMResult(probs, n, n + 1, bool(converged), trace[-1], CountMatrix(counts), tuple(trace))
