"""Reference routines that only the tests use: helpers for cross-checks
against the library, kept out of the package."""

import numpy as np

from markovfilter.core import _as_theta


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
