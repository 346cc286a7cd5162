"""Supplemented EM: standard errors for the EM estimate.

The EM update is a mapping M on the parameter space; near the estimate its
Jacobian M1 measures the fraction of information lost to filtering. The
observed covariance is recovered without the observed information matrix as
V_obs = V_com (I - M1)^(-1), where V_com inverts the conditional expected
complete-data information, and the variance inflation due to missingness is
dV = V_com M1 (I - M1)^(-1). M1 itself comes from forced EM iterations:
perturb one coordinate of the estimate, run a single EM step, and take the
limit of the difference ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CountMatrix, probs_to_theta, theta_to_probs
from .em import EMResult, _as_probs, _as_theta, _em_map
from .errors import (
    RowNotConvergedError,
    SingularBlockError,
    SingularUpdateError,
)
from .filtering import FilteredChain, FilterMatrix


@dataclass(frozen=True)
class SemResult:
    """EM-map Jacobian and the covariance decomposition built from it.

    ``v_obs`` is symmetrized; ``asymmetry`` records the max entrywise
    difference between the raw matrix and its transpose before
    symmetrization (a numerical-quality diagnostic)."""

    m1: np.ndarray
    v_com: np.ndarray
    v_obs: np.ndarray
    delta_v: np.ndarray
    asymmetry: float
    converged_rows: np.ndarray


def _block_size(d: int) -> int:
    k = round((1 + np.sqrt(1 + 4 * d)) / 2)
    if k * (k - 1) != d:
        raise ValueError(f"{d} is not of the form k^2 - k")
    return k


def complete_info(E, theta) -> np.ndarray:
    """Conditional expected complete-data information at ``theta``.

    Block-diagonal with one (k-1) x (k-1) block per source state: block i
    has off-diagonal entries E[i,k]/p_ik^2 and adds E[i,j]/p_ij^2 on the
    diagonal. A coordinate fixed at zero (p = 0 with no expected mass) is not
    estimated: its row and column are zero. Positive mass on a zero
    probability is an error.
    """
    counts = E.counts if isinstance(E, CountMatrix) else np.asarray(E, dtype=float)
    k = counts.shape[0]
    probs = _as_probs(theta, k)
    d = k * (k - 1)
    info = np.zeros((d, d))

    def curvature(n, p, where):
        if p <= 0.0:
            if n > 0.0:
                raise SingularBlockError(
                    f"expected count {n:g} on zero probability at {where}"
                )
            return 0.0
        return n / p**2

    for i in range(k):
        c_last = curvature(counts[i, k - 1], probs[i, k - 1], f"({i + 1},{k})")
        block = np.full((k - 1, k - 1), c_last)
        for j in range(k - 1):
            block[j, j] += curvature(counts[i, j], probs[i, j], f"({i + 1},{j + 1})")
        fixed = probs[i, : k - 1] <= 0.0
        block[fixed, :] = 0.0
        block[:, fixed] = 0.0
        sl = slice(i * (k - 1), (i + 1) * (k - 1))
        info[sl, sl] = block
    return info


def v_com(i_com: np.ndarray) -> np.ndarray:
    """Blockwise inverse of the complete-data information. A fixed
    coordinate's zero row and column stay zero; the rest of each block must
    be symmetric positive definite, and a block with no nonzero entry is
    singular."""
    i_com = np.asarray(i_com, dtype=float)
    d = i_com.shape[0]
    k = _block_size(d)
    out = np.zeros_like(i_com)
    for i in range(k):
        sl = slice(i * (k - 1), (i + 1) * (k - 1))
        free = np.flatnonzero(i_com[sl, sl].any(axis=1))
        sub = np.ix_(free, free)
        block = i_com[sl, sl][sub]
        try:
            if not free.size:
                raise np.linalg.LinAlgError("no coordinate carries information")
            np.linalg.cholesky(block)
            out[sl, sl][sub] = np.linalg.inv(block)
        except np.linalg.LinAlgError as err:
            raise SingularBlockError(
                f"information block {i + 1} is not positive definite"
            ) from err
    return out


def sem_m1(
    y: FilteredChain,
    F: FilterMatrix,
    theta_hat,
    theta_init,
    sem_tol: float = 1e-6,
    max_iter: int = 100_000,
):
    """Numerical Jacobian of the EM map at the estimate via forced iterations.

    Let theta_t be the EM sequence started from ``theta_init``. At step t,
    coordinate i of the estimate is replaced by theta_t[i]; one EM iteration
    from that point gives a difference ratio row r_i. Row i is declared
    converged once successive ratio rows differ by less than ``sem_tol``
    (rows may converge at different t). A perturbed point whose row mass
    would reach 1 is pulled back to the midpoint between the estimate and
    the row boundary; the ratio uses the perturbation actually applied.
    Once the EM sequence hits the estimate exactly in a coordinate, that row
    is frozen at its last value.

    Returns (m1, converged_rows); raises when rows are still open after
    ``max_iter`` steps.
    """
    k = y.space.k
    theta_hat = _as_theta(theta_hat)
    theta_t = _as_theta(theta_init).copy()
    d = k * (k - 1)
    if theta_hat.shape != (d,) or theta_t.shape != (d,):
        raise ValueError(f"expected {d} parameters")

    seg = y.segments

    def em_update(theta):
        return probs_to_theta(_em_map(seg, theta_to_probs(theta, k), F.bits)[0])

    m1 = np.zeros((d, d))
    r_prev = np.zeros((d, d))
    have_prev = np.zeros(d, dtype=bool)
    converged = np.zeros(d, dtype=bool)

    for _ in range(max_iter):
        theta_next = em_update(theta_t)
        for i in range(d):
            if converged[i]:
                continue
            if theta_t[i] == theta_hat[i]:
                # the EM sequence reached the estimate in this coordinate;
                # the last ratio row is final (zero if never computable)
                if have_prev[i]:
                    m1[i] = r_prev[i]
                converged[i] = True
                continue
            val = theta_t[i]
            row = i // (k - 1)
            sl = slice(row * (k - 1), (row + 1) * (k - 1))
            others = theta_hat[sl].sum() - theta_hat[i]
            if others + val >= 1.0:
                val = 0.5 * (theta_hat[i] + (1.0 - others))
            perturbed = theta_hat.copy()
            perturbed[i] = val
            ratio = (em_update(perturbed) - theta_hat) / (val - theta_hat[i])
            if have_prev[i] and np.max(np.abs(ratio - r_prev[i])) < sem_tol:
                m1[i] = ratio
                converged[i] = True
            r_prev[i] = ratio
            have_prev[i] = True
        theta_t = theta_next
        if converged.all():
            break
    else:
        raise RowNotConvergedError(np.flatnonzero(~converged))
    return m1, converged


def v_obs(v_com_mat: np.ndarray, m1: np.ndarray):
    """Observed covariance and missingness inflation:
    V_obs = V_com (I - M1)^(-1) and dV = V_com M1 (I - M1)^(-1).

    An eigenvalue of M1 at (or numerically at) one means some parameter
    direction carries essentially no observed information in this
    realization, so the covariance does not exist at float precision; that
    surfaces here as a singular update rather than silent garbage.
    """
    v_com_mat = np.asarray(v_com_mat, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    d = v_com_mat.shape[0]
    eye_minus = np.eye(d) - m1
    cond = np.linalg.cond(eye_minus)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularUpdateError(
            "I - M1 is numerically singular: a direction of the parameter "
            "space has (numerically) no observed information"
        )
    try:
        inv = np.linalg.inv(eye_minus)
    except np.linalg.LinAlgError as err:
        raise SingularUpdateError("I - M1 is singular") from err
    vo = v_com_mat @ inv
    dv = v_com_mat @ m1 @ inv
    return vo, dv


def symmetry_diagnostic(v: np.ndarray) -> float:
    """Max entrywise |v - v^T|; the result should be tiny for a healthy run."""
    v = np.asarray(v, dtype=float)
    return float(np.max(np.abs(v - v.T)))


def default_sem_start(theta_hat, v_com_mat: np.ndarray, k: int) -> np.ndarray:
    """Estimate shifted by two complete-data standard deviations, pulled back
    toward the estimate where a row would leave the parameter space."""
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


def run_sem(
    y: FilteredChain,
    F: FilterMatrix,
    em_result: EMResult,
    sem_tol: float = 1e-6,
    max_iter: int = 100_000,
    theta_init=None,
) -> SemResult:
    """Full covariance pipeline at the EM estimate: complete-data information
    from the final expected counts, the forced-iteration Jacobian, and the
    observed covariance with its symmetry diagnostic."""
    theta_hat = em_result.theta_hat
    info = complete_info(em_result.expected_counts, theta_hat)
    vc = v_com(info)
    if theta_init is None:
        theta_init = default_sem_start(theta_hat, vc, y.space.k)
    m1, converged = sem_m1(y, F, theta_hat, theta_init, sem_tol, max_iter)
    raw_v, _raw_dv = v_obs(vc, m1)
    asym = symmetry_diagnostic(raw_v)
    v_sym = 0.5 * (raw_v + raw_v.T)
    return SemResult(
        m1=m1,
        v_com=vc,
        v_obs=v_sym,
        delta_v=v_sym - vc,
        asymmetry=asym,
        converged_rows=converged,
    )
