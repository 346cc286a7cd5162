"""Supplemented EM: standard errors for the EM estimate.

The EM update is a mapping M on the parameter space; near the estimate its
Jacobian M1 measures the fraction of information lost to filtering. The
observed covariance is recovered without the observed information matrix as
V_obs = V_com (I - M1)^(-1), where V_com inverts the conditional expected
complete-data information, and the variance inflation due to missingness is
dV = V_com M1 (I - M1)^(-1).

All three are taken on the free coordinates of the estimate
(``core.free_coordinates``): each row's positive entries except the last
one, the reference column r_i, which takes up p_ir = 1 - (sum of the
rest). V_com then has a closed form: block i is (diag(p_i) - p_i p_i^T) /
N_i over the row's free entries, the inverse information of a multinomial
with N_i the row total of the expected counts. M row-normalizes the counts
of EM's own E-step pass, ``em._e_pass``; it is analytic in the parameters
(matrix powers, ratios and a row normalization), so ``em_jacobian`` takes
M1 by complex step (Squire & Trapp 1998) along e_ij - e_ir: exact to
machine precision at the cost of one complex pass per free coordinate. The
results are reported in the free-parameter layout (row-major, last column
omitted), where a fixed entry has zero rows and columns and a reference
entry inside the layout the covariances implied by its row. Meng & Rubin's
(1991) forced iteration, which perturbs one coordinate at a time along the
EM sequence and takes the limit of difference ratios, stays here as
``sem_m1``, a module-level test reference that the package does not
export: the cross-check tests and the benchmark's tracer read it as
``markovfilter.sem.sem_m1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _as_probs, _normalize_rows, free_coordinates, probs_to_theta, theta_to_probs
from .em import EMResult, _e_pass
from .errors import RowNotConvergedError, SingularCovarianceError, SingularUpdateError
from .filtering import FilteredChain, FilterMatrix


@dataclass(frozen=True)
class SemResult:
    """EM-map Jacobian and the covariance decomposition built from it.

    ``v_obs`` is symmetrized; ``asymmetry`` records the max entrywise
    difference between the raw matrix and its transpose before
    symmetrization (a numerical-quality diagnostic). The matrices are in the
    free-parameter layout. ``spectral_radius`` is that of M1, the rate at
    which EM converged; ``cond`` is the condition number of I - M1 on the
    free coordinates. ``em_error`` is |(I - M1^T)^(-1) (M(theta) - theta)|
    (max norm) on the free coordinates at the estimate theta: to second
    order, how far it lies from EM's fixed point."""

    m1: np.ndarray
    v_com: np.ndarray
    v_obs: np.ndarray
    delta_v: np.ndarray
    asymmetry: float
    spectral_radius: float
    cond: float
    em_error: float


#: Complex step h: far below any rounding of the real part, while h times
#: a derivative stays a normal float.
STEP = 1e-30
#: Entries of the complex-step M1 below this are rounding. Where M1 is zero
#: in exact arithmetic (the EM map is flat in a direction, as when every
#: hidden path is forced), the complex arithmetic still leaves entries of
#: about 1e-16; a true entry this small would move V_obs by no more.
M1_FLOOR = 64 * np.finfo(float).eps


def em_jacobian(y: FilteredChain, F: FilterMatrix, theta_hat) -> np.ndarray:
    """Jacobian M1 of the EM map at ``theta_hat`` by complex step, in the
    free-parameter layout.

    The row of a free coordinate p_ij is Im M(P + i h (e_ij - e_ir)) / h,
    with h = ``STEP`` and r the row's reference column: one complex E-step
    and M-step per free coordinate, with no subtractive cancellation, so M1
    is exact to machine precision. A fixed coordinate gets a zero row, and
    entries below ``M1_FLOOR`` are set to zero."""
    k = y.space.k
    probs = _as_probs(theta_hat, k)
    free, lift = free_coordinates(probs)
    m1 = np.zeros((k * (k - 1), k * (k - 1)))
    for t, change in zip(free, lift.T):
        change = change.reshape(k, k - 1)
        step = np.hstack([change, -change.sum(axis=1, keepdims=True)]) * (STEP * 1j)
        counts = _e_pass(y.segments, probs + step, F.bits)[0]
        m1[t] = probs_to_theta(_normalize_rows(counts).imag) / STEP
    m1[np.abs(m1) < M1_FLOOR] = 0.0
    return m1


def sem_m1(
    y: FilteredChain,
    F: FilterMatrix,
    theta_hat,
    theta_init,
    sem_tol: float = 1e-6,
    max_iter: int = 100_000,
):
    """Numerical Jacobian of the EM map at the estimate via forced
    iterations (Meng & Rubin 1991), the cross-check of ``em_jacobian``.

    Let theta_t be the EM sequence started from ``theta_init``. At step t,
    coordinate i of the estimate is replaced by theta_t[i]; one EM iteration
    from that point gives a difference ratio row r_i. Row i is declared
    converged once successive ratio rows differ by less than ``sem_tol``
    (rows may converge at different t). A perturbed point whose row mass
    would reach 1 is pulled back to the midpoint between the estimate and
    the row boundary; the ratio uses the perturbation actually applied.
    Once the EM sequence hits the estimate exactly in a coordinate, that row
    is frozen at its last value.

    A row also stops when two ratios agree while its perturbation has not
    shrunk (the coordinate's EM error stalls, or settles a rounding distance
    from the estimate), and can be far off: entries of 4 where M1 is 0 have
    been seen. So this is a reference only where a test restricts its fits.

    Both parameters are read by ``core._as_probs``. Returns (m1,
    converged_rows); raises ``RowNotConvergedError`` when rows are still
    open after ``max_iter`` steps.
    """
    k = y.space.k
    theta_hat, theta_t = (probs_to_theta(_as_probs(theta, k)) for theta in (theta_hat, theta_init))
    d = k * (k - 1)

    def em_update(theta):
        counts = _e_pass(y.segments, theta_to_probs(theta, k), F.bits)[0]
        return probs_to_theta(_normalize_rows(counts))

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


def _inverse_update(m1: np.ndarray):
    """((I - M1)^(-1), cond(I - M1)).

    An eigenvalue of M1 at (or numerically at) one means some parameter
    direction carries essentially no observed information in this
    realization, so the covariance does not exist at float precision; that
    surfaces here as a singular update rather than silent garbage.
    """
    eye_minus = np.eye(m1.shape[0]) - m1
    cond = float(np.linalg.cond(eye_minus)) if m1.size else 1.0
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularUpdateError(
            "I - M1 is numerically singular: a direction of the parameter "
            "space has (numerically) no observed information"
        )
    try:
        return np.linalg.inv(eye_minus), cond
    except np.linalg.LinAlgError as err:
        raise SingularUpdateError("I - M1 is singular") from err


def symmetry_diagnostic(v: np.ndarray) -> float:
    """Max entrywise |v - v^T|; the result should be tiny for a healthy run."""
    v = np.asarray(v, dtype=float)
    return float(np.max(np.abs(v - v.T), initial=0.0))


def run_sem(y: FilteredChain, F: FilterMatrix, em_result: EMResult) -> SemResult:
    """Full covariance pipeline at the EM estimate, on its free coordinates:
    the closed-form V_com from the final expected counts, the complex-step
    Jacobian, and the observed covariance with its diagnostics, each mapped
    back to the free-parameter layout. ``em_error`` reads M(theta) as the
    row-normalized final expected counts.

    Raises ``SingularUpdateError`` when I - M1 is numerically singular, and
    ``SingularCovarianceError`` when the estimate is not a local maximum of
    the observed likelihood (EM stopped at a saddle point): M1 has spectral
    radius at least 1, or V_obs is not positive definite."""
    probs = em_result.probs
    k = probs.shape[0]
    free, lift = free_coordinates(probs)
    rows = free // (k - 1)
    p = probs_to_theta(probs)[free]
    totals = em_result.expected_counts.counts.sum(axis=1)[rows]
    vc = np.where(rows[:, None] == rows, np.diag(p) - np.outer(p, p), 0.0) / totals[:, None]
    m1 = em_jacobian(y, F, probs)
    m1_free = m1[np.ix_(free, free)]
    inv, cond = _inverse_update(m1_free)
    raw_v = vc @ inv
    v_sym = 0.5 * (raw_v + raw_v.T)
    radius = float(np.max(np.abs(np.linalg.eigvals(m1_free)), initial=0.0))
    try:
        if radius >= 1.0:
            raise np.linalg.LinAlgError(f"M1 has spectral radius {radius:.6g} >= 1")
        np.linalg.cholesky(v_sym)
    except np.linalg.LinAlgError as err:
        raise SingularCovarianceError(
            f"the estimate is not a local maximum of the observed likelihood ({err}): "
            "EM may have stopped at a saddle point; start it from another point"
        ) from err

    def lifted(v):
        return lift @ v @ lift.T

    em_step = probs_to_theta(_normalize_rows(em_result.expected_counts.counts) - probs)[free]

    return SemResult(
        m1=m1,
        v_com=lifted(vc),
        v_obs=lifted(v_sym),
        delta_v=lifted(v_sym - vc),
        asymmetry=symmetry_diagnostic(raw_v),
        spectral_radius=radius,
        cond=cond,
        em_error=float(np.max(np.abs(inv.T @ em_step), initial=0.0)),
    )
