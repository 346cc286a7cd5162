"""Hypothesis tests and confidence intervals from the asymptotic normal
approximation theta_hat ~ N(theta, V_obs)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import _as_theta
from .errors import NonPositiveVarianceError, SingularCovarianceError

@dataclass(frozen=True)
class TestReport:
    """What a test measures: its ``statistic``, the chi-square degrees of
    freedom ``df`` (None for a z statistic) and the ``p_value``. A test
    rejects at level alpha exactly when ``p_value < alpha``."""

    statistic: float
    df: int | None
    p_value: float


def chi_square_sf(df: int, x: float) -> float:
    """P(X > x) for X chi-square with integer ``df`` >= 1, in closed form.

    With h = x/2, even df give e^(-h) sum_(j < df/2) h^j / j!, and odd df
    give erfc(sqrt(h)) + e^(-h) sum_(j < (df-1)/2) h^(j+1/2) / Gamma(j+3/2).
    The terms are summed in log space, so the far tail neither underflows
    early nor loses relative accuracy."""
    if x <= 0.0:
        return 1.0
    half = 0.5 * x
    log_half = math.log(half)
    offset = df % 2 * 0.5
    logs = [(j + offset) * log_half - half - math.lgamma(j + offset + 1.0) for j in range(df // 2)]
    if offset:
        tail = math.erfc(math.sqrt(half))
        if tail > 0.0:
            logs.append(math.log(tail))
    if not logs:
        return 0.0
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


def chi_square_test(theta_hat, theta0, v_obs) -> TestReport:
    """Quadratic-form test of theta = theta0 with covariance ``v_obs``; the
    statistic (theta_hat - theta0)' v_obs^(-1) (theta_hat - theta0) is
    referred to chi-square with as many degrees of freedom as coordinates
    are passed. Pass the free coordinates (``core.free_coordinates``) to get
    the number of free parameters, which is below k^2 - k when P has
    structural zeros."""
    diff = _as_theta(theta_hat) - _as_theta(theta0)
    v = np.asarray(v_obs, dtype=float)
    if v.shape != (diff.size, diff.size):
        raise ValueError("covariance shape disagrees with the parameter vector")
    v = 0.5 * (v + v.T)
    try:
        chol = np.linalg.cholesky(v)
    except np.linalg.LinAlgError as err:
        raise SingularCovarianceError("covariance is not positive definite") from err
    white = np.linalg.solve(chol, diff)  # L^(-1) diff, so stat = |white|^2
    stat = float(white @ white)
    return TestReport(statistic=stat, df=diff.size, p_value=chi_square_sf(diff.size, stat))


def _check_variance(s_ii) -> None:
    """Raise NonPositiveVarianceError unless the variance ``s_ii`` is positive."""
    if not s_ii > 0:
        raise NonPositiveVarianceError(f"variance {float(s_ii)!r} must be positive")


def z_test(theta_i: float, theta_i0: float, s_ii: float) -> TestReport:
    """Per-parameter test: tau = (theta_hat_i - theta_i0) / sqrt(s_ii) is
    standard normal under the null; two-sided p-value."""
    _check_variance(s_ii)
    tau = (float(theta_i) - float(theta_i0)) / float(np.sqrt(s_ii))
    p = math.erfc(abs(tau) / math.sqrt(2.0))  # two-sided normal tail, accurate far out
    return TestReport(statistic=tau, df=None, p_value=p)


def _check_alpha(alpha: float) -> None:
    """Raise ValueError unless the level ``alpha`` lies strictly between 0 and 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")


def confidence_interval(theta_i: float, s_ii: float, alpha: float):
    """Two-sided (1 - alpha) interval theta_hat_i +/- sqrt(s_ii) z_{alpha/2}."""
    _check_variance(s_ii)
    _check_alpha(alpha)
    half = float(np.sqrt(s_ii) * NormalDist().inv_cdf(1.0 - alpha / 2.0))
    return float(theta_i) - half, float(theta_i) + half
