"""EM estimation of transition probabilities from a filtered chain.

The observed data decompose into adjacent observed pairs (known transitions)
and gaps (maximal blank runs); ``FilteredChain.segments`` does that split
once per chain, and every function here works on its arrays. Conditional on
its endpoints, a gap's hidden path moves only along unrecorded transitions,
so its law is governed by powers of the matrix P0 that keeps p_ij where
f_ij = 0 and zeroes the rest.

One E-step treats all gaps together as a sum over their edges. A gap type
g = (a, nu, b) with multiplicity n_g has mass P0^nu[a, b] and weight
w_g = n_g / mass; its expected counts are P0 o w_g sum_{m < nu}
(P0^m[a, :])^T (P0^(nu-1-m)[:, b]), and a trailing gap uses the row sums
P0^(nu-1-m) 1 in place of column b. The kernel lives in
``filtering.ChainSegments``, next to the index arrays it reads: its
``gap_masses`` builds P0^0..P0^nu_max by doubling (1 + ceil(log2 nu_max)
matmuls) and reads every mass in one gather, and its ``gap_counts`` sums
all gaps in one weighted (k x S) @ (S x k) matmul, where S, the sum of the
types' lengths, counts the edges. An E-step makes O(log nu_max) numpy
calls and O(S k^2) work. ``_e_pass``, the kernel's one caller, adds the
observed pairs and the log-likelihood; EM, ``e_step``, ``observed_loglik``
and M1 in ``sem`` all step through that pass, with no second EM map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    CountMatrix,
    ParamVector,
    StateSpace,
    _as_probs,
    _normalize_rows,
    _readonly,
    probs_to_theta,
    support_mask,
)
from .errors import ConsistencyError, NonFiniteError, ZeroDenominatorError
from .filtering import ChainSegments, FilteredChain, FilterMatrix, _gaps, validate_consistency


@dataclass(frozen=True)
class SplitMatrices:
    """P split along the filter: p0 keeps unrecorded entries (f_ij = 0),
    p1 keeps recorded ones; p0 + p1 = P entrywise."""

    p0: np.ndarray
    p1: np.ndarray

    @property
    def k(self) -> int:
        return self.p0.shape[0]


@dataclass(frozen=True)
class GapSegment:
    """A maximal blank run: ``length`` transitions starting at observed state
    ``prev_state``; ``next_state`` is the observed endpoint or None when the
    chain ends inside the gap (``length`` trailing blanks)."""

    prev_state: int
    length: int
    next_state: int | None


@dataclass(frozen=True)
class EMResult:
    """``probs`` is the last M-step matrix, read-only, so an entry the
    M-step leaves at zero is exactly zero; ``theta_hat`` is its
    free-parameter vector."""

    probs: np.ndarray
    iterations: int
    converged: bool
    final_observed_loglik: float
    expected_counts: CountMatrix
    loglik_trace: tuple

    @cached_property
    def theta_hat(self) -> ParamVector:
        return ParamVector(probs_to_theta(self.probs), StateSpace(self.probs.shape[0]))


def split_p(P, F: FilterMatrix) -> SplitMatrices:
    probs = _as_probs(P, F.k)
    p1 = np.where(F.bits, probs, 0.0)
    p0 = np.where(F.bits, 0.0, probs)
    return SplitMatrices(p0=p0, p1=p1)


def unobserved_step_probs(S: SplitMatrices, nu: int) -> np.ndarray:
    """(P0)^nu: entry (i, j) is the probability of reaching j from i in nu
    steps along unrecorded transitions only; nu = 0 gives the identity."""
    if nu < 0:
        raise ValueError("step count must be nonnegative")
    return np.linalg.matrix_power(S.p0, nu)


def segment_chain(y: FilteredChain):
    """Split the pattern's transitions into adjacent observed pairs and
    gaps, in chain order; together they cover all n transitions exactly
    once."""
    codes, k = y.codes, y.space.k
    pair = (codes[:-1] != 0) & (codes[1:] != 0)
    pairs = list(zip(codes[:-1][pair].tolist(), codes[1:][pair].tolist()))
    _, a, nu, b = _gaps(codes, k)
    ends = [None if j == k else j + 1 for j in b.tolist()]
    return pairs, list(map(GapSegment, (a + 1).tolist(), nu.tolist(), ends))


def _e_pass(seg: ChainSegments, probs: np.ndarray, bits: np.ndarray) -> tuple:
    """The E-step pass: (expected counts, observed log-likelihood) at
    ``probs`` under the filter ``bits``, in the dtype of ``probs``. Raises
    ZeroDenominatorError when a gap has no unrecorded path; the
    log-likelihood is -inf when an observed pair has probability zero."""
    gaps, masses = seg.gap_counts(np.where(bits, 0.0, probs))
    counts, pair_probs = seg.pair_counts + gaps, probs.take(seg.pair_cells)
    if np.any(pair_probs.real <= 0.0):
        return counts, -np.inf
    return counts, (seg.pair_n * np.log(pair_probs)).sum() + seg.mult @ np.log(masses)


def e_step(y: FilteredChain, theta, F: FilterMatrix) -> CountMatrix:
    """Conditional expected transition counts given the pattern; observed
    pairs contribute one count each, gaps their conditional expectations.
    The total equals the number of transitions n. Raises ConsistencyError
    when no complete chain produces the pattern under ``F``."""
    validate_consistency(y, F)
    return CountMatrix(_e_pass(y.segments, _as_probs(theta, y.space.k), F.bits)[0])


def m_step(E: CountMatrix) -> ParamVector:
    """Row-normalize expected counts; raises when a state gathered no mass."""
    counts = E.counts if isinstance(E, CountMatrix) else np.asarray(E, dtype=float)
    probs = _normalize_rows(counts)
    return ParamVector(probs_to_theta(probs), StateSpace(counts.shape[0]))


def observed_loglik(y: FilteredChain, theta, F: FilterMatrix) -> float:
    """Exact log-probability of the pattern: observed pairs contribute
    log p_ab, interior gaps log of the unrecorded-path mass, trailing gaps
    log of the unrecorded continuation mass. Returns -inf when a factor
    vanishes or no complete chain produces the pattern under ``F``."""
    try:
        validate_consistency(y, F)
        return float(_e_pass(y.segments, _as_probs(theta, y.space.k), F.bits)[1])
    except (ConsistencyError, ZeroDenominatorError):
        return -np.inf


def run_em(
    y: FilteredChain,
    F: FilterMatrix,
    theta0=None,
    tol: float = 1e-12,
    max_iter: int = 100_000,
    support=None,
) -> EMResult:
    """Iterate E and M steps until the parameter max-change drops below
    ``tol``, or for ``max_iter`` M-steps. The default start is uniform over
    each row's support. The loop ends on the estimate's own E-step, which
    gives its expected counts and log-likelihood; ``loglik_trace`` holds the
    log-likelihood of every iterate (non-decreasing, up to roundoff)."""
    k = y.space.k
    mask = support_mask(support, k)
    validate_consistency(y, F, mask)
    if theta0 is None:
        probs = mask / mask.sum(axis=1, keepdims=True)
    else:
        probs = _as_probs(theta0, k)
        if np.any(probs[~mask] != 0.0):
            raise ValueError("starting point puts mass on a structural zero")

    trace = []
    converged = False
    iterations = 0
    while True:
        counts, loglik = _e_pass(y.segments, probs, F.bits)
        if not np.isfinite(loglik):
            raise NonFiniteError("observed log-likelihood is not finite")
        trace.append(float(loglik))
        if converged or iterations >= max_iter:
            break
        probs, old = _normalize_rows(counts), probs
        converged = float(np.max(np.abs(probs[:, :-1] - old[:, :-1]))) < tol
        iterations += 1

    return EMResult(
        probs=_readonly(probs, float),
        iterations=iterations,
        converged=converged,
        final_observed_loglik=trace[-1],
        expected_counts=CountMatrix(counts),
        loglik_trace=tuple(trace),
    )
