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
P0^(nu-1-m) 1 in place of column b. The powers P0^0..P0^nu_max come from
1 + ceil(log2 nu_max) matmuls by doubling, in one table whose last column
holds the row sums. The segmentation's index arrays then read every mass
in one gather and every edge's row and column in two more, so the counts
of all gaps are one weighted (k x S) @ (S x k) matmul, where S, the sum of
the types' lengths, counts the edges. An E-step makes O(log nu_max) numpy
calls and O(S k^2) work. The M-step row-normalizes the expected counts.
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
    if probs.shape != F.bits.shape:
        raise ValueError("matrix and filter dimensions disagree")
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


def gap_expected_counts(gap: GapSegment, S: SplitMatrices) -> CountMatrix:
    """Conditional expected counts of each transition inside one gap.

    For an interior gap (a, nu, b) and edge index m, a move alpha -> beta
    contributes P0^m[a, alpha] * P0[alpha, beta] * P0^(nu-1-m)[beta, b]
    over P0^nu[a, b]; trailing gaps replace the b-column with row sums.
    """
    end = gap.next_state
    seg = ChainSegments(
        S.k, np.zeros((S.k, S.k)), [gap.prev_state - 1], [gap.length],
        [S.k if end is None else end - 1], [1.0], [0],
    )
    return CountMatrix(_gap_counts(seg, S.p0)[0])


def _masses(seg: ChainSegments, p0: np.ndarray):
    """(the power table of ``p0``, each gap type's mass read from it:
    P0^nu[a, b], or the row sum of P0^nu[a] for a trailing gap)."""
    table = seg.power_table(p0)
    return table, table.take(seg.mass_cells)


def _gap_counts(seg: ChainSegments, p0: np.ndarray):
    """(expected counts inside all gaps, gap masses) at the unrecorded part
    ``p0``; raises when a gap has no unrecorded path. Any dtype of ``p0``
    works (a complex one gives the complex-step Jacobian in ``sem``); the
    check reads the real part of the masses."""
    table, masses = _masses(seg, p0)
    bad = np.flatnonzero(masses.real <= 0.0)
    if bad.size:
        i = bad[0]
        what, end = ("continuation", "") if seg.b[i] == seg.k else ("path", f" to state {seg.b[i] + 1}")
        raise ZeroDenominatorError(
            f"no unrecorded {what} of length {seg.nu[i]} from state {seg.a[i] + 1}{end}"
        )
    w = (seg.mult / masses).take(seg.edge_type)
    return p0 * ((table.take(seg.left).T * w) @ table.take(seg.right)), masses


def _expected_counts(seg: ChainSegments, probs: np.ndarray, bits: np.ndarray):
    """(expected counts, observed log-likelihood) at the given parameters."""
    counts, masses = _gap_counts(seg, np.where(bits, 0.0, probs))
    return seg.pair_counts + counts, _loglik(seg, probs, bits, masses)


def _loglik(seg: ChainSegments, probs: np.ndarray, bits: np.ndarray, masses=None) -> float:
    """Observed log-likelihood only, from the gap ``masses`` when given;
    -inf instead of an error when a factor vanishes."""
    if masses is None:
        masses = _masses(seg, np.where(bits, 0.0, probs))[1]
    pair_probs = probs.take(seg.pair_cells)
    if np.any(pair_probs <= 0.0) or np.any(masses <= 0.0):
        return -np.inf
    pairs = (seg.pair_n * np.log(pair_probs)).sum()
    return float(pairs) + float(seg.mult @ np.log(masses))


def _em_update(seg: ChainSegments, probs: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The EM map alone, without the log-likelihood; complex ``probs``
    give complex next probabilities."""
    return _normalize_rows(seg.pair_counts + _gap_counts(seg, np.where(bits, 0.0, probs))[0])


def e_step(y: FilteredChain, theta, F: FilterMatrix) -> CountMatrix:
    """Conditional expected transition counts given the pattern; observed
    pairs contribute one count each, gaps their conditional expectations.
    The total equals the number of transitions n. Raises ConsistencyError
    when no complete chain produces the pattern under ``F``."""
    validate_consistency(y, F)
    counts, _ = _expected_counts(y.segments, _as_probs(theta, y.space.k), F.bits)
    return CountMatrix(counts)


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
    except ConsistencyError:
        return -np.inf
    return _loglik(y.segments, _as_probs(theta, y.space.k), F.bits)


def run_em(
    y: FilteredChain,
    F: FilterMatrix,
    theta0=None,
    tol: float = 1e-12,
    max_iter: int = 100_000,
    support=None,
) -> EMResult:
    """Iterate E and M steps until the parameter max-change drops below
    ``tol``. The default start is uniform over each row's support. The
    returned expected counts and log-likelihood are evaluated at the
    estimate itself, and ``loglik_trace`` holds the log-likelihood of every
    iterate (non-decreasing, up to roundoff)."""
    k = y.space.k
    if F.k != k:
        raise ValueError("filter and pattern dimensions disagree")
    mask = support_mask(support, k)
    validate_consistency(y, F, mask)
    seg = y.segments
    if theta0 is None:
        probs = np.full((k, k), 1.0 / k) if mask is None else mask / mask.sum(axis=1, keepdims=True)
    else:
        probs = _as_probs(theta0, k)
        if mask is not None and np.any(probs[~mask] != 0.0):
            raise ValueError("starting point puts mass on a structural zero")

    trace = []
    converged = False
    iterations = 0
    for _ in range(max_iter):
        counts, loglik = _expected_counts(seg, probs, F.bits)
        new_probs = _normalize_rows(counts)
        if not np.isfinite(loglik):
            raise NonFiniteError("observed log-likelihood is not finite")
        trace.append(loglik)
        iterations += 1
        delta = float(np.max(np.abs(new_probs[:, :-1] - probs[:, :-1])))
        probs = new_probs
        if delta < tol:
            converged = True
            break

    counts_hat, loglik_hat = _expected_counts(seg, probs, F.bits)
    if not np.isfinite(loglik_hat):
        raise NonFiniteError("observed log-likelihood is not finite")
    trace.append(loglik_hat)
    return EMResult(
        probs=_readonly(probs, float),
        iterations=iterations,
        converged=converged,
        final_observed_loglik=loglik_hat,
        expected_counts=CountMatrix(counts_hat),
        loglik_trace=tuple(trace),
    )
