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
and M1 in ``sem`` all step through that pass, with no second EM map. The
kernel and the pass also take a (..., k, k) stack of parameter points,
each slice giving exactly what it gives alone, so M1 takes all its
complex steps in one stacked pass.

Filtering hides information, so plain EM converges slowly (M1's spectral
radius reaches 0.98 on sparse filters; Dempster, Laird & Rubin 1977).
``run_em`` iterates SQUAREM cycles over the same pass instead, with plain
EM steps only as their fallback.
"""

from __future__ import annotations

import math
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
from .errors import ConsistencyError, NonFiniteError, ZeroDenominatorError, ZeroRowTotalError
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
    free-parameter vector. ``iterations`` counts accepted iterates (SQUAREM
    cycles, each about three E-step passes), ``e_steps`` the E-step passes
    the fit made, and ``loglik_trace`` holds the log-likelihood of the start
    and of every accepted iterate."""

    probs: np.ndarray
    iterations: int
    e_steps: int
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
    ``probs`` under the filter ``bits``, in the dtype of ``probs``, a k x k
    matrix or a (..., k, k) stack of them, each slice giving exactly what
    it gives alone. Raises ZeroDenominatorError when a gap has no
    unrecorded path; the log-likelihood is -inf when an observed pair has
    probability zero (for a stack, in any slice)."""
    gaps, masses = seg.gap_counts(np.where(bits, 0.0, probs))
    counts = seg.pair_counts + gaps
    pair_probs = probs.reshape(probs.shape[:-2] + (-1,)).take(seg.pair_cells, axis=-1)
    if pair_probs.real.min(initial=np.inf) <= 0.0:
        return counts, -np.inf
    # (1 x T) @ (T x 1) per slice is the dot product of a single pass; (..., T) @ (T,) rounds otherwise
    gaps_loglik = (np.log(masses)[..., None, :] @ seg.mult[:, None])[..., 0, 0]
    return counts, (seg.pair_n * np.log(pair_probs)).sum(axis=-1) + gaps_loglik


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
    """EM accelerated by SQUAREM cycles (Varadhan & Roland 2008, step length
    S3), until a plain EM step from the current iterate moves no coordinate
    by ``tol`` or more, or for ``max_iter`` accepted iterates. The default
    start is uniform over each row's support.

    A cycle from the iterate p0 takes two EM steps p1 = M(p0) and
    p2 = M(p1), extrapolates to p0 - 2a r + a^2 v with r = p1 - p0,
    v = p2 - 2 p1 + p0 and a = -max(1, |r| / |v|), and takes one EM step
    from there. It keeps the plain double step p2 instead when the
    extrapolation leaves the simplex or the stabilised point's
    log-likelihood falls below that of p1, so the log-likelihood never
    decreases (up to roundoff); the converging cycle keeps its plain step
    p1. Structural zeros stay exactly zero, since r and v vanish there.

    The loop ends on the estimate's own E-step pass, which gives its
    expected counts and log-likelihood. ``loglik_trace`` holds the
    log-likelihood of the start and of every accepted iterate,
    ``iterations + 1`` values, and ``e_steps`` counts the passes made."""
    k = y.space.k
    mask = support_mask(support, k)
    validate_consistency(y, F, mask)
    if theta0 is None:
        probs = mask / mask.sum(axis=1, keepdims=True)
    else:
        probs = _as_probs(theta0, k)
        if np.any(probs[~mask] != 0.0):
            raise ValueError("starting point puts mass on a structural zero")

    e_steps = 0

    def e_pass(at):
        nonlocal e_steps
        e_steps += 1
        return _e_pass(y.segments, at, F.bits)

    def extrapolated(p0, p1, p2, floor):
        """(p3, its counts, its log-likelihood) for p3 one EM step from the
        S3 extrapolation, or None when the extrapolation leaves the simplex,
        its pass fails or p3's log-likelihood is below ``floor``."""
        r, v = p1 - p0, p2 - 2.0 * p1 + p0
        rr, vv = r.ravel(), v.ravel()
        norm_v = math.sqrt(vv.dot(vv))  # np.linalg.norm's number, without its wrapper
        a = -max(1.0, math.sqrt(rr.dot(rr)) / norm_v) if norm_v > 0.0 else -1.0
        jump = p0 - 2.0 * a * r + a * a * v
        if not jump.min() >= 0.0:
            return None
        try:
            p3 = _normalize_rows(e_pass(jump)[0])
            counts, loglik = e_pass(p3)
        except (ZeroDenominatorError, ZeroRowTotalError):
            return None
        return (p3, counts, loglik) if loglik >= floor else None

    counts, loglik = e_pass(probs)
    trace = []
    converged = False
    iterations = 0
    while True:
        if not np.isfinite(loglik):
            raise NonFiniteError("observed log-likelihood is not finite")
        trace.append(float(loglik))
        if converged or iterations >= max_iter:
            break
        p1 = _normalize_rows(counts)
        converged = float(np.max(np.abs(p1[:, :-1] - probs[:, :-1]))) < tol
        counts1, loglik1 = e_pass(p1)
        step = p1, counts1, loglik1
        if not converged:
            p2 = _normalize_rows(counts1)
            step = extrapolated(probs, p1, p2, loglik1) or (p2, *e_pass(p2))
        probs, counts, loglik = step
        iterations += 1

    return EMResult(
        probs=_readonly(probs, float),
        iterations=iterations,
        e_steps=e_steps,
        converged=converged,
        final_observed_loglik=trace[-1],
        expected_counts=CountMatrix(counts),
        loglik_trace=tuple(trace),
    )
