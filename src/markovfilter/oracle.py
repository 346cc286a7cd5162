"""Brute-force enumeration oracles.

These realize the conditional expectations and observed likelihoods by
explicit enumeration so the analytic engines can be checked against them at
desk scale. All of them enumerate through ``_fill``, which returns every
candidate chain with its flat transition cells. A completion of a pattern is
a candidate the filter maps to it, by the filter's own rule
``filtering._revealed``; the oracles share no code with the consistency
check, so they are its ground truth. They refuse (raise
``BudgetExceededError``) rather than degrade when an enumeration would hold
more than ``BUDGET`` candidates, the one limit all four share; they are
correctness instruments, not a performance path.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import CompleteChain, CountMatrix, _as_probs
from .errors import BudgetExceededError, EmptyCompletionSetError
from .filtering import FilteredChain, FilterMatrix, _revealed

#: The most candidate chains any oracle enumerates.
BUDGET = 10**6


def _fill(codes: np.ndarray, k: int):
    """Every way to fill the blanks (code 0) of ``codes`` with states, the
    first blank most significant: (rows, cells), the k**b candidates as
    0-based rows of shape (k**b, n+1) and each row's flat transition cells
    i*k + j, shape (k**b, n), both ``intp``."""
    blanks = np.flatnonzero(codes == 0)
    m = k**blanks.size
    rows = np.repeat(codes[None, :].astype(np.intp) - 1, m, axis=0)
    rows[:, blanks] = np.indices((k,) * blanks.size).reshape(blanks.size, m).T
    return rows, rows[:, :-1] * k + rows[:, 1:]


def _completions(y: FilteredChain, F: FilterMatrix, P):
    """(chains, cells, weights): the rows and cells from ``_fill`` of the
    completions of ``enumerate_completions``, in its order, and their path
    probabilities. Callers add the weights one at a time in that order."""
    k, codes = y.space.k, y.codes
    m = k ** int(np.count_nonzero(codes == 0))
    if m > BUDGET:
        raise BudgetExceededError(f"{m} candidate completions exceed the budget {BUDGET}")
    chains, cells = _fill(codes, k)
    weights = _as_probs(P, k).ravel().take(cells).prod(axis=1)
    # a candidate matches when the filter reveals exactly the observed positions
    keep = (_revealed(chains, F.bits) == (codes != 0)).all(axis=1) & (weights > 0.0)
    return chains[keep], cells[keep], weights[keep]


def enumerate_completions(y: FilteredChain, F: FilterMatrix, P) -> tuple:
    """Every chain that matches the pattern, weighted by its path probability:
    a tuple of ``(CompleteChain, weight)`` pairs, the first blank most
    significant in their order.

    A chain matches when the filter maps it to the pattern: it agrees with
    the observed states, and the filter reveals exactly the observed
    positions. Chains of probability zero are dropped.
    """
    chains, _, weights = _completions(y, F, P)
    return tuple((CompleteChain._of(c, y.space), w) for c, w in zip(chains, weights.tolist()))


def oracle_expected_counts(y: FilteredChain, F: FilterMatrix, P) -> CountMatrix:
    """Weight-normalized average of the transition counts over all
    completions; the definitional counterpart of the analytic E-step."""
    _, cells, weights = _completions(y, F, P)
    if not weights.size:
        raise EmptyCompletionSetError("the pattern admits no completion")
    k = y.space.k
    acc = np.bincount(cells.ravel(), weights=np.repeat(weights, y.n_transitions), minlength=k * k)
    return CountMatrix(acc.reshape(k, k) / sum(weights.tolist()))


def oracle_observed_likelihood(y: FilteredChain, F: FilterMatrix, P) -> float:
    """Total probability mass of the pattern: the sum of completion weights
    (zero when none exists)."""
    return float(sum(_completions(y, F, P)[2].tolist()))


@lru_cache(maxsize=16)
def _chain_table(k: int, length: int, initial: int):
    """``_fill`` of ``initial`` followed by ``length`` blanks: all k**length
    chains of ``length`` transitions from ``initial``, read-only."""
    table = _fill(np.array([initial] + [0] * length), k)
    for part in table:
        part.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _pattern_ids(k: int, length: int, initial: int, bits_bytes: bytes):
    """Group the enumerated chains by their filtered pattern, read as one
    base-(k+1) integer (digit 0 a blank, i + 1 state i); returns the group
    index of every chain, the groups in increasing order of that integer."""
    bits = np.frombuffer(bits_bytes, dtype=bool).reshape(k, k)
    rows = _chain_table(k, length, initial)[0]
    digits = np.where(_revealed(rows, bits), rows + 1, 0)
    ids = np.unique(np.ravel_multi_index(digits.T, (k + 1,) * (length + 1)), return_inverse=True)[1]
    ids.setflags(write=False)
    return ids


def distinguishability_check(F: FilterMatrix, theta1, theta2, length: int, initial: int) -> float:
    """Total-variation distance between the filtered-pattern distributions
    induced by two parameter values, by full enumeration of all chains of
    ``length`` transitions from the known initial state. A positive value
    certifies that the filter separates the two parameters at this length."""
    k = F.k
    if k**length > BUDGET:
        raise BudgetExceededError(f"{k**length} chains exceed the budget {BUDGET}")
    if not 1 <= initial <= k:
        raise ValueError(f"initial state {initial} outside 1..{k}")
    cells = _chain_table(k, length, initial)[1]
    ids = _pattern_ids(k, length, initial, F.bits.tobytes())
    w1, w2 = (_as_probs(theta, k).ravel().take(cells).prod(axis=1) for theta in (theta1, theta2))
    return float(0.5 * np.abs(np.bincount(ids, weights=w1) - np.bincount(ids, weights=w2)).sum())
