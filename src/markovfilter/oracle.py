"""Brute-force enumeration oracles.

These realize the conditional expectations and observed likelihoods by
explicit enumeration so the analytic engines can be checked against them at
desk scale. A completion of a pattern is a chain the filter maps to it, by
the filter's own rule ``filtering._revealed``; the oracles share no code
with the consistency check, so they are its ground truth. They refuse
(raise) rather than degrade when an enumeration would exceed its budget;
they are correctness instruments, not a performance path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import CompleteChain, CountMatrix, _as_probs
from .errors import BudgetExceededError, EmptyCompletionSetError
from .filtering import FilteredChain, FilterMatrix, _revealed

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class CompletionSet:
    """All complete chains matching a pattern, with their probability weights."""

    completions: tuple

    def __len__(self) -> int:
        return len(self.completions)

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, w in self.completions))


def _fills(k: int, b: int) -> np.ndarray:
    """All k**b ways to fill b positions with 0-based states, shape
    (k**b, b), the first position most significant."""
    return np.indices((k,) * b).reshape(b, k**b).T


def _completions(y: FilteredChain, F: FilterMatrix, P, budget: int):
    """(chains, weights) of ``enumerate_completions``: the completions as
    0-based rows of an (m, n+1) array, in the order of the fills of the
    blanks, and their path probabilities. Callers add the weights one at a
    time in that order, as ``CompletionSet.total_weight`` does."""
    k = y.space.k
    probs = _as_probs(P, k)
    codes = y.codes
    blanks = np.flatnonzero(codes == 0)
    m = k**blanks.size
    if m > budget:
        raise BudgetExceededError(f"{m} candidate completions exceed the budget {budget}")
    chains = np.repeat(codes[None, :] - 1, m, axis=0)
    chains[:, blanks] = _fills(k, blanks.size)
    # a candidate matches when the filter reveals exactly the observed positions
    chains = chains[(_revealed(chains, F.bits) == (codes != 0)).all(axis=1)]
    weights = probs[chains[:, :-1], chains[:, 1:]].prod(axis=1)
    keep = weights > 0.0
    return chains[keep], weights[keep]


def enumerate_completions(
    y: FilteredChain, F: FilterMatrix, P, budget: int = DEFAULT_BUDGET
) -> CompletionSet:
    """Every chain that matches the pattern, weighted by its path probability.

    A chain matches when the filter maps it to the pattern: it agrees with
    the observed states, and the filter reveals exactly the observed
    positions. Chains of probability zero are dropped.
    """
    chains, weights = _completions(y, F, P, budget)
    return CompletionSet(
        tuple((CompleteChain._of(c, y.space), w) for c, w in zip(chains, weights.tolist()))
    )


def oracle_expected_counts(y: FilteredChain, F: FilterMatrix, P) -> CountMatrix:
    """Weight-normalized average of the transition counts over all
    completions; the definitional counterpart of the analytic E-step."""
    chains, weights = _completions(y, F, P, DEFAULT_BUDGET)
    if not weights.size:
        raise EmptyCompletionSetError("the pattern admits no completion")
    k = y.space.k
    cells = (chains[:, :-1] * k + chains[:, 1:]).ravel()
    acc = np.bincount(cells, weights=np.repeat(weights, y.n_transitions), minlength=k * k)
    return CountMatrix(acc.reshape(k, k) / sum(weights.tolist()))


def oracle_observed_likelihood(y: FilteredChain, F: FilterMatrix, P) -> float:
    """Total probability mass of the pattern: the sum of completion weights
    (zero when none exists)."""
    return float(sum(_completions(y, F, P, DEFAULT_BUDGET)[1].tolist()))


@lru_cache(maxsize=16)
def _chain_table(k: int, length: int, initial: int):
    """All k**length chains of ``length`` transitions from ``initial`` as a
    0-based index array of shape (k**length, length + 1)."""
    table = np.empty((k**length, length + 1), dtype=np.intp)
    table[:, 0] = initial - 1
    table[:, 1:] = _fills(k, length)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _pattern_ids(k: int, length: int, initial: int, bits_bytes: bytes):
    """Group the enumerated chains by their filtered pattern; returns the
    group index of every chain."""
    bits = np.frombuffer(bits_bytes, dtype=bool).reshape(k, k)
    table = _chain_table(k, length, initial)
    encoded = np.where(_revealed(table, bits), table + 1, 0).astype(np.int8)
    _, ids = np.unique(encoded, axis=0, return_inverse=True)
    ids = np.ascontiguousarray(ids.reshape(-1))
    ids.setflags(write=False)
    return ids


def distinguishability_check(
    F: FilterMatrix,
    theta1,
    theta2,
    length: int,
    initial: int,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Total-variation distance between the filtered-pattern distributions
    induced by two parameter values, by full enumeration of all chains of
    ``length`` transitions from the known initial state. A positive value
    certifies that the filter separates the two parameters at this length."""
    k = F.k
    if k**length > budget:
        raise BudgetExceededError(f"{k**length} chains exceed the budget {budget}")
    if not 1 <= initial <= k:
        raise ValueError(f"initial state {initial} outside 1..{k}")

    p1 = _as_probs(theta1, k)
    p2 = _as_probs(theta2, k)
    table = _chain_table(k, length, initial)
    ids = _pattern_ids(k, length, initial, F.bits.tobytes())
    w1 = np.prod(p1[table[:, :-1], table[:, 1:]], axis=1)
    w2 = np.prod(p2[table[:, :-1], table[:, 1:]], axis=1)
    agg1 = np.bincount(ids, weights=w1)
    agg2 = np.bincount(ids, weights=w2)
    return float(0.5 * np.abs(agg1 - agg2).sum())
