"""Brute-force enumeration oracles.

These realize the conditional expectations and observed likelihoods by
explicit enumeration so the analytic engines can be checked against them at
desk scale. They refuse (raise) rather than degrade when an enumeration
would exceed its budget; they are correctness instruments, not a
performance path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import CompleteChain, CountMatrix, StateSpace
from .em import _as_probs
from .errors import BudgetExceededError, EmptyCompletionSetError
from .filtering import FilteredChain, FilterMatrix, _coverage_failure

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


def enumerate_completions(
    y: FilteredChain, F: FilterMatrix, P, budget: int = DEFAULT_BUDGET
) -> CompletionSet:
    """Every chain that matches the pattern, weighted by its path probability.

    A chain matches when it agrees with the observed states, keeps every
    blank position blank under the filter, and the pattern's observed
    positions away from blanks are themselves explainable (position 0 or a
    recorded adjacent transition). Chains of probability zero are dropped.
    """
    k = y.space.k
    probs = _as_probs(P, k)
    bits = F.bits
    sym = y.symbols
    blanks = [p for p, s in enumerate(sym) if s is None]
    if k ** len(blanks) > budget:
        raise BudgetExceededError(
            f"{k ** len(blanks)} candidate completions exceed the budget {budget}"
        )
    if _coverage_failure(y, F) is not None:
        return CompletionSet(())

    last = len(sym) - 1
    template = [0 if s is None else s for s in sym]
    space = StateSpace(k)
    found = []
    for fill in itertools.product(range(1, k + 1), repeat=len(blanks)):
        states = template.copy()
        for p, s in zip(blanks, fill):
            states[p] = s
        ok = True
        for p in blanks:
            if bits[states[p - 1] - 1, states[p] - 1]:
                ok = False
                break
            if p < last and bits[states[p] - 1, states[p + 1] - 1]:
                ok = False
                break
        if not ok:
            continue
        idx = np.asarray(states, dtype=np.intp) - 1
        weight = float(np.prod(probs[idx[:-1], idx[1:]]))
        if weight > 0.0:
            found.append((CompleteChain._of(idx, space), weight))
    return CompletionSet(tuple(found))


def oracle_expected_counts(y: FilteredChain, F: FilterMatrix, P) -> CountMatrix:
    """Weight-normalized average of the transition counts over all
    completions; the definitional counterpart of the analytic E-step."""
    cs = enumerate_completions(y, F, P)
    if len(cs) == 0:
        raise EmptyCompletionSetError("the pattern admits no completion")
    k = y.space.k
    acc = np.zeros((k, k))
    total = 0.0
    for chain, weight in cs.completions:
        idx = chain.as_indices()
        np.add.at(acc, (idx[:-1], idx[1:]), weight)
        total += weight
    return CountMatrix(acc / total)


def oracle_observed_likelihood(y: FilteredChain, F: FilterMatrix, P) -> float:
    """Total probability mass of the pattern: the sum of completion weights
    (zero when none exists)."""
    cs = enumerate_completions(y, F, P)
    return cs.total_weight


@lru_cache(maxsize=16)
def _chain_table(k: int, length: int, initial: int):
    """All k**length chains of ``length`` transitions from ``initial`` as a
    0-based index array of shape (k**length, length + 1)."""
    m = k**length
    table = np.empty((m, length + 1), dtype=np.intp)
    table[:, 0] = initial - 1
    grids = np.meshgrid(*([np.arange(k)] * length), indexing="ij")
    for t, g in enumerate(grids):
        table[:, t + 1] = g.reshape(-1)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _pattern_ids(k: int, length: int, initial: int, bits_bytes: bytes):
    """Group the enumerated chains by their filtered pattern; returns the
    group index of every chain."""
    bits = np.frombuffer(bits_bytes, dtype=bool).reshape(k, k)
    table = _chain_table(k, length, initial)
    rec = bits[table[:, :-1], table[:, 1:]]
    observed = np.zeros(table.shape, dtype=bool)
    observed[:, 0] = True
    observed[:, 1:] |= rec
    observed[:, :-1] |= rec
    encoded = np.where(observed, table + 1, 0).astype(np.int8)
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
