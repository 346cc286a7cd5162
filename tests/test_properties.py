"""Property-based checks of the E-step, the observed log-likelihood and the
consistency check against the enumeration oracles, on random parameters,
filters, supports and chains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovfilter import (
    CompleteChain,
    ConsistencyError,
    FilteredChain,
    FilterMatrix,
    StateSpace,
    TransitionMatrix,
    apply_filter,
    e_step,
    enumerate_completions,
    observed_loglik,
    oracle_expected_counts,
    oracle_observed_likelihood,
    validate_consistency,
)


@st.composite
def filtered_cases(draw):
    """(P, F, y): an interior transition matrix on k in {2, 3, 4} states, any
    filter, and the filtered image of a chain of 1 to 6 transitions."""
    k = draw(st.integers(2, 4))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k * k, max_size=k * k))
    probs = np.reshape(weights, (k, k))
    P = TransitionMatrix.from_probs(probs / probs.sum(axis=1, keepdims=True))
    bits = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    F = FilterMatrix(np.reshape(bits, (k, k)))
    states = draw(st.lists(st.integers(1, k), min_size=2, max_size=7))
    return P, F, apply_filter(CompleteChain(tuple(states), StateSpace(k)), F)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(filtered_cases())
def test_e_step_and_loglik_match_the_oracles(case):
    P, F, y = case
    E = e_step(y, P, F)
    np.testing.assert_allclose(E.counts, oracle_expected_counts(y, F, P).counts, atol=1e-10)
    assert E.total == pytest.approx(y.n_transitions, abs=1e-10)
    expected = np.log(oracle_observed_likelihood(y, F, P))
    assert observed_loglik(y, P, F) == pytest.approx(expected, abs=1e-10)


@st.composite
def patterns(draw):
    """(P, F, support, y): k in {2, 3}, any filter, a support mask (or None)
    with P positive exactly on it, and an arbitrary pattern of 1 to 7
    transitions that starts observed."""
    k = draw(st.integers(2, 3))
    support = None
    mask = np.ones((k, k), dtype=bool)
    if draw(st.booleans()):
        mask = np.reshape(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k)), (k, k))
        mask[np.arange(k), draw(st.permutations(range(k)))] = True  # rows and columns nonempty
        support = mask
    weights = np.reshape(draw(st.lists(st.floats(0.05, 1.0), min_size=k * k, max_size=k * k)), (k, k))
    weights = weights * mask
    P = TransitionMatrix.from_probs(weights / weights.sum(axis=1, keepdims=True), mask)
    bits = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    F = FilterMatrix(np.reshape(bits, (k, k)))
    label = st.integers(1, k)
    symbols = [draw(label)] + draw(st.lists(st.none() | label, min_size=1, max_size=7))
    return P, F, support, FilteredChain(tuple(symbols), StateSpace(k))


def first_failure(symbols, bits, support):
    """(position, rule) of the first position that breaks a consistency
    rule, scanning the pattern one position at a time; None if none does."""
    k = len(bits)
    support = np.ones((k, k), dtype=bool) if support is None else support
    n = len(symbols) - 1
    for p, s in enumerate(symbols):
        if s is not None:
            left = symbols[p - 1] if p > 0 else None
            right = symbols[p + 1] if p < n else None
            if left is not None and (p == n or right is not None):
                if not bits[left - 1, s - 1] and not (right is not None and bits[s - 1, right - 1]):
                    return p, "observed position has no recorded adjacent transition"
            if right is not None and not support[s - 1, right - 1]:
                return p, "observed transition off the support"
        elif symbols[p - 1] is not None:  # the first blank of a gap
            end = next((q for q in range(p + 1, n + 1) if symbols[q] is not None), None)
            reached = {symbols[p - 1] - 1}
            for _ in range((n if end is None else end) - (p - 1)):
                reached = {j for i in reached for j in range(k) if support[i, j] and not bits[i, j]}
            if end is None and not reached:
                return p, "trailing blanks admit no unrecorded continuation"
            if end is not None and symbols[end] - 1 not in reached:
                return p, "no unrecorded path of the gap's length"
    return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(patterns())
def test_validation_accepts_exactly_the_completable_patterns(case):
    P, F, support, y = case
    expected = first_failure(y.symbols, F.bits, support)
    try:
        validate_consistency(y, F, support)
    except ConsistencyError as err:
        assert (err.position, err.rule) == expected
        assert len(enumerate_completions(y, F, P)) == 0
    else:
        assert expected is None
        assert len(enumerate_completions(y, F, P)) > 0
