"""Property-based checks of the E-step and the observed log-likelihood
against the enumeration oracles, on random parameters, filters and chains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovfilter import (
    CompleteChain,
    FilterMatrix,
    StateSpace,
    TransitionMatrix,
    apply_filter,
    e_step,
    observed_loglik,
    oracle_expected_counts,
    oracle_observed_likelihood,
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
