"""Property-based checks of the E-step, the observed log-likelihood and the
consistency check against the enumeration oracles, and of the EM fit and its
Jacobian, on random parameters, filters, supports and chains."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markovfilter import (
    CompleteChain,
    ConsistencyError,
    FilteredChain,
    FilterMatrix,
    StateSpace,
    TransitionMatrix,
    Verdict,
    apply_filter,
    complete_info,
    default_sem_start,
    e_step,
    em_jacobian,
    enumerate_completions,
    identifiability_verdict,
    m_step,
    observed_loglik,
    oracle_expected_counts,
    oracle_observed_likelihood,
    run_em,
    sem_m1,
    simulate_chain,
    v_com,
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


#: Two-state filters that record one self-loop and hide the other three
#: transitions: every coordinate loses information and EM converges at a
#: moderate rate, where the forced iteration is well posed.
ONE_SELF_LOOP = (((1, 0), (0, 0)), ((0, 0), (0, 1)))


@st.composite
def fitted_cases(draw, filters=None):
    """(y, F, fit): an interior transition matrix on k in {2, 3} states, a
    filter with a sufficient identifiability witness (or one of
    ``filters``, all of the same k), and the EM fit to the filtered image of
    a simulated chain of 200 to 800 transitions (at most 3000 EM steps)."""
    if filters is None:
        k = draw(st.integers(2, 3))
        bits = np.reshape(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k)), (k, k))
    else:
        bits = np.array(draw(st.sampled_from(filters)), dtype=bool)
        k = len(bits)
    F = FilterMatrix(bits)
    assume(identifiability_verdict(F).verdict is Verdict.SUFFICIENT_IDENTIFIABLE)
    weights = np.reshape(draw(st.lists(st.floats(0.1, 1.0), min_size=k * k, max_size=k * k)), (k, k))
    P = TransitionMatrix.from_probs(weights / weights.sum(axis=1, keepdims=True))
    y = apply_filter(simulate_chain(P, 1, draw(st.integers(200, 800)), draw(st.integers(0, 2**16))), F)
    return y, F, run_em(y, F, max_iter=3000)


def interior(fit) -> bool:
    return fit.converged and fit.probs.min() > 1e-3


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fitted_cases())
def test_complex_step_jacobian_matches_central_differences(case):
    y, F, fit = case
    assume(interior(fit))
    theta = fit.theta_hat.theta

    def em_map(t):
        return m_step(e_step(y, t, F)).theta

    h = 1e-6
    fd = np.array([(em_map(theta + h * e) - em_map(theta - h * e)) / (2 * h) for e in np.eye(theta.size)])
    np.testing.assert_allclose(em_jacobian(y, F, theta), fd, rtol=0, atol=1e-7)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(fitted_cases(ONE_SELF_LOOP))
def test_complex_step_jacobian_matches_forced_iterations(case):
    # The forced iteration is only as good as its perturbations. Where EM
    # converges fast, or a coordinate carries almost no missing information
    # of its own (M1[i, i] near 0), they reach rounding size before the
    # ratios settle and the row freezes on noise; at a rate near 1 the
    # 1e-6 ratio tolerance leaves errors of 1e-6 / (1 - rate). Those cases
    # are left out, as are three-state filters: there, even at moderate
    # rates, the forced ratios often stop while the perturbation is still
    # large enough to leave an error above 1e-4.
    y, F, fit = case
    assume(interior(fit))
    m1 = em_jacobian(y, F, fit.theta_hat)
    assume(0.3 <= np.max(np.abs(np.linalg.eigvals(m1))) <= 0.95 and np.diag(m1).min() >= 0.05)
    start = default_sem_start(fit.theta_hat, v_com(complete_info(fit.expected_counts, fit.theta_hat)), y.space.k)
    forced, _ = sem_m1(y, F, fit.theta_hat, start)
    np.testing.assert_allclose(m1, forced, rtol=0, atol=1e-4)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fitted_cases())
def test_em_log_likelihood_never_decreases(case):
    _, _, fit = case
    trace = np.array(fit.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-12 * np.abs(trace[1:]))
