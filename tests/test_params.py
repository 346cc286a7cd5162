"""The one reader of parameters: every entry point that takes a parameter
refuses one built for another number of states, whatever its kind, with
the same message, and probabilities that ``TransitionMatrix`` refuses,
with its message."""

import numpy as np
import pytest

from markovfilter import (
    FilterMatrix,
    TransitionMatrix,
    apply_filter,
    distinguishability_check,
    e_step,
    em_jacobian,
    enumerate_completions,
    observed_loglik,
    oracle_expected_counts,
    oracle_observed_likelihood,
    run_em,
    simulate_chain,
    split_p,
)
from markovfilter.sem import sem_m1
from conftest import BENCH_FILTER, BENCH_PROBS

P3 = TransitionMatrix.from_probs(BENCH_PROBS)
F3 = FilterMatrix(BENCH_FILTER)
#: A short bench chain, so that the oracles' enumeration stays small.
Y3 = apply_filter(simulate_chain(P3, 1, 12, 0), F3)
P2 = TransitionMatrix.from_probs([[0.4, 0.6], [0.7, 0.3]])

#: Each kind of 2-state parameter and the shape the message names.
WRONG_SIZE = {
    "TransitionMatrix": (P2, (2, 2)),
    "ParamVector": (P2.theta(), (2,)),
    "array": (np.array(P2.probs), (2, 2)),
    "vector": (np.array(P2.theta().theta), (2,)),
}

#: Each entry point, called with the wrong-size parameter ``bad`` and, where
#: it takes a second one, the right-size ``good``.
ENTRY_POINTS = {
    "e_step": lambda bad, good: e_step(Y3, bad, F3),
    "observed_loglik": lambda bad, good: observed_loglik(Y3, bad, F3),
    "run_em": lambda bad, good: run_em(Y3, F3, theta0=bad),
    "em_jacobian": lambda bad, good: em_jacobian(Y3, F3, bad),
    "split_p": lambda bad, good: split_p(bad, F3),
    "sem_m1 theta_hat": lambda bad, good: sem_m1(Y3, F3, bad, good),
    "sem_m1 theta_init": lambda bad, good: sem_m1(Y3, F3, good, bad),
    "enumerate_completions": lambda bad, good: enumerate_completions(Y3, F3, bad),
    "oracle_expected_counts": lambda bad, good: oracle_expected_counts(Y3, F3, bad),
    "oracle_observed_likelihood": lambda bad, good: oracle_observed_likelihood(Y3, F3, bad),
    "distinguishability_check theta1": lambda bad, good: distinguishability_check(F3, bad, good, 3, 1),
    "distinguishability_check theta2": lambda bad, good: distinguishability_check(F3, good, bad, 3, 1),
}


@pytest.mark.parametrize("kind", WRONG_SIZE)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_parameter_of_another_size_is_refused_with_one_message(entry, kind):
    bad, shape = WRONG_SIZE[kind]
    with pytest.raises(ValueError) as info:
        ENTRY_POINTS[entry](bad, P3.theta())
    assert str(info.value) == f"expected 6 parameters or a 3 x 3 matrix, got shape {shape}"


#: Probabilities ``TransitionMatrix`` refuses: rows summing to 16, an entry
#: below zero in a row that sums to 1, and a NaN.
WRONG_VALUE = {
    "16/3": np.full((3, 3), 16 / 3),
    "negative": BENCH_PROBS + [[-0.3, 0.3, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    "nan": np.where(np.eye(3, dtype=bool), np.nan, BENCH_PROBS),
}


@pytest.mark.parametrize("value", WRONG_VALUE)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_probabilities_a_transition_matrix_refuses_are_refused(entry, value):
    bad = WRONG_VALUE[value]
    with pytest.raises(ValueError) as expected:
        TransitionMatrix.from_probs(bad)
    with pytest.raises(ValueError) as info:
        ENTRY_POINTS[entry](bad, P3.theta())
    assert str(info.value) == str(expected.value)
