"""Shared fixtures: the worked three-state example and the simulation
benchmark used across the suite."""

import numpy as np
import pytest

from markovfilter import (
    CompleteChain,
    FilterMatrix,
    ParamVector,
    StateSpace,
    TransitionMatrix,
)

#: A hand-checkable three-state chain (21 states, 20 transitions).
WORKED_CHAIN_DIGITS = "112312232123331121331"

#: Filter recording 1->1, 2->2, 3->1 and 3->2.
WORKED_FILTER = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=bool)

#: The same chain after filtering, blanks shown as underscores.
WORKED_FILTERED = "11_312232____311___31"

#: Benchmark transition matrix and filter for simulation-scale checks.
BENCH_PROBS = np.array([[0.2, 0.3, 0.5], [0.8, 0.1, 0.1], [0.7, 0.1, 0.2]])
BENCH_FILTER = np.array([[0, 1, 0], [1, 1, 0], [1, 0, 0]], dtype=bool)

#: The 5-state matrix of the benchmark's sparse case (``perfbench/run.py``),
#: each row's last entry written as 1 minus the others.
SPARSE5_PROBS = np.array([r + [1.0 - sum(r)] for r in [
    [0.15, 0.048, 0.724, 0.056],
    [0.475, 0.141, 0.154, 0.02],
    [0.26, 0.067, 0.412, 0.062],
    [0.035, 0.191, 0.1, 0.145],
    [0.14, 0.114, 0.348, 0.251],
]])


@pytest.fixture
def worked_chain() -> CompleteChain:
    return CompleteChain(tuple(int(c) for c in WORKED_CHAIN_DIGITS), StateSpace(3))


@pytest.fixture
def worked_filter() -> FilterMatrix:
    return FilterMatrix(WORKED_FILTER)


@pytest.fixture
def bench_matrix() -> TransitionMatrix:
    return TransitionMatrix.from_probs(BENCH_PROBS)


@pytest.fixture
def bench_filter() -> FilterMatrix:
    return FilterMatrix(BENCH_FILTER)


def random_interior_probs(rng: np.random.Generator, k: int, floor: float = 0.05) -> np.ndarray:
    """Row-stochastic matrix with every entry at least roughly ``floor``."""
    probs = rng.gamma(1.0, 1.0, (k, k)) + floor
    return probs / probs.sum(axis=1, keepdims=True)


def random_theta(rng: np.random.Generator, k: int, floor: float = 0.05) -> ParamVector:
    probs = random_interior_probs(rng, k, floor)
    return TransitionMatrix.from_probs(probs).theta()
