"""Enumeration oracles: completions, definitional expectations, and the
pattern-distribution separation check."""

import itertools

import numpy as np
import pytest

from markovfilter import (
    BudgetExceededError,
    CompleteChain,
    EmptyCompletionSetError,
    FilteredChain,
    FilterMatrix,
    StateSpace,
    TransitionMatrix,
    apply_filter,
    distinguishability_check,
    enumerate_completions,
    oracle_expected_counts,
    oracle_observed_likelihood,
    transition_counts,
)
from conftest import random_interior_probs, random_theta

F_DIAG = FilterMatrix(np.array([[1, 0], [0, 1]]))


@pytest.fixture
def p_two_state():
    return TransitionMatrix.from_probs([[0.7, 0.3], [0.4, 0.6]])


class TestEnumerate:
    def test_forced_gap_has_one_completion(self, p_two_state):
        y = FilteredChain((1, None, 1, 1), StateSpace(2))
        cs = enumerate_completions(y, F_DIAG, p_two_state)
        assert len(cs) == 1
        chain, weight = cs.completions[0]
        assert chain.states == (1, 2, 1, 1)
        assert weight == pytest.approx(0.3 * 0.4 * 0.7)
        # (1, 2, 1) filters to 1 - -: no chain reveals the last 1 of 1 - 1
        y = FilteredChain((1, None, 1), StateSpace(2))
        assert len(enumerate_completions(y, F_DIAG, p_two_state)) == 0

    def test_no_blanks_single_completion(self, p_two_state):
        y = FilteredChain((1, 1, 2), StateSpace(2))
        cs = enumerate_completions(y, FilterMatrix.all_ones(2), p_two_state)
        assert len(cs) == 1
        assert cs.completions[0][0].states == (1, 1, 2)

    def test_inconsistent_pattern_is_empty(self, p_two_state):
        y = FilteredChain((1, 2), StateSpace(2))
        assert len(enumerate_completions(y, F_DIAG, p_two_state)) == 0

    def test_budget_is_enforced(self, p_two_state):
        symbols = (1,) + (None,) * 25
        y = FilteredChain(symbols, StateSpace(2))
        with pytest.raises(BudgetExceededError):
            enumerate_completions(y, F_DIAG, p_two_state, budget=1000)

    def test_every_completion_matches_observed_positions(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(2, 4))
            P = TransitionMatrix.from_probs(random_interior_probs(rng, k))
            F = FilterMatrix(rng.random((k, k)) < 0.5)
            states = tuple(int(s) for s in rng.integers(1, k + 1, 7))
            y = apply_filter(CompleteChain(states, StateSpace(k)), F)
            cs = enumerate_completions(y, F, P)
            assert len(cs) >= 1  # the generating chain itself matches
            for chain, weight in cs.completions:
                assert weight > 0
                for pos, sym in enumerate(y.symbols):
                    if sym is not None:
                        assert chain.states[pos] == sym


def loop_completions(y, F, probs, budget):
    """Reference enumeration, one candidate fill at a time: the chains (as
    state tuples) and weights that ``enumerate_completions`` must return,
    in the same order."""
    k = y.space.k
    sym = y.symbols
    blanks = [p for p, s in enumerate(sym) if s is None]
    if k ** len(blanks) > budget:
        raise BudgetExceededError("over budget")
    last = len(sym) - 1
    observed = [s is not None for s in sym]
    template = [0 if s is None else s for s in sym]
    found = []
    for fill in itertools.product(range(1, k + 1), repeat=len(blanks)):
        states = template.copy()
        for p, s in zip(blanks, fill):
            states[p] = s
        # the filter must reveal exactly the observed positions
        rec = [bool(F.bits[i - 1, j - 1]) for i, j in zip(states, states[1:])]
        revealed = [p == 0 or rec[p - 1] or (p < last and rec[p]) for p in range(last + 1)]
        if revealed != observed:
            continue
        idx = np.asarray(states, dtype=np.intp) - 1
        weight = float(np.prod(probs[idx[:-1], idx[1:]]))
        if weight > 0.0:
            found.append((tuple(states), weight))
    return found


class TestAgainstTheLoop:
    def test_same_completions_order_weights_and_budget(self):
        rng = np.random.default_rng(41)
        consistent = inconsistent = over_budget = 0
        for case in range(320):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(1, 8))
            probs = random_interior_probs(rng, k)
            probs[rng.random((k, k)) < 0.15] = 0.0  # some zero-weight paths
            probs[:, 0] += probs.sum(axis=1) == 0.0
            probs /= probs.sum(axis=1, keepdims=True)
            F = FilterMatrix(rng.random((k, k)) < rng.uniform(0.1, 0.9))
            if case % 2:  # a pattern some chain produces
                states = tuple(int(s) for s in rng.integers(1, k + 1, n + 1))
                y = apply_filter(CompleteChain(states, StateSpace(k)), F)
            else:  # any symbols, mostly inconsistent
                codes = rng.integers(0, k + 1, n + 1)
                codes[0] = rng.integers(1, k + 1)
                y = FilteredChain.from_codes(codes, StateSpace(k))
            budget = int(rng.choice([4, 30, 10**4]))
            try:
                want = loop_completions(y, F, probs, budget)
            except BudgetExceededError:
                over_budget += 1
                with pytest.raises(BudgetExceededError):
                    enumerate_completions(y, F, probs, budget)
                continue
            got = enumerate_completions(y, F, probs, budget).completions
            assert [c.states for c, _ in got] == [c for c, _ in want]
            np.testing.assert_allclose([w for _, w in got], [w for _, w in want], rtol=1e-15, atol=0)
            if want:
                consistent += 1
            else:
                inconsistent += 1
        assert min(consistent, inconsistent, over_budget) >= 20


class TestOracleExpectations:
    def test_forced_gap_counts(self, p_two_state):
        y = FilteredChain((1, None, 1, 1), StateSpace(2))
        counts = oracle_expected_counts(y, F_DIAG, p_two_state).counts
        np.testing.assert_allclose(counts, [[1.0, 1.0], [1.0, 0.0]], atol=1e-15)
        with pytest.raises(EmptyCompletionSetError):
            oracle_expected_counts(FilteredChain((1, None, 1), StateSpace(2)), F_DIAG, p_two_state)

    def test_full_observation_recovers_counts(self, p_two_state):
        chain = CompleteChain((1, 2, 2, 1), StateSpace(2))
        y = apply_filter(chain, FilterMatrix.all_ones(2))
        counts = oracle_expected_counts(y, FilterMatrix.all_ones(2), p_two_state)
        np.testing.assert_array_equal(counts.counts, transition_counts(chain).counts)

    def test_empty_set_raises(self, p_two_state):
        y = FilteredChain((1, 2), StateSpace(2))
        with pytest.raises(EmptyCompletionSetError):
            oracle_expected_counts(y, F_DIAG, p_two_state)


class TestOracleLikelihood:
    def test_forced_gap_weight(self, p_two_state):
        y = FilteredChain((1, None, 1, 1), StateSpace(2))
        assert oracle_observed_likelihood(y, F_DIAG, p_two_state) == pytest.approx(0.084)
        y = FilteredChain((1, None, 1), StateSpace(2))
        assert oracle_observed_likelihood(y, F_DIAG, p_two_state) == 0.0

    def test_full_observation_is_the_path_probability(self, p_two_state):
        y = FilteredChain((1, 2, 2, 1), StateSpace(2))
        got = oracle_observed_likelihood(y, FilterMatrix.all_ones(2), p_two_state)
        assert got == pytest.approx(0.3 * 0.6 * 0.4)

    def test_inconsistent_pattern_has_zero_mass(self, p_two_state):
        y = FilteredChain((1, 2), StateSpace(2))
        assert oracle_observed_likelihood(y, F_DIAG, p_two_state) == 0.0

    def test_realized_patterns_partition_unity(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            k = int(rng.integers(2, 4))
            length = int(rng.integers(2, 6))
            P = TransitionMatrix.from_probs(random_interior_probs(rng, k))
            F = FilterMatrix(rng.random((k, k)) < 0.5)
            initial = int(rng.integers(1, k + 1))
            patterns = {}
            for tail in itertools.product(range(1, k + 1), repeat=length):
                chain = CompleteChain((initial,) + tail, StateSpace(k))
                y = apply_filter(chain, F)
                patterns[y.symbols] = y
            total = sum(
                oracle_observed_likelihood(y, F, P) for y in patterns.values()
            )
            assert total == pytest.approx(1.0, abs=1e-10)


class TestSeparation:
    def test_identical_parameters_give_zero(self, bench_filter):
        theta = random_theta(np.random.default_rng(0), 3)
        assert distinguishability_check(bench_filter, theta, theta, 6, 1) == 0.0

    def test_blank_everything_gives_zero_for_swapped_rows(self):
        F = FilterMatrix.all_zeros(3)
        t1 = TransitionMatrix.from_probs(
            [[0.2, 0.3, 0.5], [0.8, 0.1, 0.1], [0.7, 0.1, 0.2]]
        ).theta()
        t2 = TransitionMatrix.from_probs(
            [[0.2, 0.3, 0.5], [0.7, 0.1, 0.2], [0.8, 0.1, 0.1]]
        ).theta()
        assert distinguishability_check(F, t1, t2, 8, 1) == pytest.approx(0.0, abs=1e-12)

    def test_bench_filter_separates(self, bench_filter):
        rng = np.random.default_rng(19)
        t1, t2 = random_theta(rng, 3), random_theta(rng, 3)
        assert distinguishability_check(bench_filter, t1, t2, 8, 1) > 1e-10

    def test_budget_is_enforced(self, bench_filter):
        theta = random_theta(np.random.default_rng(0), 3)
        with pytest.raises(BudgetExceededError):
            distinguishability_check(bench_filter, theta, theta, 20, 1, budget=10**4)

    def test_distance_is_a_probability_metric(self, bench_filter):
        rng = np.random.default_rng(23)
        t1, t2 = random_theta(rng, 3), random_theta(rng, 3)
        tv = distinguishability_check(bench_filter, t1, t2, 6, 2)
        assert 0.0 <= tv <= 1.0

    def test_distance_is_half_the_gap_between_pattern_likelihoods(self):
        # pins the grouping of chains into patterns: every pattern that
        # apply_filter produces, weighed by the likelihood oracle
        rng = np.random.default_rng(31)
        cases = [
            (FilterMatrix(np.array(bits).reshape(2, 2)), 6)
            for bits in itertools.product((0, 1), repeat=4)
        ]
        cases += [(FilterMatrix(rng.random((3, 3)) < rng.uniform(0.2, 0.8)), 5) for _ in range(24)]
        for F, length in cases:
            k = F.k
            p1, p2 = random_interior_probs(rng, k), random_interior_probs(rng, k)
            for initial in range(1, k + 1):
                tails = itertools.product(range(1, k + 1), repeat=length)
                patterns = dict.fromkeys(
                    apply_filter(CompleteChain((initial,) + tail, StateSpace(k)), F) for tail in tails
                )
                want = 0.5 * sum(
                    abs(oracle_observed_likelihood(y, F, p1) - oracle_observed_likelihood(y, F, p2))
                    for y in patterns
                )
                got = distinguishability_check(F, p1, p2, length, initial)
                assert got == pytest.approx(want, abs=1e-13)
