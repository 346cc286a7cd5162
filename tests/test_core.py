"""Core types, simulation, counting, the complete-data MLE, and embedding."""

import numpy as np
import pytest

from markovfilter import (
    ChainTooShortError,
    CompleteChain,
    CountMatrix,
    ParamVector,
    StateSpace,
    TransitionMatrix,
    ZeroRowTotalError,
    complete_mle,
    decode_tuple_state,
    embed_higher_order,
    embedded_support,
    encode_tuple_state,
    free_coordinates,
    project_embedded_params,
    simulate_chain,
    transition_counts,
)
from conftest import BENCH_PROBS, random_interior_probs


class TestTypes:
    def test_state_space_requires_two_states(self):
        with pytest.raises(ValueError):
            StateSpace(1)

    def test_chain_rejects_out_of_range_state(self):
        with pytest.raises(ValueError):
            CompleteChain((1, 4), StateSpace(3))

    def test_chain_needs_two_states(self):
        with pytest.raises(ChainTooShortError):
            CompleteChain((2,), StateSpace(3))

    def test_transition_matrix_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            TransitionMatrix.from_probs([[0.5, 0.4], [0.5, 0.5]])

    def test_transition_matrix_rejects_mass_off_support(self):
        with pytest.raises(ValueError):
            TransitionMatrix.from_probs(
                [[0.5, 0.5], [0.5, 0.5]], support=[[True, False], [True, True]]
            )

    def test_support_needs_nonempty_rows_and_columns(self):
        with pytest.raises(ValueError):
            TransitionMatrix.from_probs(
                [[1.0, 0.0], [1.0, 0.0]], support=[[True, False], [True, False]]
            )

    def test_param_vector_round_trip(self):
        P = TransitionMatrix.from_probs(BENCH_PROBS)
        theta = P.theta()
        assert theta.d == 6
        back = theta.to_matrix()
        np.testing.assert_allclose(back.probs, P.probs, atol=1e-15)

    def test_param_vector_rejects_row_overflow(self):
        with pytest.raises(ValueError):
            ParamVector(np.array([0.7, 0.7, 0.1, 0.1, 0.1, 0.1]), StateSpace(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_are_rejected(self, bad):
        # NaN passes every comparison-based check, so it is refused on its own
        with pytest.raises(ValueError, match="non-finite transition probability"):
            TransitionMatrix.from_probs([[bad, bad], [0.5, 0.5]])
        with pytest.raises(ValueError, match="non-finite parameter"):
            ParamVector(np.array([0.5, bad]), StateSpace(2))

    def test_values_are_immutable(self):
        P = TransitionMatrix.from_probs(BENCH_PROBS)
        with pytest.raises(ValueError):
            P.probs[0, 0] = 0.9


class TestSimulate:
    def test_absorbing_row_stays_put(self):
        P = TransitionMatrix.from_probs([[1.0, 0.0], [0.5, 0.5]])
        chain = simulate_chain(P, initial=1, n=3, seed=11)
        assert chain.states == (1, 1, 1, 1)

    def test_deterministic_per_seed(self, bench_matrix):
        a = simulate_chain(bench_matrix, 1, 200, seed=5)
        b = simulate_chain(bench_matrix, 1, 200, seed=5)
        c = simulate_chain(bench_matrix, 1, 200, seed=6)
        assert a.states == b.states
        assert a.states != c.states

    def test_empirical_frequencies_match_rows(self, bench_matrix):
        chain = simulate_chain(bench_matrix, 1, 1000, seed=123)
        counts = transition_counts(chain).counts
        rows = counts.sum(axis=1)
        freq = counts / rows[:, None]
        p = bench_matrix.probs
        bound = 3.0 * np.sqrt(p * (1 - p) / rows[:, None])
        assert np.all(np.abs(freq - p) <= np.maximum(bound, 1e-12))

    def test_long_run_frequencies_converge(self, bench_matrix):
        chain = simulate_chain(bench_matrix, 1, 100_000, seed=2024)
        counts = transition_counts(chain).counts
        freq = counts / counts.sum(axis=1, keepdims=True)
        assert np.max(np.abs(freq - bench_matrix.probs)) < 0.02

    def test_rejects_bad_initial(self, bench_matrix):
        with pytest.raises(ValueError):
            simulate_chain(bench_matrix, 4, 10, seed=0)

    @staticmethod
    def step_by_step(P, initial, n, seed):
        """The straightforward walk: one search of the cumulative row per step."""
        k = P.k
        rng = np.random.default_rng(seed)
        cum = np.cumsum(P.probs, axis=1)
        draws = rng.random(n)
        states = np.empty(n + 1, dtype=np.intp)
        states[0] = initial - 1
        cur = initial - 1
        for t in range(n):
            cur = min(int(np.searchsorted(cum[cur], draws[t], side="right")), k - 1)
            states[t + 1] = cur
        return tuple(int(s) + 1 for s in states)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_draws_match_the_step_by_step_walk(self, k):
        # sparse rows (exact zeros) and a chain longer than one lookup block
        for seed, n in ((0, 70_000), (1, 1), (2, 777), (3, 5_000), (4, 20_000)):
            rng = np.random.default_rng([k, seed])
            probs = rng.gamma(0.4, 1.0, (k, k)) * (rng.random((k, k)) < 0.7)
            probs[np.arange(k), rng.permutation(k)] += 0.1
            P = TransitionMatrix.from_probs(probs / probs.sum(axis=1, keepdims=True))
            initial = 1 + seed % k
            chain = simulate_chain(P, initial, n, seed)
            assert chain.states == self.step_by_step(P, initial, n, seed)


class TestChainStorage:
    def test_states_are_a_read_only_index_array(self):
        chain = CompleteChain((1, 3, 2), StateSpace(3))
        np.testing.assert_array_equal(chain.as_indices(), [0, 2, 1])
        with pytest.raises(ValueError):
            chain.as_indices()[0] = 1
        assert chain.states == (1, 3, 2)
        assert len(chain) == 3 and chain.n_transitions == 2

    def test_input_array_is_copied(self):
        labels = np.array([1, 2, 2])
        chain = CompleteChain(labels, StateSpace(2))
        labels[0] = 2
        assert chain.states == (1, 2, 2)

    def test_value_semantics(self):
        a = CompleteChain((1, 2, 2), StateSpace(2))
        assert a == CompleteChain(np.array([1, 2, 2]), StateSpace(2))
        assert a != CompleteChain((1, 2, 2), StateSpace(3))
        assert len({a, CompleteChain([1.0, 2.0, 2.0], StateSpace(2))}) == 1
        with pytest.raises(AttributeError):
            a.space = StateSpace(3)

    @pytest.mark.parametrize("bad", [0, 4, 2**63, -(10**30)])
    def test_out_of_range_names_the_position(self, bad):
        with pytest.raises(ValueError) as err:
            CompleteChain((1, 3, bad, 4), StateSpace(3))
        assert str(err.value) == f"state {bad} at position 2 outside 1..3"

    @pytest.mark.parametrize(
        "states, message",
        [
            ((1.7, 2.2, 1), "state 1.7 at position 0 is not an integer"),
            ((1, 2, np.float64(1.5)), "state 1.5 at position 2 is not an integer"),
            (np.array([1.0, 2.5]), "state 2.5 at position 1 is not an integer"),
            ((1, float("inf")), "state inf at position 1 is not an integer"),
            ((1, 2, -np.inf), "state -inf at position 2 is not an integer"),
            ((1, float("nan")), "state nan at position 1 is not an integer"),
            (np.array([2.0, np.nan]), "state nan at position 1 is not an integer"),
        ],
    )
    def test_non_integral_state_is_not_truncated(self, states, message):
        with pytest.raises(ValueError) as err:
            CompleteChain(states, StateSpace(2))
        assert str(err.value) == message

    def test_integral_spellings_are_accepted(self):
        states = (1, 2.0, np.float32(1.0), "2", " 1 ", True, np.int8(2))
        assert CompleteChain(states, StateSpace(2)).states == (1, 2, 1, 2, 1, 1, 2)


class TestCounts:
    def test_self_loop_chain(self):
        chain = CompleteChain((1, 1, 1), StateSpace(2))
        counts = transition_counts(chain).counts
        assert counts[0, 0] == 2
        assert counts.sum() == 2

    def test_worked_example_tally(self, worked_chain):
        counts = transition_counts(worked_chain).counts
        expected = np.array([[2, 4, 1], [2, 1, 3], [3, 1, 3]], dtype=float)
        np.testing.assert_array_equal(counts, expected)
        assert counts.sum() == worked_chain.n_transitions == 20

    def test_single_transition(self):
        chain = CompleteChain((2, 3), StateSpace(3))
        counts = transition_counts(chain).counts
        assert counts[1, 2] == 1
        assert counts.sum() == 1

    def test_total_equals_n_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(1, 50))
            states = tuple(int(s) for s in rng.integers(1, k + 1, n + 1))
            chain = CompleteChain(states, StateSpace(k))
            assert transition_counts(chain).total == n


class TestCompleteMle:
    def test_two_state_arithmetic(self):
        N = CountMatrix(np.array([[2, 1], [3, 4]], dtype=float))
        P = complete_mle(N)
        np.testing.assert_allclose(P.probs, [[2 / 3, 1 / 3], [3 / 7, 4 / 7]])

    def test_zero_row_raises(self):
        N = CountMatrix(np.array([[0, 0], [3, 4]], dtype=float))
        with pytest.raises(ZeroRowTotalError):
            complete_mle(N)

    def test_zero_row_names_the_first_empty_row(self):
        N = CountMatrix(np.array([[1, 2, 0], [0, 0, 0], [0, 0, 0]], dtype=float))
        with pytest.raises(ZeroRowTotalError, match="state 2 never occurs") as err:
            complete_mle(N)
        assert err.value.row == 2

    def test_worked_example_rows(self, worked_chain):
        P = complete_mle(transition_counts(worked_chain))
        np.testing.assert_allclose(P.probs[0], [2 / 7, 4 / 7, 1 / 7])
        np.testing.assert_allclose(P.probs[1], [2 / 6, 1 / 6, 3 / 6])
        np.testing.assert_allclose(P.probs[2], [3 / 7, 1 / 7, 3 / 7])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(1, 30, (4, 4)).astype(float)
        P = complete_mle(CountMatrix(counts))
        np.testing.assert_allclose(P.probs.sum(axis=1), 1.0, atol=1e-12)


class TestFreeCoordinates:
    def test_reference_is_the_last_positive_entry(self):
        # row 1 (.4, .6, 0): reference p_12 inside the layout; row 2
        # (0, .5, .5): reference p_23, p_21 fixed; row 3 (1, 0, 0): nothing free
        probs = np.array([[0.4, 0.6, 0.0], [0.0, 0.5, 0.5], [1.0, 0.0, 0.0]])
        free, lift = free_coordinates(probs)
        np.testing.assert_array_equal(free, [0, 3])
        expected = np.zeros((6, 2))
        expected[[0, 1], 0] = 1.0, -1.0
        expected[3, 1] = 1.0
        np.testing.assert_array_equal(lift, expected)

    def test_rounding_in_the_last_column_is_zero(self):
        # 1 - (1/6 + 4/6 + 1/6) is 1.1e-16 in floating point
        probs = np.full((4, 4), 0.25)
        probs[0] = 1 / 6, 4 / 6, 1 / 6, 1.0 - (1 / 6 + 4 / 6 + 1 / 6)
        assert probs[0, 3] > 0.0
        free, _ = free_coordinates(probs)
        np.testing.assert_array_equal(free, [0, 1, *range(3, 12)])

    def test_to_probs_writes_that_rounding_as_zero(self):
        theta = np.r_[[1 / 6, 4 / 6, 1 / 6], np.full(9, 0.25)]
        probs = ParamVector(theta, StateSpace(4)).to_probs()
        assert probs[0, 3] == 0.0
        np.testing.assert_array_equal(probs[1:, 3], 0.25)
        support = np.ones((4, 4), dtype=bool)
        support[0, 3] = False
        TransitionMatrix.from_probs(probs, support)  # no mass on the structural zero


class TestEmbedding:
    def test_tuple_encoding_round_trip(self):
        k, s = 3, 2
        for label in range(1, k**s + 1):
            tup = decode_tuple_state(label, k, s)
            assert encode_tuple_state(tup, k) == label

    def test_embed_small_chain(self):
        chain = CompleteChain((1, 2, 2, 1), StateSpace(2))
        emb = embed_higher_order(chain, 2)
        # tuples (1,2), (2,2), (2,1)
        assert emb.states == (
            encode_tuple_state((1, 2), 2),
            encode_tuple_state((2, 2), 2),
            encode_tuple_state((2, 1), 2),
        )
        assert emb.space.k == 4

    def test_embed_constant_chain(self):
        chain = CompleteChain((1, 1, 1), StateSpace(2))
        emb = embed_higher_order(chain, 2)
        assert emb.states == (1, 1)

    def test_embedded_length_contract(self):
        chain = CompleteChain((1, 2, 3, 1, 2, 3), StateSpace(3))
        assert len(embed_higher_order(chain, 2)) == 5

    def test_too_short_raises(self):
        chain = CompleteChain((1, 2), StateSpace(2))
        with pytest.raises(ChainTooShortError):
            embed_higher_order(chain, 2)

    @pytest.mark.parametrize("k,s", [(2, 2), (3, 2), (2, 3)])
    def test_embedded_support_size(self, k, s):
        mask = embedded_support(k, s)
        assert mask.shape == (k**s, k**s)
        assert mask.sum() == k ** (s + 1)

    def test_embedded_support_overlap_rule(self):
        mask = embedded_support(2, 2)
        src = encode_tuple_state((1, 2), 2) - 1
        assert not mask[src, encode_tuple_state((1, 1), 2) - 1]
        assert mask[src, encode_tuple_state((2, 1), 2) - 1]

    def test_embedded_counts_respect_support(self):
        rng = np.random.default_rng(17)
        k, s = 2, 2
        probs = random_interior_probs(rng, k)
        chain = simulate_chain(TransitionMatrix.from_probs(probs), 1, 60, seed=8)
        emb = embed_higher_order(chain, s)
        counts = transition_counts(emb).counts
        mask = embedded_support(k, s)
        assert counts[~mask].sum() == 0

    def test_projection_uniform(self):
        mask = embedded_support(2, 2)
        probs = mask / mask.sum(axis=1, keepdims=True)
        P_emb = TransitionMatrix.from_probs(probs, mask)
        proj = project_embedded_params(P_emb, 2)
        assert len(proj) == 8
        assert all(abs(v - 0.5) < 1e-15 for v in proj.values())

    def test_projection_reads_the_right_entry(self):
        mask = embedded_support(2, 2)
        probs = mask / mask.sum(axis=1, keepdims=True)
        probs = probs.copy()
        src = encode_tuple_state((1, 2), 2) - 1
        tgt = encode_tuple_state((2, 1), 2) - 1
        other = encode_tuple_state((2, 2), 2) - 1
        probs[src, tgt], probs[src, other] = 0.7, 0.3
        P_emb = TransitionMatrix.from_probs(probs, mask)
        proj = project_embedded_params(P_emb, 2)
        assert proj[(1, 2, 1)] == pytest.approx(0.7)

    def test_projection_round_trip(self):
        rng = np.random.default_rng(5)
        k, s = 2, 2
        mask = embedded_support(k, s)
        probs = np.where(mask, rng.gamma(1.0, 1.0, mask.shape) + 0.05, 0.0)
        probs /= probs.sum(axis=1, keepdims=True)
        P_emb = TransitionMatrix.from_probs(probs, mask)
        proj = project_embedded_params(P_emb, s)
        rebuilt = np.zeros_like(probs)
        for key, value in proj.items():
            src = encode_tuple_state(key[:s], k) - 1
            tgt = encode_tuple_state(key[1:], k) - 1
            rebuilt[src, tgt] = value
        np.testing.assert_allclose(rebuilt[mask], probs[mask], atol=1e-15)


def test_every_exported_name_resolves():
    import markovfilter

    assert [name for name in markovfilter.__all__ if not hasattr(markovfilter, name)] == []
