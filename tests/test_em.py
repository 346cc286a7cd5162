"""Split matrices, gap machinery, the E and M steps, the observed
log-likelihood, and the EM loop."""

import numpy as np
import pytest

from markovfilter import (
    CompleteChain,
    ConsistencyError,
    CountMatrix,
    FilteredChain,
    FilterMatrix,
    GapSegment,
    StateSpace,
    TransitionMatrix,
    ZeroDenominatorError,
    ZeroRowTotalError,
    apply_filter,
    complete_mle,
    e_step,
    em_jacobian,
    m_step,
    observed_loglik,
    oracle_expected_counts,
    oracle_observed_likelihood,
    run_em,
    segment_chain,
    simulate_chain,
    split_p,
    transition_counts,
    unobserved_step_probs,
)
from markovfilter.filtering import ChainSegments
from conftest import random_interior_probs, random_theta

#: A one-zero-row witness filter on five states (every exit of state 1 is
#: unrecorded), the filter of the sparse benchmark case.
F_SPARSE5 = FilterMatrix(
    np.array([[c == "1" for c in row] for row in "00000 11000 01100 00100 00111".split()])
)

F_LOWER = FilterMatrix(np.array([[1, 0], [1, 1]]))  # one unrecorded edge
F_DIAG = FilterMatrix(np.array([[1, 0], [0, 1]]))  # off-diagonal unrecorded


def two_state(p12: float, p21: float) -> TransitionMatrix:
    return TransitionMatrix.from_probs([[1 - p12, p12], [p21, 1 - p21]])


class TestSplit:
    def test_lower_filter_split(self):
        P = two_state(0.3, 0.4)
        S = split_p(P, F_LOWER)
        np.testing.assert_allclose(S.p0, [[0.0, 0.3], [0.0, 0.0]])
        np.testing.assert_allclose(S.p1, [[0.7, 0.0], [0.4, 0.6]])
        np.testing.assert_allclose(S.p0 + S.p1, P.probs)

    def test_diagonal_filter_split(self):
        S = split_p(two_state(0.3, 0.4), F_DIAG)
        np.testing.assert_allclose(S.p0, [[0.0, 0.3], [0.4, 0.0]])

    def test_all_ones_split_is_zero(self):
        S = split_p(two_state(0.3, 0.4), FilterMatrix.all_ones(2))
        assert np.all(S.p0 == 0.0)


class TestUnobservedSteps:
    def test_diagonal_filter_two_steps(self):
        S = split_p(two_state(0.3, 0.4), F_DIAG)
        np.testing.assert_allclose(
            unobserved_step_probs(S, 2), [[0.12, 0.0], [0.0, 0.12]], atol=1e-15
        )

    def test_diagonal_two_step_identity_at_random_points(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p12, p21 = rng.uniform(0.01, 0.99, 2)
            S = split_p(two_state(p12, p21), F_DIAG)
            expected = np.diag([p12 * p21, p21 * p12])
            np.testing.assert_allclose(unobserved_step_probs(S, 2), expected, atol=1e-15)

    def test_nilpotent_split_vanishes_from_two_steps(self):
        S = split_p(two_state(0.3, 0.4), F_LOWER)
        assert np.any(unobserved_step_probs(S, 1) != 0.0)
        for nu in (2, 3, 5):
            assert np.all(unobserved_step_probs(S, nu) == 0.0)

    def test_zero_steps_is_identity(self):
        S = split_p(two_state(0.3, 0.4), F_DIAG)
        np.testing.assert_array_equal(unobserved_step_probs(S, 0), np.eye(2))


class TestSegment:
    def test_single_gap(self):
        y = FilteredChain((1, None, 1), StateSpace(2))
        pairs, gaps = segment_chain(y)
        assert pairs == []
        assert gaps == [GapSegment(1, 2, 1)]

    def test_pair_then_gap(self):
        y = FilteredChain((1, 1, None, None, 2), StateSpace(2))
        pairs, gaps = segment_chain(y)
        assert pairs == [(1, 1)]
        assert gaps == [GapSegment(1, 3, 2)]

    def test_trailing_gap(self):
        y = FilteredChain((1, 2, None, None), StateSpace(2))
        pairs, gaps = segment_chain(y)
        assert pairs == [(1, 2)]
        assert gaps == [GapSegment(2, 2, None)]

    def test_segments_cover_all_transitions(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = int(rng.integers(2, 4))
            F = FilterMatrix(rng.random((k, k)) < 0.5)
            states = tuple(int(s) for s in rng.integers(1, k + 1, int(rng.integers(2, 15))))
            y = apply_filter(CompleteChain(states, StateSpace(k)), F)
            pairs, gaps = segment_chain(y)
            assert len(pairs) + sum(g.length for g in gaps) == y.n_transitions


    def test_long_chain_matches_a_plain_loop(self, bench_matrix, bench_filter):
        # n ~ 1e5, three trailing blanks appended so the chain ends in a gap
        y = apply_filter(simulate_chain(bench_matrix, 1, 100_000, seed=8), bench_filter)
        y = FilteredChain.from_codes(np.append(y.codes, [0, 0, 0]), StateSpace(3))
        symbols = y.symbols
        observed = [p for p, s in enumerate(symbols) if s is not None]
        pairs, gaps, tally, types = [], [], np.zeros((3, 3)), {}
        for p, q in zip(observed, observed[1:] + [len(symbols) - 1]):
            if q == p + 1 and symbols[q] is not None:
                pairs.append((symbols[p], symbols[q]))
                tally[symbols[p] - 1, symbols[q] - 1] += 1
            elif q > p:
                key = (symbols[p], q - p, symbols[q])
                gaps.append(GapSegment(*key))
                first, mult = types.get(key, (p, 0))
                types[key] = (first, mult + 1)
        assert symbols[-1] is None and gaps[-1].next_state is None
        assert segment_chain(y) == (pairs, gaps)

        seg = y.segments
        np.testing.assert_array_equal(seg.pair_counts, tally)
        got = [(a + 1, nu, None if b == seg.k else b + 1) for a, nu, b in zip(seg.a, seg.nu, seg.b)]
        assert got == list(types)  # distinct types, in order of first occurrence
        np.testing.assert_array_equal(seg.first, [f for f, _ in types.values()])
        np.testing.assert_array_equal(seg.mult, [m for _, m in types.values()])
        assert seg.nu_max == max(g.length for g in gaps)


def gap_counts(gap: GapSegment, S) -> np.ndarray:
    """Expected counts inside the one gap ``gap``, from the E-step kernel."""
    b = S.k if gap.next_state is None else gap.next_state - 1
    seg = ChainSegments(S.k, np.zeros((S.k, S.k)), [gap.prev_state - 1], [gap.length], [b], [1.0], [0])
    return seg.gap_counts(S.p0)[0]


class TestGapCounts:
    def test_forced_two_step_gap(self):
        S = split_p(two_state(0.3, 0.4), F_DIAG)
        inc = gap_counts(GapSegment(1, 2, 1), S)
        np.testing.assert_allclose(inc, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    @pytest.mark.parametrize("target", [2, 3])
    def test_bench_gaps_match_enumeration(self, target, bench_matrix, bench_filter):
        # the recorded step target -> 1 reveals the gap's end
        S = split_p(bench_matrix, bench_filter)
        inc = gap_counts(GapSegment(3, 2, target), S)
        inc[target - 1, 0] += 1
        y = FilteredChain((3, None, target, 1), StateSpace(3))
        oracle = oracle_expected_counts(y, bench_filter, bench_matrix).counts
        np.testing.assert_allclose(inc, oracle, atol=1e-12)

    def test_unreachable_gap_raises(self, bench_matrix, bench_filter):
        # state 1 is only entered by recorded transitions under this filter
        S = split_p(bench_matrix, bench_filter)
        with pytest.raises(ZeroDenominatorError):
            gap_counts(GapSegment(3, 2, 1), S)

    def test_gap_mass_equals_length(self):
        rng = np.random.default_rng(12)
        S = split_p(TransitionMatrix.from_probs(random_interior_probs(rng, 3)), FilterMatrix(rng.random((3, 3)) < 0.5))
        for nu in (1, 2, 3, 4):
            inc = gap_counts(GapSegment(3, nu, None), S)
            assert inc.sum() == pytest.approx(nu, abs=1e-9)


class TestEStep:
    def test_all_ones_recovers_complete_counts(self, worked_chain):
        F = FilterMatrix.all_ones(3)
        y = apply_filter(worked_chain, F)
        theta = random_theta(np.random.default_rng(1), 3)
        E = e_step(y, theta, F)
        np.testing.assert_array_equal(E.counts, transition_counts(worked_chain).counts)

    def test_forced_gap_counts(self):
        # the one completion is (1, 2, 1, 1); in 1 - 1 nothing reveals the end
        y = FilteredChain((1, None, 1, 1), StateSpace(2))
        E = e_step(y, two_state(0.3, 0.4).theta(), F_DIAG)
        np.testing.assert_allclose(E.counts, [[1.0, 1.0], [1.0, 0.0]], atol=1e-14)
        with pytest.raises(ConsistencyError):
            e_step(FilteredChain((1, None, 1), StateSpace(2)), two_state(0.3, 0.4).theta(), F_DIAG)

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(120):
            k = int(rng.integers(2, 4))
            P = TransitionMatrix.from_probs(random_interior_probs(rng, k))
            F = FilterMatrix(rng.random((k, k)) < rng.uniform(0.2, 0.8))
            chain = simulate_chain(P, int(rng.integers(1, k + 1)), int(rng.integers(2, 9)), int(rng.integers(10**6)))
            y = apply_filter(chain, F)
            E = e_step(y, P.theta(), F)
            oracle = oracle_expected_counts(y, F, P)
            np.testing.assert_allclose(E.counts, oracle.counts, atol=1e-10)

    def test_matches_oracle_for_every_filter(self):
        # exhaustive over all 2**(k*k) filters at k = 2 and 3
        import itertools

        rng = np.random.default_rng(55)
        for k, reps in ((2, 4), (3, 1)):
            for combo in itertools.product((0, 1), repeat=k * k):
                F = FilterMatrix(np.array(combo, dtype=bool).reshape(k, k))
                for _ in range(reps):
                    P_gen = TransitionMatrix.from_probs(random_interior_probs(rng, k))
                    P_eval = TransitionMatrix.from_probs(random_interior_probs(rng, k))
                    chain = simulate_chain(
                        P_gen,
                        int(rng.integers(1, k + 1)),
                        int(rng.integers(2, 8)),
                        int(rng.integers(10**6)),
                    )
                    y = apply_filter(chain, F)
                    E = e_step(y, P_eval.theta(), F)
                    O = oracle_expected_counts(y, F, P_eval)
                    np.testing.assert_allclose(E.counts, O.counts, atol=1e-10)
                    ll = observed_loglik(y, P_eval.theta(), F)
                    expected = np.log(oracle_observed_likelihood(y, F, P_eval))
                    assert ll == pytest.approx(expected, abs=1e-10)

    def test_mass_conservation(self, bench_matrix, bench_filter):
        chain = simulate_chain(bench_matrix, 1, 500, seed=77)
        y = apply_filter(chain, bench_filter)
        E = e_step(y, bench_matrix.theta(), bench_filter)
        assert E.total == pytest.approx(y.n_transitions, abs=1e-9)

    def test_long_gaps_match_per_gap_closed_form(self):
        # beyond the oracles' reach: k = 5 and gaps of 30+ transitions, each
        # gap summed on its own from the closed form of its expected counts,
        # sum over m < nu of P0^m[a, :]^T P0^(nu-1-m)[:, b] o P0 / P0^nu[a, b]
        rng = np.random.default_rng(5)
        probs = random_interior_probs(rng, 5)
        probs[0] = [0.93, 0.02, 0.02, 0.015, 0.015]  # long unrecorded stays in 1
        P = TransitionMatrix.from_probs(probs)
        y = apply_filter(simulate_chain(P, 1, 3000, seed=11), F_SPARSE5)
        pairs, gaps = segment_chain(y)
        assert max(g.length for g in gaps) >= 30
        S = split_p(P, F_SPARSE5)
        powers = [unobserved_step_probs(S, m) for m in range(max(g.length for g in gaps) + 1)]
        counts = np.zeros((5, 5))
        loglik = 0.0
        for a, b in pairs:
            counts[a - 1, b - 1] += 1.0
            loglik += np.log(probs[a - 1, b - 1])
        for g in gaps:
            a, nu = g.prev_state - 1, g.length
            ends = [p.sum(axis=1) if g.next_state is None else p[:, g.next_state - 1] for p in powers]
            mass = ends[nu][a]
            for m in range(nu):
                counts += np.outer(powers[m][a], ends[nu - 1 - m]) * S.p0 / mass
            loglik += np.log(mass)
        np.testing.assert_allclose(e_step(y, P, F_SPARSE5).counts, counts, rtol=1e-10, atol=1e-12)
        assert observed_loglik(y, P, F_SPARSE5) == pytest.approx(loglik, rel=1e-12)


@pytest.mark.parametrize("form", ["param_vector", "transition_matrix", "matrix", "theta"])
def test_entry_points_accept_every_parameter_form(form, bench_matrix, bench_filter):
    ref = bench_matrix.theta()
    probs = ref.to_probs()
    theta = {
        "param_vector": ref,
        "transition_matrix": TransitionMatrix.from_probs(probs),
        "matrix": probs,
        "theta": ref.theta,
    }[form]
    y = apply_filter(simulate_chain(bench_matrix, 1, 200, seed=8), bench_filter)
    E = e_step(y, ref, bench_filter)
    np.testing.assert_array_equal(e_step(y, theta, bench_filter).counts, E.counts)
    assert observed_loglik(y, theta, bench_filter) == observed_loglik(y, ref, bench_filter)
    np.testing.assert_array_equal(em_jacobian(y, bench_filter, theta), em_jacobian(y, bench_filter, ref))
    np.testing.assert_array_equal(
        run_em(y, bench_filter, theta0=theta, max_iter=3).theta_hat.theta,
        run_em(y, bench_filter, theta0=ref, max_iter=3).theta_hat.theta,
    )


class TestMStep:
    def test_arithmetic(self):
        theta = m_step(CountMatrix(np.array([[2.0, 1.0], [3.0, 4.0]])))
        np.testing.assert_allclose(theta.theta, [2 / 3, 3 / 7])

    def test_equal_rows_give_uniform(self):
        theta = m_step(CountMatrix(np.full((3, 3), 2.0)))
        np.testing.assert_allclose(theta.to_probs(), np.full((3, 3), 1 / 3))

    def test_zero_row_raises(self):
        with pytest.raises(ZeroRowTotalError):
            m_step(CountMatrix(np.array([[0.0, 0.0], [1.0, 2.0]])))

    def test_one_step_fixed_point_under_full_observation(self, worked_chain):
        F = FilterMatrix.all_ones(3)
        y = apply_filter(worked_chain, F)
        start = random_theta(np.random.default_rng(9), 3)
        theta1 = m_step(e_step(y, start, F))
        mle = complete_mle(transition_counts(worked_chain))
        # the free parameters agree bitwise; the dependent last column only
        # up to the 1 - sum reconstruction
        np.testing.assert_array_equal(theta1.theta, mle.theta().theta)
        np.testing.assert_allclose(theta1.to_probs(), mle.probs, atol=1e-15)

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(31)
        counts = rng.gamma(1.0, 5.0, (4, 4))
        probs = m_step(CountMatrix(counts)).to_probs()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestObservedLoglik:
    def test_forced_gap_value(self):
        y = FilteredChain((1, None, 1, 1), StateSpace(2))
        ll = observed_loglik(y, two_state(0.3, 0.4).theta(), F_DIAG)
        assert ll == pytest.approx(np.log(0.3 * 0.4 * 0.7), abs=1e-14)
        # no complete chain gives 1 - 1: the oracle's likelihood is 0
        y = FilteredChain((1, None, 1), StateSpace(2))
        assert oracle_observed_likelihood(y, F_DIAG, two_state(0.3, 0.4)) == 0.0
        assert observed_loglik(y, two_state(0.3, 0.4).theta(), F_DIAG) == -np.inf

    def test_full_observation_equals_complete_loglik(self, worked_chain):
        F = FilterMatrix.all_ones(3)
        y = apply_filter(worked_chain, F)
        P = complete_mle(transition_counts(worked_chain))
        ll = observed_loglik(y, P.theta(), F)
        counts = transition_counts(worked_chain).counts
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.nansum(np.where(counts > 0, counts * np.log(P.probs), 0.0))
        assert ll == pytest.approx(expected, abs=1e-12)

    def test_matches_enumeration_randomized(self):
        rng = np.random.default_rng(22)
        for _ in range(120):
            k = int(rng.integers(2, 4))
            P = TransitionMatrix.from_probs(random_interior_probs(rng, k))
            F = FilterMatrix(rng.random((k, k)) < rng.uniform(0.2, 0.8))
            chain = simulate_chain(P, int(rng.integers(1, k + 1)), int(rng.integers(2, 9)), int(rng.integers(10**6)))
            y = apply_filter(chain, F)
            ll = observed_loglik(y, P.theta(), F)
            assert ll == pytest.approx(np.log(oracle_observed_likelihood(y, F, P)), abs=1e-10)

    def test_impossible_factor_is_minus_inf(self):
        # recorded pair 1->2 with probability pinned to zero
        P = TransitionMatrix.from_probs(
            [[1.0, 0.0], [0.5, 0.5]], support=[[True, True], [True, True]]
        )
        y = FilteredChain((1, 2), StateSpace(2))
        assert observed_loglik(y, P.theta(), FilterMatrix.all_ones(2)) == -np.inf


def grid_refine_maximize(y, F):
    """Independent maximizer of the observed log-likelihood for k = 2:
    dense grid then two shrinking refinement passes (final step 5e-5)."""

    def ll(p11, p21):
        return observed_loglik(y, np.array([p11, p21]), F)

    lo1 = lo2 = 1e-4
    hi1 = hi2 = 1 - 1e-4
    best = None
    for stage, points in ((0, 101), (1, 41), (2, 41)):
        xs = np.linspace(lo1, hi1, points)
        ys = np.linspace(lo2, hi2, points)
        values = np.array([[ll(a, b) for b in ys] for a in xs])
        i, j = np.unravel_index(np.argmax(values), values.shape)
        best = (xs[i], ys[j], values[i, j])
        span1 = (hi1 - lo1) / (points - 1) * 2.0
        span2 = (hi2 - lo2) / (points - 1) * 2.0
        lo1, hi1 = max(best[0] - span1, 1e-6), min(best[0] + span1, 1 - 1e-6)
        lo2, hi2 = max(best[1] - span2, 1e-6), min(best[1] + span2, 1 - 1e-6)
    return np.array([best[0], best[1]]), best[2]


class TestRunEm:
    def test_full_observation_converges_immediately(self, worked_chain):
        F = FilterMatrix.all_ones(3)
        y = apply_filter(worked_chain, F)
        result = run_em(y, F)
        mle = complete_mle(transition_counts(worked_chain))
        np.testing.assert_array_equal(result.theta_hat.theta, mle.theta().theta)
        np.testing.assert_allclose(result.probs, mle.probs, atol=1e-15)
        assert result.converged
        assert result.iterations <= 2

    # filters with a zero row leave several unrecorded exits per state, so
    # the incomplete likelihood is genuinely nontrivial
    @pytest.mark.parametrize(
        "bits,seed",
        [
            ([[1, 0], [0, 1]], 0),
            ([[0, 1], [1, 0]], 1),
            ([[0, 0], [1, 0]], 2),
            ([[0, 0], [1, 0]], 3),
            ([[0, 1], [0, 0]], 0),
            ([[0, 1], [0, 0]], 1),
        ],
    )
    def test_matches_grid_search(self, bits, seed):
        rng = np.random.default_rng(seed)
        P = TransitionMatrix.from_probs(random_interior_probs(rng, 2, floor=0.15))
        F = FilterMatrix(np.array(bits))
        chain = simulate_chain(P, 1, 30, seed=seed + 100)
        y = apply_filter(chain, F)
        result = run_em(y, F)
        grid_theta, grid_ll = grid_refine_maximize(y, F)
        assert np.max(np.abs(result.theta_hat.theta - grid_theta)) < 2e-3
        assert result.final_observed_loglik >= grid_ll - 1e-9

    @pytest.mark.parametrize("max_iter", [1, 2, 3, None])
    @pytest.mark.parametrize("seed", range(8))
    def test_every_exit_describes_the_returned_estimate(self, seed, max_iter):
        # whether EM converges or runs out of iterations, the trace ends on
        # the estimate and the counts are the estimate's own E-step
        rng = np.random.default_rng(seed)
        k = 2 + seed % 3
        P = TransitionMatrix.from_probs(random_interior_probs(rng, k, floor=0.1))
        F = FilterMatrix.all_ones(k) if seed == 0 else FilterMatrix(rng.random((k, k)) < 0.5)
        y = apply_filter(simulate_chain(P, 1, 40 + 10 * seed, seed=seed), F)
        limit = {} if max_iter is None else {"max_iter": max_iter}
        result = run_em(y, F, **limit)
        assert len(result.loglik_trace) == result.iterations + 1
        assert result.loglik_trace[-1] == result.final_observed_loglik
        assert result.final_observed_loglik == observed_loglik(y, result.probs, F)
        np.testing.assert_array_equal(result.expected_counts.counts, e_step(y, result.probs, F).counts)
        if max_iter is not None:
            assert result.iterations <= max_iter
            assert result.converged or result.iterations == max_iter
        else:
            assert result.converged

    def test_theta_hat_keeps_an_exact_zero_in_the_last_column(self):
        # 1 -> 4 never occurs; theta_hat's rebuilt last column must not leave
        # 1 minus the row's other entries (1.1e-16) on that structural zero
        y = FilteredChain.from_codes([1, 1, 2, 1, 2, 1, 2, 1, 2, 1, 3, 4, 3, 2, 4, 1], StateSpace(4))
        fit = run_em(y, FilterMatrix.all_ones(4))
        probs = fit.theta_hat.to_probs()
        assert probs[0, 3] == 0.0
        support = np.ones((4, 4), dtype=bool)
        support[0, 3] = False
        np.testing.assert_array_equal(fit.theta_hat.to_matrix(support).probs, probs)

    def test_loglik_never_decreases(self, bench_matrix, bench_filter):
        chain = simulate_chain(bench_matrix, 1, 400, seed=3)
        y = apply_filter(chain, bench_filter)
        result = run_em(y, bench_filter)
        trace = np.array(result.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-10)

    def test_final_counts_mass_and_rows(self, bench_matrix, bench_filter):
        chain = simulate_chain(bench_matrix, 1, 300, seed=5)
        y = apply_filter(chain, bench_filter)
        result = run_em(y, bench_filter)
        assert result.expected_counts.total == pytest.approx(y.n_transitions, abs=1e-9)
        np.testing.assert_allclose(result.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_structural_zeros_stay_zero(self):
        support = np.array([[True, True, False], [True, True, True], [True, True, True]])
        probs = np.array([[0.4, 0.6, 0.0], [0.3, 0.3, 0.4], [0.5, 0.2, 0.3]])
        P = TransitionMatrix.from_probs(probs, support)
        F = FilterMatrix(np.array([[0, 1, 0], [1, 1, 0], [1, 0, 0]]))
        chain = simulate_chain(P, 1, 400, seed=6)
        y = apply_filter(chain, F)
        result = run_em(y, F, support=support)
        assert result.probs[0, 2] == 0.0
        assert result.expected_counts.counts[0, 2] == 0.0

    def test_support_row_without_a_transition_raises(self):
        y = FilteredChain((1, 2, 1, 1), StateSpace(2))
        with pytest.raises(ValueError, match="every row and column"):
            run_em(y, FilterMatrix.all_ones(2), support=[[True, True], [False, False]])

    def test_inconsistent_pattern_is_rejected(self):
        y = FilteredChain((1, 2), StateSpace(2))
        with pytest.raises(ConsistencyError):
            run_em(y, F_DIAG)

    @pytest.mark.parametrize("call", [run_em, e_step, observed_loglik])
    def test_filter_of_the_wrong_size_is_refused_by_validation(self, call):
        # one check, in validate_consistency, serves all three entry points
        y, F = FilteredChain((1, 2, 1, 1), StateSpace(2)), FilterMatrix.all_ones(3)
        args = (y, F) if call is run_em else (y, two_state(0.3, 0.4).theta(), F)
        with pytest.raises(ValueError) as err:
            call(*args)
        assert str(err.value) == "filter is 3x3 but the pattern has k=2"

    def test_convergence_at_tight_tolerance(self, bench_matrix, bench_filter):
        chain = simulate_chain(bench_matrix, 1, 1000, seed=42)
        y = apply_filter(chain, bench_filter)
        result = run_em(y, bench_filter, tol=1e-12)
        assert result.converged
        # one more EM step moves the estimate by less than the tolerance
        follow_up = m_step(e_step(y, result.theta_hat, bench_filter))
        assert np.max(np.abs(follow_up.theta - result.theta_hat.theta)) < 1e-11
