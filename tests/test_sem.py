"""The closed-form complete-data covariance, the forced-iteration
Jacobian, and the observed-covariance assembly, each checked against an
independent finite-difference oracle."""

import numpy as np
import pytest

from markovfilter import (
    CompleteChain,
    FilterMatrix,
    StateSpace,
    TransitionMatrix,
    apply_filter,
    e_step,
    free_coordinates,
    m_step,
    observed_loglik,
    run_em,
    run_sem,
    simulate_chain,
    symmetry_diagnostic,
)
from markovfilter.sem import sem_m1
from conftest import BENCH_FILTER, BENCH_PROBS, random_interior_probs
from reference import default_sem_start

F_DIAG = FilterMatrix(np.array([[1, 0], [0, 1]]))
# recording only 2 -> 1 leaves two unrecorded exits from state 1, so hidden
# paths are genuinely random and information is lost to filtering
F_ZROW = FilterMatrix(np.array([[0, 0], [1, 0]]))


def em_map(y, F):
    def apply_map(theta):
        return m_step(e_step(y, np.asarray(theta), F)).theta

    return apply_map


def fd_jacobian(f, x, h=1e-5):
    d = len(x)
    J = np.zeros((d, d))
    for i in range(d):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        J[i] = (f(up) - f(down)) / (2 * h)
    return J


def fd_hessian(f, x, h=1e-4):
    d = len(x)
    H = np.zeros((d, d))
    f0 = f(x)
    for i in range(d):
        for j in range(i, d):
            if i == j:
                up, down = x.copy(), x.copy()
                up[i] += h
                down[i] -= h
                H[i, i] = (f(up) - 2 * f0 + f(down)) / h**2
            else:
                pp, pm, mp, mm = x.copy(), x.copy(), x.copy(), x.copy()
                pp[[i, j]] += h
                mm[[i, j]] -= h
                pm[i] += h
                pm[j] -= h
                mp[i] -= h
                mp[j] += h
                H[i, j] = H[j, i] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4 * h**2)
    return H


def moved(probs, lift, delta):
    """``probs`` moved by ``delta`` along the free coordinates whose changes
    in the free-parameter layout are the columns of ``lift``; each row's
    last column takes up the rest."""
    k = len(probs)
    change = (lift @ delta).reshape(k, k - 1)
    return probs + np.hstack([change, -change.sum(axis=1, keepdims=True)])


def full_observation_sem(digits, support=None):
    """(fit, SEM result) for a fully observed chain given as a digit string:
    EM stops at the complete-data MLE, so theta_hat = E / N exactly."""
    chain = CompleteChain(tuple(int(c) for c in digits), StateSpace(int(max(digits))))
    F = FilterMatrix.all_ones(chain.space.k)
    y = apply_filter(chain, F)
    fit = run_em(y, F, support=support)
    return fit, run_sem(y, F, fit)


#: Three states, each of the nine transitions four times: one circuit
#: 1 1 2 2 3 3 1 3 2 1 through all of them, repeated.
EQUAL_COUNTS_CHAIN = "1" + "122331321" * 4
#: Support row 1 never enters state 3: the row's last column is zero, and
#: its reference column is 2.
LAST_COLUMN_ZERO = np.array([[0.4, 0.6, 0.0], [0.8, 0.1, 0.1], [0.7, 0.1, 0.2]])


def simulated_digits(probs, n, seed):
    P = TransitionMatrix.from_probs(probs, probs > 0)
    return "".join(map(str, simulate_chain(P, 1, n, seed).states))


@pytest.fixture
def fitted_two_state():
    P = TransitionMatrix.from_probs([[0.7, 0.3], [0.4, 0.6]])
    chain = simulate_chain(P, 1, 200, seed=15)
    y = apply_filter(chain, F_ZROW)
    result = run_em(y, F_ZROW)
    return y, result


class TestCompleteInfo:
    def test_single_row_block_value(self):
        # row 1 counts (2, 1): V_com = p(1 - p) / N = (2/3)(1/3)/3 = 1/13.5;
        # row 2 only ever moves to 1, so p_21 = 1 is fixed
        _, sem = full_observation_sem("11211")
        assert sem.v_com[0, 0] == pytest.approx(1 / 13.5, rel=1e-12)
        assert sem.v_com[1, 1] == 0.0

    def test_matches_fd_hessian_of_complete_loglik(self):
        # the inverse information along the free directions e_ij - e_ir;
        # row 1 has support (1, 1, 0), so p_12 is its reference and p_11,
        # p_12 are perfectly anticorrelated
        probs = LAST_COLUMN_ZERO
        F = FilterMatrix(BENCH_FILTER)
        y = apply_filter(simulate_chain(TransitionMatrix.from_probs(probs, probs > 0), 1, 3000, 1), F)
        fit = run_em(y, F, support=probs > 0)
        counts = fit.expected_counts.counts
        free, lift = free_coordinates(fit.probs)

        def loglik(delta):
            p = moved(fit.probs, lift, delta)
            return float(np.sum(counts[p > 0] * np.log(p[p > 0])))

        H = fd_hessian(loglik, np.zeros(free.size), h=1e-4)
        expected = lift @ np.linalg.inv(-H) @ lift.T
        vc = run_sem(y, F, fit).v_com
        assert np.max(np.abs(vc - expected)) < 1e-5 * np.max(np.abs(expected))
        assert vc[1, 1] == pytest.approx(vc[0, 0], rel=1e-12)
        assert vc[0, 1] == pytest.approx(-vc[0, 0], rel=1e-12)

    def test_uniform_equal_counts_structure(self):
        fit, sem = full_observation_sem(EQUAL_COUNTS_CHAIN)
        np.testing.assert_allclose(fit.probs, np.full((3, 3), 1 / 3), rtol=1e-15)
        # the inverse of the information c (I + 1 1^T) with c = 4 / (1/3)^2
        block = np.linalg.inv(36.0 * (np.eye(2) + np.ones((2, 2))))
        np.testing.assert_allclose(sem.v_com[:2, :2], block, rtol=1e-12)
        np.testing.assert_allclose(sem.v_com[2:4, 2:4], block, rtol=1e-12)

    def test_cross_row_entries_are_zero(self):
        _, sem = full_observation_sem(simulated_digits(BENCH_PROBS, 300, 3))
        off_blocks = sem.v_com.copy()
        for i in range(3):
            off_blocks[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = 0.0
        assert np.all(off_blocks == 0.0) and np.all(np.diag(sem.v_com) > 0.0)

    def test_fixed_coordinate_is_left_out_of_its_block(self):
        # p_11 = 0 on the support is fixed; p_12 alone is free in row 1
        probs = np.array([[0.0, 0.4, 0.6], [0.3, 0.3, 0.4], [0.4, 0.4, 0.2]])
        fit, sem = full_observation_sem(simulated_digits(probs, 300, 4), probs > 0)
        n1 = fit.expected_counts.counts[0].sum()
        p12 = fit.probs[0, 1]
        np.testing.assert_array_equal(sem.v_com[0], 0.0)
        np.testing.assert_array_equal(sem.v_com[:, 0], 0.0)
        assert sem.v_com[1, 1] == pytest.approx(p12 * (1 - p12) / n1, rel=1e-12)


class TestVcom:
    def test_blockwise_equals_dense_inverse(self):
        # the dense inverse of the complete-data information along the free
        # directions, sum_ij E_ij / p_ij^2 d_ij d_ij^T, where row 1's last
        # column is zero
        fit, sem = full_observation_sem(simulated_digits(LAST_COLUMN_ZERO, 300, 3))
        probs, counts = fit.probs, fit.expected_counts.counts
        assert probs[0, 2] == 0.0
        free, lift = free_coordinates(probs)
        directions = np.stack([moved(probs, lift, e) - probs for e in np.eye(free.size)])
        weight = np.divide(counts, probs**2, out=np.zeros_like(probs), where=probs > 0)
        info = np.einsum("aij,ij,bij->ab", directions, weight, directions)
        np.testing.assert_allclose(
            sem.v_com, lift @ np.linalg.inv(info) @ lift.T, rtol=1e-9, atol=1e-14
        )

    def test_blocks_are_spd(self):
        probs = random_interior_probs(np.random.default_rng(12), 4)
        _, sem = full_observation_sem(simulated_digits(probs, 500, 12))
        vc = sem.v_com
        assert np.all(np.linalg.eigvalsh(vc) > 0)


class TestSemM1:
    def test_full_observation_gives_zero(self, worked_chain):
        F = FilterMatrix.all_ones(3)
        y = apply_filter(worked_chain, F)
        result = run_em(y, F)
        start = np.clip(result.theta_hat.theta + 0.05, 0.01, None)
        m1, converged = sem_m1(y, F, result.theta_hat, start)
        assert np.all(m1 == 0.0)
        assert converged.all()

    def test_matches_finite_differences(self, fitted_two_state):
        y, result = fitted_two_state
        theta_hat = result.theta_hat.theta
        start = theta_hat + np.array([0.05, -0.04])
        m1, _ = sem_m1(y, F_ZROW, result.theta_hat, start)
        J = fd_jacobian(em_map(y, F_ZROW), theta_hat.copy())
        assert np.max(np.abs(m1 - J)) < 1e-4

    def test_spectral_radius_below_one(self, fitted_two_state):
        y, result = fitted_two_state
        sem = run_sem(y, F_ZROW, result)
        assert np.max(np.abs(np.linalg.eigvals(sem.m1))) > 0.0
        assert np.max(np.abs(np.linalg.eigvals(sem.m1))) < 1.0

    def test_insensitive_to_the_start(self, fitted_two_state):
        y, result = fitted_two_state
        vc = run_sem(y, F_ZROW, result).v_com
        start_sd = default_sem_start(result.theta_hat, vc, 2)
        # an early EM iterate as the alternative start
        early = m_step(e_step(y, np.array([0.45, 0.55]), F_ZROW)).theta
        m1_a, _ = sem_m1(y, F_ZROW, result.theta_hat, start_sd)
        m1_b, _ = sem_m1(y, F_ZROW, result.theta_hat, early)
        assert np.max(np.abs(m1_a - m1_b)) < 1e-4


    def test_alternating_filter_has_no_missing_information(self):
        # with only the two self-loops blanked, every hidden path alternates
        # deterministically between the states, so the EM map is constant
        # and the Jacobian vanishes despite the blanks
        P = TransitionMatrix.from_probs([[0.7, 0.3], [0.4, 0.6]])
        chain = simulate_chain(P, 1, 200, seed=15)
        y = apply_filter(chain, F_DIAG)
        assert y.blank_count > 0
        result = run_em(y, F_DIAG)
        sem = run_sem(y, F_DIAG, result)
        assert np.all(sem.m1 == 0.0)
        np.testing.assert_array_equal(sem.v_obs, sem.v_com)


class TestVobs:
    def test_total_missingness_is_singular(self):
        from markovfilter import SingularUpdateError
        from markovfilter.sem import _inverse_update

        m1 = np.diag([1.0 - 1e-14, 0.5])
        with pytest.raises(SingularUpdateError):
            _inverse_update(m1)

    def test_identity_v_obs_equals_v_com_plus_delta(self, fitted_two_state):
        y, result = fitted_two_state
        sem = run_sem(y, F_ZROW, result)
        np.testing.assert_allclose(sem.v_obs, sem.v_com + sem.delta_v, atol=1e-9)

    def test_matches_fd_observed_information(self, fitted_two_state):
        y, result = fitted_two_state
        theta_hat = result.theta_hat.theta.copy()

        def ll(t):
            return observed_loglik(y, t, F_ZROW)

        H = fd_hessian(ll, theta_hat, h=1e-4)
        v_fd = np.linalg.inv(-H)
        sem = run_sem(y, F_ZROW, result)
        rel = np.max(np.abs(sem.v_obs - v_fd)) / np.max(np.abs(v_fd))
        assert rel < 0.05


class TestDiagnostics:
    def test_symmetric_input_scores_zero(self):
        assert symmetry_diagnostic(np.eye(3)) == 0.0

    def test_known_asymmetry(self):
        assert symmetry_diagnostic(np.array([[1.0, 0.2], [0.1, 1.0]])) == pytest.approx(0.1)

    def test_bench_scale_run_is_nearly_symmetric(self):
        P = TransitionMatrix.from_probs(BENCH_PROBS)
        F = FilterMatrix(BENCH_FILTER)
        chain = simulate_chain(P, 1, 1000, seed=2)
        y = apply_filter(chain, F)
        result = run_em(y, F, tol=1e-12)
        sem = run_sem(y, F, result)
        assert sem.asymmetry < 1e-4


class TestRunSemInvariants:
    def test_full_observation_has_zero_inflation(self, worked_chain):
        F = FilterMatrix.all_ones(3)
        y = apply_filter(worked_chain, F)
        result = run_em(y, F)
        sem = run_sem(y, F, result)
        assert np.all(sem.m1 == 0.0)
        assert np.all(sem.delta_v == 0.0)
        np.testing.assert_array_equal(sem.v_obs, sem.v_com)

    def test_deterministic_estimate_has_nothing_free(self):
        # every state always moves to the other one: no coordinate is free
        _, sem = full_observation_sem("12121")
        for mat in (sem.m1, sem.v_com, sem.v_obs, sem.delta_v):
            np.testing.assert_array_equal(mat, np.zeros((2, 2)))
        assert (sem.spectral_radius, sem.cond) == (0.0, 1.0)

    def test_missingness_cannot_reduce_variance(self, fitted_two_state):
        y, result = fitted_two_state
        sem = run_sem(y, F_ZROW, result)
        gap = 0.5 * (sem.delta_v + sem.delta_v.T)
        assert np.min(np.linalg.eigvalsh(gap)) > -1e-6

    def test_v_com_blocks_spd(self, fitted_two_state):
        y, result = fitted_two_state
        vc = run_sem(y, F_ZROW, result).v_com
        assert np.all(np.linalg.eigvalsh(0.5 * (vc + vc.T)) > 0)
