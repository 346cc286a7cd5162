"""Complete-data information, the forced-iteration Jacobian, and the
observed-covariance assembly, each checked against an independent
finite-difference oracle."""

import numpy as np
import pytest

from markovfilter import (
    CountMatrix,
    FilterMatrix,
    ParamVector,
    SingularBlockError,
    StateSpace,
    TransitionMatrix,
    apply_filter,
    complete_info,
    default_sem_start,
    e_step,
    m_step,
    observed_loglik,
    run_em,
    run_sem,
    sem_m1,
    simulate_chain,
    symmetry_diagnostic,
    v_com,
    v_obs,
)
from conftest import BENCH_FILTER, BENCH_PROBS

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


@pytest.fixture
def fitted_two_state():
    P = TransitionMatrix.from_probs([[0.7, 0.3], [0.4, 0.6]])
    chain = simulate_chain(P, 1, 200, seed=15)
    y = apply_filter(chain, F_ZROW)
    result = run_em(y, F_ZROW)
    return y, result


class TestCompleteInfo:
    def test_single_row_block_value(self):
        counts = CountMatrix(np.array([[2.0, 1.0], [0.0, 0.0]]))
        theta = ParamVector(np.array([2 / 3, 0.5]), StateSpace(2))
        info = complete_info(counts, theta)
        assert info[0, 0] == pytest.approx(13.5)

    def test_matches_fd_hessian_of_complete_loglik(self):
        counts = np.array([[2.0, 1.0], [0.0, 0.0]])
        theta = np.array([2 / 3, 0.5])

        def loglik(t):
            p11, p21 = t
            return (
                counts[0, 0] * np.log(p11)
                + counts[0, 1] * np.log(1 - p11)
                + 1e-12 * p21  # row 2 carries no counts
            )

        H = fd_hessian(loglik, theta, h=1e-5)
        info = complete_info(CountMatrix(counts), ParamVector(theta, StateSpace(2)))
        assert info[0, 0] == pytest.approx(-H[0, 0], rel=1e-5)

    def test_uniform_equal_counts_structure(self):
        k = 3
        counts = np.full((k, k), 4.0)
        theta = TransitionMatrix.from_probs(np.full((k, k), 1 / 3)).theta()
        info = complete_info(CountMatrix(counts), theta)
        c = 4.0 / (1 / 3) ** 2
        block = c * (np.eye(k - 1) + np.ones((k - 1, k - 1)))
        np.testing.assert_allclose(info[:2, :2], block)
        np.testing.assert_allclose(info[2:4, 2:4], block)

    def test_cross_row_entries_are_zero(self):
        rng = np.random.default_rng(3)
        counts = rng.gamma(2.0, 5.0, (3, 3))
        probs = counts / counts.sum(axis=1, keepdims=True)
        info = complete_info(CountMatrix(counts), TransitionMatrix.from_probs(probs).theta())
        info_copy = info.copy()
        for i in range(3):
            sl = slice(2 * i, 2 * i + 2)
            info_copy[sl, sl] = 0.0
        assert np.all(info_copy == 0.0)

    def test_fixed_coordinate_is_left_out_of_its_block(self):
        # p_11 = 0 with no mass is fixed; p_12 alone carries row 1's curvature
        counts = np.array([[0.0, 4.0, 6.0], [3.0, 1.0, 1.0], [2.0, 2.0, 1.0]])
        probs = counts / counts.sum(axis=1, keepdims=True)
        info = complete_info(CountMatrix(counts), TransitionMatrix.from_probs(probs).theta())
        c12, c13 = 4.0 / 0.4**2, 6.0 / 0.6**2
        np.testing.assert_allclose(info[:2, :2], [[0.0, 0.0], [0.0, c12 + c13]])
        vc = v_com(info)
        np.testing.assert_allclose(vc[:2, :2], [[0.0, 0.0], [0.0, 1.0 / (c12 + c13)]])
        np.testing.assert_allclose(vc[2:4, 2:4], np.linalg.inv(info[2:4, 2:4]))

    def test_mass_on_zero_probability_raises(self):
        counts = CountMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
        theta = ParamVector(np.array([0.0, 0.5]), StateSpace(2))
        with pytest.raises(SingularBlockError):
            complete_info(counts, theta)


class TestVcom:
    def test_reciprocal_of_diagonal(self):
        info = np.diag([13.5, 2.0])
        np.testing.assert_allclose(np.diag(v_com(info)), [1 / 13.5, 0.5])
        assert v_com(info)[0, 0] == pytest.approx(0.0740740740741, abs=1e-12)

    def test_blockwise_equals_dense_inverse(self):
        rng = np.random.default_rng(11)
        counts = rng.gamma(2.0, 5.0, (3, 3))
        probs = counts / counts.sum(axis=1, keepdims=True)
        info = complete_info(CountMatrix(counts), TransitionMatrix.from_probs(probs).theta())
        np.testing.assert_allclose(v_com(info), np.linalg.inv(info), rtol=1e-9, atol=1e-14)

    def test_blocks_are_spd(self):
        rng = np.random.default_rng(12)
        counts = rng.gamma(2.0, 5.0, (4, 4))
        probs = counts / counts.sum(axis=1, keepdims=True)
        info = complete_info(CountMatrix(counts), TransitionMatrix.from_probs(probs).theta())
        assert np.all(np.linalg.eigvalsh(0.5 * (info + info.T)) > 0)

    def test_singular_block_raises(self):
        info = np.zeros((2, 2))
        with pytest.raises(SingularBlockError):
            v_com(info)


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
        info = complete_info(result.expected_counts, result.theta_hat)
        vc = v_com(info)
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
    def test_no_missing_information(self):
        vc = np.diag([2.0, 3.0])
        vo, dv = v_obs(vc, np.zeros((2, 2)))
        np.testing.assert_array_equal(vo, vc)
        np.testing.assert_array_equal(dv, np.zeros((2, 2)))

    def test_scalar_arithmetic(self):
        vo, dv = v_obs(np.array([[2.0]]), np.array([[0.5]]))
        assert vo[0, 0] == pytest.approx(4.0)
        assert dv[0, 0] == pytest.approx(2.0)

    def test_total_missingness_is_singular(self):
        from markovfilter import SingularUpdateError

        m1 = np.diag([1.0 - 1e-14, 0.5])
        with pytest.raises(SingularUpdateError):
            v_obs(np.eye(2), m1)

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

    def test_missingness_cannot_reduce_variance(self, fitted_two_state):
        y, result = fitted_two_state
        sem = run_sem(y, F_ZROW, result)
        gap = 0.5 * (sem.delta_v + sem.delta_v.T)
        assert np.min(np.linalg.eigvalsh(gap)) > -1e-6

    def test_v_com_blocks_spd(self, fitted_two_state):
        _, result = fitted_two_state
        info = complete_info(result.expected_counts, result.theta_hat)
        vc = v_com(info)
        assert np.all(np.linalg.eigvalsh(0.5 * (vc + vc.T)) > 0)
