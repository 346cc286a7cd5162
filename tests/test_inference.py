"""Chi-square and z tests, confidence intervals, and their mutual
consistency."""

import dataclasses

import numpy as np
import pytest

from markovfilter import (
    NonPositiveVarianceError,
    SingularCovarianceError,
    chi_square_test,
    confidence_interval,
    z_test,
)
from markovfilter.inference import chi_square_sf


class TestChiSquare:
    def test_null_point_scores_zero(self):
        theta = np.array([0.2, 0.5])
        rep = chi_square_test(theta, theta, np.eye(2))
        assert rep.statistic == pytest.approx(0.0)
        assert rep.p_value == pytest.approx(1.0)
        assert rep.df == 2

    def test_identity_covariance_unit_shift(self):
        rep = chi_square_test(np.array([1.0, 1.0]), np.zeros(2), np.eye(2))
        assert rep.statistic == pytest.approx(2.0)
        assert rep.p_value == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_rank_deficient_covariance_raises(self):
        v = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularCovarianceError):
            chi_square_test(np.array([1.0, 0.0]), np.zeros(2), v)

    def test_invariant_under_layout_permutation(self):
        rng = np.random.default_rng(6)
        d = 6
        a = rng.normal(size=(d, d))
        v = a @ a.T + d * np.eye(d)
        diff = rng.normal(size=d)
        perm = rng.permutation(d)
        rep = chi_square_test(diff, np.zeros(d), v)
        rep_p = chi_square_test(diff[perm], np.zeros(d), v[np.ix_(perm, perm)])
        assert rep.statistic == pytest.approx(rep_p.statistic, rel=1e-12)

    @pytest.mark.parametrize("size", [1, 2])
    def test_a_null_of_another_size_is_refused(self, size):
        # broadcast, a size-1 null would score 6.0 on six coordinates
        with pytest.raises(ValueError, match=f"theta_hat has 6 coordinates but theta0 has {size}"):
            chi_square_test(np.full(6, 0.2), np.full(size, 0.1), 0.01 * np.eye(6))

    def test_p_value_matches_reference_distribution(self):
        from scipy.stats import chi2

        rng = np.random.default_rng(7)
        for _ in range(10):
            d = int(rng.integers(1, 8))
            diff = rng.normal(size=d)
            rep = chi_square_test(diff, np.zeros(d), np.eye(d))
            assert rep.p_value == pytest.approx(chi2.sf(rep.statistic, d), abs=1e-8)


class TestChiSquareTail:
    def test_matches_scipy_for_every_df_and_far_into_the_tail(self):
        from scipy.special import chdtrc

        xs = np.concatenate([[0.0, 1e-300, 1e-9], np.linspace(0.01, 60.0, 120), np.geomspace(60.0, 2000.0, 80)])
        for df in range(1, 241):
            got = [chi_square_sf(df, float(x)) for x in xs]
            np.testing.assert_allclose(got, chdtrc(df, xs), rtol=1e-12, atol=1e-300)

    def test_zero_statistic_has_p_value_one(self):
        assert all(chi_square_sf(df, 0.0) == 1.0 for df in range(1, 241))

    def test_far_tail_stays_positive_where_it_is_representable(self):
        # e^-600 is about 2.7e-261: still a normal float, and not rounded to 0
        assert 0.0 < chi_square_sf(2, 1200.0) == pytest.approx(np.exp(-600.0), rel=1e-13)


class TestZTest:
    def test_null_point(self):
        rep = z_test(0.4, 0.4, 0.01)
        assert rep.statistic == 0.0
        assert rep.p_value == pytest.approx(1.0)

    def test_two_sigma_shift(self):
        rep = z_test(0.6, 0.5, 0.0025)
        assert rep.statistic == pytest.approx(2.0)
        assert rep.p_value == pytest.approx(0.0455002638964, abs=1e-10)

    def test_rejects_exactly_when_past_the_critical_value(self):
        from scipy.stats import norm

        rng = np.random.default_rng(8)
        for _ in range(50):
            tau = float(rng.normal(scale=2.0))
            rep = z_test(tau, 0.0, 1.0)
            for alpha in (0.01, 0.05, 0.10):
                assert (rep.p_value < alpha) == (abs(tau) > norm.ppf(1 - alpha / 2))

    def test_nonpositive_variance_raises(self):
        with pytest.raises(NonPositiveVarianceError):
            z_test(0.5, 0.4, 0.0)


class TestConfidenceInterval:
    def test_reference_values(self):
        lo, hi = confidence_interval(0.5, 0.01, 0.05)
        assert lo == pytest.approx(0.30400360, abs=1e-6)
        assert hi == pytest.approx(0.69599640, abs=1e-6)

    def test_collapses_as_alpha_grows(self):
        lo, hi = confidence_interval(0.5, 0.01, 0.999999)
        assert hi - lo < 1e-4

    def test_agrees_with_z_test(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            theta = float(rng.uniform(0, 1))
            theta0 = float(rng.uniform(0, 1))
            s = float(rng.uniform(1e-4, 0.05))
            alpha = float(rng.choice([0.01, 0.05, 0.1]))
            lo, hi = confidence_interval(theta, s, alpha)
            rep = z_test(theta, theta0, s)
            inside = lo <= theta0 <= hi
            assert inside == (rep.p_value >= alpha)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            confidence_interval(0.5, 0.01, 1.5)

    def test_nonpositive_variance_raises(self):
        with pytest.raises(NonPositiveVarianceError):
            confidence_interval(0.5, -1.0, 0.05)


def test_report_carries_only_what_a_test_measures():
    for rep in (z_test(0.6, 0.5, 0.0025), chi_square_test(np.ones(2), np.zeros(2), np.eye(2))):
        assert [field.name for field in dataclasses.fields(rep)] == ["statistic", "df", "p_value"]


def test_variance_refusals_print_a_plain_float():
    # a numpy scalar's repr reads np.float64(...) under numpy 2
    with pytest.raises(NonPositiveVarianceError, match=r"^variance -0\.01 must be positive$"):
        z_test(0.5, 0.4, np.float64(-0.01))
    with pytest.raises(NonPositiveVarianceError, match=r"^variance 0\.0 must be positive$"):
        confidence_interval(0.5, np.float64(0.0), 0.05)
