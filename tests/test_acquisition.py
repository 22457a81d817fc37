import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpbo.acquisition import (
    AcquisitionError,
    AcquisitionSpec,
    confidence_bound,
    ei_monte_carlo_oracle,
    expected_improvement,
    probability_of_improvement,
)

finite = st.floats(-50, 50)
nonneg = st.floats(0, 20)


class TestProbabilityOfImprovement:
    def test_half_at_zero_gap(self):
        assert probability_of_improvement(1.3, 1.0, 1.2, 0.1) == 0.5

    def test_phi_one(self):
        # Phi(1) cross-checked by quadrature of the standard normal density
        from scipy.integrate import quad

        phi1, _ = quad(
            lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), -np.inf, 1.0
        )
        got = probability_of_improvement(1.0, 1.0, 0.0, 0.0)
        assert got == pytest.approx(phi1, abs=1e-9)
        assert got == pytest.approx(0.8413447461, abs=1e-9)

    def test_zero_sigma_no_strict_improvement(self):
        assert probability_of_improvement(0.0, 0.0, 0.0, 0.0) == 0.0
        assert probability_of_improvement(1.0, 0.0, 0.0, 0.0) == 1.0

    def test_non_finite_raises(self):
        with pytest.raises(AcquisitionError):
            probability_of_improvement(np.nan, 1.0, 0.0, 0.0)
        with pytest.raises(AcquisitionError):
            probability_of_improvement(0.0, -1.0, 0.0, 0.0)

    @given(mu=finite, sigma=nonneg, f_best=finite, xi=st.floats(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_in_unit_interval(self, mu, sigma, f_best, xi):
        p = probability_of_improvement(mu, sigma, f_best, xi)
        assert 0.0 <= p <= 1.0

    def test_nondecreasing_in_mu_on_grid(self):
        mus = np.linspace(-3, 3, 61)
        p = probability_of_improvement(mus, 0.8, 0.0, 0.1)
        assert np.all(np.diff(p) >= 0)

    def test_xi_never_increases_pi(self):
        mus = np.linspace(-3, 3, 31)
        for sigma in (0.0, 0.3, 2.0):
            p_lo = probability_of_improvement(mus, sigma, 0.0, 0.0)
            p_hi = probability_of_improvement(mus, sigma, 0.0, 0.5)
            assert np.all(p_hi <= p_lo)


class TestExpectedImprovement:
    def test_zero_sigma_no_improvement(self):
        assert expected_improvement(0.0, 0.0, 0.5, 0.0) == 0.0
        assert expected_improvement(0.5, 0.0, 0.5, 0.0) == 0.0

    def test_zero_sigma_positive_gap(self):
        assert expected_improvement(2.0, 0.0, 0.5, 0.5) == 1.0

    def test_phi_density_at_zero_gap(self):
        assert expected_improvement(0.0, 1.0, 0.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-12
        )

    def test_unit_gap_against_monte_carlo(self):
        est, se = ei_monte_carlo_oracle(1.0, 1.0, 0.0, 0.0, 10**7, seed=0)
        closed = expected_improvement(1.0, 1.0, 0.0, 0.0)
        assert closed == pytest.approx(1.0833154706, abs=1e-9)
        assert abs(closed - est) < 3 * se

    def test_sigma_limit_matches_zero_branch(self):
        for mu, f_best in [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5)]:
            lim = expected_improvement(mu, 1e-12, f_best, 0.0)
            exact = expected_improvement(mu, 0.0, f_best, 0.0)
            assert abs(lim - exact) < 1e-9

    @given(mu=finite, sigma=nonneg, f_best=finite, xi=st.floats(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_nonnegative(self, mu, sigma, f_best, xi):
        assert expected_improvement(mu, sigma, f_best, xi) >= 0.0

    def test_monotone_in_mu_on_grid(self):
        mus = np.linspace(-4, 4, 81)
        for sigma in (0.0, 0.5, 1.5):
            ei = expected_improvement(mus, sigma, 0.0, 0.1)
            assert np.all(np.diff(ei) >= -1e-15)

    def test_monotone_in_sigma_below_incumbent(self):
        sigmas = np.linspace(0.0, 3.0, 61)
        for mu in (-2.0, -0.5, 0.0):
            ei = expected_improvement(mu, sigmas, 0.1, 0.0)
            assert np.all(np.diff(ei) >= -1e-15)

    def test_xi_never_increases_ei(self):
        mus = np.linspace(-3, 3, 31)
        for sigma in (0.0, 0.4, 1.7):
            lo = expected_improvement(mus, sigma, 0.0, 0.0)
            hi = expected_improvement(mus, sigma, 0.0, 0.7)
            assert np.all(hi <= lo + 1e-15)

    def test_matches_monte_carlo_on_50_random_configs(self):
        rng = np.random.default_rng(8)
        for i in range(50):
            mu = float(rng.uniform(-3, 3))
            sigma = float(rng.uniform(0.05, 3.0))
            xi = float(rng.uniform(0, 1))
            # keep |Z| <= 4 so the empirical standard error is informative
            z = float(rng.uniform(-4, 3))
            f_best = mu - xi - z * sigma
            est, se = ei_monte_carlo_oracle(mu, sigma, f_best, xi, 200_000, seed=i)
            closed = expected_improvement(mu, sigma, f_best, xi)
            assert abs(closed - est) <= 3 * se + 1e-12

    def test_non_finite_raises(self):
        with pytest.raises(AcquisitionError):
            expected_improvement(np.inf, 1.0, 0.0, 0.0)


class TestConfidenceBound:
    def test_zero_upsilon_is_mean(self):
        assert confidence_bound(1.7, 3.0, 0.0, "lower") == 1.7
        assert confidence_bound(1.7, 3.0, 0.0, "upper") == 1.7

    def test_direct_substitution(self):
        assert confidence_bound(1.0, 2.0, 1.0, "lower") == -1.0

    @given(mu=finite, sigma=nonneg, upsilon=st.floats(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_bracketing(self, mu, sigma, upsilon):
        lcb = confidence_bound(mu, sigma, upsilon, "lower")
        ucb = confidence_bound(mu, sigma, upsilon, "upper")
        assert ucb == -confidence_bound(-mu, sigma, upsilon, "lower")
        assert lcb <= mu <= ucb

    @given(mu=finite | st.sampled_from([0.0, -0.0]), sigma=nonneg, upsilon=st.floats(0, 10))
    @example(mu=-0.0, sigma=0.0, upsilon=0.0)
    @example(mu=0.0, sigma=0.0, upsilon=1.0)
    @settings(max_examples=200, deadline=None)
    def test_lower_has_the_bits_of_mu_minus_upsilon_sigma(self, mu, sigma, upsilon):
        assert (np.float64(confidence_bound(mu, sigma, upsilon, "lower")).tobytes()
                == np.float64(mu - upsilon * sigma).tobytes())
        mus, sigmas = np.array([mu, -mu]), np.array([sigma, sigma])
        lcb = confidence_bound(mus, sigmas, upsilon, "lower")
        assert lcb.tobytes() == (mus - upsilon * sigmas).tobytes()

    def test_bad_direction_raises(self):
        with pytest.raises(AcquisitionError):
            confidence_bound(0.0, 1.0, 1.0, "sideways")


class TestMonteCarloOracle:
    def test_zero_sigma_exact(self):
        est, se = ei_monte_carlo_oracle(2.0, 0.0, 0.5, 0.5, 100, seed=0)
        assert est == 1.0 and se == 0.0
        est, _ = ei_monte_carlo_oracle(0.0, 0.0, 0.5, 0.0, 100, seed=0)
        assert est == 0.0

    def test_deterministic_given_seed(self):
        a = ei_monte_carlo_oracle(0.3, 1.2, 0.0, 0.1, 50_000, seed=42)
        b = ei_monte_carlo_oracle(0.3, 1.2, 0.0, 0.1, 50_000, seed=42)
        assert a == b

    def test_brackets_closed_form_at_z_zero(self):
        est, se = ei_monte_carlo_oracle(0.0, 1.0, 0.0, 0.0, 10**6, seed=3)
        assert abs(est - 1.0 / math.sqrt(2 * math.pi)) < 3 * se

    def test_bad_sample_count_raises(self):
        with pytest.raises(AcquisitionError):
            ei_monte_carlo_oracle(0.0, 1.0, 0.0, 0.0, 0, seed=0)


class TestAcquisitionSpec:
    def test_validation(self):
        with pytest.raises(AcquisitionError):
            AcquisitionSpec(family="entropy")
        with pytest.raises(AcquisitionError):
            AcquisitionSpec(xi=-0.1)
        with pytest.raises(AcquisitionError):
            AcquisitionSpec(xi_decay=0.0)

    @pytest.mark.parametrize(
        "kw", [{"xi": math.nan}, {"xi": math.inf}, {"family": "ucb", "upsilon": math.inf},
               {"family": "lcb", "upsilon": math.nan}],
    )
    def test_non_finite_knobs_raise(self, kw):
        with pytest.raises(AcquisitionError, match="finite"):
            AcquisitionSpec(**kw)

    def test_xi_schedule(self):
        const = AcquisitionSpec(xi=0.5)
        assert const.xi_at(10) == 0.5
        decayed = AcquisitionSpec(xi=0.5, xi_decay=0.5)
        assert decayed.xi_at(0) == 0.5
        assert decayed.xi_at(2) == 0.125

    def test_json_round_trip(self):
        spec = AcquisitionSpec(family="ucb", xi=0.2, upsilon=1.5, xi_decay=0.9)
        obj = json.loads(json.dumps(spec.to_json_dict()))
        assert AcquisitionSpec.from_json_dict(obj) == spec
        assert AcquisitionSpec.from_json_dict({"xi_decay": None}) == AcquisitionSpec()

    @pytest.mark.parametrize("obj", [{"xi_decy": 0.5}, [], None])
    def test_json_rejects_unknown_keys_and_non_objects(self, obj):
        with pytest.raises(AcquisitionError):
            AcquisitionSpec.from_json_dict(obj)
