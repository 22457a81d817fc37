import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from gpbo.kernels import (
    KernelError,
    KernelSpec,
    cross_covariance,
    eval_kernel,
    gram_matrix,
    kernel_grad_hyper,
)

ISO = KernelSpec("sq_exp_iso")


def matern_bessel_oracle(nu, r, length_scale=1.0, signal_variance=1.0):
    """General Matern covariance via the modified Bessel function K_nu."""
    r = np.asarray(r, dtype=float)
    scaled = math.sqrt(2.0 * nu) * r / length_scale
    out = np.where(
        scaled > 0,
        signal_variance
        * (2.0 ** (1.0 - nu) / gamma_fn(nu))
        * np.where(scaled > 0, scaled, 1.0) ** nu
        * kv(nu, np.where(scaled > 0, scaled, 1.0)),
        signal_variance,
    )
    return out if out.ndim else float(out)


def random_spec(rng, d):
    family = rng.choice(["sq_exp_iso", "sq_exp_ard", "matern"])
    n_ls = 1 if family == "sq_exp_iso" else d
    return KernelSpec(
        family=family,
        signal_variance=float(rng.uniform(0.2, 5.0)),
        length_scales=rng.uniform(0.3, 3.0, size=n_ls),
        nu=float(rng.choice([0.5, 1.5, 2.5])) if family == "matern" else None,
    )


class TestEvalKernel:
    def test_zero_distance_gives_signal_variance(self):
        assert eval_kernel(ISO, [0.3, -1.0], [0.3, -1.0]) == 1.0

    def test_iso_unit_distance(self):
        assert eval_kernel(ISO, [0.0], [1.0]) == pytest.approx(
            math.exp(-0.5), abs=1e-12
        )

    def test_ard_direct_substitution(self):
        spec = KernelSpec("sq_exp_ard", length_scales=[1.0, 1.0])
        assert eval_kernel(spec, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_matern_half_is_unsquared_exponential(self):
        spec = KernelSpec("matern", nu=0.5)
        assert eval_kernel(spec, [0.0], [1.0]) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_matern_three_halves_against_bessel_oracle(self):
        spec = KernelSpec("matern", nu=1.5)
        got = eval_kernel(spec, [0.0], [1.0])
        assert got == pytest.approx(matern_bessel_oracle(1.5, 1.0), abs=1e-9)
        assert got == pytest.approx((1 + math.sqrt(3)) * math.exp(-math.sqrt(3)))

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_matern_closed_forms_match_bessel_oracle_on_grid(self, nu):
        spec = KernelSpec("matern", signal_variance=2.3, length_scales=[0.7], nu=nu)
        for r in np.linspace(0.05, 4.0, 40):
            got = eval_kernel(spec, [0.0], [r])
            want = matern_bessel_oracle(nu, r, length_scale=0.7, signal_variance=2.3)
            assert got == pytest.approx(want, abs=1e-9)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(KernelError):
            eval_kernel(ISO, [0.0], [0.0, 1.0])
        spec = KernelSpec("sq_exp_ard", length_scales=[1.0, 1.0])
        with pytest.raises(KernelError):
            eval_kernel(spec, [0.0], [1.0])

    def test_non_finite_input_raises(self):
        with pytest.raises(KernelError):
            eval_kernel(ISO, [np.nan], [0.0])
        with pytest.raises(KernelError):
            eval_kernel(ISO, [0.0], [np.inf])

    @given(
        x=st.lists(st.floats(-10, 10), min_size=1, max_size=4),
        shift=st.lists(st.floats(-10, 10), min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_bound(self, x, shift):
        d = len(x)
        xp = [xi + s for xi, s in zip(x, shift[:d])]
        spec = KernelSpec("sq_exp_ard", signal_variance=1.7, length_scales=[1.0] * d)
        k_xy = eval_kernel(spec, x, xp)
        k_yx = eval_kernel(spec, xp, x)
        assert k_xy == k_yx
        assert 0 < k_xy <= 1.7 + 1e-12
        if any(abs(s) > 1e-6 for s in shift[:d]):
            assert k_xy < 1.7

    def test_matern_to_se_limit_tightens_with_nu(self):
        grid = np.arange(0.0, 3.0001, 0.1)
        se = np.array([eval_kernel(ISO, [0.0], [r]) for r in grid])
        sups = {}
        for nu in (1.5, 2.5):
            spec = KernelSpec("matern", nu=nu)
            vals = np.array([eval_kernel(spec, [0.0], [r]) for r in grid])
            sups[nu] = np.max(np.abs(vals - se))
        assert sups[2.5] < sups[1.5]


class TestGramMatrix:
    def test_single_point(self):
        K = gram_matrix(ISO, [[0.0]], jitter=0.0)
        assert K.shape == (1, 1) and K[0, 0] == 1.0

    def test_duplicate_points_regularized(self):
        K = gram_matrix(ISO, [[0.5], [0.5]], jitter=1e-10)
        np.testing.assert_allclose(
            K, [[1 + 1e-10, 1.0], [1.0, 1 + 1e-10]], rtol=0, atol=1e-15
        )

    def test_empty_raises(self):
        with pytest.raises(KernelError):
            gram_matrix(ISO, np.empty((0, 1)))

    def test_exact_symmetry(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 3))
        spec = random_spec(rng, 3)
        K = gram_matrix(spec, X, jitter=1e-10)
        assert np.array_equal(K, K.T)

    def test_psd_100_random_sets(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 21))
            d = int(rng.integers(1, 6))
            spec = random_spec(rng, d)
            X = rng.uniform(-3, 3, size=(n, d))
            K = gram_matrix(spec, X, jitter=1e-10 * spec.signal_variance)
            assert np.linalg.eigvalsh(K).min() >= -1e-12


class TestGradHyper:
    def test_zero_distance(self):
        rng = np.random.default_rng(0)
        for d in (1, 3):
            spec = random_spec(rng, d)
            x = rng.normal(size=d)
            g = kernel_grad_hyper(spec, x, x)
            assert g[0] == pytest.approx(spec.signal_variance)
            np.testing.assert_allclose(g[1:], 0.0, atol=1e-15)

    def test_iso_unit_distance_analytic(self):
        g = kernel_grad_hyper(ISO, [0.0], [1.0])
        assert g[1] == pytest.approx(math.exp(-0.5), abs=1e-12)

    @pytest.mark.parametrize(
        "x, x_prime", [([[0.0], [1.0]], [[2.0]]), ([0.0], [[2.0], [1.0]]), ([0.0], [0.0, 1.0])],
        ids=["two-points", "two-points-second", "dimension-mismatch"],
    )
    def test_rejects_what_eval_kernel_rejects(self, x, x_prime):
        with pytest.raises(KernelError, match="kernel_grad_hyper expects two single points"):
            kernel_grad_hyper(ISO, x, x_prime)
        with pytest.raises(KernelError, match="eval_kernel expects two single points"):
            eval_kernel(ISO, x, x_prime)

    def test_matches_finite_differences_100_random(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(100):
            d = int(rng.integers(1, 5))
            spec = random_spec(rng, d)
            x = rng.uniform(-2, 2, size=d)
            xp = x + rng.uniform(0.1, 2.0, size=d) * rng.choice([-1, 1], size=d)
            analytic = kernel_grad_hyper(spec, x, xp)
            z0 = spec.log_hypers()
            fd = np.empty_like(z0)
            for i in range(z0.size):
                zp, zm = z0.copy(), z0.copy()
                zp[i] += h
                zm[i] -= h
                fd[i] = (
                    eval_kernel(spec.with_log_hypers(zp), x, xp)
                    - eval_kernel(spec.with_log_hypers(zm), x, xp)
                ) / (2 * h)
            scale = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(analytic - fd) / scale) < 1e-6


class TestSpecValidation:
    def test_bad_family(self):
        with pytest.raises(KernelError):
            KernelSpec("periodic")

    def test_nonpositive_hypers(self):
        with pytest.raises(KernelError):
            KernelSpec("sq_exp_iso", signal_variance=0.0)
        with pytest.raises(KernelError):
            KernelSpec("sq_exp_iso", length_scales=[-1.0])

    def test_unsupported_nu(self):
        with pytest.raises(KernelError):
            KernelSpec("matern", nu=3.5)
        with pytest.raises(KernelError):
            KernelSpec("matern")

    def test_iso_needs_single_length_scale(self):
        with pytest.raises(KernelError):
            KernelSpec("sq_exp_iso", length_scales=[1.0, 2.0])

    def test_json_round_trip(self):
        for spec in (KernelSpec("matern", 2.5, [0.4, 1.2], nu=1.5), ISO):
            obj = json.loads(json.dumps(spec.to_json_dict()))
            assert set(obj) == {"family", "signal_variance", "length_scales", "nu"}
            assert KernelSpec.from_json_dict(obj) == spec
        with pytest.raises(KernelError, match="length_scales"):  # JSON true is not 1
            KernelSpec.from_json_dict({"family": "sq_exp_iso", "length_scales": [True]})


def test_cross_covariance_matches_pointwise():
    rng = np.random.default_rng(11)
    spec = random_spec(rng, 2)
    X = rng.normal(size=(5, 2))
    Z = rng.normal(size=(3, 2))
    K = cross_covariance(spec, X, Z)
    for i in range(5):
        for j in range(3):
            assert K[i, j] == pytest.approx(eval_kernel(spec, X[i], Z[j]), rel=1e-12)
