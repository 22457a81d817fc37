import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.optimize import Bounds, OptimizeResult, minimize
from scipy.optimize._lbfgsb_py import status_messages

from gpbo import gp as gp_module
from gpbo.gp import (
    FactorizationError,
    GpError,
    HyperBounds,
    ObservationSet,
    fit_posterior,
    log_marginal_likelihood,
    optimize_hypers,
    predict,
    sample_function,
    sample_posterior,
    sample_prior,
)
from gpbo.kernels import (
    KernelError,
    KernelSpec,
    cross_covariance,
    eval_kernel,
    gram_grad_hyper,
    gram_matrix,
)

ISO = KernelSpec("sq_exp_iso")
#: ``setulb``'s exit task on convergence
CONVERGENCE = 4
FAMILIES = [
    ("sq_exp_iso", None),
    ("sq_exp_ard", None),
    ("matern", 0.5),
    ("matern", 1.5),
    ("matern", 2.5),
]


def dense_posterior_oracle(obs, kernel, noise, X_star, prior_mean=0.0):
    """Joint-Gaussian conditioning via explicit dense inverses: mean and covariance."""
    K = gram_matrix(kernel, obs.X) + noise * np.eye(len(obs))
    scaled = (np.atleast_2d(X_star)[:, None, :] - obs.X[None, :, :]) / kernel.length_scales
    g, _ = reference_correlation(kernel.family, kernel.nu, np.sum(scaled**2, axis=-1))
    Ks = kernel.signal_variance * g
    Kss = gram_matrix(kernel, X_star)
    Kinv = np.linalg.inv(K)
    mean = prior_mean + Ks @ Kinv @ (obs.y - prior_mean)
    return mean, Kss - Ks @ Kinv @ Ks.T


def dense_predict_oracle(obs, kernel, noise, X_star, prior_mean=0.0):
    mean, cov = dense_posterior_oracle(obs, kernel, noise, X_star, prior_mean)
    return mean, np.diag(cov)


def block_width(n):
    return max(gp_module.PREDICT_BLOCK // (gp_module.BLOCK_ALIGN * n), 1) * gp_module.BLOCK_ALIGN


def block_boundary_cases(rng, obs, kernel, noise):
    """Prefixes of 1, b - 1, b, b + 1 and 3b + 7 random test points, b the
    block width at n, each with the oracle's mean and variance."""
    b = block_width(len(obs))
    X_star = rng.uniform(-2, 2, size=(3 * b + 7, obs.dimension))
    # the oracle's (m, m) prior covariance is taken 512 rows at a time
    chunks = [
        dense_predict_oracle(obs, kernel, noise, X_star[s : s + 512])
        for s in range(0, len(X_star), 512)
    ]
    mean_o, var_o = (np.concatenate(parts) for parts in zip(*chunks))
    return [(X_star[:m], mean_o[:m], var_o[:m]) for m in (1, b - 1, b, b + 1, 3 * b + 7)]


def check_against_oracle(post, X_star, pred, mean_o, var_o):
    np.testing.assert_allclose(pred.mean, mean_o, atol=1e-8)
    np.testing.assert_allclose(pred.variance, var_o, atol=1e-8)
    noisy = predict(post, X_star, include_noise=True)
    assert np.array_equal(noisy.variance, pred.variance + post.noise_variance)


def whole_matrix_predict(post, X_star):
    """``predict``'s diagonal path as one (n, m) computation, without blocks."""
    k_star = cross_covariance(post.kernel, post.train_X, X_star)
    mean = post.prior_mean + k_star.T @ post.alpha
    v = dtrmm(1.0, post.chol_inv, k_star.T, side=1, lower=1, trans_a=1).T
    variance = np.maximum(post.kernel.signal_variance - np.sum(v**2, axis=0), 0.0)
    return mean, variance


# minor page faults per predict call over 6144 candidates at n = 200, d = 6,
# read in a fresh process so no earlier test has moved the allocator's state
PAGE_FAULTS = """
import resource
import numpy as np
from gpbo.gp import ObservationSet, fit_posterior, predict
from gpbo.kernels import KernelSpec
rng = np.random.default_rng(47)
kernel = KernelSpec("matern", 1.0, np.full(6, 0.5), nu=2.5)
post = fit_posterior(ObservationSet(rng.uniform(0, 1, (200, 6)), rng.normal(size=200)), kernel, 1e-6)
X_star = rng.uniform(0, 1, (6144, 6))
for _ in range(3):
    predict(post, X_star)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    predict(post, X_star)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def dense_lml_oracle(obs, kernel, noise, prior_mean=0.0):
    """Multivariate-normal log density via explicit determinant + inverse."""
    n = len(obs)
    K = gram_matrix(kernel, obs.X) + noise * np.eye(n)
    resid = obs.y - prior_mean
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(
        -0.5 * resid @ np.linalg.inv(K) @ resid
        - 0.5 * logdet
        - 0.5 * n * math.log(2 * math.pi)
    )


def reference_chol(K, scale):
    """``gp._chol_with_jitter`` as the reference LML below was written against."""
    assert np.all(np.isfinite(K))
    jitter = 0.0
    max_jitter = gp_module.MAX_JITTER_SCALE * scale
    tiny = K.shape[0] * np.finfo(float).eps * scale
    while True:
        L, info = dpotrf(K + jitter * np.eye(K.shape[0]) if jitter else K, lower=1)
        if info == 0 and np.min(np.diagonal(L)) ** 2 > tiny:
            return L
        if jitter == 0.0:
            jitter = gp_module.DEFAULT_JITTER_SCALE * scale
            continue
        if jitter >= max_jitter:
            raise FactorizationError("reference ladder exhausted")
        jitter = min(2.0 * jitter, max_jitter)


def reference_correlation(family, nu, sq):
    """``kernels._correlation(..., slope=True)`` as plain expressions."""
    if family != "matern":
        g = np.exp(-0.5 * sq)
        return g, g
    r = np.sqrt(sq)
    if nu == 0.5:
        g = np.exp(-r)
        with np.errstate(invalid="ignore", divide="ignore"):
            return g, np.where(r > 0, g / r, 0.0)
    if nu == 1.5:
        a = math.sqrt(3.0) * r
        e = np.exp(-a)
        return (1.0 + a) * e, 3.0 * e
    a = math.sqrt(5.0) * r
    e = np.exp(-a)
    b = 1.0 + a
    return (b + a**2 / 3.0) * e, (5.0 / 3.0) * b * e


def reference_lml(X, resid, family, nu, signal_variance, length_scales, noise_variance, with_grad):
    """The LML and its gradient as one straight-line body, with no per-design
    index pairs, no per-family length-scale vector and no in-place kernel."""
    n, d = X.shape
    diffs = X[:, None, :] - X[None, :, :]
    D2 = (diffs * diffs).reshape(n * n, d)
    inv_l2 = np.broadcast_to(1.0 / np.square(length_scales), d)
    sq = (D2 @ inv_l2).reshape(n, n)
    g, c = reference_correlation(family, nu, sq)
    K = signal_variance * g
    K.flat[:: n + 1] += noise_variance
    L = reference_chol(K, signal_variance)
    alpha, _ = dpotrs(L, resid, lower=1)
    val = float(-0.5 * resid @ alpha - np.sum(np.log(np.diagonal(L))) - 0.5 * n * gp_module.LOG_2PI)
    if not with_grad:
        return val
    Kinv, _ = dpotri(L, lower=1)
    W = np.outer(alpha, alpha) - Kinv - np.tril(Kinv, -1).T
    ls_grad = 0.5 * signal_variance * inv_l2 * ((W * c).ravel() @ D2)
    grad = np.empty(np.size(length_scales) + 2)
    grad[0] = 0.5 * signal_variance * np.sum(W * g)
    grad[1:-1] = ls_grad.sum() if family == "sq_exp_iso" else ls_grad
    grad[-1] = 0.5 * noise_variance * np.trace(W)
    return val, grad


def random_instance(rng, n=None, m=4, d=None, family="sq_exp_ard", nu=None):
    d = d or int(rng.integers(1, 6))
    n = n or int(rng.integers(1, 21))
    kernel = KernelSpec(
        family,
        signal_variance=float(rng.uniform(0.5, 3.0)),
        length_scales=rng.uniform(0.5, 2.0, size=1 if family == "sq_exp_iso" else d),
        nu=nu,
    )
    obs = ObservationSet(
        X=rng.uniform(-2, 2, size=(n, d)), y=rng.normal(size=n)
    )
    X_star = rng.uniform(-2, 2, size=(m, d))
    noise = float(rng.uniform(0.01, 0.5))
    return obs, kernel, noise, X_star


class TestFitPosterior:
    def test_single_noiseless_obs_alpha(self):
        post = fit_posterior(ObservationSet([[0.0]], [1.0]), ISO, 0.0, prior_mean=0.0)
        assert post.alpha[0] == pytest.approx(1.0, abs=1e-9)

    def test_single_noisy_obs_alpha(self):
        post = fit_posterior(ObservationSet([[0.0]], [1.0]), ISO, 1.0, prior_mean=0.0)
        assert post.alpha[0] == pytest.approx(0.5, abs=1e-9)

    def test_alpha_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(5)
        obs, kernel, noise, _ = random_instance(rng, n=5)
        post = fit_posterior(obs, kernel, noise, prior_mean=0.0)
        K = gram_matrix(kernel, obs.X) + noise * np.eye(5)
        np.testing.assert_allclose(post.alpha, np.linalg.inv(K) @ obs.y, atol=1e-8)

    def test_factor_reconstructs_gram(self):
        rng = np.random.default_rng(9)
        obs, kernel, noise, _ = random_instance(rng, n=12)
        post = fit_posterior(obs, kernel, noise)
        K = gram_matrix(kernel, obs.X, jitter=post.jitter) + noise * np.eye(12)
        eye = post.chol_inv @ K @ post.chol_inv.T
        assert np.linalg.norm(eye - np.eye(12)) < 1e-8

    def test_empty_obs_raises(self):
        with pytest.raises(GpError):
            fit_posterior(ObservationSet(np.empty((0, 1)), []), ISO, 0.0)

    @pytest.mark.parametrize("fn", [fit_posterior, log_marginal_likelihood])
    @pytest.mark.parametrize("prior_mean", [math.nan, math.inf])
    def test_non_finite_prior_mean_raises(self, fn, prior_mean):
        with pytest.raises(GpError, match="prior_mean"):
            fn(ObservationSet([[0.0]], [1.0]), ISO, 0.1, prior_mean=prior_mean)

    def test_default_prior_mean_is_y_mean(self):
        obs = ObservationSet([[0.0], [1.0]], [2.0, 4.0])
        post = fit_posterior(obs, ISO, 0.1)
        assert post.prior_mean == pytest.approx(3.0)

    def test_duplicate_x_with_noise_is_fine(self):
        obs = ObservationSet([[0.5], [0.5]], [1.0, -1.0])
        post = fit_posterior(obs, ISO, 0.1, prior_mean=0.0)
        pred = predict(post, [[0.5]])
        assert np.all(np.isfinite(pred.mean)) and np.all(np.isfinite(pred.variance))

    def test_duplicate_x_noiseless_never_returns_non_finite(self):
        obs = ObservationSet([[0.5], [0.5]], [1.0, -1.0])
        try:
            post = fit_posterior(obs, ISO, 0.0, prior_mean=0.0)
        except FloatingPointError:
            return  # factorization refusal is acceptable
        pred = predict(post, [[0.2], [0.5]])
        assert np.all(np.isfinite(pred.mean)) and np.all(np.isfinite(pred.variance))


class TestPredict:
    def test_noiseless_interpolation(self):
        post = fit_posterior(ObservationSet([[0.0]], [1.0]), ISO, 0.0, prior_mean=0.0)
        pred = predict(post, [[0.0]])
        assert pred.mean[0] == pytest.approx(1.0, abs=1e-8)
        assert pred.variance[0] == pytest.approx(0.0, abs=1e-8)

    def test_reverts_to_prior_far_away(self):
        post = fit_posterior(ObservationSet([[0.0]], [1.0]), ISO, 0.0, prior_mean=0.0)
        pred = predict(post, [[100.0]])
        assert pred.mean[0] == pytest.approx(0.0, abs=1e-10)
        assert pred.variance[0] == pytest.approx(1.0, abs=1e-10)

    def test_noisy_scalar_case(self):
        post = fit_posterior(ObservationSet([[0.0]], [1.0]), ISO, 1.0, prior_mean=0.0)
        pred = predict(post, [[0.0]])
        assert pred.mean[0] == pytest.approx(0.5, abs=1e-9)
        assert pred.variance[0] == pytest.approx(0.5, abs=1e-9)

    def test_matches_joint_conditioning_oracle(self):
        rng = np.random.default_rng(17)
        obs, kernel, noise, X_star = random_instance(rng, n=6, m=4)
        post = fit_posterior(obs, kernel, noise, prior_mean=0.0)
        pred = predict(post, X_star)
        mean_o, var_o = dense_predict_oracle(obs, kernel, noise, X_star)
        np.testing.assert_allclose(pred.mean, mean_o, atol=1e-8)
        np.testing.assert_allclose(pred.variance, var_o, atol=1e-8)

    def test_include_noise_adds_noise_variance(self):
        post = fit_posterior(ObservationSet([[0.0]], [1.0]), ISO, 0.25, prior_mean=0.0)
        latent = predict(post, [[3.0]])
        noisy = predict(post, [[3.0]], include_noise=True)
        assert noisy.variance[0] == pytest.approx(latent.variance[0] + 0.25)

    def test_dimension_mismatch_raises(self):
        post = fit_posterior(ObservationSet([[0.0, 0.0]], [1.0]), ISO, 0.0)
        with pytest.raises(GpError):
            predict(post, [[1.0, 2.0, 3.0]])

    def test_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            obs, kernel, noise, X_star = random_instance(rng)
            post = fit_posterior(obs, kernel, noise)
            pred = predict(post, X_star)
            assert np.all(pred.variance <= kernel.signal_variance + 1e-8)

    def test_adding_observation_shrinks_variance(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            obs, kernel, _, X_star = random_instance(rng, n=8)
            post = fit_posterior(obs, kernel, 0.0, prior_mean=0.0)
            v_before = predict(post, X_star).variance
            new_x = rng.uniform(-2, 2, size=obs.dimension)
            obs2 = obs.append(new_x, float(rng.normal()))
            post2 = fit_posterior(obs2, kernel, 0.0, prior_mean=0.0)
            v_after = predict(post2, X_star).variance
            assert np.all(v_after <= v_before + 1e-8)

    @pytest.mark.parametrize("family, nu", FAMILIES)
    @pytest.mark.parametrize("n, d", [(1, 3), (7, 2), (200, 6)])
    def test_blocks_match_one_whole_matrix_call(self, one_blas_thread, n, d, family, nu):
        rng = np.random.default_rng(37 + n)
        obs, kernel, noise, _ = random_instance(rng, n=n, d=d, family=family, nu=nu)
        post = fit_posterior(obs, kernel, noise, prior_mean=0.0)
        for X_star, mean_o, var_o in block_boundary_cases(rng, obs, kernel, noise):
            pred = predict(post, X_star)
            mean_w, var_w = whole_matrix_predict(post, X_star)
            assert np.array_equal(pred.mean, mean_w) and np.array_equal(pred.variance, var_w)
            check_against_oracle(post, X_star, pred, mean_o, var_o)

    @pytest.mark.parametrize("d", [1, 2])
    def test_variance_matches_60_digit_reference_on_ill_conditioned_designs(self, d):
        """Noiseless Matern-5/2 designs of 25 points with cond(K) from 1e5 to
        1e13, where the float64 dense oracle loses too many digits; candidates
        at random and 1e-7 from training points."""
        mp = pytest.importorskip("mpmath")

        def matern52(x, z, ls):
            r = mp.sqrt(mp.fsum(((mp.mpf(a) - mp.mpf(b)) / mp.mpf(l)) ** 2
                                for a, b, l in zip(x, z, ls)))
            a = mp.sqrt(5) * r
            return (1 + a + a * a / 3) * mp.exp(-a)

        rng = np.random.default_rng(83 + d)
        X = rng.uniform(0, 1, (25, d))
        for target in (1e5, 1e7, 1e9, 1e11, 1e13):
            lo, hi = -10.0, 3.0  # log length-scale, bisected to reach the target
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                kernel = KernelSpec("matern", 1.0, np.full(d, math.exp(mid)), nu=2.5)
                if np.linalg.cond(gram_matrix(kernel, X)) < target:
                    lo = mid
                else:
                    hi = mid
            kernel = KernelSpec("matern", 1.0, np.full(d, math.exp(lo)), nu=2.5)
            assert target / 10 < np.linalg.cond(gram_matrix(kernel, X)) <= target
            post = fit_posterior(ObservationSet(X, rng.normal(size=25)), kernel, 0.0)
            near = X[rng.integers(0, 25, 10)] + 1e-7 * rng.choice([-1.0, 1.0], (10, d))
            X_star = np.vstack([rng.uniform(0, 1, (10, d)), near])
            ls = kernel.length_scales
            with mp.workdps(60):
                K = mp.matrix([[matern52(a, b, ls) + (post.jitter if i == j else 0)
                                for j, b in enumerate(X)] for i, a in enumerate(X)])
                Kinv = mp.inverse(K)
                ref = []
                for xs in X_star:
                    k = mp.matrix([matern52(a, xs, ls) for a in X])
                    ref.append(float(1 - (k.T * Kinv * k)[0]))
            np.testing.assert_allclose(predict(post, X_star).variance, ref, atol=1e-8)

    def test_narrowest_blocks_match_the_oracle(self):
        # the smallest n whose blocks are BLOCK_ALIGN wide, on a cheap 1-D
        # design; past n ~ 400 OpenBLAS may split one whole-matrix call across
        # threads, so bitwise equality with it holds only on one BLAS thread
        n = gp_module.PREDICT_BLOCK // gp_module.BLOCK_ALIGN + 1
        assert block_width(n) == gp_module.BLOCK_ALIGN
        rng = np.random.default_rng(41)
        obs, kernel, noise, _ = random_instance(rng, n=n, d=1, family="matern", nu=2.5)
        post = fit_posterior(obs, kernel, noise, prior_mean=0.0)
        for X_star, mean_o, var_o in block_boundary_cases(rng, obs, kernel, noise):
            check_against_oracle(post, X_star, predict(post, X_star), mean_o, var_o)

    def test_temporaries_stay_block_sized(self):
        # one whole-matrix pass held ~59 MB at this size; the blocks hold ~1 MB
        rng = np.random.default_rng(43)
        obs, kernel, noise, _ = random_instance(rng, n=200, d=6, family="matern", nu=2.5)
        post = fit_posterior(obs, kernel, noise)
        X_star = rng.uniform(-2, 2, size=(1024 * 6, 6))
        tracemalloc.start()
        try:
            predict(post, X_star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
        reason="counts page faults under glibc's allocator",
    )
    def test_blocks_fault_in_no_fresh_pages(self):
        """At n = 200 a block's (n, 192) arrays are 307 KB, above glibc's
        initial 128 KB mmap threshold; allocated afresh per block they cost
        about 340 minor page faults per call, in one workspace per call none."""
        result = subprocess.run(
            [sys.executable, "-c", PAGE_FAULTS],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert float(result.stdout) <= 64

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_test_point_raises(self, bad):
        post = fit_posterior(ObservationSet([[0.0, 0.0], [1.0, 0.5]], [1.0, -1.0]), ISO, 0.1)
        X_star = np.zeros((2 * block_width(2) + 5, 2))
        X_star[-1, 1] = bad  # in the last block
        with pytest.raises(KernelError):
            predict(post, X_star)

    def test_three_dimensional_test_points_raise(self):
        post = fit_posterior(ObservationSet([[0.0, 0.0], [1.0, 0.5]], [1.0, -1.0]), ISO, 0.1)
        with pytest.raises(KernelError, match="at most 2-dimensional"):
            predict(post, np.zeros((3, 2, 4)))

    def test_representer_property(self):
        rng = np.random.default_rng(31)
        obs, kernel, noise, X_star = random_instance(rng, n=10, m=3)
        post = fit_posterior(obs, kernel, noise, prior_mean=0.0)
        pred = predict(post, X_star)
        K = gram_matrix(kernel, obs.X) + noise * np.eye(10)
        for i, xs in enumerate(X_star):
            k_vec = np.array([eval_kernel(kernel, xs, xt) for xt in obs.X])
            # kernel expansion with the dual weights
            assert pred.mean[i] == pytest.approx(
                post.prior_mean + k_vec @ post.alpha, abs=1e-8
            )
            # linear combination of the observed values
            beta = k_vec @ np.linalg.inv(K)
            assert pred.mean[i] == pytest.approx(beta @ obs.y, abs=1e-8)


class TestLogMarginalLikelihood:
    def test_standard_normal_at_zero(self):
        obs = ObservationSet([[0.0]], [0.0])
        lml = log_marginal_likelihood(obs, ISO, 0.0, prior_mean=0.0)
        assert lml == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-9)

    def test_standard_normal_at_one(self):
        obs = ObservationSet([[0.0]], [1.0])
        lml = log_marginal_likelihood(obs, ISO, 0.0, prior_mean=0.0)
        assert lml == pytest.approx(-0.5 * math.log(2 * math.pi) - 0.5, abs=1e-9)

    def test_matches_dense_mvn_oracle(self):
        rng = np.random.default_rng(37)
        obs, kernel, noise, _ = random_instance(rng, n=4)
        lml = log_marginal_likelihood(obs, kernel, noise, prior_mean=0.0)
        assert lml == pytest.approx(dense_lml_oracle(obs, kernel, noise), abs=1e-8)

    def test_gradient_matches_finite_differences_50_random(self):
        rng = np.random.default_rng(41)
        h = 1e-5
        for _ in range(50):
            obs, kernel, noise, _ = random_instance(rng, n=int(rng.integers(3, 12)))
            _, grad = log_marginal_likelihood(
                obs, kernel, noise, prior_mean=0.0, with_grad=True
            )
            z0 = np.append(kernel.log_hypers(), math.log(noise))
            fd = np.empty_like(z0)
            for i in range(z0.size):
                zp, zm = z0.copy(), z0.copy()
                zp[i] += h
                zm[i] -= h
                lp = log_marginal_likelihood(
                    obs, kernel.with_log_hypers(zp[:-1]), math.exp(zp[-1]),
                    prior_mean=0.0,
                )
                lm = log_marginal_likelihood(
                    obs, kernel.with_log_hypers(zm[:-1]), math.exp(zm[-1]),
                    prior_mean=0.0,
                )
                fd[i] = (lp - lm) / (2 * h)
            scale = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(grad - fd) / scale) < 1e-5

    @pytest.mark.parametrize("noise_mode", ["fitted", "fixed"])
    @pytest.mark.parametrize("family, nu", FAMILIES)
    def test_every_family_matches_dense_oracle_and_finite_differences(
        self, family, nu, noise_mode
    ):
        """Fitted noise is differentiated like the kernel hypers.  Fixed noise is
        0, with its gradient entry exactly 0: a noiseless K is only well
        conditioned on points at least 0.6 apart, here a jittered 1-D grid."""
        rng = np.random.default_rng(61)
        h = 1e-5
        for _ in range(10):
            if noise_mode == "fitted":
                n = int(rng.integers(3, 12))
                obs, kernel, noise, _ = random_instance(rng, n=n, family=family, nu=nu)
            else:
                n = int(rng.integers(3, 6))
                grid = rng.choice(np.arange(-2.0, 3.0), size=n, replace=False)
                X = (grid + rng.uniform(-0.2, 0.2, n)).reshape(-1, 1)
                obs = ObservationSet(X, rng.normal(size=n))
                kernel = KernelSpec(family, float(rng.uniform(0.5, 3.0)), rng.uniform(0.5, 1.0), nu)
                noise = 0.0
            lml, grad = log_marginal_likelihood(
                obs, kernel, noise, prior_mean=0.0, with_grad=True
            )
            assert lml == pytest.approx(dense_lml_oracle(obs, kernel, noise), abs=1e-8)
            k = kernel.n_hypers

            def lml_at(z):
                return log_marginal_likelihood(
                    obs, kernel.with_log_hypers(z[:k]),
                    math.exp(z[k]) if noise else 0.0, prior_mean=0.0,
                )

            z0 = kernel.log_hypers()
            z0 = np.append(z0, math.log(noise)) if noise else z0
            fd = np.empty_like(z0)
            for i in range(z0.size):
                zp, zm = z0.copy(), z0.copy()
                zp[i] += h
                zm[i] -= h
                fd[i] = (lml_at(zp) - lml_at(zm)) / (2 * h)
            if not noise:
                assert grad[-1] == 0.0
                grad = grad[:-1]
            scale = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(grad - fd) / scale) < 1e-5

    @pytest.mark.parametrize("noise_mode", ["fitted", "fixed"])
    @pytest.mark.parametrize("family, nu", FAMILIES)
    def test_every_bit_matches_the_reference_body(self, family, nu, noise_mode):
        """Fixed noise is 0, so the larger noiseless designs also take the
        jitter ladder."""
        rng = np.random.default_rng(71)
        for n in (1, 2, 20, 60):
            for _ in range(3):
                obs, kernel, noise, _ = random_instance(rng, n=n, family=family, nu=nu)
                noise = noise if noise_mode == "fitted" else 0.0
                resid = obs.y - float(np.mean(obs.y))
                lml = gp_module._lml_function(obs.X, resid, family, nu)
                args = (kernel.signal_variance, kernel.length_scales, noise)
                ref_args = (obs.X, resid, family, nu, *args)
                assert lml(*args) == reference_lml(*ref_args, with_grad=False)
                val, grad = lml(*args, with_grad=True)
                ref_val, ref_grad = reference_lml(*ref_args, with_grad=True)
                assert val == ref_val and np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("family, nu", FAMILIES)
    def test_gradient_is_half_trace_of_w_times_gram_grad_hyper(self, family, nu):
        """d lml / d theta = 0.5 tr(W dK/dtheta), W = alpha alpha^T - K^-1, with
        dK/dtheta from gram_grad_hyper and dK/d log noise = noise I."""
        rng = np.random.default_rng(67)
        for n in (5, 60, 200):
            obs, kernel, noise, _ = random_instance(rng, n=n, family=family, nu=nu)
            _, grad = log_marginal_likelihood(obs, kernel, noise, with_grad=True)
            post = fit_posterior(obs, kernel, noise)
            Kinv = post.chol_inv.T @ post.chol_inv
            W = np.outer(post.alpha, post.alpha) - Kinv
            dKs = gram_grad_hyper(kernel, obs.X, obs.X) + [noise * np.eye(n)]
            oracle = [0.5 * np.sum(W * dK) for dK in dKs]
            np.testing.assert_allclose(grad, oracle, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("nu", [1.5, 2.5])
    def test_non_finite_gram_raises_instead_of_failing_the_restart(self, nu):
        """Coordinates 1e200 apart overflow the squared distance, and the Matern
        3/2 and 5/2 closed forms turn r = inf into inf * 0 = nan.  That must raise GpError,
        never become the failed-restart sentinel that L-BFGS steps away from."""
        obs = ObservationSet([[0.0], [1e200], [1.0]], [0.0, 1.0, 0.5])
        kernel = KernelSpec("matern", nu=nu)
        with np.errstate(all="ignore"):
            assert not np.all(np.isfinite(gram_matrix(kernel, obs.X)))
            with pytest.raises(GpError):
                log_marginal_likelihood(obs, kernel, 0.1, with_grad=True)
            with pytest.raises(GpError):
                optimize_hypers(obs, family="matern", nu=nu)


class TestOptimizeHypers:
    def test_json_boolean_bound_rejected(self):
        with pytest.raises(GpError, match="signal_variance"):
            HyperBounds.from_json_dict({"signal_variance": [True, 100]})

    def test_result_beats_every_restart_start(self):
        rng = np.random.default_rng(43)
        obs, _, noise, _ = random_instance(rng, n=15, d=2)
        bounds = HyperBounds((1e-2, 1e2), (1e-1, 1e1), (1e-6, 1.0))
        kernel, noise_hat = optimize_hypers(
            obs, family="sq_exp_ard", bounds=bounds, n_restarts=6, seed=1
        )
        best = log_marginal_likelihood(obs, kernel, noise_hat)
        lo = np.concatenate(
            ([math.log(1e-2)], [math.log(1e-1)] * 2, [math.log(1e-6)])
        )
        hi = np.concatenate(([math.log(1e2)], [math.log(1e1)] * 2, [math.log(1.0)]))
        start_rng = np.random.default_rng(1)
        for _ in range(6):
            z = start_rng.uniform(lo, hi)
            spec0 = KernelSpec(
                "sq_exp_ard", math.exp(z[0]), np.exp(z[1:3])
            )
            assert best >= log_marginal_likelihood(obs, spec0, math.exp(z[3])) - 1e-9

    def test_recovers_known_length_scale(self):
        from gpbo.gp import sample_prior

        rng = np.random.default_rng(0)
        X = rng.uniform(-5, 5, size=(50, 1))
        f = sample_prior(ISO, X, 1, seed=123)[0]
        y = f + 0.1 * np.random.default_rng(7).standard_normal(50)
        obs = ObservationSet(X, y)
        kernel, _ = optimize_hypers(
            obs,
            family="sq_exp_iso",
            bounds=HyperBounds((1e-2, 1e2), (1e-2, 1e2), (1e-4, 1.0)),
            n_restarts=8,
            seed=2,
        )
        assert 0.5 <= kernel.length_scales[0] <= 2.0

    def test_stationarity_or_active_bound(self):
        rng = np.random.default_rng(47)
        obs, _, _, _ = random_instance(rng, n=12, d=1)
        bounds = HyperBounds((1e-2, 1e2), (1e-1, 1e1), (1e-6, 1.0))
        kernel, noise_hat = optimize_hypers(
            obs, family="sq_exp_iso", bounds=bounds, n_restarts=4, seed=3
        )
        _, grad = log_marginal_likelihood(obs, kernel, noise_hat, with_grad=True)
        z = np.append(kernel.log_hypers(), math.log(noise_hat))
        lo = np.log([1e-2, 1e-1, 1e-6])
        hi = np.log([1e2, 1e1, 1.0])
        at_bound = (np.abs(z - lo) < 1e-6) | (np.abs(z - hi) < 1e-6)
        free_grad = grad[~at_bound]
        assert free_grad.size == 0 or np.linalg.norm(free_grad) < 1e-3

    @pytest.mark.parametrize("family, nu", FAMILIES)
    def test_duplicated_noiseless_point_goes_through_the_jitter_ladder(self, family, nu):
        """A repeated row makes K singular at zero noise.  The pivot that rounding
        leaves barely positive must count as failed, or the fit chases hypers
        whose log-determinant is rounding error."""
        rng = np.random.default_rng(71)
        X = rng.uniform(0, 1, (8, 2))
        X = np.vstack([X, X[3]])
        obs = ObservationSet(X, np.sin(3 * X[:, 0]) + X[:, 1] ** 2)
        kernel, noise = optimize_hypers(obs, family=family, nu=nu, fixed_noise=0.0)
        assert noise == 0.0 and np.all(np.isfinite(kernel.log_hypers()))
        assert fit_posterior(obs, kernel, 0.0).jitter > 0

    def test_too_few_observations_raises(self):
        with pytest.raises(GpError):
            optimize_hypers(ObservationSet([[0.0]], [1.0]))

    @pytest.mark.parametrize(
        "family, nu", [("sq_exp_iso", None), ("sq_exp_ard", None), ("matern", 2.5)]
    )
    def test_fixed_noise_is_returned_exactly(self, family, nu):
        rng = np.random.default_rng(53)
        obs, _, _, _ = random_instance(rng, n=10, d=2)
        kernel, noise_hat = optimize_hypers(
            obs, family=family, nu=nu, n_restarts=2, seed=4, fixed_noise=0.0123
        )
        assert noise_hat == 0.0123
        assert kernel.family == family and kernel.nu == nu
        assert kernel.length_scales.size == (1 if family == "sq_exp_iso" else 2)

    @pytest.mark.parametrize("fit_noise", [True, False])
    def test_warm_start_never_ends_below_its_own_lml(self, fit_noise):
        bounds = HyperBounds((1e-2, 1e2), (1e-1, 1e1), (1e-6, 1.0))
        rng = np.random.default_rng(59)
        for _ in range(5):
            obs, kernel0, noise0, _ = random_instance(rng, n=12, d=2)
            kernel, noise_hat = optimize_hypers(
                obs,
                family="sq_exp_ard",
                bounds=bounds,
                n_restarts=1,
                fixed_noise=None if fit_noise else noise0,
                warm_start=(kernel0, noise0),
            )
            start = log_marginal_likelihood(obs, kernel0, noise0)
            assert log_marginal_likelihood(obs, kernel, noise_hat) >= start

    @pytest.mark.parametrize(
        "n_restarts, warm", [(0, False), (-1, False), (0, True), (-1, True)]
    )
    def test_no_start_at_all_is_an_input_error(self, n_restarts, warm):
        obs, kernel0, noise0, _ = random_instance(np.random.default_rng(61), n=6, d=2)
        warm_start = (kernel0, noise0) if warm else None
        with pytest.raises(GpError, match="n_restarts"):
            optimize_hypers(
                obs, family="sq_exp_ard", n_restarts=n_restarts, warm_start=warm_start
            )

    # which L-BFGS starts optimize_hypers runs, and in what order

    BOUNDS = HyperBounds((1e-2, 1e2), (1e-1, 1e1), (1e-6, 1.0))
    WARM = (KernelSpec("sq_exp_ard", 2.0, [0.5, 3.0]), 0.01)  # inside BOUNDS
    SEED = 5

    def obs(self):
        return random_instance(np.random.default_rng(73), n=10, d=2)[0]

    @staticmethod
    def searched(z):
        """``[log s2, log l1, log l2, log noise]`` in the fitted-noise search's
        coordinates, ``[log l1, log l2, log lam]`` with lam = noise / s2."""
        return np.append(z[1:-1], z[-1] - z[0])

    def draws(self, k):
        """The first ``k`` log-uniform starts for seed ``SEED``, mapped."""
        b = self.BOUNDS
        pairs = [b.signal_variance, b.length_scale, b.length_scale, b.noise_variance]
        lo = np.array([math.log(a) for a, _ in pairs])
        hi = np.array([math.log(b) for _, b in pairs])
        rng = np.random.default_rng(self.SEED)
        return [self.searched(rng.uniform(lo, hi)) for _ in range(k)]

    def length_scales(self, z):
        """The length-scales a fit at search point ``z`` returns: exp(log
        bound) can round past the bound, so they are clipped to it."""
        return np.clip(np.exp(z[:2]), *self.BOUNDS.length_scale)

    def warm_z(self):
        spec, noise = self.WARM
        return self.searched(np.append(spec.log_hypers(), math.log(noise)))

    def record_starts(self, monkeypatch, fail=lambda i: False):
        """Stub ``gp._lbfgsb``; returns the ``(z0, result)`` of every run.

        Run ``i`` (from 0) ends at the failed-factorization sentinel when
        ``fail(i)`` holds, as a start whose every evaluation fails converges
        there, and runs L-BFGS-B otherwise.
        """
        runs = []
        real = gp_module._lbfgsb

        def stub(fun, z0, lo, hi):
            failed = (1e25, z0.copy(), CONVERGENCE)
            f, x, task = failed if fail(len(runs)) else real(fun, z0, lo, hi)
            runs.append((z0.copy(), OptimizeResult(fun=f, x=x)))
            return f, x, task

        monkeypatch.setattr(gp_module, "_lbfgsb", stub)
        return runs

    def fit(self, n_restarts, warm):
        return optimize_hypers(
            self.obs(),
            family="sq_exp_ard",
            bounds=self.BOUNDS,
            n_restarts=n_restarts,
            seed=self.SEED,
            warm_start=self.WARM if warm else None,
        )

    @pytest.mark.parametrize("n_restarts", [1, 3])
    def test_warm_start_takes_the_last_draws_place(self, monkeypatch, n_restarts):
        runs = self.record_starts(monkeypatch)
        self.fit(n_restarts, warm=True)
        expected = self.draws(n_restarts - 1) + [self.warm_z()]
        assert len(runs) == n_restarts
        for (z0, _), want in zip(runs, expected):
            assert np.array_equal(z0, want)

    @pytest.mark.parametrize("n_restarts", [1, 3])
    def test_displaced_draw_runs_when_every_start_fails(self, monkeypatch, n_restarts):
        runs = self.record_starts(monkeypatch, fail=lambda i: i < n_restarts)
        kernel, noise = self.fit(n_restarts, warm=True)
        assert len(runs) == n_restarts + 1
        z0, res = runs[-1]
        assert np.array_equal(z0, self.draws(n_restarts)[-1])
        assert np.array_equal(kernel.length_scales, self.length_scales(res.x))
        assert noise == pytest.approx(kernel.signal_variance * math.exp(res.x[-1]), rel=1e-15)

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("n_restarts", [1, 3])
    def test_every_start_failing_raises(self, monkeypatch, n_restarts, warm):
        """Each start runs once: ``n_restarts`` of them, and with a warm start
        the draw it displaced."""
        runs = self.record_starts(monkeypatch, fail=lambda i: True)
        with pytest.raises(FactorizationError):
            self.fit(n_restarts, warm)
        assert len(runs) == n_restarts + warm
        random_starts = [z0 for z0, _ in runs if not np.array_equal(z0, self.warm_z())]
        for z0, want in zip(random_starts, self.draws(n_restarts), strict=True):
            assert np.array_equal(z0, want)

    @pytest.mark.parametrize("task", [CONVERGENCE, gp_module.LBFGS_ABNORMAL])
    def test_only_an_abnormal_exit_is_evaluated_again(self, monkeypatch, task):
        """Run 0 stops at its start and reports a value below every other run's,
        as a failed line-search trial's can be.  After an ABNORMAL exit the
        fit ranks that run by its point's own value and so takes another
        run's point; after any other exit it trusts the value."""
        real = gp_module._lbfgsb
        runs = []

        def stub(fun, z0, lo, hi):
            f, x, exit_task = real(fun, z0, lo, hi)
            if not runs:
                f, x, exit_task = -1e300, np.clip(z0, lo, hi), task
            runs.append((x, fun(x)[0]))
            return f, x, exit_task

        monkeypatch.setattr(gp_module, "_lbfgsb", stub)
        kernel, _ = self.fit(3, warm=False)
        if task == CONVERGENCE:
            want = runs[0][0]
        else:
            want = min(runs, key=lambda run: run[1])[0]
            assert want is not runs[0][0]
        assert np.array_equal(kernel.length_scales, self.length_scales(want))


class TestConcentratedLikelihood:
    """``optimize_hypers``' fitted-noise objective: -lml / n over z = [log
    length_scales..., log lam], lam = noise / s2, with the signal variance s2
    set in closed form inside its bounds and the noise's."""

    # which end of the s2 interval is active: s2 = q / n inside it, or a
    # signal bound, or a noise bound over lam
    BRANCHES = ["interior", "signal_lo", "signal_hi", "noise_lo", "noise_hi"]

    @staticmethod
    def bounds_for(branch, s2, lam):
        """Bounds that make ``branch`` active at the unclipped optimum ``s2``,
        with a factor of 2 to spare on either side."""
        wide_s, wide_noise = (1e-6 * s2, 1e6 * s2), (1e-6 * s2 * lam, 1e6 * s2 * lam)
        return {
            "interior": HyperBounds((s2 / 10, 10 * s2), (1e-2, 1e1),
                                    (s2 * lam / 10, 10 * s2 * lam)),
            "signal_lo": HyperBounds((2 * s2, 20 * s2), (1e-2, 1e1), wide_noise),
            "signal_hi": HyperBounds((s2 / 20, s2 / 2), (1e-2, 1e1), wide_noise),
            "noise_lo": HyperBounds(wide_s, (1e-2, 1e1), (2 * s2 * lam, 20 * s2 * lam)),
            "noise_hi": HyperBounds(wide_s, (1e-2, 1e1), (s2 * lam / 20, s2 * lam / 2)),
        }[branch]

    @staticmethod
    def expected_s2(branch, bounds, lam):
        (s_lo, s_hi), (noise_lo, noise_hi) = bounds.signal_variance, bounds.noise_variance
        return {"signal_lo": s_lo, "signal_hi": s_hi,
                "noise_lo": noise_lo / lam, "noise_hi": noise_hi / lam}.get(branch)

    @staticmethod
    def objective(monkeypatch, obs, family, nu, bounds):
        """The ``neg_lml`` that ``optimize_hypers`` hands L-BFGS-B, and its fit."""
        funs = []
        real = gp_module._lbfgsb

        def record(fun, z0, lo, hi):
            funs.append(fun)
            return real(fun, z0, lo, hi)

        monkeypatch.setattr(gp_module, "_lbfgsb", record)
        fit = optimize_hypers(obs, family=family, nu=nu, bounds=bounds, n_restarts=2)
        monkeypatch.setattr(gp_module, "_lbfgsb", real)
        return funs[0], fit

    def cases(self, family, nu):
        """``(obs, z, unclipped s2)`` at random length-scales and ratio."""
        rng = np.random.default_rng(97)
        for _ in range(4):
            obs, kernel, _, _ = random_instance(rng, n=int(rng.integers(4, 15)), d=2,
                                                family=family, nu=nu)
            lam = float(rng.uniform(0.01, 1.0))
            unit = KernelSpec(family, 1.0, kernel.length_scales, nu)
            C = gram_matrix(unit, obs.X) + lam * np.eye(len(obs))
            resid = obs.y - np.mean(obs.y)
            s2 = float(resid @ np.linalg.solve(C, resid)) / len(obs)
            yield obs, np.append(np.log(kernel.length_scales), math.log(lam)), s2

    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("family, nu", FAMILIES)
    def test_value_and_gradient_on_every_branch(self, monkeypatch, family, nu, branch):
        h = 1e-5
        for obs, z, s2_free in self.cases(family, nu):
            lam = math.exp(z[-1])
            bounds = self.bounds_for(branch, s2_free, lam)
            fun, _ = self.objective(monkeypatch, obs, family, nu, bounds)
            val, grad = fun(z)
            _, s2 = gp_module._lml_function(obs.X, obs.y - np.mean(obs.y), family, nu)(
                1.0, np.exp(z[:-1]), lam, bounds=bounds
            )
            want_s2 = self.expected_s2(branch, bounds, lam)
            assert s2 == (want_s2 if want_s2 is not None else pytest.approx(s2_free, rel=1e-10))
            kernel = KernelSpec(family, s2, np.exp(z[:-1]), nu)
            lml = log_marginal_likelihood(obs, kernel, s2 * lam)
            assert -val == pytest.approx(lml / len(obs), rel=1e-12, abs=0)
            fd = np.empty_like(z)
            for i in range(z.size):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                fd[i] = (fun(zp)[0] - fun(zm)[0]) / (2 * h)
            scale = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(grad - fd) / scale) < 1e-5

    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("family, nu", FAMILIES)
    def test_fit_lies_inside_the_bounds(self, monkeypatch, family, nu, branch):
        for obs, z, s2_free in self.cases(family, nu):
            bounds = self.bounds_for(branch, s2_free, math.exp(z[-1]))
            _, (kernel, noise) = self.objective(monkeypatch, obs, family, nu, bounds)
            (s_lo, s_hi), (l_lo, l_hi) = bounds.signal_variance, bounds.length_scale
            assert s_lo <= kernel.signal_variance <= s_hi
            assert np.all((l_lo <= kernel.length_scales) & (kernel.length_scales <= l_hi))
            assert bounds.noise_variance[0] <= noise <= bounds.noise_variance[1]

    @pytest.mark.parametrize("family, nu", FAMILIES)
    def test_noiseless_data_fit_inside_the_default_bounds(self, family, nu):
        """Noiseless data drive the noise to or near its lower bound, which
        then sets s2."""
        rng = np.random.default_rng(101)
        X = rng.uniform(0, 1, (12, 2))
        obs = ObservationSet(X, np.sin(3 * X[:, 0]) + X[:, 1] ** 2)
        b = HyperBounds()
        kernel, noise = optimize_hypers(obs, family=family, nu=nu, n_restarts=3)
        assert b.signal_variance[0] <= kernel.signal_variance <= b.signal_variance[1]
        assert np.all((b.length_scale[0] <= kernel.length_scales)
                      & (kernel.length_scales <= b.length_scale[1]))
        assert b.noise_variance[0] <= noise <= b.noise_variance[1]


class TestLbfgsb:
    """``gp._lbfgsb`` against ``scipy.optimize.minimize(method="L-BFGS-B")`` on
    ``optimize_hypers``' own objectives: the same ``(fun, x)`` bits from the
    same evaluations.  ``_lbfgsb`` calls scipy's private ``setulb``; if scipy
    changes it, this is the test that fails."""

    def problems(self, monkeypatch, obs, family, nu, fixed_noise):
        """``(neg_lml, z0, lo, hi)`` of every start of one ``optimize_hypers``."""
        runs = []
        real = gp_module._lbfgsb

        def record(fun, z0, lo, hi):
            runs.append((fun, z0.copy(), lo, hi))
            return real(fun, z0, lo, hi)

        monkeypatch.setattr(gp_module, "_lbfgsb", record)
        optimize_hypers(obs, family=family, nu=nu, fixed_noise=fixed_noise, n_restarts=4)
        monkeypatch.setattr(gp_module, "_lbfgsb", real)
        return runs

    def check(self, fun, z0, lo, hi):
        """Asserts the same result and evaluation points; returns minimize's result."""
        points = []

        def counted(z):
            points.append(z.tobytes())
            return fun(z)

        options = {"maxiter": gp_module.LBFGS_MAXITER}
        res = minimize(counted, z0, jac=True, method="L-BFGS-B", bounds=Bounds(lo, hi), options=options)
        theirs, points[:] = points[:], []
        f, x, task = gp_module._lbfgsb(counted, z0, lo, hi)
        assert float(f).hex() == float(res.fun).hex()
        assert x.tobytes() == res.x.tobytes()
        assert res.message.startswith(status_messages[task] + ":")
        assert points == theirs
        return res

    @pytest.mark.parametrize("noise_mode", ["fitted", "fixed"])
    @pytest.mark.parametrize("family, nu", FAMILIES)
    def test_same_bits_as_minimize(self, monkeypatch, family, nu, noise_mode):
        rng = np.random.default_rng(79)
        for _ in range(3):
            obs, _, noise, _ = random_instance(rng, n=int(rng.integers(5, 25)), family=family, nu=nu)
            fixed = noise if noise_mode == "fixed" else None
            problems = self.problems(monkeypatch, obs, family, nu, fixed)
            for fun, z0, lo, hi in problems:
                self.check(fun, z0, lo, hi)
            fun, _, lo, hi = problems[0]
            # starts on a bound: every coordinate at lo, at hi, and alternating
            for z0 in (lo, hi, np.where(np.arange(lo.size) % 2, lo, hi)):
                self.check(fun, z0.copy(), lo, hi)

    @pytest.mark.parametrize("noise_mode", ["fitted", "fixed"])
    @pytest.mark.parametrize("family, nu", FAMILIES)
    def test_start_where_every_evaluation_fails(self, monkeypatch, family, nu, noise_mode):
        obs, _, noise, _ = random_instance(np.random.default_rng(83), n=10, family=family, nu=nu)
        fixed = noise if noise_mode == "fixed" else None
        problems = self.problems(monkeypatch, obs, family, nu, fixed)

        def no_factor(K, scale):
            raise FactorizationError("stub")

        monkeypatch.setattr(gp_module, "_chol_with_jitter", no_factor)
        for fun, z0, lo, hi in problems:
            res = self.check(fun, z0, lo, hi)
            assert res.fun == 1e25 and res.nfev == 1

    @pytest.mark.parametrize("noise_mode", ["fitted", "fixed"])
    @pytest.mark.parametrize("family, nu", FAMILIES)
    def test_iteration_cap(self, monkeypatch, family, nu, noise_mode):
        obs, _, noise, _ = random_instance(np.random.default_rng(89), n=15, family=family, nu=nu)
        fixed = noise if noise_mode == "fixed" else None
        problems = self.problems(monkeypatch, obs, family, nu, fixed)
        monkeypatch.setattr(gp_module, "LBFGS_MAXITER", 2)
        results = [self.check(*problem) for problem in problems]
        assert any(res.nit == 2 and "ITERATIONS REACHED LIMIT" in res.message for res in results)

    @pytest.mark.parametrize("family, nu", FAMILIES)
    def test_abnormal_exit(self, monkeypatch, one_blas_thread, family, nu):
        """A noiseless design with two points 1e-9 apart: the jitter ladder
        switches on and off along the line searches, which then fail.  The
        value reported is the failed trial's, which need not be ``fun(x)``.
        Which start ends ABNORMAL depends on the BLAS's summation order, so
        the test runs on one thread; the design seed is one where every
        family ends a start ABNORMAL there (and on two threads as well)."""
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (8, 2))
        X = np.vstack([X, X[3] + rng.uniform(-1e-9, 1e-9, 2)])
        obs = ObservationSet(X, np.sin(3 * X[:, 0]) + X[:, 1] ** 2)
        problems = self.problems(monkeypatch, obs, family, nu, 0.0)
        results = [self.check(*problem) for problem in problems]
        assert any(res.message.startswith("ABNORMAL") for res in results)


class TestSampling:
    def test_same_seed_identical_draws(self):
        X = np.linspace(0, 1, 7).reshape(-1, 1)
        a = sample_prior(ISO, X, 5, seed=99)
        b = sample_prior(ISO, X, 5, seed=99)
        assert np.array_equal(a, b)

    def test_posterior_draws_pass_through_training_values(self):
        obs = ObservationSet([[-1.0], [0.0], [1.0]], [0.5, -0.2, 0.9])
        post = fit_posterior(obs, ISO, 0.0, prior_mean=0.0)
        draws = sample_posterior(post, obs.X, 200, seed=5)
        np.testing.assert_allclose(
            draws, np.tile(obs.y, (200, 1)), atol=1e-5
        )

    @pytest.mark.parametrize("family, nu", FAMILIES)
    def test_posterior_mean_and_covariance_match_the_oracle(self, monkeypatch, family, nu):
        rng = np.random.default_rng(53)
        obs, kernel, noise, X_star = random_instance(rng, n=9, m=6, family=family, nu=nu)
        post = fit_posterior(obs, kernel, noise, prior_mean=0.0)
        handed = []
        monkeypatch.setattr(
            gp_module, "sample_function", lambda mean, cov, n, seed: handed.append((mean, cov))
        )
        sample_posterior(post, X_star, 3, seed=0)
        (mean, cov), = handed
        mean_o, cov_o = dense_posterior_oracle(obs, kernel, noise, X_star)
        np.testing.assert_allclose(mean, mean_o, atol=1e-8)
        np.testing.assert_allclose(cov, cov_o, atol=1e-8)
        assert np.array_equal(cov, cov.T)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_test_point_raises(self, bad):
        post = fit_posterior(ObservationSet([[0.0], [1.0]], [1.0, -1.0]), ISO, 0.1)
        with pytest.raises(KernelError):
            sample_posterior(post, [[0.5], [bad], [2.0]], 3, seed=0)

    def test_indefinite_covariance_raises(self):
        with pytest.raises(FactorizationError):
            sample_function(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 3, seed=0)

    def test_prior_empirical_covariance(self):
        X = np.array([[0.0], [0.7]])
        n = 20000
        draws = sample_prior(ISO, X, n, seed=12)
        emp = np.cov(draws.T, bias=True)[0, 1]
        want = eval_kernel(ISO, [0.0], [0.7])
        # covariance estimator SE for bivariate normal: sqrt((1 + rho^2)/n)
        se = math.sqrt((1 + want**2) / n)
        assert abs(emp - want) < 4 * se


class TestPointArrays:
    """Every kernel and GP function reads point input by one rule: a 1-D array
    is m one-coordinate points, or one point when the dimension is known to be
    above 1."""

    @pytest.mark.parametrize(
        "kernel",
        [ISO, KernelSpec("matern", 1.3, [0.4], nu=2.5)],
        ids=["sq_exp_iso", "matern-d1"],
    )
    def test_1d_array_is_m_points_everywhere(self, kernel):
        x = np.linspace(0, 1, 5)
        X = x.reshape(-1, 1)
        assert np.array_equal(gram_matrix(kernel, x), gram_matrix(kernel, X))
        assert gram_matrix(kernel, x).shape == (5, 5)
        assert np.array_equal(cross_covariance(kernel, x, x), cross_covariance(kernel, X, X))
        for g, g_ref in zip(gram_grad_hyper(kernel, x, x), gram_grad_hyper(kernel, X, X)):
            assert g.shape == (5, 5) and np.array_equal(g, g_ref)
        draws = sample_prior(kernel, x, 2, seed=3)
        assert draws.shape == (2, 5)
        assert np.array_equal(draws, sample_prior(kernel, X, 2, seed=3))
        y = np.sin(4 * x)
        assert np.array_equal(ObservationSet(x, y).X, X)
        post = fit_posterior(ObservationSet(x, y), kernel, 0.1)
        z = np.linspace(-0.2, 1.3, 5)
        pred, pred_ref = predict(post, z), predict(post, z.reshape(-1, 1))
        assert pred.mean.shape == (5,)
        assert np.array_equal(pred.mean, pred_ref.mean)
        assert np.array_equal(pred.variance, pred_ref.variance)
        draws = sample_posterior(post, z, 2, seed=4)
        assert draws.shape == (2, 5)
        assert np.array_equal(draws, sample_posterior(post, z.reshape(-1, 1), 2, seed=4))

    def test_1d_array_is_one_point_when_the_kernel_fixes_d_above_1(self):
        kernel = KernelSpec("sq_exp_ard", 0.8, [0.5, 1.0, 2.0])
        x = np.array([0.1, -0.4, 0.7])
        row = x.reshape(1, -1)
        assert np.array_equal(gram_matrix(kernel, x), gram_matrix(kernel, row))
        assert gram_matrix(kernel, x).shape == (1, 1)
        Z = np.random.default_rng(5).normal(size=(4, 3))
        assert np.array_equal(cross_covariance(kernel, x, Z), cross_covariance(kernel, row, Z))
        assert cross_covariance(kernel, x, Z).shape == (1, 4)
        for g, g_ref in zip(gram_grad_hyper(kernel, x, Z), gram_grad_hyper(kernel, row, Z)):
            assert g.shape == (1, 4) and np.array_equal(g, g_ref)
        assert sample_prior(kernel, x, 2, seed=3).shape == (2, 1)
        post = fit_posterior(ObservationSet(Z, np.arange(4.0)), kernel, 0.1)
        pred, pred_ref = predict(post, x), predict(post, row)
        assert pred.mean.shape == (1,)
        assert np.array_equal(pred.mean, pred_ref.mean)
        assert np.array_equal(pred.variance, pred_ref.variance)
        assert sample_posterior(post, x, 2, seed=4).shape == (2, 1)

    def test_scalar_observation_is_one_point(self):
        obs = ObservationSet(5.0, [1.0])
        assert obs.X.shape == (1, 1) and obs.X[0, 0] == 5.0

    def test_three_dimensional_observations_raise(self):
        with pytest.raises(KernelError, match="at most 2-dimensional"):
            ObservationSet(np.zeros((2, 2, 2)), [1.0, 2.0])
