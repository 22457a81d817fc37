"""Exact Gaussian-process regression.

Posterior inference is done by Cholesky factorization of the Gram matrix
``K + noise * I + jitter * I``.  The exact matrix is tried first; on failure
the jitter starts at ``1e-12 * scale`` and doubles up to ``1e-4 * scale``,
where ``scale`` is the signal variance (fits) or ``max(max diag, 1)``
(sampling).  This one ladder is the only Cholesky in the library.
The fitted model is frozen: ``alpha`` solves ``(K + noise I) alpha = y - m0``
so the predictive mean is the kernel expansion ``m0 + k(x*, X) @ alpha``.
``alpha`` comes from two LAPACK ``trtrs`` solves against the factor ``L``.
The fit also inverts ``L`` once (LAPACK ``trtri``, n^3/3 flops), so the
predictive variance whitens test points by one triangular multiply (BLAS
``trmm``) instead of a triangular solve per block, as in Pleiss et al. 2018,
"Constant-Time Predictive Distributions for Gaussian Processes".

Predictions report the latent-function variance; observation noise is added
only when explicitly requested.  Hyperparameters are fitted by multi-start
L-BFGS on the log marginal likelihood in log-parameter space.  One function
computes that likelihood: it is built once per design, keeps the squared
coordinate differences, and costs one matrix-vector product, one closed form
and one factorization per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtri, dtrtrs
from scipy.optimize import minimize

from ._json import JsonCodec
from .kernels import (
    SQ_EXP_ISO,
    KernelSpec,
    _correlation,
    cross_covariance,
    gram_grad_hyper,  # noqa: F401 -- a call site that perfbench/spans.py traces by name
    gram_matrix,
)

MINIMIZE = "minimize"
MAXIMIZE = "maximize"

LOG_2PI = math.log(2.0 * math.pi)

#: float64 machine epsilon, for the jitter ladder's pivot test
EPS = np.finfo(float).eps
#: first jitter rung after the exact matrix fails, as a fraction of the scale
DEFAULT_JITTER_SCALE = 1e-12
#: jitter escalation cap, as a fraction of the scale
MAX_JITTER_SCALE = 1e-4
#: L-BFGS iteration cap per hyperparameter restart
LBFGS_MAXITER = 200
#: entries in one (n, width) block of ``predict``: ~128 KB of float64 up to
#: n = 85, n * 192 * 8 B from n = 86 on, where the ``BLOCK_ALIGN`` minimum
#: width takes over (307 KB at n = 200).  With 32 K, predict over 2048
#: points at d = 2 ran 1.2-1.5x slower at n = 40 and 60; with 8 K, over 6144
#: points at d = 6, no faster at any n up to 200
PREDICT_BLOCK = 16384
#: ``predict`` blocks start at multiples of this, and a remainder of fewer
#: than this many test points joins the block before it.  Within one call,
#: OpenBLAS's gemv takes test points in groups of 4, and on one thread its
#: trmm (SkylakeX kernels) sums the last ``w % 8`` points of a call more than
#: 192 wide in another order.  The last block, at least 192 wide, then sums
#: the same leftover as one whole-matrix call the same way, so every test
#: point gets the bits of that call
BLOCK_ALIGN = 192


class GpError(ValueError):
    """Invalid observation set or GP operation input."""


class FactorizationError(FloatingPointError):
    """Gram matrix could not be factorized even after jitter escalation."""


@dataclass(frozen=True)
class ObservationSet:
    """Accumulated design: inputs ``X`` (n, d), values ``y`` (n,)."""

    X: np.ndarray
    y: np.ndarray
    direction: str = MINIMIZE

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.size == 0:
            X = X.reshape(0, X.shape[1] if X.ndim == 2 and X.shape[1] else 1)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if X.shape[0] != y.shape[0]:
            raise GpError("X and y must have the same number of rows")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise GpError("observations must be finite")
        if self.direction not in (MINIMIZE, MAXIMIZE):
            raise GpError(f"unknown direction {self.direction!r}")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def dimension(self) -> int:
        return self.X.shape[1]

    def append(self, x, y: float) -> "ObservationSet":
        """Return a new set with (x, y) appended; self is unchanged."""
        x = np.asarray(x, dtype=float).reshape(1, -1)
        if len(self) and x.shape[1] != self.dimension:
            raise GpError("appended point has wrong dimension")
        if not np.isfinite(y):
            raise GpError("appended value must be finite")
        return ObservationSet(
            X=np.vstack([self.X, x]) if len(self) else x,
            y=np.append(self.y, float(y)),
            direction=self.direction,
        )


@dataclass(frozen=True)
class GpPosterior:
    """Frozen fitted model: the lower Cholesky factor ``chol`` of
    K + noise I + jitter I, its inverse ``chol_inv``, and the dual weights."""

    kernel: KernelSpec
    noise_variance: float
    prior_mean: float
    train_X: np.ndarray
    chol: np.ndarray  # lower triangular
    chol_inv: np.ndarray  # its inverse, lower triangular
    alpha: np.ndarray
    jitter: float

    @property
    def dimension(self) -> int:
        return self.train_X.shape[1]


@dataclass(frozen=True)
class Prediction:
    mean: np.ndarray
    variance: np.ndarray


def _chol_with_jitter(K: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky of K + jitter I, escalating jitter on failure.

    The exact matrix is tried first so well-conditioned noiseless fits keep
    zero posterior variance at the training points; the jitter ladder
    (1e-12 to 1e-4 of ``scale``) only kicks in when that fails.  The first
    rung adds a standard deviation of only ``1e-6 * sqrt(scale)``, so draws
    from a noiseless posterior still pass through its training values.

    A squared pivot within ``n * eps * scale`` of zero counts as a failure:
    a duplicated noiseless point leaves one that only rounding made
    positive, and its log would dominate the likelihood.  A non-finite K
    raises ``GpError``, never ``FactorizationError``: it is a fault, not a
    hyperparameter region for the fit to step away from.
    """
    if not np.isfinite(K).all():
        raise GpError("cannot factorize a matrix with non-finite entries")
    jitter = 0.0
    max_jitter = MAX_JITTER_SCALE * scale
    tiny = K.shape[0] * EPS * scale
    while True:
        L, info = dpotrf(K + jitter * np.eye(K.shape[0]) if jitter else K, lower=1)
        if info == 0 and L.diagonal().min() ** 2 > tiny:
            return L, jitter
        if jitter == 0.0:
            jitter = DEFAULT_JITTER_SCALE * scale
            continue
        if jitter >= max_jitter:
            diag = np.diag(K)
            cond_hint = float(diag.max() / max(diag.min(), 1e-300))
            raise FactorizationError(
                f"Cholesky failed at jitter {jitter:.3e} "
                f"(diagonal ratio estimate {cond_hint:.3e})"
            )
        jitter = min(2.0 * jitter, max_jitter)


def _checked_prior_mean(obs: ObservationSet, kernel: KernelSpec, noise_variance, prior_mean):
    """Check a model's inputs and return its prior mean, by default the mean of ``obs.y``."""
    if len(obs) == 0:
        raise GpError("a GP model needs at least one observation")
    if noise_variance < 0 or not np.isfinite(noise_variance):
        raise GpError("noise_variance must be nonnegative and finite")
    kernel.check_dimension(obs.dimension)
    m0 = float(np.mean(obs.y)) if prior_mean is None else float(prior_mean)
    if not math.isfinite(m0):
        raise GpError("prior_mean must be finite")
    return m0


def fit_posterior(
    obs: ObservationSet,
    kernel: KernelSpec,
    noise_variance: float,
    prior_mean: float | None = None,
) -> GpPosterior:
    """Factorize the model and solve for the dual weights.

    ``prior_mean`` defaults to the mean of the observed values.
    """
    m0 = _checked_prior_mean(obs, kernel, noise_variance, prior_mean)
    K = gram_matrix(kernel, obs.X, noise_variance)
    L, jitter = _chol_with_jitter(K, kernel.signal_variance)
    w, _ = dtrtrs(L, obs.y - m0, lower=1)
    alpha, _ = dtrtrs(L, w, lower=1, trans=1)
    L_inv, _ = dtrtri(L, lower=1)
    return GpPosterior(
        kernel=kernel,
        noise_variance=float(noise_variance),
        prior_mean=m0,
        train_X=obs.X,
        chol=L,
        chol_inv=L_inv,
        alpha=alpha,
        jitter=jitter,
    )


def _test_points(post: GpPosterior, X_star) -> np.ndarray:
    """``X_star`` as a nonempty (m, d) array: a 1-D one is m points if d = 1, else one."""
    X_star = np.asarray(X_star, dtype=float)
    if X_star.ndim == 1:
        X_star = X_star.reshape(-1, 1) if post.dimension == 1 else X_star.reshape(1, -1)
    if X_star.shape[0] == 0:
        raise GpError("need at least one test point")
    if X_star.shape[1] != post.dimension:
        raise GpError("test points have wrong dimension")
    return X_star


def predict(post: GpPosterior, X_star, include_noise: bool = False) -> Prediction:
    """Posterior mean and latent-function variance at test points.

    The variance is ``k(x*, x*) - |L^-1 k(train_X, x*)|^2``, with
    ``L^-1 k`` formed by one multiply with ``post.chol_inv`` per block.
    ``include_noise`` adds the observation noise to the variance.  The test
    points are taken in blocks of about ``PREDICT_BLOCK / n`` but at least
    ``BLOCK_ALIGN``, so a block holds n * 192 entries at n >= 86.  Every
    block is evaluated in place in one workspace per call, three rows of
    n * (widest block) floats, and writes its mean and variance straight
    into the outputs, so no block allocates an (n, width) temporary.
    """
    X_star = _test_points(post, X_star)
    m, n = X_star.shape[0], len(post.alpha)
    mean, variance = np.empty(m), np.empty(m)
    width = max(PREDICT_BLOCK // (BLOCK_ALIGN * n), 1) * BLOCK_ALIGN
    edges = [*range(0, max(m - BLOCK_ALIGN + 1, 1), width), m]
    work = np.empty((3, n * min(m, width + BLOCK_ALIGN - 1)))
    for s, e in zip(edges, edges[1:]):
        block = work[:, : n * (e - s)].reshape(3, n, e - s)
        _, v = _mean_and_whitened(post, X_star[s:e], block[0], block[1:], mean[s:e])
        np.sum(np.square(v, out=v), axis=0, out=variance[s:e])
    np.subtract(post.kernel.signal_variance, variance, out=variance)
    np.maximum(variance, 0.0, out=variance)
    if include_noise:
        variance += post.noise_variance
    return Prediction(mean=mean, variance=variance)


def _mean_and_whitened(
    post: GpPosterior, X_star: np.ndarray, out=None, scratch=(None, None), mean=None
):
    """Posterior mean at ``X_star`` and ``L^-1 k(train_X, X_star)``, (n, m),
    formed in ``mean`` and ``out`` when given (see ``cross_covariance``)."""
    k_star = cross_covariance(post.kernel, post.train_X, X_star, out, scratch)  # (n, m)
    mean = np.matmul(k_star.T, post.alpha, out=mean)
    mean += post.prior_mean
    # k_star.T is Fortran-ordered, so dtrmm overwrites it in place with
    # k_star.T @ L^-T, the transpose of the whitened block
    v = dtrmm(1.0, post.chol_inv, k_star.T, side=1, lower=1, trans_a=1, overwrite_b=1)
    return mean, v.T


def _lml_function(X: np.ndarray, resid: np.ndarray, family: str, nu: float | None):
    """log N(resid | 0, K + noise I) on the design ``X``, as a function of the hypers.

    Returns ``lml(signal_variance, length_scales, noise_variance, with_grad)``
    for a ``family``/``nu`` kernel; the gradient is taken w.r.t. ``[log
    signal_variance, log length_scales..., log noise_variance]``.  The
    (n*n, d) squared coordinate differences are formed once, so a call forms
    K by one matrix-vector product and the family's closed form, and takes
    every length-scale gradient by one more product with them.
    """
    n, d = X.shape
    diffs = X[:, None, :] - X[None, :, :]
    D2 = (diffs * diffs).reshape(n * n, d)
    upper = np.triu_indices(n, 1)
    lower = upper[::-1]

    def lml(signal_variance, length_scales, noise_variance, with_grad=False):
        inv_l2 = 1.0 / np.square(length_scales)
        if family == SQ_EXP_ISO:
            # the one length-scale as a stride-0 view: matmul sums it in
            # another order than a contiguous vector, and fits rest on it
            inv_l2 = np.broadcast_to(inv_l2, d)
        sq = (D2 @ inv_l2).reshape(n, n)
        if with_grad:
            g, c = _correlation(family, nu, sq, slope=True)
        else:
            g = _correlation(family, nu, sq)
        K = signal_variance * g
        K.flat[:: n + 1] += noise_variance
        L, _ = _chol_with_jitter(K, signal_variance)
        alpha, _ = dpotrs(L, resid, lower=1)
        val = float(
            -0.5 * resid @ alpha - np.sum(np.log(np.diagonal(L))) - 0.5 * n * LOG_2PI
        )
        if not with_grad:
            return val
        # d lml / d theta = 0.5 tr(W dK/dtheta), W = alpha alpha^T - K^-1;
        # potri fills only the lower triangle of K^-1
        Kinv, _ = dpotri(L, lower=1, overwrite_c=1)
        Kinv[upper] = Kinv[lower]
        W = np.outer(alpha, alpha)
        W -= Kinv
        ls_grad = 0.5 * signal_variance * inv_l2 * ((W * c).ravel() @ D2)
        grad = np.empty(np.size(length_scales) + 2)
        # np.sum, not a BLAS dot: a threaded ddot over n*n entries left the next
        # factorization several times slower on a 2-core host at n = 200
        grad[0] = 0.5 * signal_variance * np.sum(W * g)
        grad[1:-1] = ls_grad.sum() if family == SQ_EXP_ISO else ls_grad
        grad[-1] = 0.5 * noise_variance * np.trace(W)  # dK/d log(noise) = noise * I
        return val, grad

    return lml


def log_marginal_likelihood(
    obs: ObservationSet,
    kernel: KernelSpec,
    noise_variance: float,
    prior_mean: float | None = None,
    with_grad: bool = False,
):
    """log N(y | m0, K + noise I), optionally with its gradient.

    The gradient is taken w.r.t. ``[log signal_variance,
    log length_scales..., log noise_variance]``.  ``prior_mean`` defaults to
    the mean of the observed values.
    """
    m0 = _checked_prior_mean(obs, kernel, noise_variance, prior_mean)
    lml = _lml_function(obs.X, obs.y - m0, kernel.family, kernel.nu)
    return lml(kernel.signal_variance, kernel.length_scales, noise_variance, with_grad)


@dataclass(frozen=True)
class HyperBounds(JsonCodec, error=GpError):
    """Box bounds (natural scale) for hyperparameter fitting."""

    signal_variance: tuple[float, float] = (1e-4, 1e4)
    length_scale: tuple[float, float] = (1e-3, 1e3)
    noise_variance: tuple[float, float] = (1e-8, 1e2)

    def __post_init__(self):
        for f in fields(self):
            pair = tuple(getattr(self, f.name))
            if len(pair) != 2 or not (0 < pair[0] < pair[1] and np.isfinite(pair[1])):
                raise GpError(f"{f.name} bounds must be a finite ordered (lo, hi) pair")
            object.__setattr__(self, f.name, pair)


def optimize_hypers(
    obs: ObservationSet,
    family: str = SQ_EXP_ISO,
    bounds: HyperBounds | None = None,
    n_restarts: int = 2,
    seed: int = 0,
    nu: float | None = None,
    fixed_noise: float | None = None,
    warm_start: tuple[KernelSpec, float] | None = None,
) -> tuple[KernelSpec, float]:
    """Multi-start maximization of the log marginal likelihood.

    Returns the best ``(KernelSpec, noise_variance)`` found.  The search
    runs over ``KernelSpec.log_hypers()`` followed by ``log noise_variance``;
    when ``fixed_noise`` is given the noise variance is held there and
    excluded from the search.  ``n_restarts`` counts every L-BFGS start, each
    drawn log-uniformly inside ``bounds``.  A ``warm_start`` (a previous fit,
    clipped to ``bounds``) takes the place of the last draw; if no start
    factorizes, the draw it displaced runs after all.  Raises
    ``FactorizationError`` when that fails too.  Deterministic given ``seed``.
    """
    if len(obs) < 2:
        raise GpError("optimize_hypers needs at least two observations")
    if n_restarts < 1:
        raise GpError("optimize_hypers needs n_restarts >= 1")
    fit_noise = fixed_noise is None
    bounds = bounds or HyperBounds()
    ones = np.ones(1 if family == SQ_EXP_ISO else obs.dimension)
    template = KernelSpec(family, length_scales=ones, nu=nu)
    # a fitted noise stays inside its bounds, so only a fixed one needs the check
    m0 = _checked_prior_mean(obs, template, 0.0 if fit_noise else fixed_noise, None)
    n_kernel = template.n_hypers
    pairs = [bounds.signal_variance] + [bounds.length_scale] * (n_kernel - 1)
    if fit_noise:
        pairs.append(bounds.noise_variance)
    # math.log, not np.log: the two can differ in the last bit
    lo = np.array([math.log(a) for a, _ in pairs])
    hi = np.array([math.log(b) for _, b in pairs])

    lml = _lml_function(obs.X, obs.y - m0, family, template.nu)

    def neg_lml(z: np.ndarray) -> tuple[float, np.ndarray]:
        noise = math.exp(z[-1]) if fit_noise else fixed_noise
        try:
            val, grad = lml(math.exp(z[0]), np.exp(z[1:n_kernel]), noise, with_grad=True)
        except FactorizationError:
            return 1e25, np.zeros_like(z)
        return -val, -(grad if fit_noise else grad[:-1])

    def fit_from(z0: np.ndarray) -> tuple[float, np.ndarray]:
        res = minimize(
            neg_lml,
            z0,
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(lo, hi)),
            options={"maxiter": LBFGS_MAXITER},
        )
        return (res.fun if np.isfinite(res.fun) else math.inf), res.x

    rng = np.random.default_rng(seed)
    starts = [rng.uniform(lo, hi) for _ in range(n_restarts - (warm_start is not None))]
    if warm_start is not None:
        spec, noise = warm_start
        z = spec.log_hypers()
        if fit_noise:
            z = np.append(z, math.log(max(noise, bounds.noise_variance[0])))
        starts.append(np.clip(z, lo, hi))
    best_val, best_z = min(map(fit_from, starts), key=lambda fit: fit[0])
    if best_val >= 1e25 and warm_start is not None:
        best_val, best_z = fit_from(rng.uniform(lo, hi))
    if best_val >= 1e25:
        raise FactorizationError("all hyperparameter restarts failed to factorize")
    noise = math.exp(best_z[-1]) if fit_noise else fixed_noise
    return template.with_log_hypers(best_z[:n_kernel]), noise


def sample_function(
    mean: np.ndarray, covariance: np.ndarray, n_draws: int, seed: int
) -> np.ndarray:
    """Draw from N(mean, covariance); returns an (n_draws, m) matrix.

    :func:`sample_posterior` passes the posterior's mean and covariance,
    :func:`sample_prior` a constant mean and the Gram matrix.  Deterministic
    given ``seed``.
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(covariance, dtype=float)
    m = mean.size
    if cov.shape != (m, m):
        raise GpError("covariance shape does not match mean length")
    L, _ = _chol_with_jitter(cov, max(float(np.max(np.diag(cov))), 1.0))
    z = np.random.default_rng(seed).standard_normal((n_draws, m))
    return mean + z @ L.T


def sample_prior(
    kernel: KernelSpec, X, n_draws: int, seed: int, prior_mean: float = 0.0
) -> np.ndarray:
    """Draws from the GP prior at points X."""
    K = gram_matrix(kernel, X)
    mean = np.full(K.shape[0], prior_mean)
    return sample_function(mean, K, n_draws, seed)


def sample_posterior(post: GpPosterior, X, n_draws: int, seed: int) -> np.ndarray:
    """Draws from the fitted posterior at points X, whose latent covariance is
    ``k(X, X) - v^T v`` for ``v = L^-1 k(train_X, X)``, symmetrized."""
    X = _test_points(post, X)
    mean, v = _mean_and_whitened(post, X)
    cov = cross_covariance(post.kernel, X, X) - v.T @ v
    return sample_function(mean, 0.5 * (cov + cov.T), n_draws, seed)
