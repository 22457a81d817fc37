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
L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) on the log marginal likelihood
divided by n, in log-parameter space, driving scipy's ``setulb`` routine
directly with ``scipy.optimize.minimize``'s settings, so each fit gives
minimize's result without its per-evaluation wrapping.  With the noise
fitted, the signal variance is profiled out in closed form (the
concentrated likelihood of kriging, see ``optimize_hypers``), so the search
has one dimension fewer.  One function computes the likelihood, and its
profiled form: it is built once per design, keeps the squared coordinate
differences, and costs one matrix-vector product, one closed form and one
factorization per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtri, dtrtrs
# setulb's 17-argument form, with ln_task, is scipy >= 1.15's; if it changes,
# tests/test_gp.py::TestLbfgsb fails
from scipy.optimize._lbfgsb import setulb

from ._json import JsonCodec
from .kernels import (
    SQ_EXP_ISO,
    KernelSpec,
    _as_points,
    _correlation,
    _scaled_covariance,
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
#: the rest of ``scipy.optimize.minimize``'s L-BFGS-B defaults: corrections
#: kept, ``factr`` from its ``ftol``, projected-gradient tolerance, steps per
#: line search and the evaluation cap
LBFGS_M = 10
LBFGS_FACTR = 2.2204460492503131e-09 / EPS
LBFGS_PGTOL = 1e-5
LBFGS_MAXLS = 20
LBFGS_MAXFUN = 15000
#: ``setulb``'s exit task after a line search that failed
LBFGS_ABNORMAL = 8
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
        # copies: the set freezes its own arrays, never the caller's
        X = _as_points(np.array(self.X, dtype=float))
        y = np.array(self.y, dtype=float).reshape(-1)
        if X.shape[0] != y.shape[0]:
            raise GpError("X and y must have the same number of rows")
        if not np.isfinite(y).all():
            raise GpError("observed values must be finite")
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
        x = _as_points(x, np.size(x))
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
    """Frozen fitted model: the inverse ``chol_inv`` of the lower Cholesky
    factor of K + noise I + jitter I, and the dual weights.  ``scaled_X``,
    ``train_X`` divided by the length-scales, is formed once, read-only."""

    kernel: KernelSpec
    noise_variance: float
    prior_mean: float
    train_X: np.ndarray
    chol_inv: np.ndarray  # lower triangular
    alpha: np.ndarray
    jitter: float
    scaled_X: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scaled_X = self.train_X / self.kernel.length_scales
        scaled_X.flags.writeable = False
        object.__setattr__(self, "scaled_X", scaled_X)

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
        chol_inv=L_inv,
        alpha=alpha,
        jitter=jitter,
    )


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
    X_star = _as_points(X_star, post.dimension)
    if X_star.shape[0] == 0 or X_star.shape[1] != post.dimension:
        raise GpError(f"need one or more test points of dimension {post.dimension}")
    mean, variance = _LatentBlocks(post, X_star.shape[0])(X_star)
    if include_noise:
        variance += post.noise_variance
    return Prediction(mean=mean, variance=variance)


class _LatentBlocks:
    """``predict``'s arithmetic for m test points at a time on one posterior.

    Owns its buffers, so a caller that scores many small sets (the pattern
    search) pays for them once: the workspace, the test points divided by
    the length-scales, the mean and variance rows, and each block's views
    of them.
    """

    def __init__(self, post: GpPosterior, m: int):
        n = len(post.alpha)
        width = max(PREDICT_BLOCK // (BLOCK_ALIGN * n), 1) * BLOCK_ALIGN
        edges = [*range(0, max(m - BLOCK_ALIGN + 1, 1), width), m]
        work = np.empty((3, n * min(m, width + BLOCK_ALIGN - 1)))
        self.post = post
        self.scaled = np.empty((m, post.dimension))
        self.out = np.empty((2, m))
        self.blocks = []
        for s, e in zip(edges, edges[1:]):
            block = work[:, : n * (e - s)].reshape(3, n, e - s)
            views = (self.scaled[s:e], block[0], (block[1], block[2]))
            self.blocks.append(views + (self.out[0, s:e], self.out[1, s:e]))

    def __call__(self, X_star: np.ndarray) -> np.ndarray:
        """Rows of mean and latent variance at finite (m, d) ``X_star``,
        written over the previous call's."""
        post = self.post
        np.divide(X_star, post.kernel.length_scales, out=self.scaled)
        for Z, k_star, scratch, block_mean, block_variance in self.blocks:
            _, v = _mean_and_whitened(post, Z, k_star, scratch, block_mean)
            np.add.reduce(np.square(v, out=v), axis=0, out=block_variance)
        variance = self.out[1]
        np.subtract(post.kernel.signal_variance, variance, out=variance)
        np.maximum(variance, 0.0, out=variance)
        return self.out


def _mean_and_whitened(
    post: GpPosterior, Z: np.ndarray, out=None, scratch=(None, None), mean=None
):
    """Posterior mean and ``L^-1 k(train_X, X_star)``, (n, m), at test points
    ``Z = X_star / length_scales``, formed in ``mean`` and ``out`` when given
    (see ``_scaled_covariance``)."""
    k_star = _scaled_covariance(post.kernel, post.scaled_X, Z, out, scratch)  # (n, m)
    mean = np.matmul(k_star.T, post.alpha, out=mean)
    mean += post.prior_mean
    # k_star.T is Fortran-ordered, so dtrmm overwrites it in place with
    # k_star.T @ L^-T, the transpose of the whitened block
    v = dtrmm(1.0, post.chol_inv, k_star.T, side=1, lower=1, trans_a=1, overwrite_b=1)
    return mean, v.T


def _lml_function(X: np.ndarray, resid: np.ndarray, family: str, nu: float | None):
    """log N(resid | 0, K + noise I) on the design ``X``, as a function of the hypers.

    Returns ``lml(signal_variance, length_scales, noise_variance, with_grad,
    bounds)`` for a ``family``/``nu`` kernel; the gradient is taken w.r.t.
    ``[log signal_variance, log length_scales..., log noise_variance]``.  The
    (n*n, d) squared coordinate differences are formed once, so a call forms
    K by one matrix-vector product and the family's closed form, and takes
    every length-scale gradient by one more product with them.

    Given ``bounds`` (a ``HyperBounds``), it is the concentrated likelihood
    instead: ``signal_variance`` is 1, ``noise_variance`` is the ratio
    lam = noise / s2, and K = s2 C, C = g + lam I, for the s2 that maximizes
    the likelihood inside the bounds on s2 and on s2 lam.  That is
    q / n = r^T C^-1 r / n clipped to them.  It returns ``(val, s2)``, or
    ``(val, grad, s2)`` with ``grad`` w.r.t. ``[log length_scales...,
    log lam]``.
    """
    n, d = X.shape
    diffs = X[:, None, :] - X[None, :, :]
    D2 = (diffs * diffs).reshape(n * n, d)
    # potri's K^-1 is Fortran-ordered, so the flat view of its transpose
    # holds entry (i, j) at i + j * n
    i, j = np.triu_indices(n, 1)
    upper, lower = i + j * n, j + i * n

    def lml(signal_variance, length_scales, noise_variance, with_grad=False, bounds=None):
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
        K.reshape(-1)[:: n + 1] += noise_variance
        L, _ = _chol_with_jitter(K, signal_variance)
        alpha, _ = dpotrs(L, resid, lower=1)
        quad = resid @ alpha
        s2 = 1.0
        if bounds is not None:
            # the bounds on s2 lam, then those on s2, which win where the
            # rounding of lam at its box's ends leaves the two disjoint
            (s_lo, s_hi), (noise_lo, noise_hi) = bounds.signal_variance, bounds.noise_variance
            s2 = min(max(quad / n, noise_lo / noise_variance), noise_hi / noise_variance)
            s2 = min(max(s2, s_lo), s_hi)
        half_logdet = np.log(L.diagonal()).sum()
        val = float(-0.5 * quad / s2 - half_logdet - 0.5 * n * (LOG_2PI + math.log(s2)))
        if not with_grad:
            return val if bounds is None else (val, s2)
        # d lml / d theta = 0.5 tr(W dK/dtheta), W = alpha alpha^T / s2 - K^-1;
        # potri fills only the lower triangle of K^-1
        Kinv, _ = dpotri(L, lower=1, overwrite_c=1)
        flat = Kinv.T.reshape(-1)
        flat[upper] = flat[lower]
        W = alpha[:, None] * (alpha / s2)
        W -= Kinv
        ls_grad = 0.5 * signal_variance * inv_l2 * ((W * c).ravel() @ D2)
        grad = np.empty(np.size(length_scales) + 2)
        grad[1:-1] = ls_grad.sum() if family == SQ_EXP_ISO else ls_grad
        grad[-1] = 0.5 * noise_variance * W.trace()  # dK/d log(noise) = noise * I
        if bounds is None:
            # a sum, not a BLAS dot: a threaded ddot over n*n entries left the
            # next factorization several times slower on a 2-core host at n = 200
            grad[0] = 0.5 * signal_variance * (W * g).sum()
            return val, grad
        if s2 != quad / n and s2 not in bounds.signal_variance:
            # a noise bound c sets s2 = c / lam, so d log s2 / d log lam = -1
            grad[-1] -= 0.5 * (quad / s2 - n)
        return val, grad[1:], s2

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
    """Box bounds (natural scale) for hyperparameter fitting.  The defaults suit
    standardized y on unit-cube inputs, as ``run_bo`` fits; a direct caller on
    raw data passes its own bounds."""

    signal_variance: tuple[float, float] = (1e-2, 1e2)
    length_scale: tuple[float, float] = (1e-2, 1e1)
    noise_variance: tuple[float, float] = (1e-8, 1.0)

    def __post_init__(self):
        for f in fields(self):
            pair = tuple(getattr(self, f.name))
            if len(pair) != 2 or not (0 < pair[0] < pair[1] and np.isfinite(pair[1])):
                raise GpError(f"{f.name} bounds must be a finite ordered (lo, hi) pair")
            object.__setattr__(self, f.name, pair)


def _lbfgsb(fun, z0: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Minimize ``fun(z) -> (f, grad)`` over the box ``[lo, hi]`` by L-BFGS-B.

    Runs ``setulb``'s reverse-communication loop as ``scipy.optimize.minimize(
    method="L-BFGS-B", bounds=Bounds(lo, hi), options={"maxiter":
    LBFGS_MAXITER})`` does, with the same settings and caps, and returns its
    ``(res.fun, res.x)`` bit for bit, with the exit task: ``setulb``'s status
    code, whose name starts ``res.message``.  ``f`` is the last value ``fun``
    returned, which on an ``LBFGS_ABNORMAL`` exit belongs to the failed
    line-search trial, not to the point returned.  What it skips is
    minimize's per-evaluation wrapping of ``fun``.
    """
    n = z0.size
    m = LBFGS_M
    x = np.clip(z0, lo, hi)
    f, g = 0.0, np.zeros(n)
    nbd = np.full(n, 2, np.int32)  # every variable bounded below and above
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    z, n_iter, n_eval = None, 0, 0
    while True:
        setulb(m, x, lo, hi, nbd, f, g, LBFGS_FACTR, LBFGS_PGTOL, wa, iwa,
               task, lsave, isave, dsave, LBFGS_MAXLS, ln_task)
        if task[0] == 3:  # FG: f and g at x
            # a line-search trial can land on the point just evaluated, and
            # minimize answers that from its cache
            if z is None or (x != z).any():
                z = x.copy()
                f, g = fun(x.copy())
                n_eval += 1
        elif task[0] == 1:  # NEW_X: an iteration is done
            n_iter += 1
            if n_iter >= LBFGS_MAXITER:
                task[:] = 5, 504  # STOP: iteration limit
            elif n_eval > LBFGS_MAXFUN:
                task[:] = 5, 502  # STOP: evaluation limit
        else:  # CONVERGENCE, STOP, WARNING, ERROR or ABNORMAL
            return f, x, int(task[0])


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

    Returns the best ``(KernelSpec, noise_variance)`` found inside
    ``bounds``.  With the noise fitted, L-BFGS-B maximizes the concentrated
    likelihood (Roustant, Ginsbourger & Deville 2012, "DiceKriging,
    DiceOptim", J. Stat. Softw. 51(1)) over ``log length_scales`` and
    ``log lam``, lam = noise / signal_variance: each evaluation sets the
    signal variance to its optimum inside its bounds and the noise's, in
    closed form (``_lml_function``).  ``log lam`` runs over
    ``[log(noise_lo / signal_hi), log(noise_hi / signal_lo)]``, where that
    optimum always exists, so the fit is the maximum of the likelihood over
    the whole ``bounds`` box.  When ``fixed_noise`` is given the noise
    variance is held there, and the search runs over
    ``KernelSpec.log_hypers()``.  Either objective is divided by n, so its
    gradient does not grow with the design.

    ``n_restarts`` counts every L-BFGS-B start (one ``_lbfgsb`` run), each
    drawn log-uniformly inside ``bounds`` over ``log_hypers()`` and ``log
    noise_variance``, then mapped to the search's coordinates.  A
    ``warm_start`` (a previous fit, clipped to ``bounds``) takes the place of
    the last draw; if no start factorizes, the draw it displaced runs after
    all.  A run that exits ``LBFGS_ABNORMAL`` is ranked by the value at the
    point it returns.  Raises ``FactorizationError`` when no start
    factorizes.  Deterministic given ``seed``.
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
    n = len(obs)
    (s_lo, s_hi), (noise_lo, noise_hi) = bounds.signal_variance, bounds.noise_variance
    # starts are drawn over [log s2, log length_scales..., log noise]; the
    # fitted-noise search runs over [log length_scales..., log lam]
    pairs = [bounds.signal_variance] + [bounds.length_scale] * (template.n_hypers - 1)
    if fit_noise:
        pairs.append(bounds.noise_variance)
    # math.log, not np.log: the two can differ in the last bit
    draw_lo = np.array([math.log(a) for a, _ in pairs])
    draw_hi = np.array([math.log(b) for _, b in pairs])
    lo, hi = draw_lo, draw_hi
    if fit_noise:
        lo = np.append(draw_lo[1:-1], math.log(noise_lo / s_hi))
        hi = np.append(draw_hi[1:-1], math.log(noise_hi / s_lo))

    def searched(z: np.ndarray) -> np.ndarray:
        """A start in the search's coordinates."""
        return np.append(z[1:-1], z[-1] - z[0]) if fit_noise else z

    lml = _lml_function(obs.X, obs.y - m0, family, template.nu)

    def neg_lml(z: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            if fit_noise:
                val, grad, _ = lml(1.0, np.exp(z[:-1]), math.exp(z[-1]), True, bounds)
            else:
                val, grad = lml(math.exp(z[0]), np.exp(z[1:]), fixed_noise, with_grad=True)
                grad = grad[:-1]
        except FactorizationError:
            return 1e25, np.zeros_like(z)
        return -val / n, grad / -n

    def fit_from(z0: np.ndarray) -> tuple[float, np.ndarray]:
        f, z, task = _lbfgsb(neg_lml, z0, lo, hi)
        if task == LBFGS_ABNORMAL:
            f, _ = neg_lml(z)
        return (f if np.isfinite(f) else math.inf), z

    rng = np.random.default_rng(seed)
    starts = [searched(rng.uniform(draw_lo, draw_hi))
              for _ in range(n_restarts - (warm_start is not None))]
    if warm_start is not None:
        spec, noise = warm_start
        z = spec.log_hypers()
        if fit_noise:
            z = np.append(z, math.log(max(noise, noise_lo)))
        starts.append(searched(np.clip(z, draw_lo, draw_hi)))
    best_val, best_z = min(map(fit_from, starts), key=lambda fit: fit[0])
    if best_val >= 1e25 and warm_start is not None:
        best_val, best_z = fit_from(searched(rng.uniform(draw_lo, draw_hi)))
    if best_val >= 1e25:
        raise FactorizationError("all hyperparameter restarts failed to factorize")
    # exp(log bound) can round past the bound, and so can s2 lam
    length_scales = np.clip(np.exp(best_z[:-1] if fit_noise else best_z[1:]), *bounds.length_scale)
    if fit_noise:
        lam = math.exp(best_z[-1])
        _, s2 = lml(1.0, length_scales, lam, bounds=bounds)
        noise = float(min(max(s2 * lam, noise_lo), noise_hi))
    else:
        s2, noise = min(max(math.exp(best_z[0]), s_lo), s_hi), fixed_noise
    return KernelSpec(family, s2, length_scales, template.nu), noise


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
    X = _as_points(X, post.dimension)
    if X.shape[0] == 0 or X.shape[1] != post.dimension:
        raise GpError(f"need one or more test points of dimension {post.dimension}")
    mean, v = _mean_and_whitened(post, X / post.kernel.length_scales)
    cov = cross_covariance(post.kernel, X, X) - v.T @ v
    return sample_function(mean, 0.5 * (cov + cov.T), n_draws, seed)
