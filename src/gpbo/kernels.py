"""Covariance (kernel) functions and Gram-matrix construction.

Three stationary families are supported:

* ``sq_exp_iso``  -- squared exponential with a single length-scale,
  ``k(x, x') = sf2 * exp(-r^2 / (2 l^2))``.
* ``sq_exp_ard``  -- squared exponential with one length-scale per input
  dimension (automatic relevance determination).
* ``matern``      -- Matern kernel at half-integer smoothness
  ``nu in {1/2, 3/2, 5/2}`` via the exact closed forms, with anisotropic
  distance ``r = ||(x - x') / theta||``.

All families carry a ``signal_variance`` prefactor so they are
interchangeable during hyperparameter fitting.  Hyperparameter gradients are
taken with respect to *log* parameters, which is also the parameterization
used by the fitting code in :mod:`gpbo.gp`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from ._json import JsonCodec

SQ_EXP_ISO = "sq_exp_iso"
SQ_EXP_ARD = "sq_exp_ard"
MATERN = "matern"

_FAMILIES = (SQ_EXP_ISO, SQ_EXP_ARD, MATERN)
_MATERN_NUS = (0.5, 1.5, 2.5)


class KernelError(ValueError):
    """Invalid kernel specification or kernel-evaluation input."""


@dataclass(frozen=True, eq=False)
class KernelSpec(JsonCodec, error=KernelError):
    """Immutable kernel family + hyperparameters.

    ``length_scales`` has one entry for ``sq_exp_iso`` and one entry per
    input dimension for the ARD and Matern families.  ``nu`` is only
    meaningful for ``matern``.
    """

    family: str
    signal_variance: float = 1.0
    length_scales: np.ndarray = field(default_factory=lambda: np.ones(1))
    nu: float | None = None

    def __eq__(self, other):
        if not isinstance(other, KernelSpec):
            return NotImplemented
        return (
            self.family == other.family
            and self.signal_variance == other.signal_variance
            and np.array_equal(self.length_scales, other.length_scales)
            and self.nu == other.nu
        )

    def __hash__(self):
        return hash(
            (self.family, self.signal_variance, self.length_scales.tobytes(), self.nu)
        )

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise KernelError(f"unknown kernel family {self.family!r}")
        object.__setattr__(self, "signal_variance", float(self.signal_variance))
        ls = np.atleast_1d(np.asarray(self.length_scales, dtype=float)).copy()
        ls.flags.writeable = False
        object.__setattr__(self, "length_scales", ls)
        if not (self.signal_variance > 0 and np.isfinite(self.signal_variance)):
            raise KernelError("signal_variance must be positive and finite")
        if ls.ndim != 1 or ls.size == 0 or not np.all((ls > 0) & np.isfinite(ls)):
            raise KernelError("length_scales must be a vector of positive reals")
        if self.family == SQ_EXP_ISO and ls.size != 1:
            raise KernelError("sq_exp_iso takes exactly one length-scale")
        if self.family == MATERN:
            if self.nu not in _MATERN_NUS:
                raise KernelError(f"matern nu must be one of {_MATERN_NUS}")
            object.__setattr__(self, "nu", float(self.nu))
        elif self.nu is not None:
            raise KernelError("nu is only valid for the matern family")

    @property
    def n_hypers(self) -> int:
        """Number of log-hyperparameters: signal variance + length-scales."""
        return 1 + self.length_scales.size

    @property
    def dimension(self) -> int | None:
        """The input dimension the spec fixes; None for ``sq_exp_iso``, which fits any."""
        return None if self.family == SQ_EXP_ISO else self.length_scales.size

    def check_dimension(self, d: int) -> None:
        if self.dimension not in (None, d):
            raise KernelError(
                f"kernel has {self.length_scales.size} length-scales "
                f"but points are {d}-dimensional"
            )

    def with_log_hypers(self, log_hypers: np.ndarray) -> "KernelSpec":
        """Rebuild the spec from a flat log-hyperparameter vector.

        Layout: ``[log signal_variance, log length_scales...]`` (the same
        layout produced by :func:`kernel_grad_hyper`).
        """
        log_hypers = np.asarray(log_hypers, dtype=float)
        if log_hypers.size != self.n_hypers:
            raise KernelError("log-hyperparameter vector has wrong length")
        return KernelSpec(
            family=self.family,
            signal_variance=math.exp(log_hypers[0]),
            length_scales=np.exp(log_hypers[1:]),
            nu=self.nu,
        )

    def log_hypers(self) -> np.ndarray:
        return np.concatenate(
            ([math.log(self.signal_variance)], np.log(self.length_scales))
        )


def _as_points(X, dimension: int | None = None) -> np.ndarray:
    """``X`` as a finite (m, d) float array, a point per row as in Rasmussen &
    Williams 2006: a 1-D array is m one-coordinate points, or one point when
    ``dimension`` is known to be above 1.  The caller checks d."""
    X = np.asarray(X, dtype=float)
    if X.ndim < 2:
        X = X.reshape(1, -1) if X.ndim and (dimension or 1) > 1 else X.reshape(-1, 1)
    elif X.ndim != 2:
        raise KernelError("points must be at most 2-dimensional arrays")
    if not np.isfinite(X).all():
        raise KernelError("non-finite input coordinate")
    return X


def _correlation(
    family: str, nu: float | None, sq: np.ndarray, slope: bool = False, scratch=(None, None)
):
    """Closed-form unit-variance correlation ``g`` at scaled squared distance ``sq``.

    Evaluated in place: without ``slope``, ``g`` overwrites ``sq`` and is
    returned.  The Matern forms put their exponential and square into
    ``scratch``, two more arrays shaped like ``sq``, or into fresh arrays
    where its entries are None.

    With ``slope``, returns ``(g, c)`` with ``c = -2 dg/d(sq)``, so that
    ``d k / d log l_j = signal_variance * c * u_j^2`` for the scaled
    per-dimension squared difference ``u_j^2``.
    """
    if family != MATERN:
        sq *= -0.5
        g = np.exp(sq, out=sq)
        return (g, g) if slope else g
    r = np.sqrt(sq, out=sq)
    if nu == 0.5:
        # the slope needs r after g is formed
        g = np.negative(r, out=scratch[0] if slope else r)
        np.exp(g, out=g)
        if not slope:
            return g
        with np.errstate(invalid="ignore", divide="ignore"):
            return g, np.where(r > 0, g / r, 0.0)
    # a, 1 + a and then g reuse r's storage, which is sq's
    if nu == 1.5:
        a = r
        a *= math.sqrt(3.0)
        e = np.negative(a, out=scratch[0])
        np.exp(e, out=e)
        g = a
        g += 1.0
        g *= e
        return (g, 3.0 * e) if slope else g
    # (1 + a + a^2 / 3) e^-a with a = sqrt(5) r
    a = r
    a *= math.sqrt(5.0)
    e = np.negative(a, out=scratch[0])
    np.exp(e, out=e)
    t = np.square(a, out=scratch[1])
    t /= 3.0
    b = a
    b += 1.0
    if slope:
        c = b * (5.0 / 3.0)
        c *= e
    g = b
    g += t
    g *= e
    return (g, c) if slope else g


def cross_covariance(spec: KernelSpec, X, Z) -> np.ndarray:
    """Covariance matrix k(X, Z) of shape (n, m)."""
    return _covariance(spec, _as_points(X, spec.dimension), _as_points(Z, spec.dimension))


def _covariance(spec: KernelSpec, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """``cross_covariance`` of points already read by ``_as_points``."""
    if X.shape[1] != Z.shape[1]:
        raise KernelError("dimension mismatch between point sets")
    spec.check_dimension(X.shape[1])
    return _scaled_covariance(spec, X / spec.length_scales, Z / spec.length_scales)


def _scaled_covariance(spec: KernelSpec, X_scaled, Z_scaled, out=None, scratch=(None, None)):
    """``cross_covariance`` of points already divided by the length-scales.

    Takes finite (n, d) and (m, d) float arrays as they are, unchecked.
    With ``out``, a C-contiguous (n, m) float array, the matrix is formed in
    it and returned; ``scratch``, two more such arrays, spares the Matern
    forms their temporaries too (see ``_correlation``).

    cdist forms per-pair coordinate differences directly; the usual
    norm-expansion trick cancels catastrophically at tiny distances, which
    the Matern families amplify through the square root.
    """
    sq = cdist(X_scaled, Z_scaled, "sqeuclidean", out=out)
    K = _correlation(spec.family, spec.nu, sq, scratch=scratch)
    K *= spec.signal_variance
    return K


def eval_kernel(spec: KernelSpec, x, x_prime) -> float:
    """Scalar covariance between two single points; each is read alone, so a
    1-D array of any length is one point."""
    x, x_prime = _as_points(x, np.size(x)), _as_points(x_prime, np.size(x_prime))
    if x.shape != x_prime.shape or x.shape[0] != 1:
        raise KernelError("eval_kernel expects two single points of equal dimension")
    return float(_covariance(spec, x, x_prime)[0, 0])


def gram_matrix(spec: KernelSpec, X, jitter: float = 0.0) -> np.ndarray:
    """Symmetric Gram matrix K[i, j] = k(x_i, x_j) + jitter * delta_ij."""
    X = _as_points(X, spec.dimension)
    if X.shape[0] == 0:
        raise KernelError("gram_matrix requires at least one point")
    if jitter < 0:
        raise KernelError("jitter must be nonnegative")
    K = _covariance(spec, X, X)
    if jitter:
        K[np.diag_indices_from(K)] += jitter
    return K


def kernel_grad_hyper(spec: KernelSpec, x, x_prime) -> np.ndarray:
    """Gradient of ``eval_kernel`` w.r.t. log-hyperparameters.

    Layout: ``[d k / d log(signal_variance), d k / d log(length_scale_j)...]``
    with one length-scale entry for ``sq_exp_iso`` and ``d`` entries
    otherwise.
    """
    G = gram_grad_hyper(spec, _as_points(x, np.size(x)), _as_points(x_prime, np.size(x_prime)))
    return np.array([g[0, 0] for g in G])


def gram_grad_hyper(spec: KernelSpec, X, Z) -> list[np.ndarray]:
    """Per-log-hyperparameter gradients of ``cross_covariance(spec, X, Z)``.

    Returns ``spec.n_hypers`` matrices in the layout documented by
    :func:`kernel_grad_hyper`.
    """
    X, Z = _as_points(X, spec.dimension), _as_points(Z, spec.dimension)
    K = _covariance(spec, X, Z)
    # scaled per-dimension squared differences u_j^2 = ((x_j - z_j)/l_j)^2
    diffs2 = ((X[:, None, :] - Z[None, :, :]) / spec.length_scales) ** 2
    grads = [K.copy()]  # d k / d log sf2 = k
    _, slope = _correlation(spec.family, spec.nu, diffs2.sum(axis=2), slope=True)
    common = spec.signal_variance * slope
    if spec.family == SQ_EXP_ISO:
        return grads + [common * diffs2.sum(axis=2)]
    return grads + [common * diffs2[:, :, j] for j in range(diffs2.shape[2])]
