"""Improvement-based acquisition scores for a frozen posterior.

All scores follow the internal *maximization* convention: larger latent
values are better and the incumbent ``f_best`` is the largest value seen.
The optimization loop converts minimization problems by negation before
calling in here.

Functions accept scalars or numpy arrays (broadcasting as usual) and are
pure, so candidate sets can be scored in one vectorized call.  The standard
normal CDF is computed through the error function (``scipy.special.ndtr``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ._json import JsonCodec

PI = "pi"
EI = "ei"
LCB = "lcb"
UCB = "ucb"
_FAMILIES = (PI, EI, LCB, UCB)

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class AcquisitionError(ValueError):
    """Invalid acquisition specification or input."""


@dataclass(frozen=True)
class AcquisitionSpec(JsonCodec, error=AcquisitionError):
    """Acquisition family plus its knobs.

    ``xi`` is the improvement margin for PI/EI (the paper-style trade-off
    and exploration parameters play the same role, so there is a single
    knob).  ``upsilon`` weights the standard deviation in the confidence
    bounds.  ``xi_decay``, when set, multiplies ``xi`` by ``xi_decay**t``
    at loop iteration t; ``None`` keeps it constant.
    """

    family: str = EI
    xi: float = 0.01
    upsilon: float = 2.0
    xi_decay: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise AcquisitionError(f"unknown acquisition family {self.family!r}")
        if not all(v >= 0 and math.isfinite(v) for v in (self.xi, self.upsilon)):
            raise AcquisitionError("xi and upsilon must be nonnegative and finite")
        if self.xi_decay is not None and not (0 < self.xi_decay <= 1):
            raise AcquisitionError("xi_decay must lie in (0, 1]")

    def xi_at(self, iteration: int) -> float:
        if self.xi_decay is None:
            return self.xi
        return self.xi * self.xi_decay**iteration


def _check_finite(*vals) -> None:
    for v in vals:
        if not np.isfinite(v).all():
            raise AcquisitionError("non-finite acquisition input")


def _checked(core, mu, sigma, *params):
    """``core(mu, sigma, *params)`` on float arrays, once sigma >= 0 and every
    input is finite; a float for 0-d input."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if (sigma < 0).any():
        raise AcquisitionError("sigma must be nonnegative")
    _check_finite(mu, sigma, *params)
    out = core(mu, sigma, *params)
    return out if out.ndim else float(out)


def probability_of_improvement(mu, sigma, f_best, xi: float = 0.0):
    """P(latent > f_best + xi) under N(mu, sigma^2).

    The sigma = 0 limit is 1 when mu strictly exceeds f_best + xi, else 0.
    """
    return _checked(_pi, mu, sigma, f_best, xi)


def _pi(mu, sigma, f_best, xi):
    gap = mu - f_best - xi
    safe_sigma = np.where(sigma > 0, sigma, 1.0)
    with np.errstate(over="ignore"):  # gap/sigma may overflow; ndtr(inf) is fine
        return np.where(sigma > 0, ndtr(gap / safe_sigma), (gap > 0).astype(float))


def expected_improvement(mu, sigma, f_best, xi: float = 0.0):
    """E[max(0, latent - f_best - xi)] under N(mu, sigma^2).

    Closed form (mu - f_best - xi) * Phi(Z) + sigma * phi(Z) with
    Z = (mu - f_best - xi) / sigma; degenerates to max(0, mu - f_best - xi)
    at sigma = 0.  Always nonnegative.
    """
    return _checked(_ei, mu, sigma, f_best, xi)


def _ei(mu, sigma, f_best, xi):
    gap = mu - f_best - xi
    safe_sigma = np.where(sigma > 0, sigma, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # extreme z is benign
        z = gap / safe_sigma
        ei = gap * ndtr(z) + sigma * INV_SQRT_2PI * np.exp(-0.5 * z**2)
        ei = np.where(sigma > 0, ei, np.maximum(gap, 0.0))
    return np.maximum(ei, 0.0)


def confidence_bound(mu, sigma, upsilon: float, direction: str = "lower"):
    """mu - upsilon * sigma (lower) or mu + upsilon * sigma (upper)."""
    if upsilon < 0:
        raise AcquisitionError("upsilon must be nonnegative")
    if direction not in ("lower", "upper"):
        raise AcquisitionError(f"direction must be 'lower' or 'upper', got {direction!r}")
    # a - b is a + (-b) in IEEE arithmetic, signed zeros included
    return _checked(_ucb, mu, sigma, upsilon if direction == "upper" else -upsilon)


def _ucb(mu, sigma, upsilon):
    return mu + upsilon * sigma


def score(spec: AcquisitionSpec, mu, sigma, f_best, iteration: int = 0):
    """Score candidates under ``spec`` (maximization convention).

    ``lcb`` and ``ucb`` are the same optimistic confidence-bound strategy
    expressed for minimization and maximization respectively; once a problem
    has been folded into the internal maximization convention both reduce to
    the upper bound mu + upsilon * sigma.
    """
    return _checked(_scorer(spec, f_best, iteration), mu, sigma)


def _scorer(spec: AcquisitionSpec, f_best: float, iteration: int = 0):
    """``score`` as a function of ``(mu, sigma)`` arrays alone, for many calls
    on one incumbent.  PI and EI check ``f_best`` and the margin here, once;
    the caller checks that each call's mu and sigma are finite, sigma >= 0
    (the spec checked ``upsilon``)."""
    if spec.family not in (PI, EI):
        return lambda mu, sigma: _ucb(mu, sigma, spec.upsilon)
    xi = spec.xi_at(iteration)
    _check_finite(f_best, xi)
    core = _pi if spec.family == PI else _ei
    return lambda mu, sigma: core(mu, sigma, f_best, xi)


def ei_monte_carlo_oracle(
    mu: float, sigma: float, f_best: float, xi: float, n_samples: int, seed: int
) -> tuple[float, float]:
    """Sample-mean estimate of E[max(0, g - f_best - xi)], g ~ N(mu, sigma^2).

    Returns (estimate, standard error); deterministic given seed.
    """
    if n_samples < 1:
        raise AcquisitionError("n_samples must be at least 1")
    _check_finite(mu, sigma, f_best, xi)
    if sigma == 0:
        return max(0.0, mu - f_best - xi), 0.0
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = n_samples
    while remaining > 0:  # chunked to bound memory at large n_samples
        chunk = min(remaining, 2_000_000)
        g = mu + sigma * rng.standard_normal(chunk)
        imp = np.maximum(0.0, g - f_best - xi)
        total += float(np.sum(imp))
        total_sq += float(np.sum(imp**2))
        remaining -= chunk
    mean = total / n_samples
    var = max(total_sq / n_samples - mean**2, 0.0)
    se = math.sqrt(var / n_samples)
    return mean, se
