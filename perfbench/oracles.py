"""Reference formulas the benchmark checks the program against.

Nothing here imports gpbo: the objectives, the Matern-5/2 kernel, the
dense Gaussian conditioning and the expected improvement are written out
again so that a check never rests on the code it checks.
"""

from __future__ import annotations

import math

import numpy as np

BRANIN_MINIMUM = 0.397887357729738  # at (-pi, 12.275), (pi, 2.275), (3 pi, 2.475)


def branin(x) -> float:
    x1, x2 = float(x[0]), float(x[1])
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    t = 1.0 / (8.0 * math.pi)
    return (x2 - b * x1 * x1 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * math.cos(x1) + 10.0


def rosenbrock(x) -> float:
    x = [float(v) for v in x]
    return sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2 for a, b in zip(x, x[1:]))


def sphere(x) -> float:
    return sum(float(v) * float(v) for v in x)


FORMULAS = {"branin": branin, "rosenbrock": rosenbrock, "sphere": sphere}
MINIMA = {"branin": BRANIN_MINIMUM, "rosenbrock": 0.0, "sphere": 0.0}


def matern52(A: np.ndarray, B: np.ndarray, signal_variance: float, length_scales) -> np.ndarray:
    """k(a, b) = s (1 + sqrt5 r + 5 r^2 / 3) exp(-sqrt5 r), r = |(a - b) / l|."""
    diff = (A[:, None, :] - B[None, :, :]) / np.asarray(length_scales, dtype=float)
    a = math.sqrt(5.0) * np.sqrt(np.sum(diff * diff, axis=2))
    return signal_variance * (1.0 + a + a * a / 3.0) * np.exp(-a)


def dense_posterior(X, y, x_star, signal_variance, length_scales, noise_variance):
    """Zero-prior-mean posterior mean and latent variance at one point by
    dense ``numpy.linalg.solve`` conditioning of the joint Gaussian."""
    X = np.asarray(X, dtype=float)
    x_star = np.asarray(x_star, dtype=float).reshape(1, -1)
    K = matern52(X, X, signal_variance, length_scales) + noise_variance * np.eye(len(X))
    k = matern52(X, x_star, signal_variance, length_scales)[:, 0]
    mean = float(k @ np.linalg.solve(K, np.asarray(y, dtype=float)))
    var = float(signal_variance - k @ np.linalg.solve(K, k))
    return mean, max(var, 0.0)


def expected_improvement(mu: float, sigma: float, f_best: float, xi: float) -> float:
    """E[max(0, g - f_best - xi)] for g ~ N(mu, sigma^2), maximisation."""
    gap = mu - f_best - xi
    if sigma <= 0.0:
        return max(gap, 0.0)
    z = gap / sigma
    cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return max(gap * cdf + sigma * pdf, 0.0)


def loop_ei(records, index: int, lower, upper, sign: float, xi: float) -> float:
    """EI of ``records[index]``'s proposal, rebuilt from that row's recorded
    hypers and the rows before it, as the loop frames it: unit-cube inputs,
    standardised values in the maximisation convention, zero prior mean."""
    rec = records[index]
    h = rec.hypers
    lower = np.asarray(lower, dtype=float)
    width = np.asarray(upper, dtype=float) - lower
    X = (np.array([r.x for r in records[:index]]) - lower) / width
    y_std = (sign * np.array([r.y for r in records[:index]]) - h["y_mean"]) / h["y_sd"]
    mean, var = dense_posterior(
        X,
        y_std,
        (rec.x - lower) / width,
        h["kernel"]["signal_variance"],
        h["kernel"]["length_scales"],
        h["noise_variance"],
    )
    return expected_improvement(mean, math.sqrt(var), float(np.max(y_std)), xi)
