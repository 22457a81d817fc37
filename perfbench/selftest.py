"""Self-test of the benchmark's own oracles.

Usage (from the repository root): python3 perfbench/selftest.py

Checks the reference formulas in ``oracles.py`` against known values and
the closed-form expected improvement against gpbo's seeded Monte-Carlo
oracle.  Every workload run repeats these checks after its measurement.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

import oracles

# (mu, sigma, f_best, xi): improvement likely, unlikely, and deep in the tail
EI_CASES = [(0.3, 0.8, 0.0, 0.01), (-0.5, 0.4, 0.2, 0.01), (-1.2, 0.5, 0.0, 0.0)]
MC_SAMPLES = 1_000_000


def run_checks() -> list[tuple[str, bool, str]]:
    from gpbo.acquisition import ei_monte_carlo_oracle

    results = []

    def check(name, ok, detail):
        results.append((name, bool(ok), detail))

    for x in ([math.pi, 2.275], [-math.pi, 12.275], [3.0 * math.pi, 2.475]):
        v = oracles.branin(x)
        check("branin minimum", abs(v - oracles.BRANIN_MINIMUM) < 1e-12, f"branin({x}) = {v!r}")
    v = oracles.branin([0.0, 0.0])
    check("branin(0, 0)", abs(v - (56.0 - 1.25 / math.pi)) < 1e-12, repr(v))
    check("rosenbrock(1, ..., 1)", oracles.rosenbrock(np.ones(6)) == 0.0,
          repr(oracles.rosenbrock(np.ones(6))))
    check("rosenbrock(0, 0)", oracles.rosenbrock([0.0, 0.0]) == 1.0, "1 expected")
    check("sphere(1, -2)", oracles.sphere([1.0, -2.0]) == 5.0, "5 expected")

    a = math.sqrt(5.0)
    k = oracles.matern52(np.zeros((1, 2)), np.array([[0.6, 0.8]]), 2.0, [1.0, 1.0])[0, 0]
    check("matern52 at r = 1", abs(k - 2.0 * (1 + a + 5 / 3) * math.exp(-a)) < 1e-15, repr(k))

    X = np.array([[0.1, 0.2], [0.7, 0.4], [0.3, 0.9]])
    y = np.array([0.5, -1.0, 2.0])
    mean, var = oracles.dense_posterior(X, y, X[1], 1.0, [0.3, 0.5], 0.0)
    check("dense posterior interpolates", abs(mean - y[1]) < 1e-10 and var < 1e-10,
          f"mean {mean!r}, variance {var!r}")

    for i, (mu, sigma, f_best, xi) in enumerate(EI_CASES):
        ei = oracles.expected_improvement(mu, sigma, f_best, xi)
        mc, se = ei_monte_carlo_oracle(mu, sigma, f_best, xi, MC_SAMPLES, seed=100 + i)
        check(f"EI vs Monte Carlo {i}", abs(ei - mc) <= 5.0 * se,
              f"closed form {ei:.6g}, Monte Carlo {mc:.6g} +- {se:.2g}")
    check("EI at sigma 0", oracles.expected_improvement(0.5, 0.0, 0.2, 0.1) == 0.5 - 0.2 - 0.1,
          "gap expected")
    return results


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    results = run_checks()
    for name, ok, detail in results:
        print(f"selftest {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
