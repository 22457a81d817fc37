"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``)."""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gpbo.acquisition import (
    AcquisitionSpec,
    confidence_bound,
    ei_monte_carlo_oracle,
    expected_improvement,
    probability_of_improvement,
)
from gpbo.baseline import random_search_baseline
from gpbo.cli import EXIT_OBJECTIVE, EXIT_OK, main
from gpbo.gp import ObservationSet, fit_posterior, log_marginal_likelihood, predict
from gpbo.kernels import (
    KernelSpec,
    eval_kernel,
    gram_matrix,
    kernel_grad_hyper,
)
from gpbo.loop import BoConfig, SearchSpace, incumbent, run_bo
from gpbo.objectives import branin, recommended_space
from gpbo.trace_io import read_trace

SPHERE_WORKER = Path(__file__).resolve().parents[1] / "demos" / "sphere_worker.py"


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def random_kernel(rng, d):
    family = rng.choice(["sq_exp_iso", "sq_exp_ard", "matern"])
    return KernelSpec(
        family=family,
        signal_variance=float(rng.uniform(0.2, 4.0)),
        length_scales=rng.uniform(0.3, 2.5, size=1 if family == "sq_exp_iso" else d),
        nu=float(rng.choice([0.5, 1.5, 2.5])) if family == "matern" else None,
    )


def test_criterion_1_gp_oracle_equivalence():
    """Factorized predict vs dense joint-Gaussian conditioning, 100 random
    instances (n <= 20, d <= 5), rel. err < 1e-8, under 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n, d, m = int(rng.integers(1, 21)), int(rng.integers(1, 6)), 4
        kernel = random_kernel(rng, d)
        obs = ObservationSet(rng.uniform(-2, 2, (n, d)), rng.normal(size=n))
        noise = float(rng.uniform(0.01, 0.5))
        X_star = rng.uniform(-2, 2, (m, d))
        post = fit_posterior(obs, kernel, noise, prior_mean=0.0)
        pred = predict(post, X_star)
        K = gram_matrix(kernel, obs.X) + noise * np.eye(n)
        Ks = np.array(
            [[eval_kernel(kernel, xs, xt) for xt in obs.X] for xs in X_star]
        )
        Kinv = np.linalg.inv(K)
        mean_o = Ks @ Kinv @ obs.y
        var_o = np.array(
            [
                eval_kernel(kernel, xs, xs) - Ks[i] @ Kinv @ Ks[i]
                for i, xs in enumerate(X_star)
            ]
        )
        scale = max(1.0, float(np.max(np.abs(mean_o))))
        worst = max(
            worst,
            float(np.max(np.abs(pred.mean - mean_o))) / scale,
            float(np.max(np.abs(pred.variance - np.maximum(var_o, 0.0))))
            / kernel.signal_variance,
        )
    dt = time.perf_counter() - t0
    report(
        1,
        worst < 1e-8 and dt < 10.0,
        f"100 instances, worst rel. err {worst:.2e}, {dt:.1f}s",
    )


def test_criterion_2_ei_closed_form_vs_monte_carlo():
    """Closed-form EI within 3 standard errors of the 1e7-sample Monte-Carlo
    oracle on 50 random configurations, under 60 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_ratio = 0.0
    for i in range(50):
        mu = float(rng.uniform(-3, 3))
        sigma = float(rng.uniform(0.05, 3.0))
        xi = float(rng.uniform(0, 1))
        z = float(rng.uniform(-4, 3))  # keep the improvement region reachable
        f_best = mu - xi - z * sigma
        est, se = ei_monte_carlo_oracle(mu, sigma, f_best, xi, 10**7, seed=1000 + i)
        closed = expected_improvement(mu, sigma, f_best, xi)
        worst_ratio = max(worst_ratio, abs(closed - est) / (3 * se))
    dt = time.perf_counter() - t0
    report(
        2,
        worst_ratio <= 1.0 and dt < 60.0,
        f"50 configs x 1e7 samples, worst |err|/3SE {worst_ratio:.2f}, {dt:.1f}s",
    )


def test_criterion_3_known_constants():
    pi_val = probability_of_improvement(1.0, 1.0, 1.0, 0.0)
    ei_val = expected_improvement(0.0, 1.0, 0.0, 0.0)
    matern = eval_kernel(KernelSpec("matern", nu=0.5, length_scales=[0.8]), [0.0], [0.8])
    # dense-grid oracle around the branin optimum
    x1 = np.linspace(-5, 10, 1000)
    x2 = np.linspace(0, 15, 1000)
    G1, G2 = np.meshgrid(x1, x2)
    vals = (
        (G2 - 5.1 / (4 * math.pi**2) * G1**2 + 5 / math.pi * G1 - 6) ** 2
        + 10 * (1 - 1 / (8 * math.pi)) * np.cos(G1)
        + 10
    )
    checks = [
        pi_val == 0.5,
        abs(ei_val - 0.3989422804) <= 1e-9,
        abs(matern - math.exp(-1.0)) <= 1e-12,
        abs(branin([math.pi, 2.275]) - 0.397887) <= 1e-4,
        vals.min() >= 0.3978,
    ]
    report(
        3,
        all(checks),
        f"PI(Z=0)={pi_val}, EI(Z=0)={ei_val:.10f}, "
        f"matern(r=l)={matern:.12f}, branin(pi,2.275)={branin([math.pi, 2.275]):.6f}, "
        f"grid min {vals.min():.6f}",
    )


def test_criterion_4_gradient_suites():
    """Kernel hyper-gradients (100 cases, rel err < 1e-6) and LML gradients
    (50 cases, rel err < 1e-5) vs central finite differences."""
    rng = np.random.default_rng(404)
    worst_k = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        spec = random_kernel(rng, d)
        x = rng.uniform(-2, 2, d)
        xp = x + rng.uniform(0.1, 2.0, d) * rng.choice([-1, 1], d)
        analytic = kernel_grad_hyper(spec, x, xp)
        z0 = spec.log_hypers()
        h = 1e-6
        fd = np.empty_like(z0)
        for i in range(z0.size):
            zp, zm = z0.copy(), z0.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (
                eval_kernel(spec.with_log_hypers(zp), x, xp)
                - eval_kernel(spec.with_log_hypers(zm), x, xp)
            ) / (2 * h)
        worst_k = max(
            worst_k, float(np.max(np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)))
        )

    worst_l = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(3, 12))
        kernel = KernelSpec(
            "sq_exp_ard",
            signal_variance=float(rng.uniform(0.5, 3.0)),
            length_scales=rng.uniform(0.5, 2.0, d),
        )
        obs = ObservationSet(rng.uniform(-2, 2, (n, d)), rng.normal(size=n))
        noise = float(rng.uniform(0.05, 0.5))
        _, grad = log_marginal_likelihood(obs, kernel, noise, prior_mean=0.0, with_grad=True)
        z0 = np.append(kernel.log_hypers(), math.log(noise))
        h = 1e-5
        fd = np.empty_like(z0)
        for i in range(z0.size):
            zp, zm = z0.copy(), z0.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (
                log_marginal_likelihood(
                    obs, kernel.with_log_hypers(zp[:-1]), math.exp(zp[-1]), prior_mean=0.0
                )
                - log_marginal_likelihood(
                    obs, kernel.with_log_hypers(zm[:-1]), math.exp(zm[-1]), prior_mean=0.0
                )
            ) / (2 * h)
        worst_l = max(
            worst_l, float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)))
        )
    report(
        4,
        worst_k < 1e-6 and worst_l < 1e-5,
        f"kernel grad worst rel. err {worst_k:.2e} (100 cases), "
        f"LML grad worst rel. err {worst_l:.2e} (50 cases)",
    )


def test_criterion_5_invariant_suites():
    """>= 1000 generated cases across the library invariants."""
    rng = np.random.default_rng(505)
    cases = 0

    # Gram PSD with jitter (200 cases)
    for _ in range(200):
        n, d = int(rng.integers(1, 21)), int(rng.integers(1, 6))
        spec = random_kernel(rng, d)
        K = gram_matrix(
            spec, rng.uniform(-3, 3, (n, d)), jitter=1e-10 * spec.signal_variance
        )
        assert np.linalg.eigvalsh(K).min() >= -1e-12
        cases += 1

    # posterior variance <= prior variance; shrinks with added data (150 x 2).
    # The shrink comparison is only meaningful when both noiseless fits
    # factorized exactly (zero jitter): escalated jitter perturbs the model,
    # so the two posteriors would no longer be nested.
    shrink_checked = 0
    while shrink_checked < 150:
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 12))
        kernel = random_kernel(rng, d)
        obs = ObservationSet(rng.uniform(-2, 2, (n, d)), rng.normal(size=n))
        post = fit_posterior(obs, kernel, 0.0, prior_mean=0.0)
        X_star = rng.uniform(-2, 2, (5, d))
        v1 = predict(post, X_star).variance
        assert np.all(v1 <= kernel.signal_variance + 1e-8)
        cases += 1
        obs2 = obs.append(rng.uniform(-2, 2, d), float(rng.normal()))
        post2 = fit_posterior(obs2, kernel, 0.0, prior_mean=0.0)
        if post.jitter == 0.0 and post2.jitter == 0.0:
            v2 = predict(post2, X_star).variance
            assert np.all(v2 <= v1 + 1e-8)
            cases += 1
            shrink_checked += 1

    # EI nonnegative and monotone in mu; LCB <= mu <= UCB (300 cases)
    for _ in range(300):
        sigma = float(rng.uniform(0, 3))
        f_best = float(rng.uniform(-5, 5))
        xi = float(rng.uniform(0, 1))
        mus = np.sort(rng.uniform(-5, 5, 8))
        ei = np.atleast_1d(expected_improvement(mus, sigma, f_best, xi))
        assert np.all(ei >= 0) and np.all(np.diff(ei) >= -1e-12)
        ups = float(rng.uniform(0, 5))
        lcb = confidence_bound(mus, sigma, ups, "lower")
        ucb = confidence_bound(mus, sigma, ups, "upper")
        assert np.all(lcb <= mus) and np.all(mus <= ucb)
        cases += 1

    # incumbent monotonicity via random prefix scans (200 cases)
    for _ in range(200):
        y = rng.normal(size=int(rng.integers(1, 30)))
        X = rng.normal(size=(y.size, 2))
        best = math.inf
        for k in range(1, y.size + 1):
            _, f = incumbent(ObservationSet(X[:k], y[:k]))
            assert f <= best + 1e-15
            best = f
        cases += 1

    # proposals in-bounds + bitwise run determinism (2 paired runs, all rows)
    space = SearchSpace([-2.0, -2.0], [2.0, 2.0])
    cfg = BoConfig(budget=18, seed=99, n_init=6)
    t1 = run_bo(lambda x: float(np.sum(x**2)), space, cfg)
    t2 = run_bo(lambda x: float(np.sum(x**2)), space, cfg)
    for a, b in zip(t1, t2):
        assert space.contains(a.x)
        assert np.array_equal(a.x, b.x) and a.y == b.y
        assert a.incumbent_f == b.incumbent_f
        cases += 2

    report(5, cases >= 1000, f"{cases} generated cases, all invariants held")


@pytest.mark.slow
def test_criterion_6_branin_benchmark():
    """Branin, budget 60 (n_init 8), EI xi=0.01, seeds 0-19: >= 18/20 runs
    reach incumbent <= 0.9 and BO median beats paired random search,
    under 5 minutes."""
    t0 = time.perf_counter()
    space = recommended_space("branin")
    bo_finals, rs_finals = [], []
    for seed in range(20):
        cfg = BoConfig(
            budget=60, seed=seed, n_init=8,
            acquisition=AcquisitionSpec("ei", xi=0.01),
        )
        bo_finals.append(run_bo(branin, space, cfg).best_f)
        rs_finals.append(random_search_baseline(branin, space, 60, seed).best_f)
    dt = time.perf_counter() - t0
    hits = sum(f <= 0.9 for f in bo_finals)
    bo_med, rs_med = float(np.median(bo_finals)), float(np.median(rs_finals))
    report(
        6,
        hits >= 18 and bo_med < rs_med and dt < 300.0,
        f"{hits}/20 runs <= 0.9, BO median {bo_med:.4f} vs random {rs_med:.4f}, {dt:.0f}s",
    )


def test_criterion_7_protocol_conformance(tmp_path):
    """Reference sphere worker completes a budget-20 run over NDJSON; the
    malformed-response and timeout cases exit 3 with a flushed partial
    trace."""
    base_cfg = {
        "space": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
        "bo": {"budget": 20, "n_init": 6, "seed": 0},
    }

    def run_with(worker_cmd, timeout, trace_name):
        cfg = dict(base_cfg)
        cfg["objective"] = {
            "kind": "external",
            "command": worker_cmd,
            "mode": "persistent",
            "timeout": timeout,
        }
        cfg_path = tmp_path / f"{trace_name}.json"
        cfg_path.write_text(json.dumps(cfg))
        trace_path = tmp_path / f"{trace_name}.csv"
        rc = main(["run", "--config", str(cfg_path), "--trace", str(trace_path)])
        return rc, trace_path

    rc, trace_path = run_with([sys.executable, str(SPHERE_WORKER)], 30.0, "ok")
    trace = read_trace(trace_path)
    ok_full = rc == EXIT_OK and len(trace) == 20 and all(
        rec.y == pytest.approx(float(np.sum(rec.x**2))) for rec in trace
    )

    bad_worker = tmp_path / "bad.py"
    bad_worker.write_text(
        "import json, sys\n"
        "n = 0\n"
        "for line in sys.stdin:\n"
        "    n += 1\n"
        "    if n > 5:\n"
        "        print('{bad', flush=True)\n"
        "    else:\n"
        "        print(json.dumps({'y': sum(v*v for v in json.loads(line)['x'])}), flush=True)\n"
    )
    rc_bad, bad_trace = run_with([sys.executable, str(bad_worker)], 30.0, "bad")
    ok_bad = rc_bad == EXIT_OBJECTIVE and len(read_trace(bad_trace)) == 5

    slow_worker = tmp_path / "slow.py"
    slow_worker.write_text(
        "import sys, time\nfor line in sys.stdin:\n    time.sleep(30)\n"
    )
    rc_slow, slow_trace = run_with([sys.executable, str(slow_worker)], 0.5, "slow")
    ok_slow = rc_slow == EXIT_OBJECTIVE and len(read_trace(slow_trace)) == 0

    report(
        7,
        ok_full and ok_bad and ok_slow,
        f"budget-20 worker run rc={rc}, malformed rc={rc_bad} "
        f"(5 rows flushed), timeout rc={rc_slow} (header flushed)",
    )
