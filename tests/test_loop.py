import math

import numpy as np
import pytest

from gpbo import gp
from gpbo.acquisition import AcquisitionSpec, expected_improvement
from gpbo.baseline import random_search_baseline
from gpbo.gp import ObservationSet, fit_posterior, predict
from gpbo.kernels import KernelSpec
from gpbo.loop import (
    BoConfig,
    LoopError,
    ObjectiveFailure,
    SearchSpace,
    halton_points,
    incumbent,
    propose_next,
    run_bo,
    unit_cube,
)
from gpbo.objectives import sphere
from gpbo.trace_io import TraceWriter, read_trace, traces_equal

ISO = KernelSpec("sq_exp_iso")


def sphere_config(budget=25, seed=0, **kw):
    return BoConfig(budget=budget, seed=seed, n_init=6, **kw)


class TestSearchSpace:
    def test_validation(self):
        with pytest.raises(LoopError):
            SearchSpace([0.0], [0.0])
        with pytest.raises(LoopError):
            SearchSpace([0.0, 1.0], [1.0])
        with pytest.raises(LoopError):
            SearchSpace([0.0], [np.inf])

    def test_unit_mapping_round_trip(self):
        space = SearchSpace([-5.0, 0.0], [10.0, 15.0])
        x = np.array([2.5, 7.5])
        np.testing.assert_allclose(space.from_unit(space.to_unit(x)), x)


class TestIncumbent:
    def test_single_obs(self):
        x, f = incumbent(ObservationSet([[1.0]], [3.0]))
        assert f == 3.0 and x[0] == 1.0

    def test_tie_break_lowest_index(self):
        obs = ObservationSet([[0.0], [1.0], [2.0]], [3.0, 1.0, 1.0])
        x, f = incumbent(obs)
        assert f == 1.0 and x[0] == 1.0

    def test_maximize_direction(self):
        obs = ObservationSet([[0.0], [1.0]], [3.0, 5.0], direction=gp.MAXIMIZE)
        _, f = incumbent(obs)
        assert f == 5.0

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=100)
        obs = ObservationSet(rng.normal(size=(100, 2)), y)
        _, f = incumbent(obs)
        best = y[0]
        for v in y:  # brute-force scan
            if v < best:
                best = v
        assert f == best

    def test_empty_raises(self):
        with pytest.raises(LoopError):
            incumbent(gp.empty_observations(1))


class TestUpdate:
    """``ObservationSet.append``: the persistent, copying update."""

    def test_append_to_empty(self):
        obs = gp.empty_observations(2).append([0.5, 0.5], 1.0)
        assert len(obs) == 1

    def test_original_unchanged(self):
        obs = ObservationSet([[0.0]], [1.0])
        obs2 = obs.append([1.0], 2.0)
        assert len(obs) == 1 and len(obs2) == 2

    def test_order_preserved_against_replay(self):
        rng = np.random.default_rng(2)
        xs, ys = rng.normal(size=(10, 1)), rng.normal(size=10)
        obs = gp.empty_observations(1)
        for x, y in zip(xs, ys):
            obs = obs.append(x, y)
        np.testing.assert_array_equal(obs.X, xs)
        np.testing.assert_array_equal(obs.y, ys)

    def test_non_finite_raises(self):
        with pytest.raises(gp.GpError):
            ObservationSet([[0.0]], [1.0]).append([1.0], math.nan)


class TestProposeNext:
    def setup_method(self):
        obs = ObservationSet([[0.5]], [0.0], direction=gp.MAXIMIZE)
        self.post = fit_posterior(obs, ISO, 0.0, prior_mean=0.0)
        self.space = unit_cube(1)
        self.acq = AcquisitionSpec("ei", xi=0.0)

    def test_within_bounds_and_no_regression(self):
        for seed in range(10):
            cands = halton_points(self.space, 256, seed)
            pred = predict(self.post, cands)
            raw_best = np.max(
                expected_improvement(pred.mean, np.sqrt(pred.variance), 0.0, 0.0)
            )
            x, val = propose_next(
                self.post, self.acq, self.space, 256, 16, seed, f_best=0.0
            )
            assert self.space.contains(x)
            assert val >= raw_best

    def test_explores_away_from_lone_observation(self):
        # dense-grid oracle for the EI maximum
        grid = np.linspace(0, 1, 10_000).reshape(-1, 1)
        pred = predict(self.post, grid)
        ei = expected_improvement(pred.mean, np.sqrt(pred.variance), 0.0, 0.0)
        grid_best = float(np.max(ei))
        x, val = propose_next(
            self.post, self.acq, self.space, 1024, 32, seed=0, f_best=0.0
        )
        assert abs(x[0] - 0.5) >= 0.2
        assert abs(val - grid_best) < 1e-2

    def test_noiseless_duplicate_guard(self):
        # UCB with upsilon=0 is maximized exactly at the training point
        acq = AcquisitionSpec("ucb", upsilon=0.0)
        obs = ObservationSet([[0.5]], [1.0], direction=gp.MAXIMIZE)
        post = fit_posterior(obs, ISO, 0.0, prior_mean=0.0)
        x, _ = propose_next(post, acq, self.space, 128, 32, seed=3, f_best=1.0)
        assert abs(x[0] - 0.5) > 1e-9

    def test_dimension_mismatch_raises(self):
        with pytest.raises(LoopError):
            propose_next(self.post, self.acq, unit_cube(2), 16, 0, 0, f_best=0.0)


class TestRunBo:
    def test_trace_contract(self):
        trace = run_bo(sphere, SearchSpace([-2, -2], [2, 2]), sphere_config())
        assert len(trace) == 25
        incs = [r.incumbent_f for r in trace]
        assert all(a >= b for a, b in zip(incs, incs[1:]))
        for rec in trace:
            assert np.all(rec.x >= -2) and np.all(rec.x <= 2)

    def test_budget_equals_n_init_is_pure_space_filling(self):
        cfg = BoConfig(budget=6, seed=0, n_init=6)
        trace = run_bo(sphere, SearchSpace([-2, -2], [2, 2]), cfg)
        assert len(trace) == 6
        assert all(rec.hypers is None for rec in trace)
        assert all(math.isnan(rec.acq_value) for rec in trace)

    def test_deterministic_given_seed(self):
        space = SearchSpace([-2, -2], [2, 2])
        t1 = run_bo(sphere, space, sphere_config(budget=15, seed=11))
        t2 = run_bo(sphere, space, sphere_config(budget=15, seed=11))
        for a, b in zip(t1, t2):
            assert np.array_equal(a.x, b.x)
            assert a.y == b.y and a.incumbent_f == b.incumbent_f
            assert a.acq_value == b.acq_value or (
                math.isnan(a.acq_value) and math.isnan(b.acq_value)
            )

    def test_direction_symmetry(self):
        space = SearchSpace([-2, -2], [2, 2])
        t_min = run_bo(
            sphere, space, sphere_config(budget=15, seed=4, direction=gp.MINIMIZE)
        )
        t_max = run_bo(
            lambda x: -sphere(x),
            space,
            sphere_config(budget=15, seed=4, direction=gp.MAXIMIZE),
        )
        for a, b in zip(t_min, t_max):
            assert np.array_equal(a.x, b.x)

    def test_incumbent_monotone_under_maximize(self):
        space = SearchSpace([-2.0], [2.0])
        cfg = BoConfig(budget=15, seed=5, n_init=4, direction=gp.MAXIMIZE)
        trace = run_bo(lambda x: -sphere(x), space, cfg)
        incs = [r.incumbent_f for r in trace]
        assert all(a <= b for a, b in zip(incs, incs[1:]))

    def test_fixed_kernel_skips_fitting(self):
        cfg = sphere_config(
            budget=12,
            fixed_kernel=KernelSpec("sq_exp_ard", 1.0, [0.3, 0.3]),
            noise_variance=1e-6,
        )
        trace = run_bo(sphere, SearchSpace([-2, -2], [2, 2]), cfg)
        fitted = [r.hypers for r in trace if r.hypers is not None]
        assert all(h["kernel"]["length_scales"] == [0.3, 0.3] for h in fitted)

    def test_finds_sphere_minimum(self):
        cfg = sphere_config(budget=30, seed=0)
        trace = run_bo(sphere, SearchSpace([-2, -2], [2, 2]), cfg)
        assert trace.best_f < 0.05


def _run_bo(objective, space, budget, seed, direction=gp.MINIMIZE, trace_writer=None):
    cfg = sphere_config(budget=budget, seed=seed, direction=direction)
    return run_bo(objective, space, cfg, trace_writer=trace_writer)


BOTH_PROPOSERS = pytest.mark.parametrize(
    "optimizer", [_run_bo, random_search_baseline], ids=["run_bo", "random_search_baseline"]
)


class TestDriver:
    """The evaluate-and-record path that ``run_bo`` and random search share."""

    @BOTH_PROPOSERS
    def test_non_finite_objective_aborts_with_partial_trace(self, optimizer, tmp_path):
        calls = {"n": 0}

        def bad(x):
            calls["n"] += 1
            return math.nan if calls["n"] == 4 else sphere(x)

        path = tmp_path / "partial.csv"
        with TraceWriter(path, 1) as writer, pytest.raises(ObjectiveFailure) as err:
            optimizer(bad, SearchSpace([-2.0], [2.0]), 10, 0, trace_writer=writer)
        assert len(err.value.trace) == 3
        assert traces_equal(read_trace(path), err.value.trace)

    @BOTH_PROPOSERS
    @pytest.mark.parametrize("direction", [gp.MINIMIZE, gp.MAXIMIZE])
    @pytest.mark.parametrize("objective", ["sphere", "tied"])
    def test_incumbent_matches_reference_on_every_row(self, optimizer, direction, objective):
        f = sphere if objective == "sphere" else (lambda x: float(round(x[0])))
        trace = optimizer(f, SearchSpace([-2.0, -2.0], [2.0, 2.0]), 14, 3, direction=direction)
        X = np.array([r.x for r in trace])
        y = np.array([r.y for r in trace])
        if objective == "tied":
            assert len(np.unique(y)) < len(y)
        for k, rec in enumerate(trace):
            ref_x, ref_f = incumbent(ObservationSet(X[: k + 1], y[: k + 1], direction))
            assert np.array_equal(rec.incumbent_x, ref_x)
            assert rec.incumbent_f == ref_f


class TestBoConfigValidation:
    def test_bad_budget(self):
        with pytest.raises(LoopError):
            BoConfig(budget=0, seed=0)

    def test_n_init_exceeding_budget(self):
        with pytest.raises(LoopError):
            BoConfig(budget=5, seed=0, n_init=6)

    def test_bad_noise_string(self):
        with pytest.raises(LoopError):
            BoConfig(budget=5, seed=0, noise_variance="learn")

    def test_json_round_trip(self):
        cfg = BoConfig(
            budget=40,
            seed=7,
            n_init=8,
            direction=gp.MAXIMIZE,
            acquisition=AcquisitionSpec("pi", xi=0.1),
            noise_variance=0.5,
        )
        back = BoConfig.from_json_dict(cfg.to_json_dict())
        assert back.budget == 40 and back.seed == 7
        assert back.acquisition == cfg.acquisition
        assert back.noise_variance == 0.5

    def test_unknown_field_rejected(self):
        with pytest.raises(LoopError):
            BoConfig.from_json_dict({"budget": 5, "seed": 0, "bogus": 1})
