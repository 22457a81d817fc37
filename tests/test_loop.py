import dataclasses
import json
import math

import numpy as np
import pytest

from gpbo import gp, loop
from gpbo.acquisition import AcquisitionError, AcquisitionSpec, expected_improvement, score
from gpbo.baseline import random_search_baseline
from gpbo.gp import HyperBounds, ObservationSet, fit_posterior, predict
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
)
from gpbo.objectives import branin, recommended_space, sphere
from gpbo.trace_io import TraceWriter, read_trace

ISO = KernelSpec("sq_exp_iso")


def unit_cube(dimension):
    return SearchSpace(np.zeros(dimension), np.ones(dimension))


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

    def test_width_past_the_float_range_raises(self):
        with pytest.raises(LoopError, match="widths"):
            SearchSpace([-1e308], [1e308])
        with pytest.raises(LoopError, match="widths"):
            SearchSpace([0.0, -np.inf], [1.0, 0.0])
        assert SearchSpace([-1e308], [0.0]).widths[0] == 1e308

    def test_unit_mapping_round_trip(self):
        space = SearchSpace([-5.0, 0.0], [10.0, 15.0])
        x = np.array([2.5, 7.5])
        np.testing.assert_allclose(space.from_unit(space.to_unit(x)), x)

    def test_json_round_trip(self):
        space = SearchSpace([-5.0, 0.0], [10.0, 15.0])
        obj = json.loads(json.dumps(space.to_json_dict()))
        assert obj == {"lower": [-5.0, 0.0], "upper": [10.0, 15.0]}
        back = SearchSpace.from_json_dict(obj)
        assert np.array_equal(back.lower, space.lower)
        assert np.array_equal(back.upper, space.upper)
        ints = SearchSpace.from_json_dict({"lower": [-5, 0], "upper": [10, 15]})
        assert np.array_equal(ints.lower, space.lower) and ints.lower.dtype == float
        with pytest.raises(LoopError, match="lower"):
            SearchSpace.from_json_dict({"lower": None, "upper": [10.0]})
        with pytest.raises(LoopError, match="lower"):  # JSON false is not 0
            SearchSpace.from_json_dict({"lower": [False, 0], "upper": [1.0, 1.0]})


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
            incumbent(ObservationSet(np.empty((0, 1)), np.empty(0)))


#: halton_points(3, 5, seed=0), pinned bit for bit
HALTON_SEED0_D3_N5 = [
    ["0x1.9600b82ecb948p-4", "0x1.b9a95a7ee723ap-5", "0x1.33feaf0d8d01bp-2"],
    ["0x1.32c01705d9729p-1", "0x1.70efeafd43c79p-1", "0x1.66cc2453934dap-1"],
    ["0x1.65802e0bb2e52p-2", "0x1.8c8a80a53239bp-2", "0x1.9cc7890300d35p-4"],
    ["0x1.b2c01705d9729p-1", "0x1.51f88f834801cp-3", "0x1.0065bded2ce74p-1"],
    ["0x1.cb005c1765ca4p-3", "0x1.a9d379362755bp-1", "0x1.cd328ab9f9b40p-1"],
]
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


class TestHaltonPoints:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_bitwise_equal_to_scipy(self, d):
        qmc = pytest.importorskip("scipy.stats.qmc")
        lower = np.linspace(-3.0, 1.0, d)
        upper = lower + np.linspace(0.5, 7.0, d)
        space = SearchSpace(lower, upper)
        b = PRIMES[d - 1]  # the largest base
        sizes = {1, 2, 2048, 6144}
        for k in (1, 2, 3):
            if b**k <= 6144:
                sizes |= {b**k - 1, b**k, b**k + 1}
        for n in sorted(sizes):
            for seed in (0, 1, 2**32 + 5, 2**64 - 1):
                ours = space.from_unit(halton_points(d, n, seed))
                ref = qmc.scale(qmc.Halton(d, scramble=True, seed=seed).random(n), lower, upper)
                assert ours.tobytes() == ref.tobytes(), (n, seed)

    def test_golden_values(self):
        expected = np.array([[float.fromhex(v) for v in row] for row in HALTON_SEED0_D3_N5])
        assert halton_points(3, 5, 0).tobytes() == expected.tobytes()

    def test_inside_the_box_with_one_point_per_stratum(self):
        U = halton_points(2, 9, 4)
        assert U.min() >= 0.0 and U.max() < 1.0
        # 9 = 3**2 points put one point in each ninth of the base-3 axis
        cells = np.floor(U[:, 1] * 9).astype(int)
        assert sorted(cells) == list(range(9))

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_a_point(self, n):
        with pytest.raises(LoopError):
            halton_points(2, n, 0)


class TestUpdate:
    """``ObservationSet.append``: the persistent, copying update."""

    def test_append_to_empty(self):
        obs = ObservationSet(np.empty((0, 2)), np.empty(0)).append([0.5, 0.5], 1.0)
        assert len(obs) == 1

    def test_original_unchanged(self):
        obs = ObservationSet([[0.0]], [1.0])
        obs2 = obs.append([1.0], 2.0)
        assert len(obs) == 1 and len(obs2) == 2

    def test_order_preserved_against_replay(self):
        rng = np.random.default_rng(2)
        xs, ys = rng.normal(size=(10, 1)), rng.normal(size=10)
        obs = ObservationSet(np.empty((0, 1)), np.empty(0))
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
        self.acq = AcquisitionSpec("ei", xi=0.0)

    def test_within_bounds_and_no_regression(self):
        for seed in range(10):
            cands = halton_points(1, 256, seed)
            pred = predict(self.post, cands)
            raw_best = np.max(
                expected_improvement(pred.mean, np.sqrt(pred.variance), 0.0, 0.0)
            )
            x, val = propose_next(self.post, self.acq, 256, 16, seed, f_best=0.0)
            assert 0.0 <= x[0] <= 1.0
            assert val >= raw_best

    def test_explores_away_from_lone_observation(self):
        # dense-grid oracle for the EI maximum
        grid = np.linspace(0, 1, 10_000).reshape(-1, 1)
        pred = predict(self.post, grid)
        ei = expected_improvement(pred.mean, np.sqrt(pred.variance), 0.0, 0.0)
        grid_best = float(np.max(ei))
        x, val = propose_next(self.post, self.acq, 1024, 32, seed=0, f_best=0.0)
        assert abs(x[0] - 0.5) >= 0.2
        assert abs(val - grid_best) < 1e-2

    def test_noiseless_duplicate_guard(self):
        # UCB with upsilon=0 is maximized exactly at the training point
        acq = AcquisitionSpec("ucb", upsilon=0.0)
        obs = ObservationSet([[0.5]], [1.0], direction=gp.MAXIMIZE)
        post = fit_posterior(obs, ISO, 0.0, prior_mean=0.0)
        x, _ = propose_next(post, acq, 128, 32, seed=3, f_best=1.0)
        assert abs(x[0] - 0.5) > 1e-9

    @pytest.mark.parametrize("family", ["ei", "pi", "ucb"])
    def test_non_finite_posterior_raises(self, family):
        post = dataclasses.replace(self.post, alpha=np.full_like(self.post.alpha, np.inf))
        with pytest.raises(AcquisitionError, match="non-finite"):
            propose_next(post, AcquisitionSpec(family), 16, 4, 0, f_best=0.0)


def reference_propose_next(post, acq, space, candidate_count, refine_iters, seed, f_best):
    """``propose_next`` as it was before its pattern search got its own
    scorer: fresh trial points by ``np.repeat``, then ``predict`` and
    ``score`` per step.  Also returns whether the duplicate guard replaced
    the search's point."""
    def score_points(X):
        pred = predict(post, X)
        return np.asarray(score(acq, pred.mean, np.sqrt(pred.variance), f_best)).reshape(-1)

    cands = halton_points(space.dimension, candidate_count, seed)
    vals = score_points(cands)
    best_i = int(np.argmax(vals))
    best_x, best_v = cands[best_i].copy(), float(vals[best_i])
    step = 0.1 * space.widths
    min_step = 1e-12 * space.widths
    axes = np.arange(space.dimension)
    for _ in range(refine_iters):
        trial = np.repeat(best_x[None, :], 2 * space.dimension, axis=0)
        trial[2 * axes, axes] = np.minimum(best_x + step, space.upper)
        trial[2 * axes + 1, axes] = np.maximum(best_x - step, space.lower)
        tvals = score_points(trial)
        ti = int(np.argmax(tvals))
        if tvals[ti] > best_v:
            best_x, best_v = trial[ti].copy(), float(tvals[ti])
        else:
            step = np.maximum(step / 2.0, min_step)
    if post.noise_variance == 0.0 and loop._is_duplicate(post, best_x):
        for i in np.argsort(-vals):
            if not loop._is_duplicate(post, cands[i]):
                return cands[i].copy(), float(vals[i]), True
    return best_x, best_v, False


KERNELS = [("sq_exp_iso", None), ("sq_exp_ard", None), ("matern", 0.5), ("matern", 1.5),
           ("matern", 2.5)]
ACQUISITIONS = {
    "ei": AcquisitionSpec("ei", xi=0.01),
    "pi": AcquisitionSpec("pi", xi=0.01),
    "ucb": AcquisitionSpec("ucb"),
    "ucb-mean": AcquisitionSpec("ucb", upsilon=0.0),  # maximized at a training point
}


class TestPatternSearchBits:
    """``propose_next`` returns the reference's x and value, bit for bit, on
    one BLAS thread."""

    @staticmethod
    def posterior(n, d, family, nu, noise):
        rng = np.random.default_rng(1000 * n + d)
        X = rng.uniform(0.0, 1.0, size=(n, d))
        y = np.sin(6.0 * X).sum(axis=1) + 0.1 * rng.standard_normal(n)
        ls = np.full(1 if family == "sq_exp_iso" else d, 0.3)
        obs = ObservationSet(X, y - y.mean(), direction=gp.MAXIMIZE)
        kernel = KernelSpec(family, 1.0, ls, nu=nu)
        return fit_posterior(obs, kernel, noise, prior_mean=0.0), float(np.max(obs.y))

    @pytest.mark.parametrize("noise", [0.0, 1e-2], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("acq", list(ACQUISITIONS))
    @pytest.mark.parametrize("family, nu", KERNELS)
    @pytest.mark.parametrize("d", [1, 2, 6])
    @pytest.mark.parametrize("n", [1, 7, 40, 200])
    def test_same_bits_as_predict_and_score(self, one_blas_thread, n, d, family, nu, acq, noise):
        post, f_best = self.posterior(n, d, family, nu, noise)
        args = (64 * d, 32, n + d, f_best)
        x, value = propose_next(post, ACQUISITIONS[acq], *args)
        want_x, want_value, _ = reference_propose_next(
            post, ACQUISITIONS[acq], unit_cube(d), *args
        )
        assert x.tobytes() == want_x.tobytes()
        assert math.copysign(1.0, value) == math.copysign(1.0, want_value)
        assert value == want_value

    def test_guarded_case_has_the_same_bits(self, one_blas_thread):
        obs = ObservationSet([[0.5]], [1.0], direction=gp.MAXIMIZE)
        post = fit_posterior(obs, ISO, 0.0, prior_mean=0.0)
        acq, args = ACQUISITIONS["ucb-mean"], (128, 32, 3, 1.0)
        x, value = propose_next(post, acq, *args)
        want_x, want_value, guarded = reference_propose_next(post, acq, unit_cube(1), *args)
        assert guarded
        assert x.tobytes() == want_x.tobytes() and value == want_value


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

    @pytest.mark.parametrize("noise", ["fit", 0.0, 1e-4])
    def test_constant_objective_standardizes_by_one(self, noise):
        cfg = sphere_config(budget=12, noise_variance=noise)
        trace = run_bo(lambda x: 3.0, SearchSpace([-2, -2], [2, 2]), cfg)
        assert len(trace) == 12
        bo_rows = trace.records[6:]
        assert all(rec.hypers["y_sd"] == 1.0 for rec in bo_rows)
        assert all(math.isfinite(rec.acq_value) and rec.acq_value >= 0.0 for rec in bo_rows)

    def test_candidate_count_reaches_the_sampler(self, monkeypatch):
        counts = []

        def recording(dimension, n, seed):
            counts.append(n)
            return halton_points(dimension, n, seed)

        monkeypatch.setattr(loop, "halton_points", recording)
        run_bo(sphere, SearchSpace([-2, -2], [2, 2]), sphere_config(budget=9, candidate_count=37))
        assert counts == [6, 37, 37, 37]  # the initial design, then one per proposal


def _record_fits(monkeypatch):
    """Wrap ``loop.optimize_hypers``; returns the list of its calls' arguments,
    each with the call's return value under ``"fit"``."""
    calls = []
    real = loop.optimize_hypers

    def wrapped(obs, **kw):
        call = dict(kw, n=len(obs))
        calls.append(call)
        call["fit"] = real(obs, **kw)
        return call["fit"]

    monkeypatch.setattr(loop, "optimize_hypers", wrapped)
    return calls


class TestRefitSchedule:
    BUDGET, N_INIT, RESTARTS = 30, 4, 3

    def run(self, hyper_restarts=RESTARTS, **kw):
        cfg = BoConfig(budget=self.BUDGET, seed=7, n_init=self.N_INIT,
                       hyper_restarts=hyper_restarts, **kw)
        return run_bo(sphere, SearchSpace([-2, -2], [2, 2]), cfg)

    def test_every_refit_gets_all_restarts_and_the_previous_fit(self, monkeypatch):
        calls = _record_fits(monkeypatch)
        trace = self.run()
        assert len(trace) == self.BUDGET
        assert [c["n"] for c in calls] == list(range(self.N_INIT, self.BUDGET))
        assert all(c["n_restarts"] == self.RESTARTS for c in calls)
        assert calls[0]["warm_start"] is None
        for prev, c in zip(calls, calls[1:]):
            assert all(a is b for a, b in zip(c["warm_start"], prev["fit"], strict=True))
        # the restart seed depends on the iteration alone, as before
        seeds = [c["seed"] for c in calls]
        assert seeds == [loop._child_seed(7, 2 * it + 1) for it in range(self.N_INIT, self.BUDGET)]

    def test_fixed_kernel_never_fits(self, monkeypatch):
        calls = _record_fits(monkeypatch)
        self.run(fixed_kernel=ISO, noise_variance=1e-6)
        assert calls == []

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_refit_with_every_start_failing_stops_the_run(self, monkeypatch, restarts):
        calls = _record_fits(monkeypatch)
        starts = []

        def failing_lbfgsb(fun, z0, lo, hi):
            starts.append(z0)
            return 1e25, z0, 4  # CONVERGENCE, as a start whose every evaluation fails ends

        monkeypatch.setattr(gp, "_lbfgsb", failing_lbfgsb)
        with pytest.raises(gp.FactorizationError):
            self.run(hyper_restarts=restarts)
        assert len(calls) == 1 and len(starts) == restarts


def test_criterion_6_branin_seed_0_lbfgsb_work(monkeypatch, one_blas_thread):
    """The L-BFGS-B work of one criterion-6 branin run (seed 0): its runs and
    objective evaluations, pinned so that extra fitting work fails here
    instead of hiding in timing noise.  Counts are for one BLAS thread."""
    real = gp._lbfgsb
    counts = {"runs": 0, "evaluations": 0}

    def counted(fun, z0, lo, hi):
        def fun_counted(z):
            counts["evaluations"] += 1
            return fun(z)

        counts["runs"] += 1
        return real(fun_counted, z0, lo, hi)

    monkeypatch.setattr(gp, "_lbfgsb", counted)
    cfg = BoConfig(budget=60, n_init=8, seed=0, acquisition=AcquisitionSpec("ei", xi=0.01))
    run_bo(branin, recommended_space("branin"), cfg)
    assert counts == {"runs": 104, "evaluations": 2325}


def _run_bo(objective, space, budget, seed, direction=gp.MINIMIZE, trace_writer=None):
    cfg = sphere_config(budget=budget, seed=seed, direction=direction)
    return run_bo(objective, space, cfg, trace_writer=trace_writer)


BOTH_PROPOSERS = pytest.mark.parametrize(
    "optimizer", [_run_bo, random_search_baseline], ids=["run_bo", "random_search_baseline"]
)


class TestDriver:
    """The evaluate-and-record path that ``run_bo`` and random search share."""

    @BOTH_PROPOSERS
    def test_non_finite_objective_aborts_with_partial_trace(
        self, optimizer, tmp_path, traces_equal
    ):
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

    @pytest.mark.parametrize("noise", [-1e-6, math.nan, math.inf])
    def test_noise_variance_must_be_nonnegative_and_finite(self, noise):
        with pytest.raises(LoopError, match="noise_variance"):
            BoConfig(budget=5, seed=0, noise_variance=noise)

    def test_n_init_one_needs_fixed_kernel(self):
        with pytest.raises(LoopError):
            BoConfig(budget=5, seed=0, n_init=1)
        BoConfig(budget=5, seed=0, n_init=1, fixed_kernel=ISO)
        BoConfig(budget=1, seed=0, n_init=1)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_hyper_restarts_below_one(self, restarts):
        # the first refit has no warm start, so it would have nothing to try
        with pytest.raises(LoopError, match="hyper_restarts"):
            BoConfig(budget=5, seed=0, hyper_restarts=restarts)

    def test_negative_seed(self):
        # numpy's generators take no negative seed
        with pytest.raises(LoopError, match="seed"):
            BoConfig(budget=5, seed=-1)

    def test_json_round_trip(self):
        cfg = BoConfig(
            budget=40,
            seed=7,
            n_init=8,
            direction=gp.MAXIMIZE,
            acquisition=AcquisitionSpec("pi", xi=0.1),
            noise_variance=0.5,
            hyper_bounds=HyperBounds((1e-3, 1e3), (1e-2, 5.0), (1e-6, 1e-1)),
            fixed_kernel=KernelSpec("matern", 1.0, [0.5, 0.5], nu=2.5),
        )
        back = BoConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
        assert back.budget == 40 and back.seed == 7
        assert back.acquisition == cfg.acquisition
        assert back.noise_variance == 0.5
        assert back.hyper_bounds == cfg.hyper_bounds
        assert back == cfg
        # int fields take only integers, float fields any number, null only if optional
        base = {"budget": 40, "seed": 7}
        assert BoConfig.from_json_dict({**base, "noise_variance": 0}).noise_variance == 0
        for key, value in [("budget", 5.5), ("budget", True), ("seed", 0.5), ("seed", None),
                           ("candidate_count", 100.5), ("refine_iters", "32"),
                           ("direction", None), ("noise_variance", False)]:
            with pytest.raises(LoopError, match=key):
                BoConfig.from_json_dict({**base, key: value})

    def test_partial_hyper_bounds_keep_config_defaults(self):
        cfg = BoConfig.from_json_dict(
            {"budget": 5, "seed": 0, "hyper_bounds": {"noise_variance": [1e-6, 1e-2]}}
        )
        default = BoConfig(budget=5, seed=0).hyper_bounds
        assert cfg.hyper_bounds == HyperBounds(
            default.signal_variance, default.length_scale, (1e-6, 1e-2)
        )

    def test_null_accepted_for_optional_fields(self):
        base = {"budget": 5, "seed": 0}
        optional = dict(n_init=None, candidate_count=None, fixed_kernel=None)
        assert BoConfig.from_json_dict({**base, **optional}) == BoConfig(5, 0)
        se = {**base, "kernel_family": "sq_exp_ard", "nu": None}
        assert BoConfig.from_json_dict(se) == BoConfig(5, 0, kernel_family="sq_exp_ard", nu=None)

    def test_unknown_field_rejected(self):
        with pytest.raises(LoopError):
            BoConfig.from_json_dict({"budget": 5, "seed": 0, "bogus": 1})
