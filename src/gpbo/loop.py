"""Sequential Bayesian-optimization driver.

``run_bo`` alternates: refit the GP on everything seen so far, maximize the
acquisition over the search box, evaluate the objective at the winner, and
append to the design.  Internally everything is a *maximization* in the unit
cube with standardized values: minimization problems negate y on entry, the
inputs are affinely mapped to [0, 1]^d and y is centered/scaled before each
refit.  All reported quantities (proposals, observations, incumbents) are in
the objective's native units and direction.

Every randomized piece takes a seed derived from the run seed, so a run is
fully deterministic for a deterministic objective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from . import gp
from .acquisition import AcquisitionSpec, score
from .gp import (
    GpPosterior,
    HyperBounds,
    ObservationSet,
    fit_posterior,
    optimize_hypers,
    predict,
)
from .kernels import MATERN, KernelSpec

#: training-point proximity (scaled units) below which a noiseless proposal
#: is treated as a duplicate and replaced
DUPLICATE_TOL = 1e-9


class LoopError(ValueError):
    """Invalid search space or loop configuration."""


class ObjectiveFailure(RuntimeError):
    """Objective returned a non-finite value; carries the partial trace."""

    def __init__(self, message: str, trace: "Trace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box in the objective's native units."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise LoopError("lower/upper must be equal-length vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise LoopError("bounds must be finite")
        if not np.all(lo < hi):
            raise LoopError("every lower bound must be strictly below its upper bound")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def to_unit(self, X) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.lower) / self.widths

    def from_unit(self, U) -> np.ndarray:
        return self.lower + np.asarray(U, dtype=float) * self.widths


def unit_cube(dimension: int) -> SearchSpace:
    return SearchSpace(np.zeros(dimension), np.ones(dimension))


@dataclass(frozen=True)
class BoConfig:
    budget: int
    seed: int
    n_init: int | None = None  # default max(4, 2d)
    direction: str = gp.MINIMIZE
    kernel_family: str = MATERN
    nu: float | None = 2.5
    noise_variance: float | str = "fit"  # nonneg float, or "fit"
    acquisition: AcquisitionSpec = field(default_factory=AcquisitionSpec)
    candidate_count: int | None = None  # default 1024 * d
    refine_iters: int = 32
    hyper_bounds: HyperBounds = field(
        default_factory=lambda: HyperBounds(
            signal_variance=(1e-2, 1e2),
            length_scale=(1e-2, 1e1),
            noise_variance=(1e-8, 1.0),
        )
    )
    hyper_restarts: int = 8
    fixed_kernel: KernelSpec | None = None  # skip fitting; unit-cube units

    def __post_init__(self):
        if self.budget < 1:
            raise LoopError("budget must be positive")
        if self.n_init is not None and not (1 <= self.n_init <= self.budget):
            raise LoopError("need 1 <= n_init <= budget")
        if self.direction not in (gp.MINIMIZE, gp.MAXIMIZE):
            raise LoopError(f"unknown direction {self.direction!r}")
        if isinstance(self.noise_variance, str):
            if self.noise_variance != "fit":
                raise LoopError('noise_variance must be a nonneg real or "fit"')
        elif self.noise_variance < 0:
            raise LoopError("noise_variance must be nonnegative")
        if self.candidate_count is not None and self.candidate_count < 1:
            raise LoopError("candidate_count must be at least 1")
        if self.refine_iters < 0:
            raise LoopError("refine_iters must be nonnegative")

    def resolved_n_init(self, dimension: int) -> int:
        n = max(4, 2 * dimension) if self.n_init is None else self.n_init
        return min(n, self.budget)

    def resolved_candidate_count(self, dimension: int) -> int:
        if self.candidate_count is not None:
            return self.candidate_count
        return 1024 * dimension

    def to_json_dict(self) -> dict:
        return {
            "budget": self.budget,
            "seed": self.seed,
            "n_init": self.n_init,
            "direction": self.direction,
            "kernel_family": self.kernel_family,
            "nu": self.nu,
            "noise_variance": self.noise_variance,
            "acquisition": self.acquisition.to_json_dict(),
            "candidate_count": self.candidate_count,
            "refine_iters": self.refine_iters,
            "hyper_restarts": self.hyper_restarts,
            "fixed_kernel": (
                None if self.fixed_kernel is None else self.fixed_kernel.to_json_dict()
            ),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BoConfig":
        obj = dict(obj)
        if "acquisition" in obj and obj["acquisition"] is not None:
            obj["acquisition"] = AcquisitionSpec.from_json_dict(obj["acquisition"])
        if obj.get("fixed_kernel") is not None:
            obj["fixed_kernel"] = KernelSpec.from_json_dict(obj["fixed_kernel"])
        known = {k: v for k, v in obj.items() if k in cls.__dataclass_fields__}
        unknown = set(obj) - set(known)
        if unknown:
            raise LoopError(f"unknown BoConfig fields: {sorted(unknown)}")
        return cls(**known)


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    x: np.ndarray
    y: float
    incumbent_x: np.ndarray | None
    incumbent_f: float
    acq_value: float  # NaN for initialization / baseline rows
    hypers: dict | None
    wall_ms: float


@dataclass
class Trace:
    records: list[TraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    @property
    def best_x(self) -> np.ndarray:
        return self.records[-1].incumbent_x

    @property
    def best_f(self) -> float:
        return self.records[-1].incumbent_f


def incumbent(obs: ObservationSet) -> tuple[np.ndarray, float]:
    """Best observed (x, f) under the set's direction; ties take the
    earliest index."""
    if len(obs) == 0:
        raise LoopError("incumbent of an empty observation set")
    idx = int(np.argmin(obs.y) if obs.direction == gp.MINIMIZE else np.argmax(obs.y))
    return obs.X[idx].copy(), float(obs.y[idx])


def halton_points(space: SearchSpace, n: int, seed) -> np.ndarray:
    """n scrambled-Halton points inside the box; deterministic given seed."""
    if n < 1:
        raise LoopError("need at least one point")
    sampler = qmc.Halton(d=space.dimension, scramble=True, seed=seed)
    return qmc.scale(sampler.random(n), space.lower, space.upper)


def _score_points(
    post: GpPosterior, acq: AcquisitionSpec, X, f_best: float, iteration: int
) -> np.ndarray:
    pred = predict(post, X)
    return np.asarray(
        score(acq, pred.mean, np.sqrt(pred.variance), f_best, iteration)
    ).reshape(-1)


def propose_next(
    post: GpPosterior,
    acq: AcquisitionSpec,
    space: SearchSpace,
    candidate_count: int,
    refine_iters: int,
    seed,
    f_best: float,
    iteration: int = 0,
) -> tuple[np.ndarray, float]:
    """Maximize the acquisition over the box (maximization convention).

    Scores ``candidate_count`` scrambled-Halton candidates, then refines the
    best by coordinate-wise pattern search clamped to the box.  The returned
    value never falls below the best raw candidate's.  When the model is
    noiseless, a proposal that coincides with a training point (within
    ``DUPLICATE_TOL`` in box-scaled units) is replaced by the best
    non-duplicate candidate to keep the next Gram matrix non-singular.
    """
    if space.dimension != post.dimension:
        raise LoopError("search space dimension does not match the posterior")
    cands = halton_points(space, candidate_count, seed)
    vals = _score_points(post, acq, cands, f_best, iteration)
    best_i = int(np.argmax(vals))
    best_x, best_v = cands[best_i].copy(), float(vals[best_i])

    step = 0.1 * space.widths
    min_step = 1e-12 * space.widths
    for _ in range(refine_iters):
        trial = np.repeat(best_x[None, :], 2 * space.dimension, axis=0)
        for j in range(space.dimension):
            trial[2 * j, j] = min(best_x[j] + step[j], space.upper[j])
            trial[2 * j + 1, j] = max(best_x[j] - step[j], space.lower[j])
        tvals = _score_points(post, acq, trial, f_best, iteration)
        ti = int(np.argmax(tvals))
        if tvals[ti] > best_v:
            best_x, best_v = trial[ti].copy(), float(tvals[ti])
        else:
            step = np.maximum(step / 2.0, min_step)

    if post.noise_variance == 0.0 and _is_duplicate(post, space, best_x):
        order = np.argsort(-vals)
        for i in order:
            if not _is_duplicate(post, space, cands[i]):
                return cands[i].copy(), float(vals[i])
    return best_x, best_v


def _is_duplicate(post: GpPosterior, space: SearchSpace, x: np.ndarray) -> bool:
    scaled = (post.train_X - x) / space.widths
    return bool(np.any(np.linalg.norm(scaled, axis=1) < DUPLICATE_TOL))


def _child_seed(root: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=root, spawn_key=(index,)).generate_state(1)[0])


def drive(
    objective, propose, dimension: int, budget: int, direction: str, trace_writer=None
) -> Trace:
    """Evaluate and record ``budget`` proposals; returns the complete Trace.

    ``propose(it, X_seen, y_seen)`` returns ``(x, acq_value, hypers)`` for
    iteration ``it``, given read-only views of the ``it`` points evaluated so
    far.  The incumbent is a running best that keeps the earliest index on
    ties, as :func:`incumbent` does.  ``trace_writer``, when given, has each
    record passed to its ``write`` method as it is produced, so a crashed
    run leaves a partial trace behind.  Raises
    :class:`ObjectiveFailure` (with the partial trace attached) if the
    objective returns a non-finite value.
    """
    if budget < 1:
        raise LoopError("budget must be at least 1")
    if direction not in (gp.MINIMIZE, gp.MAXIMIZE):
        raise LoopError(f"unknown direction {direction!r}")
    minimize = direction == gp.MINIMIZE
    X = np.empty((budget, dimension))
    y = np.empty(budget)
    X_seen, y_seen = X.view(), y.view()
    X_seen.flags.writeable = y_seen.flags.writeable = False
    best = 0
    trace = Trace()
    t_start = time.perf_counter()
    for it in range(budget):
        x, acq_value, hypers = propose(it, X_seen[:it], y_seen[:it])
        y_it = float(objective(x))
        if not np.isfinite(y_it):
            raise ObjectiveFailure(
                f"objective returned non-finite value at iteration {it}", trace
            )
        X[it], y[it] = x, y_it
        if (y_it < y[best]) if minimize else (y_it > y[best]):
            best = it
        rec = TraceRecord(
            iteration=it,
            x=X[it].copy(),
            y=y_it,
            incumbent_x=X[best].copy(),
            incumbent_f=float(y[best]),
            acq_value=acq_value,
            hypers=hypers,
            wall_ms=(time.perf_counter() - t_start) * 1e3,
        )
        trace.append(rec)
        if trace_writer is not None:
            trace_writer.write(rec)
    return trace


def run_bo(objective, space: SearchSpace, config: BoConfig, trace_writer=None) -> Trace:
    """Full optimize-a-black-box run; returns the complete Trace.

    ``objective`` maps a point (native units) to a finite float.  The first
    ``n_init`` points are scrambled Halton; every later one refits the GP on
    all points seen so far and maximizes the acquisition.  ``trace_writer``
    and :class:`ObjectiveFailure` behave as in :func:`drive`.
    """
    d = space.dimension
    n_init = config.resolved_n_init(d)
    sign = -1.0 if config.direction == gp.MINIMIZE else 1.0
    init_X = halton_points(space, n_init, _child_seed(config.seed, 0))
    prev_fit: tuple[KernelSpec, float] | None = None

    def propose(it: int, X_seen: np.ndarray, y_seen: np.ndarray):
        nonlocal prev_fit
        if it < n_init:
            return init_X[it], float("nan"), None
        X_unit = space.to_unit(X_seen)
        y_int = sign * y_seen
        y_mean = float(np.mean(y_int))
        y_sd = float(np.std(y_int))
        if y_sd <= 0.0:
            y_sd = 1.0
        y_std = (y_int - y_mean) / y_sd
        obs_std = ObservationSet(X_unit, y_std, direction=gp.MAXIMIZE)

        fit_noise = config.noise_variance == "fit"
        if config.fixed_kernel is not None:
            kernel = config.fixed_kernel
            noise = 0.0 if fit_noise else float(config.noise_variance) / y_sd**2
        else:
            fixed_noise = (
                None if fit_noise else float(config.noise_variance) / y_sd**2
            )
            kernel, noise = optimize_hypers(
                obs_std,
                family=config.kernel_family,
                bounds=config.hyper_bounds,
                n_restarts=config.hyper_restarts,
                seed=_child_seed(config.seed, 2 * it + 1),
                nu=config.nu if config.kernel_family == MATERN else None,
                fixed_noise=fixed_noise,
                extra_starts=[prev_fit] if prev_fit else None,
            )
            prev_fit = (kernel, noise)
        post = fit_posterior(obs_std, kernel, noise, prior_mean=0.0)

        f_best = float(np.max(y_std))
        x_unit, acq_value = propose_next(
            post,
            config.acquisition,
            unit_cube(d),
            config.resolved_candidate_count(d),
            config.refine_iters,
            _child_seed(config.seed, 2 * it + 2),
            f_best,
            iteration=it - n_init,
        )
        hypers = {
            "kernel": kernel.to_json_dict(),
            "noise_variance": noise,
            "y_mean": y_mean,
            "y_sd": y_sd,
        }
        return space.from_unit(x_unit), acq_value, hypers

    return drive(objective, propose, d, config.budget, config.direction, trace_writer)
