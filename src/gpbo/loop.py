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

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import gp
from ._json import JsonCodec
from .acquisition import AcquisitionError, AcquisitionSpec, _scorer
from .acquisition import score  # noqa: F401 -- a call site that perfbench/spans.py traces by name
from .gp import (
    GpPosterior,
    HyperBounds,
    ObservationSet,
    _LatentBlocks,
    fit_posterior,
    optimize_hypers,
    predict,  # noqa: F401 -- a call site that perfbench/spans.py traces by name
)
from .kernels import MATERN, KernelSpec

#: training-point proximity (unit-cube units) below which a noiseless proposal
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
class SearchSpace(JsonCodec, error=LoopError):
    """Axis-aligned box in the objective's native units."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise LoopError("lower/upper must be equal-length vectors")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(hi - lo).all():
                raise LoopError("bounds and their widths upper - lower must be finite")
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


@dataclass(frozen=True)
class BoConfig(JsonCodec, error=LoopError):
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
    hyper_bounds: HyperBounds = field(default_factory=HyperBounds)
    hyper_restarts: int = 2
    fixed_kernel: KernelSpec | None = None  # skip fitting; unit-cube units

    def __post_init__(self):
        if self.budget < 1:
            raise LoopError("budget must be positive")
        if self.seed < 0:
            raise LoopError("seed must be nonnegative")
        if self.n_init is not None and not (1 <= self.n_init <= self.budget):
            raise LoopError("need 1 <= n_init <= budget")
        if self.fixed_kernel is None and self.n_init == 1 and self.budget > 1:
            raise LoopError("fitting hyperparameters needs n_init >= 2")
        if self.fixed_kernel is None:  # every refit's family and nu, checked up front
            KernelSpec(self.kernel_family, nu=self.nu if self.kernel_family == MATERN else None)
        if self.direction not in (gp.MINIMIZE, gp.MAXIMIZE):
            raise LoopError(f"unknown direction {self.direction!r}")
        if isinstance(self.noise_variance, str):
            if self.noise_variance != "fit":
                raise LoopError('noise_variance must be a nonneg real or "fit"')
        elif not (self.noise_variance >= 0 and math.isfinite(self.noise_variance)):
            raise LoopError("noise_variance must be nonnegative and finite")
        if self.candidate_count is not None and self.candidate_count < 1:
            raise LoopError("candidate_count must be at least 1")
        if self.refine_iters < 0:
            raise LoopError("refine_iters must be nonnegative")
        if self.hyper_restarts < 1:
            raise LoopError("hyper_restarts must be at least 1")

    def resolved_n_init(self, dimension: int) -> int:
        n = max(4, 2 * dimension) if self.n_init is None else self.n_init
        return min(n, self.budget)

    def resolved_candidate_count(self, dimension: int) -> int:
        if self.candidate_count is not None:
            return self.candidate_count
        return 1024 * dimension


@dataclass(frozen=True, slots=True)
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


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def halton_points(dimension: int, n: int, seed) -> np.ndarray:
    """n scrambled-Halton points in [0, 1)^dimension; deterministic given seed.

    Axis k is the van der Corput sequence in the k-th prime base, scrambled
    by Owen's random digit permutations (A. B. Owen 2017, "A randomized
    Halton algorithm in R", arXiv:1706.02808).  The output has the bits of
    scipy 1.17's ``qmc.Halton(d, scramble=True, seed=seed)``: the same
    ``Generator.shuffle`` draws from ``np.random.default_rng(seed)`` and the
    same digit-by-digit sums.  ``SearchSpace.from_unit`` maps them to a box.
    """
    if n < 1:
        raise LoopError("need at least one point")
    rng = np.random.default_rng(seed)
    U = np.empty((dimension, n))
    for row, b in zip(U, _first_primes(dimension)):
        # one permutation per digit j whose weight b**-(j + 1) is above 2**-54;
        # permuted shuffles the rows in order, with one rng.shuffle's draws each
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, 0)
        rng.permuted(perms, axis=1, out=perms)
        # point i is the sum of perms[j, digit_j(i)] * b2r, with b2r = 1 / b
        # divided by b after each digit, added in digit order j = 0, 1, ...;
        # tabulate the sums over the digits that vary below n, level by level
        # (the top level only up to the digit that n reaches), then add the
        # digits that are 0 for every i < n as scalars
        table, size, b2r, j = np.zeros(1), 1, 1.0 / b, 0
        while size < n:
            digits = perms[j, : -(-n // size)] * b2r
            table = (table[None, :] + digits[:, None]).ravel()
            size, b2r, j = size * b, b2r / b, j + 1
        row[:] = table[:n]
        # as Python floats: a numpy scalar product costs more than the add
        for digit0 in perms[j:, 0].tolist():
            row += digit0 * b2r
            b2r /= b
    return U.T


def _acquisition_values(
    post: GpPosterior, acq: AcquisitionSpec, f_best: float, iteration: int, m: int
):
    """The acquisition at m points at a time on one posterior.

    ``values(X)`` scores finite (m, d) ``X`` by ``predict``'s and ``score``'s
    arithmetic, with the same bits, in buffers made once.  The incumbent and
    margin are checked here, once; each call checks its mean and sigma.
    """
    latent = _LatentBlocks(post, m)
    mean, sigma = latent.out
    acquisition = _scorer(acq, f_best, iteration)

    def values(X: np.ndarray) -> np.ndarray:
        latent(X)
        np.sqrt(sigma, out=sigma)
        if not np.isfinite(latent.out).all():
            raise AcquisitionError("non-finite acquisition input")
        return acquisition(mean, sigma)

    return values


def propose_next(
    post: GpPosterior,
    acq: AcquisitionSpec,
    candidate_count: int,
    refine_iters: int,
    seed,
    f_best: float,
    iteration: int = 0,
) -> tuple[np.ndarray, float]:
    """Maximize the acquisition over the unit cube (maximization convention).

    Scores ``candidate_count`` scrambled-Halton candidates, then refines the
    best by coordinate-wise pattern search clamped to [0, 1].  The returned
    value never falls below the best raw candidate's.  When the model is
    noiseless, a proposal that coincides with a training point (within
    ``DUPLICATE_TOL``) is replaced by the best non-duplicate candidate to
    keep the next Gram matrix non-singular.
    """
    d = post.dimension
    cands = halton_points(d, candidate_count, seed)
    vals = _acquisition_values(post, acq, f_best, iteration, candidate_count)(cands)
    best_i = int(np.argmax(vals))
    best_x, best_v = cands[best_i].copy(), float(vals[best_i])

    # trial 2j steps coordinate j of best_x up by step and trial 2j + 1
    # steps it down, clamped to the cube
    trial_values = _acquisition_values(post, acq, f_best, iteration, 2 * d)
    trial = np.empty((2 * d, d))
    flat = trial.reshape(-1)
    up = np.arange(d) * (2 * d + 1)  # flat index of trial 2j's coordinate j
    down = up + d  # and of trial 2j + 1's
    step = 0.1
    for _ in range(refine_iters):
        trial[...] = best_x
        flat[up] = np.minimum(best_x + step, 1.0)
        flat[down] = np.maximum(best_x - step, 0.0)
        tvals = trial_values(trial)
        ti = int(tvals.argmax())
        if tvals[ti] > best_v:
            best_x, best_v = trial[ti].copy(), float(tvals[ti])
        else:
            step = max(step / 2.0, 1e-12)

    if post.noise_variance == 0.0 and _is_duplicate(post, best_x):
        order = np.argsort(-vals)
        for i in order:
            if not _is_duplicate(post, cands[i]):
                return cands[i].copy(), float(vals[i])
    return best_x, best_v


def _is_duplicate(post: GpPosterior, x: np.ndarray) -> bool:
    return bool(np.any(np.linalg.norm(post.train_X - x, axis=1) < DUPLICATE_TOL))


def _child_seed(root: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=root, spawn_key=(index,)).generate_state(1)[0])


def drive(
    objective, propose, dimension: int, budget: int, direction: str, trace_writer=None
) -> Trace:
    """Evaluate and record ``budget`` proposals; returns the complete Trace.

    ``propose(it, X_seen, y_seen)`` returns ``(x, acq_value, hypers)`` for
    iteration ``it``, given read-only views of the ``it`` points evaluated so
    far.  The incumbent is a running best that keeps the earliest index on
    ties, as :func:`incumbent` does; its point is one read-only array that
    every record shares until the incumbent changes.  ``trace_writer``, when
    given, has each record passed to its ``write`` method as it is produced,
    so a crashed run leaves a partial trace behind.  Raises
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
    best_x, best_f = None, math.nan
    trace = Trace()
    t_start = time.perf_counter()
    for it in range(budget):
        x, acq_value, hypers = propose(it, X_seen[:it], y_seen[:it])
        y_it = float(objective(x))
        if not math.isfinite(y_it):
            raise ObjectiveFailure(
                f"objective returned non-finite value at iteration {it}", trace
            )
        X[it], y[it] = x, y_it
        if best_x is None or ((y_it < best_f) if minimize else (y_it > best_f)):
            best_x, best_f = X[it].copy(), y_it
            best_x.flags.writeable = False
        rec = TraceRecord(
            iteration=it,
            x=X[it].copy(),
            y=y_it,
            incumbent_x=best_x,
            incumbent_f=best_f,
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
    all points seen so far and maximizes the acquisition.  Unless
    ``config.fixed_kernel`` is set, each refit fits the hyperparameters by
    one :func:`~gpbo.gp.optimize_hypers` call with ``config.hyper_restarts``
    L-BFGS starts and the previous refit's fit as its warm start; the first
    refit has none.  A refit that fails to factorize raises
    :class:`~gpbo.gp.FactorizationError`.  ``trace_writer`` and
    :class:`ObjectiveFailure` behave as in :func:`drive`.
    """
    d = space.dimension
    if config.fixed_kernel is not None:
        config.fixed_kernel.check_dimension(d)
    n_init = config.resolved_n_init(d)
    sign = -1.0 if config.direction == gp.MINIMIZE else 1.0
    init_X = space.from_unit(halton_points(d, n_init, _child_seed(config.seed, 0)))
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
                warm_start=prev_fit,
            )
            prev_fit = (kernel, noise)
        post = fit_posterior(obs_std, kernel, noise, prior_mean=0.0)

        f_best = float(np.max(y_std))
        x_unit, acq_value = propose_next(
            post,
            config.acquisition,
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
