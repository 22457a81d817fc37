"""Command-line front end.

Subcommands:

* ``run``      -- one Bayesian-optimization run against a builtin or
                  external objective, writing a trace CSV and a summary.
* ``baseline`` -- random search with the same trace format.
* ``bench``    -- paired multi-seed BO vs random-search comparison.
* ``sample``   -- GP prior/posterior draws to CSV for plotting.

Configuration is a single JSON document (see README), read whole into
:class:`Config`; a handful of flags override config fields.  Exit codes: 0
success, 2 config error, 3 objective/protocol error, 4 numerical failure, 5
I/O error (trace, summary or output file).  Any other exception is a program
error and propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import gp
from ._json import JsonCodec
from .baseline import random_search_baseline
from .external import ExternalObjective, ExternalObjectiveError
from .gp import FactorizationError, fit_posterior
from .kernels import KernelError, KernelSpec
from .loop import (
    BoConfig,
    LoopError,
    ObjectiveFailure,
    SearchSpace,
    Trace,
    halton_points,
    run_bo,
)
from .objectives import ObjectiveError, ObjectiveSpec, builtin_function, recommended_space
from .trace_io import TraceFormatError, TraceWriter, read_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OBJECTIVE = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5

class ConfigError(ValueError):
    pass


# input errors raised after the config is read: a builtin objective or a fixed
# kernel that does not fit the space, or a bad trace to sample from
_CONFIG_ERRORS = (ConfigError, LoopError, ObjectiveError, KernelError, TraceFormatError)


@dataclass(frozen=True)
class SampleConfig(JsonCodec, error=ConfigError):
    """The ``sample`` section: ``gpbo sample`` draws from this kernel."""

    kernel: KernelSpec
    n_points: int = 200
    n_draws: int = 5
    seed: int = 0
    noise_variance: float = 0.0

    def __post_init__(self):
        if min(self.n_points, self.n_draws) < 1:
            raise ConfigError("n_points and n_draws must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not (self.noise_variance >= 0.0 and np.isfinite(self.noise_variance)):
            raise ConfigError("noise_variance must be nonnegative and finite")


@dataclass(frozen=True)
class OutputConfig(JsonCodec, error=ConfigError):
    """The ``output`` section; the ``--trace``/``--summary``/``--out`` flags win."""

    trace: str | None = None
    summary: str | None = None
    samples: str = "samples.csv"


@dataclass(frozen=True)
class Config(JsonCodec, error=ConfigError):
    """The whole config document; ``bo`` stays raw until the flags are merged in."""

    objective: ObjectiveSpec | None = None
    space: SearchSpace | None = None
    bo: dict = field(default_factory=dict)
    sample: SampleConfig | None = None
    output: OutputConfig = field(default_factory=OutputConfig)


def _load_config(path: str) -> Config:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return Config.from_json_dict(doc)


def _space_from_config(cfg: Config, objective: ObjectiveSpec | None) -> SearchSpace:
    if objective is not None and objective.kind == "builtin":
        # a builtin that does not fit the config's space fails here, before any output
        box = recommended_space(objective.name, cfg.space and cfg.space.dimension)
        return cfg.space or box
    if cfg.space is not None:
        return cfg.space
    raise ConfigError("config needs a 'space' section (or a builtin objective)")


def _objective_spec(cfg: Config, name: str | None) -> ObjectiveSpec:
    if name:
        return ObjectiveSpec(name=name)
    if cfg.objective is None:
        raise ConfigError("config needs an 'objective' section")
    return cfg.objective


def _bo_config(cfg: Config, budget: int | None, seed: int | None) -> BoConfig:
    flags = {k: v for k, v in (("budget", budget), ("seed", seed)) if v is not None}
    return BoConfig.from_json_dict({**cfg.bo, **flags})


@contextlib.contextmanager
def _open_objective(spec: ObjectiveSpec):
    if spec.kind == "builtin":
        yield builtin_function(spec.name)
    else:
        with ExternalObjective(spec) as obj:
            yield obj


def _emit_summary(trace: Trace, config_echo: dict, wall_s: float, path: str | None) -> None:
    summary = {
        "best_x": [float(v) for v in trace.best_x],
        "best_f": trace.best_f,
        "evaluations": len(trace),
        "wall_time_s": wall_s,
    }
    text = json.dumps({"config": config_echo, "summary": summary}, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_optimize(args) -> int:
    """``run`` and ``baseline``: one optimizer run, its trace and summary."""
    cfg = _load_config(args.config)
    obj_spec = _objective_spec(cfg, args.objective)
    space = _space_from_config(cfg, obj_spec)
    bo_cfg = _bo_config(cfg, args.budget, args.seed)
    trace_path = args.trace or cfg.output.trace
    summary_path = args.summary or cfg.output.summary
    writer = TraceWriter(trace_path, space.dimension) if trace_path else None
    t0 = time.perf_counter()
    try:
        with _open_objective(obj_spec) as objective:
            if args.command == "run":
                trace = run_bo(objective, space, bo_cfg, trace_writer=writer)
            else:
                trace = random_search_baseline(
                    objective,
                    space,
                    bo_cfg.budget,
                    bo_cfg.seed,
                    direction=bo_cfg.direction,
                    trace_writer=writer,
                )
    finally:
        if writer:
            writer.close()
    echo = {
        "objective": obj_spec.to_json_dict(),
        "space": space.to_json_dict(),
    }
    if args.command == "run":
        echo["bo"] = bo_cfg.to_json_dict()
    else:
        echo.update(budget=bo_cfg.budget, seed=bo_cfg.seed)
    echo["trace"] = trace_path
    _emit_summary(trace, echo, time.perf_counter() - t0, summary_path)
    return EXIT_OK


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if "-" in part[1:]:
                lo, hi = (int(v) for v in part.rsplit("-", 1))
                if hi < lo:
                    raise ValueError(f"descending range {part!r}")
                seeds.extend(range(lo, hi + 1))
            else:
                seeds.append(int(part))
    except ValueError as e:
        raise ConfigError(f"bad --seeds: {e}") from None
    return seeds


def _cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    obj_spec = _objective_spec(cfg, args.objective)
    space = _space_from_config(cfg, obj_spec)
    # every seed's config is checked before the first run
    configs = [_bo_config(cfg, args.budget, seed) for seed in _parse_seeds(args.seeds)]
    rows = []
    for bo_cfg in configs:
        with _open_objective(obj_spec) as objective:
            bo_trace = run_bo(objective, space, bo_cfg)
        with _open_objective(obj_spec) as objective:
            rs_trace = random_search_baseline(
                objective, space, bo_cfg.budget, bo_cfg.seed, direction=bo_cfg.direction
            )
        rows.append((bo_cfg.seed, bo_trace.best_f, rs_trace.best_f))
    print(f"{'seed':>6} {'bo_best_f':>16} {'random_best_f':>16}")
    for seed, bo_f, rs_f in rows:
        print(f"{seed:>6} {bo_f:>16.8g} {rs_f:>16.8g}")
    bo_med, rs_med = np.median([row[1:] for row in rows], axis=0)
    print(f"{'median':>6} {bo_med:>16.8g} {rs_med:>16.8g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("seed,bo_best_f,random_best_f\n")
            for seed, bo_f, rs_f in rows:
                fh.write(f"{seed},{bo_f:.17g},{rs_f:.17g}\n")
    return EXIT_OK


def _cmd_sample(args) -> int:
    cfg = _load_config(args.config)
    if cfg.sample is None:
        raise ConfigError("config needs a 'sample' section with a kernel")
    # `bo` is unused here but read as `run` reads it.  Flags may give `run`
    # the budget and seed, so absent or null ones take stand-ins any n_init
    # admits
    n_init = cfg.bo.get("n_init")
    stand_ins = {"budget": n_init if type(n_init) is int and n_init > 1 else 1, "seed": 0}
    given = {k: v for k, v in cfg.bo.items() if v is not None or k not in stand_ins}
    BoConfig.from_json_dict({**stand_ins, **given})
    flags = {k: v for k, v in (("n_draws", args.draws), ("seed", args.seed)) if v is not None}
    sample = replace(cfg.sample, **flags)
    space = _space_from_config(cfg, None)
    X = space.from_unit(halton_points(space.dimension, sample.n_points, sample.seed))
    order = np.argsort(X[:, 0]) if space.dimension == 1 else np.arange(sample.n_points)
    X = X[order]
    if args.trace:
        prev = read_trace(args.trace)
        X_seen = np.array([rec.x for rec in prev])
        if X_seen.shape[-1:] != (space.dimension,):  # also catches a trace with no rows
            raise ConfigError(f"trace {args.trace} has points of shape {X_seen.shape}, "
                              f"not rows of {space.dimension}")
        obs = gp.ObservationSet(X=X_seen, y=np.array([rec.y for rec in prev]))
        post = fit_posterior(obs, sample.kernel, sample.noise_variance)
        draws = gp.sample_posterior(post, X, sample.n_draws, sample.seed)
    else:
        draws = gp.sample_prior(sample.kernel, X, sample.n_draws, sample.seed)
    out = args.out or cfg.output.samples
    with open(out, "w", encoding="utf-8") as fh:
        header = [f"x_{j}" for j in range(space.dimension)]
        header += [f"draw_{k}" for k in range(sample.n_draws)]
        fh.write(",".join(header) + "\n")
        for i in range(X.shape[0]):
            vals = list(X[i]) + list(draws[:, i])
            fh.write(",".join(format(v, ".17g") for v in vals) + "\n")
    print(f"wrote {X.shape[0]} points x {sample.n_draws} draws to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpbo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("run", "one Bayesian-optimization run"),
        ("baseline", "random-search baseline run"),
    ):
        opt_p = sub.add_parser(name, help=help_text)
        opt_p.add_argument("--config", required=True)
        opt_p.add_argument("--seed", type=int)
        opt_p.add_argument("--budget", type=int)
        opt_p.add_argument("--objective", help="builtin objective name override")
        opt_p.add_argument("--trace", help="trace CSV path override")
        opt_p.add_argument("--summary", help="summary JSON path override")
        opt_p.set_defaults(func=_cmd_optimize)

    bench_p = sub.add_parser("bench", help="paired BO vs random-search benchmark")
    bench_p.add_argument("--config", required=True)
    bench_p.add_argument("--seeds", required=True, help="e.g. 0-19 or 0,3,7")
    bench_p.add_argument("--budget", type=int)
    bench_p.add_argument("--objective")
    bench_p.add_argument("--out", help="summary CSV path")
    bench_p.set_defaults(func=_cmd_bench)

    sample_p = sub.add_parser("sample", help="GP prior/posterior draws to CSV")
    sample_p.add_argument("--config", required=True)
    sample_p.add_argument("--trace", help="fit the posterior to this trace first")
    sample_p.add_argument("--draws", type=int)
    sample_p.add_argument("--seed", type=int)
    sample_p.add_argument("--out")
    sample_p.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ObjectiveFailure, ExternalObjectiveError) as e:
        print(f"objective error: {e}", file=sys.stderr)
        return EXIT_OBJECTIVE
    except FactorizationError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except _CONFIG_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
