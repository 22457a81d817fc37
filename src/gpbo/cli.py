"""Command-line front end.

Subcommands:

* ``run``      -- one Bayesian-optimization run against a builtin or
                  external objective, writing a trace CSV and a summary.
* ``baseline`` -- random search with the same trace format.
* ``bench``    -- paired multi-seed BO vs random-search comparison.
* ``sample``   -- GP prior/posterior draws to CSV for plotting.

Configuration is a single JSON document (see README); a handful of flags
override config fields.  Exit codes: 0 success, 2 config error, 3
objective/protocol error, 4 numerical failure, 5 I/O error (trace, summary
or output file).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np

from . import gp
from .acquisition import AcquisitionError
from .baseline import random_search_baseline
from .external import ExternalObjective, ExternalObjectiveError
from .gp import FactorizationError, GpError, fit_posterior
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

_CONFIG_ERRORS = (
    LoopError,
    ObjectiveError,
    KernelError,
    AcquisitionError,
    GpError,
    TraceFormatError,
    KeyError,
    TypeError,
    ValueError,
    json.JSONDecodeError,
)


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _space_from_config(cfg: dict, objective: ObjectiveSpec | None) -> SearchSpace:
    if "space" in cfg:
        sp = cfg["space"]
        return SearchSpace(np.asarray(sp["lower"]), np.asarray(sp["upper"]))
    if objective is not None and objective.kind == "builtin":
        return recommended_space(objective.name)
    raise ConfigError("config needs a 'space' section (or a builtin objective)")


def _objective_spec(cfg: dict, args) -> ObjectiveSpec:
    if getattr(args, "objective", None):
        return ObjectiveSpec(kind="builtin", name=args.objective)
    if "objective" not in cfg:
        raise ConfigError("config needs an 'objective' section")
    return ObjectiveSpec.from_json_dict(cfg["objective"])


def _bo_config(cfg: dict, args, require_seed_flag: bool = False) -> BoConfig:
    bo = dict(cfg.get("bo", {}))
    if getattr(args, "budget", None) is not None:
        bo["budget"] = args.budget
    if getattr(args, "seed", None) is not None:
        bo["seed"] = args.seed
    elif require_seed_flag:
        raise ConfigError("--seed is mandatory in benchmark mode")
    if "budget" not in bo:
        raise ConfigError("config needs bo.budget")
    if "seed" not in bo:
        raise ConfigError("bo.seed missing (set it in the config or pass --seed)")
    return BoConfig.from_json_dict(bo)


@contextlib.contextmanager
def _open_objective(spec: ObjectiveSpec):
    if spec.kind == "builtin":
        yield builtin_function(spec.name)
    else:
        with ExternalObjective(spec) as obj:
            yield obj


def _summary(trace: Trace, config_echo: dict, wall_s: float) -> dict:
    return {
        "config": config_echo,
        "summary": {
            "best_x": [float(v) for v in trace.best_x],
            "best_f": trace.best_f,
            "evaluations": len(trace),
            "wall_time_s": wall_s,
        },
    }


def _emit_summary(summary: dict, path: str | None) -> None:
    text = json.dumps(summary, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_optimize(args) -> int:
    """``run`` and ``baseline``: one optimizer run, its trace and summary."""
    cfg = _load_config(args.config)
    obj_spec = _objective_spec(cfg, args)
    space = _space_from_config(cfg, obj_spec)
    bo_cfg = _bo_config(cfg, args)
    output = cfg.get("output", {})
    trace_path = args.trace or output.get("trace")
    summary_path = args.summary or output.get("summary")
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
        "space": {"lower": space.lower.tolist(), "upper": space.upper.tolist()},
    }
    if args.command == "run":
        echo["bo"] = bo_cfg.to_json_dict()
    else:
        echo.update(budget=bo_cfg.budget, seed=bo_cfg.seed)
    echo["trace"] = trace_path
    _emit_summary(_summary(trace, echo, time.perf_counter() - t0), summary_path)
    return EXIT_OK


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.rsplit("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ConfigError("no seeds given")
    return seeds


def _cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    obj_spec = _objective_spec(cfg, args)
    space = _space_from_config(cfg, obj_spec)
    seeds = _parse_seeds(args.seeds)
    bo_finals, rs_finals = [], []
    rows = []
    for seed in seeds:
        ns = argparse.Namespace(budget=args.budget, seed=seed)
        bo_cfg = _bo_config(cfg, ns)
        with _open_objective(obj_spec) as objective:
            bo_trace = run_bo(objective, space, bo_cfg)
        with _open_objective(obj_spec) as objective:
            rs_trace = random_search_baseline(
                objective, space, bo_cfg.budget, seed, direction=bo_cfg.direction
            )
        bo_finals.append(bo_trace.best_f)
        rs_finals.append(rs_trace.best_f)
        rows.append((seed, bo_trace.best_f, rs_trace.best_f))
    print(f"{'seed':>6} {'bo_best_f':>16} {'random_best_f':>16}")
    for seed, bo_f, rs_f in rows:
        print(f"{seed:>6} {bo_f:>16.8g} {rs_f:>16.8g}")
    bo_med = float(np.median(bo_finals))
    rs_med = float(np.median(rs_finals))
    print(f"{'median':>6} {bo_med:>16.8g} {rs_med:>16.8g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("seed,bo_best_f,random_best_f\n")
            for seed, bo_f, rs_f in rows:
                fh.write(f"{seed},{bo_f:.17g},{rs_f:.17g}\n")
    return EXIT_OK


def _cmd_sample(args) -> int:
    cfg = _load_config(args.config)
    sample_cfg = cfg.get("sample")
    if not sample_cfg or "kernel" not in sample_cfg:
        raise ConfigError("config needs a 'sample' section with a kernel")
    kernel = KernelSpec.from_json_dict(sample_cfg["kernel"])
    space = _space_from_config(cfg, None)
    n_points = int(sample_cfg.get("n_points", 200))
    n_draws = args.draws if args.draws is not None else int(sample_cfg.get("n_draws", 5))
    seed = args.seed if args.seed is not None else int(sample_cfg.get("seed", 0))
    noise = float(sample_cfg.get("noise_variance", 0.0))
    X = halton_points(space, n_points, seed)
    order = np.argsort(X[:, 0]) if space.dimension == 1 else np.arange(n_points)
    X = X[order]
    if args.trace:
        prev = read_trace(args.trace)
        obs = gp.ObservationSet(
            X=np.array([rec.x for rec in prev]),
            y=np.array([rec.y for rec in prev]),
        )
        post = fit_posterior(obs, kernel, noise)
        draws = gp.sample_posterior(post, X, n_draws, seed)
    else:
        draws = gp.sample_prior(kernel, X, n_draws, seed)
    out = args.out or cfg.get("output", {}).get("samples", "samples.csv")
    with open(out, "w", encoding="utf-8") as fh:
        header = [f"x_{j}" for j in range(space.dimension)]
        header += [f"draw_{k}" for k in range(n_draws)]
        fh.write(",".join(header) + "\n")
        for i in range(X.shape[0]):
            vals = list(X[i]) + list(draws[:, i])
            fh.write(",".join(format(v, ".17g") for v in vals) + "\n")
    print(f"wrote {X.shape[0]} points x {n_draws} draws to {out}")
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
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except _CONFIG_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
