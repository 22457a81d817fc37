"""One benchmark workload in a fresh process: set-up, measured passes, checks.

Started by ``run.py`` from the repository root, with one BLAS thread:

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
        --trace 0|1 --spawned-at T [--probe]

Set-up runs from process start to the first objective evaluation of the
measured work: interpreter, imports, configuration, worker spawn and a
warm-up that runs every workload once at a small size.  A pass is the
workload's fixed work; passes repeat while the next one fits in
``--seconds``, and the timings reported are medians over passes.
``--probe`` stops at the first evaluation and reports only the set-up time.
``--trace 1`` runs one untraced pass, then one pass with spans at every
layer's call sites, and reports the per-layer metrics.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

from gpbo import cli, loop, objectives  # noqa: E402
from gpbo.acquisition import AcquisitionSpec  # noqa: E402
from gpbo.baseline import random_search_baseline  # noqa: E402
from gpbo.kernels import KernelSpec  # noqa: E402
from gpbo.loop import BoConfig  # noqa: E402

import oracles  # noqa: E402
import selftest  # noqa: E402
from spans import Recorder  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"

EI = AcquisitionSpec("ei", xi=0.01)
# branin's L-BFGS work depends on the BO seed (seeds 0-3 made 17 842 to
# 18 841 LML calls), so its seeds are fixed and --seed only sets their order
BRANIN_SEEDS = (0, 1)
BRANIN_BUDGET = 60
ROSEN_DIM = 6
ROSEN_BUDGET = 200
ROSEN_KERNEL = KernelSpec("matern", 1.0, np.full(ROSEN_DIM, 0.5), nu=2.5)
SPHERE_DIM = 4
WORKER_BUDGET = 15_000
QUALITY_BOUND = 0.9
EI_ABS_TOL = 1e-9
WARM_SEED = 987_654


class _FirstEvaluation(Exception):
    """Raised by a probe's objective once set-up has ended."""


class Boundary:
    """The objective as the optimiser sees it.

    Looks the gpbo builtin up at every call so spans patched onto
    ``gpbo.objectives`` see it, and times the optimiser's gap between one
    evaluation returning and the next being requested.
    """

    def __init__(self, name: str, probe: bool = False):
        self.name = name
        self.probe = probe
        self.first = None
        self.last = None
        self.gaps: list[float] = []
        self.evaluations = 0

    def new_run(self) -> None:
        self.last = None

    def __call__(self, x) -> float:
        now = time.perf_counter()
        if self.first is None:
            self.first = now
            if self.probe:
                raise _FirstEvaluation
        if self.last is not None:
            self.gaps.append(now - self.last)
        y = getattr(objectives, self.name)(x)
        self.evaluations += 1
        self.last = time.perf_counter()
        return y


@dataclass
class Pass:
    """One pass of a workload's fixed work and what it left for the checks."""

    wall_s: float = 0.0
    gaps: list = field(default_factory=list)
    first_evaluation: float | None = None
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)
    trace_bytes: int = 0
    errors: list = field(default_factory=list)


class LibraryWorkload:
    """``loop.run_bo`` on a gpbo builtin; a pass runs each config once."""

    def __init__(self, objective: str, space, configs, warm_config):
        self.objective = objective
        self.space = space
        self.configs = configs
        self.warm_config = warm_config

    def warm_up(self) -> None:
        loop.run_bo(Boundary(self.objective), self.space, self.warm_config)

    def run_pass(self, probe: bool = False) -> Pass:
        result = Pass()
        boundary = Boundary(self.objective, probe)
        t0 = time.perf_counter()
        for cfg in self.configs:
            boundary.new_run()
            done = boundary.evaluations
            result.attempted += cfg.budget
            try:
                trace = loop.run_bo(boundary, self.space, cfg)
            except _FirstEvaluation:
                break
            except Exception as exc:  # a failed run is counted and reported
                result.failed += cfg.budget - (boundary.evaluations - done)
                result.errors.append(f"seed {cfg.seed}: {type(exc).__name__}: {exc}")
                continue
            result.outputs.append((cfg, trace))
        result.wall_s = time.perf_counter() - t0
        result.gaps = boundary.gaps
        result.first_evaluation = boundary.first
        return result

    def check(self, passes, report) -> None:
        formula = oracles.FORMULAS[self.objective]
        minimum = oracles.MINIMA[self.objective]
        lo, hi = self.space.lower, self.space.upper
        worst_ei = 0.0
        for p in passes:
            for cfg, trace in p.outputs:
                tag = f"{self.objective} seed {cfg.seed}"
                recs = trace.records
                xs = np.array([r.x for r in recs])
                ys = np.array([r.y for r in recs])
                inc = np.array([r.incumbent_f for r in recs])
                report(f"{tag}: {cfg.budget} evaluations", len(recs) == cfg.budget, str(len(recs)))
                report(f"{tag}: proposals inside the box",
                       bool(np.all((xs >= lo) & (xs <= hi))), "")
                err = max(abs(y - formula(x)) / max(1.0, abs(y)) for x, y in zip(xs, ys))
                report(f"{tag}: y matches own {self.objective}", err <= 1e-12, f"worst {err:.1e}")
                report(f"{tag}: inc_f is the running minimum of y",
                       np.array_equal(inc, np.minimum.accumulate(ys)), "")
                report(f"{tag}: best_f not below the global minimum",
                       trace.best_f >= minimum - 1e-9, f"{trace.best_f!r}")
                n_init = cfg.resolved_n_init(self.space.dimension)
                worst, stats_ok = 0.0, True
                for i in range(n_init, len(recs)):
                    h = recs[i].hypers
                    y_int = -ys[:i]  # minimisation is negated into maximisation
                    stats_ok &= (
                        h["kernel"]["family"] == "matern"
                        and h["kernel"]["nu"] == 2.5
                        and math.isclose(h["y_mean"], float(np.mean(y_int)),
                                         rel_tol=1e-12, abs_tol=1e-12)
                        and math.isclose(h["y_sd"], float(np.std(y_int)), rel_tol=1e-12)
                    )
                    own = oracles.loop_ei(recs, i, lo, hi, -1.0, cfg.acquisition.xi)
                    worst = max(worst, abs(own - recs[i].acq_value))
                report(f"{tag}: recorded hypers are Matern-5/2 on standardised y", stats_ok, "")
                report(f"{tag}: acq_value matches dense EI from the row's hypers",
                       worst <= EI_ABS_TOL, f"worst {worst:.1e}")
                worst_ei = max(worst_ei, worst)
        print(f"dense EI check: worst |acq_value - EI| {worst_ei:.1e} (bound {EI_ABS_TOL:.0e})")


class BraninFit(LibraryWorkload):
    def __init__(self, seed: int):
        k = seed % len(BRANIN_SEEDS)
        order = BRANIN_SEEDS[k:] + BRANIN_SEEDS[:k]
        super().__init__(
            "branin",
            objectives.recommended_space("branin"),
            [BoConfig(budget=BRANIN_BUDGET, n_init=8, seed=s, acquisition=EI) for s in order],
            BoConfig(budget=10, n_init=8, seed=WARM_SEED, acquisition=EI),
        )

    def check(self, passes, report) -> None:
        super().check(passes, report)
        # quality beside timing: the paired random search has the same budget
        best = {cfg.seed: trace.best_f for cfg, trace in passes[0].outputs}
        rs = [
            random_search_baseline(objectives.branin, self.space, BRANIN_BUDGET, s).best_f
            for s in best
        ]
        for s, f in best.items():
            print(f"quality branin seed {s}: best_f {f:.6f}")
        hits = sum(f <= QUALITY_BOUND for f in best.values())
        median = statistics.median(best.values()) if best else math.inf
        print(f"quality branin: {hits}/{len(best)} seeds <= {QUALITY_BOUND}, "
              f"median best_f {median:.6f}, paired random-search median {statistics.median(rs):.6f}")
        report(f"branin median best_f <= {QUALITY_BOUND}", median <= QUALITY_BOUND, f"{median:.6f}")


def _rosen_config(budget: int, seed: int) -> BoConfig:
    return BoConfig(budget=budget, seed=seed, fixed_kernel=ROSEN_KERNEL, acquisition=EI)


class Rosen6Fixed(LibraryWorkload):
    def __init__(self, seed: int):
        super().__init__(
            "rosenbrock",
            objectives.recommended_space("rosenbrock", ROSEN_DIM),
            [_rosen_config(ROSEN_BUDGET, seed)],
            _rosen_config(14, WARM_SEED),
        )


class WorkerRandom:
    """``gpbo baseline`` through ``cli.main`` against the benchmark's sphere
    worker, writing a trace CSV per run."""

    def __init__(self, seed: int):
        self.space = objectives.recommended_space("sphere", SPHERE_DIM)
        self.seed = seed
        self.stats = OUT / "worker-stats.bin"
        self.config = OUT / "worker-config.json"
        self.config.write_text(json.dumps({
            "space": {"lower": self.space.lower.tolist(), "upper": self.space.upper.tolist()},
            "objective": {
                "kind": "external",
                "command": [sys.executable, str(Path(__file__).parent / "sphere_worker.py"),
                            str(self.stats)],
                "mode": "persistent",
                "timeout": 60.0,
            },
            "bo": {"budget": WORKER_BUDGET, "seed": 0},
        }))
        self.runs = 0
        self.warm_bytes = 0

    def _baseline(self, seed: int, budget: int):
        """One CLI run; returns (exit code, worker stats, trace path)."""
        self.runs += 1
        trace = OUT / f"worker-trace-{self.runs}.csv"
        argv = ["baseline", "--config", str(self.config), "--seed", str(seed),
                "--budget", str(budget), "--trace", str(trace)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        stats = array("d")
        with open(self.stats, "rb") as fh:
            stats.frombytes(fh.read())
        return code, stats, trace

    def warm_up(self) -> None:
        self.warm_bytes = self._baseline(WARM_SEED, 200)[2].stat().st_size

    def run_pass(self, probe: bool = False) -> Pass:
        result = Pass()
        budget = 1 if probe else WORKER_BUDGET
        t0 = time.perf_counter()
        code, stats, trace = self._baseline(self.seed, budget)
        result.wall_s = time.perf_counter() - t0
        result.first_evaluation = stats[1]
        result.gaps = stats[2:]
        result.attempted = budget
        result.failed = budget - int(stats[0])  # requests the worker answered
        result.trace_bytes = trace.stat().st_size
        if code != 0:
            result.errors.append(f"seed {self.seed}: gpbo baseline exited {code}")
        result.outputs.append((self.seed, budget, code, int(stats[0]), trace))
        return result

    def check(self, passes, report) -> None:
        lo, hi = self.space.lower, self.space.upper
        for p in passes:
            for seed, budget, code, requests, trace in p.outputs:
                rows = _read_rows(trace)
                tag = f"sphere seed {seed}"
                report(f"{tag}: exit code 0", code == 0, str(code))
                report(f"{tag}: worker saw {budget} requests", requests == budget, str(requests))
                report(f"{tag}: trace has {budget} rows", len(rows) == budget, str(len(rows)))
                if not rows:
                    continue
                its = [int(r[0]) for r in rows]
                xs = np.array([[float(v) for v in r[1:1 + SPHERE_DIM]] for r in rows])
                ys = np.array([float(r[1 + SPHERE_DIM]) for r in rows])
                inc = np.array([float(r[2 + SPHERE_DIM]) for r in rows])
                report(f"{tag}: rows numbered 0..{budget - 1}", its == list(range(len(rows))), "")
                report(f"{tag}: points inside the box", bool(np.all((xs >= lo) & (xs <= hi))), "")
                err = max(abs(y - oracles.sphere(x)) / max(1.0, y) for x, y in zip(xs, ys))
                report(f"{tag}: y matches own sphere", err <= 1e-12, f"worst {err:.1e}")
                report(f"{tag}: inc_f is the running minimum of y",
                       np.array_equal(inc, np.minimum.accumulate(ys)), "")
                report(f"{tag}: best_f not below the global minimum", inc[-1] >= 0.0, "")


def _read_rows(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    expected = (["iter"] + [f"x_{j}" for j in range(SPHERE_DIM)]
                + ["y", "inc_f", "acq_value", "wall_ms"])
    return rows if header == expected else []


WORKLOADS = {"branin-fit": BraninFit, "rosen6-fixed": Rosen6Fixed, "worker-random": WorkerRandom}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)

    # the warm-up runs every workload once at a small size: it loads lazily
    # imported code, starts a worker and touches every layer the spans cover
    instances = {name: make(args.seed) for name, make in WORKLOADS.items()}
    workload = instances[args.workload]
    recorder = Recorder() if args.trace else None
    if recorder:
        recorder.install()
    for instance in instances.values():
        instance.warm_up()
    if recorder:
        recorder.uninstall()

    if args.probe:
        first = workload.run_pass(probe=True).first_evaluation
        print(json.dumps({"setup_s": first - args.spawned_at}))
        return 0

    passes = [workload.run_pass()]
    setup_s = passes[0].first_evaluation - args.spawned_at
    if recorder:
        recorder.install()
        passes.append(workload.run_pass())
        recorder.uninstall()
    else:
        while sum(p.wall_s for p in passes) * (1 + 1 / len(passes)) <= args.seconds:
            passes.append(workload.run_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = []

    def report(name, ok, detail):
        checks.append(bool(ok))
        if not ok:
            print(f"check FAIL {name}: {detail}")

    for p in passes:
        for err in p.errors:
            report("run completed", False, err)
    workload.check(passes, report)
    for name, ok, detail in selftest.run_checks():
        report(f"selftest {name}", ok, detail)
    print(f"checks: {sum(checks)}/{len(checks)} passed")

    if recorder:
        metrics = recorder.layer_metrics()
        metrics["trace_io.bytes"] = (
            instances["worker-random"].warm_bytes + passes[1].trace_bytes, "B"
        )
        metrics["trace.overhead_s"] = (passes[1].wall_s - passes[0].wall_s, "s")
        recorder.dump(OUT / f"spans-{args.workload}-{args.seed}.csv")
    else:
        # medians over passes, so that a pass in a slow spell of the host
        # does not move the result
        p50, p90 = np.median([np.percentile(p.gaps, [50, 90]) for p in passes], axis=0) * 1e3
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(p.wall_s for p in passes), "s"),
            "suggest_ms_p50": (float(p50), "ms"),
            "suggest_ms_p90": (float(p90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"passes: {len(passes)}, suggest samples per pass: {len(passes[0].gaps)}")
    print(json.dumps({
        "correct": all(checks),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
