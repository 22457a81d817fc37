"""gpbo benchmark: optimiser overhead per evaluation, end to end and per layer.

Usage, from the root of a gpbo checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh processes with one BLAS thread.  With
``--trace 0`` the last line of standard output is one JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced pass instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("branin-fit", "rosen6-fixed", "worker-random")
# gpbo factorises n <= 200 matrices, where extra BLAS threads add CPU time
# and wall-clock noise but no speed
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 2
DEADLINE_S = 170.0


def drift_probe() -> float:
    """Seconds for a fixed pure-numpy loop unrelated to gpbo.  Printed beside
    the metrics to recognise a run taken while the host was slow; it adjusts
    nothing."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((80, 80))
    a = a @ a.T + 80.0 * np.eye(80)
    t0 = time.perf_counter()
    for _ in range(3000):
        np.linalg.cholesky(a).sum()
    return time.perf_counter() - t0


def child(workload: str, seed: int, seconds: float, trace: int, deadline: float,
          probe: bool = False) -> tuple[dict, list[str]]:
    """Run one workload process; returns its JSON result and other output lines."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    cmd += ["--probe"] if probe else []
    spawned_at = time.perf_counter()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    before = drift_probe()
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(child(workload, seed, seconds, 0, deadline, probe=True)[0]["setup_s"])
    result, lines = child(workload, seed, seconds, trace, deadline)
    after = drift_probe()
    if not trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    for line in lines:
        print(line)
    print(f"drift probe (not a metric): {before:.4f} s before, {after:.4f} s after")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (Path("src/gpbo/__init__.py").is_file() and (HERE / "workloads.py").is_file()):
        print("run from the root of a gpbo checkout (src/gpbo not found)", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    # One CPU for every process the run starts: the loop has one client and
    # one BLAS thread, so nothing runs in parallel, and on a virtual machine a
    # pipe round trip to a worker on another, idle CPU pays for waking it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        print(f"workload {workload}")
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{workload} failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
