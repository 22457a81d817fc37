import sys
from pathlib import Path

import pytest

from gpbo.external import (
    ExternalObjective,
    NonFiniteResponseError,
    ProtocolError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from gpbo.objectives import ObjectiveSpec

SPHERE_WORKER = Path(__file__).resolve().parents[1] / "demos" / "sphere_worker.py"


def worker_spec(path, mode="persistent", timeout=10.0):
    return ObjectiveSpec(
        kind="external", command=(sys.executable, str(path)), mode=mode,
        timeout=timeout,
    )


def write_worker(tmp_path, body: str) -> Path:
    path = tmp_path / "worker.py"
    path.write_text("import json, sys, time, math\n" + body)
    return path


class TestPersistentWorker:
    def test_sphere_echo(self):
        with ExternalObjective(worker_spec(SPHERE_WORKER)) as obj:
            assert obj([0.5]) == 0.25
            assert obj([1.0, 2.0]) == 5.0
            assert obj.evaluations == 2

    def test_malformed_response_is_protocol_error(self, tmp_path):
        worker = write_worker(
            tmp_path,
            "for line in sys.stdin:\n"
            "    print('not json', flush=True)\n",
        )
        with ExternalObjective(worker_spec(worker)) as obj:
            with pytest.raises(ProtocolError):
                obj([0.5])

    def test_error_response_is_protocol_error(self, tmp_path):
        worker = write_worker(
            tmp_path,
            "for line in sys.stdin:\n"
            "    print(json.dumps({'error': 'boom'}), flush=True)\n",
        )
        with ExternalObjective(worker_spec(worker)) as obj:
            with pytest.raises(ProtocolError, match="boom"):
                obj([0.5])

    def test_non_finite_response(self, tmp_path):
        worker = write_worker(
            tmp_path,
            "for line in sys.stdin:\n"
            "    print(json.dumps({'y': float('nan')}), flush=True)\n",
        )
        with ExternalObjective(worker_spec(worker)) as obj:
            with pytest.raises(NonFiniteResponseError):
                obj([0.5])

    def test_timeout_reports_iteration(self, tmp_path):
        worker = write_worker(
            tmp_path,
            "for line in sys.stdin:\n"
            "    time.sleep(30)\n",
        )
        with ExternalObjective(worker_spec(worker, timeout=0.5)) as obj:
            with pytest.raises(WorkerTimeoutError) as err:
                obj([0.5])
            assert err.value.iteration == 0

    def test_worker_exit_is_crash_error(self, tmp_path):
        worker = write_worker(tmp_path, "sys.exit(1)\n")
        with ExternalObjective(worker_spec(worker)) as obj:
            with pytest.raises(WorkerCrashError):
                obj([0.5])

    def test_unlaunchable_command(self):
        spec = ObjectiveSpec(
            kind="external", command=("/nonexistent/worker",), timeout=1.0
        )
        with ExternalObjective(spec) as obj:
            with pytest.raises(WorkerCrashError):
                obj([0.5])


class TestOneshotWorker:
    def test_sphere_echo(self):
        with ExternalObjective(worker_spec(SPHERE_WORKER, mode="oneshot")) as obj:
            assert obj([3.0]) == 9.0

    def test_timeout(self, tmp_path):
        worker = write_worker(tmp_path, "time.sleep(30)\n")
        spec = worker_spec(worker, mode="oneshot", timeout=0.5)
        with ExternalObjective(spec) as obj:
            with pytest.raises(WorkerTimeoutError):
                obj([0.5])

    def test_nonzero_exit_is_crash(self, tmp_path):
        worker = write_worker(tmp_path, "sys.exit(3)\n")
        with ExternalObjective(worker_spec(worker, mode="oneshot")) as obj:
            with pytest.raises(WorkerCrashError):
                obj([0.5])

    def test_empty_output_is_protocol_error(self, tmp_path):
        worker = write_worker(tmp_path, "pass\n")
        with ExternalObjective(worker_spec(worker, mode="oneshot")) as obj:
            with pytest.raises(ProtocolError):
                obj([0.5])
