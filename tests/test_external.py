import sys
import time
from pathlib import Path

import pytest

from gpbo.external import (
    ExternalObjective,
    STDERR_TAIL,
    NonFiniteResponseError,
    ProtocolError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from gpbo.objectives import MAX_TIMEOUT, ObjectiveSpec

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

    def test_response_that_is_not_utf8_is_protocol_error(self, tmp_path):
        worker = write_worker(
            tmp_path,
            "for line in sys.stdin:\n"
            "    sys.stdout.buffer.write(b'{\"y\": 1.0\\xff}\\n')\n"
            "    sys.stdout.flush()\n",
        )
        with ExternalObjective(worker_spec(worker)) as obj:
            with pytest.raises(ProtocolError, match="at iteration 0 is not UTF-8") as err:
                obj([0.5])
            assert err.value.iteration == 0

    @pytest.mark.parametrize(
        "response, message",
        [
            ("[1]", "not a JSON object"),
            ('{"y": true}', "missing numeric 'y'"),
            ('{"z": 1}', "missing numeric 'y'"),
        ],
        ids=["array", "boolean-y", "no-y"],
    )
    def test_response_without_a_numeric_y_is_protocol_error(self, tmp_path, response, message):
        # the first request gets a good answer, so the error names iteration 1
        worker = write_worker(
            tmp_path,
            "sys.stdin.readline()\n"
            "print(json.dumps({'y': 1.0}), flush=True)\n"
            "for line in sys.stdin:\n"
            f"    print({response!r}, flush=True)\n",
        )
        with ExternalObjective(worker_spec(worker)) as obj:
            assert obj([0.5]) == 1.0
            with pytest.raises(ProtocolError, match=message) as err:
                obj([0.5])
            assert err.value.iteration == 1

    def test_non_finite_response(self, tmp_path):
        worker = write_worker(
            tmp_path,
            "for line in sys.stdin:\n"
            "    print(json.dumps({'y': float('nan')}), flush=True)\n",
        )
        with ExternalObjective(worker_spec(worker)) as obj:
            with pytest.raises(NonFiniteResponseError):
                obj([0.5])

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_past_the_float_range_is_non_finite(self, tmp_path, sign):
        # the first request gets a good answer, so the error names iteration 1
        worker = write_worker(
            tmp_path,
            "sys.stdin.readline()\n"
            "print(json.dumps({'y': 1.0}), flush=True)\n"
            "for line in sys.stdin:\n"
            f"    print('{{\"y\": {sign}1' + '0' * 400 + '}}', flush=True)\n",
        )
        with ExternalObjective(worker_spec(worker)) as obj:
            assert obj([0.5]) == 1.0
            with pytest.raises(NonFiniteResponseError, match="non-finite") as err:
                obj([0.5])
            assert err.value.iteration == 1

    def test_largest_timeout(self):
        with ExternalObjective(worker_spec(SPHERE_WORKER, timeout=MAX_TIMEOUT)) as obj:
            assert obj([0.5]) == 0.25
            assert obj([1.0, 2.0]) == 5.0

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

    def test_partial_line_then_stall_times_out(self, tmp_path):
        """The timeout bounds the whole line, not only its first bytes."""
        worker = write_worker(
            tmp_path,
            "for line in sys.stdin:\n"
            "    print('{\"y\": 1', end='', flush=True)\n"
            "    time.sleep(30)\n",
        )
        with ExternalObjective(worker_spec(worker, timeout=0.5)) as obj:
            start = time.monotonic()
            with pytest.raises(WorkerTimeoutError) as err:
                obj([0.5])
            assert err.value.iteration == 0
            assert time.monotonic() - start < 5.0

    def test_timed_out_worker_is_killed_at_once(self, tmp_path):
        worker = write_worker(
            tmp_path,
            "for line in sys.stdin:\n"
            "    time.sleep(30)\n",
        )
        obj = ExternalObjective(worker_spec(worker, timeout=0.5))
        proc = obj._ensure_worker(0)
        start = time.monotonic()
        with pytest.raises(WorkerTimeoutError):
            obj([0.5])
        assert time.monotonic() - start < 0.5 + 1.0
        obj.close()
        assert proc.poll() is not None
        assert time.monotonic() - start < 0.5 + 1.0

    def test_last_line_without_newline_before_exit_is_a_response(self, tmp_path):
        worker = write_worker(
            tmp_path,
            "sys.stdin.readline()\n"
            "print(json.dumps({'y': 2.0}), end='', flush=True)\n",
        )
        with ExternalObjective(worker_spec(worker)) as obj:
            assert obj([0.5]) == 2.0

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

    def test_integer_past_the_float_range_is_non_finite(self, tmp_path):
        worker = write_worker(tmp_path, "print('{\"y\": 1' + '0' * 400 + '}')\n")
        with ExternalObjective(worker_spec(worker, mode="oneshot")) as obj:
            with pytest.raises(NonFiniteResponseError, match="non-finite") as err:
                obj([0.5])
            assert err.value.iteration == 0

    def test_largest_timeout(self):
        spec = worker_spec(SPHERE_WORKER, mode="oneshot", timeout=MAX_TIMEOUT)
        with ExternalObjective(spec) as obj:
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

    def test_response_that_is_not_utf8_is_protocol_error(self, tmp_path):
        worker = write_worker(tmp_path, "sys.stdout.buffer.write(b'{\"y\": 1.0\\xff}\\n')\n")
        with ExternalObjective(worker_spec(worker, mode="oneshot")) as obj:
            with pytest.raises(ProtocolError, match="at iteration 0 is not UTF-8") as err:
                obj([0.5])
            assert err.value.iteration == 0

    def test_stderr_that_is_not_utf8_leaves_a_valid_response(self, tmp_path):
        worker = write_worker(
            tmp_path,
            "sys.stderr.buffer.write(b'warning \\xff\\n')\n"
            "print(json.dumps({'y': 1.0}))\n",
        )
        with ExternalObjective(worker_spec(worker, mode="oneshot")) as obj:
            assert obj([0.5]) == 1.0

    @pytest.mark.parametrize(
        "exit_code, error", [(3, WorkerCrashError), (0, ProtocolError)]
    )
    def test_error_carries_stderr_tail(self, tmp_path, exit_code, error):
        worker = write_worker(
            tmp_path,
            "sys.stderr.write('x' * 10000 + '\\nboom: CUDA out of memory\\n')\n"
            f"sys.exit({exit_code})\n",
        )
        with ExternalObjective(worker_spec(worker, mode="oneshot")) as obj:
            with pytest.raises(error) as err:
                obj([0.5])
        message = str(err.value)
        assert message.endswith("boom: CUDA out of memory")
        assert "at iteration 0" in message
        assert "x" * STDERR_TAIL not in message  # only a bounded tail is kept
