"""External objective processes: newline-delimited JSON over stdin/stdout.

Request:  ``{"x": [f, ...]}\n``
Response: ``{"y": f}\n``  or  ``{"error": "..."}\n``

Persistent mode keeps one worker alive for the whole run (one request per
evaluation, strictly sequential).  Oneshot mode launches the command afresh
per evaluation and passes a single request on stdin.  Every failure mode is
a distinct exception so the CLI can map them to exit codes.
"""

from __future__ import annotations

import json
import select
import subprocess

import numpy as np

from .objectives import ObjectiveSpec


class ExternalObjectiveError(RuntimeError):
    """Base class for worker-protocol failures."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class WorkerCrashError(ExternalObjectiveError):
    """Worker exited or closed its stdout mid-run."""


class WorkerTimeoutError(ExternalObjectiveError):
    """Worker did not answer within the configured timeout."""


class ProtocolError(ExternalObjectiveError):
    """Response line was not valid ``{"y": f}`` JSON, or carried an error."""


class NonFiniteResponseError(ExternalObjectiveError):
    """Worker returned a NaN or infinite value."""


def _parse_response(line: str, iteration: int | None) -> float:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ProtocolError(f"malformed response line {line!r}: {e}", iteration) from None
    if not isinstance(obj, dict):
        raise ProtocolError(f"response is not a JSON object: {line!r}", iteration)
    if "error" in obj:
        raise ProtocolError(f"worker reported error: {obj['error']}", iteration)
    if "y" not in obj or not isinstance(obj["y"], (int, float)) or isinstance(obj["y"], bool):
        raise ProtocolError(f"response missing numeric 'y': {line!r}", iteration)
    y = float(obj["y"])
    if not np.isfinite(y):
        raise NonFiniteResponseError(f"worker returned non-finite y={y}", iteration)
    return y


class ExternalObjective:
    """Callable adapter around a worker process.

    Counts evaluations so errors can report the offending iteration index.
    Use as a context manager (or call :meth:`close`) to reap the worker.
    """

    def __init__(self, spec: ObjectiveSpec):
        if spec.kind != "external":
            raise ValueError("ExternalObjective requires an external ObjectiveSpec")
        self.spec = spec
        self.evaluations = 0
        self._proc: subprocess.Popen | None = None

    def __call__(self, x) -> float:
        request = json.dumps({"x": [float(v) for v in np.asarray(x).ravel()]})
        it = self.evaluations
        self.evaluations += 1
        if self.spec.mode == "oneshot":
            return self._eval_oneshot(request, it)
        return self._eval_persistent(request, it)

    def _eval_oneshot(self, request: str, it: int) -> float:
        try:
            result = subprocess.run(
                list(self.spec.command),
                input=request + "\n",
                capture_output=True,
                text=True,
                timeout=self.spec.timeout,
            )
        except subprocess.TimeoutExpired:
            raise WorkerTimeoutError(
                f"worker exceeded {self.spec.timeout}s at iteration {it}", it
            ) from None
        except OSError as e:
            raise WorkerCrashError(f"could not launch worker: {e}", it) from None
        if result.returncode != 0:
            raise WorkerCrashError(
                f"worker exited with code {result.returncode} at iteration {it}", it
            )
        line = result.stdout.strip().splitlines()
        if not line:
            raise ProtocolError(f"worker produced no response at iteration {it}", it)
        return _parse_response(line[-1], it)

    def _ensure_worker(self, it: int) -> subprocess.Popen:
        if self._proc is None:
            try:
                self._proc = subprocess.Popen(
                    list(self.spec.command),
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                    bufsize=1,
                )
            except OSError as e:
                raise WorkerCrashError(f"could not launch worker: {e}", it) from None
        return self._proc

    def _eval_persistent(self, request: str, it: int) -> float:
        proc = self._ensure_worker(it)
        try:
            proc.stdin.write(request + "\n")
            proc.stdin.flush()
        except (BrokenPipeError, OSError):
            raise WorkerCrashError(f"worker pipe closed at iteration {it}", it) from None
        ready, _, _ = select.select([proc.stdout], [], [], self.spec.timeout)
        if not ready:
            raise WorkerTimeoutError(
                f"worker exceeded {self.spec.timeout}s at iteration {it}", it
            )
        line = proc.stdout.readline()
        if line == "":
            raise WorkerCrashError(f"worker closed stdout at iteration {it}", it)
        return _parse_response(line.strip(), it)

    def close(self) -> None:
        if self._proc is not None:
            proc, self._proc = self._proc, None
            try:
                proc.stdin.close()
            except OSError:
                pass
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
