"""External objective processes: newline-delimited JSON over stdin/stdout.

Request:  ``{"x": [f, ...]}\n``, the bytes of ``json.dumps`` of that object
Response: ``{"y": f}\n``  or  ``{"error": "..."}\n``

Persistent mode keeps one worker alive for the whole run (one request per
evaluation, strictly sequential).  Oneshot mode launches the command afresh
per evaluation and passes a single request on stdin.  Every failure mode is
a distinct exception so the CLI can map them to exit codes.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time

import numpy as np

from .objectives import ObjectiveSpec

STDERR_TAIL = 2000  # characters of a oneshot worker's stderr kept in its errors


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


def _decoded(raw: bytes, iteration: int) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError as e:
        raise ProtocolError(
            f"response at iteration {iteration} is not UTF-8: {raw[-200:]!r}: {e}", iteration
        ) from None


def _request(x) -> bytes:
    """``json.dumps({"x": [...]})`` of the point's coordinates, and a newline:
    each coordinate spelled by ``float.__repr__``, or as json spells NaN and
    the infinities."""
    coords = ", ".join(map(float.__repr__, np.asarray(x, dtype=float).ravel().tolist()))
    coords = coords.replace("nan", "NaN").replace("inf", "Infinity")
    return b'{"x": [' + coords.encode() + b"]}\n"


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
    y = obj["y"]
    if not abs(y) <= sys.float_info.max:  # also an integer past the float range
        raise NonFiniteResponseError(f"worker returned non-finite y: {line!r}", iteration)
    return float(y)


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
        self._pending = b""  # bytes the worker sent past its last full line

    def __call__(self, x) -> float:
        request = _request(x)
        it = self.evaluations
        self.evaluations += 1
        if self.spec.mode == "oneshot":
            return self._eval_oneshot(request, it)
        return self._eval_persistent(request, it)

    def _eval_oneshot(self, request: bytes, it: int) -> float:
        try:
            result = subprocess.run(
                list(self.spec.command),
                input=request,
                capture_output=True,
                timeout=self.spec.timeout,
            )
        except subprocess.TimeoutExpired:
            raise WorkerTimeoutError(
                f"worker exceeded {self.spec.timeout}s at iteration {it}", it
            ) from None
        except OSError as e:
            raise WorkerCrashError(f"could not launch worker: {e}", it) from None
        # stderr only feeds error messages, so a stray byte there must not fail
        stderr = result.stderr.decode(errors="replace").strip()[-STDERR_TAIL:]
        stderr = f"; its stderr ends: {stderr}" if stderr else ""
        if result.returncode != 0:
            raise WorkerCrashError(
                f"worker exited with code {result.returncode} at iteration {it}{stderr}", it
            )
        line = _decoded(result.stdout, it).strip().splitlines()
        if not line:
            raise ProtocolError(f"worker produced no response at iteration {it}{stderr}", it)
        return _parse_response(line[-1], it)

    def _ensure_worker(self, it: int) -> subprocess.Popen:
        if self._proc is None:
            self._pending = b""
            try:
                self._proc = subprocess.Popen(
                    list(self.spec.command),
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    bufsize=0,
                )
            except OSError as e:
                raise WorkerCrashError(f"could not launch worker: {e}", it) from None
        return self._proc

    def _eval_persistent(self, request: bytes, it: int) -> float:
        proc = self._ensure_worker(it)
        try:
            fd = proc.stdin.fileno()
            while request:  # a short write leaves the rest to write again
                request = request[os.write(fd, request) :]
        except OSError:
            raise WorkerCrashError(f"worker pipe closed at iteration {it}", it) from None
        # one deadline for the whole line: a worker that sends part of it and
        # stalls must time out too, so read the raw fd, never a blocking readline
        deadline = time.monotonic() + self.spec.timeout
        fd = proc.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                # a stalled worker gets no grace period: kill it now, so that
                # close() (or the next evaluation) does not wait on it
                self._proc, self._pending = None, b""
                with proc:  # closes its pipes and reaps it
                    proc.kill()
                raise WorkerTimeoutError(
                    f"worker exceeded {self.spec.timeout}s at iteration {it}", it
                )
            chunk = os.read(fd, 65536)
            if not chunk:
                if not self._pending:
                    raise WorkerCrashError(f"worker closed stdout at iteration {it}", it)
                break  # a last line without its newline is still a response
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return _parse_response(_decoded(line, it).strip(), it)

    def close(self) -> None:
        if self._proc is not None:
            proc, self._proc = self._proc, None
            with proc:  # closes its pipes and reaps it
                try:
                    proc.stdin.close()
                except OSError:
                    pass
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
