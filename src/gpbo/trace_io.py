"""Trace persistence: RFC-4180 CSV, one row per evaluation.

Header is ``iter,x_0..x_{d-1},y,inc_f,acq_value,wall_ms``.  Numbers are
written as ``format(v, ".17g")`` writes them, 17 significant digits, so the
round-trip is lossless for doubles; no field needs CSV quoting.
``TraceWriter`` hands each row to the operating system as it is written, so
a crashed run leaves a readable partial trace behind.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .loop import Trace, TraceRecord


class TraceFormatError(ValueError):
    """Malformed trace CSV."""


def _header(dimension: int) -> list[str]:
    return ["iter", *(f"x_{j}" for j in range(dimension)), "y", "inc_f", "acq_value", "wall_ms"]


class TraceWriter:
    """Incremental writer; each ``write`` appends one row in one unbuffered write."""

    def __init__(self, path, dimension: int):
        self.dimension = dimension
        self._row = b"%d" + b",%.17g" * (dimension + 4) + b"\n"
        self._fh = open(path, "wb", buffering=0)
        try:
            self._write(",".join(_header(dimension)).encode() + b"\n")
        except OSError:
            self._fh.close()  # no writer is returned to close it
            raise

    def _write(self, data: bytes) -> None:
        while data:  # a short write leaves the rest to write again
            data = data[self._fh.write(data) :]

    def write(self, rec: TraceRecord) -> None:
        self._write(
            self._row
            % (rec.iteration, *rec.x.tolist(), rec.y, rec.incumbent_f, rec.acq_value, rec.wall_ms)
        )

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_trace(trace: Trace, path, dimension: int | None = None) -> None:
    """Write a whole trace to CSV."""
    if dimension is None:
        if len(trace) == 0:
            raise TraceFormatError("dimension is required for an empty trace")
        dimension = len(trace.records[0].x)
    with TraceWriter(path, dimension) as w:
        for rec in trace:
            w.write(rec)


def read_trace(path) -> Trace:
    """Read a trace CSV back.

    Fields not persisted in the CSV (incumbent point, GP hyperparameters)
    come back as ``None``.  A row's point, ``y`` and ``inc_f`` must be
    finite; ``acq_value`` is NaN on initialization rows.
    """
    trace = Trace()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError("empty file: missing header")
        d = len(header) - 5  # below 0 for a short header, which _header(d)'s 5 names then fail
        if header != _header(d):
            raise TraceFormatError(f"unexpected header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise TraceFormatError(f"row {lineno}: expected {len(header)} fields")
            try:
                it = int(row[0])
                x = np.array([float(v) for v in row[1 : 1 + d]])
                y, inc_f, acq, wall = (float(v) for v in row[1 + d :])
            except ValueError as e:
                raise TraceFormatError(f"row {lineno}: {e}") from None
            if not (np.isfinite(x).all() and math.isfinite(y) and math.isfinite(inc_f)):
                raise TraceFormatError(f"row {lineno}: non-finite x, y or inc_f")
            trace.append(
                TraceRecord(
                    iteration=it,
                    x=x,
                    y=y,
                    incumbent_x=None,
                    incumbent_f=inc_f,
                    acq_value=acq,
                    hypers=None,
                    wall_ms=wall,
                )
            )
    return trace

