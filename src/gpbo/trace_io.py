"""Trace persistence: RFC-4180 CSV, one row per evaluation.

Header is ``iter,x_0..x_{d-1},y,inc_f,acq_value,wall_ms``.  Numbers are
written with 17 significant digits so the round-trip is lossless for
doubles.  ``TraceWriter`` flushes after every row, so a crashed run leaves a
readable partial trace behind.
"""

from __future__ import annotations

import contextlib
import csv
import math

import numpy as np

from .loop import Trace, TraceRecord


class TraceFormatError(ValueError):
    """Malformed trace CSV."""


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _header(dimension: int) -> list[str]:
    return ["iter", *(f"x_{j}" for j in range(dimension)), "y", "inc_f", "acq_value", "wall_ms"]


class TraceWriter:
    """Incremental writer; each ``write`` appends one flushed row."""

    def __init__(self, path, dimension: int):
        self.dimension = dimension
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self._writer = csv.writer(self._fh, lineterminator="\n")
        try:
            self._writer.writerow(_header(dimension))
            self._fh.flush()
        except OSError:
            # no writer is returned to close the file, so close it here; its
            # own flush of the unwritten header fails again and is dropped
            with contextlib.suppress(OSError):
                self._fh.close()
            raise

    def write(self, rec: TraceRecord) -> None:
        row = (
            [str(rec.iteration)]
            + [_fmt(v) for v in rec.x]
            + [_fmt(rec.y), _fmt(rec.incumbent_f), _fmt(rec.acq_value), _fmt(rec.wall_ms)]
        )
        self._writer.writerow(row)
        self._fh.flush()

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

