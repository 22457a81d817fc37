import csv
import math

import numpy as np
import pytest

from gpbo.loop import Trace, TraceRecord
from gpbo.trace_io import (
    TraceFormatError,
    TraceWriter,
    read_trace,
    write_trace,
)


def make_trace(n=5, d=2, seed=0):
    rng = np.random.default_rng(seed)
    trace = Trace()
    best = math.inf
    for it in range(n):
        x = rng.uniform(-1, 1, size=d)
        y = float(rng.normal())
        best = min(best, y)
        trace.append(
            TraceRecord(
                iteration=it,
                x=x,
                y=y,
                incumbent_x=x,
                incumbent_f=best,
                acq_value=float(rng.uniform()) if it > 1 else float("nan"),
                hypers=None,
                wall_ms=float(it) * 10.0 + 0.123456789012345,
            )
        )
    return trace


class TestRoundTrip:
    def test_write_then_read_equal(self, tmp_path, traces_equal):
        trace = make_trace()
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        back = read_trace(path)
        assert traces_equal(trace, back)

    def test_seventeen_digit_fidelity(self, tmp_path):
        trace = Trace()
        x = np.array([1 / 3, math.pi])
        trace.append(TraceRecord(0, x, math.e, x, math.e, 0.1 + 0.2, None, 1e-9))
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        rec = read_trace(path).records[0]
        assert rec.x[0] == 1 / 3 and rec.x[1] == math.pi
        assert rec.y == math.e and rec.acq_value == 0.1 + 0.2
        assert rec.wall_ms == 1e-9

    def test_empty_trace_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trace(Trace(), path, dimension=3)
        text = path.read_text()
        assert text == "iter,x_0,x_1,x_2,y,inc_f,acq_value,wall_ms\n"
        assert len(read_trace(path)) == 0

    def test_empty_trace_requires_dimension(self, tmp_path):
        with pytest.raises(TraceFormatError):
            write_trace(Trace(), tmp_path / "e.csv")


class TestFixtureFile:
    def test_hand_built_rows_parse_exactly(self, tmp_path):
        path = tmp_path / "fixture.csv"
        path.write_text(
            "iter,x_0,y,inc_f,acq_value,wall_ms\n"
            "0,0.5,0.25,0.25,nan,1.5\n"
            "1,-1.25,1.5625,0.25,0.125,3\n"
            "2,0.125,0.015625,0.015625,0.5,4.5\n"
        )
        trace = read_trace(path)
        # cross-check against the stdlib CSV reader as an independent parser
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(trace) == len(rows) == 3
        for rec, row in zip(trace, rows):
            assert rec.iteration == int(row["iter"])
            assert rec.x[0] == float(row["x_0"])
            assert rec.y == float(row["y"])
            assert rec.incumbent_f == float(row["inc_f"])
            assert rec.wall_ms == float(row["wall_ms"])
        assert math.isnan(trace.records[0].acq_value)
        assert trace.records[1].acq_value == 0.125


class TestMalformed:
    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("")
        with pytest.raises(TraceFormatError):
            read_trace(p)

    @pytest.mark.parametrize(
        "header",
        [
            "a,b,c",
            "iter,y,inc_f,acq_value",
            "iter,x_1,y,inc_f,acq_value,wall_ms",
            "iter,x_0,inc_f,y,acq_value,wall_ms",
        ],
        ids=["foreign", "too-short", "coordinate-name", "column-order"],
    )
    def test_wrong_header(self, tmp_path, header):
        p = tmp_path / "bad.csv"
        p.write_text(header + "\n")
        with pytest.raises(TraceFormatError, match="unexpected header"):
            read_trace(p)

    def test_short_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("iter,x_0,y,inc_f,acq_value,wall_ms\n0,1.0,2.0\n")
        with pytest.raises(TraceFormatError):
            read_trace(p)

    def test_non_numeric_field(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("iter,x_0,y,inc_f,acq_value,wall_ms\n0,x,2.0,2.0,0.1,1\n")
        with pytest.raises(TraceFormatError):
            read_trace(p)

    @pytest.mark.parametrize(
        "row", ["1,nan,2.0,2.0,0.1,1", "1,0.5,inf,2.0,0.1,1", "1,0.5,2.0,-inf,0.1,1"],
        ids=["x", "y", "inc_f"],
    )
    def test_non_finite_point_or_value(self, tmp_path, row):
        p = tmp_path / "bad.csv"
        p.write_text(f"iter,x_0,y,inc_f,acq_value,wall_ms\n0,0.1,2.0,2.0,nan,1\n{row}\n")
        with pytest.raises(TraceFormatError, match="row 3"):
            read_trace(p)


class TestIncrementalWriter:
    def test_each_row_flushed(self, tmp_path, traces_equal):
        path = tmp_path / "inc.csv"
        trace = make_trace(n=3, d=1)
        with TraceWriter(path, dimension=1) as w:
            w.write(trace.records[0])
            # mid-run read: partial trace must already be on disk
            partial = read_trace(path)
            assert len(partial) == 1
            w.write(trace.records[1])
            w.write(trace.records[2])
        assert traces_equal(read_trace(path), trace)
