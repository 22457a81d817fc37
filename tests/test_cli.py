import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from gpbo.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OBJECTIVE, EXIT_OK, main
from gpbo.trace_io import read_trace

SPHERE_WORKER = Path(__file__).resolve().parents[1] / "demos" / "sphere_worker.py"


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "space": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
        "objective": {"kind": "builtin", "name": "sphere"},
        "bo": {"budget": 10, "n_init": 5, "seed": 0},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestRun:
    def test_builtin_run_writes_trace_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        trace_path = tmp_path / "trace.csv"
        summary_path = tmp_path / "summary.json"
        rc = main(
            [
                "run",
                "--config",
                str(cfg),
                "--trace",
                str(trace_path),
                "--summary",
                str(summary_path),
            ]
        )
        assert rc == EXIT_OK
        trace = read_trace(trace_path)
        assert len(trace) == 10
        summary = json.loads(summary_path.read_text())["summary"]
        # summary best must match the trace incumbent at the final row
        assert summary["best_f"] == trace.records[-1].incumbent_f
        assert summary["evaluations"] == 10

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        trace_path = tmp_path / "t.csv"
        rc = main(
            ["run", "--config", str(cfg), "--budget", "6", "--seed", "3",
             "--trace", str(trace_path)]
        )
        assert rc == EXIT_OK
        assert len(read_trace(trace_path)) == 6
        echo = json.loads(capsys.readouterr().out)["config"]
        assert echo["bo"]["budget"] == 6 and echo["bo"]["seed"] == 3

    def test_external_worker_run(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            objective={
                "kind": "external",
                "command": [sys.executable, str(SPHERE_WORKER)],
                "mode": "persistent",
                "timeout": 30.0,
            },
        )
        trace_path = tmp_path / "ext.csv"
        rc = main(["run", "--config", str(cfg), "--trace", str(trace_path)])
        assert rc == EXIT_OK
        trace = read_trace(trace_path)
        assert len(trace) == 10
        for rec in trace:  # worker really computed the sphere
            assert rec.y == pytest.approx(float(np.sum(rec.x**2)))

    def test_malformed_worker_exits_3_with_partial_trace(self, tmp_path, capsys):
        worker = tmp_path / "bad_worker.py"
        worker.write_text(
            "import json, sys\n"
            "n = 0\n"
            "for line in sys.stdin:\n"
            "    n += 1\n"
            "    if n > 3:\n"
            "        print('garbage', flush=True)\n"
            "    else:\n"
            "        x = json.loads(line)['x']\n"
            "        print(json.dumps({'y': sum(v*v for v in x)}), flush=True)\n"
        )
        cfg = write_config(
            tmp_path,
            objective={
                "kind": "external",
                "command": [sys.executable, str(worker)],
                "timeout": 30.0,
            },
        )
        trace_path = tmp_path / "partial.csv"
        rc = main(["run", "--config", str(cfg), "--trace", str(trace_path)])
        assert rc == EXIT_OBJECTIVE
        assert len(read_trace(trace_path)) == 3

    def test_timeout_worker_exits_3(self, tmp_path, capsys):
        worker = tmp_path / "slow_worker.py"
        worker.write_text("import time, sys\nfor line in sys.stdin:\n    time.sleep(30)\n")
        cfg = write_config(
            tmp_path,
            objective={
                "kind": "external",
                "command": [sys.executable, str(worker)],
                "timeout": 0.5,
            },
        )
        trace_path = tmp_path / "timeout.csv"
        rc = main(["run", "--config", str(cfg), "--trace", str(trace_path)])
        assert rc == EXIT_OBJECTIVE
        assert len(read_trace(trace_path)) == 0

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json")])
        assert rc == EXIT_CONFIG

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_bad_bo_field_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bo={"budget": 10, "seed": 0, "n_init": 99})
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bo={"budget": 10})
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG


class TestBaseline:
    def test_baseline_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        trace_path = tmp_path / "rs.csv"
        rc = main(
            ["baseline", "--config", str(cfg), "--budget", "15",
             "--trace", str(trace_path)]
        )
        assert rc == EXIT_OK
        trace = read_trace(trace_path)
        assert len(trace) == 15
        assert all(math.isnan(r.acq_value) for r in trace)

    def test_summary_path_from_config(self, tmp_path, capsys):
        summary_path = tmp_path / "rs-summary.json"
        cfg = write_config(tmp_path, output={"summary": str(summary_path)})
        assert main(["baseline", "--config", str(cfg)]) == EXIT_OK
        summary = json.loads(summary_path.read_text())
        assert summary["summary"]["evaluations"] == 10
        assert summary["config"]["seed"] == 0

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_trace_write_failure_is_io_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["baseline", "--config", str(cfg), "--trace", "/dev/full"])
        assert rc == EXIT_IO
        assert capsys.readouterr().err.startswith("I/O error: ")


class TestBench:
    def test_paired_bench_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bo={"budget": 12, "n_init": 5})
        out_csv = tmp_path / "bench.csv"
        rc = main(
            ["bench", "--config", str(cfg), "--seeds", "0-2",
             "--out", str(out_csv)]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "median" in out
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "seed,bo_best_f,random_best_f"
        assert len(lines) == 4

    def test_seeds_flag_mandatory(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["bench", "--config", str(cfg)])
        assert err.value.code == 2


class TestSample:
    def test_prior_draws_csv(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            space={"lower": [0.0], "upper": [1.0]},
            sample={
                "kernel": {
                    "family": "sq_exp_iso",
                    "signal_variance": 1.0,
                    "length_scales": [0.3],
                },
                "n_points": 50,
                "n_draws": 4,
            },
        )
        out = tmp_path / "samples.csv"
        rc = main(["sample", "--config", str(cfg), "--out", str(out), "--seed", "1"])
        assert rc == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x_0,draw_0,draw_1,draw_2,draw_3"
        assert len(lines) == 51

    def test_posterior_draws_from_trace(self, tmp_path, capsys):
        run_cfg = write_config(tmp_path)
        trace_path = tmp_path / "trace.csv"
        assert main(["run", "--config", str(run_cfg), "--trace", str(trace_path)]) == EXIT_OK
        cfg = write_config(
            tmp_path,
            name="sample_cfg.json",
            sample={
                "kernel": {
                    "family": "sq_exp_ard",
                    "signal_variance": 4.0,
                    "length_scales": [1.0, 1.0],
                },
                "noise_variance": 1e-4,
                "n_points": 20,
                "n_draws": 2,
            },
        )
        out = tmp_path / "post.csv"
        rc = main(
            ["sample", "--config", str(cfg), "--trace", str(trace_path),
             "--out", str(out)]
        )
        assert rc == EXIT_OK
        assert len(out.read_text().strip().splitlines()) == 21

    def test_missing_sample_section_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sample", "--config", str(cfg)]) == EXIT_CONFIG
