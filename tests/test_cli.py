import dataclasses
import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from gpbo import cli, gp
from gpbo._json import JsonCodec
from gpbo.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OBJECTIVE, EXIT_OK, main
from gpbo.gp import FactorizationError
from gpbo.objectives import builtin_function
from gpbo.trace_io import read_trace

SPHERE_WORKER = Path(__file__).resolve().parents[1] / "demos" / "sphere_worker.py"
SAMPLE_KERNEL = {"family": "sq_exp_iso", "signal_variance": 1.0, "length_scales": [0.3]}


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

    def test_objective_flag_overrides_the_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        trace_path = tmp_path / "t.csv"
        rc = main(
            ["run", "--config", str(cfg), "--objective", "rosenbrock", "--budget", "6",
             "--trace", str(trace_path)]
        )
        assert rc == EXIT_OK
        echo = json.loads(capsys.readouterr().out)["config"]
        assert echo["objective"]["name"] == "rosenbrock"
        rosenbrock = builtin_function("rosenbrock")
        assert all(rec.y == rosenbrock(rec.x) for rec in read_trace(trace_path))

    def test_factorization_failure_exits_4_with_partial_trace(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_factor(K, scale):
            raise FactorizationError("stub")

        monkeypatch.setattr(gp, "_chol_with_jitter", no_factor)
        cfg = write_config(tmp_path)
        trace_path = tmp_path / "t.csv"
        rc = main(["run", "--config", str(cfg), "--trace", str(trace_path)])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure")
        assert len(read_trace(trace_path)) == 5  # the n_init rows, before the first refit

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

    def test_hyper_bounds_from_config(self, tmp_path, capsys):
        bounds = {
            "signal_variance": [0.1, 10.0],
            "length_scale": [0.05, 5.0],
            "noise_variance": [1e-6, 0.1],
        }
        cfg = write_config(
            tmp_path, bo={"budget": 8, "n_init": 5, "seed": 0, "hyper_bounds": bounds}
        )
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        echo = json.loads(capsys.readouterr().out)["config"]
        assert echo["bo"]["hyper_bounds"] == bounds

    def test_fixed_kernel_dimension_checked_before_first_evaluation(
        self, tmp_path, capsys
    ):
        kernel = {"family": "matern", "signal_variance": 1.0,
                  "length_scales": [0.5, 0.5, 0.5], "nu": 2.5}
        cfg = write_config(
            tmp_path, bo={"budget": 10, "n_init": 5, "seed": 0, "fixed_kernel": kernel}
        )
        trace_path = tmp_path / "t.csv"
        rc = main(["run", "--config", str(cfg), "--trace", str(trace_path)])
        assert rc == EXIT_CONFIG
        assert "3 length-scales" in capsys.readouterr().err
        assert len(read_trace(trace_path)) == 0

    @pytest.mark.parametrize(
        "section",
        ["objective", "space", "bo", "bo.acquisition", "bo.hyper_bounds", "bo.fixed_kernel"],
    )
    def test_unknown_key_exits_2_before_first_evaluation(self, tmp_path, capsys, section):
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["bo"]["acquisition"] = {"family": "ei"}
        cfg["bo"]["hyper_bounds"] = {"noise_variance": [1e-6, 0.1]}
        cfg["bo"]["fixed_kernel"] = {
            "family": "matern", "signal_variance": 1.0, "length_scales": [0.5, 0.5], "nu": 2.5
        }
        node = cfg
        for key in section.split("."):
            node = node[key]
        node["bogus_key"] = [1.0, 2.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        trace_path = tmp_path / "t.csv"
        rc = main(["run", "--config", str(path), "--trace", str(trace_path)])
        assert rc == EXIT_CONFIG
        assert "bogus_key" in capsys.readouterr().err
        assert not trace_path.exists()

    @pytest.mark.parametrize("name", ["acquisition", "hyper_bounds", "nu"])
    def test_null_required_field_exits_2_before_first_evaluation(
        self, tmp_path, capsys, name
    ):
        cfg = write_config(tmp_path, bo={"budget": 10, "n_init": 5, "seed": 0, name: None})
        trace_path = tmp_path / "t.csv"
        rc = main(["run", "--config", str(cfg), "--trace", str(trace_path)])
        assert rc == EXIT_CONFIG
        assert name in capsys.readouterr().err
        assert not trace_path.exists()

    def test_objective_kind_defaults_to_builtin(self, tmp_path, capsys):
        cfg = write_config(tmp_path, objective={"name": "sphere"})
        assert main(["run", "--config", str(cfg), "--budget", "6"]) == EXIT_OK
        echo = json.loads(capsys.readouterr().out)["config"]
        assert echo["objective"] == {
            "kind": "builtin", "name": "sphere", "command": None,
            "mode": "persistent", "timeout": 60.0,
        }

    def test_program_error_is_not_config_error(self, tmp_path, monkeypatch):
        def broken_run_bo(*args, **kwargs):
            raise ValueError("a bug, not a config problem")

        monkeypatch.setattr("gpbo.cli.run_bo", broken_run_bo)
        cfg = write_config(tmp_path)
        with pytest.raises(ValueError, match="a bug"):
            main(["run", "--config", str(cfg)])


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

    @pytest.mark.parametrize("mode", ["persistent", "oneshot"])
    def test_response_that_is_not_utf8_exits_3(self, tmp_path, capsys, mode):
        worker = tmp_path / "latin1_worker.py"
        worker.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    sys.stdout.buffer.write(b'{\"y\": 1.0\\xff}\\n')\n"
            "    sys.stdout.flush()\n"
        )
        objective = {"kind": "external", "command": [sys.executable, str(worker)], "mode": mode}
        cfg = write_config(tmp_path, objective=objective)
        rc = main(["baseline", "--config", str(cfg), "--budget", "5"])
        assert rc == EXIT_OBJECTIVE
        assert "iteration 0 is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "response", ["[1]", '{"y": true}', '{"z": 1}'], ids=["array", "boolean-y", "no-y"]
    )
    def test_response_without_a_numeric_y_exits_3(self, tmp_path, capsys, response):
        worker = tmp_path / "no_y_worker.py"
        worker.write_text(f"import sys\nfor line in sys.stdin:\n    print({response!r}, flush=True)\n")
        objective = {"kind": "external", "command": [sys.executable, str(worker)]}
        cfg = write_config(tmp_path, objective=objective)
        trace_path = tmp_path / "rs.csv"
        rc = main(["baseline", "--config", str(cfg), "--budget", "5", "--trace", str(trace_path)])
        assert rc == EXIT_OBJECTIVE
        assert capsys.readouterr().err.startswith("objective error: response ")
        assert len(read_trace(trace_path)) == 0

    @pytest.mark.parametrize(
        "death, message",
        [
            ("sys.exit(1)", "worker closed stdout at iteration 2"),
            ("print('{\"y\": 1', end='', flush=True); sys.exit(1)", "malformed response"),
            ("os.close(0); print(json.dumps({'y': 1.0}), flush=True); sys.exit(0)",
             "worker pipe closed at iteration 3"),
        ],
        ids=["before-answering", "mid-answer", "closing-its-stdin"],
    )
    def test_worker_that_dies_mid_request_exits_3_with_partial_trace(
        self, tmp_path, capsys, death, message
    ):
        """The worker answers two requests.  On reading the third it dies, or
        it closes its stdin, answers and exits, so that the fourth finds no reader."""
        worker = tmp_path / "dying_worker.py"
        worker.write_text(
            "import json, os, sys\n"
            "for n, line in enumerate(sys.stdin):\n"
            "    if n == 2:\n"
            f"        {death}\n"
            "    print(json.dumps({'y': 1.0}), flush=True)\n"
        )
        objective = {"kind": "external", "command": [sys.executable, str(worker)]}
        cfg = write_config(tmp_path, objective=objective)
        trace_path = tmp_path / "rs.csv"
        rc = main(["baseline", "--config", str(cfg), "--budget", "6", "--trace", str(trace_path)])
        assert rc == EXIT_OBJECTIVE
        assert message in capsys.readouterr().err
        assert len(read_trace(trace_path)) == (3 if "pipe" in message else 2)

    def test_integer_y_past_the_float_range_exits_3(self, tmp_path, capsys):
        worker = tmp_path / "huge_y_worker.py"
        worker.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print('{\"y\": 1' + '0' * 400 + '}', flush=True)\n"
        )
        objective = {"kind": "external", "command": [sys.executable, str(worker)]}
        cfg = write_config(tmp_path, objective=objective)
        trace_path = tmp_path / "rs.csv"
        rc = main(["baseline", "--config", str(cfg), "--budget", "5", "--trace", str(trace_path)])
        assert rc == EXIT_OBJECTIVE
        assert capsys.readouterr().err.startswith("objective error: worker returned non-finite")
        assert len(read_trace(trace_path)) == 0

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

    @pytest.mark.parametrize(
        "seeds, message",
        [
            ("5-2", "descending range '5-2'"),
            ("1,5-2", "descending range '5-2'"),
            ("0,-1", "seed must be nonnegative"),
        ],
    )
    def test_bad_seeds_exit_2_before_the_first_run(
        self, tmp_path, monkeypatch, capsys, seeds, message
    ):
        cfg = write_config(tmp_path, bo={"budget": 12, "n_init": 5})
        monkeypatch.setattr(cli, "run_bo", lambda *a, **k: pytest.fail("a seed ran"))
        assert main(["bench", "--config", str(cfg), "--seeds", seeds]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

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

    def test_negative_noise_is_config_error(self, tmp_path, capsys):
        kernel = {"family": "sq_exp_iso", "signal_variance": 1.0, "length_scales": [0.3]}
        cfg = write_config(tmp_path, sample={"kernel": kernel, "noise_variance": -1.0})
        assert main(["sample", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "bo",
        [
            {"n_init": 5, "acquisition": {"family": "pi"}},
            {"budget": None, "seed": None},
            {"budget": 10, "seed": 3},
        ],
        ids=["no-budget-or-seed", "null-budget-and-seed", "complete"],
    )
    def test_valid_bo_section_leaves_the_samples_unchanged(self, tmp_path, capsys, bo):
        written = []
        for name, section in (("without", None), ("with", bo)):
            cfg = json.loads(write_config(tmp_path, sample={"kernel": SAMPLE_KERNEL}).read_text())
            del cfg["bo"]
            if section is not None:
                cfg["bo"] = section
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"{name}.csv"
            assert main(["sample", "--config", str(path), "--out", str(out)]) == EXIT_OK
            written.append(out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "rows",
        [
            "iter,x_0,y,inc_f,acq_value,wall_ms\n",
            "iter,x_0,x_1,y,inc_f,acq_value,wall_ms\n0,0.1,0.2,0.05,0.05,nan,1.0\n",
        ],
        ids=["header-only", "two-dimensional"],
    )
    def test_unusable_trace_is_config_error(self, tmp_path, capsys, rows):
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(rows)
        cfg = write_config(
            tmp_path, space={"lower": [0.0], "upper": [1.0]}, sample={"kernel": SAMPLE_KERNEL}
        )
        out = tmp_path / "samples.csv"
        rc = main(["sample", "--config", str(cfg), "--trace", str(trace_path), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert str(trace_path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "row", ["1,0.5,inf,inf,0.1,2.0", "1,nan,0.2,0.05,0.1,2.0"], ids=["y-inf", "x-nan"]
    )
    def test_non_finite_trace_row_is_config_error(self, tmp_path, capsys, row):
        trace_path = tmp_path / "trace.csv"
        header = "iter,x_0,y,inc_f,acq_value,wall_ms\n"
        trace_path.write_text(f"{header}0,0.1,0.05,0.05,nan,1.0\n{row}\n")
        cfg = write_config(
            tmp_path, space={"lower": [0.0], "upper": [1.0]}, sample={"kernel": SAMPLE_KERNEL}
        )
        out = tmp_path / "samples.csv"
        rc = main(["sample", "--config", str(cfg), "--trace", str(trace_path), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "row 3" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value, flags",
    [
        ("sample", "sample.n_draw", 3, []),
        ("baseline", "output.sumary", "other.json", []),
        ("baseline", "ouptut", {"summary": "other.json"}, []),
        ("sample", "sample.n_points", 2.7, []),
        ("sample", "sample.n_draws", 0, []),
        ("run", "bo.budget", 5.5, []),
        ("run", "bo.seed", 0.5, []),
        ("run", "bo.budget", True, []),
        ("run", "bo.candidate_count", 100.5, []),
        ("run", "output.trace", 1, []),
        ("baseline", "output.summary", 2, []),
        ("sample", "n_draws", None, ["--draws", "0"]),
        ("sample", "n_draws", None, ["--draws", "-1"]),
        ("baseline", "objective.command", "python3 demos/sphere_worker.py", []),
        ("baseline", "objective.command", [1, 2], []),
        ("run", "space.lower", "abc", []),
        ("run", "space.lower", [False, 0], []),
        ("run", "bo.hyper_bounds", {"signal_variance": [True, 100]}, []),
        ("run", "bo.fixed_kernel", {"family": "sq_exp_iso", "length_scales": [True]}, []),
        ("run", "bo.hyper_restarts", 0, []),
        ("run", "bo.noise_variance", math.nan, []),
        ("run", "bo.acquisition", {"xi": math.nan}, []),
        ("run", "bo.acquisition", {"family": "ucb", "upsilon": math.inf}, []),
        ("run", "bo.seed", -1, []),
        ("run", "seed", None, ["--seed", "-1"]),
        ("baseline", "seed", None, ["--seed", "-1"]),
        ("sample", "sample.seed", -1, []),
        ("sample", "seed", None, ["--seed", "-1"]),
        ("sample", "bo.bogus", 1, []),
        ("sample", "bo.budget", "ten", []),
        pytest.param("run", "bo.noise_variance", 10**400, [], id="run-bo.noise_variance-10**400"),
        pytest.param("run", "bo.acquisition.xi", 10**400, [], id="run-bo.acquisition.xi-10**400"),
    ],
)
def test_config_mistake_exits_2_before_any_output(
    tmp_path, monkeypatch, capsys, command, key, value, flags
):
    cfg = json.loads(write_config(tmp_path, bo={"budget": 10, "seed": 0}).read_text())
    cfg["sample"] = {"kernel": SAMPLE_KERNEL, "n_points": 20}
    cfg["output"] = {"trace": "t.csv", "summary": "s.json", "samples": "d.csv"}
    if value is not None:
        *parents, name = key.split(".")
        node = cfg
        for part in parents:
            node = node.setdefault(part, {})
        node[name] = value
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", "cfg.json", *flags]) == EXIT_CONFIG
    assert key.rsplit(".", 1)[-1] in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize(
    "key", ["bo.acquisition.xi", "bo.noise_variance", "objective.timeout", "space.lower"]
)
def test_number_past_the_float_range_exits_2_before_any_output(
    tmp_path, monkeypatch, capsys, key
):
    """A JSON integer too large for a double is a config error, wherever a
    number goes."""
    huge = 10**400
    cfg = json.loads(write_config(tmp_path, bo={"budget": 10, "seed": 0}).read_text())
    cfg["output"] = {"trace": "t.csv", "summary": "s.json"}
    if key == "objective.timeout":
        cfg["objective"] = {"kind": "external", "command": [sys.executable, str(SPHERE_WORKER)]}
    *parents, name = key.split(".")
    node = cfg
    for part in parents:
        node = node.setdefault(part, {})
    node[name] = [huge, 0.0] if key == "space.lower" else huge
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert main(["baseline", "--config", "cfg.json"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_search_box_wider_than_the_float_range_exits_2_before_any_output(
    tmp_path, monkeypatch, capsys
):
    write_config(tmp_path, space={"lower": [-1e308], "upper": [1e308]},
                 output={"trace": "t.csv", "summary": "s.json"})
    monkeypatch.chdir(tmp_path)
    assert main(["baseline", "--config", "cfg.json"]) == EXIT_CONFIG
    assert "widths" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command", ["run", "baseline"])
@pytest.mark.parametrize("name, dimension", [("branin", 3), ("rosenbrock", 1)])
def test_builtin_that_does_not_fit_the_space_exits_2_before_any_output(
    tmp_path, monkeypatch, capsys, command, name, dimension
):
    space = {"lower": [0.0] * dimension, "upper": [1.0] * dimension}
    write_config(tmp_path, space=space, objective={"name": name},
                 output={"trace": "t.csv", "summary": "s.json"})
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", "cfg.json"]) == EXIT_CONFIG
    assert name in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_nested_section_defaults_are_their_own_class_defaults():
    """A nested section is built by its own class from its own defaults, so a
    field's default_factory must build exactly those defaults too."""
    checked = set()
    for cls in JsonCodec.__subclasses__():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            options = typing.get_args(hints[f.name]) or (hints[f.name],)
            nested = [t for t in options if isinstance(t, type) and issubclass(t, JsonCodec)]
            if nested and f.default_factory is not dataclasses.MISSING:
                assert f.default_factory() == nested[0](), f"{cls.__name__}.{f.name}"
                checked.add(f"{cls.__name__}.{f.name}")
    assert checked >= {"BoConfig.acquisition", "BoConfig.hyper_bounds", "Config.output"}


IMPORT_GUARD = """
import json, sys
import gpbo, gpbo.cli
from gpbo.loop import BoConfig, run_bo
from gpbo.objectives import branin, recommended_space

run_bo(branin, recommended_space("branin"), BoConfig(budget=6, seed=0, n_init=5))
cfg = {
    "space": {"lower": [0.0], "upper": [1.0]},
    "objective": {"kind": "builtin", "name": "sphere"},
    "sample": {"kernel": %r, "n_points": 8, "n_draws": 2},
}
with open("cfg.json", "w") as fh:
    json.dump(cfg, fh)
assert gpbo.cli.main(["sample", "--config", "cfg.json", "--out", "d.csv"]) == 0
assert "scipy.stats" not in sys.modules, "scipy.stats was imported"
""" % (SAMPLE_KERNEL,)


def test_a_run_and_a_sample_never_import_scipy_stats(tmp_path):
    """scipy.stats costs about 0.6 s and 22 MB at import; no path may pull it in."""
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
