"""Tests for the command-line front end.

Everything drives ``parse_and_dispatch`` directly with explicit argv and
environment so no test touches the real process state.  End-to-end runs
use the cheap edges (fidi, diagnostics); anything needing a failing or
slow report swaps ``run_experiment`` for a stub.
"""

import json
import os

import numpy as np
import pytest

from subortrim import cli, experiments
from subortrim.experiments import (
    CSV_HEADER,
    DEFAULT_MASTER_SEED,
    ExperimentReport,
    PlotSlice,
    Verdict,
)

GOLDEN_SVG = os.path.join(os.path.dirname(__file__), "data", "golden_plot.svg")


def _first_json(stderr_text):
    return json.loads(stderr_text.splitlines()[0])


def _fidi_argv(tmp_path, *extra):
    return ["fidi", "--replicates", "100", "--output", str(tmp_path), *extra]


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert cli.parse_and_dispatch([], environ={}) == 1
        err = capsys.readouterr().err
        payload = _first_json(err)
        assert payload["error"] == "usage"
        assert "subcommand" in payload["message"]
        assert "usage:" in err

    def test_unknown_subcommand(self, capsys):
        assert cli.parse_and_dispatch(["frobnicate"], environ={}) == 1
        assert _first_json(capsys.readouterr().err)["error"] == "usage"

    def test_unknown_flag(self, capsys):
        assert cli.parse_and_dispatch(["fidi", "--turbo"], environ={}) == 1
        assert _first_json(capsys.readouterr().err)["error"] == "usage"

    def test_bad_seed_type(self, capsys):
        assert cli.parse_and_dispatch(["fidi", "--seed", "abc"], environ={}) == 1
        assert _first_json(capsys.readouterr().err)["error"] == "usage"

    def test_bad_format_choice(self, capsys):
        assert cli.parse_and_dispatch(["fidi", "--format", "xml"], environ={}) == 1
        assert _first_json(capsys.readouterr().err)["error"] == "usage"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.parse_and_dispatch(["--help"], environ={})
        assert exc.value.code == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_main_propagates_exit_code(self, monkeypatch):
        monkeypatch.setattr("sys.argv", ["subortrim"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 1


class TestConfigErrors:
    def _run(self, tmp_path, capsys, text, argv_extra=(), command="fidi"):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        rc = cli.parse_and_dispatch(
            [command, "--config", str(path), *argv_extra], environ={}
        )
        return rc, _first_json(capsys.readouterr().err)

    def test_unknown_section(self, tmp_path, capsys):
        rc, payload = self._run(tmp_path, capsys, "[misc]\nx = 1\n")
        assert rc == 1
        assert payload["error"] == "config"
        assert "[misc]" in payload["message"]
        # [DEFAULT] is an unknown section, not keys merged into every section.
        for text in ("[DEFAULT]\nseed = 5\n", "[DEFAULT]\nseed = 5\n[run]\njobs = 1\n"):
            rc, payload = self._run(tmp_path, capsys, text)
            assert rc == 1
            assert "[DEFAULT]" in payload["message"]

    def test_unknown_key(self, tmp_path, capsys):
        rc, payload = self._run(tmp_path, capsys, "[run]\nspeed = 9\n")
        assert rc == 1
        assert "'speed'" in payload["message"]

    def test_malformed_reports_location(self, tmp_path, capsys):
        rc, payload = self._run(tmp_path, capsys, "replicates = 1\n")
        assert rc == 1
        assert payload["error"] == "config"
        assert payload["line"] == 1
        assert payload["column"] == 1
        assert payload["path"].endswith("cfg.ini")

    def test_duplicate_key_reports_location(self, tmp_path, capsys):
        rc, payload = self._run(tmp_path, capsys, "[run]\njobs = 1\njobs = 2\n")
        assert rc == 1
        assert payload["line"] == 3

    def test_edge_name_mismatch(self, tmp_path, capsys):
        rc, payload = self._run(tmp_path, capsys, "[edge]\nname = left\n")
        assert rc == 1
        assert "'left'" in payload["message"] and "'fidi'" in payload["message"]

    def test_bad_int(self, tmp_path, capsys):
        rc, payload = self._run(tmp_path, capsys, "[run]\nreplicates = ten\n")
        assert rc == 1
        assert "integer" in payload["message"]

    def test_bad_float_list(self, tmp_path, capsys):
        rc, payload = self._run(tmp_path, capsys, "[grids]\nt = a, b\n")
        assert rc == 1
        assert "numbers" in payload["message"]

    def test_non_integer_trim_grid(self, tmp_path, capsys):
        # Non-finite depths are config errors, not tracebacks from int().
        for depth in ("0.5", "nan", "inf", "1e400"):
            rc, payload = self._run(tmp_path, capsys, f"[edge]\nr = 0, {depth}\n")
            assert rc == 1
            assert payload["error"] == "config"
            assert "integers" in payload["message"]

    def test_bad_bool(self, tmp_path, capsys):
        rc, payload = self._run(tmp_path, capsys, "[run]\nplot = maybe\n")
        assert rc == 1
        assert "boolean" in payload["message"]

    def test_bad_format_value(self, tmp_path, capsys):
        rc, payload = self._run(tmp_path, capsys, "[run]\nformat = xml\n")
        assert rc == 1
        assert "format" in payload["message"]

    def test_constructor_errors_become_config_errors(self, tmp_path, capsys):
        rc, payload = self._run(tmp_path, capsys, "[grids]\nalpha = 1.5\n")
        assert rc == 1
        assert payload["error"] == "config"
        rc, payload = self._run(
            tmp_path, capsys, "[tail]\nfamily = stable(abc)\n", ("--output", str(tmp_path)),
            command="edge-left",
        )
        assert rc == 1
        assert payload["error"] == "config"
        assert "stable(abc)" in payload["message"]
        rc, payload = self._run(tmp_path, capsys, "[tail]\nfamily = stable\n")
        assert rc == 1
        assert "fixed 'cauchy' family" in payload["message"]

    def test_bottom_alpha_grid_must_decrease(self, tmp_path, capsys):
        rc, payload = self._run(
            tmp_path, capsys, "[grids]\nalpha = 0.1, 0.2\n", ("--output", str(tmp_path)),
            command="edge-bottom",
        )
        assert rc == 1
        assert payload["error"] == "config"
        assert "decreasing" in payload["message"]
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "text",
        ["[grids]\nt = 1e-2, inf\n", "[edge]\nlevels = 1.0, nan\n[grids]\nlambda = 0.5, 1.0\n"],
    )
    def test_non_finite_horizon_or_level_is_a_config_error(self, tmp_path, capsys, text):
        # Both used to pass the constructor and fail deep in the run.
        rc, payload = self._run(
            tmp_path, capsys, text, ("--output", str(tmp_path)), command="edge-right"
        )
        assert rc == 1
        assert payload["error"] == "config"
        assert not list(tmp_path.glob("*.csv"))

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.parse_and_dispatch(
            ["fidi", "--config", str(tmp_path / "nope.ini")], environ={}
        )
        assert rc == 1
        payload = _first_json(capsys.readouterr().err)
        assert "cannot read config file" in payload["message"]

    def test_all_rejects_edge_sections(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text("[edge]\nname = left\n")
        rc = cli.parse_and_dispatch(["all", "--config", str(path)], environ={})
        assert rc == 1
        assert "only [run]" in _first_json(capsys.readouterr().err)["message"]


class TestSeedPriority:
    def _master_seed(self, out_dir):
        with open(os.path.join(out_dir, "subortrim_fidi.json")) as handle:
            return json.load(handle)["config"]["master_seed"]

    def test_default_seed(self, tmp_path, capsys):
        assert cli.parse_and_dispatch(_fidi_argv(tmp_path), environ={}) in (0, 2)
        assert self._master_seed(tmp_path) == DEFAULT_MASTER_SEED
        capsys.readouterr()

    def test_env_seed(self, tmp_path, capsys):
        rc = cli.parse_and_dispatch(
            _fidi_argv(tmp_path), environ={"SUBORTRIM_SEED": "123"}
        )
        assert rc in (0, 2)  # seed echo is the contract, not the verdicts
        assert self._master_seed(tmp_path) == 123
        capsys.readouterr()

    def test_config_beats_env(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\nseed = 456\n")
        rc = cli.parse_and_dispatch(
            _fidi_argv(tmp_path, "--config", str(path)),
            environ={"SUBORTRIM_SEED": "123"},
        )
        assert rc in (0, 2)  # seed echo is the contract, not the verdicts
        assert self._master_seed(tmp_path) == 456
        capsys.readouterr()

    def test_flag_beats_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\nseed = 456\n")
        rc = cli.parse_and_dispatch(
            _fidi_argv(tmp_path, "--config", str(path), "--seed", "789"),
            environ={"SUBORTRIM_SEED": "123"},
        )
        assert rc in (0, 2)  # seed echo is the contract, not the verdicts
        assert self._master_seed(tmp_path) == 789
        capsys.readouterr()

    @pytest.mark.parametrize(
        "extra, config, env",
        [
            (("--seed", "-3"), None, {}),
            ((), "[run]\nseed = -3\n", {}),
            ((), None, {"SUBORTRIM_SEED": "-3"}),
        ],
    )
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, extra, config, env):
        if config is not None:
            path = tmp_path / "cfg.ini"
            path.write_text(config)
            extra = ("--config", str(path), *extra)
        assert cli.parse_and_dispatch(_fidi_argv(tmp_path, *extra), environ=env) == 1
        payload = _first_json(capsys.readouterr().err)
        assert payload["error"] == "config"
        assert "master_seed" in payload["message"]

    def test_invalid_env_seed(self, tmp_path, capsys):
        rc = cli.parse_and_dispatch(
            _fidi_argv(tmp_path), environ={"SUBORTRIM_SEED": "not-a-number"}
        )
        assert rc == 1
        assert "SUBORTRIM_SEED" in _first_json(capsys.readouterr().err)["message"]


class TestEndToEnd:
    def test_fidi_run_writes_reports(self, tmp_path, capsys):
        rc = cli.parse_and_dispatch(_fidi_argv(tmp_path), environ={})
        out = capsys.readouterr().out
        assert rc == 0
        csv_path = tmp_path / "subortrim_fidi.csv"
        json_path = tmp_path / "subortrim_fidi.json"
        assert csv_path.exists() and json_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 25  # header + 12 queries x 2 ranks
        summary = json.loads(json_path.read_text())
        assert summary["edge"] == "fidi"
        assert all(v["pass"] for v in summary["verdicts"])
        assert "[PASS] fidi n1_reduction_exact" in out
        assert f"wrote {csv_path}" in out
        assert "edge fidi: PASS" in out

    def test_format_selectivity(self, tmp_path, capsys):
        rc = cli.parse_and_dispatch(_fidi_argv(tmp_path, "--format", "csv"), environ={})
        assert rc == 0
        assert (tmp_path / "subortrim_fidi.csv").exists()
        assert not (tmp_path / "subortrim_fidi.json").exists()
        capsys.readouterr()

    def test_diagnostics_run(self, tmp_path, capsys):
        rc = cli.parse_and_dispatch(
            ["diagnostics", "--replicates", "100", "--output", str(tmp_path),
             "--format", "json"],
            environ={},
        )
        out = capsys.readouterr().out
        assert rc == 0
        summary = json.loads((tmp_path / "subortrim_diagnostics.json").read_text())
        names = [v["name"] for v in summary["verdicts"]]
        assert "power_ratio_limit" in names
        assert "edge diagnostics: PASS" in out

    def test_no_temp_files_left(self, tmp_path, capsys):
        assert cli.parse_and_dispatch(_fidi_argv(tmp_path), environ={}) == 0
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".part")]
        assert leftovers == []
        capsys.readouterr()

    def test_missing_output_dir(self, tmp_path, capsys):
        rc = cli.parse_and_dispatch(
            ["fidi", "--output", str(tmp_path / "absent")], environ={}
        )
        assert rc == 1
        payload = _first_json(capsys.readouterr().err)
        assert payload["error"] == "output"

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir(), b_dir.mkdir()
        assert cli.parse_and_dispatch(_fidi_argv(a_dir), environ={}) == 0
        assert cli.parse_and_dispatch(_fidi_argv(b_dir), environ={}) == 0
        capsys.readouterr()
        assert (a_dir / "subortrim_fidi.csv").read_bytes() == (
            b_dir / "subortrim_fidi.csv"
        ).read_bytes()


    def test_summary_does_not_depend_on_the_output_directory(self, tmp_path, capsys):
        # The summary echoes the run's config; the report directory is not part
        # of it, whether it comes from the flag or from [run] output.
        flag_dir, ini_dir = tmp_path / "a", tmp_path / "longer_directory_name"
        flag_dir.mkdir(), ini_dir.mkdir()
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\noutput = {ini_dir}\n")
        argv = ["fidi", "--replicates", "100"]
        assert cli.parse_and_dispatch(argv + ["--output", str(flag_dir)], environ={}) == 0
        assert cli.parse_and_dispatch(argv + ["--config", str(ini)], environ={}) == 0
        capsys.readouterr()
        summaries = []
        for out_dir in (flag_dir, ini_dir):
            summary = json.loads((out_dir / "subortrim_fidi.json").read_text())
            del summary["total_ms"]
            summaries.append(summary)
        assert "output" not in summaries[0]["config"]
        assert "format" not in summaries[0]["config"]
        assert summaries[0] == summaries[1]


class TestFailurePaths:
    def test_edge_commands_cover_the_edge_table(self):
        assert set(cli._EDGE_COMMANDS.values()) == set(experiments._EDGES)

    def test_trim_depth_past_the_series_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text("[edge]\nr = 1000\n")  # the default n_terms is 1000
        rc = cli.parse_and_dispatch(
            ["edge-left", "--config", str(path), "--output", str(tmp_path)], environ={}
        )
        assert rc == 1
        payload = _first_json(capsys.readouterr().err)
        assert payload["error"] == "config"
        assert "n_terms" in payload["message"]
        assert not list(tmp_path.glob("*.csv"))

    def test_run_failure_is_a_json_error(self, tmp_path, capsys):
        # A restriction to lam = 0.001 keeps about one of 1000 jumps, too few
        # to trim five: the run fails, and says so in one JSON line.
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[edge]\nr = 5\n[grids]\nlambda = 0.001\nalpha = 0.5\nt = 1e-2\n"
            "[run]\nseed_blocks = 1\n"
        )
        rc = cli.parse_and_dispatch(
            ["edge-left", "--config", str(path), "--output", str(tmp_path)], environ={}
        )
        assert rc == 1
        err = capsys.readouterr().err
        payload = _first_json(err)
        assert payload["error"] == "run"
        assert payload["edge"] == "left"
        assert "deepen" in payload["message"]
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_report_write_failure_is_a_json_error(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli.tempfile, "mkstemp", refuse)
        rc = cli.parse_and_dispatch(_fidi_argv(tmp_path), environ={})
        assert rc == 1
        payload = _first_json(capsys.readouterr().err)
        assert payload["error"] == "output"
        assert "Permission denied" in payload["message"]
        assert os.listdir(tmp_path) == []

    def _failing_stub(self, record=None):
        def stub(config):
            if record is not None:
                record.append(config.edge)
            return ExperimentReport(
                edge=config.edge,
                config=config,
                verdicts=[Verdict(name="synthetic", passed=False, detail="forced")],
            )

        return stub

    def test_failing_verdict_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("subortrim.cli.run_experiment", self._failing_stub())
        rc = cli.parse_and_dispatch(
            ["fidi", "--output", str(tmp_path)], environ={}
        )
        out = capsys.readouterr().out
        assert rc == 2
        assert "[FAIL] fidi synthetic: forced" in out
        assert "edge fidi: FAIL" in out
        # reports are still written for post-mortems
        assert (tmp_path / "subortrim_fidi.csv").exists()

    def test_all_runs_every_edge_in_order(self, tmp_path, capsys, monkeypatch):
        record = []

        def stub(config):
            record.append(config.edge)
            return ExperimentReport(
                edge=config.edge,
                config=config,
                verdicts=[Verdict(name="synthetic", passed=True, detail="ok")],
            )

        monkeypatch.setattr("subortrim.cli.run_experiment", stub)
        rc = cli.parse_and_dispatch(["all", "--output", str(tmp_path)], environ={})
        assert rc == 0
        assert record == ["left", "right", "bottom", "fidi", "diagnostics"]
        for edge in record:
            assert (tmp_path / f"subortrim_{edge}.csv").exists()
        capsys.readouterr()

    def test_all_keeps_going_after_failure(self, tmp_path, capsys, monkeypatch):
        record = []
        monkeypatch.setattr(
            "subortrim.cli.run_experiment", self._failing_stub(record)
        )
        rc = cli.parse_and_dispatch(["all", "--output", str(tmp_path)], environ={})
        assert rc == 2
        assert len(record) == 5
        capsys.readouterr()


class TestEmitPlot:
    def _golden_slice(self):
        rng = np.random.default_rng(7)
        samples = tuple(sorted(float(x) for x in rng.uniform(0.0, 4.0, size=8)))
        xs = tuple(float(x) for x in np.linspace(0.0, 4.0, 9))
        ys = tuple(float(1.0 - np.exp(-x)) for x in xs)
        return PlotSlice(
            name="golden_fixture", samples=samples, curve_x=xs, curve_y=ys
        )

    def test_golden_bytes(self):
        with open(GOLDEN_SVG, encoding="utf-8") as handle:
            expected = handle.read()
        assert cli.emit_plot(self._golden_slice()) == expected

    def test_deterministic(self):
        sl = self._golden_slice()
        assert cli.emit_plot(sl) == cli.emit_plot(sl)

    def test_structure(self):
        svg = cli.emit_plot(self._golden_slice())
        assert svg.startswith("<svg ")
        assert 'viewBox="0 0 640 480"' in svg
        assert svg.count("<polyline") == 1  # analytic curve
        assert svg.count("<path") == 1  # empirical steps
        assert ">value</text>" in svg
        assert ">probability</text>" in svg
        assert ">golden_fixture</text>" in svg

    def test_empty_slice_axes_only(self):
        svg = cli.emit_plot(
            PlotSlice(name="empty", samples=(), curve_x=(), curve_y=())
        )
        assert "<polyline" not in svg and "<path" not in svg
        assert svg.count("<line") == 2  # the two axes
        assert ">0</text>" in svg and ">1</text>" in svg

    def test_single_sample_single_step(self):
        svg = cli.emit_plot(
            PlotSlice(name="one", samples=(2.0,), curve_x=(), curve_y=())
        )
        assert svg.count("<path") == 1
        assert ">1.5</text>" in svg and ">2.5</text>" in svg  # widened span

    def test_curve_only(self):
        svg = cli.emit_plot(
            PlotSlice(
                name="analytic",
                samples=(),
                curve_x=(0.0, 1.0),
                curve_y=(0.0, 1.0),
            )
        )
        assert "<polyline" in svg and "<path" not in svg

    def test_plots_written_when_requested(self, tmp_path, capsys):
        rc = cli.parse_and_dispatch(
            _fidi_argv(tmp_path, "--plot", "--format", "csv"), environ={}
        )
        capsys.readouterr()
        assert rc == 0
        # fidi carries no plot slices; the flag must not break anything
        svgs = [n for n in os.listdir(tmp_path) if n.endswith(".svg")]
        assert svgs == []
