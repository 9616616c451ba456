import argparse
import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import covsel
from covsel import (
    PenaltySchedule,
    SimulationConfig,
    benchmark_model,
    criterion,
    emit_report,
    empirical_covariances,
    mix_seed,
    read_report,
    run_replication,
    sample_dataset,
    select_variables,
    write_dataset_csv,
    VariableSubset,
)
from covsel import cli
from covsel.cli import EXIT_INVALID, EXIT_NUMERICAL, EXIT_OK, main
from covsel.simulation import STREAM_TRAIN


@pytest.fixture()
def dataset_csv(tmp_path):
    data = sample_dataset(benchmark_model(), 300, seed=424242)
    path = tmp_path / "data.csv"
    write_dataset_csv(data, path)
    return path, data


@pytest.fixture()
def small_config_file(tmp_path):
    path = tmp_path / "small.config"
    path.write_text(json.dumps({"sample_sizes": [60], "replications": 3, "base_seed": 5}))
    return path


class TestSelectCommand:
    def test_writes_report_and_prints_selection(self, dataset_csv, tmp_path, capsys):
        path, data = dataset_csv
        out = tmp_path / "report.csv"
        code = main(
            ["select", "--input", str(path), "--p", "7", "--q", "5", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("selected:")
        meta, records = read_report(out, "csv")
        assert len(records) == 7
        assert meta["penalty_arg"] == "label"
        # with no penalty flags, the report is the default schedule's
        pen = PenaltySchedule()
        expected = tmp_path / "expected.csv"
        emit_report(select_variables(data, pen), "csv", expected, **pen.describe())
        assert out.read_bytes() == expected.read_bytes()

    def test_matches_in_memory_selection_for_matching_seed(self, tmp_path):
        cfg = SimulationConfig(sample_sizes=(200,), replications=1, base_seed=31)
        outcome = run_replication(cfg, 200, 0)
        train = sample_dataset(cfg.model, 200, mix_seed(31, 200, 0, STREAM_TRAIN))
        csv_path = tmp_path / "train.csv"
        write_dataset_csv(train, csv_path)
        out = tmp_path / "report.csv"
        code = main(
            ["select", "--input", str(csv_path), "--p", "7", "--q", "5", "--out", str(out)]
        )
        assert code == EXIT_OK
        _, records = read_report(out, "csv")
        selected = tuple(sorted(r["variable"] for r in records if r["selected"]))
        assert selected == outcome.selected

    def test_penalty_flags_forwarded(self, dataset_csv, tmp_path):
        path, _ = dataset_csv
        out = tmp_path / "report.csv"
        code = main(
            [
                "select",
                "--input", str(path),
                "--p", "7",
                "--q", "5",
                "--g-rate", "0.4",
                "--penalty-arg", "rank",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        meta, records = read_report(out, "csv")
        assert meta["g_rate"] == 0.4
        assert meta["penalty_arg"] == "rank"
        selected = tuple(sorted(r["variable"] for r in records if r["selected"]))
        assert selected == (1, 4, 7)

    def test_malformed_csv_exits_invalid(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n1\n")
        code = main(["select", "--input", str(bad), "--p", "1", "--q", "1", "--out", str(tmp_path / "o")])
        assert code == EXIT_INVALID

    def test_collinear_data_exits_numerical(self, tmp_path, rng):
        x = rng.standard_normal((40, 2))
        rows = np.column_stack([x, x[:, 0], rng.standard_normal((40, 1))])
        path = tmp_path / "collinear.csv"
        with open(path, "w") as fh:
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        code = main(["select", "--input", str(path), "--p", "3", "--q", "1", "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL


def _header_lines(path):
    return [line for line in path.read_text().splitlines() if line.startswith("#")]


def test_report_headers_keep_their_order(dataset_csv, tmp_path):
    path, _ = dataset_csv
    select_out = tmp_path / "select.csv"
    argv = ["select", "--input", str(path), "--p", "7", "--q", "5"]
    argv += ["--g-rate", "0.4", "--penalty-arg", "rank", "--out", str(select_out)]
    assert main(argv) == EXIT_OK
    schedule = [
        "# penalty_arg=rank",
        "# f_rate=0.25",
        "# f_shape=reciprocal",
        "# g_rate=0.4",
        "# g_shape=linear",
    ]
    assert _header_lines(select_out) == ["# report=selection", "# n=300", "# s_hat=3"] + schedule

    config = tmp_path / "rank.config"
    doc = {"sample_sizes": [60], "replications": 3, "base_seed": 5}
    config.write_text(json.dumps({**doc, "penalties": {"g_rate": 0.4, "penalty_arg": "rank"}}))
    study_out = tmp_path / "study.csv"
    assert main(["simulate", "--config", str(config), "--out", str(study_out)]) == EXIT_OK
    study = ["# report=study", "# base_seed=5", "# replications=3"]
    assert _header_lines(study_out) == study + schedule


# a value other than the default for each field of PenaltySchedule, in field order
_NON_DEFAULT = {
    "penalty_arg": "rank",
    "f_rate": "0.3",
    "f_shape": "inverse_sqrt",
    "g_rate": "0.4",
    "g_shape": "sqrt",
}


def test_non_default_values_cover_every_schedule_field():
    assert list(_NON_DEFAULT) == [f.name for f in dataclasses.fields(PenaltySchedule)]
    default = PenaltySchedule().describe()
    assert all(str(default[name]) != value for name, value in _NON_DEFAULT.items())


@pytest.mark.parametrize("name", list(_NON_DEFAULT))
def test_each_schedule_field_is_a_select_flag(dataset_csv, tmp_path, name):
    path, _ = dataset_csv
    out = tmp_path / "select.csv"
    flag = "--" + name.replace("_", "-")
    argv = ["select", "--input", str(path), "--p", "7", "--q", "5"]
    assert main(argv + [flag, _NON_DEFAULT[name], "--out", str(out)]) == EXIT_OK
    schedule = {**PenaltySchedule().describe(), name: _NON_DEFAULT[name]}
    assert _header_lines(out)[3:] == [f"# {key}={value}" for key, value in schedule.items()]


def test_bad_penalty_arg_flag_exits_invalid(dataset_csv, tmp_path, capsys):
    path, _ = dataset_csv
    out = tmp_path / "select.csv"
    argv = ["select", "--input", str(path), "--p", "7", "--q", "5"]
    assert main(argv + ["--penalty-arg", "index", "--out", str(out)]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "covsel: invalid input: penalty_arg must be 'label' or 'rank', got 'index'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "probe"])
def test_model_whose_response_variance_overflows_exits_invalid(tmp_path, capsys, command):
    doc = json.loads((Path(__file__).resolve().parent.parent / "paper.config").read_text())
    doc["model"]["b"][0][0] = 1e300
    config = tmp_path / "overflow.config"
    config.write_text(json.dumps({**doc, "replications": 3, "sample_sizes": [60]}))
    out = tmp_path / "out.csv"
    args = [command, "--config", str(config), "--out", str(out)]
    if command == "probe":
        args += ["--subset", "1,4,7", "--n-grid", "60", "--reps", "3"]
    assert main(args) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "covsel: invalid input: model: the response variance "
        "tr(b sigma b^T + noise_cov) overflows\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, message",
    [
        (
            "select",
            ["--f-shape", "sqrt"],
            "f_shape must be strictly decreasing: 'sqrt' is not; "
            "f_shape names: ['inverse_sqrt', 'reciprocal']",
        ),
        ("select", ["--f-rate", "0.7"], "f_rate must be in (0, 1/2), got 0.7"),
        ("criterion", ["--subset", "9"], "indices must lie in 1..7, got (9,)"),
    ],
    ids=["select-f-shape", "select-f-rate", "criterion-subset"],
)
def test_flags_are_checked_before_the_dataset_is_read(
    tmp_path, monkeypatch, capsys, command, flags, message
):
    def spy(*args, **kwargs):
        raise AssertionError("the dataset was read before the flags were checked")

    monkeypatch.setattr(cli, "parse_dataset_csv", spy)
    argv = [command, "--input", str(tmp_path / "missing.csv"), "--p", "7", "--q", "5", *flags]
    if command == "select":
        argv += ["--out", str(tmp_path / "select.csv")]
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr().err == f"covsel: invalid input: {message}\n"


class TestCriterionCommand:
    def test_prints_full_precision_value(self, dataset_csv, capsys):
        path, data = dataset_csv
        code = main(
            ["criterion", "--input", str(path), "--p", "7", "--q", "5", "--subset", "1,4,7"]
        )
        assert code == EXIT_OK
        printed = float(capsys.readouterr().out.strip())
        expected = criterion(empirical_covariances(data), VariableSubset((1, 4, 7), 7))
        assert printed == expected

    def test_bad_subset_exits_invalid(self, dataset_csv):
        path, _ = dataset_csv
        code = main(
            ["criterion", "--input", str(path), "--p", "7", "--q", "5", "--subset", "0,9"]
        )
        assert code == EXIT_INVALID

    def test_non_integer_subset_exits_invalid_naming_it(self, dataset_csv, capsys):
        path, _ = dataset_csv
        code = main(
            ["criterion", "--input", str(path), "--p", "7", "--q", "5", "--subset", "1,x"]
        )
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == (
            "covsel: invalid input: --subset must be comma-separated integers, got '1,x'\n"
        )


class TestSimulateCommand:
    def test_runs_and_emits_sorted_table(self, small_config_file, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(["simulate", "--config", str(small_config_file), "--out", str(out)])
        assert code == EXIT_OK
        meta, records = read_report(out, "csv")
        assert meta["report"] == "study"
        assert meta["base_seed"] == 5
        assert [r["n"] for r in records] == [60]
        assert "n=60" in capsys.readouterr().out

    def test_byte_identical_reruns(self, small_config_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(small_config_file), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(small_config_file), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, small_config_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(small_config_file), "--out", str(out1)])
        main(["simulate", "--config", str(small_config_file), "--seed", "6", "--out", str(out2)])
        meta2, _ = read_report(out2, "csv")
        assert meta2["base_seed"] == 6
        assert out1.read_bytes() != out2.read_bytes()

    def test_bad_config_exits_invalid(self, tmp_path):
        bad = tmp_path / "bad.config"
        bad.write_text(json.dumps({"penalties": {"f_rate": 0.9}}))
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_INVALID

    def test_repeated_sample_size_exits_invalid(self, tmp_path, capsys):
        bad = tmp_path / "repeated.config"
        bad.write_text(json.dumps({"sample_sizes": [50, 50], "replications": 3}))
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_INVALID
        assert "sample_sizes" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_json_lines_format(self, small_config_file, tmp_path):
        out = tmp_path / "table.jsonl"
        code = main(
            [
                "simulate",
                "--config", str(small_config_file),
                "--format", "json-lines",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        meta, records = read_report(out, "json-lines")
        assert meta["report"] == "study" and len(records) == 1


class TestProbeCommand:
    def test_probe_emits_table(self, small_config_file, tmp_path):
        out = tmp_path / "probe.csv"
        code = main(
            [
                "probe",
                "--config", str(small_config_file),
                "--subset", "1,4,7",
                "--n-grid", "100,200",
                "--reps", "2",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        meta, records = read_report(out, "csv")
        assert meta["subset"] == "1,4,7"
        assert meta["seed"] == 5
        assert [r["n"] for r in records] == [100, 200]

    def test_empty_grid_exits_invalid(self, small_config_file, tmp_path):
        code = main(
            [
                "probe",
                "--config", str(small_config_file),
                "--subset", "1",
                "--n-grid", ",",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_INVALID

    def test_repeated_size_exits_invalid_naming_it(self, small_config_file, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            [
                "probe",
                "--config", str(small_config_file),
                "--subset", "1",
                "--n-grid", "250,250",
                "--out", str(out),
            ]
        )
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == (
            "covsel: invalid input: n_grid must not repeat a size, got 250 more than once\n"
        )
        assert not out.exists()

    def test_empty_grid_exits_invalid_with_the_library_message(
        self, small_config_file, tmp_path, capsys
    ):
        out = tmp_path / "o"
        args = ["probe", "--config", str(small_config_file), "--subset", "1", "--n-grid", ","]
        assert main(args + ["--out", str(out)]) == EXIT_INVALID
        assert capsys.readouterr().err == "covsel: invalid input: n_grid must be non-empty\n"
        assert not out.exists()


_BAD_DRAW = "draw must be 'rows' or 'wishart', got 'bartlett'"


class TestWishartDraw:
    @pytest.fixture()
    def wishart_config(self, tmp_path):
        path = tmp_path / "wishart.config"
        doc = {"sample_sizes": [60, 100], "replications": 3, "base_seed": 5, "draw": "wishart"}
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_reports_of_both_commands_record_the_draw(self, wishart_config, tmp_path, fmt):
        study, probe = tmp_path / "study.out", tmp_path / "probe.out"
        args = ["--config", str(wishart_config), "--format", fmt]
        assert main(["simulate", *args, "--out", str(study)]) == EXIT_OK
        assert main(["probe", *args, "--subset", "1,4,7", "--reps", "3", "--out", str(probe)]) == 0
        for path in (study, probe):
            meta, _ = read_report(path, fmt)
            assert list(meta)[-1] == "draw" and meta["draw"] == "wishart"
        meta, records = read_report(study, fmt)
        cfg = SimulationConfig(sample_sizes=(60, 100), replications=3, base_seed=5, draw="wishart")
        assert [r["mean_pred_error"] for r in records] == [
            r.mean_pred_error for r in covsel.run_study(cfg).rows
        ]

    def test_row_reports_have_no_draw_line(self, small_config_file, tmp_path):
        doc = json.loads(small_config_file.read_text())
        explicit = tmp_path / "rows.config"
        explicit.write_text(json.dumps({**doc, "draw": "rows"}))
        outs = []
        for config in (small_config_file, explicit):
            for command, extra in (("simulate", []), ("probe", ["--subset", "1", "--reps", "2"])):
                out = tmp_path / f"{config.stem}-{command}.csv"
                assert main([command, "--config", str(config), *extra, "--out", str(out)]) == 0
                assert "draw" not in read_report(out, "csv")[0]
                outs.append(out.read_bytes())
        assert outs[:2] == outs[2:]

    @pytest.mark.parametrize(
        "command, doc, extra, message",
        [
            ("simulate", {"draw": "bartlett"}, [], _BAD_DRAW),
            ("probe", {"draw": "bartlett"}, [], _BAD_DRAW),
            (
                "simulate",
                {"draw": "wishart", "sample_sizes": [12, 60]},
                [],
                "sample_sizes must exceed p + q = 12 for draw='wishart' (Bartlett's "
                "decomposition needs n - 1 >= p + q), got 12",
            ),
            (
                "probe",
                {"draw": "wishart"},
                ["--n-grid", "100,12"],
                "n_grid must exceed p + q = 12 for draw='wishart' (Bartlett's "
                "decomposition needs n - 1 >= p + q), got 12",
            ),
        ],
        ids=["simulate-name", "probe-name", "simulate-size", "probe-size"],
    )
    def test_bad_draw_or_size_exits_invalid_naming_the_field(
        self, tmp_path, capsys, command, doc, extra, message
    ):
        config = tmp_path / "bad.config"
        config.write_text(json.dumps({"replications": 2, **doc}))
        out = tmp_path / "out.csv"
        args = [command, "--config", str(config), *extra, "--out", str(out)]
        if command == "probe":
            args += ["--subset", "1", "--reps", "2"]
        assert main(args) == EXIT_INVALID
        assert capsys.readouterr().err == f"covsel: invalid input: {message}\n"
        assert not out.exists()


def _run_cli(args):
    src = Path(covsel.__file__).resolve().parent.parent
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    env.pop("PYTHONWARNINGS", None)  # a warning must show on stderr, not stop the run
    return subprocess.run(
        [sys.executable, "-m", "covsel.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("simulate", [], "3/3 replications failed"),
        (
            "probe",
            ["--subset", "1,2,3", "--n-grid", "50", "--reps", "3"],
            "covariance block for subset (1, 2, 3) is singular",
        ),
    ],
)
def test_covariances_that_overflow_exit_numerical_with_one_line(tmp_path, command, extra, message):
    # sums of squares of x (variance 1e307) overflow to inf in every replication
    config = tmp_path / "overflow.config"
    model = {
        "b": [[0.0] * 3] * 2,
        "sigma": (1e307 * np.eye(3)).tolist(),
        "noise_cov": np.eye(2).tolist(),
    }
    config.write_text(json.dumps({"model": model, "sample_sizes": [50], "replications": 3}))
    out = tmp_path / "out.csv"
    proc = _run_cli([command, "--config", str(config), "--out", str(out), *extra])
    assert proc.returncode == EXIT_NUMERICAL, proc.stderr
    assert proc.stderr.startswith(f"covsel: numerical failure: {message}")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_dataset_whose_covariances_overflow_exits_invalid_with_one_line(tmp_path):
    data = tmp_path / "huge.csv"
    data.write_text("1e200,1,2,3\n-1e200,2,3,1\n5,1,1,1\n")
    out = tmp_path / "out.csv"
    proc = _run_cli(["select", "--input", str(data), "--p", "2", "--q", "2", "--out", str(out)])
    assert proc.returncode == EXIT_INVALID, proc.stderr
    assert proc.stderr == "covsel: invalid input: v1 entries must be finite\n"
    assert not out.exists()


class TestStudyAbort:
    def test_aborted_study_exits_numerical_without_traceback(self, tmp_path):
        # a near-singular sigma makes every replication fail on a singular block
        config = tmp_path / "singular.config"
        config.write_text(
            json.dumps(
                {
                    "model": {
                        "b": [[1, 0, 1], [0, 1, 1]],
                        "sigma": [[1, 1 - 1e-15, 0], [1 - 1e-15, 1, 0], [0, 0, 1]],
                        "noise_cov": [[0.5, 0], [0, 0.5]],
                    },
                    "sample_sizes": [50],
                    "replications": 20,
                }
            )
        )
        src = Path(covsel.__file__).resolve().parent.parent
        paths = [str(src), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        proc = subprocess.run(
            [sys.executable, "-m", "covsel.cli", "simulate", "--config", str(config),
             "--out", str(tmp_path / "out.csv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_NUMERICAL, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "20/20 replications failed" in proc.stderr


class TestUsageErrors:
    def test_unwritable_output_exits_io(self, dataset_csv, tmp_path):
        from covsel.cli import EXIT_IO

        path, _ = dataset_csv
        out = tmp_path / "missing_dir" / "report.csv"
        code = main(
            ["select", "--input", str(path), "--p", "7", "--q", "5", "--out", str(out)]
        )
        assert code == EXIT_IO

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--p", "7", "--q", "5", "--out", "x"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "the following arguments are required: command" in capsys.readouterr().err


_COMMAND_HELP = {
    "select": "select variables from a dataset CSV",
    "simulate": "run a Monte Carlo study from a config file",
    "criterion": "print the subset criterion of a dataset",
    "probe": "criterion scaling across sample sizes",
}

_SCHEDULE_FLAGS = ["--" + f.name.replace("_", "-") for f in dataclasses.fields(PenaltySchedule)]
_OUTPUT_FLAGS = ["--out", "--format"]
_DATASET_FLAGS = ["--input", "--p", "--q", "--has-header"]
_COMMAND_FLAGS = {
    "select": _DATASET_FLAGS + _SCHEDULE_FLAGS + _OUTPUT_FLAGS,
    "simulate": ["--config", "--seed", "--jobs"] + _OUTPUT_FLAGS,
    "criterion": _DATASET_FLAGS + ["--subset"],
    "probe": ["--config", "--subset", "--n-grid", "--reps", "--seed"] + _OUTPUT_FLAGS,
}


def _exit_and_output(parse, argv, capsys):
    """The exit code and the (stdout, stderr) of an argv that ``parse`` exits on."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, capsys.readouterr()


class TestParser:
    """``main`` builds the sub-parser of the invoked command alone; its
    help, usage errors and exit codes are those of the whole command tree."""

    def test_top_level_help_lists_every_command_with_its_help(self, capsys):
        code, (out, _) = _exit_and_output(main, ["--help"], capsys)
        assert code == 0
        assert out.startswith("usage: covsel [-h] {select,simulate,criterion,probe} ...\n")
        for name, text in _COMMAND_HELP.items():
            assert f"    {name:<20}{text}\n" in out

    @pytest.mark.parametrize("command", list(_COMMAND_FLAGS))
    def test_command_help_lists_its_own_flags_as_the_whole_tree_does(self, command, capsys):
        code, (out, _) = _exit_and_output(main, [command, "--help"], capsys)
        assert code == 0
        listed = {word.rstrip(",") for word in out.split() if word.startswith("--")}
        assert listed == set(_COMMAND_FLAGS[command]) | {"--help"}
        assert _exit_and_output(cli.build_parser().parse_args, [command, "--help"], capsys) == (
            0, (out, "")
        )

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["select", "--p", "7"],
            ["simulate", "--bogus"],
            ["criterion", "--input", "x", "--p", "seven", "--q", "5", "--subset", "1"],
            ["probe", "--reps", "x"],
            ["--", "simulate"],
            ["select", "--input", "probe"],
            # the top-level parser's errors after a named command list
            # every command in their usage line
            ["simulate", "--config", "c.config", "--out", "r.csv", "extra"],
            ["probe", "--config"],
        ],
    )
    def test_usage_errors_are_those_of_the_whole_tree(self, argv, capsys):
        code, (out, err) = _exit_and_output(main, argv, capsys)
        assert code == 2 and out == "" and err.startswith("usage: covsel")
        assert _exit_and_output(cli.build_parser().parse_args, argv, capsys) == (2, (out, err))

    @pytest.fixture
    def built(self, monkeypatch):
        """The names of the sub-parsers built during the test, in order."""
        names, real = [], argparse._SubParsersAction.add_parser

        def recording(self, name, **kwargs):
            names.append(name)
            return real(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
        return names

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_a_named_command_builds_its_sub_parser_alone(self, command, built, capsys):
        assert _exit_and_output(main, [command, "--help"], capsys)[0] == 0
        assert built == [command]

    def test_a_command_that_runs_builds_its_sub_parser_alone(
        self, small_config_file, tmp_path, built
    ):
        argv = ["simulate", "--config", str(small_config_file), "--out", str(tmp_path / "r.csv")]
        assert main(argv) == EXIT_OK
        assert built == ["simulate"]

    @pytest.mark.parametrize("argv", [[], ["--help"], ["frobnicate"]])
    def test_no_named_command_builds_every_sub_parser(self, argv, built, capsys):
        _exit_and_output(main, argv, capsys)
        assert built == list(cli.COMMANDS)


class TestDatasetReaderEdges:
    def test_missing_input_exits_io_with_os_message(self, tmp_path, capsys):
        from covsel.cli import EXIT_IO

        missing = tmp_path / "absent.csv"
        code = main(
            ["select", "--input", str(missing), "--p", "7", "--q", "5",
             "--out", str(tmp_path / "report.csv")]
        )
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "No such file or directory" in err and str(missing) in err

    def test_quoted_header_file_gives_same_criterion(self, dataset_csv, tmp_path, capsys):
        path, _ = dataset_csv
        quoted = tmp_path / "quoted.csv"
        lines = path.read_text().splitlines()
        header = ",".join(f'"x{i}"' for i in range(1, 8)) + "," + ",".join(
            f'"y{j}"' for j in range(1, 6)
        )
        quoted.write_text(
            "\n".join([header] + [",".join(f'"{v}"' for v in line.split(",")) for line in lines])
            + "\n"
        )
        args = ["criterion", "--p", "7", "--q", "5", "--subset", "1,4,7"]
        assert main(args + ["--input", str(path)]) == EXIT_OK
        plain = capsys.readouterr().out
        assert main(args + ["--input", str(quoted), "--has-header"]) == EXIT_OK
        assert capsys.readouterr().out == plain


def test_former_pool_settings_are_accepted_and_change_nothing(tmp_path, monkeypatch, capsys):
    # --jobs is still accepted; the config key "parallel" is now an unknown field
    doc = {"sample_sizes": [60], "replications": 2}
    plain, legacy = tmp_path / "plain.config", tmp_path / "legacy.config"
    plain.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "plain.csv", tmp_path / "jobs.csv"
    assert main(["simulate", "--config", str(plain), "--out", str(out1)]) == EXIT_OK
    monkeypatch.setenv("COVSEL_JOBS", "many")
    args = ["simulate", "--config", str(plain), "--jobs", "3", "--out", str(out2)]
    assert main(args) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()

    legacy.write_text(json.dumps({**doc, "parallel": True}))
    capsys.readouterr()
    code = main(["simulate", "--config", str(legacy), "--out", str(tmp_path / "bad.csv")])
    assert code == EXIT_INVALID
    assert "unknown field 'parallel'" in capsys.readouterr().err


def test_boolean_config_field_exits_invalid_naming_it(tmp_path, capsys):
    # JSON true would otherwise run as 1 replication and be reported as "true"
    config = tmp_path / "bools.config"
    config.write_text(json.dumps({"replications": True, "sample_sizes": [50], "base_seed": 0}))
    out = tmp_path / "out.csv"
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == EXIT_INVALID
    assert "replications" in capsys.readouterr().err
    assert not out.exists()


class TestOutputOverwrite:
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_simulate_over_longer_file_matches_fresh_run(self, small_config_file, tmp_path, fmt):
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        old.write_text("# an older, longer report\n" * 500)
        for out in (fresh, old):
            args = ["simulate", "--config", str(small_config_file), "--format", fmt]
            assert main(args + ["--out", str(out)]) == EXIT_OK
        assert old.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_select_over_longer_file_matches_fresh_run(self, dataset_csv, tmp_path, fmt):
        path, _ = dataset_csv
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        old.write_text("# an older, longer report\n" * 500)
        for out in (fresh, old):
            args = ["select", "--input", str(path), "--p", "7", "--q", "5", "--format", fmt]
            assert main(args + ["--out", str(out)]) == EXIT_OK
        assert old.read_bytes() == fresh.read_bytes()

    def test_select_to_dev_stdout(self, dataset_csv, tmp_path, capsys):
        path, _ = dataset_csv
        report = tmp_path / "report.csv"
        args = ["select", "--input", str(path), "--p", "7", "--q", "5"]
        assert main(args + ["--out", str(report)]) == EXIT_OK
        printed = capsys.readouterr().out
        src = Path(covsel.__file__).resolve().parent.parent
        paths = [str(src), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        proc = subprocess.run(
            [sys.executable, "-m", "covsel.cli", *args, "--out", "/dev/stdout"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == report.read_text() + printed


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"model": {"sigma": 3}}, "model.sigma: must be a 2-d matrix"),
        ({"model": {"b": [[1, 2], [3]]}}, "model.b: must be a rectangular numeric matrix"),
        ([1, 2], "{path}: top level must be a JSON object"),
        ({"model": []}, "model: must be a JSON object"),
    ],
)
def test_malformed_config_exits_invalid_with_its_message(tmp_path, capsys, doc, message):
    config = tmp_path / "bad.config"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == EXIT_INVALID
    assert capsys.readouterr().err == f"covsel: invalid input: {message.format(path=config)}\n"
    assert not out.exists()


def test_mistyped_penalty_exits_invalid_naming_it(tmp_path, capsys):
    config = tmp_path / "typed.config"
    config.write_text(json.dumps({"penalties": {"f_shape": ["reciprocal"]}}))
    out = tmp_path / "out.csv"
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert "penalties.f_shape" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "probe"])
def test_allocation_failure_exits_invalid(small_config_file, tmp_path, monkeypatch, capsys, command):
    def no_memory(model, rows):
        raise MemoryError(f"cannot allocate {rows} rows")

    monkeypatch.setattr(covsel.simulation, "_draw_buffers", no_memory)
    out = tmp_path / "out.csv"
    args = [command, "--config", str(small_config_file), "--out", str(out)]
    if command == "probe":
        args += ["--subset", "1,4,7", "--n-grid", "60", "--reps", "2"]
    assert main(args) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "covsel: invalid input: the requested size does not fit in memory\n"
    )
    assert not out.exists()


def test_allocation_failure_on_the_helper_thread_exits_invalid(
    small_config_file, tmp_path, monkeypatch, capsys
):
    # one replication per chunk, every chunk long enough for the helper,
    # and the calling thread pauses before its draws, so the helper takes
    # a chunk
    monkeypatch.setattr(covsel.simulation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(covsel.simulation, "HELPER_MIN_NORMALS", 0)
    monkeypatch.setattr(covsel.simulation, "ROW_BUDGET", 60)
    real = covsel.simulation._draw

    def draw(model, n, seeds, buffers=None, keys=None):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("helper out of memory")
        time.sleep(0.002)
        return real(model, n, seeds, buffers, keys)

    monkeypatch.setattr(covsel.simulation, "_draw", draw)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(small_config_file), "--out", str(out)]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "covsel: invalid input: the requested size does not fit in memory\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra",
    [
        ("simulate", []),
        ("probe", ["--subset", "1,4,7", "--reps", "99999999999999999999"]),
    ],
)
def test_replication_count_too_large_for_a_machine_integer_exits_invalid(
    tmp_path, capsys, command, extra
):
    # 2**63 replications and more overflow the ranges that count them.  One
    # below, 2**63 - 1, is counted: probe exits 3 when its list of seeds
    # fails to allocate, and simulate starts a study that lists its
    # replications block by block, so it runs until it is stopped
    config = tmp_path / "huge.config"
    config.write_text(json.dumps({"sample_sizes": [50], "replications": 2**63}))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(config), "--out", str(out)] + extra) == EXIT_INVALID
    assert capsys.readouterr().err == "covsel: invalid input: the requested size is too large\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, subset, label",
    [("probe", "1,4,7,7", 7), ("criterion", "4,1,4", 4)],
)
def test_repeated_subset_label_exits_invalid_naming_it(
    small_config_file, dataset_csv, tmp_path, capsys, command, subset, label
):
    if command == "probe":
        args = ["probe", "--config", str(small_config_file), "--n-grid", "60", "--reps", "2"]
        args += ["--out", str(tmp_path / "out.csv")]
    else:
        args = ["criterion", "--input", str(dataset_csv[0]), "--p", "7", "--q", "5"]
    assert main(args + ["--subset", subset]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"label {label} is repeated" in err and "strictly increasing" not in err


def test_config_that_is_not_utf8_exits_invalid_naming_the_path(tmp_path, capsys):
    config = tmp_path / "latin1.config"
    config.write_bytes('{"replications": 3, "base_seed": "\xff"}'.encode("latin-1"))
    out = tmp_path / "out.csv"
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"{config}: not valid UTF-8" in err and "Traceback" not in err
    assert not out.exists()


def test_config_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    # the schema error for a non-ASCII shape name, not a decode error of
    # the locale's codec
    config = tmp_path / "accent.config"
    config.write_bytes('{"penalties": {"f_shape": "réciprocal"}}'.encode("utf-8"))
    src = Path(covsel.__file__).resolve().parent.parent
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(paths),
        "LC_ALL": "C",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONUTF8": "0",
        "PYTHONIOENCODING": "utf-8",
    }
    proc = subprocess.run(
        [sys.executable, "-m", "covsel.cli", "simulate", "--config", str(config),
         "--out", str(tmp_path / "out.csv")],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_INVALID
    assert "unknown shape 'réciprocal'" in proc.stderr.decode("utf-8")


def test_dataset_is_read_as_utf8_under_an_ascii_locale(dataset_csv, tmp_path):
    # a non-ASCII header is skipped, not decoded with the locale's codec
    path, data = dataset_csv
    accent = tmp_path / "accent.csv"
    accent.write_bytes("xé".encode("utf-8") + b"," * 11 + b"\n" + path.read_bytes())
    src = Path(covsel.__file__).resolve().parent.parent
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
        "LC_ALL": "C",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONUTF8": "0",
    }
    proc = subprocess.run(
        [sys.executable, "-m", "covsel.cli", "select", "--input", str(accent), "--p", "7",
         "--q", "5", "--has-header", "--out", str(tmp_path / "accent-report.csv")],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    plain = tmp_path / "plain-report.csv"
    argv = ["select", "--input", str(path), "--p", "7", "--q", "5", "--out", str(plain)]
    assert main(argv) == EXIT_OK
    assert (tmp_path / "accent-report.csv").read_bytes() == plain.read_bytes()


def test_dataset_byte_that_is_not_utf8_exits_invalid_naming_the_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1.0,2.0,3.0\n1.0,2.0,3.0\xff\n4.0,5.0,6.0\n")
    argv = ["criterion", "--input", str(path), "--p", "2", "--q", "1", "--subset", "1"]
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"{path}: line 2: field 3 is not valid UTF-8: b'3.0\\xff'" in err
