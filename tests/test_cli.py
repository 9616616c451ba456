import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covsel
from covsel import (
    SimulationConfig,
    benchmark_model,
    criterion,
    empirical_covariances,
    mix_seed,
    read_report,
    run_replication,
    sample_dataset,
    write_dataset_csv,
    VariableSubset,
)
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
        path, _ = dataset_csv
        out = tmp_path / "report.csv"
        code = main(
            ["select", "--input", str(path), "--p", "7", "--q", "5", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("selected:")
        meta, records = read_report(out, "csv")
        assert len(records) == 7
        assert meta["penalty_arg"] == "label"

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


def test_non_integer_worker_env_var_exits_invalid(tmp_path, monkeypatch, capsys):
    config = tmp_path / "parallel.config"
    config.write_text(json.dumps({"sample_sizes": [60], "replications": 2, "parallel": True}))
    monkeypatch.setenv("COVSEL_JOBS", "many")
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out.csv")])
    assert code == EXIT_INVALID
    assert "COVSEL_JOBS must be an integer" in capsys.readouterr().err
