import json
import math
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import covsel.io

from covsel import (
    ConfigError,
    Dataset,
    DatasetFormatError,
    PenaltySchedule,
    benchmark_model,
    emit_report,
    empirical_covariances,
    load_simulation_config,
    parse_dataset_csv,
    read_report,
    run_study,
    sample_dataset,
    select_variables,
    write_dataset_csv,
    SimulationConfig,
    convergence_probe,
    VariableSubset,
)


class TestParseDatasetCsv:
    def test_two_point_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("0,0\n2,4\n")
        data = parse_dataset_csv(path, p=1, q=1)
        suite = empirical_covariances(data)
        np.testing.assert_array_equal(suite.v1, [[1.0]])
        np.testing.assert_array_equal(suite.v12, [[2.0]])

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3,4\n1,2,3\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            parse_dataset_csv(path, p=2, q=2)

    def test_non_numeric_names_line_and_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n1,oops\n")
        with pytest.raises(DatasetFormatError, match="line 2.*field 2"):
            parse_dataset_csv(path, p=1, q=1)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\nnan,3\n")
        with pytest.raises(DatasetFormatError, match="line 2.*not finite"):
            parse_dataset_csv(path, p=1, q=1)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetFormatError, match="no data rows"):
            parse_dataset_csv(path, p=1, q=1)

    def test_header_skipped_when_flagged(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("x1,y1\n1,2\n3,4\n")
        data = parse_dataset_csv(path, p=1, q=1, has_header=True)
        assert data.n == 2

    def test_round_trip_preserves_values_exactly(self, tmp_path, rng):
        data = Dataset(x=rng.standard_normal((17, 3)), y=rng.standard_normal((17, 2)))
        path = tmp_path / "roundtrip.csv"
        write_dataset_csv(data, path)
        back = parse_dataset_csv(path, p=3, q=2)
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.y, data.y)


# --- the loadtxt fast path against the row loop ----------------------------

# padded, signed, quoted, underscored, non-finite or non-numeric fields:
# padded and signed ones stay on the fast path, the others send the file to
# the row loop
_ODD_FIELDS = st.sampled_from(
    [" 1.5", "2 ", "\t3", '"4"', "1_000", "nan", "-inf", "Infinity", "1e400",
     "0x10", "", "#", "abc", "\ufeff1", "+.5", "-0", "5e-324"]
)
# a strategy listed twice is drawn twice as often: most files stay well formed
_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    _ODD_FIELDS,
)


@st.composite
def _csv_files(draw):
    """(text, p, q): data rows of p + q fields, mostly well formed, mixed
    with blank, whitespace-only, header and ragged lines under one of the
    three line endings."""
    width = draw(st.integers(2, 5))
    p = draw(st.integers(1, width - 1))
    row_width = st.sampled_from([width] * 8 + [width - 1, width + 1])
    data_line = row_width.flatmap(lambda w: st.lists(_FIELDS, min_size=w, max_size=w)).map(
        ",".join
    )
    other_line = st.sampled_from(["", "   ", "\t", ",".join(["x"] * width), '"a,b",c'])
    lines = draw(st.lists(st.one_of(data_line, data_line, data_line, other_line), max_size=8))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + (newline if lines and draw(st.booleans()) else "")
    return text, p, width - p


def _outcome(read):
    try:
        data = read()
    except Exception as e:
        return type(e), str(e)
    return data.x.shape, data.x.tobytes(), data.y.shape, data.y.tobytes()


def _reference(path, p, q, has_header):
    with open(path, newline="") as fh:
        return covsel.io._parse_rows(fh, path, p, q, has_header)


class TestFastPathMatchesRowLoop:
    @settings(deadline=None, max_examples=300)
    @given(_csv_files())
    @example(("1,2\n3,4\n", 1, 1))
    @example(("1,2\n\n3,4\n", 1, 1))
    @example(("\n1,2\n3,4\n\n\n", 1, 1))
    @example(("1,2\r\n3,4\r\n", 1, 1))
    @example(("1,2\r3,4\r", 1, 1))
    @example(("x,y\r\n\r\n1,2\r\n3,4", 1, 1))
    @example((" 1 , 2 \n3,\t4\n", 1, 1))
    @example(("1,2\n   \n3,4\n", 1, 1))
    @example(('"1",2\n3,4\n', 1, 1))
    @example(('x,"y"\n1,2\n', 1, 1))
    @example(('"x\n1",2\n3,4\n', 1, 1))
    @example(("1_000,2\n3,4\n", 1, 1))
    @example(("nan,2\n3,4\n", 1, 1))
    @example(("1,2\n3,inf\n", 1, 1))
    @example(("1,2\n-Infinity,4\n", 1, 1))
    @example(("1e400,2\n3,4\n", 1, 1))
    @example(("\ufeff1,2\n3,4\n", 1, 1))
    @example(("\ufeffx,y\n1,2\n", 1, 1))
    @example(("0x10,2\n3,4\n", 1, 1))
    @example(("1,2\n3\n", 1, 1))
    @example(("1,2\n3,4,5\n", 1, 1))
    @example(("1,2,\n3,4,\n", 1, 1))
    @example(("", 1, 1))
    @example(("\n\n", 1, 1))
    @example(("x,y\n", 1, 1))
    @example(("# note\n1,2\n", 1, 1))
    @example(("1,2 # note\n", 1, 1))
    @example(("1,2,3\n4,5,6\n", 1, 1))
    @example(("1\n2\n", 1, 1))
    @example(("-0.0,5e-324", 1, 1))
    def test_same_array_or_same_error(self, tmp_path_factory, case):
        text, p, q = case
        path = tmp_path_factory.mktemp("diff") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        for has_header in (False, True):
            got = _outcome(lambda: parse_dataset_csv(path, p, q, has_header=has_header))
            want = _outcome(lambda: _reference(path, p, q, has_header))
            assert got == want, (text, has_header)

    def test_clean_file_never_reaches_row_loop(self, tmp_path, rng, monkeypatch):
        data = Dataset(x=rng.standard_normal((50, 3)), y=rng.standard_normal((50, 2)))
        path = tmp_path / "clean.csv"
        write_dataset_csv(data, path, header=True)

        def forbidden(*args, **kwargs):
            raise AssertionError("row loop used on a clean file")

        monkeypatch.setattr(covsel.io, "_parse_rows", forbidden)
        back = parse_dataset_csv(path, p=3, q=2, has_header=True)
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.y, data.y)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_by_row_loop(self, tmp_path):
        # a pipe cannot be rewound, so it skips the one-pass read
        path = tmp_path / "pipe"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=('"1",2\n3,4\n',))
        writer.start()
        try:
            data = parse_dataset_csv(path, p=1, q=1)
        finally:
            writer.join()
        np.testing.assert_array_equal(data.x, [[1.0], [3.0]])
        np.testing.assert_array_equal(data.y, [[2.0], [4.0]])

    @pytest.mark.parametrize("text", ["", "x,y\n"])
    def test_no_data_raises_without_warning(self, tmp_path, text):
        path = tmp_path / "nodata.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetFormatError, match="no data rows"):
                parse_dataset_csv(path, p=1, q=1, has_header=True)


class TestLoadSimulationConfig:
    def test_empty_document_gives_benchmark_defaults(self, tmp_path):
        path = tmp_path / "empty.config"
        path.write_text("{}")
        cfg = load_simulation_config(path)
        bench = benchmark_model()
        np.testing.assert_array_equal(cfg.model.b, bench.b)
        np.testing.assert_array_equal(cfg.model.sigma, bench.sigma)
        np.testing.assert_array_equal(cfg.model.noise_cov, bench.noise_cov)
        assert cfg.sample_sizes == (50, 100, 500, 2000)
        assert cfg.replications == 200
        assert cfg.pen.describe() == PenaltySchedule().describe()
        assert cfg.penalty_arg == "label"

    def test_shipped_benchmark_config_loads(self):
        cfg = load_simulation_config("paper.config")
        bench = benchmark_model()
        np.testing.assert_array_equal(cfg.model.b, bench.b)
        np.testing.assert_array_equal(cfg.model.sigma, bench.sigma)
        assert cfg.sample_sizes == (50, 100, 500, 800, 1000, 2000)
        assert cfg.replications == 2000

    def test_partial_model_override(self, tmp_path):
        path = tmp_path / "noise0.config"
        path.write_text(json.dumps({"model": {"noise_cov": [[0.0] * 5] * 5}}))
        cfg = load_simulation_config(path)
        assert np.all(cfg.model.noise_cov == 0.0)
        np.testing.assert_array_equal(cfg.model.b, benchmark_model().b)

    def test_out_of_range_f_rate_rejected(self, tmp_path):
        path = tmp_path / "bad.config"
        path.write_text(json.dumps({"penalties": {"f_rate": 0.6}}))
        with pytest.raises(ConfigError, match="penalties.*f_rate"):
            load_simulation_config(path)

    def test_non_spd_sigma_rejected(self, tmp_path):
        path = tmp_path / "bad.config"
        sigma = [[1.0, 2.0], [2.0, 1.0]]
        doc = {"model": {"b": [[1.0, 0.0], [0.0, 1.0]], "sigma": sigma, "noise_cov": [[1.0, 0.0], [0.0, 1.0]]}}
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="model.*positive definite"):
            load_simulation_config(path)

    def test_unknown_fields_rejected_with_path(self, tmp_path):
        path = tmp_path / "bad.config"
        path.write_text(json.dumps({"samples": [10]}))
        with pytest.raises(ConfigError, match="unknown field 'samples'"):
            load_simulation_config(path)
        path.write_text(json.dumps({"penalties": {"h_rate": 0.1}}))
        with pytest.raises(ConfigError, match="penalties.h_rate"):
            load_simulation_config(path)

    def test_bad_penalty_arg_rejected(self, tmp_path):
        path = tmp_path / "bad.config"
        path.write_text(json.dumps({"penalties": {"penalty_arg": "position"}}))
        with pytest.raises(ConfigError, match="penalty_arg"):
            load_simulation_config(path)

    def test_undersized_samples_rejected(self, tmp_path):
        path = tmp_path / "bad.config"
        path.write_text(json.dumps({"sample_sizes": [5]}))
        with pytest.raises(ConfigError, match="p \\+ 2"):
            load_simulation_config(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.config"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_simulation_config(path)


@pytest.fixture(scope="module")
def selection_result():
    data = sample_dataset(benchmark_model(), 300, seed=99)
    return select_variables(data)


@pytest.fixture(scope="module")
def study_summary():
    cfg = SimulationConfig(sample_sizes=(90, 60), replications=3, base_seed=17)
    return run_study(cfg)


class TestEmitReport:
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_selection_report_round_trip(self, tmp_path, selection_result, fmt):
        path = tmp_path / f"sel.{fmt}"
        emit_report(selection_result, fmt, path, **PenaltySchedule().describe())
        meta, records = read_report(path, fmt)
        assert meta["report"] == "selection"
        assert meta["n"] == 300
        assert meta["f_rate"] == 0.25
        assert len(records) == 7
        flagged = [r for r in records if r["selected"]]
        assert len(flagged) == selection_result.s_hat
        for rec in records:
            label = rec["variable"]
            assert rec["phi"] == selection_result.phi[label - 1]
            assert rec["psi"] == selection_result.psi[rec["rank"] - 1]

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_study_report_round_trip_and_ordering(self, tmp_path, study_summary, fmt):
        path = tmp_path / f"study.{fmt}"
        emit_report(study_summary, fmt, path, base_seed=17)
        meta, records = read_report(path, fmt)
        assert meta["report"] == "study"
        assert [r["n"] for r in records] == [60, 90]  # ascending regardless of config order
        for rec in records:
            row = study_summary.row_for(rec["n"])
            assert rec["mean_pred_error"] == row.mean_pred_error
            assert rec["sem_pred_error"] == row.sem_pred_error
            assert rec["correct_rate"] == row.correct_rate
            assert rec["median_scaled_criterion"] == row.median_scaled_criterion
            assert rec["mean_excess_error"] == row.mean_excess_error

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_probe_report_round_trip(self, tmp_path, fmt):
        table = convergence_probe(
            benchmark_model(), VariableSubset((1, 4, 7), 7), [100, 150], reps=2, seed=3
        )
        path = tmp_path / f"probe.{fmt}"
        emit_report(table, fmt, path)
        meta, records = read_report(path, fmt)
        assert meta["report"] == "probe"
        assert meta["subset"] == "1,4,7"
        assert [r["n"] for r in records] == [100, 150]
        assert records[0]["median_criterion"] == table.points[0].median_criterion

    def test_three_selected_rows_flagged_for_s_hat_three(self, tmp_path):
        from covsel import SelectionResult

        result = SelectionResult(
            phi=np.array([5.0, 4.0, 3.0, 2.0, 1.0]),
            sigma_hat=np.array([1, 2, 3, 4, 5]),
            psi=np.array([4.0, 3.0, 0.5, 0.8, 0.9]),
            s_hat=3,
            selected=(1, 2, 3),
            n=100,
        )
        path = tmp_path / "sel3.csv"
        emit_report(result, "csv", path)
        _, records = read_report(path, "csv")
        assert [r["variable"] for r in records if r["selected"]] == [1, 2, 3]

    def test_unknown_format_rejected(self, tmp_path, selection_result):
        with pytest.raises(ValueError, match="format"):
            emit_report(selection_result, "yaml", tmp_path / "x")

    def test_unknown_payload_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="cannot emit"):
            emit_report({"not": "a result"}, "csv", tmp_path / "x")
