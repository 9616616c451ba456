"""Dataset files, study configuration files, and report emission.

Datasets are plain CSV with the predictor columns first and the response
columns after them; widths come from explicit ``p`` and ``q`` arguments.
A field is accepted when ``float()`` reads it as a finite number; blank and
whitespace-only lines are skipped, and so is the first line when the file
has a header.  The file is read in one C pass (``np.loadtxt``); a file that
pass cannot read or fully check is read again row by row, and that row
loop (``_parse_rows``) is the reference for odd inputs and for every error
message.
Study configuration is a single JSON document (see ``CONFIG_SCHEMA`` and
the shipped ``paper.config``); omitted fields fall back to the benchmark
defaults.  Reports are written as CSV with ``#`` metadata lines or as JSON
lines with a leading metadata record, always at full round-trip precision.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .covariance import Dataset, PopulationModel
from .selection import (
    PENALTY_ARG_LABEL,
    PENALTY_ARG_RANK,
    PenaltySchedule,
    SelectionResult,
)
from .simulation import (
    DEFAULT_BASE_SEED,
    DEFAULT_REPLICATIONS,
    DEFAULT_SAMPLE_SIZES,
    ProbeTable,
    SimulationConfig,
    StudySummary,
    benchmark_model,
)

FORMAT_CSV = "csv"
FORMAT_JSON_LINES = "json-lines"

CONFIG_SCHEMA = {
    "model": {"b", "sigma", "noise_cov"},
    "sample_sizes": None,
    "replications": None,
    "penalties": {"f_rate", "f_shape", "g_rate", "g_shape", "penalty_arg"},
    "base_seed": None,
    "parallel": None,
}


class DatasetFormatError(ValueError):
    """A dataset file is malformed; the message names the offending line."""


class ConfigError(ValueError):
    """A configuration document violates the schema; the message names the field."""


def _fmt(value) -> str:
    # repr of a Python float is the shortest string that parses back exactly
    return repr(float(value))


def parse_dataset_csv(path, p: int, q: int, has_header: bool = False) -> Dataset:
    """Read a dataset file with p predictor columns followed by q response columns.

    Raises :class:`DatasetFormatError` naming the 1-based line of the first
    malformed row (wrong column count, non-numeric or non-finite field).
    The file is read in one ``np.loadtxt`` pass; whatever that pass rejects
    or does not fully check is read again by the row loop ``_parse_rows``,
    which defines the accepted inputs and every error message.  An input
    that cannot be rewound, such as a pipe, goes to the row loop directly.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    with open(path, newline="") as fh:
        if fh.seekable():
            table = _load_table(fh, has_header)
            if (
                table is not None
                and table.shape[0] >= 1
                and table.shape[1] == p + q
                and np.isfinite(table).all()
            ):
                return Dataset(x=table[:, :p], y=table[:, p:])
            fh.seek(0)
        return _parse_rows(fh, path, p, q, has_header)


def _load_table(fh, has_header: bool) -> np.ndarray | None:
    """The whole file as one float array, or None when loadtxt cannot read it."""
    with warnings.catch_warnings():
        # an empty file is left to the row loop, which says "no data rows"
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(
                fh,
                delimiter=",",
                dtype=np.float64,
                comments=None,
                ndmin=2,
                skiprows=int(has_header),
            )
        except ValueError:
            return None


def _parse_rows(lines, path, p: int, q: int, has_header: bool) -> Dataset:
    """Validate and convert the file's lines one field at a time.

    Blank and whitespace-only lines are skipped, and so is the first line
    when ``has_header``; every other line must hold p + q fields that
    ``float()`` reads as finite numbers.
    """
    xs, ys = [], []
    reader = csv.reader(lines)
    for lineno, row in enumerate(reader, start=1):
        if lineno == 1 and has_header:
            continue
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != p + q:
            raise DatasetFormatError(
                f"{path}: line {lineno}: expected {p + q} fields, found {len(row)}"
            )
        values = []
        for col, text in enumerate(row, start=1):
            try:
                value = float(text)
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: field {col} is not numeric: {text!r}"
                ) from None
            if not math.isfinite(value):
                raise DatasetFormatError(
                    f"{path}: line {lineno}: field {col} is not finite: {text!r}"
                )
            values.append(value)
        xs.append(values[:p])
        ys.append(values[p:])
    if not xs:
        raise DatasetFormatError(f"{path}: no data rows")
    return Dataset(x=np.array(xs), y=np.array(ys))


def write_dataset_csv(data: Dataset, path, header: bool = False) -> None:
    """Write a dataset in the layout :func:`parse_dataset_csv` reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(
                [f"x{i}" for i in range(1, data.p + 1)]
                + [f"y{j}" for j in range(1, data.q + 1)]
            )
        for xrow, yrow in zip(data.x, data.y):
            writer.writerow([_fmt(v) for v in xrow] + [_fmt(v) for v in yrow])


def _config_matrix(raw, field: str) -> np.ndarray:
    try:
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: must be a rectangular numeric matrix") from None
    if arr.ndim != 2:
        raise ConfigError(f"{field}: must be a 2-d matrix")
    return arr


def load_simulation_config(path) -> SimulationConfig:
    """Load a study configuration JSON document.

    Every field is optional; omissions fall back to the benchmark model,
    sample sizes {50, 100, 500, 2000}, 200 replications and the default
    penalty schedule.  Violations raise :class:`ConfigError` naming the
    offending field.
    """
    text = Path(path).read_text()
    if not text.strip():
        doc = {}
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")

    for key in doc:
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown field {key!r}; known fields: {sorted(CONFIG_SCHEMA)}")
    for key, subkeys in CONFIG_SCHEMA.items():
        if subkeys and key in doc:
            if not isinstance(doc[key], dict):
                raise ConfigError(f"{key}: must be a JSON object")
            for sub in doc[key]:
                if sub not in subkeys:
                    raise ConfigError(f"{key}.{sub}: unknown field; known: {sorted(subkeys)}")

    default_model = benchmark_model()
    model_doc = doc.get("model", {})
    b = _config_matrix(model_doc["b"], "model.b") if "b" in model_doc else default_model.b
    sigma = (
        _config_matrix(model_doc["sigma"], "model.sigma")
        if "sigma" in model_doc
        else default_model.sigma
    )
    noise = (
        _config_matrix(model_doc["noise_cov"], "model.noise_cov")
        if "noise_cov" in model_doc
        else default_model.noise_cov
    )
    try:
        model = PopulationModel(b=b, sigma=sigma, noise_cov=noise)
    except ValueError as e:
        raise ConfigError(f"model: {e}") from e

    pen_doc = doc.get("penalties", {})
    penalty_arg = pen_doc.get("penalty_arg", PENALTY_ARG_LABEL)
    if penalty_arg not in (PENALTY_ARG_LABEL, PENALTY_ARG_RANK):
        raise ConfigError(
            f"penalties.penalty_arg: must be 'label' or 'rank', got {penalty_arg!r}"
        )
    try:
        pen = PenaltySchedule(
            f_rate=float(pen_doc.get("f_rate", 0.25)),
            g_rate=float(pen_doc.get("g_rate", 0.75)),
            f_shape=pen_doc.get("f_shape", "reciprocal"),
            g_shape=pen_doc.get("g_shape", "linear"),
        )
        pen.validate_shapes(model.p)
    except ValueError as e:
        raise ConfigError(f"penalties: {e}") from e

    sizes = doc.get("sample_sizes", list(DEFAULT_SAMPLE_SIZES))
    if not isinstance(sizes, list) or not all(isinstance(n, int) for n in sizes):
        raise ConfigError("sample_sizes: must be a list of integers")
    replications = doc.get("replications", DEFAULT_REPLICATIONS)
    if not isinstance(replications, int):
        raise ConfigError("replications: must be an integer")
    base_seed = doc.get("base_seed", DEFAULT_BASE_SEED)
    if not isinstance(base_seed, int):
        raise ConfigError("base_seed: must be an integer")
    parallel = doc.get("parallel", False)
    if not isinstance(parallel, bool):
        raise ConfigError("parallel: must be a boolean")

    try:
        return SimulationConfig(
            model=model,
            sample_sizes=tuple(sizes),
            replications=replications,
            pen=pen,
            base_seed=base_seed,
            parallel=parallel,
            penalty_arg=penalty_arg,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


# --- report emission -------------------------------------------------------

_SELECTION_COLUMNS = ("rank", "variable", "phi", "psi", "selected")
_STUDY_COLUMNS = (
    "n",
    "mean_pred_error",
    "sem_pred_error",
    "correct_rate",
    "median_scaled_criterion",
    "mean_oracle_error",
    "mean_excess_error",
    "failures",
    "replications",
)
_PROBE_COLUMNS = ("n", "median_scaled_criterion", "median_criterion")


def _selection_records(result: SelectionResult):
    for rank in range(1, result.p + 1):
        label = int(result.sigma_hat[rank - 1])
        yield {
            "rank": rank,
            "variable": label,
            "phi": float(result.phi[label - 1]),
            "psi": float(result.psi[rank - 1]),
            "selected": rank <= result.s_hat,
        }


def _study_records(summary: StudySummary):
    for row in sorted(summary.rows, key=lambda r: r.n):
        rec = dataclasses.asdict(row)
        yield {key: rec[key] for key in _STUDY_COLUMNS}


def _probe_records(table: ProbeTable):
    for point in sorted(table.points, key=lambda pt: pt.n):
        yield dataclasses.asdict(point)


def emit_report(result, format: str, path, **metadata) -> None:
    """Write a selection report, study summary or probe table.

    ``format`` is ``"csv"`` (header metadata on ``#`` lines) or
    ``"json-lines"`` (metadata as the first record).  Keyword arguments are
    added to the metadata block.  Numbers keep full round-trip precision.
    """
    if isinstance(result, SelectionResult):
        columns, records = _SELECTION_COLUMNS, list(_selection_records(result))
        meta = {"report": "selection", "n": result.n, "s_hat": result.s_hat}
    elif isinstance(result, StudySummary):
        columns, records = _STUDY_COLUMNS, list(_study_records(result))
        meta = {"report": "study"}
    elif isinstance(result, ProbeTable):
        columns, records = _PROBE_COLUMNS, list(_probe_records(result))
        meta = {
            "report": "probe",
            "subset": ",".join(str(i) for i in result.subset),
            "reps": result.reps,
            "seed": result.seed,
        }
    else:
        raise TypeError(f"cannot emit a report for {type(result).__name__}")
    meta.update(metadata)

    if format == FORMAT_CSV:
        _write_csv_report(path, meta, columns, records)
    elif format == FORMAT_JSON_LINES:
        _write_jsonl_report(path, meta, records)
    else:
        raise ValueError(f"format must be 'csv' or 'json-lines', got {format!r}")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _write_csv_report(path, meta, columns, records) -> None:
    with open(path, "w", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={_cell(value)}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_cell(rec[c]) for c in columns])


def _write_jsonl_report(path, meta, records) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"meta": meta}) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read_report(path, format: str) -> tuple[dict, list[dict]]:
    """Read back a report written by :func:`emit_report`.

    Returns ``(metadata, records)`` with numeric fields parsed back to the
    exact written values.  The inverse of the writers for both formats.
    """
    if format == FORMAT_JSON_LINES:
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        if not lines or "meta" not in lines[0]:
            raise ValueError(f"{path}: missing metadata record")
        return lines[0]["meta"], lines[1:]
    if format != FORMAT_CSV:
        raise ValueError(f"format must be 'csv' or 'json-lines', got {format!r}")
    meta: dict = {}
    records: list[dict] = []
    with open(path, newline="") as fh:
        rows = []
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = _parse_cell(value)
            else:
                rows.append(line)
        for rec in csv.DictReader(rows):
            records.append({key: _parse_cell(value) for key, value in rec.items()})
    return meta, records


def _parse_cell(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text
