"""Dataset files, study configuration files, and report emission.

Datasets are plain CSV with the predictor columns first and the response
columns after them; widths come from explicit ``p`` and ``q`` arguments.
They are read as UTF-8, whatever the locale.  A field is accepted when
``float()`` reads it as a finite number; blank and whitespace-only lines
are skipped, and so is the first line when the file has a header.  The
file is read by the C parser ``np.loadtxt``.  A file of at least
``SPLIT_MIN_BYTES`` (1 MiB) is read in two parts at once on Linux, where
the process may use two CPUs or more and no other thread is alive: one
forked child parses the second half and sends its rows back over a pipe
while this process parses the first.  On one CPU no child starts.  A file
the parser cannot read or fully check is read again row by row, and that
row loop (``_parse_rows``) is the reference for odd inputs and for every
error message.
Study configuration is a single JSON document (see ``CONFIG_SCHEMA`` and
the shipped ``paper.config``); omitted fields fall back to the benchmark
defaults.  Reports are written as CSV with ``#`` metadata lines or as JSON
lines with a leading metadata record, always at full round-trip precision.

Every output file (reports and ``write_dataset_csv``) is rendered in
memory and written as UTF-8, whatever the locale, by ``_write_text``: an
existing file is overwritten in place in one write and then trimmed to
the new length, never truncated to zero first, because ext4 flushes a file truncated to zero when it is
closed (``auto_da_alloc``), which costs tens of milliseconds when the
output already exists.  Pipes, ttys and ``/dev/null`` are written without
the trim.  No writer replaces a file atomically or calls ``fsync``: a
process killed between the write and the trim leaves the new text
followed by the old file's tail, and after a system crash an overwritten
file may still hold old bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import signal
import stat
import sys
import threading
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .covariance import Dataset, PopulationModel
from .selection import PenaltySchedule, SelectionResult
from .simulation import (
    ProbePoint,
    ProbeTable,
    SimulationConfig,
    StudyRow,
    StudySummary,
    _is_int,
    _usable_cpus,
    benchmark_model,
)

FORMAT_CSV = "csv"
FORMAT_JSON_LINES = "json-lines"

# The smallest dataset file read in two parts at once.  On a 2-vCPU host,
# a 12-column file took 16.9 ms in one pass and 16.8 ms in two at 0.44 MiB,
# 32.6 and 28.0 ms at 1 MiB, and 76.7 and 55.5 ms at 2.2 MiB; the margin
# above the break-even size covers a larger process's slower fork.
SPLIT_MIN_BYTES = 1 << 20

# Top-level config fields; a section's keys are the fields of the class it builds.
CONFIG_SCHEMA = {
    "model": tuple(f.name for f in fields(PopulationModel)),
    "sample_sizes": None,
    "replications": None,
    "penalties": tuple(f.name for f in fields(PenaltySchedule)),
    "base_seed": None,
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
    The file is parsed by ``np.loadtxt``: a file of ``SPLIT_MIN_BYTES`` or
    more in two parts, the second by one forked child, when the process
    runs on Linux, may use two CPUs or more and has no other thread alive;
    otherwise, and always on one CPU, in one pass with no child.  Whatever
    either part rejects or does not fully check is read again by the row
    loop ``_parse_rows``, which defines the accepted inputs and every error
    message.  An input that cannot be rewound, such as a pipe, goes to the
    row loop directly.  The file is read as UTF-8 whatever the locale;
    bytes that are not UTF-8 are kept as escapes, so the row loop names the
    line that holds them, and a skipped header line may hold any bytes.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
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


class _Head(io.RawIOBase):
    """The next ``size`` bytes of a binary file, read from its position."""

    def __init__(self, raw, size: int):
        self._raw, self._left = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        got = self._raw.readinto(memoryview(buf)[: self._left])
        self._left -= got
        return got


def _loadtxt(raw, skiprows: int) -> np.ndarray | None:
    """The rows of a binary stream as one float array, or None when loadtxt
    cannot read them.  The bytes are decoded as ``parse_dataset_csv`` opens
    the file, chunk by chunk, never as one string."""
    text = io.TextIOWrapper(
        io.BufferedReader(raw), encoding="utf-8", errors="surrogateescape", newline=""
    )
    with warnings.catch_warnings():
        # an empty file is left to the row loop, which says "no data rows"
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(
                text, delimiter=",", dtype=np.float64, comments=None, ndmin=2, skiprows=skiprows
            )
        except ValueError:
            return None


def _split_point(raw, size: int) -> int:
    """Byte offset where a child's part of the file starts: just past the
    first newline at or after the middle byte, or ``size`` when the whole
    file is read in this process."""
    if (
        size < SPLIT_MIN_BYTES
        or _usable_cpus() < 2
        or not sys.platform.startswith("linux")
        or not hasattr(os, "fork")
        or threading.active_count() != 1
    ):
        return size
    raw.seek(size // 2)
    split = size // 2 + len(raw.readline())
    raw.seek(0)
    return min(split, size)


def _load_table(fh, has_header: bool) -> np.ndarray | None:
    """The whole file as one float array, or None when loadtxt rejects a part.

    Bytes [0, split) are parsed here, skipping the header; when
    ``_split_point`` leaves a second part, one forked child parses bytes
    [split, size) at the same time and sends its table back.  The parts are
    cut at a line start, so each line is parsed whole, by the same call.
    When no child can be started, or one fails or dies before its whole
    reply has been read, the whole file is parsed here in one pass.
    Whatever happens here, even an interrupt, the child is killed and
    reaped before this returns.
    """
    raw = fh.buffer
    size = os.fstat(fh.fileno()).st_size
    split = _split_point(raw, size)
    child = _fork_part(fh.fileno(), split, size) if split < size else None
    if child is not None:
        pid, r = child
        try:
            head = _loadtxt(_Head(raw, split), int(has_header))
            if head is None:
                return None
            try:
                return _join_reply(head, r)
            except EOFError:
                pass
        finally:
            # a child whose reply is not read is stopped, not waited for
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raw.seek(0)
    return _loadtxt(_Head(raw, size), int(has_header))


def _fork_part(fd: int, start: int, stop: int) -> tuple[int, int] | None:
    """Fork one child to parse bytes [start, stop) of the file open at
    ``fd``: its pid and the read end of the pipe it replies on, or None
    when no pipe or process can be had."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when the process has OS threads, such as an
            # idle BLAS pool; no other Python thread is alive, and the child
            # runs the text parser alone
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        _child_part(fd, start, stop, r, w)
    os.close(w)
    return pid, r


def _child_part(fd: int, start: int, stop: int, r: int, w: int):
    """Run in the forked child: parse bytes [start, stop) of the file open
    at ``fd`` and write the table's shape, as two int64, then its float64
    bytes to the pipe ``w``; a part loadtxt rejects is sent as the shape
    (-1, 0).  Ends the process, with status 0 once the reply is written."""
    status = 1
    try:
        os.close(r)
        # a file description of its own: the inherited one shares its
        # offset with the parent, which reads its own part through it
        with open(f"/proc/self/fd/{fd}", "rb") as own:
            own.seek(start)
            table = _loadtxt(_Head(own, stop - start), 0)
        shape = (-1, 0) if table is None else table.shape
        with open(w, "wb") as pipe:
            pipe.write(np.array(shape, dtype=np.int64).tobytes())
            if table is not None:
                pipe.write(np.ascontiguousarray(table))
        status = 0
    finally:
        os._exit(status)


def _join_reply(head: np.ndarray, r: int) -> np.ndarray | None:
    """``head`` followed by the rows the child sends on the pipe ``r``, or
    None when the child rejected its part or its rows are not as wide.
    Raises ``EOFError`` when the reply ends early."""
    with open(r, "rb", closefd=False) as pipe:
        rows, cols = _filled(pipe, np.empty(2, dtype=np.int64)).tolist()
        if rows < 0 or (rows and len(head) and cols != head.shape[1]):
            return None
        if rows == 0:
            return head
        table = np.empty((len(head) + rows, cols))
        table[: len(head)] = head
        _filled(pipe, table[len(head) :])
        return table


def _filled(pipe, out: np.ndarray) -> np.ndarray:
    """``out`` filled with the next bytes of ``pipe``; EOFError if it ends first."""
    if pipe.readinto(out) != out.nbytes:
        raise EOFError("the child's reply ended early")
    return out


def _parse_rows(lines, path, p: int, q: int, has_header: bool) -> Dataset:
    """Validate and convert the file's lines one field at a time.

    Blank and whitespace-only lines are skipped, and so is the first record
    when ``has_header``; every other record must hold p + q fields that
    ``float()`` reads as finite numbers.  Errors name the physical line a
    record starts on, which differs from its record count once a quoted
    field has held a newline.
    """
    xs, ys = [], []
    reader = csv.reader(lines)
    prev = 0
    for row in reader:
        lineno, prev = prev + 1, reader.line_num
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
                if any("\udc80" <= ch <= "\udcff" for ch in text):
                    # a byte that was not UTF-8, kept by surrogateescape
                    raw = text.encode("utf-8", "surrogateescape")
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: field {col} is not valid UTF-8: {raw!r}"
                    ) from None
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


def _write_text(path, text: str, newline: str | None = None) -> None:
    """Write ``text`` as UTF-8 to ``path`` from its start, like ``open(path, "w")``.

    The file is created if missing (mode 0o666 less the umask) and not
    truncated on open.  The whole text is handed to the OS in one write,
    and a regular file is then cut at the written length, so it holds
    exactly the new bytes under the same inode and mode.  Other files
    (pipes, ttys, ``/dev/null``) cannot be cut and are left as written.
    The cut follows only a write and flush that succeeded, so a write that
    raises never shortens the file; one that cannot encode the text
    leaves it untouched.  A process killed between the write and the cut
    leaves the whole new text followed by the old file's tail.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline=newline, encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def write_dataset_csv(data: Dataset, path, header: bool = False) -> None:
    """Write a dataset in the layout :func:`parse_dataset_csv` reads.

    The file is rendered in memory and written through ``_write_text``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    if header:
        writer.writerow(
            [f"x{i}" for i in range(1, data.p + 1)]
            + [f"y{j}" for j in range(1, data.q + 1)]
        )
    for xrow, yrow in zip(data.x, data.y):
        writer.writerow([_fmt(v) for v in xrow] + [_fmt(v) for v in yrow])
    _write_text(path, buf.getvalue(), newline="")


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

    Every field is optional: an omitted model matrix is the benchmark
    model's, an omitted penalty field the default schedule's, and any
    other omitted field :class:`SimulationConfig`'s default.  The file is
    read as UTF-8, the encoding of JSON text, whatever the locale.
    Violations raise :class:`ConfigError` naming the offending field, or
    the path for a file that is not UTF-8 or not JSON.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not valid UTF-8 (JSON text is UTF-8): {e}") from None
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

    model_doc = doc.get("model", {})
    matrices = {
        key: _config_matrix(model_doc[key], f"model.{key}")
        for key in CONFIG_SCHEMA["model"]
        if key in model_doc
    }
    # the benchmark model is built only when the config omits one of its matrices
    full = len(matrices) == len(CONFIG_SCHEMA["model"])
    try:
        model = PopulationModel(**matrices) if full else replace(benchmark_model(), **matrices)
    except ValueError as e:
        raise ConfigError(f"model: {e}") from e

    pen_doc = doc.get("penalties", {})
    for key, value in pen_doc.items():
        # the exact type, as JSON true/false load as bool, a subclass of int
        if key.endswith("_rate") and type(value) not in (int, float):
            raise ConfigError(f"penalties.{key}: must be a number, got {value!r}")
        if key.endswith("_shape") and not isinstance(value, str):
            raise ConfigError(f"penalties.{key}: must be a shape name string, got {value!r}")
    try:
        pen = PenaltySchedule(**pen_doc)
    except ValueError as e:
        raise ConfigError(f"penalties: {e}") from e

    given = {key: doc[key] for key in ("sample_sizes", "replications", "base_seed") if key in doc}
    sizes = given.get("sample_sizes", [])
    if not isinstance(sizes, list) or not all(_is_int(n) for n in sizes):
        raise ConfigError("sample_sizes: must be a list of integers")
    for key in ("replications", "base_seed"):
        if not _is_int(given.get(key, 0)):
            raise ConfigError(f"{key}: must be an integer")

    try:
        return SimulationConfig(model=model, pen=pen, **given)
    except ValueError as e:
        raise ConfigError(str(e)) from e


# --- report emission -------------------------------------------------------

_SELECTION_COLUMNS = ("rank", "variable", "phi", "psi", "selected")


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


def _row_records(rows, row_type) -> tuple[list[str], list[dict]]:
    """The report columns of study or probe rows, the fields of
    ``row_type`` in declared order, and one record of them per row, the
    rows sorted by n."""
    columns = [f.name for f in fields(row_type)]
    rows = sorted(rows, key=lambda r: r.n)
    return columns, [{key: getattr(row, key) for key in columns} for row in rows]


def emit_report(result, format: str, path, **metadata) -> None:
    """Write a selection report, study summary or probe table.

    ``format`` is ``"csv"`` (header metadata on ``#`` lines) or
    ``"json-lines"`` (metadata as the first record).  Keyword arguments are
    added to the metadata block.  Numbers keep full round-trip precision.
    An unknown result type or format raises before ``path`` is opened.
    The report is rendered in memory, written over an existing file in
    place in one write and then trimmed to its length, so identical calls
    leave identical bytes whether or not the file existed.  The file is
    not replaced atomically: see the module docstring for what a kill or
    crash mid-write leaves.  ``path`` may also name a pipe or device such
    as ``/dev/stdout``.
    """
    if isinstance(result, SelectionResult):
        columns, records = _SELECTION_COLUMNS, list(_selection_records(result))
        meta = {"report": "selection", "n": result.n, "s_hat": result.s_hat}
    elif isinstance(result, StudySummary):
        columns, records = _row_records(result.rows, StudyRow)
        meta = {"report": "study"}
    elif isinstance(result, ProbeTable):
        columns, records = _row_records(result.points, ProbePoint)
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
    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}={_cell(value)}\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    for rec in records:
        writer.writerow([_cell(rec[c]) for c in columns])
    _write_text(path, buf.getvalue(), newline="")


def _write_jsonl_report(path, meta, records) -> None:
    lines = [json.dumps({"meta": meta})] + [json.dumps(rec) for rec in records]
    _write_text(path, "".join(line + "\n" for line in lines))


def read_report(path, format: str) -> tuple[dict, list[dict]]:
    """Read back a report written by :func:`emit_report`.

    Returns ``(metadata, records)`` with numeric fields parsed back to the
    exact written values.  The inverse of the writers for both formats;
    the file is read as UTF-8, whatever the locale.
    """
    if format == FORMAT_JSON_LINES:
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        if not lines or "meta" not in lines[0]:
            raise ValueError(f"{path}: missing metadata record")
        return lines[0]["meta"], lines[1:]
    if format != FORMAT_CSV:
        raise ValueError(f"format must be 'csv' or 'json-lines', got {format!r}")
    meta: dict = {}
    records: list[dict] = []
    with open(path, newline="", encoding="utf-8") as fh:
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
