import contextlib
import dataclasses
import errno
import gzip
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

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
    summarize,
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

    @pytest.mark.parametrize(
        "text, line",
        [('"1\n",2\nx,3', 3), ('1,2\n"3\n",4\n5,6,7', 4)],
    )
    def test_error_names_physical_line_after_quoted_newline(self, tmp_path, text, line):
        path = tmp_path / "multiline.csv"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match=f": line {line}: "):
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
    # opened as parse_dataset_csv opens it, whatever the locale
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
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


_LINUX_FORK = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and hasattr(os, "fork")),
    reason="files are read in two parts only on Linux",
)


def _assert_no_child():
    # every child has been reaped: none is running and none is a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made during the test, one entry each."""
    calls, real = [], os.fork

    def counting():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", counting)
    return calls


@pytest.fixture
def exit_codes(monkeypatch):
    """The exit codes of the children reaped during the test."""
    codes, real = [], os.waitpid

    def recording(pid, options):
        got, status = real(pid, options)
        codes.append(os.waitstatus_to_exitcode(status))
        return got, status

    monkeypatch.setattr(os, "waitpid", recording)
    return codes


@pytest.fixture
def two_parts(monkeypatch):
    """Every seekable file of a byte or more is read in two parts."""
    monkeypatch.setattr(covsel.io, "SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(covsel.io, "_usable_cpus", lambda: 2)


@_LINUX_FORK
@pytest.mark.usefixtures("two_parts")
class TestTwoPartReadMatchesRowLoop(TestFastPathMatchesRowLoop):
    """Every test of the one-pass read again, with every file of a byte or
    more read in two parts, the second by a forked child."""

    # the same property, strategy and explicit examples; Hypothesis needs a
    # test wrapped for each class that runs it
    test_same_array_or_same_error = settings(deadline=None, max_examples=300)(
        given(_csv_files())(
            TestFastPathMatchesRowLoop.test_same_array_or_same_error.hypothesis.inner_test
        )
    )

    @pytest.fixture(autouse=True)
    def _reaped(self):
        yield
        _assert_no_child()


@_LINUX_FORK
class TestTwoPartRead:
    def _clean_file(self, tmp_path, rng, rows):
        data = Dataset(x=rng.standard_normal((rows, 3)), y=rng.standard_normal((rows, 2)))
        path = tmp_path / "clean.csv"
        write_dataset_csv(data, path, header=True)
        return data, path

    def test_clean_file_above_the_size_never_reaches_row_loop(
        self, tmp_path, rng, monkeypatch, forks
    ):
        monkeypatch.setattr(covsel.io, "_usable_cpus", lambda: 2)
        data, path = self._clean_file(tmp_path, rng, 20_000)
        assert path.stat().st_size > covsel.io.SPLIT_MIN_BYTES

        def forbidden(*args, **kwargs):
            raise AssertionError("row loop used on a clean file")

        monkeypatch.setattr(covsel.io, "_parse_rows", forbidden)
        back = parse_dataset_csv(path, p=3, q=2, has_header=True)
        _assert_no_child()
        assert forks == [os.getpid()]
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.y, data.y)

    @pytest.mark.parametrize(
        "field, message",
        [
            (b"inf", "line 99991: field 2 is not finite: 'inf'"),
            (b"0.5x", "line 99991: field 2 is not numeric: '0.5x'"),
            (b"\xff", "line 99991: field 2 is not valid UTF-8: b'\\xff'"),
        ],
    )
    def test_bad_field_late_in_a_large_file_gets_the_row_loop_message(
        self, tmp_path, monkeypatch, forks, field, message
    ):
        monkeypatch.setattr(covsel.io, "_usable_cpus", lambda: 2)
        lines = [b"0.1234567890123456,0.6543210987654321\n"] * 100_000
        lines[99_990] = b"0.25," + field + b"\n"
        path = tmp_path / "late.csv"
        path.write_bytes(b"".join(lines))
        assert path.stat().st_size > covsel.io.SPLIT_MIN_BYTES
        got = _outcome(lambda: parse_dataset_csv(path, p=1, q=1))
        _assert_no_child()
        assert forks == [os.getpid()]
        assert got == _outcome(lambda: _reference(path, 1, 1, False))
        assert got == (DatasetFormatError, f"{path}: {message}")

    def test_interrupt_in_this_process_part_kills_and_reaps_the_child(
        self, tmp_path, rng, monkeypatch, two_parts, forks, exit_codes
    ):
        # the child would parse for a minute: only a kill ends it sooner
        _, path = self._clean_file(tmp_path, rng, 100)
        parent, real = os.getpid(), covsel.io._loadtxt

        def interrupted(raw, skiprows):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return real(raw, skiprows)

        monkeypatch.setattr(covsel.io, "_loadtxt", interrupted)
        with pytest.raises(KeyboardInterrupt):
            parse_dataset_csv(path, p=3, q=2, has_header=True)
        assert forks == [parent] and exit_codes == [-signal.SIGKILL]
        _assert_no_child()

    @pytest.mark.parametrize("failure", ["raises", "is killed"])
    def test_failed_child_costs_one_pass_here(
        self, tmp_path, rng, monkeypatch, two_parts, forks, exit_codes, failure
    ):
        data, path = self._clean_file(tmp_path, rng, 2_000)
        parent, real = os.getpid(), covsel.io._loadtxt

        def failing_in_child(raw, skiprows):
            if os.getpid() != parent:
                if failure == "raises":
                    raise RuntimeError("child failed")
                os.kill(os.getpid(), signal.SIGKILL)
            return real(raw, skiprows)

        def forbidden(*args, **kwargs):
            raise AssertionError("row loop used on a clean file")

        monkeypatch.setattr(covsel.io, "_loadtxt", failing_in_child)
        monkeypatch.setattr(covsel.io, "_parse_rows", forbidden)
        back = parse_dataset_csv(path, p=3, q=2, has_header=True)
        assert len(forks) == 1
        assert exit_codes == [1 if failure == "raises" else -signal.SIGKILL]
        _assert_no_child()
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.y, data.y)

    def test_fork_failure_reads_in_one_pass(self, tmp_path, rng, monkeypatch, two_parts):
        def no_process():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
        data, path = self._clean_file(tmp_path, rng, 100)
        open_fds = len(os.listdir("/proc/self/fd"))
        back = parse_dataset_csv(path, p=3, q=2, has_header=True)
        assert len(os.listdir("/proc/self/fd")) == open_fds
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.y, data.y)

    @pytest.mark.parametrize("case", ["one CPU", "below the size", "pipe", "second thread"])
    def test_no_fork(self, tmp_path, monkeypatch, case):
        def forbidden():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", forbidden)
        monkeypatch.setattr(covsel.io, "_usable_cpus", lambda: 1 if case == "one CPU" else 2)
        if case != "below the size":
            monkeypatch.setattr(covsel.io, "SPLIT_MIN_BYTES", 0)
        # cut after its second line when all the conditions hold
        text = b"1,2\n3,4\n5,6\n"
        path = tmp_path / "data.csv"
        path.write_bytes(text)
        with contextlib.ExitStack() as stack:
            if case == "pipe":
                r, w = os.pipe()
                stack.callback(os.close, r)
                os.write(w, text)
                os.close(w)
                path = f"/proc/self/fd/{r}"
            if case == "second thread":
                release = threading.Event()
                other = threading.Thread(target=release.wait)
                other.start()
                stack.callback(other.join, timeout=10)
                stack.callback(release.set)
            data = parse_dataset_csv(path, p=1, q=1)
        if case == "second thread":
            assert not other.is_alive()
        np.testing.assert_array_equal(data.x, [[1.0], [3.0], [5.0]])
        np.testing.assert_array_equal(data.y, [[2.0], [4.0], [6.0]])


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _big_rows(rng, rows, newline=b"\n"):
    """``rows`` data lines of 3 + 2 seeded normal fields, all as wide, as a
    list of bytes; 17 digits after the point read back exactly."""
    z = rng.standard_normal((rows, 5))
    return [",".join(f"{v:+.17e}" for v in row).encode() + newline for row in z.tolist()]


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """The first argument of each np.loadtxt call made in this process."""
    calls, real = [], np.loadtxt

    def recording(fname, *args, **kwargs):
        calls.append(fname)
        return real(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    return calls


@_LINUX_FORK
class TestLoadtxtGetsPaths:
    """np.loadtxt reads the text in large C chunks only when it is handed a
    name, so it is never handed a stream; and never the caller's name,
    which it would decompress by its extension."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_clean_file_reaches_loadtxt_as_a_path(
        self, tmp_path, rng, monkeypatch, forks, loadtxt_calls, cpus
    ):
        monkeypatch.setattr(covsel.io, "_usable_cpus", lambda: cpus)
        path = tmp_path / "clean.csv"
        path.write_bytes(b"".join(_big_rows(rng, 20_000)))
        assert path.stat().st_size > covsel.io.SPLIT_MIN_BYTES
        data = parse_dataset_csv(path, p=3, q=2)
        _assert_no_child()
        assert len(forks) == cpus - 1 and len(loadtxt_calls) == 1
        name = loadtxt_calls[0]
        assert type(name) is str and name.startswith("/proc/self/fd/")
        assert _outcome(lambda: data) == _outcome(lambda: _reference(path, 3, 2, False))

    def test_without_descriptor_paths_the_file_is_one_stream(
        self, tmp_path, rng, monkeypatch, two_parts, loadtxt_calls
    ):
        # as where there is no /proc/self/fd: no part can be named, so no child starts
        def forbidden():
            raise AssertionError("forked")

        monkeypatch.setattr(covsel.io, "_FD_DIR", None)
        monkeypatch.setattr(os, "fork", forbidden)
        path = tmp_path / "clean.csv"
        path.write_bytes(b"".join(_big_rows(rng, 100)))
        got = _outcome(lambda: parse_dataset_csv(path, p=3, q=2))
        assert len(loadtxt_calls) == 1 and not isinstance(loadtxt_calls[0], str)
        assert got == _outcome(lambda: _reference(path, 3, 2, False))

    def test_gzip_bytes_are_not_decompressed(self, tmp_path):
        buf = io.BytesIO()
        # the stored file name "x,y\n" makes the first line two fields wide
        with gzip.GzipFile(filename="x,y\n", mode="wb", fileobj=buf, mtime=0) as gz:
            gz.write(b"1,2\n3,4\n")
        path = tmp_path / "data.csv.gz"
        path.write_bytes(buf.getvalue())
        # by its name, loadtxt would read the decompressed rows
        np.testing.assert_array_equal(
            np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8"), [[1, 2], [3, 4]]
        )
        message = r": line 1: field 1 is not valid UTF-8: b'\\x1f\\x8b"
        with pytest.raises(DatasetFormatError, match=message):
            parse_dataset_csv(path, p=1, q=1)


@_LINUX_FORK
class TestPartSetUp:
    """A part whose memory file cannot be made or filled is a failed part:
    the file is read again in one pass, the child is reaped and no
    descriptor is left open."""

    def _file(self, tmp_path, rng):
        path = tmp_path / "data.csv"
        path.write_bytes(b"".join(_big_rows(rng, 2_000)))
        return path

    @pytest.mark.parametrize("call", ["memfd_create", "sendfile"])
    def test_failed_set_up_reads_in_one_pass(
        self, tmp_path, rng, monkeypatch, two_parts, forks, exit_codes, call
    ):
        path = self._file(tmp_path, rng)
        want = _outcome(lambda: _reference(path, 3, 2, False))

        def failing(*args):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(os, call, failing)
        fds = _open_fds()
        got = _outcome(lambda: parse_dataset_csv(path, p=3, q=2))
        assert _open_fds() == fds
        # the child, forked with the same failing call, exits without a reply
        assert len(forks) == 1 and exit_codes in ([1], [-signal.SIGKILL])
        _assert_no_child()
        assert got == want

    def test_two_part_read_leaves_no_descriptor(self, tmp_path, rng, two_parts, forks):
        path = self._file(tmp_path, rng)
        fds = _open_fds()
        got = _outcome(lambda: parse_dataset_csv(path, p=3, q=2))
        assert _open_fds() == fds and len(forks) == 1
        _assert_no_child()
        assert got == _outcome(lambda: _reference(path, 3, 2, False))

    def test_failing_child_leaves_no_descriptor(
        self, tmp_path, rng, monkeypatch, two_parts, exit_codes
    ):
        path = self._file(tmp_path, rng)
        parent, real = os.getpid(), covsel.io._loadtxt

        def failing_in_child(part, skiprows):
            if os.getpid() != parent:
                raise RuntimeError("child failed")
            return real(part, skiprows)

        monkeypatch.setattr(covsel.io, "_loadtxt", failing_in_child)
        fds = _open_fds()
        got = _outcome(lambda: parse_dataset_csv(path, p=3, q=2))
        assert _open_fds() == fds and exit_codes == [1]
        _assert_no_child()
        assert got == _outcome(lambda: _reference(path, 3, 2, False))


def _crlf_file(rng):
    return b"".join(_big_rows(rng, 20_000, b"\r\n")), False


def _latin1_header_file(rng):
    return "x1,x2,x3,y1,y\xe9\n".encode("latin-1") + b"".join(_big_rows(rng, 20_000)), True


def _blank_lines_at_the_cut_file(rng):
    # the rows are all as wide, so the middle byte, where the cut is made,
    # falls among the blank lines between the two halves
    rows = _big_rows(rng, 20_000)
    text = b"".join(rows[:10_000] + [b"\n", b"\r\n", b"\n"] + rows[10_000:])
    assert text[len(text) // 2 - 2 : len(text) // 2 + 2] == b"\n\r\n\n"
    return text, False


@_LINUX_FORK
class TestLargeFileParity:
    """Files above ``SPLIT_MIN_BYTES`` that are not clean LF text, read in
    one pass and in two parts, equal the row loop's reading bit for bit."""

    @pytest.mark.parametrize(
        "make", [_crlf_file, _latin1_header_file, _blank_lines_at_the_cut_file]
    )
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_matches_row_loop(self, tmp_path, rng, monkeypatch, forks, make, cpus):
        monkeypatch.setattr(covsel.io, "_usable_cpus", lambda: cpus)
        text, has_header = make(rng)
        path = tmp_path / "large.csv"
        path.write_bytes(text)
        assert path.stat().st_size > covsel.io.SPLIT_MIN_BYTES
        got = _outcome(lambda: parse_dataset_csv(path, p=3, q=2, has_header=has_header))
        _assert_no_child()
        assert len(forks) == cpus - 1
        want = _outcome(lambda: _reference(path, 3, 2, has_header))
        assert want[0] == (20_000, 3)
        assert got == want


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
        assert cfg.pen.penalty_arg == "label"

    def test_document_that_is_not_utf8_names_the_path(self, tmp_path):
        path = tmp_path / "latin1.config"
        path.write_bytes(b'{"base_seed": "\xff"}')
        with pytest.raises(ConfigError, match="latin1.config: not valid UTF-8"):
            load_simulation_config(path)

    def test_shipped_benchmark_config_loads(self):
        cfg = load_simulation_config(Path(__file__).resolve().parent.parent / "paper.config")
        bench = benchmark_model()
        np.testing.assert_array_equal(cfg.model.b, bench.b)
        np.testing.assert_array_equal(cfg.model.sigma, bench.sigma)
        assert cfg.sample_sizes == (50, 100, 500, 800, 1000, 2000)
        assert cfg.replications == 2000

    def test_full_model_does_not_build_the_benchmark_model(self, tmp_path, monkeypatch):
        def forbidden():
            raise AssertionError("benchmark_model built for a config that gives every matrix")

        monkeypatch.setattr(covsel.io, "benchmark_model", forbidden)
        model = {"b": [[1.0, 0.0, 2.0], [0.0, 0.0, 1.0]], "sigma": np.eye(3).tolist()}
        model["noise_cov"] = [[0.5, 0.0], [0.0, 0.25]]
        path = tmp_path / "full.config"
        path.write_text(json.dumps({"model": model}))
        cfg = load_simulation_config(path)
        for key, value in model.items():
            np.testing.assert_array_equal(getattr(cfg.model, key), value)

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
        with pytest.raises(
            ConfigError, match="penalties: penalty_arg must be 'label' or 'rank', got 'position'"
        ):
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("f_rate", [0.3]),
            ("g_rate", {"x": 1}),
            ("f_rate", "0.3"),
            ("g_rate", True),
            ("f_rate", None),
            ("f_shape", ["reciprocal"]),
            ("g_shape", {"name": "linear"}),
            ("g_shape", 1),
        ],
    )
    def test_mistyped_penalty_field_names_it(self, tmp_path, field, value):
        path = tmp_path / "bad.config"
        path.write_text(json.dumps({"penalties": {field: value}}))
        with pytest.raises(ConfigError, match=f"^penalties\\.{field}: must be "):
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

    def test_json_lines_without_metadata_rejected_on_read(self, tmp_path):
        path = tmp_path / "no-meta.jsonl"
        path.write_text('{"n": 60}\n', encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_report(path, "json-lines")
        assert str(info.value) == f"{path}: missing metadata record"

    def test_unknown_format_rejected_on_read(self, tmp_path):
        with pytest.raises(ValueError) as info:
            read_report(tmp_path / "x", "yaml")
        assert str(info.value) == "format must be 'csv' or 'json-lines', got 'yaml'"


_STUDY_COLUMNS = [
    "n",
    "mean_pred_error",
    "sem_pred_error",
    "correct_rate",
    "median_scaled_criterion",
    "mean_oracle_error",
    "mean_excess_error",
    "failures",
    "replications",
]
_PROBE_COLUMNS = ["n", "median_scaled_criterion", "median_criterion"]


def _table_lines(result, tmp_path):
    """The CSV header and rows of ``result``'s report, and its JSON-lines
    records after the metadata, as text."""
    emit_report(result, "csv", tmp_path / "report.csv")
    emit_report(result, "json-lines", tmp_path / "report.jsonl")
    csv_lines = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
    jsonl_lines = (tmp_path / "report.jsonl").read_text(encoding="utf-8").splitlines()
    return [line for line in csv_lines if not line.startswith("#")], jsonl_lines[1:]


class TestReportColumns:
    def test_study_columns_and_key_order_are_pinned(self, tmp_path, study_summary):
        csv_lines, jsonl_lines = _table_lines(study_summary, tmp_path)
        assert csv_lines[0] == ",".join(_STUDY_COLUMNS)
        assert [list(json.loads(line)) for line in jsonl_lines] == [_STUDY_COLUMNS] * 2

    def test_probe_columns_and_key_order_are_pinned(self, tmp_path):
        table = convergence_probe(
            benchmark_model(), VariableSubset((1, 4, 7), 7), [100, 150], reps=2, seed=3
        )
        csv_lines, jsonl_lines = _table_lines(table, tmp_path)
        assert csv_lines[0] == ",".join(_PROBE_COLUMNS)
        assert [list(json.loads(line)) for line in jsonl_lines] == [_PROBE_COLUMNS] * 2

    def test_a_size_failed_in_every_replication_is_written_as_nan(self, tmp_path, study_summary):
        healthy_row = _table_lines(study_summary, tmp_path)[0][1]
        failed = {
            "selected": (),
            "correct": False,
            "pred_error": math.nan,
            "oracle_error": math.nan,
            "criterion_at_truth": math.nan,
            "failure": "SingularSubmatrixError",
        }
        summary = summarize(
            dataclasses.replace(o, **failed) if o.n == 90 else o for o in study_summary.outcomes
        )
        csv_lines, jsonl_lines = _table_lines(summary, tmp_path)
        assert csv_lines[1:] == [healthy_row, "90,nan,nan,nan,nan,nan,nan,3,3"]
        assert jsonl_lines[1] == (
            '{"n": 90, "mean_pred_error": NaN, "sem_pred_error": NaN, "correct_rate": NaN, '
            '"median_scaled_criterion": NaN, "mean_oracle_error": NaN, '
            '"mean_excess_error": NaN, "failures": 3, "replications": 3}'
        )
        for name, fmt in (("report.csv", "csv"), ("report.jsonl", "json-lines")):
            _, records = read_report(tmp_path / name, fmt)
            assert all(math.isnan(records[1][key]) for key in _STUDY_COLUMNS[1:7])


# Overwrites a longer report with one whose note is not ASCII, in both
# formats, and reads each back; the note is escaped so this source is ASCII.
_UTF8_REPORT_SCRIPT = """
import sys
from covsel import benchmark_model, emit_report, read_report, sample_dataset, select_variables
result = select_variables(sample_dataset(benchmark_model(), 300, seed=99))
for fmt, path in zip(("csv", "json-lines"), sys.argv[1:]):
    with open(path, "wb") as fh:
        fh.write(b"earlier report" * 100)
    emit_report(result, fmt, path, note="\\u03c8")
    meta, records = read_report(path, fmt)
    assert meta["note"] == "\\u03c8", meta
    assert len(records) == 7
"""


def _report_bytes_under(tmp_path, name, locale_env):
    src = Path(covsel.io.__file__).resolve().parent.parent
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
        **locale_env,
    }
    paths = [tmp_path / f"{name}.csv", tmp_path / f"{name}.jsonl"]
    proc = subprocess.run(
        [sys.executable, "-c", _UTF8_REPORT_SCRIPT, *map(str, paths)],
        capture_output=True, text=True, errors="replace", env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [path.read_bytes() for path in paths]


def test_reports_are_written_and_read_as_utf8_under_an_ascii_locale(tmp_path):
    ascii_env = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    ascii_run = _report_bytes_under(tmp_path, "ascii", ascii_env)
    utf8_run = _report_bytes_under(tmp_path, "utf8", {"PYTHONUTF8": "1"})
    assert ascii_run == utf8_run
    assert "# note=\u03c8\n".encode("utf-8") in ascii_run[0]


class TestConfigRejectsBooleans:
    # JSON true/false load as Python bools, which isinstance(..., int) accepts
    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"replications": True}, "replications"),
            ({"replications": False}, "replications"),
            ({"base_seed": False}, "base_seed"),
            ({"base_seed": True}, "base_seed"),
            ({"sample_sizes": [50, True]}, "sample_sizes"),
            ({"sample_sizes": [False]}, "sample_sizes"),
        ],
    )
    def test_boolean_in_integer_field_rejected(self, tmp_path, doc, field):
        path = tmp_path / "bools.config"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"^{field}: must be"):
            load_simulation_config(path)

    def test_integers_still_accepted(self, tmp_path):
        path = tmp_path / "ints.config"
        path.write_text(json.dumps({"replications": 1, "sample_sizes": [50], "base_seed": 0}))
        cfg = load_simulation_config(path)
        assert (cfg.replications, cfg.sample_sizes, cfg.base_seed) == (1, (50,), 0)


class TestDrawField:
    def test_shipped_config_draws_wishart_and_an_omitted_draw_is_rows(self, tmp_path):
        cfg = load_simulation_config(Path(__file__).resolve().parent.parent / "paper.config")
        assert cfg.draw == "wishart"
        path = tmp_path / "empty.config"
        path.write_text("{}")
        assert load_simulation_config(path).draw == "rows"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"draw": "bartlett"}, "draw must be 'rows' or 'wishart', got 'bartlett'"),
            ({"draw": 1}, "draw must be 'rows' or 'wishart', got 1"),
            ({"draw": "wishart", "sample_sizes": [50, 12]}, "sample_sizes must exceed"),
        ],
    )
    def test_bad_draw_is_rejected_naming_the_field(self, tmp_path, doc, message):
        path = tmp_path / "draw.config"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            load_simulation_config(path)


def _write_each_kind(kind, path, selection_result):
    if kind == "dataset":
        write_dataset_csv(sample_dataset(benchmark_model(), 20, seed=3), path, header=True)
    else:
        emit_report(selection_result, kind, path, **PenaltySchedule().describe())


class TestOverwriteInPlace:
    @pytest.mark.parametrize("kind", ["csv", "json-lines", "dataset"])
    @pytest.mark.parametrize(
        "stale", [b"stale line that must not survive\n" * 2000, b"x"], ids=["longer", "shorter"]
    )
    def test_existing_file_holds_exactly_the_new_bytes(
        self, tmp_path, selection_result, kind, stale
    ):
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        _write_each_kind(kind, fresh, selection_result)
        expected = fresh.read_bytes()
        old.write_bytes(stale)
        os.chmod(old, 0o640)
        before = os.stat(old)

        _write_each_kind(kind, old, selection_result)

        after = os.stat(old)
        assert old.read_bytes() == expected
        assert after.st_ino == before.st_ino
        assert after.st_mode == before.st_mode

    @pytest.mark.parametrize("kind", ["csv", "json-lines", "dataset"])
    def test_kill_before_trim_leaves_new_text_then_old_tail(
        self, tmp_path, selection_result, kind, monkeypatch
    ):
        # the documented failure mode of an in-place overwrite: the whole new
        # text is written before the trim, so dying in between leaves it
        # followed by the old file's tail
        class Killed(BaseException):
            pass

        def killed(fd, length):
            raise Killed

        fresh, old = tmp_path / "fresh", tmp_path / "old"
        _write_each_kind(kind, fresh, selection_result)
        expected = fresh.read_bytes()
        stale = b"stale line that must not survive\n" * 2000
        old.write_bytes(stale)

        monkeypatch.setattr(os, "ftruncate", killed)
        with pytest.raises(Killed):
            _write_each_kind(kind, old, selection_result)
        monkeypatch.undo()
        assert old.read_bytes() == expected + stale[len(expected):]

    def test_failed_write_leaves_existing_file_untouched(self, tmp_path, selection_result):
        # a lone surrogate, as surrogateescape decoding yields, cannot be
        # encoded as UTF-8, so the write raises before any byte reaches the file
        path = tmp_path / "keep.csv"
        path.write_bytes(b"earlier report bytes")
        with pytest.raises(UnicodeEncodeError):
            emit_report(selection_result, "csv", path, note="\udcff")
        assert path.read_bytes() == b"earlier report bytes"

    def test_new_file_gets_default_mode(self, tmp_path, selection_result):
        reference, report = tmp_path / "reference", tmp_path / "report.csv"
        with open(reference, "w"):
            pass
        emit_report(selection_result, "csv", report)
        assert os.stat(report).st_mode == os.stat(reference).st_mode

    def test_never_opens_with_truncate(self, tmp_path, selection_result, monkeypatch):
        real_open = os.open
        flags_seen = []

        def recording_open(path, flags, *args, **kwargs):
            flags_seen.append(flags)
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        for kind in ("csv", "json-lines", "dataset"):
            _write_each_kind(kind, tmp_path / "out", selection_result)
        assert len(flags_seen) == 3
        assert all(flags & os.O_TRUNC == 0 for flags in flags_seen)
        assert all(flags & os.O_CREAT for flags in flags_seen)

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_dev_null_accepted(self, selection_result, fmt):
        emit_report(selection_result, fmt, os.devnull)

    def test_bad_request_leaves_existing_file_untouched(
        self, tmp_path, selection_result, monkeypatch
    ):
        path = tmp_path / "keep.csv"
        path.write_bytes(b"earlier report\n")
        before = os.stat(path)

        def forbidden(*args, **kwargs):
            raise AssertionError("the output path was opened")

        monkeypatch.setattr(os, "open", forbidden)
        monkeypatch.setattr("builtins.open", forbidden)
        with pytest.raises(ValueError, match="format"):
            emit_report(selection_result, "yaml", path)
        with pytest.raises(TypeError, match="cannot emit"):
            emit_report({"not": "a result"}, "csv", path)
        monkeypatch.undo()
        assert path.read_bytes() == b"earlier report\n"
        assert os.stat(path).st_mtime_ns == before.st_mtime_ns
