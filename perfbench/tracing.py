"""Span tracing of covsel's public functions from outside the package.

``Tracer.install`` replaces each traced function at every name a covsel
module binds it to (``covsel.selection.criterion`` and
``covsel.simulation.criterion`` are both the caller-visible names of
``covsel.covariance.criterion``), so calls are seen whichever module makes
them.  ``Tracer.remove`` puts the original objects back.  Spans live in
memory until the run ends.

A span opened on a thread with no open span of its own (a thread-pool
worker) takes as parent the innermost open span of the thread that
installed the tracer, which during a pooled study is the ``run_study``
span.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass

# Traced functions as "<module>.<function>" under the covsel package.
TRACED = (
    "covariance.criterion",
    "covariance.empirical_covariances",
    "selection.select_variables",
    "selection.phi_scores",
    "selection.psi_scores",
    "simulation.mix_seed",
    "simulation.sample_dataset",
    "simulation.ols_fit",
    "simulation.prediction_error",
    "simulation.summarize",
    "simulation.run_replication",
    "simulation.run_study",
    "io.parse_dataset_csv",
    "io.load_simulation_config",
    "io.emit_report",
    "cli.main",
)

# Spans whose thread CPU time is recorded, for the pool busy fraction.
CPU_TIMED = frozenset({"simulation.run_replication"})


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: int  # perf_counter_ns
    end: int
    thread: int
    cpu_ns: int | None = None
    extra: float | None = None  # per-call quantity from the name's probe
    error: str | None = None  # exception type name if the call raised

    @property
    def duration(self) -> int:
        return self.end - self.start


def _arg(args, kwargs, position, name):
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


def _probe_subset_k3(args, kwargs, result):
    k = _arg(args, kwargs, 1, "k")
    return float(len(k) ** 3)


def _probe_rows(args, kwargs, result):
    return float(_arg(args, kwargs, 1, "n"))


def _probe_input_bytes(args, kwargs, result):
    return float(os.path.getsize(_arg(args, kwargs, 0, "path")))


def _probe_output_bytes(args, kwargs, result):
    return float(os.path.getsize(_arg(args, kwargs, 2, "path")))


def _probe_nonzero(args, kwargs, result):
    return float(result != 0)


def _probe_failed(args, kwargs, result):
    return float(getattr(result, "failure", None) is not None)


# Per-call quantities recorded on a span, computed after the call returns.
PROBES = {
    "covariance.criterion": _probe_subset_k3,
    "simulation.sample_dataset": _probe_rows,
    "io.parse_dataset_csv": _probe_input_bytes,
    "io.emit_report": _probe_output_bytes,
    "cli.main": _probe_nonzero,
    "simulation.run_replication": _probe_failed,
}


class Tracer:
    """Records spans of the traced functions between install and remove."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)  # next() on a count is atomic under the GIL
        self._local = threading.local()
        self._home_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        cpu = name in CPU_TIMED
        spans = self.spans
        home = self._home_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = home[-1]
                except IndexError:
                    parent = None
            sid = next(self._ids)
            stack.append(sid)
            error = None
            result = None
            cpu0 = time.thread_time_ns() if cpu else 0
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = type(e).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                cpu_ns = time.thread_time_ns() - cpu0 if cpu else None
                stack.pop()
                extra = None
                if probe is not None and error is None:
                    try:
                        extra = probe(args, kwargs, result)
                    except (TypeError, ValueError, OSError, AttributeError):
                        extra = None
                spans.append(
                    Span(sid, parent, name, start, end, threading.get_ident(), cpu_ns, extra, error)
                )

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target at each covsel module attribute bound to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._home_stack
        modules = [m for n, m in list(sys.modules.items()) if n == "covsel" or n.startswith("covsel.")]
        for target in TRACED:
            module_name, _, attr = target.rpartition(".")
            home_module = sys.modules.get(f"covsel.{module_name}")
            original = getattr(home_module, attr, None)
            if original is None or not callable(original):
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def remove(self) -> None:
        """Restore every patched attribute to its original object."""
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def leftover_wrappers(self) -> list[str]:
        """Names in covsel modules still bound to a wrapper (empty after remove)."""
        found = []
        for name, module in list(sys.modules.items()):
            if name == "covsel" or name.startswith("covsel."):
                for key, value in vars(module).items():
                    if hasattr(value, "__perfbench_original__"):
                        found.append(f"{name}.{key}")
        return found


def _covered(intervals, lo, hi) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus the part of it that the
    union of its children's intervals covers.  Children on pool threads
    overlap one another, so they are merged, not summed."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - _covered(children.get(s.sid, ()), s.start, s.end) for s in spans}


def layer_stats(spans, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass of the traced body.

    ``passes`` is how many times the body ran under the tracer; counts and
    seconds are divided by it, ratios are not.
    """
    if passes < 1:
        raise ValueError("passes must be >= 1")
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(own[s.sid] for s in by_name.get(name, ())) / 1e9 / passes

    def total_s(name):
        return sum(s.duration for s in by_name.get(name, ())) / 1e9

    def extra(name):
        return sum(s.extra or 0.0 for s in by_name.get(name, ()))

    out: dict[str, float] = {}
    for name in TRACED:
        out[f"{name}.self_s"] = self_s(name)
    for name in (
        "covariance.criterion",
        "covariance.empirical_covariances",
        "simulation.mix_seed",
        "simulation.sample_dataset",
        "simulation.run_replication",
    ):
        out[f"{name}.calls"] = calls(name) / passes
    n_crit = calls("covariance.criterion")
    out["covariance.criterion.us_per_call"] = total_s("covariance.criterion") / n_crit * 1e6 if n_crit else 0.0
    out["covariance.criterion.subset_k3"] = extra("covariance.criterion") / passes
    out["covariance.singular_errors"] = (
        sum(1 for s in by_name.get("covariance.criterion", ()) if s.error == "SingularSubmatrixError") / passes
    )
    out["simulation.sample_dataset.rows"] = extra("simulation.sample_dataset") / passes
    out["simulation.run_replication.failed"] = extra("simulation.run_replication") / passes
    parse_bytes = extra("io.parse_dataset_csv")
    parse_s = total_s("io.parse_dataset_csv")
    out["io.parse_dataset_csv.bytes"] = parse_bytes / passes
    out["io.parse_dataset_csv.mb_per_s"] = parse_bytes / 1e6 / parse_s if parse_s else 0.0
    out["io.emit_report.bytes"] = extra("io.emit_report") / passes
    raised = sum(1 for s in by_name.get("cli.main", ()) if s.error is not None)
    out["cli.main.exit_nonzero"] = (extra("cli.main") + raised) / passes

    busy_num = busy_den = 0.0
    workers_seen = []
    for study in by_name.get("simulation.run_study", ()):
        reps = [s for s in by_name.get("simulation.run_replication", ()) if s.parent == study.sid]
        threads = {s.thread for s in reps}
        if reps:
            busy_num += sum(s.cpu_ns or 0 for s in reps)
            busy_den += len(threads) * study.duration
            workers_seen.append(len(threads))
    out["simulation.run_study.worker_busy_frac"] = busy_num / busy_den if busy_den else 0.0
    out["simulation.run_study.workers"] = float(max(workers_seen, default=0))
    return out


def root_time_s(spans) -> float:
    """Total duration of spans with no parent, in seconds."""
    return sum(s.duration for s in spans if s.parent is None) / 1e9
