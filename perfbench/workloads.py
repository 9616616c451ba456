"""The benchmark workloads.

Each workload has these steps:

``prepare(ctx)``   harness only, in the driving process: writes the input
                   files the program will read.  Not part of any metric.
``build(ctx)``     in the workload process, before timing: draws harness
                   data (timed separately and excluded from ``setup_s``)
                   and builds the program-side inputs.  Returns the state
                   and the seconds spent on harness data generation.  The
                   state holds ``requests``, the calls one pass makes in
                   turn, each timed on its own, and ``ops``, the operations
                   one pass attempts.
``calibration(state)``  a unit of harness-owned work of the same kind as
                   the requests, and its time on the reference host (see
                   calibrate.py).
``collect`` / ``check``  outside the timed region: record the outputs of a
                   pass, compare passes with each other and with the NumPy
                   oracle.

``throughput`` names the workload's operations-per-second figure.

The program receives only generated inputs; every draw comes from the
workload seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import oracle

# select-wide: wide predictors, where criterion work dominates
WIDE_P, WIDE_Q, WIDE_N, WIDE_ACTIVE, WIDE_DATASETS = 48, 5, 2000, 7, 100
WIDE_G_RATE = 0.4
# select-csv: one large file, where parsing dominates
CSV_ROWS = 100_000
CSV_CALIBRATION_ROWS = 400
CSV_PENALTIES = {"f_rate": 0.25, "g_rate": 0.75, "f_shape": "reciprocal", "g_shape": "linear", "penalty_arg": "label"}
# study-paper-threads: paper.config with only the replication count cut
PAPER_REPLICATIONS = 10


def derive_seed(seed: int, tag: int) -> int:
    """A 32-bit seed for one use of the workload seed."""
    return int(np.random.SeedSequence([int(seed), tag]).generate_state(1, np.uint32)[0])


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class Context:
    root: str  # checkout root
    workdir: str  # scratch directory inside the checkout
    seed: int


@dataclass
class Checks:
    """Failures found outside the timed region, as failed operations."""

    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, ops: int, note: str) -> None:
        self.failed += ops
        if len(self.notes) < 20:
            self.notes.append(note)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _read_report_rows(path):
    """Data rows of a CSV report, parsed without covsel code."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    return list(csv.DictReader(line for line in lines if not line.startswith("#")))


def _main_quiet(argv) -> tuple[int, str]:
    """Run ``covsel.cli.main`` in-process, capturing what it prints."""
    from covsel import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _check_same(digests, checks):
    """Every pass of a run must produce the same output as the first.

    ``digests`` holds one (digest, ops) pair per pass."""
    for i, (d, ops) in enumerate(digests[1:], start=2):
        if d != digests[0][0]:
            checks.fail(ops, f"pass {i} output differs from pass 1")


# --- study-paper-threads ---------------------------------------------------


class StudyPaperThreads:
    """covsel simulate in-process on paper.config with --jobs nproc."""

    throughput = "reps_per_s"  # one operation is one replication

    def _paths(self, ctx):
        return os.path.join(ctx.workdir, "paper-threads.config"), os.path.join(ctx.workdir, "paper-threads.csv")

    def prepare(self, ctx):
        with open(os.path.join(ctx.root, "paper.config")) as fh:
            doc = json.load(fh)
        doc["replications"] = PAPER_REPLICATIONS
        config_path, _ = self._paths(ctx)
        with open(config_path, "w") as fh:
            json.dump(doc, fh, indent=2)
        return {
            "base_seed": derive_seed(ctx.seed, 2),
            "sample_sizes": doc["sample_sizes"],
            "replications": PAPER_REPLICATIONS,
            "parallel": doc.get("parallel"),
            "jobs": nproc(),
        }

    def build(self, ctx):
        config_path, out_path = self._paths(ctx)
        with open(config_path) as fh:
            doc = json.load(fh)
        argv = [
            "simulate", "--config", config_path, "--seed", str(derive_seed(ctx.seed, 2)),
            "--jobs", str(nproc()), "--out", out_path,
        ]
        width = len(doc["model"]["b"][0]) + len(doc["model"]["b"])
        return {
            "requests": [lambda: _main_quiet(argv)[0]],
            "model": doc["model"],
            "penalties": doc["penalties"],
            "out": out_path,
            "ops": len(doc["sample_sizes"]) * doc["replications"],
            "bytes": sum(2 * n * width * 8 for n in doc["sample_sizes"]) * doc["replications"],
            "digests": [],
            "rows": [],
        }, 0.0

    def input_bytes(self, state):
        return state["bytes"]

    def calibration(self, state):
        """Five times, draw 200 rows from the paper model and run the
        oracle's selection with the paper penalties: 0.0035 s on the
        reference host."""
        b, sigma, noise = (np.asarray(state["model"][k]) for k in ("b", "sigma", "noise_cov"))
        pen = state["penalties"]
        args = (pen["f_rate"], pen["g_rate"], pen["f_shape"], pen["g_shape"], pen["penalty_arg"])

        def unit():
            rng = np.random.default_rng(0)
            return [oracle.selection(*draw(b, sigma, noise, 200, rng), *args) for _ in range(5)]

        return unit, 0.0035

    def collect(self, state, ops, outputs, checks):
        (rc,) = outputs
        if rc != 0:
            checks.fail(ops, f"covsel simulate exited {rc}")
            state["digests"].append((None, ops))
            return
        with open(state["out"], "rb") as fh:
            state["digests"].append((_digest(fh.read()), ops))
        rows = _read_report_rows(state["out"])
        failures = sum(int(r["failures"]) for r in rows)
        if failures:
            checks.fail(failures, f"{failures} replications failed")
        if sum(int(r["replications"]) for r in rows) != ops:
            checks.fail(ops, "report replication count differs from the config")
        state["rows"] = rows

    def check(self, ctx, state, checks):
        _check_same(state["digests"], checks)
        return {
            "digest": state["digests"][0][0] if state["digests"] else None,
            "stats": {
                r["n"]: {
                    "exact_recovery_rate": float(r["correct_rate"]),
                    "mean_excess_error": float(r["mean_excess_error"]),
                }
                for r in state["rows"]
            },
        }


# --- select-wide -----------------------------------------------------------


def wide_model(seed: int):
    """b (q, p) with WIDE_ACTIVE nonzero columns, AR(1) sigma, noise 0.5 I."""
    rng = np.random.default_rng(derive_seed(seed, 3))
    active = np.sort(rng.choice(WIDE_P, WIDE_ACTIVE, replace=False))
    b = np.zeros((WIDE_Q, WIDE_P))
    b[:, active] = rng.uniform(1.0, 3.0, (WIDE_Q, WIDE_ACTIVE)) * rng.choice([-1.0, 1.0], (WIDE_Q, WIDE_ACTIVE))
    idx = np.arange(WIDE_P)
    sigma = 0.5 ** np.abs(np.subtract.outer(idx, idx))
    return b, sigma, 0.5 * np.eye(WIDE_Q), tuple(int(i) + 1 for i in active)


def draw(b, sigma, noise_cov, n, rng):
    """n rows of x ~ N(0, sigma) and y = b x + N(0, noise_cov)."""
    x = rng.standard_normal((n, sigma.shape[0])) @ np.linalg.cholesky(sigma).T
    y = x @ b.T + rng.standard_normal((n, noise_cov.shape[0])) @ np.linalg.cholesky(noise_cov).T
    return x, y


class SelectWide:
    """select_variables on WIDE_DATASETS wide datasets drawn before timing."""

    throughput = "selects_per_s"  # one operation is one selection

    def prepare(self, ctx):
        *_, truth = wide_model(ctx.seed)
        return {"datasets": WIDE_DATASETS, "p": WIDE_P, "q": WIDE_Q, "n": WIDE_N, "active": list(truth)}

    def build(self, ctx):
        from covsel import covariance, selection

        b, sigma, noise, truth = wide_model(ctx.seed)
        rng = np.random.default_rng(derive_seed(ctx.seed, 4))
        datasets, harness_s = [], 0.0
        for _ in range(WIDE_DATASETS):
            t = time.perf_counter()
            x, y = draw(b, sigma, noise, WIDE_N, rng)
            harness_s += time.perf_counter() - t
            datasets.append(covariance.Dataset(x=x, y=y))
        pen = selection.PenaltySchedule(g_rate=WIDE_G_RATE)
        # looked up at call time, so the tracer's wrapper is seen
        requests = [lambda d=d: selection.select_variables(d, pen, penalty_arg="rank") for d in datasets]
        state = {"datasets": datasets, "requests": requests, "ops": len(requests), "truth": truth, "first": {}, "calls": {}}
        return state, harness_s

    def input_bytes(self, state):
        return sum(d.x.nbytes + d.y.nbytes for d in state["datasets"])

    def calibration(self, state):
        """The oracle's selection on the first dataset: 0.011 s on the reference host."""
        data = state["datasets"][0]
        return (lambda: oracle.selection(data.x, data.y, 0.25, WIDE_G_RATE, "reciprocal", "linear", "rank")), 0.011

    def collect(self, state, ops, results, checks):
        for i, r in enumerate(results):
            got = (r.phi.tobytes(), r.sigma_hat.tobytes(), r.psi.tobytes(), r.selected)
            state["calls"][i] = state["calls"].get(i, 0) + 1
            first = state["first"].setdefault(i, got)
            if got != first:
                checks.fail(1, f"dataset {i}: result differs from its first call")

    def check(self, ctx, state, checks):
        exact = 0
        for i, data in enumerate(state["datasets"]):
            phi, sigma_hat, psi, selected = state["first"][i]
            ref = oracle.selection(data.x, data.y, 0.25, WIDE_G_RATE, "reciprocal", "linear", "rank")
            bad = oracle.mismatches(
                np.frombuffer(phi), np.frombuffer(sigma_hat, dtype=int), np.frombuffer(psi), selected, ref
            )
            if bad:
                checks.fail(state["calls"][i], f"dataset {i}: oracle mismatch in {','.join(bad)}")
            exact += selected == state["truth"]
        return {
            "digest": _digest(*(state["first"][i] for i in sorted(state["first"]))),
            "stats": {"exact_recovery_rate": exact / len(state["datasets"])},
        }


# --- select-csv ------------------------------------------------------------


def csv_arrays(seed: int):
    """CSV_ROWS rows drawn from covsel's benchmark model."""
    from covsel import simulation

    model = simulation.benchmark_model()
    rng = np.random.default_rng(derive_seed(seed, 5))
    return draw(np.asarray(model.b), np.asarray(model.sigma), np.asarray(model.noise_cov), CSV_ROWS, rng)


class SelectCsv:
    """covsel select in-process on a CSV_ROWS-row file written by prepare."""

    throughput = "selects_per_s"

    def _paths(self, ctx):
        return os.path.join(ctx.workdir, "select-csv.csv"), os.path.join(ctx.workdir, "select-csv-report.csv")

    def prepare(self, ctx):
        x, y = csv_arrays(ctx.seed)
        data_path, _ = self._paths(ctx)
        with open(data_path, "w") as fh:
            for row in np.hstack([x, y]).tolist():
                fh.write(",".join(map(repr, row)))
                fh.write("\n")
        return {"rows": CSV_ROWS, "p": x.shape[1], "q": y.shape[1], "bytes": os.path.getsize(data_path)}

    def build(self, ctx):
        data_path, out_path = self._paths(ctx)
        argv = ["select", "--input", data_path, "--p", "7", "--q", "5", "--out", out_path]
        argv += ["--f-rate", str(CSV_PENALTIES["f_rate"]), "--g-rate", str(CSV_PENALTIES["g_rate"])]
        argv += ["--f-shape", CSV_PENALTIES["f_shape"], "--g-shape", CSV_PENALTIES["g_shape"]]
        argv += ["--penalty-arg", CSV_PENALTIES["penalty_arg"]]
        t = time.perf_counter()
        with open(data_path) as fh:
            head = [next(fh) for _ in range(CSV_CALIBRATION_ROWS)]
        harness_s = time.perf_counter() - t
        state = {
            "requests": [lambda: _main_quiet(argv)], "ops": 1, "head": head,
            "data": data_path, "out": out_path, "digests": [], "report": None, "printed": None,
        }
        return state, harness_s

    def input_bytes(self, state):
        return os.path.getsize(state["data"])

    def calibration(self, state):
        """Parse the file's first rows with the csv module and float():
        0.004 s on the reference host."""
        head = state["head"]

        def unit():
            return [[float(v) for v in row] for row in csv.reader(head)]

        return unit, 0.004

    def collect(self, state, ops, outputs, checks):
        ((rc, printed),) = outputs
        if rc != 0:
            checks.fail(ops, f"covsel select exited {rc}")
            state["digests"].append((None, ops))
            return
        with open(state["out"], "rb") as fh:
            state["digests"].append((_digest(fh.read(), printed), ops))
        if state["report"] is None:
            state["report"] = _read_report_rows(state["out"])
            state["printed"] = printed

    def check(self, ctx, state, checks):
        _check_same(state["digests"], checks)
        if state["report"] is None:
            return {"digest": None, "stats": {}}
        rows = sorted(state["report"], key=lambda r: int(r["rank"]))
        p = len(rows)
        sigma_hat = [int(r["variable"]) for r in rows]
        phi = np.empty(p)
        for r in rows:
            phi[int(r["variable"]) - 1] = float(r["phi"])
        psi = np.array([float(r["psi"]) for r in rows])
        selected = tuple(sorted(int(r["variable"]) for r in rows if r["selected"] == "true"))
        x, y = csv_arrays(ctx.seed)
        pen = CSV_PENALTIES
        ref = oracle.selection(x, y, pen["f_rate"], pen["g_rate"], pen["f_shape"], pen["g_shape"], pen["penalty_arg"])
        bad = oracle.mismatches(phi, sigma_hat, psi, selected, ref)
        if f"selected: {','.join(map(str, selected))}" not in state["printed"]:
            bad.append("printed selection")
        if bad:
            checks.fail(len(state["digests"]), f"oracle mismatch in {','.join(bad)}")
        return {"digest": state["digests"][0][0], "stats": {"selected": list(selected)}}


WORKLOADS = {
    "study-paper-threads": StudyPaperThreads(),
    "select-wide": SelectWide(),
    "select-csv": SelectCsv(),
}
