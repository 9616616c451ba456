"""covsel benchmark: entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere; the checkout root is the parent of this file's
directory and the program is imported from its ``src``.  One workload
process does all timed work; set-up time is sampled in further fresh
processes, one at a time.  The last line of standard output is the result
as one JSON object.  See perfbench/README.md.
"""

import os

# Pin BLAS to one thread in this process and every process it starts, so
# the pooled study's --jobs threads are the only compute threads.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 6  # fresh processes sampled for setup_s, besides the workload process
RUN_LIMIT_S = 170  # the whole run must finish within 180 s

# Gated metrics: reported on every workload, never zero.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "frac",
}
# Recorded and printed beside them, not gated (see perfbench/README.md).
DETAIL_UNITS = {
    "raw_setup_s": "s",
    "raw_wall_s": "s",
    "host_slowdown": "ratio",
    "reps_per_s": "1/s",
    "selects_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "latency_samples": "count",
    "input_mb_per_s": "MB/s",
    "failed_frac": "frac",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import covsel from this checkout's src, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "covsel", "__init__.py")):
        fail(f"no covsel package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import covsel

    if not os.path.abspath(covsel.__file__).startswith(SRC + os.sep):
        fail(f"covsel imported from {covsel.__file__}, not from {SRC}")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # benchmark checkouts need not be git repositories
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def provenance(workloads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu_model(),
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_pins": BLAS_PINS,
        "git_commit": git_commit(),
    }


def spawn(job, deadline):
    """Run one workload process to completion and return its result."""
    env = dict(os.environ, PYTHONPATH=SRC)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before starting a workload process")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        fail(f"workload process for {job['workload']} ({job['mode']}) timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"workload process for {job['workload']} ({job['mode']}) exited {proc.returncode}")
    with open(job["result"]) as fh:
        res = json.load(fh)
    if not os.path.abspath(res["covsel_file"]).startswith(SRC + os.sep):
        fail(f"workload process imported covsel from {res['covsel_file']}, not from {SRC}")
    return res


def end_to_end(res, setups):
    """Times are divided by the host slowdown measured with them (see
    calibrate.py); ``setups`` holds (set-up seconds, slowdown) pairs."""
    timed = res["timed"]
    return {
        "setup_s": statistics.median(s for s, _ in setups) / statistics.median(k for _, k in setups),
        "wall_s": statistics.fmean(timed["walls"]) / timed["slowdown"],
        "peak_rss_mb": res["peak_rss_mb"],
        "success_frac": (res["attempted"] - res["failed"]) / res["attempted"],
    }


def details(res, setups, throughput):
    """The metrics printed beside the gated ones; ``throughput`` names the
    operations-per-second figure of the workload.  Times here are as
    measured, not normalised."""
    timed = res["traced"] if "traced" in res else res["timed"]
    lat = timed["latencies"]
    wall = statistics.fmean(timed["walls"])
    out = {}
    if "slowdown" in timed:
        out = {"raw_setup_s": statistics.median(s for s, _ in setups), "raw_wall_s": wall, "host_slowdown": timed["slowdown"]}
    return out | {
        throughput: timed["ops"] / sum(timed["walls"]),
        "latency_ms_p50": statistics.median(lat) * 1e3,
        "latency_ms_p90": (statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]) * 1e3,
        "latency_samples": len(lat),
        "input_mb_per_s": res["input_bytes_per_pass"] / wall / 1e6,
        "failed_frac": res["failed"] / res["attempted"],
    }


def run_one(name, seed, seconds, trace, deadline, workloads):
    wl = workloads.WORKLOADS[name]
    ctx = workloads.Context(root=ROOT, workdir=WORKDIR, seed=seed)
    sizes = wl.prepare(ctx)
    job = {"root": ROOT, "workdir": WORKDIR, "seed": seed, "workload": name, "seconds": seconds, "trace": trace}

    setups = []
    for i in range(SETUP_PROBES):
        probe = dict(job, mode="setup", result=os.path.join(WORKDIR, f"setup-{i}.json"))
        probed = spawn(probe, deadline)
        setups.append((probed["setup_s"], probed["setup_slowdown"]))
    res = spawn(dict(job, mode="run", result=os.path.join(WORKDIR, "result.json")), deadline)
    setups.append((res["setup_s"], res["setup_slowdown"]))

    if trace:
        metrics = {k: (v, unit_of_layer(k)) for k, v in sorted(res["layers"].items())}
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(res, setups).items()}
    timed = res["traced"] if trace else res["timed"]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
        "passes": len(timed["walls"]),
        "setup_samples": setups,
        "blas_threads_measured": res["blas_threads"],
        "check": res["check"],
        "notes": res["notes"],
        "missing_traced_functions": res.get("missing", []),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "details": details(res, setups, wl.throughput),
    }
    return res, metrics, record


def unit_of_layer(name):
    stat = name.rsplit(".", 1)[-1]
    return {
        "self_s": "s", "pass_s": "s", "unattributed_s": "s", "us_per_call": "us",
        "mb_per_s": "MB/s", "bytes": "B", "overhead_frac": "frac", "worker_busy_frac": "frac",
    }.get(stat, "count")


def print_table(name, metrics):
    for key, (value, unit) in metrics.items():
        print(f"{name:20s} {key:45s} {value:14.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the workload process instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        fail("--seconds must be positive")

    load_program()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            fail(f"unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}, all")
    os.makedirs(WORKDIR, exist_ok=True)
    prov = provenance(workloads)

    attempted = failed = 0
    correct = True
    all_metrics = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        res, metrics, record = run_one(name, args.seed, args.seconds, args.trace, deadline, workloads)
        record["provenance"] = prov
        with open(os.path.join(WORKDIR, f"record-{name}-trace{args.trace}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
        print_table(name, metrics)
        if not args.trace:
            print_table(name, {f"({k})": (v, DETAIL_UNITS[k]) for k, v in record["details"].items()})
        print(json.dumps({k: record[k] for k in ("workload", "passes", "check", "notes")}))
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["failed"] == 0
        all_metrics[name] = metrics
    print(json.dumps({"provenance": prov}))

    if len(names) == 1:
        out = {k: {"value": v, "unit": u} for k, (v, u) in all_metrics[names[0]].items()}
    else:
        out = {f"{w}.{k}": {"value": v, "unit": u} for w, m in all_metrics.items() for k, (v, u) in m.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
