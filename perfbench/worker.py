"""One workload process: set up, run timed passes, check outputs.

Started by ``run.py`` as ``python3 perfbench/worker.py '<json job>'`` with
``PYTHONPATH`` pointing at the checkout's ``src`` and BLAS threads pinned.
Writes its result as JSON to the job's ``result`` path.  In ``setup`` mode
it stops after building the inputs and calibrating the host's speed, so
the caller can sample set-up time in fresh processes.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: the program's import included

import covsel  # noqa: E402

T1 = time.perf_counter()  # the harness's own imports, timed apart and excluded

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HARNESS_IMPORT_S = time.perf_counter() - T1


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_passes(wl, state, seconds, checks, cal=None):
    """Run timed passes until their summed time reaches ``seconds``.

    A pass makes the workload's requests in turn and its time is the sum
    of theirs.  With a calibrator, each request is followed by calibration
    units for a share of its time, and that time counts towards
    ``seconds`` too."""
    walls, latencies, ops_total = [], [], 0
    while not walls or sum(walls) + (cal.seconds if cal else 0.0) < seconds:
        outputs, wall = [], 0.0
        for request in state["requests"]:
            t = time.perf_counter()
            outputs.append(request())
            latencies.append(time.perf_counter() - t)
            wall += latencies[-1]
            if cal is not None:
                cal.run_for(calibrate.SHARE * latencies[-1])
        walls.append(wall)
        ops_total += state["ops"]
        wl.collect(state, state["ops"], outputs, checks)
    out = {"walls": walls, "latencies": latencies, "ops": ops_total}
    if cal is not None:
        out.update(cal_units=cal.units, cal_s=cal.seconds, slowdown=cal.slowdown())
    return out


def main(job):
    ctx = workloads.Context(root=job["root"], workdir=job["workdir"], seed=job["seed"])
    wl = workloads.WORKLOADS[job["workload"]]
    state, harness_s = wl.build(ctx)
    setup_s = time.perf_counter() - T0 - HARNESS_IMPORT_S - harness_s
    # the host's speed right after set-up, from calibration for as long again
    cal = calibrate.Calibrator(*wl.calibration(state))
    cal.run_for(setup_s)
    result = {
        "setup_s": setup_s,
        "setup_slowdown": cal.slowdown(),
        "harness_s": HARNESS_IMPORT_S + harness_s,
        "covsel_file": covsel.__file__,
    }
    if job["mode"] == "setup":
        return result

    checks = workloads.Checks()
    seconds = job["seconds"]
    if job["trace"]:
        # untraced reference passes, then the same body under the tracer
        result["untraced"] = run_passes(wl, state, seconds / 2, checks)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(wl, state, seconds / 2, checks)
        finally:
            tracer.remove()
        leftover = tracer.leftover_wrappers()
        if leftover:
            checks.fail(traced["ops"], f"wrappers left after tracing: {leftover}")
        passes = len(traced["walls"])
        layers = tracing.layer_stats(tracer.spans, passes)
        base = statistics.median(result["untraced"]["walls"])
        layers["trace.overhead_frac"] = (statistics.median(traced["walls"]) - base) / base
        layers["trace.pass_s"] = statistics.median(traced["walls"])
        layers["trace.unattributed_s"] = (sum(traced["walls"]) - tracing.root_time_s(tracer.spans)) / passes
        result.update(traced=traced, layers=layers, missing=tracer.missing)
        timed = traced
    else:
        timed = run_passes(wl, state, seconds, checks, calibrate.Calibrator(*wl.calibration(state)))
        result["timed"] = timed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["input_bytes_per_pass"] = wl.input_bytes(state)
    result["check"] = wl.check(ctx, state, checks)
    result["failed"] = checks.failed
    result["notes"] = checks.notes
    result["attempted"] = timed["ops"] + result.get("untraced", {}).get("ops", 0)
    result["blas_threads"] = blas_threads()
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    out = main(job)
    with open(job["result"], "w") as fh:
        json.dump(out, fh)
