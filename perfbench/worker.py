"""One benchmark run of one workload, in a process of its own.

Started by run.py as ``python3 perfbench/worker.py <workdir> <t0>``: the job,
the inputs and the oracle are files in ``workdir``, and ``t0`` is the
parent's ``time.monotonic()`` just before the start, so set-up time counts
process start and import.  Set-up ends after one untimed warm-up op.  The
result goes to ``workdir/result.json``; the program's own prints go to
standard output, which the parent sends to its standard error.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time

MIN_OPS = 3          # timed ops, even when they overrun --seconds
MIN_OPS_TRACED = 4   # two traced and two untraced


def _median(values):
    return statistics.median(values) if values else None


def cycle_p50(samples, cycle: int):
    """Median over cycles of the mean op time within a cycle.

    Op variants of one cycle can differ in cost by 2x; a plain median of such
    a mix falls between the variants and jumps from run to run."""
    groups = {}
    for i, dt in samples:
        groups.setdefault((i - 1) // cycle, []).append(dt)
    return _median([statistics.fmean(g) for g in groups.values()])


def environment() -> dict:
    """Thread count, core count and versions the figures depend on."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')}-{blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas}


def main(workdir: str, t0: float) -> int:
    with open(os.path.join(workdir, "job.json")) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import numpy as np
    from perturbext.matrixcore import ConvergenceError
    from tracer import Capture, Tracer
    from workloads import WORKLOADS, CheckFailed, Tally

    wl = WORKLOADS[job["workload"]]
    with open(os.path.join(workdir, "prepared.json")) as fh:
        params = json.load(fh)["params"]
    with np.load(os.path.join(workdir, "inputs.npz")) as data:
        arrays = {key: data[key] for key in data.files}
    state = wl.load(arrays, params, workdir)
    capture = Capture(wl.captures)
    capture.install()

    def run(i):
        op = wl.op(state, i)
        start = time.perf_counter()
        try:
            if job["inject_failure"] and i == 1:
                raise ConvergenceError("injected failure")
            out, err = op(), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, err = None, exc
        return out, err, time.perf_counter() - start

    out0, err0, _ = run(0)
    setup_s = time.monotonic() - t0

    with np.load(os.path.join(workdir, "oracle.npz")) as data:
        oracle = {key: data[key] for key in data.files}
    tally = Tally()

    def judge(i, out, err):
        records = capture.take()
        if err is not None:
            return f"op {i} raised {type(err).__name__}: {err}"
        try:
            wl.check(state, i, out, records, oracle, tally)
        except CheckFailed as exc:
            return f"op {i}: {exc}"
        except Exception as exc:  # output of an unexpected form
            return f"op {i}: check raised {type(exc).__name__}: {exc}"
        return None

    failures = [reason for reason in (judge(0, out0, err0),) if reason]
    attempted = 1
    tracer = Tracer() if job["trace"] else None
    # a run stops only after whole cycles, so that every run times the same
    # mix of op variants; a traced run alternates untraced and traced cycles
    unit = wl.cycle * (2 if tracer else 1)
    min_ops = -(-(MIN_OPS_TRACED if tracer else MIN_OPS) // unit) * unit
    times = {False: [], True: []}
    i = 1
    begin = time.monotonic()
    while True:
        done = [dt for _, dt in times[False] + times[True]]
        if (i - 1) % unit == 0 and i - 1 >= min_ops:
            next_unit = statistics.fmean(done) * unit if done else 0.0
            if time.monotonic() - begin + next_unit > job["seconds"]:
                break
        traced = tracer is not None and (i - 1) // wl.cycle % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_op(i)
        out, err, dt = run(i)
        if traced:
            tracer.end_op()
            tracer.uninstall()
        reason = judge(i, out, err)
        attempted += 1
        if reason:
            failures.append(reason)
        else:
            times[traced].append((i, dt))
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    capture.uninstall()

    result = {
        "env": environment(),
        "worker_setup_s": setup_s,
        "op_times_s": [dt for _, dt in times[False]],
        "op_p50_s": cycle_p50(times[False], wl.cycle),
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "angle_p50_rad": _median(tally.angles),
        "approx_err_p50": _median(tally.approx_errs),
    }
    if tracer is not None:
        untraced, traced = result["op_p50_s"], cycle_p50(times[True], wl.cycle)
        overhead = traced - untraced if untraced is not None and traced is not None else 0.0
        cover = tally.covered / tally.bounded if tally.bounded else 0.0
        result["per_layer"] = tracer.metrics(overhead, cover)
        result["traced_op_p50_s"] = traced
        result["breakdown"] = tracer.breakdown()[:8]
        tracer.write(job["trace_path"])
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
