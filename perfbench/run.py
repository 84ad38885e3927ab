"""Benchmark of the perturbext extension pipeline.

Runs one workload, or all of them one after another, each in a worker
process of its own, and prints every metric by name and unit.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload band_extend --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace 1``
traces every other op and reports the per-layer metrics and the tracing
overhead.  The program is imported from ``src/`` next to this directory, so
nothing needs installing; scratch files live in ``.bench_work/``.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Op times, and the last bits of every angle, depend on the BLAS thread
# count; pin it for every child process before any of them loads numpy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("band_extend", "sparse_trial", "nystrom_family", "cli_files")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 15
PREPARE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 110
P90_MIN_OPS = 100          # at least 10 samples beyond the 90th percentile
END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark itself could not complete a run."""


def _run_child(script: str, workdir: Path, timeout: float, what: str, *extra: str):
    """Run one of the benchmark's child processes to completion; its output
    goes to standard error, so that standard output ends with the result."""
    proc = subprocess.Popen([sys.executable, str(HERE / script), str(workdir), *extra],
                            stdout=sys.stderr, cwd=ROOT)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish within {timeout} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"{what} exited with status {code}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool, inject_failure: bool) -> dict:
    workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    trace_path = WORK / "traces" / f"{name}-seed{seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    job = {"src": str(SRC), "workload": name, "seed": seed, "tiny": tiny, "seconds": seconds,
           "trace": trace, "inject_failure": inject_failure, "trace_path": str(trace_path)}
    try:
        (workdir / "job.json").write_text(json.dumps(job))
        _run_child("prepare.py", workdir, PREPARE_TIMEOUT_S, f"{name}: input generation")
        prepared = json.loads((workdir / "prepared.json").read_text())
        t0 = time.monotonic()
        _run_child("worker.py", workdir, WORKER_TIMEOUT_S, f"{name}: worker", repr(t0))
        result = json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["gen_s"], result["gen_repeats"] = prepared["gen_s"], prepared["repeats"]
    result["setup_s"] = result["gen_s"] + result["worker_setup_s"]
    times = result["op_times_s"]
    result["op_p90_s"] = statistics.quantiles(times, n=10)[-1] if len(times) >= P90_MIN_OPS else None
    result["failed"] = len(result["failures"])
    return result


def end_to_end(result) -> dict:
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(result) -> dict:
    return {name: {"value": result["per_layer"][name], "unit": unit}
            for name, unit, _ in per_layer_metrics()}


def _fmt(value, unit="", missing="n/a"):
    return missing if value is None else f"{value:.6g} {unit}".rstrip()


def print_report(name: str, seed: int, trace: bool, r: dict):
    ops = len(r["op_times_s"])
    print(f"{name}  seed={seed}  trace={int(trace)}  untraced timed ops={ops}  attempted={r['attempted']}")
    print(f"  setup_s          {_fmt(r['setup_s'], 's')}  (inputs {r['gen_s']:.3f} s, median of "
          f"{r['gen_repeats']}; worker start to warm-up end {r['worker_setup_s']:.3f} s)")
    print(f"  op_p50_s         {_fmt(r['op_p50_s'], 's')}  (op times: {' '.join(f'{t:.3f}' for t in r['op_times_s'])})")
    print(f"  op_p90_s         {_fmt(r['op_p90_s'], 's', f'n/a ({ops} ops < {P90_MIN_OPS})')}")
    print(f"  peak_rss_mb      {_fmt(r['peak_rss_mb'], 'MB')}")
    print(f"  angle_p50_rad    {_fmt(r['angle_p50_rad'], 'rad')}")
    print(f"  approx_err_p50   {_fmt(r['approx_err_p50'], '', 'n/a (no op returns a kernel approximation)')}")
    print(f"  ops_failed_frac  {r['failed'] / r['attempted']:.6g}  ({r['failed']} of {r['attempted']})")
    for reason in r["failures"][:5]:
        print(f"    failure: {reason}")
    if trace:
        print(f"  traced op_p50_s  {_fmt(r['traced_op_p50_s'], 's')}; untraced {_fmt(r['op_p50_s'], 's')}")
        print("  self time per traced op, by span and calling module:")
        for span, caller, self_s in r["breakdown"]:
            print(f"    {span:<36} from {caller:<12} {self_s:9.4f} s")
        for key, metric in per_layer(r).items():
            print(f"  {key:<44} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for smoke tests")
    parser.add_argument("--inject-failure", action="store_true",
                        help="make the first timed op fail, for smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "perturbext" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'perturbext'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2

    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         args.tiny, args.inject_failure)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_report(name, args.seed, bool(args.trace), results[name])
        if not args.trace and results[name]["op_p50_s"] is None:
            print(f"error: {name}: no op succeeded", file=sys.stderr)
            return 1
    print("env: " + " ".join(f"{k}={v}" for k, v in results[names[-1]]["env"].items()))

    pick = per_layer if args.trace else end_to_end
    metrics = {}
    for name, r in results.items():
        for key, metric in pick(r).items():
            metrics[key if len(results) == 1 else f"{name}.{key}"] = metric
    failed = sum(r["failed"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
