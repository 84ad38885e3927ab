"""Inputs and oracle of one benchmark run, in a process of its own.

Started by run.py as ``python3 perfbench/prepare.py <workdir>`` before the
worker.  It generates the inputs from the seed ``SETUP_REPEATS`` times and
records the median time, then computes the oracle, untimed.  Inputs, oracle
and parameters are written to ``workdir``.

This work stays out of run.py because on Linux a process's peak resident
memory starts from the peak of the process that started it: the worker,
started by a run.py that never loads numpy, then reports the peak of the
ops alone.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

SETUP_REPEATS = 3   # input generation is repeated and its median taken


def main(workdir: str) -> int:
    with open(os.path.join(workdir, "job.json")) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import numpy as np
    from workloads import WORKLOADS

    wl = WORKLOADS[job["workload"]]
    gen_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        arrays, params = wl.generate(job["seed"], job["tiny"], workdir)
        gen_times.append(time.perf_counter() - start)
    np.savez(os.path.join(workdir, "inputs.npz"), **arrays)
    np.savez(os.path.join(workdir, "oracle.npz"), **wl.oracle(arrays, params))
    with open(os.path.join(workdir, "prepared.json"), "w") as fh:
        json.dump({"params": params, "gen_s": statistics.median(gen_times), "repeats": SETUP_REPEATS}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
