#!/usr/bin/env python3
"""Time and size the sparse pipeline's set-up and one extension at a given n.

For each ``--n`` it starts one fresh process, and only after that process has
finished the next one, so each peak RSS belongs to one size alone.  The
process generates ``gen_clustered_dataset(n, seed=3)`` (81 features),
standardizes it, builds its Gaussian kernel (gamma 0.1) kept at its largest
0.1 fraction with ``build_sparse_kernel``, and runs one ``pert_extend`` of a
``sparse:0.5`` selection with m = 5.

OpenBLAS and OpenMP run at one thread unless OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS is already set.

Usage: python scripts/scale_probe.py --n N [N ...]
Output: one line per n: the wall time of each stage in seconds, the nnz of
the sparse kernel, and the process's peak RSS in MB (``getrusage``).
"""

import argparse
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

# both must be set before numpy is first imported, here and in the children
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

GAMMA, KEEP, Q, M = 0.1, 0.1, 0.5, 5


def probe(n: int) -> str:
    """The output line of one pipeline run at n, in this process."""
    from perturbext.extension import ExtensionConfig, Selector, pert_extend
    from perturbext.kernels import KernelSpec, build_sparse_kernel, gen_clustered_dataset, standardize

    times = {}

    def stage(name, call):
        start = time.perf_counter()
        out = call()
        times[name] = time.perf_counter() - start
        return out

    ds = stage("data", lambda: gen_clustered_dataset(n=n, seed=3))
    ds = stage("standardize", lambda: standardize(ds))
    K = stage("sparse_kernel", lambda: build_sparse_kernel(ds, KernelSpec.gaussian(GAMMA), KEEP))
    stage("extension", lambda: pert_extend(K, Selector.sparse_top_q(Q), ExtensionConfig(m=M)))
    # ru_maxrss is in kilobytes on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stages = "  ".join(f"{name}={t:.3f}" for name, t in times.items())
    return f"n={n}  {stages}  nnz={K.nnz}  peak_rss_mb={peak_mb:.1f}"


def _child(n: int, conn) -> None:
    conn.send(probe(n))
    conn.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="set-up and extension cost of the sparse pipeline at n")
    parser.add_argument("--n", type=int, nargs="+", required=True, help="sizes, each probed in a fresh process")
    args = parser.parse_args(argv)
    if min(args.n) < 2:
        parser.error("--n must be at least 2")
    ctx = multiprocessing.get_context("spawn")
    for n in args.n:
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child, args=(n, send))
        child.start()
        send.close()
        try:
            result = recv.recv()
        except EOFError:
            result = None
        child.join()
        if result is None:
            print(f"n={n}: the probe process exited {child.exitcode} without a result", file=sys.stderr)
            return 1
        print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
