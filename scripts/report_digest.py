#!/usr/bin/env python3
"""Print a SHA-256 digest of every report a fixed set of small CLI runs writes.

A refactor must not change any number the package reports.  Run this script
in two checkouts and diff the outputs: any line that differs names a report
whose bytes changed.  The commands cover the slope, band, sparse and verify
experiments, extension of dense and sparse matrix files and of dataset
kernels, and a partial eigendecomposition.  Every input is generated from a
fixed seed into a temporary directory, which is removed afterwards.

Report bytes still depend on the BLAS thread count, so the script runs
OpenBLAS and OpenMP at one thread unless OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS is already set; compare two checkouts at the same setting.

Usage: python scripts/report_digest.py
Output: one '<sha256>  <file>' line per report, sorted by file name.  The
exit code is 1 if any command exits nonzero, else 0.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

# both must be set before numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perturbext.cli import main as cli_main  # noqa: E402
from perturbext.kernels import gen_band_matrix, gen_clustered_dataset  # noqa: E402
from perturbext.matrixcore import write_dense, write_rows, write_sparse  # noqa: E402


def commands(d: Path):
    """The argv of each run, reading the inputs and writing the reports in d."""
    dense, sparse, data = str(d / "band.dense"), str(d / "band.sparse"), str(d / "clustered.csv")
    return [
        ["slopes", "--seed", "11", "--out", str(d / "slopes.csv")],
        ["band", "--n", "400", "--m", "4", "--trials", "2", "--seed", "11",
         "--out", str(d / "band.csv")],
        ["sparse", "--n", "400", "--m", "4", "--trials", "2", "--seed", "11",
         "--out", str(d / "sparse.csv")],
        ["band", "--n", "400", "--m", "4", "--trials", "1", "--seed", "11", "--order", "2",
         "--mu", "mean", "--out", str(d / "band_order2.csv")],
        ["verify", "--n", "300", "--m", "10", "--trials", "2", "--seed", "11",
         "--out", str(d / "verify.csv")],
        ["verify", "--n", "300", "--m", "10", "--trials", "1", "--seed", "11", "--mu", "zero",
         "--out", str(d / "verify_mu_zero.csv")],
        ["extend", "--sparse-matrix", sparse, "--selector", "sparse:0.3", "--m", "4",
         "--out", str(d / "ext_sparse")],
        ["extend", "--matrix", dense, "--selector", "band:20", "--m", "4", "--order", "2",
         "--mu", "mean", "--out", str(d / "ext_band")],
        ["eig", "--matrix", dense, "--m", "4", "--out", str(d / "eig")],
        ["extend", "--dataset", data, "--selector", "sparse:0.4", "--m", "4",
         "--out", str(d / "ext_data_sparse")],
        ["extend", "--dataset", data, "--keep", "0.2", "--selector", "blocks:100,100,100",
         "--m", "4", "--out", str(d / "ext_data_blocks")],
    ]


def write_inputs(d: Path) -> None:
    K = gen_band_matrix(400, seed=3)
    write_sparse(d / "band.sparse", K)
    write_dense(d / "band.dense", K.to_dense())
    write_rows(d / "clustered.csv", gen_clustered_dataset(n=300, seed=3).samples)


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_inputs(d)
        for argv in commands(d):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
            if code != 0:
                print(f"'{argv[0]}' exited {code}: {' '.join(argv)}", file=sys.stderr)
                failed = 1
        inputs = {"band.dense", "band.sparse", "clustered.csv"}
        for path in sorted(p for p in d.iterdir() if p.name not in inputs):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return failed


if __name__ == "__main__":
    sys.exit(main())
