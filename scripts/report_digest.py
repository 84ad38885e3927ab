#!/usr/bin/env python3
"""Print a SHA-256 digest of every report a fixed set of small runs writes.

A refactor must not change any number the package reports.  Run this script
in two checkouts and diff the outputs: any line that differs names a report
whose bytes changed.  The CLI commands cover the slope, band, sparse and
verify experiments, extension of dense and sparse matrix files (one of
them through a mask file) and of dataset kernels (one of them a
principal-block ``topleft`` selection), and a partial
eigendecomposition.  The Python-API reports (``api_*.csv``, written
with ``write_rows``) cover what no CLI command reaches: ``block_extend``
below and above the dense size limit (above it on a dense and on a
sparsified kernel), the ensemble, shifted and generalized Nystrom
methods, the bound terms of ``pert_extend`` (read after the extension
has returned; on the kernel, on its leading 200-row block, where they
come from dense solves, and for a ``topleft:100`` selection of the
kernel, whose tail is the spectrum of the block's dense solve), and
``sym_eig_partial`` and ``spectral_norm`` of the leading 300-row block
held in C and in F order (the two branches of the dense vector product
that Lanczos iterates on), and the values, vectors and bound terms of
``pert_extend`` through a ``custom_mask`` given in a shuffled order, with
repeated and lower-triangle pairs (on the kernel and on its sparsified
form), all on one Gaussian kernel of 600 clustered points, ``sym_eig_partial`` of two sparse matrices with empty rows,
each solved on its support block, the triplets ``build_sparse_kernel``
keeps of the Gaussian and polynomial kernels of the 300 points the dataset
runs read, and ``kernel_approx`` of a seeded 257-row factor pair with values
of both signs.  Every input is generated from a fixed
seed into a temporary directory, which is removed afterwards; ``--keep
DIR`` writes them into DIR instead and leaves them there, so that the
reports of two checkouts can be compared by value, not only by digest:
``--against DIR`` compares the reports of this checkout with those a
``--keep DIR`` run left in DIR, parsing only reports whose bytes differ.

Report bytes still depend on the BLAS thread count, so the script runs
OpenBLAS and OpenMP at one thread unless OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS is already set; compare two checkouts at the same setting.

Usage: python scripts/report_digest.py [--keep DIR] [--against DIR]
Output: a header line naming what the bytes depend on besides the code
(``environment``: the numpy and scipy versions and the OpenBLAS core each
one's bundled library runs), then one '<sha256>  <file>' line per report,
sorted by file name.  ``scripts/report_digest.expected`` pins this output,
and a test compares a run with it.  With
``--against`` it is instead one line per report whose values moved:
'<file>  max abs <a>  max rel <r>', where a is the largest absolute change
of a number and r is a over the largest finite magnitude in the kept
report; a report whose text fields or field count changed, or that DIR
lacks, is named with the reason.  Reports equal by value print nothing.
The exit code is 1 if any command exits nonzero, else 0.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

# both must be set before numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from perturbext.cli import main as cli_main  # noqa: E402
from perturbext.extension import ExtensionConfig, Selector, block_extend, kernel_approx, pert_extend  # noqa: E402
from perturbext.kernels import (  # noqa: E402
    KernelSpec,
    build_kernel,
    build_sparse_kernel,
    gen_band_matrix,
    gen_clustered_dataset,
    gen_wishart_psd,
    sparsify,
    standardize,
)
from perturbext.matrixcore import (  # noqa: E402
    SparseSymmetric,
    SymmetricDense,
    spectral_norm,
    sym_eig_partial,
    write_dense,
    write_rows,
    write_sparse,
)
from perturbext.nystrom import ensemble_nystrom, generalized_nystrom, shifted_nystrom  # noqa: E402
from perturbext.perturbation import MuPolicy  # noqa: E402


def commands(d: Path):
    """The argv of each run, reading the inputs and writing the reports in d."""
    dense, sparse, data = str(d / "band.dense"), str(d / "band.sparse"), str(d / "clustered.csv")
    mask = str(d / "band.mask")
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
        ["extend", "--sparse-matrix", sparse, "--selector", f"mask:{mask}", "--m", "4",
         "--out", str(d / "ext_sparse_mask")],
        ["extend", "--matrix", dense, "--selector", "band:20", "--m", "4", "--order", "2",
         "--mu", "mean", "--out", str(d / "ext_band")],
        ["eig", "--matrix", dense, "--m", "4", "--out", str(d / "eig")],
        ["extend", "--dataset", data, "--selector", "sparse:0.4", "--m", "4",
         "--out", str(d / "ext_data_sparse")],
        ["extend", "--dataset", data, "--keep", "0.2", "--selector", "blocks:100,100,100",
         "--m", "4", "--out", str(d / "ext_data_blocks")],
        # a principal block of the 300-point kernel above the dense size limit
        ["extend", "--dataset", data, "--selector", "topleft:280", "--m", "4",
         "--out", str(d / "ext_data_topleft")],
    ]


def write_inputs(d: Path) -> None:
    K = gen_band_matrix(400, seed=3)
    write_sparse(d / "band.sparse", K)
    # the diagonal and every other stored entry of K
    keep = K.rows == K.cols
    keep[::2] = True
    write_sparse(d / "band.mask", SparseSymmetric(K.n, K.rows[keep], K.cols[keep], np.ones(keep.sum())))
    write_dense(d / "band.dense", K.to_dense())
    write_rows(d / "clustered.csv", gen_clustered_dataset(n=300, seed=3).samples)


def write_api_reports(d: Path) -> None:
    """The Python-API runs, each report one ``write_rows`` file in d: a
    kernel approximation as its n rows, a (values, vectors) pair as the
    values row followed by the rows of the vectors, and bound terms as one
    row per extension."""
    m = 4
    K = build_kernel(standardize(gen_clustered_dataset(n=600, seed=3)), KernelSpec.gaussian(0.1))
    K200 = K.principal_block(np.arange(200))
    rng = np.random.default_rng(3)
    subsets = [np.sort(rng.choice(K.n, size=100, replace=False)) for _ in range(3)]
    # the diagonal and 20000 random entries of either triangle, some
    # repeated, in a shuffled order
    pairs = np.hstack([np.tile(np.arange(K.n), (2, 1)), rng.integers(0, K.n, size=(2, 20000))])
    mask = Selector.custom_mask(*pairs[:, rng.permutation(pairs.shape[1])])

    def bounds(A, sel=Selector.sparse_top_q(0.5)):
        # dense and sparsified A, each at order 1 with mu zero and at order 2
        # with mu mean
        return np.vstack([
            pert_extend(B, sel, cfg).bound_terms
            for B in (A, sparsify(A, 0.3))
            for cfg in (ExtensionConfig(m=m), ExtensionConfig(m=m, order=2, mu=MuPolicy.mean()))])

    def extension(A, sel):
        # values, then the rows of the vectors, then the bound terms
        res = pert_extend(A, sel, ExtensionConfig(m=m))
        return np.vstack([res.values, res.vectors, res.bound_terms])

    def dense_lanczos(order):
        # leading pairs, then the norm repeated across a row
        A = SymmetricDense(np.asarray(K.principal_block(np.arange(300)).a, order=order))
        pairs = sym_eig_partial(A, m)
        return np.vstack([pairs.values, pairs.vectors, np.full(m, spectral_norm(A))])

    def support_block(r, rows, n):
        # the pairs of an n-row matrix that stores a Wishart block on the r
        # increasing rows, solved on that block
        br, bc, bv = gen_wishart_psd(r, seed=3).triplets()
        pairs = sym_eig_partial(SparseSymmetric(n, rows[br], rows[bc], bv), m)
        return np.vstack([pairs.values, pairs.vectors])

    # the sparse builder's (row, col, value) triplets on the 300-point
    # dataset of the CLI runs, a size where its slabs and the whole Gram
    # product round differently
    data = standardize(gen_clustered_dataset(n=300, seed=3))
    triplets = [np.column_stack((S.rows, S.cols, S.vals)) for S in (
        build_sparse_kernel(data, spec, 0.2) for spec in (KernelSpec.gaussian(0.1), KernelSpec.polynomial(2)))]

    reports = {
        "api_block_extend_n200.csv": block_extend(K200, (50, 150), ExtensionConfig(m=m)).a,
        "api_block_extend_n600.csv": block_extend(K, (300, 300), ExtensionConfig(m=m)).a,
        # sparse K, uneven blocks, order 2: the member path that takes E V
        # from K V on a sparse K
        "api_block_extend_n600_sparse_order2.csv":
            block_extend(sparsify(K, 0.3), (200, 400),
                         ExtensionConfig(m=m, order=2, mu=MuPolicy.mean())).a,
        "api_ensemble_nystrom.csv": ensemble_nystrom(K, m, subsets).a,
        # 257 rows, two slabs and one more row, of a rank-8 factor pair
        # whose values take both signs
        "api_kernel_approx.csv": kernel_approx(np.array([4.0, -3.0, 2.5, -1.5, 1.0, -0.5, 0.25, -0.125]),
                                               np.random.default_rng(5).standard_normal((257, 8))).a,
        "api_shifted_nystrom.csv": np.vstack(shifted_nystrom(K, m)),
        "api_generalized_nystrom_l300.csv": np.vstack(generalized_nystrom(K, m, 300)),
        "api_bounds.csv": bounds(K),
        # at n <= 256 the tail spectrum and ||E|| come from dense solves
        "api_bounds_n200.csv": bounds(K200),
        # above n = 256 with a block solved densely: the tail spectrum is the
        # one that solve kept
        "api_bounds_topleft.csv": bounds(K, Selector.top_left(100)),
        # above n = 256: Lanczos through dsymv on the array and on its transpose
        "api_custom_mask.csv": np.vstack([extension(A, mask) for A in (K, sparsify(K, 0.3))]),
        "api_dense_lanczos_n300.csv": np.vstack([dense_lanczos("C"), dense_lanczos("F")]),
        "api_sparse_kernel.csv": np.vstack(triplets),
        # above n = 256 with 400 support rows, and below it with one empty row
        "api_support_block.csv": np.vstack([
            support_block(400, np.flatnonzero(np.arange(600) % 3 != 2), 600),
            support_block(199, np.delete(np.arange(200), 100), 200)]),
    }
    for name, rows in reports.items():
        write_rows(d / name, rows)


def _openblas_core(package, symbol: str) -> str:
    """The OpenBLAS core that the library bundled with ``package`` (in its
    ``<name>.libs`` directory) runs, read through ctypes from ``symbol``;
    'unknown' when no bundled library has it."""
    for lib in sorted((Path(package.__file__).parent.parent / f"{package.__name__}.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), symbol, None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def environment() -> str:
    """The header line of the digest: the numpy and scipy versions and the
    OpenBLAS core of each one's bundled library."""
    return (f"# numpy {np.__version__}, scipy {scipy.__version__}; OpenBLAS core "
            f"{_openblas_core(np, 'scipy_openblas_get_corename64_')} (numpy), "
            f"{_openblas_core(scipy, 'scipy_openblas_get_corename')} (scipy)")


def _fields(path: Path) -> list:
    """The comma- or blank-separated fields of a report, numbers as floats
    and everything else as text."""
    fields = []
    for token in re.split(r"[,\s]+", path.read_text().strip()):
        try:
            fields.append(float(token))
        except ValueError:
            fields.append(token)
    return fields


def compare(name: str, current: Path, kept: Path):
    """How report ``name`` in ``current`` moved from the one in ``kept``: None
    when they are equal by value, else a one-line description."""
    if not (kept / name).is_file():
        return f"{name}  missing from {kept}"
    if (current / name).read_bytes() == (kept / name).read_bytes():
        return None
    new, old = _fields(current / name), _fields(kept / name)
    numeric = [isinstance(x, float) for x in old]
    if len(new) != len(old) or numeric != [isinstance(x, float) for x in new] or any(
            a != b for a, b, num in zip(new, old, numeric) if not num):
        return f"{name}  text fields or field count changed"
    a = np.array([x for x in new if isinstance(x, float)])
    b = np.array([x for x in old if isinstance(x, float)])
    # equal infinities (the bound term of a last pair) have not moved
    moved = a != b
    if not moved.any():
        return None
    change = float(np.max(np.abs(a[moved] - b[moved])))
    largest = np.max(np.abs(b[np.isfinite(b)]), initial=0.0)
    return f"{name}  max abs {change:.3g}  max rel {change / largest:.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="digest of every report of a fixed set of runs")
    parser.add_argument("--keep", metavar="DIR", default=None,
                        help="write the inputs and reports into DIR, new or empty, and keep them")
    parser.add_argument("--against", metavar="DIR", default=None,
                        help="print the reports whose values differ from those a --keep run left in DIR")
    args = parser.parse_args(argv)
    if args.against and not Path(args.against).is_dir():
        parser.error(f"--against directory {args.against} does not exist")
    if args.keep:
        if Path(args.keep).exists() and any(Path(args.keep).iterdir()):
            parser.error(f"--keep directory {args.keep} is not empty")
        Path(args.keep).mkdir(parents=True, exist_ok=True)
    failed = 0
    with contextlib.nullcontext(args.keep) if args.keep else tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_inputs(d)
        for run in commands(d):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(run)
            if code != 0:
                print(f"'{run[0]}' exited {code}: {' '.join(run)}", file=sys.stderr)
                failed = 1
        write_api_reports(d)
        inputs = {"band.dense", "band.sparse", "band.mask", "clustered.csv"}
        if not args.against:
            print(environment())
        for path in sorted(p for p in d.iterdir() if p.name not in inputs):
            if not args.against:
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
            elif (moved := compare(path.name, d, Path(args.against))) is not None:
                print(moved)
    return failed


if __name__ == "__main__":
    sys.exit(main())
