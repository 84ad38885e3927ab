"""Command-line entry point.

Subcommands: slopes, band, sparse, verify, extend, eig.  Exit status is 0 on
success, 1 when a verification fails or a numerical error aborts a run or
fails a sweep point (the sweep still writes the other points' rows), 2 on
usage or I/O errors and on inputs too large for memory.  A flag that only a
dataset reads (``extend``'s ``--has-header``, ``--kernel`` and ``--keep``,
``sparse``'s ``--has-header``) given without ``--dataset`` is a usage error,
never silently ignored.  Identical
command lines with identical seeds produce byte-identical report files.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments as exp
from . import perturbation as pert
from .extension import ExtensionConfig, Selector, pert_extend
from .kernels import KernelSpec, build_kernel, build_sparse_kernel, load_dataset, standardize
from .matrixcore import (
    ConvergenceError,
    EigengapError,
    read_dense,
    read_sparse,
    sym_eig_full,
    sym_eig_partial,
    write_rows,
)
from .nystrom import SingularSampleError

USAGE_ERROR, VERIFY_ERROR = 2, 1

# per command, the flags that only a --dataset reads; they are absent from
# the parsed arguments unless given (argparse.SUPPRESS), at any value
_DATASET_ONLY = {"extend": ("has_header", "kernel", "keep"), "sparse": ("has_header",)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perturbext",
                                     description="submatrix-to-full-kernel eigenpair extension experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None, help="report CSV path")

    p = sub.add_parser("slopes", help="error-scaling sweeps for both truncated orders")
    common(p)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--norm-grid", type=str, default=None,
                   help="comma-separated c values for the perturbation-norm sweep")
    p.add_argument("--tail-grid", type=str, default=None,
                   help="comma-separated c values for the tail-value sweep")

    p = sub.add_parser("band", help="band selections vs generalized Nystrom")
    common(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--p-grid", type=str, default=None, help="comma-separated band half-widths")
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.add_argument("--mu", type=str, default="zero")

    p = sub.add_parser("sparse", help="largest-entry selections vs generalized Nystrom")
    common(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--dataset", type=str, default=None,
                   help="CSV dataset path (synthetic clustered data when omitted)")
    p.add_argument("--has-header", action="store_true", default=argparse.SUPPRESS)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--kernel", type=str, default="gaussian:0.1")
    p.add_argument("--keep", type=float, default=0.1, help="sparsification keep fraction")
    p.add_argument("--q-grid", type=str, default=None)
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.add_argument("--mu", type=str, default="zero")

    p = sub.add_parser("verify", help="equivalence checks between the sampling and perturbation views")
    common(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--mu", type=str, default="mean")
    p.add_argument("--tolerance", type=float, default=1e-10)

    p = sub.add_parser("extend", help="extend a selection of a matrix or dataset kernel")
    p.add_argument("--out", type=str, required=True, help="output file prefix")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", type=str, help="dense matrix file")
    src.add_argument("--sparse-matrix", type=str, help="sparse matrix file")
    src.add_argument("--dataset", type=str, help="CSV dataset (kernel is built first)")
    p.add_argument("--has-header", action="store_true", default=argparse.SUPPRESS)
    p.add_argument("--kernel", type=str, default=argparse.SUPPRESS, help="gaussian:1.0 when omitted")
    p.add_argument("--keep", type=float, default=argparse.SUPPRESS,
                   help="keep only this fraction (0, 1] of the kernel's largest-magnitude "
                        "entries, built without the dense n x n kernel")
    p.add_argument("--selector", type=str, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.add_argument("--mu", type=str, default="zero")

    p = sub.add_parser("eig", help="eigendecomposition of a matrix file")
    p.add_argument("--out", type=str, required=True, help="output file prefix")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", type=str)
    src.add_argument("--sparse-matrix", type=str)
    p.add_argument("--m", type=int, default=None, help="leading pairs only (full when omitted)")
    return parser


def _parse_grid(text, cast=float):
    if text is None:
        return None
    try:
        return [cast(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise ValueError(f"cannot parse grid {text!r}") from exc


def _load_input_matrix(args):
    if getattr(args, "matrix", None):
        return read_dense(args.matrix)
    if getattr(args, "sparse_matrix", None):
        return read_sparse(args.sparse_matrix)
    ds = standardize(load_dataset(args.dataset, has_header="has_header" in args))
    spec = KernelSpec.parse(getattr(args, "kernel", "gaussian:1.0"))
    if "keep" in args:
        return build_sparse_kernel(ds, spec, args.keep)
    return build_kernel(ds, spec)


def _cmd_slopes(args) -> int:
    # both grids are checked before either sweep runs
    norm_grid = exp._slope_grid("slope_vs_norm", _parse_grid(args.norm_grid), exp.NORM_SLOPE_GRID)
    tail_grid = exp._slope_grid("slope_vs_tail", _parse_grid(args.tail_grid), exp.TAIL_SLOPE_GRID)
    norm_rows, norm_slopes = exp.run_norm_slopes(args.n, args.m, args.seed, grid=norm_grid)
    tail_rows, tail_slopes = exp.run_tail_slopes(args.n, args.m, args.seed, grid=tail_grid)
    if args.out:
        exp.write_report(args.out, norm_rows + tail_rows)
    for name in ("order1", "order2"):
        print(f"slope_vs_norm {name}: {norm_slopes[name]:.4f}")
    for name in ("order1", "order2"):
        print(f"slope_vs_tail {name}: {tail_slopes[name]:.4f}")
    return 0


def _cmd_band(args) -> int:
    rows = exp.run_band_experiment(args.n, args.m, _parse_grid(args.p_grid, int),
                                   trials=args.trials, seed=args.seed, order=args.order,
                                   mu=pert.MuPolicy.parse(args.mu))
    if args.out:
        exp.write_report(args.out, rows)
    print(f"band experiment: {len(rows)} rows over {args.trials} trials")
    return 0


def _cmd_sparse(args) -> int:
    dataset = load_dataset(args.dataset, has_header="has_header" in args) if args.dataset else None
    rows = exp.run_sparse_experiment(dataset, KernelSpec.parse(args.kernel), args.m,
                                     _parse_grid(args.q_grid), trials=args.trials,
                                     seed=args.seed, n=args.n, keep=args.keep,
                                     order=args.order, mu=pert.MuPolicy.parse(args.mu))
    if args.out:
        exp.write_report(args.out, rows)
    print(f"sparse experiment: {len(rows)} rows over {args.trials} trials")
    return 0


def _cmd_verify(args) -> int:
    rows, passed, guarded = exp.run_verification(args.n, args.m, args.trials, args.seed,
                                                 mu_policy=pert.MuPolicy.parse(args.mu),
                                                 tolerance=args.tolerance)
    if args.out:
        exp.write_report(args.out, rows)
    for trial, tag, message in guarded:
        print(f"guarded error (trial {trial}, {tag}): {message}")
    print(f"verification {'PASSED' if passed else 'FAILED'} over {args.trials} trials "
          f"at tolerance {args.tolerance:g}")
    return 0 if passed else VERIFY_ERROR


def _cmd_extend(args) -> int:
    K = _load_input_matrix(args)
    sel = Selector.parse(args.selector)
    cfg = ExtensionConfig(m=args.m, order=args.order, mu=pert.MuPolicy.parse(args.mu))
    result = pert_extend(K, sel, cfg)
    # the bound terms are solved on first read, so a failing solve stops
    # the command before any file is written
    bounds = result.bound_terms
    write_rows(args.out + ".values", result.values[:, None])
    write_rows(args.out + ".bounds", bounds[:, None])
    write_rows(args.out + ".vectors", result.vectors)
    print(f"extended {args.m} pairs -> {args.out}.values/.vectors/.bounds")
    return 0


def _cmd_eig(args) -> int:
    K = _load_input_matrix(args)
    pairs = sym_eig_full(K) if args.m is None else sym_eig_partial(K, args.m)
    write_rows(args.out + ".values", pairs.values[:, None])
    write_rows(args.out + ".vectors", pairs.vectors)
    print(f"wrote {pairs.m} eigenpairs -> {args.out}.values/.vectors")
    return 0


_COMMANDS = {
    "slopes": _cmd_slopes,
    "band": _cmd_band,
    "sparse": _cmd_sparse,
    "verify": _cmd_verify,
    "extend": _cmd_extend,
    "eig": _cmd_eig,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for name in _DATASET_ONLY.get(args.command, ()):
            if name in args and args.dataset is None:
                parser.error(f"--{name.replace('_', '-')} is read only with --dataset")
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except exp.SweepError as exc:
        if args.out:
            exp.write_report(args.out, exc.rows)
        for trial, method, param, message in exc.failures:
            print(f"numerical error (trial {trial}, {method} {param:g}): {message}", file=sys.stderr)
        return VERIFY_ERROR
    except (EigengapError, pert.MuCollisionError, SingularSampleError, ConvergenceError) as exc:
        # numerical guards come first: some subclass ValueError
        print(f"numerical error: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:
        # an input too large for this machine, such as a huge header n
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
