"""Spans and result captures recorded from outside the program.

The program is not edited: a traced function is replaced, at every module
binding that holds it, by a wrapper.  ``perturbext.extension.sym_eig_full``
and ``perturbext.matrixcore.sym_eig_full`` are separate bindings of one
function, so both are rebound and a call is recorded whichever module
makes it.  Methods are rebound on their class.  A target that does not
exist at the commit under test is skipped and reports 0 calls.

A span is ``[name, caller, op, parent, start, end]``: the traced name, the
module the call came from, the op id, the index of the enclosing span (-1
for none) and two ``perf_counter`` readings.  Spans stay in memory and are
written out once, when the run ends.  Self time is a span's duration minus
the durations of its direct children; calls nest, so children never
overlap.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("kernels", "matrixcore", "perturbation", "extension", "nystrom", "experiments", "cli")
TYPED_ERRORS = (
    ("matrixcore", "EigengapError"),
    ("perturbation", "MuCollisionError"),
    ("nystrom", "SingularSampleError"),
    ("matrixcore", "ConvergenceError"),
)
OP_SPAN = "bench.op"


def _dim(A) -> int:
    return int(A.shape[0]) if hasattr(A, "shape") else int(A.n)


def _arg(args, kwargs, index: int, name: str, default=None):
    """A call's argument, passed by position or by keyword."""
    return args[index] if len(args) > index else kwargs.get(name, default)


def _count_sym_eig_full(c, args, kwargs, result):
    n = _dim(_arg(args, kwargs, 0, "A"))
    c["matrixcore.sym_eig_full.work_n3"] += float(n) ** 3
    c["matrixcore.sym_eig_full.dense_bytes"] += 8.0 * n * n


def _count_read(c, args, kwargs, result):
    c["matrixcore.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_build_kernel(c, args, kwargs, result):
    n = _dim(_arg(args, kwargs, 0, "ds").samples)
    c["kernels.dense_bytes"] += 8.0 * n * n


def _count_select(c, args, kwargs, result, nnz):
    c["extension.selected_nnz"] += nnz(result)
    c["extension.kernel_nnz"] += nnz(_arg(args, kwargs, 0, "K"))


def _count_generalized(c, args, kwargs, result):
    # the sampled columns C, n x l
    n = _dim(_arg(args, kwargs, 0, "K"))
    c["nystrom.dense_bytes"] += 8.0 * n * _arg(args, kwargs, 2, "l")


def _count_shifted(c, args, kwargs, result):
    # the sampled columns C, n x k
    n = _dim(_arg(args, kwargs, 0, "K"))
    c["nystrom.dense_bytes"] += 8.0 * n * _arg(args, kwargs, 1, "k")


def _count_permute(c, args, kwargs, result):
    n = _dim(_arg(args, kwargs, 0, "K"))
    c["nystrom.dense_bytes"] += 8.0 * n * n


def _count_ensemble(c, args, kwargs, result):
    # per member an n x n approximation and its re-indexed copy, plus the
    # running total, its compensation term and the returned matrix
    n = _dim(_arg(args, kwargs, 0, "K"))
    members = len(_arg(args, kwargs, 2, "subsets"))
    c["nystrom.dense_bytes"] += 8.0 * n * n * (2 * members + 3)


def _count_cli(c, args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    if result != 0:
        c["cli.errors"] += 1
    if "--out" in argv:
        prefix = argv[argv.index("--out") + 1]
        c["cli.bytes_written"] += sum(os.path.getsize(p) for p in glob.glob(glob.escape(prefix) + ".*"))


# (span name, defining module, attribute or Class.method, counter)
TARGETS = (
    ("matrixcore.sym_eig_full", "matrixcore", "sym_eig_full", _count_sym_eig_full),
    ("matrixcore.sym_eig_partial", "matrixcore", "sym_eig_partial", None),
    ("matrixcore.spectral_norm", "matrixcore", "spectral_norm", None),
    ("matrixcore.EigenPairs", "matrixcore", "EigenPairs.__init__", None),
    ("matrixcore.read_sparse", "matrixcore", "read_sparse", _count_read),
    ("matrixcore.read_mask", "matrixcore", "read_mask", _count_read),
    ("kernels.build_kernel", "kernels", "build_kernel", _count_build_kernel),
    ("kernels.sparsify", "kernels", "sparsify", None),
    ("extension.select_submatrix", "extension", "select_submatrix", _count_select),
    ("extension.extend_with_submatrix", "extension", "extend_with_submatrix", None),
    ("extension.E_matvec", "extension", "KernelDifference.matvec", None),
    ("extension.block_extend", "extension", "block_extend", None),
    ("perturbation.update", "perturbation", "truncated_first_order", None),
    ("perturbation.update", "perturbation", "truncated_second_order", None),
    ("perturbation.eigval_update", "perturbation", "classical_eigval_update", None),
    ("perturbation.bounds", "perturbation", "first_order_bounds", None),
    ("perturbation.bounds", "perturbation", "second_order_bounds", None),
    ("nystrom.generalized_nystrom", "nystrom", "generalized_nystrom", _count_generalized),
    ("nystrom.shifted_nystrom", "nystrom", "shifted_nystrom", _count_shifted),
    ("nystrom.shift_mu_mean", "nystrom", "shift_mu_mean", None),
    ("nystrom.ensemble_nystrom", "nystrom", "ensemble_nystrom", _count_ensemble),
    ("nystrom.permute_symmetric", "nystrom", "permute_symmetric", _count_permute),
    ("experiments.run_sparse_experiment", "experiments", "run_sparse_experiment", None),
    ("experiments.matched_topleft_size", "experiments", "matched_topleft_size", None),
    ("cli.main", "cli", "main", _count_cli),
)

# span metrics reported per traced op: (span name, report calls too)
SPAN_METRICS = (
    ("matrixcore.sym_eig_full", True),
    ("matrixcore.sym_eig_partial", True),
    ("matrixcore.spectral_norm", True),
    ("matrixcore.EigenPairs", False),
    ("matrixcore.read_sparse", False),
    ("matrixcore.read_mask", False),
    ("kernels.build_kernel", False),
    ("kernels.sparsify", False),
    ("extension.select_submatrix", False),
    ("extension.extend_with_submatrix", False),
    ("extension.E_matvec", True),
    ("extension.block_extend", False),
    ("perturbation.update", False),
    ("perturbation.eigval_update", False),
    ("perturbation.bounds", False),
    ("nystrom.generalized_nystrom", False),
    ("nystrom.shifted_nystrom", False),
    ("nystrom.shift_mu_mean", False),
    ("nystrom.ensemble_nystrom", False),
    ("nystrom.permute_symmetric", False),
    ("experiments.run_sparse_experiment", False),
    ("experiments.matched_topleft_size", False),
    ("cli.main", False),
)
COUNTER_METRICS = (
    ("matrixcore.sym_eig_full.work_n3", "n3"),
    ("matrixcore.sym_eig_full.dense_bytes", "B"),
    ("matrixcore.bytes_read", "B"),
    ("kernels.dense_bytes", "B"),
    ("nystrom.dense_bytes", "B"),
    ("cli.bytes_written", "B"),
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name, calls in SPAN_METRICS:
        if calls:
            out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_s", "s", "lower"))
    out += [(name, unit, "lower") for name, unit in COUNTER_METRICS]
    out.append(("extension.selected_nnz_frac", "ratio", "lower"))
    out.append(("perturbation.bound_cover_frac", "ratio", "higher"))
    out += [(layer + ".errors", "count", "lower") for layer in LAYERS]
    out.append(("bench.trace_overhead_s", "s", "lower"))
    return out


def program_modules():
    """The imported modules of the program, package included."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "perturbext" or name.startswith("perturbext."))]


def _resolve(module: str, attr: str):
    """(owner, attribute name, current value) or None when absent."""
    owner = sys.modules.get("perturbext." + module)
    if owner is None:
        return None
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name, None)
        if owner is None or attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def _rebind(owner, attr, current, replacement, undo):
    """Replace ``current`` at every binding that holds it."""
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        undo.append((owner, attr, current))
        return
    for mod in program_modules():
        for key, value in list(vars(mod).items()):
            if value is current:
                setattr(mod, key, replacement)
                undo.append((mod, key, current))


def _restore(undo):
    while undo:
        owner, attr, value = undo.pop()
        setattr(owner, attr, value)


class Capture:
    """Keeps the arguments and result of every call to a few functions, so
    that checks can compare results the program does not return (the
    extensions inside an experiment or a block combination) with the oracle.
    A call costs one extra Python frame; no clock is read."""

    def __init__(self, targets):
        self.targets = tuple(targets)   # (module, attribute)
        self.records = []               # (module.attribute, args, result)
        self._undo = []

    def install(self):
        for module, attr in self.targets:
            found = _resolve(module, attr)
            if found is not None:
                owner, name, current = found
                _rebind(owner, name, current, self._wrap(f"{module}.{attr}", current), self._undo)

    def uninstall(self):
        _restore(self._undo)

    def take(self):
        records, self.records = self.records, []
        return records

    def _wrap(self, key, fn):
        capture = self

        @functools.wraps(fn)
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            capture.records.append((key, args, result))
            return result

        return captured


class Tracer:
    """Span recorder for the traced ops of one run."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.ops = 0
        self._stack = []
        self._undo = []
        self._errors = tuple(
            found[2] for found in (_resolve(mod, name) for mod, name in TYPED_ERRORS)
            if found is not None)
        nnz = _resolve("matrixcore", "nnz")
        self._nnz = nnz[2] if nnz is not None else (lambda A: int(A.nnz))

    # -- installation ------------------------------------------------------

    def install(self):
        for name, module, attr, counter in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                continue
            owner, key, current = found
            if counter is _count_select:
                counter = functools.partial(_count_select, nnz=self._nnz)
            _rebind(owner, key, current, self._wrap(name, module, current, counter), self._undo)

    def uninstall(self):
        _restore(self._undo)

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op: int):
        self.ops += 1
        self._stack.append(len(self.spans))
        self.spans.append([OP_SPAN, "bench", op, -1, time.perf_counter(), 0.0])

    def end_op(self):
        self.spans[self._stack.pop()][5] = time.perf_counter()

    def _wrap(self, name, layer, fn, counter):
        spans, stack, counters, errors = self.spans, self._stack, self.counters, self._errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            caller = sys._getframe(1).f_globals.get("__name__", "?").rpartition(".")[2]
            span = [name, caller, spans[parent][2] if parent >= 0 else -1, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if isinstance(exc, errors) and (parent < 0 or not spans[parent][0].startswith(layer + ".")):
                    counters[layer + ".errors"] += 1
                raise
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counters, args, kwargs, result)
            return result

        return traced

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        own = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[5] - s[4]
        return own

    def metrics(self, overhead_s: float, bound_cover: float):
        """Per traced op values of every per-layer metric."""
        ops = max(self.ops, 1)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_s[span[0]] += own
        out = {}
        for name, with_calls in SPAN_METRICS:
            if with_calls:
                out[name + ".calls"] = calls[name] / ops
            out[name + ".self_s"] = self_s[name] / ops
        for name, _ in COUNTER_METRICS:
            out[name] = self.counters[name] / ops
        kernel_nnz = self.counters["extension.kernel_nnz"]
        out["extension.selected_nnz_frac"] = (
            self.counters["extension.selected_nnz"] / kernel_nnz if kernel_nnz else 0.0)
        out["perturbation.bound_cover_frac"] = bound_cover
        for layer in LAYERS:
            out[layer + ".errors"] = self.counters[layer + ".errors"] / ops
        out["bench.trace_overhead_s"] = overhead_s
        return out

    def breakdown(self):
        """Self time per op by (span, calling module), largest first."""
        ops = max(self.ops, 1)
        acc = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            acc[(span[0], span[1])] += own
        return sorted(((name, caller, total / ops) for (name, caller), total in acc.items()),
                      key=lambda row: -row[2])

    def write(self, path):
        """Spans with times relative to the first one, as JSON."""
        t0 = self.spans[0][4] if self.spans else 0.0
        rows = [[s[0], s[1], s[2], s[3], s[4] - t0, s[5] - t0] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "caller", "op", "parent", "start_s", "end_s"],
                       "spans": rows}, fh)
