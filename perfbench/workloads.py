"""The benchmark's workloads: seeded inputs, oracles, ops and per-op checks.

Every workload is a closed loop with one client: one process issues the
next op when the previous one has returned.  ``generate`` derives all
inputs from the workload seed with ``derive_seed``/``rng_for``; the program
receives only these inputs.  ``oracle`` computes the exact answers with
LAPACK through numpy/scipy, in the parent process, so that neither its time
nor its memory is charged to the program.  ``check`` raises ``CheckFailed``
when an op's output disagrees with the oracle.

Importing this module imports the program; the caller puts ``src`` on
``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import perturbext as px
import perturbext.cli
import perturbext.experiments
from perturbext.experiments import derive_seed
from perturbext.kernels import rng_for

RAYLEIGH_TOL = 1e-9        # relative to max |eigenvalue|
PAIR_RESIDUAL_TOL = 1e-8   # relative to max |eigenvalue| of K^s
ANGLE_MATCH_TOL = 1e-8     # radians, reported vs recomputed angle
OPTIMAL_ERR_TOL = 1e-9     # slack below the Eckart-Young optimum

GAMMA = 0.1


class CheckFailed(Exception):
    """An op's output disagrees with the oracle."""


class Tally:
    """Accuracy figures collected from the checks of one run."""

    def __init__(self):
        self.angles = []
        self.approx_errs = []
        self.covered = 0
        self.bounded = 0

    def bound_cover(self, bounds, W, U):
        """Count finite bound terms that are at least the measured error of
        their normalized vector against the matching exact eigenvector."""
        bounds = np.asarray(bounds, dtype=float)
        m = W.shape[1]
        What = W / np.linalg.norm(W, axis=0)
        sign = np.sign(np.einsum("ij,ij->j", What, U[:, :m]))
        sign[sign == 0] = 1.0
        err = np.linalg.norm(What - U[:, :m] * sign, axis=0)
        finite = np.isfinite(bounds)
        self.covered += int(np.sum(bounds[finite] >= err[finite]))
        self.bounded += int(finite.sum())


# ---------------------------------------------------------------------------
# oracle helpers


def _sym_csr(n, rows, cols, vals):
    """Full symmetric CSR matrix from upper-triangle triplets."""
    off = rows != cols
    return scipy.sparse.csr_array(
        (np.concatenate([vals, vals[off]]), (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]]))),
        shape=(n, n))


def dense_from_triplets(n, rows, cols, vals) -> np.ndarray:
    a = np.zeros((n, n))
    a[rows, cols] = vals
    a[cols, rows] = vals
    return a


def leading_pairs(a: np.ndarray, m: int):
    """The m leading eigenvalues (descending) and eigenvectors."""
    n = a.shape[0]
    values, vectors = scipy.linalg.eigh(a, subset_by_index=[n - m, n - 1])
    return values[::-1], np.ascontiguousarray(vectors[:, ::-1])


def exact_spectrum(a: np.ndarray, m: int):
    """All eigenvalues (descending) and the m leading eigenvectors."""
    return scipy.linalg.eigvalsh(a)[::-1], leading_pairs(a, m)[1]


def _require(cond: bool, reason: str):
    if not cond:
        raise CheckFailed(reason)


def _finite(name: str, x):
    x = np.asarray(x, dtype=float)
    _require(bool(np.all(np.isfinite(x))), f"non-finite {name}")
    return x


def check_pairs(values, W, n, m, spectrum, U, tally):
    """Shapes, finiteness, Rayleigh range and angle of extended pairs;
    ``spectrum`` holds at least the largest and the smallest eigenvalue."""
    values = _finite("values", values)
    W = _finite("vectors", W)
    _require(values.shape == (m,) and W.shape == (n, m),
             f"shapes {values.shape}, {W.shape}; expected ({m},), ({n}, {m})")
    # t_i + v_i^T E v_i is the Rayleigh quotient of K at a unit vector
    tol = RAYLEIGH_TOL * np.max(np.abs(spectrum))
    _require(bool(np.all(values <= spectrum[0] + tol) and np.all(values >= spectrum[-1] - tol)),
             "eigenvalue outside the spectrum of K")
    angle = px.principal_angle(W, U[:, :m])
    _require(0.0 <= angle <= np.pi / 2 + 1e-12, f"principal angle {angle} out of range")
    tally.angles.append(angle)
    return angle


def check_bounds(bounds, m):
    bounds = np.asarray(bounds, dtype=float)
    _require(bounds.shape == (m,), f"{bounds.shape} bound terms for {m} pairs")
    _require(not np.any(np.isnan(bounds)) and bool(np.all(bounds >= 0)), "bound term NaN or negative")
    return bounds


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    captures = ()       # (module, function) whose calls the checks need
    cycle = 1           # ops per round of op variants

    def generate(self, seed: int, tiny: bool, workdir: str):
        """(arrays, params): the seeded inputs; files go into workdir."""
        raise NotImplementedError

    def oracle(self, arrays, params) -> dict:
        raise NotImplementedError

    def load(self, arrays, params, workdir: str):
        """Program objects built from the inputs (part of set-up)."""
        raise NotImplementedError

    def op(self, state, i: int):
        """Zero-argument callable running op i."""
        raise NotImplementedError

    def check(self, state, i, output, records, oracle, tally):
        raise NotImplementedError


class BandExtend(Workload):
    name = "band_extend"
    CONFIGS = tuple((p, order, mu) for p in (5, 20, 80) for order, mu in ((1, "zero"), (2, "mean")))
    # the dense eigh inside an op costs up to 20% more on one instance than
    # on another, so each op of a cycle gets an instance of its own
    INSTANCES = len(CONFIGS)
    M = 10
    cycle = len(CONFIGS)

    def generate(self, seed, tiny, workdir):
        n = 300 if tiny else 2000
        arrays = {}
        for j in range(self.INSTANCES):
            K = px.gen_band_matrix(n, seed=derive_seed(seed, 1, j))
            arrays[f"rows{j}"], arrays[f"cols{j}"], arrays[f"vals{j}"] = K.rows, K.cols, K.vals
        return arrays, {"n": n}

    def oracle(self, arrays, params):
        out = {}
        for j in range(self.INSTANCES):
            rows, cols, vals = arrays[f"rows{j}"], arrays[f"cols{j}"], arrays[f"vals{j}"]
            top, out[f"U{j}"] = leading_pairs(dense_from_triplets(params["n"], rows, cols, vals), self.M)
            smallest = scipy.sparse.linalg.eigsh(_sym_csr(params["n"], rows, cols, vals), k=1, which="SA",
                                                 return_eigenvectors=False)
            out[f"spectrum{j}"] = np.array([top[0], smallest[0]])
        return out

    def load(self, arrays, params, workdir):
        n = params["n"]
        return {"n": n, "K": [px.SparseSymmetric(n, arrays[f"rows{j}"], arrays[f"cols{j}"], arrays[f"vals{j}"])
                              for j in range(self.INSTANCES)],
                "triplets": [(arrays[f"rows{j}"], arrays[f"cols{j}"], arrays[f"vals{j}"])
                             for j in range(self.INSTANCES)],
                "Ks": {}}

    def op(self, state, i):
        K = state["K"][i % self.INSTANCES]
        p, order, mu = self.CONFIGS[i % len(self.CONFIGS)]
        policy = px.MuPolicy.zero() if mu == "zero" else px.MuPolicy.mean()
        return lambda: px.pert_extend(K, px.Selector.band(p), px.ExtensionConfig(m=self.M, order=order, mu=policy))

    def _band_csr(self, state, j, p):
        key = (j, p)
        if key not in state["Ks"]:
            rows, cols, vals = state["triplets"][j]
            keep = (cols - rows) <= p
            state["Ks"][key] = _sym_csr(state["n"], rows[keep], cols[keep], vals[keep])
        return state["Ks"][key]

    def check(self, state, i, res, records, oracle, tally):
        j = i % self.INSTANCES
        p = self.CONFIGS[i % len(self.CONFIGS)][0]
        spectrum, U = oracle[f"spectrum{j}"], oracle[f"U{j}"]
        check_pairs(res.values, res.vectors, state["n"], self.M, spectrum, U, tally)
        bounds = check_bounds(res.bound_terms, self.M)
        # the pairs the update starts from are eigenpairs of the band of K
        pairs = res.source_pairs
        V, t = np.asarray(pairs.vectors), np.asarray(pairs.values)
        residual = np.max(np.abs(self._band_csr(state, j, p) @ V - V * t[None, :]))
        _require(residual <= PAIR_RESIDUAL_TOL * max(1.0, np.max(np.abs(t))),
                 f"source pair residual {residual:.3e} for the band p={p}")
        tally.bound_cover(bounds, np.asarray(res.vectors), U)


class SparseTrial(Workload):
    name = "sparse_trial"
    captures = (("extension", "extend_with_submatrix"), ("nystrom", "generalized_nystrom"))
    M = 5
    KEEP = 0.1

    def generate(self, seed, tiny, workdir):
        n = 300 if tiny else 1000
        ds = px.gen_clustered_dataset(n=n, seed=derive_seed(seed, 2))
        return {"samples": ds.samples}, {"n": n}

    def oracle(self, arrays, params):
        # the kernel of trial 0 at the experiment's default seed 0, built as
        # the experiment builds it; the worker checks it is the same matrix
        n = params["n"]
        idx = rng_for(derive_seed(0, 20, 0)).choice(n, size=n, replace=False)
        ds = px.standardize(px.Dataset(arrays["samples"][idx]))
        K = px.sparsify(px.build_kernel(ds, px.KernelSpec.gaussian(GAMMA)), self.KEEP)
        spectrum, U = exact_spectrum(dense_from_triplets(n, K.rows, K.cols, K.vals), self.M)
        return {"rows": K.rows, "cols": K.cols, "vals": K.vals, "spectrum": spectrum, "U": U}

    def load(self, arrays, params, workdir):
        return {"n": params["n"], "dataset": px.Dataset(arrays["samples"])}

    def op(self, state, i):
        ds, n = state["dataset"], state["n"]
        return lambda: px.experiments.run_sparse_experiment(dataset=ds, n=n, m=self.M, trials=1)

    def check(self, state, i, rows, records, oracle, tally):
        ext_rows = [r for r in rows if r.method == "sparse_extension"]
        nys_rows = [r for r in rows if r.method == "nystrom_generalized"]
        _require(len(ext_rows) == 10 and len(nys_rows) >= 1 and len(rows) == len(ext_rows) + len(nys_rows),
                 f"unexpected report rows: {len(ext_rows)} extension, {len(nys_rows)} Nystrom, {len(rows)} total")
        for r in rows:
            _require(np.isfinite(r.value) and 0.0 <= r.value <= np.pi / 2 + 1e-12, f"bad angle in {r}")
            _require(0.0 < r.nnz_fraction <= 1.0, f"bad nnz fraction in {r}")
        ext = [rec for rec in records if rec[0] == "extension.extend_with_submatrix"]
        nys = [rec for rec in records if rec[0] == "nystrom.generalized_nystrom"]
        _require(len(ext) == len(ext_rows) and len(nys) == len(nys_rows),
                 f"{len(ext)} extensions and {len(nys)} Nystrom calls for {len(rows)} rows")
        K = ext[0][1][0]
        _require(all(rec[1][0] is K for rec in ext + nys), "more than one kernel in one trial")
        _require(np.array_equal(K.rows, oracle["rows"]) and np.array_equal(K.cols, oracle["cols"])
                 and np.allclose(K.vals, oracle["vals"], rtol=1e-12, atol=0.0),
                 "the trial kernel differs from the oracle's")
        U = oracle["U"]
        for (_, args, res), row in zip(ext, ext_rows):
            angle = check_pairs(res.values, res.vectors, state["n"], self.M, oracle["spectrum"], U, tally)
            _require(abs(angle - row.value) <= ANGLE_MATCH_TOL,
                     f"q={row.parameter}: reported angle {row.value:.3e}, oracle angle {angle:.3e}")
            tally.bound_cover(check_bounds(res.bound_terms, self.M), np.asarray(res.vectors), U)
        for (_, args, (vals, vecs)), row in zip(nys, nys_rows):
            angle = px.principal_angle(_finite("Nystrom vectors", vecs), U)
            _require(abs(angle - row.value) <= ANGLE_MATCH_TOL,
                     f"l={row.parameter}: reported angle {row.value:.3e}, oracle angle {angle:.3e}")


class NystromFamily(Workload):
    name = "nystrom_family"
    captures = (("extension", "extend_with_submatrix"),)
    M = 10
    MEMBERS = 4

    def generate(self, seed, tiny, workdir):
        n, l_small, l_large = (200, 20, 60) if tiny else (1500, 100, 400)
        ds = px.standardize(px.gen_clustered_dataset(n=n, seed=derive_seed(seed, 3)))
        K = px.build_kernel(ds, px.KernelSpec.gaussian(GAMMA))
        subsets = np.stack([np.sort(rng_for(derive_seed(seed, 3, 1 + j)).choice(n, size=l_small, replace=False))
                            for j in range(self.MEMBERS)])
        return {"K": K.a, "subsets": subsets}, {"n": n, "l_small": l_small, "l_large": l_large}

    def oracle(self, arrays, params):
        a = arrays["K"]
        spectrum, U = exact_spectrum(a, self.M)
        fro = np.linalg.norm(a)
        mags = np.sort(np.abs(spectrum))[::-1]
        # Eckart-Young: no rank-r matrix is closer to K in Frobenius norm
        optimal = {r: np.sqrt(np.sum(mags[r:] ** 2)) / fro for r in (self.M, self.M * self.MEMBERS)}
        return {"spectrum": spectrum, "U": U, "fro": np.float64(fro),
                "optimal_rank_m": np.float64(optimal[self.M]),
                "optimal_rank_members_m": np.float64(optimal[self.M * self.MEMBERS])}

    def load(self, arrays, params, workdir):
        n = params["n"]
        return {"n": n, "K": px.SymmetricDense(arrays["K"]), "subsets": list(arrays["subsets"]),
                "l_small": params["l_small"], "l_large": params["l_large"],
                "blocks": (n // self.MEMBERS,) * self.MEMBERS}

    def op(self, state, i):
        K, m, subsets = state["K"], self.M, state["subsets"]

        def family():
            return [
                px.generalized_nystrom(K, m, state["l_small"]),
                px.generalized_nystrom(K, m, state["l_large"]),
                px.shifted_nystrom(K, m),
                px.ensemble_nystrom(K, m, subsets),
                px.block_extend(K, state["blocks"], px.ExtensionConfig(m=m)),
            ]

        return family

    def check(self, state, i, outputs, records, oracle, tally):
        a, fro, U = state["K"].a, float(oracle["fro"]), oracle["U"]
        n, m = state["n"], self.M
        _require(len(outputs) == 5, f"{len(outputs)} results for 5 calls")
        approxes = []
        for vals, vecs in outputs[:3]:
            vals, vecs = _finite("values", vals), _finite("vectors", vecs)
            _require(vals.shape == (m,) and vecs.shape == (n, m), "Nystrom pair shapes")
            angle = px.principal_angle(vecs, U)
            _require(0.0 <= angle <= np.pi / 2 + 1e-12, f"principal angle {angle} out of range")
            tally.angles.append(angle)
            approxes.append(((vecs * vals[None, :]) @ vecs.T, float(oracle["optimal_rank_m"])))
        for approx in outputs[3:]:
            approxes.append((approx.a, float(oracle["optimal_rank_members_m"])))
        for approx, optimal in approxes:
            approx = _finite("approximation", approx)
            err = float(np.linalg.norm(a - approx)) / fro
            _require(err >= optimal - OPTIMAL_ERR_TOL,
                     f"approximation error {err:.6e} below the rank optimum {optimal:.6e}")
            tally.approx_errs.append(err)
        ext = [rec for rec in records if rec[0] == "extension.extend_with_submatrix"]
        _require(len(ext) == self.MEMBERS, f"{len(ext)} block extensions for {self.MEMBERS} blocks")
        for _, _, res in ext:
            tally.bound_cover(check_bounds(res.bound_terms, m), _finite("vectors", res.vectors), U)


class CliFiles(Workload):
    name = "cli_files"
    M = 5
    KEEP = 0.3
    MASK_SHARE = 0.5
    cycle = 2

    def generate(self, seed, tiny, workdir):
        n = 120 if tiny else 800
        ds = px.standardize(px.gen_clustered_dataset(n=n, seed=derive_seed(seed, 4)))
        K = px.sparsify(px.build_kernel(ds, px.KernelSpec.gaussian(GAMMA)), self.KEEP)
        px.write_sparse(os.path.join(workdir, "K.txt"), K)
        # the diagonal plus a seeded half of the stored off-diagonal entries
        pick = rng_for(derive_seed(seed, 4, 1)).uniform(size=K.rows.size) < self.MASK_SHARE
        keep = (K.rows == K.cols) | pick
        mask = px.SparseSymmetric(n, K.rows[keep], K.cols[keep], np.ones(int(keep.sum())))
        px.write_sparse(os.path.join(workdir, "mask.txt"), mask)
        return {"rows": K.rows, "cols": K.cols, "vals": K.vals}, {"n": n}

    def oracle(self, arrays, params):
        a = dense_from_triplets(params["n"], arrays["rows"], arrays["cols"], arrays["vals"])
        spectrum, U = exact_spectrum(a, self.M)
        return {"spectrum": spectrum, "U": U}

    def load(self, arrays, params, workdir):
        return {"n": params["n"], "matrix": os.path.join(workdir, "K.txt"),
                "selectors": ("mask:" + os.path.join(workdir, "mask.txt"), f"sparse:{self.KEEP}"),
                "out": os.path.join(workdir, "out")}

    def op(self, state, i):
        prefix = f"{state['out']}{i % 2}"
        argv = ["extend", "--sparse-matrix", state["matrix"], "--selector", state["selectors"][i % 2],
                "--m", str(self.M), "--mu", "mean", "--out", prefix]

        def extend():
            with contextlib.redirect_stdout(io.StringIO()):
                return px.cli.main(argv), prefix

        return extend

    def check(self, state, i, output, records, oracle, tally):
        code, prefix = output
        _require(code == 0, f"cli exit {code}")
        vectors = np.loadtxt(prefix + ".vectors", delimiter=",", ndmin=2)
        values = np.loadtxt(prefix + ".values", ndmin=1)
        bounds = check_bounds(np.loadtxt(prefix + ".bounds", ndmin=1), self.M)
        check_pairs(values, vectors, state["n"], self.M, oracle["spectrum"], oracle["U"], tally)
        tally.bound_cover(bounds, vectors, oracle["U"])


WORKLOADS = {wl.name: wl for wl in (BandExtend(), SparseTrial(), NystromFamily(), CliFiles())}
