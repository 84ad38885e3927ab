"""Symmetric matrix types, eigensolvers, norms and subspace angles.

Everything downstream works with exactly two concrete matrix types, dense
and triplet-sparse, both immutable after construction; the helpers below
dispatch on those two only.  Eigenvalues are always
ordered descending by algebraic value and eigenvector signs are fixed so
that independently computed decompositions can be compared entrywise.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# below this dimension the partial solver and norm fall back to dense LAPACK
DENSE_FALLBACK_N = 256

GAP_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """An iterative solver did not reach its tolerance within its budget."""


class EigengapError(ValueError):
    """Consecutive eigenvalues are too close for the requested operation."""


class RankDeficientError(ValueError):
    """A block expected to have full column rank does not."""


def canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-magnitude entry of each column is
    positive (ties broken by lowest row index)."""
    v = np.array(vectors, dtype=float)
    if v.ndim != 2:
        raise ValueError("expected a 2-D block of column vectors")
    lead = np.abs(v).argmax(axis=0)
    signs = np.sign(v[lead, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    return v * signs[None, :]


class SymmetricDense:
    """Immutable dense real symmetric matrix.

    Symmetry must hold exactly; pass ``symmetrize=True`` to average an
    almost-symmetric input ((a + a.T) / 2 is exact in IEEE arithmetic).
    """

    __slots__ = ("a",)

    def __init__(self, entries, symmetrize: bool = False):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        if symmetrize:
            a = (a + a.T) / 2.0
        elif not np.array_equal(a, a.T):
            raise ValueError("matrix is not exactly symmetric; use symmetrize=True")
        a.setflags(write=False)
        self.a = a

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.a @ x

    def to_dense(self) -> "SymmetricDense":
        return self

    def __repr__(self):
        return f"SymmetricDense(n={self.n})"


class SparseSymmetric:
    """Immutable sparse symmetric matrix stored as upper-triangle triplets.

    Only entries with row <= col are stored; the full matrix is implied by
    symmetry.  ``nnz`` counts structural nonzeros of the full matrix
    (off-diagonal pairs twice, diagonal once).  Exact zeros are dropped at
    construction so nnz is meaningful.
    """

    __slots__ = ("_n", "rows", "cols", "vals", "_csr")

    def __init__(self, n: int, rows, cols, vals):
        if n <= 0:
            raise ValueError("dimension must be positive")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("triplet arrays must be 1-D and equally sized")
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix entries must be finite")
        if rows.size:
            if rows.min() < 0 or cols.max() >= n:
                raise ValueError("triplet index out of range")
            if np.any(rows > cols):
                raise ValueError("triplets must satisfy row <= col")
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        # row-major order; a stable sort of the flat index is fast on the
        # already-sorted triplets that files, selections and merges supply
        key = rows * n + cols
        order = np.argsort(key, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        if np.any(np.diff(key[order]) == 0):
            raise ValueError("duplicate (row, col) triplet")
        for arr in (rows, cols, vals):
            arr.setflags(write=False)
        self._n = int(n)
        self.rows, self.cols, self.vals = rows, cols, vals
        mirror = rows != cols
        full_r = np.concatenate([rows, cols[mirror]])
        full_c = np.concatenate([cols, rows[mirror]])
        full_v = np.concatenate([vals, vals[mirror]])
        self._csr = sp.csr_array((full_v, (full_r, full_c)), shape=(n, n))

    @property
    def n(self) -> int:
        return self._n

    @property
    def nnz(self) -> int:
        diag = int(np.count_nonzero(self.rows == self.cols))
        return 2 * (self.vals.size - diag) + diag

    @property
    def nnz_stored(self) -> int:
        return int(self.vals.size)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._csr @ x

    def to_dense(self) -> SymmetricDense:
        return SymmetricDense(self._csr.toarray(), symmetrize=True)

    @classmethod
    def from_dense(cls, K: SymmetricDense) -> "SparseSymmetric":
        return cls(K.n, *_stored_triplets(K))

    def __repr__(self):
        return f"SparseSymmetric(n={self.n}, nnz={self.nnz})"


class EigenPairs:
    """Leading eigenpairs: descending values and orthonormal sign-fixed vectors.

    Ties in the values are permitted (they arise from degenerate spectra);
    operations that require distinct values enforce their own gap guard.
    """

    __slots__ = ("values", "vectors")

    def __init__(self, values, vectors):
        values = np.array(values, dtype=float)
        vectors = np.array(vectors, dtype=float)
        if values.ndim != 1 or vectors.ndim != 2:
            raise ValueError("values must be 1-D, vectors 2-D")
        n, m = vectors.shape
        if values.size != m or not 1 <= m <= n:
            raise ValueError(f"inconsistent shapes: {values.size} values, vectors {vectors.shape}")
        if not np.all(np.isfinite(values)) or not np.all(np.isfinite(vectors)):
            raise ValueError("eigenpairs must be finite")
        if np.any(np.diff(values) > 0):
            raise ValueError("eigenvalues must be in descending order")
        gram = vectors.T @ vectors
        if np.max(np.abs(gram - np.eye(m))) > 1e-8:
            raise ValueError("eigenvector block is not orthonormal to 1e-8")
        lead = np.abs(vectors).argmax(axis=0)
        if np.any(vectors[lead, np.arange(m)] < 0):
            raise ValueError("sign convention violated: apply canonical_signs first")
        values.setflags(write=False)
        vectors.setflags(write=False)
        self.values = values
        self.vectors = vectors

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def m(self) -> int:
        return self.vectors.shape[1]

    def __repr__(self):
        return f"EigenPairs(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# dispatch helpers


def dimension(A) -> int:
    return A.n


def matvec(A, x: np.ndarray) -> np.ndarray:
    """Apply a symmetric matrix to a vector or to a block of columns."""
    return A.matvec(x)


def trace(A) -> float:
    if isinstance(A, SymmetricDense):
        return float(np.trace(A.a))
    diag = A.rows == A.cols
    return float(A.vals[diag].sum())


def frobenius_norm(A) -> float:
    if isinstance(A, SymmetricDense):
        return float(np.linalg.norm(A.a))
    diag = A.rows == A.cols
    off = A.vals[~diag]
    return float(np.sqrt(2.0 * np.dot(off, off) + np.dot(A.vals[diag], A.vals[diag])))


def nnz(A) -> int:
    """Structural nonzeros, counting symmetric pairs twice."""
    if isinstance(A, SymmetricDense):
        return int(np.count_nonzero(A.a))
    return A.nnz


def _stored_triplets(A):
    """Upper-triangle (rows, cols, vals) of the stored nonzeros of A."""
    if isinstance(A, SparseSymmetric):
        return A.rows, A.cols, A.vals
    r, c = np.nonzero(np.triu(A.a))
    return r, c, A.a[r, c]


def add_scaled(A, B, c: float):
    """A + c * B, preserving sparsity when both operands are sparse.

    Entries that cancel to exactly 0.0 are dropped, so K - K^s for a
    selection K^s of a sparse K stores only the unselected entries.
    """
    if dimension(A) != dimension(B):
        raise ValueError("dimension mismatch")
    if isinstance(A, SparseSymmetric) and isinstance(B, SparseSymmetric):
        rows = np.concatenate([A.rows, B.rows])
        cols = np.concatenate([A.cols, B.cols])
        vals = np.concatenate([A.vals, c * B.vals])
        key = rows * A.n + cols
        uniq, inv = np.unique(key, return_inverse=True)
        merged = np.zeros(uniq.size)
        np.add.at(merged, inv, vals)
        return SparseSymmetric(A.n, uniq // A.n, uniq % A.n, merged)
    return SymmetricDense(A.to_dense().a + c * B.to_dense().a, symmetrize=True)


def _to_dense_array(A) -> np.ndarray:
    # the ndarray case serves sym_eig_full, the oracle, which is called on raw arrays
    if isinstance(A, np.ndarray):
        return A
    return A.to_dense().a


def _stored_operator(A):
    """What eigsh iterates on: the CSR form of a sparse matrix, else the array."""
    return A._csr if isinstance(A, SparseSymmetric) else A.a


# ---------------------------------------------------------------------------
# eigensolvers


def _start_vector(n: int, seed: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, n))))
    v = gen.standard_normal(n)
    return v / np.linalg.norm(v)


def sym_eig_full(A) -> EigenPairs:
    """All eigenpairs of a symmetric matrix, descending, sign-canonical.

    This is the ground-truth decomposition every approximation in the
    package is tested against.
    """
    a = _to_dense_array(A)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    return EigenPairs(w[order], canonical_signs(v[:, order]))


def sym_eig_partial(A, m: int) -> EigenPairs:
    """The m leading eigenpairs by algebraic value.

    Small problems (n <= 256) are solved densely; larger ones use a
    restarted Lanczos iteration with a seeded start vector.  On the
    iterative path the gap between pairs m and m+1 is checked, since a
    vanishing gap makes the leading subspace ill-posed for the iteration.
    """
    n = dimension(A)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if n <= DENSE_FALLBACK_N or m > n - 2:
        full = sym_eig_full(A)
        return EigenPairs(full.values[:m], full.vectors[:, :m])

    k = m + 1
    try:
        w, v = spla.eigsh(_stored_operator(A), k=k, which="LA", v0=_start_vector(n, 0),
                          maxiter=50 * n)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos failed to converge ({len(exc.eigenvalues)} of {k} pairs found)") from exc
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    if w[m - 1] - w[m] < GAP_TOL:
        raise EigengapError(
            f"eigengap between pairs {m} and {m + 1} is {w[m - 1] - w[m]:.3e} < {GAP_TOL}")
    return EigenPairs(w[:m], canonical_signs(v[:, :m]))


def _extreme_eigvals(A, k: int, which: str) -> np.ndarray:
    """The k eigenvalues of a symmetric matrix that are largest by algebraic
    value (``which="LA"``) or by magnitude (``"LM"``), in that order, without
    eigenvectors.

    Like ``sym_eig_partial``, small problems (n <= 256, or k > n - 2) go to
    dense LAPACK and larger ones to a seeded Lanczos iteration on the stored
    array; no eigengap is checked, since no subspace is returned.
    """
    n = dimension(A)
    w = None
    if n > DENSE_FALLBACK_N and k <= n - 2:
        op = _stored_operator(A)
        v0 = _start_vector(n, 1)
        # a start vector in the null space ends the iteration at once; that
        # unlucky case falls back to dense LAPACK
        if np.any(op @ v0):
            try:
                w = spla.eigsh(op, k=k, which=which, v0=v0, maxiter=50 * n,
                               return_eigenvectors=False)
            except spla.ArpackNoConvergence as exc:
                raise ConvergenceError(
                    f"Lanczos failed to converge ({len(exc.eigenvalues)} of {k} values found)") from exc
    if w is None:
        w = np.linalg.eigvalsh(A.to_dense().a)
    key = -w if which == "LA" else -np.abs(w)
    return w[np.argsort(key, kind="stable")[:k]]


def spectral_norm(A) -> float:
    """max |eigenvalue| of a symmetric matrix.

    A matrix without nonzeros returns 0.0 at once; otherwise the value comes
    from ``_extreme_eigvals`` (dense LAPACK for n <= 256, else Lanczos).
    """
    if nnz(A) == 0:
        return 0.0
    return float(abs(_extreme_eigvals(A, 1, "LM")[0]))


def columns(A, cols) -> np.ndarray:
    """A[:, cols] as a new C-ordered n x len(cols) array.

    C order matters to callers that multiply the block: a fancy-indexed
    column slice is F-ordered, which sends a product down another BLAS path
    and changes its last bits.  A sparse A is read from the CSR rows
    ``cols`` (A is symmetric, so they are the wanted columns transposed)
    without forming the n x n array.
    """
    if isinstance(A, SparseSymmetric):
        return np.ascontiguousarray(A._csr[cols].toarray().T)
    return np.ascontiguousarray(A.a[:, cols])


def principal_angle(U: np.ndarray, W: np.ndarray) -> float:
    """Largest principal angle between the column spans of U and W, in radians.

    Both blocks are orthonormalized first, so column scaling and mixing do
    not affect the result.  Small angles are computed through sines for
    accuracy near zero.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if U.ndim != 2 or W.ndim != 2 or U.shape != W.shape:
        raise ValueError("expected two blocks of identical shape")
    qu = _orthonormalize(U)
    qw = _orthonormalize(W)
    cosines = np.linalg.svd(qu.T @ qw, compute_uv=False)
    cos_min = min(float(cosines[-1]), 1.0)
    if cos_min ** 2 >= 0.5:
        sines = np.linalg.svd(qw - qu @ (qu.T @ qw), compute_uv=False)
        return float(np.arcsin(min(float(sines[0]), 1.0)))
    return float(np.arccos(max(cos_min, -1.0)))


def _orthonormalize(block: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(block)
    diag = np.abs(np.diag(r))
    scale = np.max(diag) if diag.size else 0.0
    if scale == 0.0 or np.min(diag) < 1e-12 * max(block.shape) * scale:
        raise RankDeficientError("input block is (numerically) rank deficient")
    return q


# ---------------------------------------------------------------------------
# file formats


def write_dense(path, K: SymmetricDense) -> None:
    """One row per line, comma-separated decimals, 17 significant digits."""
    with open(path, "w") as fh:
        for row in K.a:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def read_dense(path) -> SymmetricDense:
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: non-numeric field") from exc
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError(f"{path}: expected {n} fields per line for an {n}x{n} matrix")
    return SymmetricDense(np.array(rows), symmetrize=False)


def write_sparse(path, S: SparseSymmetric) -> None:
    """Header line 'n nnz_stored', then 0-based 'i j value' triples, i <= j."""
    with open(path, "w") as fh:
        fh.write(f"{S.n} {S.nnz_stored}\n")
        for i, j, v in zip(S.rows, S.cols, S.vals):
            fh.write(f"{i} {j} {v:.17g}\n")


def _read_triplets(path):
    """Parse the sparse file format into (n, rows, cols, vals) lists."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected header 'n nnz_stored'")
        n, count = int(header[0]), int(header[1])
        rows, cols, vals = [], [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 'i j value'")
            rows.append(int(parts[0]))
            cols.append(int(parts[1]))
            vals.append(float(parts[2]))
    if len(vals) != count:
        raise ValueError(f"{path}: header promised {count} triplets, found {len(vals)}")
    return n, rows, cols, vals


def read_sparse(path) -> SparseSymmetric:
    return SparseSymmetric(*_read_triplets(path))


def read_mask(path):
    """Sparse-format file whose values are ignored; returns (n, rows, cols)."""
    n, rows, cols, _ = _read_triplets(path)
    return n, np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
