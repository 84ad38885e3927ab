"""Symmetric matrix types, eigensolvers, norms and subspace angles.

Everything downstream works with exactly two concrete matrix types, dense
and triplet-sparse, both immutable after construction.  Each type carries
the whole matrix protocol as its own methods, and the functions built on
it (``block_selection``, ``restriction``, ``magnitude_profile``) have one
body for both, so no caller asks which of the two it holds.  The two
selection builders record what their K^s took from K; only this module's
``_selection`` reads that record, for ``SparseSymmetric.minus`` and the
E V step of ``extension.extend_with_submatrix``.  Eigenvalues
are always ordered descending by algebraic value and eigenvector signs
are fixed so that independently computed decompositions can be compared
entrywise.
"""

from __future__ import annotations

import operator
import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas

# below this dimension the partial solver and norm fall back to dense LAPACK
DENSE_FALLBACK_N = 256

GAP_TOL = 1e-12

# rows per block of the all-zero scan of a dense matrix
_ZERO_SCAN_ROWS = 64

# rows and columns per tile of the symmetric average
_AVERAGE_TILE = 128


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
    The average is written tile by tile into one new array
    (``_average_transpose``), so that path allocates no other n x n array
    and never writes to the input; an input that is already symmetric is
    copied once, so the caller's array is never frozen.  Finiteness is
    checked on the stored array, so an average whose a + a.T overflows is
    rejected too, with no numpy warning.
    """

    __slots__ = ("a", "_triplets", "_magnitude")

    def __init__(self, entries, symmetrize: bool = False):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if symmetrize:
            a = _average_transpose(a, np.empty(a.shape))
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        if not symmetrize:
            if not np.array_equal(a, a.T):
                raise ValueError("matrix is not exactly symmetric; use symmetrize=True")
            a = np.array(a)  # never freeze the caller's array
        a.setflags(write=False)
        self.a = a
        self._triplets = self._magnitude = None

    @classmethod
    def _adopt(cls, a: np.ndarray) -> "SymmetricDense":
        """Wrap a square float array that the package has just built and that
        is exactly symmetric by construction, without the constructor's copy
        and symmetry pass.  Finiteness is still checked.  The array is frozen
        in place, so the caller must not keep it for writing.
        """
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        a.setflags(write=False)
        obj = cls.__new__(cls)
        obj.a = a
        obj._triplets = obj._magnitude = None
        return obj

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def nnz(self) -> int:
        """Structural nonzeros, counting symmetric pairs twice."""
        return int(np.count_nonzero(self.a))

    def trace(self) -> float:
        return float(np.trace(self.a))

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.a))

    def triplets(self, cache: bool = True):
        """Upper-triangle (rows, cols, vals) of the nonzeros, in row-major
        order, read-only: extracted on first use and kept unless ``cache`` is
        false.  The upper triangle is gathered by index and its zeros masked
        out, which is faster than a ``nonzero`` scan of an ``np.triu`` copy."""
        if self._triplets is not None:
            return self._triplets
        r, c = np.triu_indices(self.n)
        v = self.a[r, c]
        keep = v != 0.0
        found = _frozen(r[keep], c[keep], v[keep])
        if cache:
            self._triplets = found
        return found

    def support_block(self):
        """(rows, block): the r rows that hold a nonzero and, when 0 < r < n,
        the principal block on them, else the matrix itself."""
        rows = np.flatnonzero(self.a.any(axis=0))
        return rows, self.principal_block(rows) if 0 < rows.size < self.n else self

    def is_zero(self) -> bool:
        """Whether no entry is nonzero.  The array is scanned in blocks of
        rows and the scan stops at the first block holding a nonzero."""
        return not any(self.a[i:i + _ZERO_SCAN_ROWS].any() for i in range(0, self.n, _ZERO_SCAN_ROWS))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the matrix to a vector or to a block of columns.  A vector
        takes one BLAS ``dsymv``, which reads a single triangle of whichever
        of the array and its transpose (equal by symmetry) is F-ordered, so
        no product copies the matrix."""
        if x.ndim == 1:
            return blas.dsymv(1.0, self.a if self.a.flags.f_contiguous else self.a.T, x)
        return self.a @ x

    def minus(self, B) -> "SymmetricDense":
        """self - B as a dense matrix: a copy of the array with B subtracted
        at B's stored positions only, so a sparse B is never densified."""
        if self.n != B.n:
            raise ValueError("dimension mismatch")
        a = np.array(self.a)
        rows, cols, vals = B.triplets()
        a[rows, cols] -= vals
        a[cols, rows] = a[rows, cols]
        return SymmetricDense._adopt(a)

    def principal_block(self, cols) -> "SymmetricDense":
        """A[cols, cols] as a new dense matrix, equal to the rows ``cols`` of A[:, cols]."""
        cols = _block_cols(cols, self.n)
        span = _span(cols)
        block = self.a[np.ix_(cols, cols)] if span is cols else self.a[span, span].copy()
        return SymmetricDense._adopt(block)

    def columns_matvec(self, rows, x: np.ndarray) -> np.ndarray:
        """A[:, rows] x[rows] as (x[rows]^T A[rows, :])^T, one product with the
        rows (A is symmetric; a view for a range), returned F-ordered."""
        return (x[rows].T @ self.a[_span(rows)]).T

    def to_dense(self) -> "SymmetricDense":
        return self

    def __repr__(self):
        return f"SymmetricDense(n={self.n})"


class SparseSymmetric:
    """Immutable sparse symmetric matrix stored as upper-triangle triplets.

    Only entries with row <= col are stored; the full matrix is implied by
    symmetry.  ``nnz`` counts structural nonzeros of the full matrix
    (off-diagonal pairs twice, diagonal once).  Exact zeros are dropped at
    construction so nnz is meaningful.  Index arrays here, and in either
    type's ``principal_block`` and in ``block_selection``, must be of an
    integer kind: a float index raises TypeError (``_indices``).  A block's
    cols must be distinct and in [0, n), else ValueError (``_block_cols``).

    The mirrored CSR form of the full matrix is built the first time
    something iterates on the matrix (``matvec``, ``columns_matvec``,
    ``to_dense``) and is kept.  Sums, norms, counts, merges, support rows and
    principal blocks read the triplets, so a matrix that is only subtracted,
    summed or counted never builds it; a principal block cuts its CSR from
    one that exists, bit for bit the one it would build.

    ``restriction(K, keep)`` and ``block_selection(K, rows)`` build a K^s
    from K, for either type of K, and record what it took: (K, keep) or
    (K, the block's rows and block).  Only this module reads the record
    (``_selection``).  A sparse K's ``minus`` of either K^s is a restriction
    of K, with no merge, so a selection K^s of a sparse K and its E = K - K^s
    are both K's entries.  A block selection builds its n-row triplets from
    its block on first read (``__getattr__``).
    """

    __slots__ = ("_n", "rows", "cols", "vals", "_csr", "_magnitude", "_parent", "_keep", "_block")

    def __init__(self, n: int, rows, cols, vals):
        rows, cols = _indices(rows, "rows"), _indices(cols, "cols")
        vals = np.asarray(vals, dtype=float)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("triplet arrays must be 1-D and equally sized")
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix entries must be finite")
        order = _row_major_order(n, rows, cols)
        rows, cols, vals = rows[order], cols[order], vals[order]
        keep = vals != 0.0
        # a mask index always copies, so the arrays frozen below are never
        # the caller's, even when the order above is a view
        self._set(n, (rows[keep], cols[keep], vals[keep]))

    def _set(self, n: int, triplets, parent=None, keep=None, block=None) -> "SparseSymmetric":
        """Set the fields from sorted, nonzero triplets that no caller holds for writing, and
        return the matrix; a restriction also keeps its parent and mask, a block selection
        its (rows, block)."""
        self._n = int(n)
        if triplets is not None:
            self.rows, self.cols, self.vals = _frozen(*triplets)
        self._csr = self._magnitude = None
        self._parent, self._keep, self._block = parent, keep, block
        return self

    def __getattr__(self, name):
        """Python calls this only for an unset slot: a block selection's
        triplets, its kept block's moved to its rows, on first read."""
        if name not in ("rows", "cols", "vals"):
            raise AttributeError(name)
        rows, block = self._block
        br, bc, bv = block.triplets(cache=False)  # a dense block keeps no copy
        self.rows, self.cols, self.vals = _frozen(rows[br], rows[bc], bv)
        return getattr(self, name)

    def _csr_form(self) -> sp.csr_array:
        """The CSR form of the full matrix, built from the triplets on first
        use and kept."""
        if self._csr is None:
            self._csr = _mirrored_csr(self._n, self.rows, self.cols, self.vals)
        return self._csr

    @property
    def n(self) -> int:
        return self._n

    @property
    def nnz(self) -> int:
        diag = int(np.count_nonzero(self.rows == self.cols))
        return 2 * (self.vals.size - diag) + diag

    def trace(self) -> float:
        return float(self.vals[self.rows == self.cols].sum())

    def frobenius_norm(self) -> float:
        diag = self.rows == self.cols
        off = self.vals[~diag]
        return float(np.sqrt(2.0 * np.dot(off, off) + np.dot(self.vals[diag], self.vals[diag])))

    def triplets(self, cache: bool = True):
        """The stored (rows, cols, vals), upper triangle in row-major order
        (fields, so ``cache`` changes nothing)."""
        return self.rows, self.cols, self.vals

    def support_block(self):
        """(rows, block): the r rows that store a nonzero and, when 0 < r < n,
        the principal block on them, else the matrix itself.  A
        ``block_selection`` gives the (rows, block) it kept; any other matrix
        counts its rows from the triplets in O(n + nnz), building no CSR."""
        if self._block is not None and 0 < self._block[0].size < self._n:
            return self._block
        rows = np.flatnonzero(np.bincount(np.concatenate((self.rows, self.cols)), minlength=self._n))
        return rows, self.principal_block(rows) if 0 < rows.size < self._n else self

    def is_zero(self) -> bool:
        return self.vals.size == 0

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the matrix to a vector or to a block of columns."""
        return self._csr_form() @ x

    def minus(self, B) -> "SparseSymmetric":
        """self - B as a sparse matrix, B read through its triplets.

        Entries that cancel to exactly 0.0 are dropped, so K - K^s for a
        selection K^s of a sparse K stores only the unselected entries.  A B
        that ``restriction`` or ``block_selection`` built from this matrix
        (``_selection``) needs no merge: its E is ``restriction(self, ~keep)``,
        for a block selection with keep set on the triplets inside rows x rows
        (O(n + nnz), no sort).  The selected entries cancel to exactly 0.0 and
        the rest keep their values, as the merge would give them; the merge
        serves only a B this matrix did not build.
        """
        if self.n != B.n:
            raise ValueError("dimension mismatch")
        keep, rows = _selection(B, self)
        if rows is not None:
            inside = np.bincount(rows, minlength=self._n) > 0
            keep = inside[self.rows] & inside[self.cols]
        if keep is not None:
            return restriction(self, ~keep)
        b_rows, b_cols, b_vals = B.triplets()
        rows = np.concatenate([self.rows, b_rows])
        cols = np.concatenate([self.cols, b_cols])
        vals = np.concatenate([self.vals, -b_vals])
        key = rows * self.n + cols
        uniq, inv = np.unique(key, return_inverse=True)
        merged = np.zeros(uniq.size)
        np.add.at(merged, inv, vals)
        return SparseSymmetric(self.n, uniq // self.n, uniq % self.n, merged)

    def principal_block(self, cols) -> "SparseSymmetric":
        """A[cols, cols] for distinct ``cols``, from the stored triplets
        through a map from each row to its place in ``cols``, equal to the
        dense block's entries bit for bit.  It takes its CSR cut from A's, if
        A has one (``csr[a:b, a:b]`` for a range)."""
        cols = _block_cols(cols, self._n)
        l = cols.size
        place = np.full(self._n, -1, dtype=np.int64)
        place[cols] = np.arange(l)
        r, c = place[self.rows], place[self.cols]
        inside = (r >= 0) & (c >= 0)
        r, c, v = r[inside], c[inside], self.vals[inside]
        # cols out of order can put an entry below the block's diagonal
        block = SparseSymmetric(l, np.minimum(r, c), np.maximum(r, c), v)
        if self._csr is not None:
            span = _span(cols)
            block._csr = self._csr[span, span] if span is not cols else self._csr[np.ix_(cols, cols)]
            block._csr.sort_indices()
        return block

    def columns_matvec(self, rows, x: np.ndarray) -> np.ndarray:
        """A[:, rows] x[rows] for an x that vanishes off ``rows``: the CSR product A x."""
        return self._csr_form() @ x

    def to_dense(self) -> SymmetricDense:
        return SymmetricDense._adopt(self._csr_form().toarray())

    def __repr__(self):
        return f"SparseSymmetric(n={self.n}, nnz={self.nnz})"


def _span(idx: np.ndarray):
    """An index array that counts up by one as its slice (a view, no gather), else as is."""
    return slice(idx[0], idx[-1] + 1) if idx.size and np.all(np.diff(idx) == 1) else idx


def _frozen(*arrays):
    """The arrays, made read-only in place."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def block_selection(K, rows) -> SparseSymmetric:
    """K^s, K's principal block on the set ``rows``, gathered once, as the n-row matrix whose
    triplets are the block's moved to ``rows``, built on first read (at once for a block
    without nonzeros).  K^s records K and the block's ``support_block`` moved to K's rows,
    which is all the block path reads; a sparse K's ``minus`` of it is the restriction of K
    to the triplets outside those rows x rows, with no merge."""
    rows = np.unique(_indices(rows, "rows"))
    cut, block = K.principal_block(rows).support_block()
    empty = None if cut.size else (cut, cut, np.zeros(0))
    return SparseSymmetric.__new__(SparseSymmetric)._set(K.n, empty, K, block=(rows[cut], block))


def restriction(K, keep) -> SparseSymmetric:
    """K's stored triplets where ``keep``, one bool per triplet of
    ``K.triplets()``, is set, as a sparse matrix that records (K, keep)
    for either type of K.  The triplets are gathered in their sorted order,
    so nothing is sorted or checked again.  A ``keep`` of another dtype or
    length raises ValueError."""
    rows, cols, vals = K.triplets()
    keep = np.array(keep)
    if keep.dtype != bool or keep.shape != vals.shape:
        raise ValueError(f"keep needs one bool per triplet ({vals.size}), got {keep.dtype} {keep.shape}")
    keep.setflags(write=False)
    # gathering by index is several times faster than by a scattered mask
    taken = np.flatnonzero(keep)
    obj = SparseSymmetric.__new__(SparseSymmetric)
    return obj._set(K.n, (rows[taken], cols[taken], vals[taken]), K, keep)


def _selection(Ks, K):
    """(keep, rows), the record of what Ks took from K when K built it: a
    ``restriction``'s frozen mask, or the rows on which a
    ``block_selection``'s block stores a nonzero (none for an empty block),
    the other None.  A matrix that neither builder made from K, every dense
    one included, has no record: (None, None).  Only
    ``SparseSymmetric.minus`` and ``extension.extend_with_submatrix`` read it."""
    if getattr(Ks, "_parent", None) is not K:
        return None, None
    return Ks._keep, None if Ks._block is None else Ks._block[0]


def magnitude_profile(K):
    """(order, cum) of K's upper-triangle triplets: their stable order by
    descending |value|, and cum[k] the nonzeros of the full matrix
    (symmetric pairs twice) that the k + 1 largest of them hold.  Formed on
    first use and kept in K, so repeated selections of the largest entries
    of one matrix sort it once."""
    if K._magnitude is None:
        rows, cols, vals = K.triplets()
        order = np.argsort(-np.abs(vals), kind="stable")
        K._magnitude = _frozen(order, np.cumsum(np.where(rows == cols, 1, 2)[order]))
    return K._magnitude


def _average_transpose(src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write (src + src.T) / 2 of a square src into ``out`` and return it.

    The work goes tile by tile: each unordered pair of tiles of src is read
    once and (u + v.T) * 0.5 written to both places, so the temporaries
    stay one tile in size and ``out`` may be src itself, averaged in place.
    x * 0.5 and x / 2 round the same value and the sum commutes, so the
    result equals (src + src.T) / 2 bit for bit.  A sum that overflows is
    left as inf without a warning, for the caller's finiteness check to reject.
    """
    n, t = src.shape[0], _AVERAGE_TILE
    with np.errstate(over="ignore"):
        for i in range(0, n, t):
            for j in range(i, n, t):
                s = src[i:i + t, j:j + t] + src[j:j + t, i:i + t].T
                s *= 0.5
                out[i:i + t, j:j + t] = s
                out[j:j + t, i:i + t] = s.T
    return out


def _mirrored_csr(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> sp.csr_array:
    """The n x n CSR array of the full matrix whose upper-triangle triplets
    are given in row-major order, each off-diagonal entry mirrored below the
    diagonal."""
    mirror = rows != cols
    # the mirrored entries go first: the conversion keeps the input order
    # within a row, so each row lists its columns in ascending order (those
    # below the diagonal, then those on and above it) and scipy, finding the
    # result canonical, sorts nothing; no position repeats, so none is summed
    full_r = np.concatenate([cols[mirror], rows])
    full_c = np.concatenate([rows[mirror], cols])
    full_v = np.concatenate([vals[mirror], vals])
    return sp.csr_array((full_v, (full_r, full_c)), shape=(n, n))


def _require_matrix(A) -> None:
    """Raise TypeError unless A is a SymmetricDense or a SparseSymmetric, the
    two types that carry the matrix protocol; a raw array carries none of it."""
    if type(A) not in (SymmetricDense, SparseSymmetric):
        raise TypeError(f"expected a SymmetricDense or SparseSymmetric matrix, "
                        f"got {type(A).__name__}")


def _count(value, name: str) -> int:
    """``operator.index(value)``: NumPy integers pass, and the TypeError of a
    float or of a bool (``operator.index`` takes a bool as 0 or 1) names ``name``."""
    try:
        if type(value) is bool:
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _indices(values, name: str) -> np.ndarray:
    """``values`` as an int64 array.  An array of another kind than integer,
    unless it is empty, raises a TypeError that names ``name``: a float index
    is never truncated."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise TypeError(f"{name} must hold integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _block_cols(values, n: int) -> np.ndarray:
    """``_indices(values, "cols")``, raising ValueError unless the cols are
    distinct and in [0, n): one sort, O(l log l), finds the least, the
    largest and any repeat (``np.unique`` took 3-10 times as long)."""
    cols = _indices(values, "cols")
    s = np.sort(cols)
    if s.size and (s[0] < 0 or s[-1] >= n or np.any(s[1:] == s[:-1])):
        raise ValueError(f"principal_block needs distinct cols in [0, {n})")
    return cols


def _row_major_order(n: int, rows: np.ndarray, cols: np.ndarray):
    """Row-major order of upper-triangle index pairs of an n x n matrix, as
    an index array, or ``slice(None)`` when the pairs are already in it.

    Raises ValueError for a nonpositive n or one whose n * n overflows the
    int64 flat index, an index outside [0, n), a pair with row > col, or a
    repeated pair.  Files, selections, merges and generators supply sorted
    pairs: one pass finds their flat keys strictly increasing, which also
    rules out repeats, and skips the sort.
    """
    if n <= 0:
        raise ValueError("dimension must be positive")
    if int(n) ** 2 > np.iinfo(np.int64).max:
        raise ValueError(f"dimension {n} too large: n * n overflows int64")
    if rows.size:
        if rows.min() < 0 or cols.max() >= n:
            raise ValueError("triplet index out of range")
        if np.any(rows > cols):
            raise ValueError("triplets must satisfy row <= col")
    key = rows * n + cols
    if np.all(key[1:] > key[:-1]):
        return slice(None)
    order = np.argsort(key, kind="stable")
    if np.any(np.diff(key[order]) == 0):
        raise ValueError("duplicate (row, col) triplet")
    return order


class EigenPairs:
    """Leading eigenpairs: descending values and orthonormal sign-fixed vectors.

    Ties in the values are permitted (they arise from degenerate spectra);
    operations that require distinct values enforce their own gap guard.
    Both arrays are read-only and cannot be replaced, so a guard checked
    once at construction keeps holding.

    ``rest`` holds the eigenvalues after the m kept ones, read-only, when a
    dense solve found them: after ``sym_eig_full``, and after a dense
    ``sym_eig_partial`` solve, whose padded form ends it with the n - r
    zero eigenvalues of the empty rows.  Then ``values`` and ``rest``
    together are the whole spectrum.  It is None after a Lanczos solve and
    for pairs built by hand; only the solvers pass ``_rest``.
    """

    __slots__ = ("_values", "_vectors", "_rest")

    def __init__(self, values, vectors, _rest=None):
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
        if _rest is not None:  # a fresh array from a solver
            _rest.setflags(write=False)
        values.setflags(write=False)
        vectors.setflags(write=False)
        self._values = values
        self._vectors = vectors
        self._rest = _rest

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @property
    def rest(self) -> np.ndarray | None:
        return self._rest

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def m(self) -> int:
        return self.vectors.shape[1]

    def __repr__(self):
        return f"EigenPairs(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# eigensolvers


def _start_vector(n: int, seed: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, n))))
    v = gen.standard_normal(n)
    return v / np.linalg.norm(v)


def sym_eig_full(A, m: int | None = None) -> EigenPairs:
    """The m leading eigenpairs (all when m is None) of a symmetric matrix,
    descending and sign-canonical, from one dense LAPACK solve of its dense
    form (both matrix types hold finite entries by construction).

    This is the ground-truth decomposition every approximation in the
    package is tested against.  Only the m kept columns are sign-fixed and
    checked; ``canonical_signs`` works column by column, so they equal the
    leading columns of the full decomposition bit for bit.  The other n - m
    eigenvalues, descending, are kept as the pairs' ``rest``.  Any other
    input type raises TypeError.
    """
    _require_matrix(A)
    n = A.n
    m = n if m is None else _count(m, "m")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    a = A.to_dense().a
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    return EigenPairs(w[order[:m]], canonical_signs(v[:, order[:m]]), _rest=w[order[m:]])


def _dense_eigvalsh(A) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, from one dense LAPACK
    solve; a failed solve raises ConvergenceError, as in ``sym_eig_full``."""
    try:
        return np.linalg.eigvalsh(A.to_dense().a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver failed: {exc}") from exc


def _solves_densely(n: int, k: int) -> bool:
    """The one size rule of the eigensolvers: k pairs of an n-row matrix come
    from dense LAPACK up to DENSE_FALLBACK_N rows, or when k > n - 2 leaves
    Lanczos no room, and from seeded Lanczos otherwise."""
    return n <= DENSE_FALLBACK_N or k > n - 2


def _lanczos(A, k: int, which: str, seed: int, vectors: bool):
    """``eigsh`` on a linear operator whose product is ``A.matvec``: k extreme
    pairs (values only unless ``vectors``), from the seeded start vector, in
    at most 50 n iterations.  Any ARPACK failure raises ConvergenceError."""
    n = A.n
    # with its dtype given, the operator does not probe the product on a zero vector
    op = spla.LinearOperator((n, n), matvec=A.matvec, dtype=float)
    try:
        return spla.eigsh(op, k=k, which=which, v0=_start_vector(n, seed),
                          maxiter=50 * n, return_eigenvectors=vectors)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos failed to converge ({len(exc.eigenvalues)} of {k} values found)") from exc
    except spla.ArpackError as exc:
        # the message names ARPACK's info code
        raise ConvergenceError(f"Lanczos failed: {exc}") from exc


def sym_eig_partial(A, m: int) -> EigenPairs:
    """The m leading eigenpairs by algebraic value: the one partial solve.

    Dense LAPACK or seeded Lanczos for m + 1 pairs, by one size rule
    (``_solves_densely``).  A matrix whose nonzeros lie in 0 < r < n rows
    (``A.support_block()``) is solved on that r-row principal block and
    padded with zeros, since Lanczos on the n-row matrix exhausts its Krylov
    space and restarts from state that differs from call to call.  Its other
    n - r eigenvalues are exactly zero, so a leading pair that would be one
    of them raises EigengapError.  Any other matrix is solved as it is; off
    the dense path one without nonzeros raises EigengapError.
    Off that dense path a gap below GAP_TOL between pair m and pair m + 1
    (the next value or, when padded, a zero, whichever is larger) raises
    EigengapError, since it makes the leading subspace ill-posed.

    A dense solve keeps the eigenvalues after the m it returns as the pairs'
    ``rest`` (on a padded solve followed by the n - r zeros); after Lanczos
    ``rest`` is None.
    """
    n, m = A.n, _count(m, "m")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    rows, block = A.support_block()
    if block is A:
        if _solves_densely(n, m):
            return sym_eig_full(A, m)
        if not rows.size:
            raise EigengapError(f"matrix has no nonzeros: pairs {m} and {m + 1} tie at 0")
    r = block.n
    padded = r < n
    if _solves_densely(r, m):
        # only the kept columns are sign-fixed, so they equal those of the
        # full decomposition bit for bit; w is the block's whole spectrum
        found = sym_eig_full(block, min(m, r))
        w, v = np.concatenate((found.values, found.rest)), found.vectors
        rest = np.concatenate((found.rest, np.zeros(n - r)))
    else:
        w, v = _lanczos(block, m + 1, "LA", 0, vectors=True)
        order = np.argsort(-w, kind="stable")
        w, v = w[order], canonical_signs(v[:, order[:m]])
        rest = None
    if padded and (m > w.size or w[m - 1] <= 0.0):
        raise EigengapError(f"pair {m} would be one of the {n - r} zero eigenvalues "
                            f"outside the {r} rows that store nonzeros")
    gap = w[m - 1] - w[m:m + 1].max(initial=0.0 if padded else -np.inf)
    if gap < GAP_TOL:
        raise EigengapError(f"eigengap between pairs {m} and {m + 1} is {gap:.3e} < {GAP_TOL}")
    if padded:
        vectors = np.zeros((n, m))
        vectors[rows] = v
        v = vectors
    return EigenPairs(w[:m], v, _rest=rest)


def _extreme_eigvals(A, k: int, which: str) -> np.ndarray:
    """The k eigenvalues of a symmetric matrix that are largest by algebraic
    value (``which="LA"``) or by magnitude (``"LM"``), in that order, without
    eigenvectors.

    A matrix without nonzeros gives k zeros at once.  Otherwise the size
    rule of ``sym_eig_partial`` (``_solves_densely``) picks dense LAPACK or
    a seeded Lanczos iteration on the stored array; no eigengap is checked,
    since no subspace is returned.
    """
    n, k = A.n, _count(k, "k")
    if A.is_zero():
        return np.zeros(k)
    w = _dense_eigvalsh(A) if _solves_densely(n, k) else _lanczos(A, k, which, 1, vectors=False)
    key = -w if which == "LA" else -np.abs(w)
    return w[np.argsort(key, kind="stable")[:k]]


def spectral_norm(A) -> float:
    """max |eigenvalue| of a symmetric matrix, from ``_extreme_eigvals``
    (0.0 for a matrix without nonzeros, dense LAPACK for n <= 256, else
    Lanczos)."""
    return float(abs(_extreme_eigvals(A, 1, "LM")[0]))


def principal_angle(U: np.ndarray, W: np.ndarray) -> float:
    """Largest principal angle between the column spans of U and W, in radians.

    Both blocks are orthonormalized first, so column scaling and mixing do
    not affect the result.  Small angles are computed through sines for
    accuracy near zero.  A failed SVD raises ConvergenceError, as a failed
    solve does in ``sym_eig_full``.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if U.ndim != 2 or W.ndim != 2 or U.shape != W.shape:
        raise ValueError("expected two blocks of identical shape")
    qu = _orthonormalize(U)
    qw = _orthonormalize(W)
    try:
        cosines = np.linalg.svd(qu.T @ qw, compute_uv=False)
        cos_min = min(float(cosines[-1]), 1.0)
        if cos_min ** 2 >= 0.5:
            sines = np.linalg.svd(qw - qu @ (qu.T @ qw), compute_uv=False)
            return float(np.arcsin(min(float(sines[0]), 1.0)))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"principal angle failed: {exc}") from exc
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


# values formatted into one string per write
_WRITE_CHUNK = 1 << 16


def _write_lines(fh, line: str, fields: list, width: int, count: int) -> None:
    """Write ``count`` lines, each ``line % (the next width fields)``, taking
    about _WRITE_CHUNK fields per string.  The fields are Python scalars, so
    each is formatted as ``format(x, spec)`` would format it."""
    per_write = max(1, _WRITE_CHUNK // max(width, 1))
    for start in range(0, count, per_write):
        lines = min(per_write, count - start)
        fh.write(line * lines % tuple(fields[start * width:(start + lines) * width]))


def write_rows(path, rows) -> None:
    """One row per line, comma-separated decimals, 17 significant digits."""
    a = np.asarray(rows, dtype=float)
    with open(path, "w") as fh:
        _write_lines(fh, ",".join(["%.17g"] * a.shape[1]) + "\n", a.ravel().tolist(),
                     a.shape[1], a.shape[0])


def read_rows(path, skip_header: bool = False) -> np.ndarray:
    """Parse comma-separated numeric rows into a 2-D array.

    Blank lines are skipped, and the first line too with ``skip_header``.
    A non-numeric field, a row whose width differs from the first row's,
    or a file without rows raises ValueError naming the path and, where
    there is one, the line.
    """
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if skip_header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if rows and len(fields) != len(rows[0]):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(rows[0])} fields, found {len(fields)}")
            try:
                rows.append([float(f) for f in fields])
            except ValueError:
                # parse again field by field, only to name the bad one
                for col, f in enumerate(fields, start=1):
                    try:
                        float(f)
                    except ValueError as exc:
                        raise ValueError(
                            f"{path}: line {lineno}, column {col}: non-numeric field {f!r}") from exc
    if not rows:
        raise ValueError(f"{path}: empty file")
    return np.array(rows)


def write_dense(path, K: SymmetricDense) -> None:
    """The dense matrix file format: the rows of K as ``write_rows`` writes them."""
    write_rows(path, K.a)


def read_dense(path) -> SymmetricDense:
    """Read a ``write_dense`` file; it must hold a square, exactly symmetric matrix."""
    a = read_rows(path)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{path}: {a.shape[0]} lines of {a.shape[1]} fields is not a square matrix")
    return SymmetricDense(a)


def write_sparse(path, S: SparseSymmetric) -> None:
    """Header line 'n count' (the dimension and the number of stored
    triples), then 0-based 'i j value' triples, i <= j."""
    count = S.vals.size
    fields = [None] * (3 * count)
    fields[0::3], fields[1::3], fields[2::3] = S.rows.tolist(), S.cols.tolist(), S.vals.tolist()
    with open(path, "w") as fh:
        fh.write(f"{S.n} {count}\n")
        _write_lines(fh, "%d %d %.17g\n", fields, 3, count)


_TRIPLET_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("v", float)])


def _read_triplets(path):
    """Parse the sparse file format into (n, rows, cols, vals) arrays.

    Blank lines are skipped; a line without exactly three fields, an index
    that is not an integer, or a line count short of or beyond the header's
    raises ValueError.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected header 'n count'")
        n, count = int(header[0]), int(header[1])
        with warnings.catch_warnings():
            # a body without triplets is checked against the header below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                body = np.loadtxt(fh, dtype=_TRIPLET_DTYPE, comments=None, ndmin=1)
            except ValueError as exc:
                raise ValueError(f"{path}: expected 'i j value' with integer i, j: {exc}") from exc
    if body.size != count:
        raise ValueError(f"{path}: header promised {count} triplets, found {body.size}")
    return n, body["i"], body["j"], body["v"]


def read_sparse(path) -> SparseSymmetric:
    return SparseSymmetric(*_read_triplets(path))


def read_mask(path):
    """Sparse-format file whose values are ignored; returns (n, rows, cols).

    The indices are checked as for a sparse matrix file: each in range of
    the header's n, row <= col, no pair twice; they come back row-major.
    """
    n, rows, cols, _ = _read_triplets(path)
    order = _row_major_order(n, rows, cols)
    return n, rows[order], cols[order]
