"""Out-of-sample extension of a submatrix eigendecomposition to the full kernel.

A selector describes which entries of the kernel K form the submatrix K^s
(all other entries zero).  The leading eigenpairs of K^s are computed and
then extended toward those of K by treating E = K - K^s as a perturbation.
E is subtracted once and stored as a matrix of K's own type: dense for a
dense K, triplet-sparse (holding only the unselected entries) for a sparse K.
The pairs of every K^s come from ``sym_eig_partial``.  A K^s that K built
by ``K.block_selection`` (``topleft``, block-extension members) forms no E:
E V is K[:, rows] V[rows] (``K.columns_matvec``) with rows zeroed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import perturbation as pert
from .matrixcore import (
    EigenPairs,
    SparseSymmetric,
    SymmetricDense,
    _count,
    read_mask,
    spectral_norm,
    sym_eig_partial,
)


@dataclass(frozen=True)
class Selector:
    """Declarative description of which entries of K form K^s.

    Kinds: 'topleft' (leading l x l block), 'band' (|i - j| <= p, diagonal
    always included), 'sparse' (largest-magnitude entries covering fraction q
    of the stored nonzeros), 'blocks' (block-diagonal partition), 'mask'
    (explicit symmetric index set: upper-triangle pairs, row-major from every
    classmethod, in one int64 buffer compared and hashed by value and viewed
    by ``mask_pairs``).  A file mask keeps its header n, which K's must equal.
    """

    kind: str
    size: int = 0                      # topleft: l
    bandwidth: int = 0                 # band: p
    fraction: float = 0.0              # sparse: q
    block_sizes: tuple = ()            # blocks
    mask: bytes = b""                  # mask: its k int64 rows, then its k cols
    mask_n: int = 0                    # mask: the file's header n, 0 for any n

    def __post_init__(self):
        """Every construction, direct or through a classmethod, is checked
        here, one check per kind; a failed check raises ValueError.  The mask
        is first stored as an immutable ``bytes`` copy of the buffer given,
        so a caller who writes to that buffer later cannot change the
        checked pairs."""
        object.__setattr__(self, "mask", bytes(memoryview(self.mask)))
        kind, (rows, cols) = self.kind, self.mask_pairs
        if kind not in ("topleft", "band", "sparse", "blocks", "mask"):
            raise ValueError(f"unknown selector kind {kind!r}")
        if kind == "topleft" and not self.size >= 1:
            raise ValueError("topleft selector needs l >= 1")
        if kind == "band" and not self.bandwidth >= 0:
            raise ValueError("band selector needs p >= 0")
        if kind == "sparse" and not 0.0 < self.fraction <= 1.0:
            raise ValueError("sparse selector needs q in (0, 1]")
        if kind == "blocks" and not (self.block_sizes and min(self.block_sizes) >= 1):
            raise ValueError("block sizes must be positive")
        if kind == "mask" and not (rows.size and rows.min() >= 0 and np.all(rows <= cols)
                                   and 16 * rows.size == len(self.mask) and self.mask_n >= 0):
            raise ValueError("a mask needs one or more pairs 0 <= row <= col, as many rows as "
                             "cols, and mask_n >= 0")

    @property
    def mask_pairs(self) -> np.ndarray:
        return np.frombuffer(self.mask, np.int64, len(self.mask) // 16 * 2).reshape(2, -1)

    @classmethod
    def top_left(cls, l: int) -> "Selector":
        return cls("topleft", size=int(l))

    @classmethod
    def band(cls, p: int) -> "Selector":
        return cls("band", bandwidth=int(p))

    @classmethod
    def sparse_top_q(cls, q: float) -> "Selector":
        return cls("sparse", fraction=float(q))

    @classmethod
    def block_diag(cls, sizes) -> "Selector":
        return cls("blocks", block_sizes=tuple(int(s) for s in sizes))

    @classmethod
    def custom_mask(cls, rows, cols) -> "Selector":
        return cls("mask", mask=_upper_pairs(rows, cols))

    @classmethod
    def full_mask(cls, n: int) -> "Selector":
        return cls("mask", mask=np.array(np.triu_indices(n), dtype=np.int64).tobytes())

    @classmethod
    def parse(cls, text: str) -> "Selector":
        """Grammar: topleft:<l> | band:<p> | sparse:<q> | blocks:<s1,s2,...> | mask:<file>."""
        head, sep, arg = text.partition(":")
        if not sep:
            raise ValueError(f"cannot parse selector {text!r}")
        if head == "topleft":
            return cls.top_left(int(arg))
        if head == "band":
            return cls.band(int(arg))
        if head == "sparse":
            return cls.sparse_top_q(float(arg))
        if head == "blocks":
            return cls.block_diag(int(s) for s in arg.split(","))
        if head == "mask":
            n, rows, cols = read_mask(arg)
            return cls("mask", mask=np.concatenate((rows, cols)).tobytes(), mask_n=n)
        raise ValueError(f"unknown selector kind {head!r}")


def _upper_pairs(rows, cols) -> bytes:
    """The mask entries (rows[k], cols[k]), in any order and triangle, each once
    as an upper-triangle pair in row-major order: a ``Selector.mask`` buffer."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ValueError("mask rows/cols must be equally sized 1-D arrays")
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    # a negative index decodes to a negative row, which Selector rejects
    base = int(np.abs(hi).max(initial=0)) + 1
    key = np.unique(lo * base + hi)
    return np.concatenate((key // base, key % base)).tobytes()


@dataclass(frozen=True)
class ExtensionConfig:
    """How many pairs to extend, at which order, and with which mu policy."""

    m: int
    order: int = 1
    mu: pert.MuPolicy = field(default_factory=pert.MuPolicy.zero)

    def __post_init__(self):
        if _count(self.m, "m") < 1:
            raise ValueError("need m >= 1")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")


@dataclass(frozen=True)
class ExtensionResult:
    """Extended eigenpairs plus the computable part of their error bounds.

    ``vectors`` are unnormalized, exactly as the update formula produces
    them.  ``bound_terms`` carries one value per extended pair, as
    ``perturbation.bound_terms`` computes it for the configured order (the
    entry for the last pair is infinite: its gap factor degenerates).

    The bound terms are computed the first time something reads them and
    kept, read-only: E = K - K^s is formed then and its norm solved, so a
    caller that never reads them never pays for that solve.  The result holds
    K, K^s (with its kept block), the resolved mu and the order, never E.

    The terms take sums over the unknown eigenvalues t_k of K^s, and K^s is
    never solved again for them.  When ``sym_eig_partial`` solved K^s
    densely, both sums are exact, over the eigenvalues it kept as
    ``source_pairs.rest``.  After Lanczos the second-order sum,
    sum (t_k - mu)^2, is still exact, from ||K^s||_F and tr K^s; the
    first-order sum, sum |t_k - mu|, gives way to its Cauchy-Schwarz upper
    bound sqrt((n - m) sum (t_k - mu)^2), so those terms are looser but
    still bounds.
    """

    values: np.ndarray
    vectors: np.ndarray
    source_pairs: EigenPairs
    # what bound_terms is computed from
    _K: object = field(repr=False, compare=False)
    _Ks: SparseSymmetric = field(repr=False, compare=False)
    _mu: float = field(repr=False, compare=False)
    _order: int = field(repr=False, compare=False)

    @cached_property
    def bound_terms(self) -> np.ndarray:
        pairs = self.source_pairs
        E = self._K.add_scaled(self._Ks, -1.0)
        terms = pert.bound_terms(pairs.values, _bound_tail(self._Ks, pairs, self._mu, self._order),
                                 self._mu, spectral_norm(E), self._order)
        terms.setflags(write=False)
        return terms


def _block_bounds(block_sizes: tuple, n: int) -> np.ndarray:
    """The q + 1 row offsets of a block-diagonal partition, block j holding
    rows bounds[j] to bounds[j + 1]; the block sizes must sum to n."""
    if sum(block_sizes) != n:
        raise ValueError(f"block sizes sum to {sum(block_sizes)}, expected {n}")
    return np.cumsum((0,) + block_sizes)


def select_submatrix(K, sel: Selector) -> SparseSymmetric:
    """Materialize K^s: K restricted to the selected index set, zero elsewhere.

    ``topleft:l`` is ``K.block_selection`` of the first l rows, a gather of that
    block alone.  Every other kind is a mask over K's stored triplets (read off
    a mask selector's buffer through ``sel.mask_pairs``, without a copy),
    handed to ``K.restrict``: a dense K gives a new sparse matrix of the
    selected nonzeros, a sparse K a restriction of K, so E = K - K^s needs no merge.
    """
    n = K.n
    if sel.kind == "topleft":
        if sel.size > n:
            raise ValueError(f"topleft size {sel.size} exceeds dimension {n}")
        return K.block_selection(np.arange(sel.size))
    rows, cols, _ = K.triplets()
    if sel.kind == "band":
        if sel.bandwidth > n - 1:
            raise ValueError(f"bandwidth {sel.bandwidth} exceeds {n - 1}")
        keep = (cols - rows) <= sel.bandwidth
    elif sel.kind == "sparse":
        # K keeps its order and cumulative weights, so a sweep over q sorts
        # it once
        order, cum = K.magnitude_profile()
        target = np.ceil(sel.fraction * (cum[-1] if cum.size else 0))
        count = int(np.searchsorted(cum, target) + 1)
        keep = np.zeros(rows.size, dtype=bool)
        keep[order[:count]] = True
    elif sel.kind == "blocks":
        block_of = np.searchsorted(_block_bounds(sel.block_sizes, n), np.arange(n), side="right") - 1
        keep = block_of[rows] == block_of[cols]
    else:  # mask, the one kind left that Selector admits
        mask_rows, mask_cols = sel.mask_pairs
        if sel.mask_n and sel.mask_n != n:
            raise ValueError(f"mask is for dimension {sel.mask_n}, matrix has dimension {n}")
        if int(mask_cols.max()) >= n:
            raise ValueError("mask index out of range")
        keep = np.isin(rows * n + cols, mask_rows * n + mask_cols)
    return K.restrict(keep)


def _bound_tail(Ks: SparseSymmetric, pairs: EigenPairs, mu: float, order: int):
    """The tail that ``bound_terms`` takes for the given order: the unknown
    eigenvalues t_k of K^s, or their sum S = sum |t_k - mu|^order.

    ``pairs`` are K^s's leading pairs from ``sym_eig_partial``.  When its
    solve was dense they carry the eigenvalues themselves as ``rest``, and
    both sums are exact; there the trace identity's cancellation error,
    about eps * ||K^s||_F^2, would swamp a tail that is exactly zero.  After
    Lanczos, S for order 2 comes from traces, and for order 1 its
    Cauchy-Schwarz bound sqrt((n - m) * S_2) takes the place of S.
    """
    if pairs.rest is not None:
        return pairs.rest
    n, m = Ks.n, pairs.m
    sq = pert.tail_sq_sum_from_traces(Ks.frobenius_norm() ** 2, pairs.values, mu, Ks.trace(), n)
    return sq if order == 2 else float(np.sqrt((n - m) * sq))


def extend_with_submatrix(K, Ks: SparseSymmetric, cfg: ExtensionConfig) -> ExtensionResult:
    """Extend the leading eigenpairs of an already-selected K^s to those of K.

    The cfg.m leading pairs of K^s come from ``sym_eig_partial(Ks, cfg.m)``,
    which solves a K^s with empty rows on its support block.  E V takes one
    of two forms.  For a K^s built by this K's ``block_selection`` on fewer
    than n rows that store a nonzero, it is ``K.columns_matvec(rows, V)``
    with ``rows`` zeroed, and no E is formed.  For any other K^s, even one
    equal to such a block, E = K - K^s is formed.  A K^s of another
    dimension than K's raises ValueError; ``bound_terms`` form E on first read.
    """
    n = K.n
    if Ks.n != n:
        raise ValueError("dimension mismatch")
    pairs = sym_eig_partial(Ks, cfg.m)
    rows = Ks.selection_of(K)[1]
    if rows is not None and rows.size < n:
        # V vanishes off rows and E on rows x rows
        EV = K.columns_matvec(rows, pairs.vectors)
        EV[rows] = 0.0
    else:
        EV = K.add_scaled(Ks, -1.0).matvec(pairs.vectors)
    problem = pert.PerturbationProblem(base=Ks, known=pairs, EV=EV)
    mu = cfg.mu.resolve(problem)
    update = pert.truncated_first_order if cfg.order == 1 else pert.truncated_second_order
    return ExtensionResult(values=pert.classical_eigval_update(problem), vectors=update(problem, mu),
                           source_pairs=pairs, _K=K, _Ks=Ks, _mu=mu, _order=cfg.order)


def pert_extend(K, sel: Selector, cfg: ExtensionConfig) -> ExtensionResult:
    """Select K^s from K and extend its leading eigenpairs to those of K.

    K need not be positive semidefinite.
    """
    return extend_with_submatrix(K, select_submatrix(K, sel), cfg)


# rows per slab of kernel_approx: 64 and 128 tied fastest of 64 to 512 (n = 1500, rank 40)
_APPROX_ROWS = 128


def kernel_approx(values: np.ndarray, vectors: np.ndarray) -> SymmetricDense:
    """Rank-m kernel approximation sum_i lambda_i w_i w_i^T from the factor
    pair (values, vectors), of extended or Nystrom pairs alike.

    Only the upper triangle is computed, in row slabs W[i:i + h] @
    vectors[i:].T (W the vectors scaled by the values), each also written
    transposed below the diagonal; the diagonal tile's upper half is copied
    onto its lower half, so the result is exactly symmetric by construction.
    """
    W = vectors * values[None, :]
    n, h = W.shape[0], _APPROX_ROWS
    p = np.empty((n, n))
    for i in range(0, n, h):
        slab = p[i:i + h, i:]
        np.matmul(W[i:i + h], vectors[i:].T, out=slab)
        p[i + h:, i:i + h] = slab[:, h:].T
        tile, lower = slab[:, :h], np.tril_indices(min(h, n - i), -1)
        tile[lower] = tile.T[lower]
    return SymmetricDense._adopt(p)


def _weighted_combination(members, q: int, weights=None) -> SymmetricDense:
    """sum_j weights[j] * kernel_approx(*members[j]), formed as one product.

    ``members`` yields the q factor pairs (values, vectors) one at a time; it
    is consumed only after ``weights`` (uniform by default) is checked to be
    q nonnegative values summing to one.  The weighted values and the stacked
    vectors make one factor pair of rank sum_j m_j, so the n x n matrix is
    formed once, never per member.
    """
    weights = np.full(q, 1.0 / q) if weights is None else np.asarray(weights, dtype=float)
    # written so that a NaN weight fails both tests
    if weights.size != q or not np.all(weights >= 0) or not abs(weights.sum() - 1.0) <= 1e-12:
        raise ValueError("weights must be nonnegative and sum to one")
    values, vectors = zip(*members)
    return kernel_approx(np.concatenate([w * v for w, v in zip(weights, values)]),
                         np.hstack(vectors))


def block_extend(K, block_sizes, cfg: ExtensionConfig, weights=None) -> SymmetricDense:
    """Per-block extension of a block-diagonal selection, combined by weighted mean.

    Each diagonal block (zero-padded to full size) is extended independently
    and turned into a rank-m kernel approximation; the result is the weighted
    sum of the per-block approximations.  Uniform weights by default.

    Member j's K^s is ``K.block_selection`` of block j's rows, so
    ``sym_eig_partial`` solves that block itself (densely or by Lanczos, by
    its own size rule) and E V comes from the block's columns alone:
    no member forms E or any other n x n array.  The combination forms the
    one n x n array of the call.
    """
    n = K.n
    # checked as a blocks selector checks them, before any member runs
    block_sizes = Selector.block_diag(block_sizes).block_sizes
    bounds = _block_bounds(block_sizes, n)

    def member(j):
        res = extend_with_submatrix(K, K.block_selection(np.arange(bounds[j], bounds[j + 1])), cfg)
        return res.values, res.vectors

    q = len(block_sizes)
    return _weighted_combination(map(member, range(q)), q, weights)
