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

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import perturbation as pert
from .matrixcore import (
    DENSE_FALLBACK_N,
    EigenPairs,
    SparseSymmetric,
    SymmetricDense,
    _average_transpose,
    _dense_eigvalsh,
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
    (explicit symmetric index set, stored as upper-triangle pairs).  A mask
    read from a file keeps the file's header n, which K's dimension must
    then equal.
    """

    kind: str
    size: int = 0                      # topleft: l
    bandwidth: int = 0                 # band: p
    fraction: float = 0.0              # sparse: q
    block_sizes: tuple = ()            # blocks
    mask_rows: tuple = ()              # mask, as tuples so that == and hash work
    mask_cols: tuple = ()
    mask_n: int = 0                    # mask: the file's header n, 0 for any n

    @classmethod
    def top_left(cls, l: int) -> "Selector":
        if l < 1:
            raise ValueError("topleft selector needs l >= 1")
        return cls("topleft", size=int(l))

    @classmethod
    def band(cls, p: int) -> "Selector":
        if p < 0:
            raise ValueError("band selector needs p >= 0")
        return cls("band", bandwidth=int(p))

    @classmethod
    def sparse_top_q(cls, q: float) -> "Selector":
        if not 0.0 < q <= 1.0:
            raise ValueError("sparse selector needs q in (0, 1]")
        return cls("sparse", fraction=float(q))

    @classmethod
    def block_diag(cls, sizes) -> "Selector":
        sizes = tuple(int(s) for s in sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("block sizes must be positive")
        return cls("blocks", block_sizes=sizes)

    @classmethod
    def custom_mask(cls, rows, cols) -> "Selector":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("mask rows/cols must be equally sized 1-D arrays")
        if rows.size == 0:
            raise ValueError("mask must select at least one entry")
        if rows.min() < 0 or cols.min() < 0:
            raise ValueError("mask indices must be nonnegative")
        lo = np.minimum(rows, cols)
        hi = np.maximum(rows, cols)
        base = int(hi.max()) + 1
        key = np.unique(lo * base + hi)
        return cls("mask", mask_rows=tuple((key // base).tolist()),
                   mask_cols=tuple((key % base).tolist()))

    @classmethod
    def full_mask(cls, n: int) -> "Selector":
        iu = np.triu_indices(n)
        return cls("mask", mask_rows=tuple(iu[0].tolist()), mask_cols=tuple(iu[1].tolist()))

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
            return replace(cls.custom_mask(rows, cols), mask_n=int(n))
        raise ValueError(f"unknown selector kind {head!r}")


@dataclass(frozen=True)
class ExtensionConfig:
    """How many pairs to extend, at which order, and with which mu policy."""

    m: int
    order: int = 1
    mu: pert.MuPolicy = field(default_factory=pert.MuPolicy.zero)

    def __post_init__(self):
        if self.m < 1:
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

    The terms take sums over the unknown eigenvalues t_k of K^s.  The
    second-order sum, sum (t_k - mu)^2, is exact: above DENSE_FALLBACK_N it
    comes from ||K^s||_F and tr K^s, so no full eigensolve of K^s is run.
    The first-order sum, sum |t_k - mu|, is exact up to DENSE_FALLBACK_N;
    above it the Cauchy-Schwarz upper bound sqrt((n - m) sum (t_k - mu)^2)
    takes its place, so those terms are looser but still bounds.
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
        values = self.source_pairs.values
        E = self._K.add_scaled(self._Ks, -1.0)
        terms = pert.bound_terms(values, _bound_tail(self._Ks, values, self._mu, self._order),
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
    block alone.  Every other kind is a mask over K's stored triplets, handed to
    ``K.restrict``: a dense K gives a new sparse matrix of the selected nonzeros,
    a sparse K a restriction of K, so that E = K - K^s needs no merge either.
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
    elif sel.kind == "mask":
        mask_rows = np.array(sel.mask_rows, dtype=np.int64)
        mask_cols = np.array(sel.mask_cols, dtype=np.int64)
        if sel.mask_n and sel.mask_n != n:
            raise ValueError(f"mask is for dimension {sel.mask_n}, matrix has dimension {n}")
        if int(mask_cols.max()) >= n:
            raise ValueError("mask index out of range")
        keep = np.isin(rows * n + cols, mask_rows * n + mask_cols)
    else:
        raise ValueError(f"unknown selector kind {sel.kind!r}")
    return K.restrict(keep)


def _bound_tail(Ks: SparseSymmetric, known_values: np.ndarray, mu: float, order: int):
    """The tail that ``bound_terms`` takes for the given order: the unknown
    eigenvalues t_k of K^s, or their sum S = sum |t_k - mu|^order.

    Up to DENSE_FALLBACK_N the eigenvalues themselves come from the dense
    spectrum: there the trace identity's cancellation error, about
    eps * ||K^s||_F^2, would swamp a tail that is exactly zero.  Above it,
    S for order 2 comes from traces, and for order 1 its Cauchy-Schwarz
    bound sqrt((n - m) * S_2) takes the place of S.
    """
    n, m = Ks.n, known_values.size
    if n <= DENSE_FALLBACK_N:
        return _dense_eigvalsh(Ks)[::-1][m:]
    sq = pert.tail_sq_sum_from_traces(Ks.frobenius_norm() ** 2, known_values, mu, Ks.trace(), n)
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
    rows = Ks._block[0] if getattr(Ks, "_parent", None) is K and Ks._block else None
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


def kernel_approx(values: np.ndarray, vectors: np.ndarray) -> SymmetricDense:
    """Rank-m kernel approximation sum_i lambda_i w_i w_i^T from the factor
    pair (values, vectors), of extended or Nystrom pairs alike.

    The n x n product is the only n x n array: it is averaged with its
    transpose in place, tile by tile (``_average_transpose``), equal bit for
    bit to ``SymmetricDense(product, symmetrize=True)``.
    """
    p = (vectors * values[None, :]) @ vectors.T
    return SymmetricDense._adopt(_average_transpose(p, p))


def _weighted_combination(members, q: int, weights=None) -> SymmetricDense:
    """sum_j weights[j] * kernel_approx(*members[j]), formed as one product.

    ``members`` yields the q factor pairs (values, vectors) one at a time; it
    is consumed only after ``weights`` (uniform by default) is checked to be
    q nonnegative values summing to one.  The weighted values and the stacked
    vectors make one factor pair of rank sum_j m_j, so the n x n matrix is
    formed once, never per member.
    """
    weights = np.full(q, 1.0 / q) if weights is None else np.asarray(weights, dtype=float)
    if weights.size != q or np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
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
    ``sym_eig_partial`` solves that block itself (dense LAPACK up to 256
    rows, Lanczos above) and E V comes from the block's columns alone:
    no member forms E or any other n x n array.  The combination forms the
    one n x n array of the call.
    """
    n = K.n
    block_sizes = tuple(int(s) for s in block_sizes)
    bounds = _block_bounds(block_sizes, n)

    def member(j):
        res = extend_with_submatrix(K, K.block_selection(np.arange(bounds[j], bounds[j + 1])), cfg)
        return res.values, res.vectors

    q = len(block_sizes)
    return _weighted_combination(map(member, range(q)), q, weights)
