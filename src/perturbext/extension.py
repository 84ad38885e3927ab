"""Out-of-sample extension of a submatrix eigendecomposition to the full kernel.

A selector describes which entries of the kernel K form the submatrix K^s
(all other entries zero).  The leading eigenpairs of K^s are computed and
then extended toward those of K by treating E = K - K^s as a perturbation.
E is subtracted once and stored as a matrix of K's own type: dense for a
dense K, triplet-sparse (holding only the unselected entries) for a sparse K.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import perturbation as pert
from .matrixcore import (
    DENSE_FALLBACK_N,
    EigenPairs,
    SparseSymmetric,
    SymmetricDense,
    _stored_triplets,
    add_scaled,
    dimension,
    frobenius_norm,
    read_mask,
    spectral_norm,
    sym_eig_partial,
    trace,
)


@dataclass(frozen=True)
class Selector:
    """Declarative description of which entries of K form K^s.

    Kinds: 'topleft' (leading l x l block), 'band' (|i - j| <= p, diagonal
    always included), 'sparse' (largest-magnitude entries covering fraction q
    of the stored nonzeros), 'blocks' (block-diagonal partition), 'mask'
    (explicit symmetric index set, stored as upper-triangle pairs).
    """

    kind: str
    size: int = 0                      # topleft: l
    bandwidth: int = 0                 # band: p
    fraction: float = 0.0              # sparse: q
    block_sizes: tuple = ()            # blocks
    mask_rows: tuple = ()              # mask, as tuples so that == and hash work
    mask_cols: tuple = ()

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
            _, rows, cols = read_mask(arg)
            return cls.custom_mask(rows, cols)
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
    them.  ``bound_terms`` carries one value per extended pair (the entry for
    the last pair is infinite: its gap factor degenerates).

    The terms take sums over the unknown eigenvalues t_k of K^s.  The
    second-order sum, sum (t_k - mu)^2, is exact: above DENSE_FALLBACK_N it
    comes from ||K^s||_F and tr K^s, so no full eigensolve of K^s is run.
    The first-order sum, sum |t_k - mu|, is exact up to DENSE_FALLBACK_N;
    above it the Cauchy-Schwarz upper bound sqrt((n - m) sum (t_k - mu)^2)
    takes its place, so those terms are looser but still bounds.
    """

    values: np.ndarray
    vectors: np.ndarray
    bound_terms: np.ndarray
    selector_nnz: int
    source_pairs: EigenPairs


def select_submatrix(K, sel: Selector) -> SparseSymmetric:
    """Materialize K^s: K restricted to the selected index set, zero elsewhere."""
    n = dimension(K)
    rows, cols, vals = _stored_triplets(K)
    if sel.kind == "topleft":
        if sel.size > n:
            raise ValueError(f"topleft size {sel.size} exceeds dimension {n}")
        keep = cols < sel.size
    elif sel.kind == "band":
        if sel.bandwidth > n - 1:
            raise ValueError(f"bandwidth {sel.bandwidth} exceeds {n - 1}")
        keep = (cols - rows) <= sel.bandwidth
    elif sel.kind == "sparse":
        weight = np.where(rows == cols, 1, 2)
        target = np.ceil(sel.fraction * weight.sum())
        order = np.argsort(-np.abs(vals), kind="stable")
        cum = np.cumsum(weight[order])
        count = int(np.searchsorted(cum, target) + 1)
        keep = np.zeros(vals.size, dtype=bool)
        keep[order[:count]] = True
    elif sel.kind == "blocks":
        if sum(sel.block_sizes) != n:
            raise ValueError(f"block sizes sum to {sum(sel.block_sizes)}, expected {n}")
        bounds = np.cumsum((0,) + sel.block_sizes)
        block_of = np.searchsorted(bounds, np.arange(n), side="right") - 1
        keep = block_of[rows] == block_of[cols]
    elif sel.kind == "mask":
        mask_rows = np.array(sel.mask_rows, dtype=np.int64)
        mask_cols = np.array(sel.mask_cols, dtype=np.int64)
        if int(mask_cols.max()) >= n:
            raise ValueError("mask index out of range")
        keep = np.isin(rows * n + cols, mask_rows * n + mask_cols)
    else:
        raise ValueError(f"unknown selector kind {sel.kind!r}")
    return SparseSymmetric(n, rows[keep], cols[keep], vals[keep])


def _tail_totals(Ks: SparseSymmetric, known_values: np.ndarray, mu: float):
    """(sum |t_k - mu|, sum (t_k - mu)^2) over the eigenvalues t_k of K^s
    beyond the known ones.

    Above DENSE_FALLBACK_N the squared sum comes from traces and the absolute
    sum from its Cauchy-Schwarz bound.  Below it both are exact, from the
    dense spectrum: there the trace identity's cancellation error, about
    eps * ||K^s||_F^2, would swamp a tail that is exactly zero.
    """
    n, m = Ks.n, known_values.size
    if n <= DENSE_FALLBACK_N:
        tail = np.linalg.eigvalsh(Ks.to_dense().a)[::-1][m:]
        return pert.tail_abs_sum(tail, mu), pert.tail_sq_sum(tail, mu)
    sq = pert.tail_sq_sum_from_traces(frobenius_norm(Ks) ** 2, known_values, mu, trace(Ks), n)
    return float(np.sqrt((n - m) * sq)), sq


def extend_with_submatrix(K, Ks: SparseSymmetric, cfg: ExtensionConfig) -> ExtensionResult:
    """Extend the leading eigenpairs of an already-selected K^s to those of K."""
    pairs = sym_eig_partial(Ks, cfg.m)
    E = add_scaled(K, Ks, -1.0)
    problem = pert.PerturbationProblem(base=Ks, known=pairs, perturbation=E)
    mu_val = cfg.mu.resolve(problem)
    if cfg.order == 1:
        vectors = pert.truncated_first_order(problem, mu_val)
    else:
        vectors = pert.truncated_second_order(problem, mu_val)
    values = pert.classical_eigval_update(problem)

    norm_diff = spectral_norm(E)
    abs_total, sq_total = _tail_totals(Ks, pairs.values, mu_val)
    if cfg.order == 1:
        bounds = pert.first_order_bounds(pairs.values, abs_total, mu_val, norm_diff)
    else:
        bounds = pert.second_order_bounds(pairs.values, sq_total, mu_val, norm_diff)
    return ExtensionResult(values=values, vectors=vectors, bound_terms=bounds,
                           selector_nnz=Ks.nnz, source_pairs=pairs)


def pert_extend(K, sel: Selector, cfg: ExtensionConfig) -> ExtensionResult:
    """Select K^s from K and extend its leading eigenpairs to those of K.

    K need not be positive semidefinite.
    """
    return extend_with_submatrix(K, select_submatrix(K, sel), cfg)


def kernel_approx(result: ExtensionResult) -> SymmetricDense:
    """Rank-m kernel approximation sum_i lambda_i u_i u_i^T from extended pairs."""
    W = result.vectors
    return SymmetricDense((W * result.values[None, :]) @ W.T, symmetrize=True)


def _weighted_combination(members, q: int, weights=None) -> SymmetricDense:
    """sum_j weights[j] * members[j] by compensated summation, in order.

    ``members`` yields the q matrices one at a time; it is consumed only
    after ``weights`` (uniform by default) is checked to be q nonnegative
    values summing to one.
    """
    weights = np.full(q, 1.0 / q) if weights is None else np.asarray(weights, dtype=float)
    if weights.size != q or np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to one")
    total = comp = 0.0
    for w, mat in zip(weights, members):
        y = w * mat - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return SymmetricDense(total, symmetrize=True)


def block_extend(K, block_sizes, cfg: ExtensionConfig, weights=None) -> SymmetricDense:
    """Per-block extension of a block-diagonal selection, combined by weighted mean.

    Each diagonal block (zero-padded to full size) is extended independently
    and turned into a rank-m kernel approximation; the result is the weighted
    sum of the per-block approximations.  Uniform weights by default.
    """
    n = dimension(K)
    block_sizes = tuple(int(s) for s in block_sizes)
    if sum(block_sizes) != n:
        raise ValueError(f"block sizes sum to {sum(block_sizes)}, expected {n}")
    rows, cols, vals = _stored_triplets(K)
    bounds = np.cumsum((0,) + block_sizes)
    block_of = np.searchsorted(bounds, np.arange(n), side="right") - 1

    def member(j):
        inside = (block_of[rows] == j) & (block_of[cols] == j)
        Ks_j = SparseSymmetric(n, rows[inside], cols[inside], vals[inside])
        return kernel_approx(extend_with_submatrix(K, Ks_j, cfg)).a

    q = len(block_sizes)
    return _weighted_combination(map(member, range(q)), q, weights)
