"""Out-of-sample extension of a submatrix eigendecomposition to the full kernel.

A selector describes which entries of the kernel K form the submatrix K^s
(all other entries zero).  The leading eigenpairs of K^s are computed and
then extended toward those of K by treating E = K - K^s as a perturbation.
E is subtracted once and stored as a matrix of K's own type: dense for a
dense K, triplet-sparse (holding only the unselected entries) for a sparse K.
The pairs of every K^s come from ``sym_eig_partial``.  A K^s that
``block_selection`` built from K (``topleft``, block-extension members) forms no E:
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
    _indices,
    block_selection,
    magnitude_profile,
    read_mask,
    restriction,
    spectral_norm,
    sym_eig_partial,
)


@dataclass(frozen=True)
class Selector:
    """Declarative description of which entries of K form K^s: a kind and
    its one parameter.

    Kinds: 'topleft' (leading l x l block; param l), 'band' (|i - j| <= p,
    diagonal always included; param p), 'sparse' (largest-magnitude entries
    covering fraction q of the stored nonzeros; param q), 'blocks'
    (block-diagonal partition; param the tuple of block sizes), 'mask'
    (explicit symmetric index set; param (n, pairs): the header n of a mask
    file, which K's must equal, or 0 for any n, and the pairs as one int64
    buffer of their k rows, then their k cols, upper triangle and row-major
    from every classmethod, compared and hashed by value and viewed by
    ``mask_pairs``).
    """

    kind: str
    param: object

    def __post_init__(self):
        """Every construction, direct or through a classmethod, is checked
        here, one check per kind, and the parameter stored in one form: l
        and p as ints, q as a float, the sizes as a tuple of ints, a mask as
        (int, bytes).  A parameter of the wrong type (for q, anything
        ``np.isfinite`` rejects, such as a string) raises TypeError, an
        out-of-range one ValueError.  The mask buffer is stored as an
        immutable ``bytes`` copy, so a caller who writes to the buffer later
        cannot change the checked pairs."""
        kind, param = self.kind, self.param
        if kind == "topleft" and (param := _count(param, "topleft l")) < 1:
            raise ValueError("topleft selector needs l >= 1")
        if kind == "band" and (param := _count(param, "band p")) < 0:
            raise ValueError("band selector needs p >= 0")
        if kind == "sparse" and not (np.isfinite(param) and 0.0 < (param := float(param)) <= 1.0):
            raise ValueError("sparse selector needs q in (0, 1]")
        if kind == "blocks" and min(param := tuple(_count(s, "block size") for s in param), default=0) < 1:
            raise ValueError("block sizes must be positive")
        if kind == "mask":
            n, pairs = param
            param = n, pairs = _count(n, "mask n"), bytes(memoryview(pairs))
            rows, cols = np.frombuffer(pairs, np.int64, len(pairs) // 16 * 2).reshape(2, -1)
            if not (n >= 0 and 16 * rows.size == len(pairs) > 0 and rows.min() >= 0 and np.all(rows <= cols)):
                raise ValueError("a mask needs pairs 0 <= row <= col, as many rows as cols, and n >= 0")
        elif kind not in ("topleft", "band", "sparse", "blocks"):
            raise ValueError(f"unknown selector kind {kind!r}")
        object.__setattr__(self, "param", param)

    @property
    def mask_pairs(self) -> np.ndarray:
        """A mask's pairs as a read-only (2, k) int64 view of its buffer: rows, then cols."""
        return np.frombuffer(self.param[1], np.int64).reshape(2, -1)

    @classmethod
    def top_left(cls, l: int) -> "Selector":
        return cls("topleft", l)

    @classmethod
    def band(cls, p: int) -> "Selector":
        return cls("band", p)

    @classmethod
    def sparse_top_q(cls, q: float) -> "Selector":
        return cls("sparse", q)

    @classmethod
    def block_diag(cls, sizes) -> "Selector":
        return cls("blocks", sizes)

    @classmethod
    def custom_mask(cls, rows, cols) -> "Selector":
        """The mask of the entries (rows[k], cols[k]), given in any order and
        triangle, each stored once as an upper-triangle pair in row-major
        order.  Indices of another kind than integer raise TypeError."""
        rows, cols = _indices(rows, "mask rows"), _indices(cols, "mask cols")
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("mask rows/cols must be equally sized 1-D arrays")
        lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
        # a negative index decodes to a negative row, which the check rejects
        base = int(np.abs(hi).max(initial=0)) + 1
        key = np.unique(lo * base + hi)
        return cls("mask", (0, np.concatenate((key // base, key % base)).tobytes()))

    @classmethod
    def parse(cls, text: str) -> "Selector":
        """Grammar: topleft:<l> | band:<p> | sparse:<q> | blocks:<s1,s2,...> | mask:<file>."""
        head, sep, arg = text.partition(":")
        if not sep or head not in _PARSED_PARAM:
            raise ValueError(f"cannot parse selector {text!r}")
        return cls(head, _PARSED_PARAM[head](arg))


def _mask_file(path) -> tuple:
    """A mask file's (header n, pair buffer): the parameter of its Selector."""
    n, rows, cols = read_mask(path)
    return n, np.concatenate((rows, cols)).tobytes()


# the parameter of each Selector kind, read from the text after its colon
_PARSED_PARAM = {"topleft": int, "band": int, "sparse": float, "mask": _mask_file,
                 "blocks": lambda arg: [int(size) for size in arg.split(",")]}


@dataclass(frozen=True)
class ExtensionConfig:
    """How many pairs to extend, at which order, and with which mu policy."""

    m: int
    order: int = 1
    mu: pert.MuPolicy = field(default_factory=pert.MuPolicy.zero)

    def __post_init__(self):
        if _count(self.m, "m") < 1:
            raise ValueError("need m >= 1")
        if _count(self.order, "order") not in (1, 2):
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
        E = self._K.minus(self._Ks)
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

    ``topleft:l`` is ``block_selection`` of the first l rows, a gather of
    that block alone and no restriction of K.  Every other kind is a mask
    over K's stored triplets (read off a mask selector's buffer through
    ``sel.mask_pairs``, without a copy),
    handed to ``restriction``, whose result remembers K for either type; a
    sparse K's E = K - K^s then needs no merge.
    """
    n = K.n
    if sel.kind == "topleft":
        if sel.param > n:
            raise ValueError(f"topleft size {sel.param} exceeds dimension {n}")
        return block_selection(K, np.arange(sel.param))
    rows, cols, _ = K.triplets()
    if sel.kind == "band":
        if sel.param > n - 1:
            raise ValueError(f"bandwidth {sel.param} exceeds {n - 1}")
        keep = (cols - rows) <= sel.param
    elif sel.kind == "sparse":
        # K keeps its order and cumulative weights, so a sweep over q sorts
        # it once
        order, cum = magnitude_profile(K)
        target = np.ceil(sel.param * (cum[-1] if cum.size else 0))
        count = int(np.searchsorted(cum, target) + 1)
        keep = np.zeros(rows.size, dtype=bool)
        keep[order[:count]] = True
    elif sel.kind == "blocks":
        block_of = np.searchsorted(_block_bounds(sel.param, n), np.arange(n), side="right") - 1
        keep = block_of[rows] == block_of[cols]
    else:  # mask, the one kind left that Selector admits
        mask_n, (mask_rows, mask_cols) = sel.param[0], sel.mask_pairs
        if mask_n and mask_n != n:
            raise ValueError(f"mask is for dimension {mask_n}, matrix has dimension {n}")
        if int(mask_cols.max()) >= n:
            raise ValueError("mask index out of range")
        keep = np.isin(rows * n + cols, mask_rows * n + mask_cols)
    return restriction(K, keep)


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
    of two forms.  For a K^s that ``block_selection`` built from this K on fewer
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
        EV = K.minus(Ks).matvec(pairs.vectors)
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


def _uniform_mean(members) -> SymmetricDense:
    """The mean of kernel_approx(*member) over the q factor pairs (values,
    vectors) that ``members`` yields, formed as one product: the values times
    1 / q and the stacked vectors make one factor pair of rank sum_j m_j, so
    the n x n matrix is formed once, never per member.
    """
    values, vectors = zip(*members)
    return kernel_approx(np.concatenate(values) * (1.0 / len(values)), np.hstack(vectors))


def block_extend(K, block_sizes, cfg: ExtensionConfig) -> SymmetricDense:
    """Per-block extension of a block-diagonal selection, combined by their mean.

    Each diagonal block (zero-padded to full size) is extended independently
    and turned into a rank-m kernel approximation; the result is the uniform
    mean of the per-block approximations.

    Member j's K^s is ``block_selection`` of block j's rows, so
    ``sym_eig_partial`` solves that block itself (densely or by Lanczos, by
    its own size rule) and E V comes from the block's columns alone:
    no member forms E or any other n x n array.  The combination forms the
    one n x n array of the call.
    """
    n = K.n
    # checked as a blocks selector checks them, before any member runs
    block_sizes = Selector.block_diag(block_sizes).param
    bounds = _block_bounds(block_sizes, n)

    def member(j):
        res = extend_with_submatrix(K, block_selection(K, np.arange(bounds[j], bounds[j + 1])), cfg)
        return res.values, res.vectors

    return _uniform_mean(map(member, range(len(block_sizes))))
