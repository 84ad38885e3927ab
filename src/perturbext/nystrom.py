"""The Nystrom family: classical, generalized, spectrum-shifted, ensemble.

Every variant extends the leading pairs of a block of sampled columns
through one core.  The classical, generalized and shifted methods sample the
first columns, which keeps every equivalence check deterministic; to sample
them randomly, apply a seeded symmetric permutation to the kernel first
(``permute_symmetric``).  The ensemble samples each member's subset of
columns directly.
"""

from __future__ import annotations

import numpy as np

from . import perturbation as pert
from .extension import ExtensionConfig, Selector, _weighted_combination, pert_extend
from .matrixcore import (
    SparseSymmetric,
    SymmetricDense,
    _extreme_eigvals,
    _to_dense_array,
    canonical_signs,
    columns,
    dimension,
    spectral_norm,
    trace,
)


class SingularSampleError(ValueError):
    """A sampled submatrix eigenvalue is too close to zero to divide by."""


def permute_symmetric(K, perm):
    """Symmetric reordering K[perm][:, perm], preserving the input type."""
    perm = np.asarray(perm, dtype=np.int64)
    n = dimension(K)
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm must be a permutation of range(n)")
    a = _to_dense_array(K)[np.ix_(perm, perm)]
    out = SymmetricDense(a, symmetrize=True)
    if isinstance(K, SparseSymmetric):
        return SparseSymmetric.from_dense(out)
    return out


def _sampled_pairs(K, k: int, cols, shift: float = 0.0):
    """Extend the k leading pairs of K[cols, cols] - shift * I to all n rows.

    Returns values (n/l) * lambda_i' + shift and vectors sqrt(l/n) *
    C u_i' / lambda_i', where l = len(cols) and C = K[:, cols] - shift *
    I[:, cols] holds the sampled columns.
    """
    n = dimension(K)
    l = len(cols)
    if not 1 <= k <= l <= n:
        raise ValueError(f"need 1 <= k <= l <= n, got k={k}, l={l}, n={n}")
    C = columns(K, cols)
    C[cols, np.arange(l)] -= shift
    block = C[cols]
    w, v = np.linalg.eigh((block + block.T) / 2.0)
    order = np.argsort(-w, kind="stable")[:k]
    lam = w[order]
    U = canonical_signs(v[:, order])
    # eigh is backward stable relative to the block it factors, so the block's
    # own norm scales the guard; <= also rejects an all-zero block
    if np.min(np.abs(lam)) <= 1e-12 * np.max(np.abs(w)):
        raise SingularSampleError(
            f"sampled block eigenvalue {lam[np.argmin(np.abs(lam))]:.3e} below 1e-12 * ||block||")
    vectors = np.sqrt(l / n) * (C @ U) / lam[None, :]
    return (n / l) * lam + shift, vectors


def nystrom_extend(K, k: int):
    """Classical extension from the first k columns.

    Returns (values, vectors) with values (n/k) * lambda_i' and vectors
    sqrt(k/n) * C u_i' / lambda_i', for the k leading pairs of the k x k
    top-left block.
    """
    return _sampled_pairs(K, k, np.arange(k))


def generalized_nystrom(K, k: int, l: int):
    """Extend the k leading pairs of the l x l top-left block (k <= l <= n).

    l = k reduces to the classical method; l = n reproduces the exact
    leading pairs.  The scale factors use the block size l.
    """
    return _sampled_pairs(K, k, np.arange(l))


def shift_mu_mean(K, k: int) -> float:
    """Mean of the n - k smallest eigenvalues of K, (tr K - sum of the k
    largest) / (n - k), from the k largest eigenvalues alone."""
    n = dimension(K)
    if k >= n:
        raise ValueError("need k < n")
    return pert.mu_mean(trace(K), _extreme_eigvals(K, k, "LA"), n)


def shifted_nystrom(K, k: int, mu: float | None = None):
    """Classical extension applied to K - mu I, eigenvalues shifted back by mu.

    mu defaults to the mean of the n - k smallest eigenvalues of K.  With
    mu = 0 this is exactly ``nystrom_extend``.
    """
    if mu is None:
        mu = shift_mu_mean(K, k)
    return _sampled_pairs(K, k, np.arange(k), shift=float(mu))


def nystrom_kernel_approx(values: np.ndarray, vectors: np.ndarray) -> SymmetricDense:
    """Rank-k kernel approximation sum_i lambda_i u_i u_i^T."""
    return SymmetricDense((vectors * values[None, :]) @ vectors.T, symmetrize=True)


def ensemble_nystrom(K, k: int, subsets, weights=None) -> SymmetricDense:
    """Weighted mean of independent Nystrom kernel approximations.

    Each subset is a list of distinct column indices (length >= k); the
    member approximation extends the k leading pairs of that subset's block
    (generalized method when the subset is larger than k).  The weighted
    combination uses compensated summation so it is order-independent.
    """
    n = dimension(K)
    subsets = [np.asarray(s, dtype=np.int64) for s in subsets]
    if not subsets:
        raise ValueError("need at least one subset")

    def member(subset):
        if np.unique(subset).size != subset.size:
            raise ValueError("subset indices must be distinct")
        if np.any((subset < 0) | (subset >= n)):
            raise ValueError(f"subset indices must lie in [0, {n})")
        vals, vecs = _sampled_pairs(K, k, subset)
        return (vecs * vals[None, :]) @ vecs.T

    return _weighted_combination(map(member, subsets), len(subsets), weights)


# ---------------------------------------------------------------------------
# equivalence checks between the sampling view and the perturbation view


def _sign_align(target: np.ndarray, reference: np.ndarray) -> np.ndarray:
    flips = np.sign(np.einsum("ij,ij->j", target, reference))
    flips[flips == 0] = 1.0
    return target * flips[None, :]


def check_topleft_equivalence(K, m: int, tolerance: float = 1e-10) -> dict:
    """Classical extension vs. perturbation extension of the top-left block.

    The shifted check at mu = 0: nystrom vectors equal sqrt(m/n) times the
    extension vectors and nystrom values equal (n/m) times the extension
    values.  Reports max deviations after sign alignment (values relative
    to ||K||).
    """
    return check_shifted_equivalence(K, m, 0.0, tolerance)


def check_shifted_equivalence(K, k: int, mu: float, tolerance: float = 1e-10) -> dict:
    """Shifted extension vs. perturbation extension with the same mu.

    Vectors agree up to sqrt(k/n); values satisfy
    shifted = (n/k) * (extended - mu) + mu.
    """
    n = dimension(K)
    sh_vals, sh_vecs = shifted_nystrom(K, k, mu)
    res = pert_extend(K, Selector.top_left(k),
                      ExtensionConfig(m=k, order=1, mu=pert.MuPolicy.explicit(mu)))
    ref_vecs = np.sqrt(k / n) * res.vectors
    sh_vecs = _sign_align(sh_vecs, ref_vecs)
    vec_dev = float(np.max(np.abs(sh_vecs - ref_vecs)))
    expected_vals = (n / k) * (res.values - mu) + mu
    val_dev = float(np.max(np.abs(sh_vals - expected_vals)) / spectral_norm(K))
    return {
        "max_vector_deviation": vec_dev,
        "max_value_deviation": val_dev,
        "passed": vec_dev <= tolerance and val_dev <= tolerance,
    }
