"""The Nystrom family: classical, generalized, spectrum-shifted, ensemble.

Every variant extends the leading pairs of a block of sampled columns
through one core.  The block keeps K's matrix type (a sparse K's block cuts
its CSR from K's when K has one) and is solved by ``sym_eig_partial``, the
same eigensolver and size rule as the extension side; the sampled columns
are read through ``K.columns_matvec``, never formed.  The classical,
generalized and shifted methods sample the first columns, which keeps every
equivalence check deterministic; the ensemble samples each member's subset
of columns directly, so an ensemble of one subset approximates K from any
columns.  Every rank-k approximation is ``extension.kernel_approx`` of a
(values, vectors) pair.
"""

from __future__ import annotations

import numpy as np

from . import perturbation as pert
from .extension import ExtensionConfig, Selector, _uniform_mean, pert_extend
from .matrixcore import (
    SparseSymmetric,
    SymmetricDense,
    _count,
    _extreme_eigvals,
    _indices,
    spectral_norm,
    sym_eig_partial,
)


class SingularSampleError(ValueError):
    """A sampled submatrix eigenvalue is too close to zero to divide by."""


def _sampled_pairs(K, k: int, cols, shift: float = 0.0):
    """Extend the k leading pairs of K[cols, cols] - shift * I to all n rows.

    Returns values (n/l) * lambda_i' + shift and vectors sqrt(l/n) *
    C u_i' / lambda_i', where l = len(cols) and C = K[:, cols] - shift *
    I[:, cols] holds the sampled columns, never formed: C U is
    ``K.columns_matvec`` of U placed on the rows ``cols``, shift * U taken off
    them.  The block is ``K.principal_block(cols)``, less shift * I as a
    diagonal sparse matrix when the shift is nonzero (``minus``), so it
    keeps K's matrix type; its k pairs come from
    ``sym_eig_partial``, the eigensolver of the extension side, which solves
    a small block densely and a larger one by seeded Lanczos on the stored
    block, where a vanishing gap between pairs k and k + 1 raises
    EigengapError.

    An all-zero block, or one with a pair |lambda_i'| <= 1e-12 * ||block||_2,
    raises SingularSampleError.  ||block||_2 is computed only for a block
    that ||block||_F, its cheap upper bound, cannot clear, so a regular
    block pays no norm solve and every block gets the same decision.
    """
    n, k = K.n, _count(k, "k")
    l = len(cols)
    if not 1 <= k <= l <= n:
        raise ValueError(f"need 1 <= k <= l <= n, got k={k}, l={l}, n={n}")
    block = K.principal_block(cols)
    if shift:
        block = block.minus(SparseSymmetric(l, np.arange(l), np.arange(l), np.full(l, shift)))
    # an all-zero block is rejected before the solve, since Lanczos cannot
    # start on it
    if block.is_zero():
        raise SingularSampleError("sampled block is zero")
    pairs = sym_eig_partial(block, k)
    lam = pairs.values
    # both eigensolvers are backward stable relative to the block, so its
    # largest |eigenvalue| of either sign, ||block||_2, scales the guard.
    # ||block||_F >= ||block||_2, so a smallest |lambda| above
    # 2e-12 ||block||_F (the 2 absorbs round-off in either norm) clears the
    # guard without the Lanczos run that finds ||block||_2 itself
    small = np.min(np.abs(lam))
    if small <= 2e-12 * block.frobenius_norm() and small <= 1e-12 * spectral_norm(block):
        raise SingularSampleError(
            f"sampled block eigenvalue {lam[np.argmin(np.abs(lam))]:.3e} below 1e-12 * ||block||")
    U = np.zeros((n, k))
    U[cols] = pairs.vectors
    CU = K.columns_matvec(cols, U)
    if shift:
        CU[cols] -= shift * pairs.vectors
    vectors = np.sqrt(l / n) * CU / lam[None, :]
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
    return _sampled_pairs(K, k, np.arange(_count(l, "l")))


def shift_mu_mean(K, k: int) -> float:
    """Mean of the n - k smallest eigenvalues of K, (tr K - sum of the k
    largest) / (n - k), from the k largest eigenvalues alone."""
    n = K.n
    if k >= n:
        raise ValueError("need k < n")
    return pert.mu_mean(K.trace(), _extreme_eigvals(K, k, "LA"), n)


def shifted_nystrom(K, k: int, mu: float | None = None):
    """Classical extension applied to K - mu I, eigenvalues shifted back by mu.

    mu defaults to the mean of the n - k smallest eigenvalues of K.  With
    mu = 0 this is exactly ``nystrom_extend``.
    """
    if mu is None:
        mu = shift_mu_mean(K, k)
    return _sampled_pairs(K, k, np.arange(k), shift=float(mu))


def ensemble_nystrom(K, k: int, subsets) -> SymmetricDense:
    """Uniform mean of independent Nystrom kernel approximations.

    Each subset is a list of distinct integer column indices (length >= k,
    else ValueError; a float index raises TypeError naming the subset); the
    member approximation extends the k leading pairs of that subset's block
    (generalized method when the subset is larger than k).  The members'
    (values, vectors) pairs are scaled by 1 / q and stacked into one factor
    pair, so the n x n matrix is formed once, not once per member.
    """
    n = K.n
    subsets = [_indices(s, f"subset {j}") for j, s in enumerate(subsets)]
    if not subsets:
        raise ValueError("need at least one subset")

    def member(subset):
        if np.unique(subset).size != subset.size:
            raise ValueError("subset indices must be distinct")
        if np.any((subset < 0) | (subset >= n)):
            raise ValueError(f"subset indices must lie in [0, {n})")
        return _sampled_pairs(K, k, subset)

    return _uniform_mean(map(member, subsets))


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
    n = K.n
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
