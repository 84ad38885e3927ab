"""Eigenpair updates under a symmetric perturbation, with computable bounds.

Given the m leading eigenpairs (t_i, v_i) of a symmetric A' and a symmetric
perturbation E, the truncated update formulas approximate the leading
eigenpairs of A' + E.  The influence of the unknown trailing eigenvalues of
A' is collapsed into a single scalar mu; the first-order formula needs only
E-products with the known eigenvectors, the second-order formula additionally
applies A' to the residuals.

All formulas require the known eigenvalues to be strictly separated and
mu to stay away from every known eigenvalue; both guards use GAP_TOL.
Approximated eigenvectors are returned exactly as the formulas produce them,
without normalization (subspace angles are scale-invariant anyway).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrixcore import EigengapError, EigenPairs, GAP_TOL, SymmetricDense, dimension, matvec, trace


class MuCollisionError(ValueError):
    """mu coincides with a known eigenvalue, making a denominator vanish."""


@dataclass(frozen=True)
class MuPolicy:
    """How to pick the scalar standing in for the unknown tail eigenvalues.

    'zero' suits (near) low-rank matrices, 'mean' uses the mean of the
    unknown eigenvalues derived from the trace, 'explicit' is caller-chosen.
    """

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "mean", "explicit"):
            raise ValueError(f"unknown mu policy {self.kind!r}")
        if self.kind == "explicit" and not np.isfinite(self.value):
            raise ValueError("explicit mu must be finite")

    @classmethod
    def zero(cls) -> "MuPolicy":
        return cls("zero")

    @classmethod
    def mean(cls) -> "MuPolicy":
        return cls("mean")

    @classmethod
    def explicit(cls, value: float) -> "MuPolicy":
        return cls("explicit", float(value))

    @classmethod
    def parse(cls, text: str) -> "MuPolicy":
        """Parse 'zero', 'mean', or a float literal."""
        if text == "zero":
            return cls.zero()
        if text == "mean":
            return cls.mean()
        try:
            return cls.explicit(float(text))
        except ValueError as exc:
            raise ValueError(f"cannot parse mu policy {text!r}") from exc

    def resolve(self, problem: "PerturbationProblem") -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "explicit":
            return self.value
        return mu_mean(trace(problem.base), problem.known.values, problem.n)


def _as_matrix(A):
    """A raw (exactly symmetric) ndarray wrapped as SymmetricDense; the two
    matrix types pass through unchanged."""
    return SymmetricDense(A) if isinstance(A, np.ndarray) else A


@dataclass
class PerturbationProblem:
    """A' (base), its m known leading eigenpairs, and the perturbation E.

    ``base`` and ``perturbation`` are SymmetricDense or SparseSymmetric; an
    exactly symmetric ndarray is accepted and wrapped as SymmetricDense.
    """

    base: object
    known: EigenPairs
    perturbation: object

    def __post_init__(self):
        self.base = _as_matrix(self.base)
        self.perturbation = _as_matrix(self.perturbation)
        n = dimension(self.base)
        if dimension(self.perturbation) != n or self.known.n != n:
            raise ValueError("base, perturbation and eigenpairs must share dimension")
        gaps = -np.diff(self.known.values)
        if self.known.m > 1 and gaps.min() < GAP_TOL:
            raise EigengapError(f"known eigenvalue gap {gaps.min():.3e} below {GAP_TOL}")

    @property
    def n(self) -> int:
        return self.known.n

    @property
    def m(self) -> int:
        return self.known.m


def _coupling(problem: PerturbationProblem):
    """EV, G = V^T E V and the residual block R with R[:, i] = (I - VV^T) E v_i."""
    V = problem.known.vectors
    EV = matvec(problem.perturbation, V)
    G = V.T @ EV
    R = EV - V @ G
    return EV, G, R


def _gap_coefficients(values: np.ndarray, G: np.ndarray) -> np.ndarray:
    """C[k, i] = (E v_i, v_k) / (t_i - t_k) for k != i, zero on the diagonal."""
    m = values.size
    denom = values[None, :] - values[:, None]
    off = ~np.eye(m, dtype=bool)
    if m > 1 and np.min(np.abs(denom[off])) < GAP_TOL:
        raise EigengapError("repeated eigenvalues: gap denominator below tolerance")
    C = np.zeros_like(G)
    C[off] = G[off] / denom[off]
    return C


def _checked_mu(values: np.ndarray, mu: float) -> float:
    if np.min(np.abs(values - mu)) < GAP_TOL:
        raise MuCollisionError(f"mu={mu} collides with a known eigenvalue")
    return mu


def _resolve_mu(problem: PerturbationProblem, mu) -> float:
    if isinstance(mu, MuPolicy):
        mu = mu.resolve(problem)
    return _checked_mu(problem.known.values, float(mu))


def classical_eigvec_update(problem: PerturbationProblem) -> np.ndarray:
    """First-order eigenvector update using the complete eigenbasis (m = n).

    Returns the n approximated eigenvectors as columns, unnormalized:
    w_i = v_i + sum_{k != i} (E v_i, v_k) / (t_i - t_k) v_k.
    """
    if problem.m != problem.n:
        raise ValueError("classical update needs all n eigenpairs; use the truncated forms otherwise")
    V = problem.known.vectors
    _, G, _ = _coupling(problem)
    C = _gap_coefficients(problem.known.values, G)
    return V + V @ C


def classical_eigval_update(problem: PerturbationProblem) -> np.ndarray:
    """Second-order accurate eigenvalue update: t_i + v_i^T E v_i."""
    V = problem.known.vectors
    EV = matvec(problem.perturbation, V)
    return problem.known.values + np.einsum("ij,ij->j", V, EV)


def residual_r(known: EigenPairs, E, i: int) -> np.ndarray:
    """Residual r_i = (I - V V^T) E v_i for the 0-based index i.

    This is the component of E v_i outside the known subspace; it is
    orthogonal to every known eigenvector up to roundoff.
    """
    if not 0 <= i < known.m:
        raise IndexError(f"index {i} out of range for m={known.m}")
    V = known.vectors
    Ev = matvec(_as_matrix(E), V[:, i])
    return Ev - V @ (V.T @ Ev)


def truncated_first_order(problem: PerturbationProblem, mu) -> np.ndarray:
    """First-order truncated eigenvector update.

    w_i = v_i + sum_{k <= m, k != i} (E v_i, v_k)/(t_i - t_k) v_k
              + r_i / (t_i - mu),
    returned as an n x m column block.  ``mu`` is a MuPolicy or a float.
    """
    mu_val = _resolve_mu(problem, mu)
    V = problem.known.vectors
    t = problem.known.values
    _, G, R = _coupling(problem)
    C = _gap_coefficients(t, G)
    return V + V @ C + R / (t - mu_val)[None, :]


def truncated_second_order(problem: PerturbationProblem, mu) -> np.ndarray:
    """Second-order truncated eigenvector update.

    Adds (A' - mu I) r_i / (t_i - mu)^2 to the first-order formula, which
    requires applying the base operator to the residuals.
    """
    mu_val = _resolve_mu(problem, mu)
    V = problem.known.vectors
    t = problem.known.values
    _, G, R = _coupling(problem)
    C = _gap_coefficients(t, G)
    W1 = V + V @ C + R / (t - mu_val)[None, :]
    inv_sq = 1.0 / (t - mu_val) ** 2
    return W1 + (matvec(problem.base, R) - mu_val * R) * inv_sq[None, :]


# ---------------------------------------------------------------------------
# error bounds


def tail_abs_sum(tail_values: np.ndarray, mu: float) -> float:
    """sum_k |t_k - mu| over the explicitly known tail."""
    return float(np.sum(np.abs(np.asarray(tail_values, dtype=float) - mu)))


def tail_sq_sum(tail_values: np.ndarray, mu: float) -> float:
    """sum_k (t_k - mu)^2 over the explicitly known tail."""
    d = np.asarray(tail_values, dtype=float) - mu
    return float(np.dot(d, d))


def tail_sq_sum_from_traces(trace_base_sq: float, known_values: np.ndarray, mu: float = 0.0,
                            trace_base: float = 0.0, n: int = 0) -> float:
    """sum_{k>m} (t_k - mu)^2 from traces of A' and the known values alone:

    trace(A'^2) - 2 mu trace(A') + n mu^2 - sum_{i<=m} (t_i - mu)^2,
    where trace(A'^2) = ||A'||_F^2.  ``trace_base`` and ``n`` enter only
    with mu, so mu = 0 needs trace(A'^2) alone.  The difference loses
    about eps * ||A'||_F^2 to cancellation; it is clamped at 0 so that a
    tail near zero cannot come out negative.
    """
    d = np.asarray(known_values, dtype=float) - mu
    return max(0.0, float(trace_base_sq - 2.0 * mu * trace_base + n * mu * mu - np.dot(d, d)))


def _bound_vector(values: np.ndarray, total: float, mu: float, norm_e: float,
                  power: int) -> np.ndarray:
    t_m = values[-1]
    out = np.empty(values.size)
    for i, t_i in enumerate(values):
        gap = abs(t_i - t_m)
        if gap < GAP_TOL:
            # the gap factor degenerates for the last retained pair; the
            # bound is vacuous (infinite) there rather than an error
            out[i] = np.inf
        else:
            out[i] = total / (gap * abs(t_i - mu) ** power) * norm_e
    return out


def first_order_bounds(values: np.ndarray, tail_values, mu: float, norm_e: float) -> np.ndarray:
    """First-order bound terms for every retained index (inf where i = m)."""
    total = tail_abs_sum(tail_values, mu) if np.ndim(tail_values) else float(tail_values)
    return _bound_vector(np.asarray(values, dtype=float), total, mu, norm_e, power=1)


def second_order_bounds(values: np.ndarray, tail_values, mu: float, norm_e: float) -> np.ndarray:
    """Second-order bound terms for every retained index (inf where i = m)."""
    total = tail_sq_sum(tail_values, mu) if np.ndim(tail_values) else float(tail_values)
    return _bound_vector(np.asarray(values, dtype=float), total, mu, norm_e, power=2)


# ---------------------------------------------------------------------------
# mu selection helpers


def mu_mean(trace_base: float, known_values: np.ndarray, n: int) -> float:
    """Mean of the unknown eigenvalues: (trace(A') - sum known) / (n - m)."""
    m = len(known_values)
    if m >= n:
        raise ValueError("mu_mean needs m < n")
    return float((trace_base - np.sum(known_values)) / (n - m))


def is_lowrank_plus_shift(A, m: int, tolerance: float = 1e-10):
    """Return delta if A equals (rank-m part) + delta * I within tolerance.

    Checks whether the n - m trailing eigenvalues agree to ``tolerance``;
    returns their mean if so, None otherwise.  Diagnostic only: computes the
    full spectrum.
    """
    from .matrixcore import sym_eig_full

    full = sym_eig_full(A)
    if m >= full.n:
        raise ValueError("need m < n trailing values to inspect")
    tail = full.values[m:]
    if tail.max() - tail.min() <= tolerance:
        return float(tail.mean())
    return None
