"""Eigenpair updates under a symmetric perturbation, with computable bounds.

Given the m leading eigenpairs (t_i, v_i) of a symmetric A' and a symmetric
perturbation E, the truncated update formulas approximate the leading
eigenpairs of A' + E.  The influence of the unknown trailing eigenvalues of
A' is collapsed into a single scalar mu.  Both orders touch E only through
E V, its product with the known eigenvectors, so a problem holds that
n x m product and never E itself; the second-order formula additionally
applies A' to the residuals.

All formulas require the known eigenvalues to be strictly separated and
mu to stay away from every known eigenvalue; both guards use GAP_TOL.
Approximated eigenvectors are returned exactly as the formulas produce them,
without normalization (subspace angles are scale-invariant anyway).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrixcore import (
    EigengapError,
    EigenPairs,
    GAP_TOL,
    _dense_eigvalsh,
    _require_matrix,
)


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
        return mu_mean(problem.base.trace(), problem.known.values, problem.n)


@dataclass(frozen=True, eq=False)
class PerturbationProblem:
    """A' (base), its m known leading eigenpairs (t_i, v_i), and E V.

    ``base`` is a SymmetricDense or SparseSymmetric; any other type raises
    TypeError.  ``EV``, the perturbation applied to the known vectors, has
    their n x m shape (else ValueError): ``E.matvec(known.vectors)``, or a
    cheaper route to it, as a block-extension member's K V with its rows
    zeroed.  It is kept as a read-only copy, as ``EigenPairs`` keeps its
    arrays.  Frozen, so the gap check of construction holds for the
    object's whole life and the cached coupling belongs to its fields; a
    problem equals only itself.
    """

    base: object
    known: EigenPairs
    EV: np.ndarray

    def __post_init__(self):
        _require_matrix(self.base)
        EV = np.array(self.EV, dtype=float)
        if self.known.n != self.base.n or EV.shape != self.known.vectors.shape:
            raise ValueError("base, eigenpairs and E V must share dimension")
        EV.setflags(write=False)
        object.__setattr__(self, "EV", EV)
        gaps = -np.diff(self.known.values)
        if self.known.m > 1 and gaps.min() < GAP_TOL:
            raise EigengapError(f"known eigenvalue gap {gaps.min():.3e} below {GAP_TOL}")

    @property
    def n(self) -> int:
        return self.known.n

    @property
    def m(self) -> int:
        return self.known.m

    @cached_property
    def coupling(self):
        """(G, R): G = V^T E V and the residual block R with
        R[:, i] = (I - VV^T) E v_i, formed on first use and shared by both
        truncated orders."""
        V = self.known.vectors
        G = V.T @ self.EV
        return G, self.EV - V @ G


def _gap_coefficients(values: np.ndarray, G: np.ndarray) -> np.ndarray:
    """C[k, i] = (E v_i, v_k) / (t_i - t_k) for k != i, zero on the diagonal.

    ``values`` are a PerturbationProblem's known values: descending, with
    every consecutive gap at least GAP_TOL, so every denominator is too.
    """
    m = values.size
    denom = values[None, :] - values[:, None]
    off = ~np.eye(m, dtype=bool)
    C = np.zeros_like(G)
    C[off] = G[off] / denom[off]
    return C


def _checked_mu(values: np.ndarray, mu: float) -> float:
    if np.min(np.abs(values - mu)) < GAP_TOL:
        raise MuCollisionError(f"mu={mu} collides with a known eigenvalue")
    return mu


def classical_eigvec_update(problem: PerturbationProblem) -> np.ndarray:
    """First-order eigenvector update using the complete eigenbasis (m = n).

    Returns the n approximated eigenvectors as columns, unnormalized:
    w_i = v_i + sum_{k != i} (E v_i, v_k) / (t_i - t_k) v_k.
    """
    if problem.m != problem.n:
        raise ValueError("classical update needs all n eigenpairs; use the truncated forms otherwise")
    V = problem.known.vectors
    G, _ = problem.coupling
    C = _gap_coefficients(problem.known.values, G)
    return V + V @ C


def classical_eigval_update(problem: PerturbationProblem) -> np.ndarray:
    """Second-order accurate eigenvalue update: t_i + v_i^T E v_i."""
    return problem.known.values + np.einsum("ij,ij->j", problem.known.vectors, problem.EV)


def truncated_first_order(problem: PerturbationProblem, mu: float) -> np.ndarray:
    """First-order truncated eigenvector update.

    w_i = v_i + sum_{k <= m, k != i} (E v_i, v_k)/(t_i - t_k) v_k
              + r_i / (t_i - mu),
    returned as an n x m column block.  ``mu`` is a float; a MuPolicy
    resolves to one through ``MuPolicy.resolve``.
    """
    mu = _checked_mu(problem.known.values, float(mu))
    V = problem.known.vectors
    t = problem.known.values
    G, R = problem.coupling
    C = _gap_coefficients(t, G)
    return V + V @ C + R / (t - mu)[None, :]


def truncated_second_order(problem: PerturbationProblem, mu: float) -> np.ndarray:
    """Second-order truncated eigenvector update.

    Adds (A' - mu I) r_i / (t_i - mu)^2 to ``truncated_first_order``, which
    requires applying the base operator to the residuals.
    """
    W1 = truncated_first_order(problem, mu)
    _, R = problem.coupling
    with np.errstate(over="ignore"):  # a huge mu squares to inf: its term is 0
        inv_sq = 1.0 / (problem.known.values - mu) ** 2
    return W1 + (problem.base.matvec(R) - mu * R) * inv_sq[None, :]


# ---------------------------------------------------------------------------
# error bounds


def tail_sq_sum_from_traces(trace_base_sq: float, known_values: np.ndarray, mu: float = 0.0,
                            trace_base: float = 0.0, n: int = 0) -> float:
    """sum_{k>m} (t_k - mu)^2 from traces of A' and the known values alone:

    trace(A'^2) - 2 mu trace(A') + n mu^2 - sum_{i<=m} (t_i - mu)^2,
    where trace(A'^2) = ||A'||_F^2.  ``trace_base`` and ``n`` enter only
    with mu, so mu = 0 needs trace(A'^2) alone.  The difference loses
    about eps * ||A'||_F^2 to cancellation; it is clamped at 0 so that a
    tail near zero cannot come out negative.  A mu whose square overflows
    gives inf or NaN, which the clamp keeps and ``bound_terms`` rejects.
    """
    d = np.asarray(known_values, dtype=float) - mu
    with np.errstate(over="ignore", invalid="ignore"):
        return max(float(trace_base_sq - 2.0 * mu * trace_base + n * mu * mu - np.dot(d, d)), 0.0)


def bound_terms(values: np.ndarray, tail, mu: float, norm_e: float, order: int) -> np.ndarray:
    """Computable bound term of every retained pair for the truncated update
    of the given order (1 or 2):

    ||E|| * S / (|t_i - t_m| * |t_i - mu|^order),  S = sum_{k>m} |t_k - mu|^order.

    ``tail`` is either the unknown eigenvalues t_k themselves or the sum S.
    The gap factor degenerates for the last retained pair (and for any pair
    tied with it): the term is infinite there rather than an error.  An S
    that is not finite, from a mu so large that it overflows, raises
    ValueError.
    """
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.ndim(tail):
            d = np.abs(np.asarray(tail, dtype=float) - mu)
            total = float(np.sum(d) if order == 1 else np.dot(d, d))
        else:
            total = float(tail)
    if not np.isfinite(total):
        raise ValueError(f"the tail sum of the bound terms overflows at mu = {mu:g}")
    gap = np.abs(values - values[-1])
    out = np.full(values.size, np.inf)
    ok = gap >= GAP_TOL
    out[ok] = total / (gap[ok] * np.abs(values[ok] - mu) ** order) * norm_e
    return out


# ---------------------------------------------------------------------------
# mu selection helpers


def mu_mean(trace_base: float, known_values: np.ndarray, n: int) -> float:
    """Mean of the unknown eigenvalues: (trace(A') - sum known) / (n - m)."""
    m = len(known_values)
    if m >= n:
        raise ValueError("mu_mean needs m < n")
    return float((trace_base - np.sum(known_values)) / (n - m))


def is_lowrank_plus_shift(A, m: int, tolerance: float = 1e-10):
    """Return delta if A, a SymmetricDense or SparseSymmetric, equals
    (rank-m part) + delta * I within tolerance.

    Checks whether the n - m trailing eigenvalues agree to ``tolerance``;
    returns their mean if so, None otherwise.  Diagnostic only: computes the
    full spectrum, values only.  Raises TypeError for an A of another type,
    ValueError for m >= n and ConvergenceError when LAPACK fails.
    """
    _require_matrix(A)
    if m >= A.n:
        raise ValueError("need m < n trailing values to inspect")
    tail = _dense_eigvalsh(A)[::-1][m:]
    if tail.max() - tail.min() <= tolerance:
        return float(tail.mean())
    return None
