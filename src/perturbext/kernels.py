"""Dataset ingestion, kernel construction, sparsification and instance generators.

Kernels are evaluated in slabs K[lo:hi, lo:] of the upper triangle
(``_slab_evaluator``).  ``build_kernel`` evaluates one slab, the dense n x n
kernel; ``build_sparse_kernel`` streams slabs of _SLAB_ROWS rows and keeps
their largest-magnitude entries through the selection ``sparsify`` applies
to a dense kernel, so it never holds an n x n array.

All generators are driven by the counter-based Philox generator so that a
(master seed, trial index) pair always reproduces the same matrix, no matter
in which order trials run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrixcore import SparseSymmetric, SymmetricDense, _average_transpose, _dense_eigvalsh, read_rows


class KernelOverflowError(OverflowError, ValueError):
    """The data or the kernel overflows double precision: bad input, not a
    numerical failure of the method."""


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, *stream); the per-trial RNG used everywhere."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(int(seed), *map(int, stream)))))


@dataclass(frozen=True)
class Dataset:
    """n samples by d features, and the constant columns ``standardize`` zeroed."""

    samples: np.ndarray
    constant_columns: tuple = ()

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2:
            raise ValueError("samples must be a 2-D array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian(gamma), Polynomial(degree) with the +1 offset, or plain Linear."""

    kind: str
    gamma: float = 1.0
    degree: int = 1

    def __post_init__(self):
        if self.kind not in ("gaussian", "polynomial", "linear"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian" and not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gaussian kernel needs gamma > 0")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("polynomial kernel needs degree >= 1")

    @classmethod
    def gaussian(cls, gamma: float) -> "KernelSpec":
        return cls("gaussian", gamma=gamma)

    @classmethod
    def polynomial(cls, degree: int) -> "KernelSpec":
        return cls("polynomial", degree=degree)

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls("linear")

    @classmethod
    def parse(cls, text: str) -> "KernelSpec":
        """Parse 'gaussian:<gamma>', 'poly:<degree>' or 'linear'."""
        head, _, arg = text.partition(":")
        if head == "gaussian":
            return cls.gaussian(float(arg))
        if head == "poly":
            return cls.polynomial(int(arg))
        if head == "linear" and not arg:
            return cls.linear()
        raise ValueError(f"cannot parse kernel spec {text!r}")


def load_dataset(path, has_header: bool = False) -> Dataset:
    """Comma-separated numeric file -> Dataset; errors carry row/column info."""
    return Dataset(read_rows(path, skip_header=has_header))


def standardize(ds: Dataset) -> Dataset:
    """Center each column and scale to unit population standard deviation.

    Constant columns cannot be scaled; they are mapped to all-zero and
    reported through ``constant_columns``.  A column whose standard
    deviation overflows raises KernelOverflowError instead of being
    mistaken for a constant one.
    """
    x = ds.samples
    if x.shape[0] < 2:
        raise ValueError("standardization needs at least two samples")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        std = x.std(axis=0)  # population denominator: unit variance holds exactly
    overflow = ~np.isfinite(std)
    if overflow.any():
        raise KernelOverflowError(
            f"standard deviation overflows in column(s) {np.nonzero(overflow)[0].tolist()}")
    constant = std == 0.0
    safe_std = np.where(constant, 1.0, std)
    out = (x - mean) / safe_std
    out[:, constant] = 0.0
    return Dataset(out, constant_columns=tuple(np.nonzero(constant)[0]))


# rows of the upper triangle that build_sparse_kernel evaluates at a time; a
# slab holds about 2 * _SLAB_ROWS * n doubles
_SLAB_ROWS = 128


def _slab_evaluator(ds: Dataset, spec: KernelSpec):
    """The function (lo, hi) -> K[lo:hi, lo:], a new writable array, for the
    kernel of ``ds`` under ``spec``.

    A slab is evaluated from the Gram slab ``x[lo:hi] @ x[lo:].T`` with the
    squared norms of all samples computed once here.  For (0, n) that
    product is numpy's whole-Gram ``syrk`` call, symmetric bit for bit; a
    slab with hi < n goes through ``gemm`` and may round a Gram entry
    differently.  The Gaussian kernel is evaluated in place in the Gram
    slab and one work array.  An entry that overflows, or that an
    overflowing squared norm makes NaN, raises KernelOverflowError naming
    the first such sample pair of the slab in row-major order.
    """
    x = ds.samples
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", x, x)

    def slab(lo: int, hi: int) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = x[lo:hi] @ x[lo:].T
            if spec.kind == "gaussian":
                gram *= 2.0
                K = sq[lo:hi, None] + sq[None, lo:]
                K -= gram
                del gram  # the kernel slab is the only slab-sized array from here on
                np.clip(K, 0.0, None, out=K)
                np.fill_diagonal(K, 0.0)  # K[k, k] is the pair (lo + k, lo + k)
                K *= -spec.gamma
                np.exp(K, out=K)
            elif spec.kind == "linear":
                K = gram
            else:
                K = (1.0 + gram) ** spec.degree
        if not np.isfinite(K).all():
            raise _overflow(spec, K, lo)
        return K

    return slab


def _overflow(spec: KernelSpec, K: np.ndarray, lo: int = 0) -> KernelOverflowError:
    """The error naming the first non-finite entry of a slab K[lo:hi, lo:], row-major."""
    i, j = np.argwhere(~np.isfinite(K))[0]
    return KernelOverflowError(f"{spec.kind} kernel overflow at sample pair ({lo + i}, {lo + j})")


def build_kernel(ds: Dataset, spec: KernelSpec) -> SymmetricDense:
    """Gram matrix of the dataset under the given kernel: the dense n x n
    array, evaluated as one slab (``_slab_evaluator``) and averaged in place
    (``_average_transpose``).  The Gaussian kernel peaks at two n x n
    arrays; ``build_sparse_kernel`` keeps a top fraction without ever
    holding one.  An entry that overflows, or that an overflowing squared
    norm makes NaN, raises KernelOverflowError naming the first such sample
    pair, as does the first entry whose symmetric average overflows (both
    halves above DBL_MAX / 2)."""
    K = _slab_evaluator(ds, spec)(0, ds.n)
    with np.errstate(over="ignore"):  # an overflowing average is named below
        _average_transpose(K, K)
    try:
        return SymmetricDense._adopt(K)
    except ValueError:  # the slab was finite, so only an average can be infinite
        raise _overflow(spec, K) from None


def _keep_largest(n: int, slabs, keep_fraction: float) -> SparseSymmetric:
    """The ceil(keep_fraction * n(n+1)/2) largest-magnitude upper-triangle
    entries of the n x n symmetric matrix that ``slabs`` yields as
    (lo, K[lo:hi, lo:]) in row order, mirrored; ties broken by (row, col).

    The fraction is checked before the first slab is drawn.  Each slab's
    upper triangle is copied row by row into one row-major array of the
    n(n+1)/2 entries.  ``np.partition`` of one magnitude copy finds the
    count-th largest without a sort.  Every entry above it is kept, and of
    those equal to it the first in row-major order fill the count: the set
    a stable descending sort would take.  |v| > c is tested as v > c or
    v < -c, so no second magnitude array is formed.  The kept flat
    positions map to (row, col) through the row offsets.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must lie in (0, 1]")
    # flat offset of each row's diagonal entry in the row-major upper triangle
    starts = np.concatenate(([0], np.cumsum(np.arange(n, 0, -1))))
    upper = np.empty(starts[-1])
    for lo, block in slabs:
        for i in range(lo, lo + block.shape[0]):
            upper[starts[i]:starts[i + 1]] = block[i - lo, i - lo:]
    count = int(np.ceil(keep_fraction * upper.size))
    mag = np.abs(upper)
    mag.partition(mag.size - count)
    cut = mag[mag.size - count]
    del mag
    keep = upper > cut
    keep |= upper < -cut
    tied = upper == cut
    tied |= upper == -cut
    keep[np.flatnonzero(tied)[:count - np.count_nonzero(keep)]] = True
    flat = np.flatnonzero(keep)
    rows = np.searchsorted(starts, flat, side="right") - 1
    cols = flat - starts[rows] + rows
    return SparseSymmetric(n, rows, cols, upper[flat])


def sparsify(K: SymmetricDense, keep_fraction: float) -> SparseSymmetric:
    """Keep the ceil(keep_fraction * count) largest-magnitude upper-triangle
    entries (mirrored); ties broken by (row, col).  The selection is
    ``_keep_largest``'s, which ``build_sparse_kernel`` shares; it peaks at
    about n^2 doubles."""
    return _keep_largest(K.n, [(0, K.a)], keep_fraction)


def build_sparse_kernel(ds: Dataset, spec: KernelSpec, keep_fraction: float) -> SparseSymmetric:
    """The kernel of ``ds`` under ``spec`` kept at its ceil(keep_fraction *
    n(n+1)/2) largest-magnitude upper-triangle entries, mirrored; ties
    broken by (row, col): ``sparsify(build_kernel(ds, spec), keep_fraction)``
    without an n x n array.

    Slabs of _SLAB_ROWS rows of the upper triangle (``_slab_evaluator``)
    stream into ``sparsify``'s selection one at a time, so the peak is the
    row-major array of the n(n+1)/2 entries and its magnitude copy, about
    n^2 doubles, plus one slab.  The kept set and its values are
    ``sparsify(build_kernel(.))``'s wherever a slab's ``gemm`` rounds its
    Gram entries as the whole-Gram ``syrk`` does.  Elsewhere the values
    agree to rounding, and only pairs whose magnitudes equal the cut to
    rounding can be kept on one side alone.  Overflow raises
    KernelOverflowError naming the first bad sample pair.
    """
    n, slab = ds.n, _slab_evaluator(ds, spec)
    slabs = ((lo, slab(lo, min(lo + _SLAB_ROWS, n))) for lo in range(0, n, _SLAB_ROWS))
    return _keep_largest(n, slabs, keep_fraction)


# ---------------------------------------------------------------------------
# synthetic instance generators


BAND_DECAY = 0.1
BAND_CUTOFF = 1e-10
# uniforms drawn at once by gen_band_matrix, rounded to whole rows; it bounds
# the generator's working memory
_BAND_BLOCK = 1 << 20


def gen_band_matrix(n: int, seed: int = 0) -> SparseSymmetric:
    """Random banded matrix: entry (i, j) is X ** (|i - j| / BAND_DECAY) with
    X ~ Uniform(0, 1) drawn once per symmetric pair, and entries below
    BAND_CUTOFF dropped.

    The exponent is positive by design: off-diagonal magnitudes decay, and a
    negative exponent would grow without bound away from the diagonal.  The
    diagonal is exactly one (X ** 0).  The stored count is concentrated near
    the diagonal, but the magnitudes are not: E|K_ij| = BAND_DECAY /
    (BAND_DECAY + |i - j|), a harmonic tail, so rare large couplings survive
    at any distance (at n = 500, ||K - K^s|| is still 0.99 for the band
    |i - j| <= 250).

    The pairs (i, j), i < j, are drawn in row-major order, whole rows of
    about _BAND_BLOCK pairs at a time.  ``Generator.uniform`` spends one
    Philox word per float64, so the blocks draw the same numbers as one call
    over all n(n - 1)/2 pairs.  Only the candidates
    X >= BAND_CUTOFF ** (BAND_DECAY / d) * (1 - 1e-9), d = j - i, are raised
    to their power and tested against BAND_CUTOFF.  Without rounding,
    X ** (d / BAND_DECAY) >= BAND_CUTOFF holds exactly when
    X >= BAND_CUTOFF ** (BAND_DECAY / d).  Rounding the power, the bound and
    the exponent moves either side by about 1e-14 relative at most, and
    carrying an error back to X through the (d / BAND_DECAY >= 10)-th root
    shrinks it further, so the 1e-9 margin keeps every survivor among the
    candidates.  Time is O(n^2) draws plus O(kept) work, memory
    O(_BAND_BLOCK + kept).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = rng_for(seed)
    # least candidate draw at each distance d = 1, ..., n - 1
    least = BAND_CUTOFF ** (BAND_DECAY / np.arange(1, n)) * (1.0 - 1e-9)
    # flat offset one past each row's last pair in the row-major upper triangle
    ends = np.cumsum(np.arange(n - 1, 0, -1))
    rows, cols, x = [], [], []
    row = 0
    while row < n - 1:
        base = int(ends[row - 1]) if row else 0
        stop = max(row + 1, int(np.searchsorted(ends, base + _BAND_BLOCK, side="right")))
        draws = rng.uniform(size=int(ends[stop - 1]) - base)
        bound = np.concatenate([least[:n - 1 - i] for i in range(row, stop)])
        hit = np.flatnonzero(draws >= bound)
        flat = hit + base
        # row i's last pair, (i, n - 1), sits at flat offset ends[i] - 1
        i = np.searchsorted(ends, flat, side="right")
        rows.append(i)
        cols.append(flat - ends[i] + n)
        x.append(draws[hit])
        row = stop
    rows, cols, x = (np.concatenate(c) for c in (rows, cols, x))
    expo = (cols - rows).astype(float) / BAND_DECAY
    with np.errstate(under="ignore"):
        vals = x ** expo
    keep = vals >= BAND_CUTOFF
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    # row-major output: each row's unit diagonal entry before its kept pairs
    at, diag = np.searchsorted(rows, np.arange(n)), np.arange(n)
    rows, cols, vals = np.insert(rows, at, diag), np.insert(cols, at, diag), np.insert(vals, at, 1.0)
    return SparseSymmetric(n, rows, cols, vals)


def gen_unit_random_symmetric(n: int, seed: int = 0) -> SymmetricDense:
    """Symmetrized i.i.d. normal matrix rescaled to unit spectral norm.

    A failed LAPACK solve for the norm raises ConvergenceError."""
    rng = rng_for(seed)
    a = rng.standard_normal((n, n))
    # (a + a.T) / 2 is exactly symmetric in IEEE arithmetic
    sym = SymmetricDense._adopt((a + a.T) / 2.0)
    norm = float(np.max(np.abs(_dense_eigvalsh(sym))))
    return SymmetricDense(sym.a / norm, symmetrize=True)


def _orthogonal_factor(g: np.ndarray) -> np.ndarray:
    """Q of g = QR with each column's sign fixed so that diag(R) >= 0."""
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs[None, :]


def gen_rank_m_spectrum(n: int, m: int, tail_value: float = 0.0, seed: int = 0) -> SymmetricDense:
    """Q diag(leading, tail_value, ..., tail_value) Q^T with random orthogonal Q
    and m sorted leading values drawn uniformly from [1, 2].

    The same seed reproduces the same Q and leading values for every
    ``tail_value``, so sweeps over the tail share their leading structure.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    rng = rng_for(seed)
    leading = np.sort(rng.uniform(1.0, 2.0, size=m))[::-1]
    q = _orthogonal_factor(rng.standard_normal((n, n)))
    vals = np.concatenate([leading, np.full(n - m, float(tail_value))])
    return SymmetricDense((q * vals[None, :]) @ q.T, symmetrize=True)


def gen_slow_decay(n: int, seed: int = 0) -> SymmetricDense:
    """Slowly decaying spectrum (eigenvalues 1/i) with near-coordinate eigenvectors.

    The orthogonal factor is the QR of I + 0.1 * G, keeping eigenvectors
    localized: column sampling then actually observes the spectrum, which is
    the regime sampling-based extensions are meant for.  Haar-random
    eigenvectors would make any column sample carry no spectral information.
    """
    rng = rng_for(seed)
    q = _orthogonal_factor(np.eye(n) + 0.1 * rng.standard_normal((n, n)))
    vals = 1.0 / np.arange(1, n + 1)
    return SymmetricDense((q * vals[None, :]) @ q.T, symmetrize=True)


def gen_wishart_psd(n: int, seed: int = 0) -> SymmetricDense:
    """Well-conditioned random PSD matrix G G^T / n + 0.5 * I."""
    rng = rng_for(seed)
    g = rng.standard_normal((n, n))
    return SymmetricDense(g @ g.T / n + 0.5 * np.eye(n), symmetrize=True)


def gen_psd_separated_block(n: int, m: int, seed: int = 0) -> SymmetricDense:
    """Random PSD matrix whose leading m x m block has evenly spaced eigenvalues.

    Equivalence checks between two independently computed decompositions are
    exact algebra, but their numerical agreement degrades like roundoff over
    the block's internal eigengaps; a Wishart block occasionally has gaps of
    1e-4 and less, which drowns a 1e-10 comparison in decomposition noise.
    Here the block spectrum is pinned to linspace over [1, 2.2] (the
    eigenbasis, the coupling to the remaining rows and the tail all stay
    random), so deviations measure the algebra rather than the conditioning.
    The whole matrix carries a 0.5 * I shift.
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    rng = rng_for(seed)
    d = n
    g = rng.standard_normal((n, d))
    shift = 0.5
    s = np.linspace(2.2, 1.0, m)  # descending
    qm = _orthogonal_factor(rng.standard_normal((m, m)))
    v = np.linalg.qr(rng.standard_normal((d, m)))[0]
    g[:m] = (qm * np.sqrt(d * (s - shift))[None, :]) @ v.T
    return SymmetricDense(g @ g.T / d + shift * np.eye(n), symmetrize=True)


def gen_clustered_dataset(n: int = 1000, dim: int = 81, seed: int = 0) -> Dataset:
    """Gaussian-mixture point cloud with five tight and five loose clusters.

    The tight clusters hold 35% of the points with spread 0.056, the loose
    ones the rest with spread 0.26.  Tight clusters are smaller but produce
    the largest kernel entries, so after sparsification they own the leading
    eigenvectors; the rows are shuffled so the first rows of the kernel are a
    random cross-section.
    """
    tight_clusters = loose_clusters = 5
    tight_share, tight_spread, loose_spread = 0.35, 0.056, 0.26
    rng = rng_for(seed)
    total = tight_clusters + loose_clusters
    tight_size = int(round(n * tight_share / tight_clusters))
    sizes = [tight_size] * tight_clusters
    remaining = n - tight_size * tight_clusters
    base = remaining // loose_clusters
    sizes += [base + (1 if i < remaining - base * loose_clusters else 0) for i in range(loose_clusters)]
    spreads = [tight_spread] * tight_clusters + [loose_spread] * loose_clusters
    centers = rng.standard_normal((total, dim))
    parts = [centers[c] + spreads[c] * rng.standard_normal((sizes[c], dim)) for c in range(total)]
    pts = np.vstack(parts)
    return Dataset(pts[rng.permutation(n)])
