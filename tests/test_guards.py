"""Each numerical guard fires as its typed error on any input in its domain,
never as a NaN, an infinity or a finite wrong number: one hypothesis
property per guard, on matrices and datasets of at most 40 rows.

- eigengap: pairs m and m + 1 of ``sym_eig_partial`` tie, on a matrix whose
  nonzeros lie in r < n rows, so that the tie is checked (the dense solve of
  a matrix without empty rows returns a tied pair as it is, by design);
- mu collision: an explicit mu equal to a known value in ``pert_extend``;
- singular sample: a sampled block whose leading pairs hold a zero
  eigenvalue in ``generalized_nystrom``;
- kernel overflow: samples scaled past overflow, or a polynomial degree
  past it, in ``build_kernel`` and ``build_sparse_kernel``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturbext import (
    Dataset,
    EigengapError,
    ExtensionConfig,
    KernelOverflowError,
    KernelSpec,
    Selector,
    SingularSampleError,
    SparseSymmetric,
    SymmetricDense,
    build_kernel,
    build_sparse_kernel,
    generalized_nystrom,
    pert_extend,
    select_submatrix,
    sym_eig_partial,
)
from perturbext.perturbation import MuCollisionError, MuPolicy

SETTINGS = settings(max_examples=50, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def _orthogonal(rng, r):
    return np.linalg.qr(rng.standard_normal((r, r)))[0]


def _both_types(a):
    D = SymmetricDense(a, symmetrize=True)
    return D, SparseSymmetric(D.n, *D.triplets())


@SETTINGS
@given(seed=seeds, r=st.integers(2, 30), empty=st.integers(1, 10), data=st.data(), at_zero=st.booleans())
def test_tied_pairs_raise_eigengap(seed, r, empty, data, at_zero):
    # pairs m and m + 1 of the r-row block tie: both block values, or (with
    # at_zero) pair m and the zeros of the n - r empty rows
    m = data.draw(st.integers(1, r - 1))
    n = r + empty
    rng = np.random.default_rng(seed)
    w = np.sort(rng.uniform(1.0, 10.0, r))[::-1]
    if at_zero:
        w[m - 1:] -= w[m - 1]  # w[m - 1] = 0, the rest below it
    else:
        w[m] = w[m - 1]
    Q = _orthogonal(rng, r)
    rows = np.sort(rng.choice(n, r, replace=False))
    a = np.zeros((n, n))
    a[np.ix_(rows, rows)] = (Q * w) @ Q.T
    for A in _both_types(a):
        with pytest.raises(EigengapError):
            sym_eig_partial(A, m)


@SETTINGS
@given(seed=seeds, n=st.integers(5, 40), sparse=st.booleans(), data=st.data(), order=st.sampled_from([1, 2]))
def test_mu_on_a_known_value_raises_mu_collision(seed, n, sparse, data, order):
    rng = np.random.default_rng(seed)
    # well separated values: the eigengap guard passes and mu alone collides
    w = np.arange(n, 0, -1) * 1.0 + rng.uniform(0.0, 0.5, n)
    Q = _orthogonal(rng, n)
    K = _both_types((Q * w) @ Q.T)[sparse]
    sel = data.draw(st.sampled_from([Selector.band(n - 1), Selector.sparse_top_q(1.0)]))
    m = data.draw(st.integers(1, min(5, n - 1)))
    known = sym_eig_partial(select_submatrix(K, sel), m).values
    mu = float(known[data.draw(st.integers(0, m - 1))])
    with pytest.raises(MuCollisionError):
        pert_extend(K, sel, ExtensionConfig(m=m, order=order, mu=MuPolicy.explicit(mu)))


@SETTINGS
@given(seed=seeds, n=st.integers(4, 40), data=st.data(), sparse=st.booleans())
def test_zero_eigenvalue_in_the_sample_raises_singular_sample(seed, n, data, sparse):
    # K = C diag(s) C^T of rank p + q: its l x l top-left block has l - p - q
    # zero eigenvalues, and the k > p leading pairs hold one of them
    l = data.draw(st.integers(2, n))
    p = data.draw(st.integers(0, l - 1))
    q = data.draw(st.integers(0, l - 1 - p))
    k = data.draw(st.integers(p + 1, l))
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((n, p + q))
    s = np.concatenate((rng.uniform(1.0, 5.0, p), -rng.uniform(1.0, 5.0, q)))
    K = _both_types((C * s) @ C.T)[sparse]
    with pytest.raises(SingularSampleError):
        generalized_nystrom(K, k, l)


def _scaled_samples(seed, n, d, exponent):
    """n samples of d features in [-1, 1], the first of magnitude 1, times
    10 ** exponent."""
    z = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, d))
    z[0, 0] = 1.0
    return z * 10.0 ** exponent


def _assert_overflow_raised(ds, spec, keep):
    with pytest.raises(KernelOverflowError):
        build_kernel(ds, spec)
    with pytest.raises(KernelOverflowError):
        build_sparse_kernel(ds, spec, keep)


@SETTINGS
@given(seed=seeds, n=st.integers(2, 40), d=st.integers(1, 4), exponent=st.integers(155, 300),
       kind=st.sampled_from(["linear", "polynomial", "gaussian"]), degree=st.integers(1, 5),
       keep=st.floats(0.01, 1.0))
def test_samples_past_overflow_raise_kernel_overflow(seed, n, d, exponent, kind, degree, keep):
    # each squared norm x_i . x_i of at least the first sample overflows: a
    # linear or polynomial kernel overflows on its diagonal, and a Gaussian
    # one on a repeated sample, whose distance is inf - inf
    x = _scaled_samples(seed, n, d, exponent)
    spec = {"linear": KernelSpec.linear(), "polynomial": KernelSpec.polynomial(degree),
            "gaussian": KernelSpec.gaussian(0.5)}[kind]
    if kind == "gaussian":
        x[1] = x[0]
    _assert_overflow_raised(Dataset(x), spec, keep)


@SETTINGS
@given(seed=seeds, n=st.integers(2, 40), d=st.integers(1, 4), exponent=st.integers(0, 100),
       extra=st.integers(0, 50), keep=st.floats(0.01, 1.0))
def test_polynomial_degree_past_overflow_raises_kernel_overflow(seed, n, d, exponent, extra, keep):
    # (1 + x_0 . x_0) ** degree passes the largest double, 1.8e308
    x = _scaled_samples(seed, n, d, exponent)
    degree = int(np.ceil(np.log(np.finfo(float).max) / np.log1p(x[0] @ x[0]))) + 1 + extra
    _assert_overflow_raised(Dataset(x), KernelSpec.polynomial(degree), keep)
