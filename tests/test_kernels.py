import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturbext import experiments, kernels
from perturbext.experiments import derive_seed, run_band_experiment
from perturbext.kernels import (
    BAND_CUTOFF,
    BAND_DECAY,
    Dataset,
    KernelOverflowError,
    KernelSpec,
    build_kernel,
    build_sparse_kernel,
    gen_band_matrix,
    gen_clustered_dataset,
    gen_rank_m_spectrum,
    gen_slow_decay,
    gen_unit_random_symmetric,
    load_dataset,
    rng_for,
    sparsify,
    standardize,
)
from perturbext.matrixcore import SparseSymmetric, SymmetricDense, _average_transpose, spectral_norm, sym_eig_full


class TestLoadDataset:
    def test_basic(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        ds = load_dataset(path)
        assert np.array_equal(ds.samples, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        ds = load_dataset(path, has_header=True)
        assert ds.n == 2

    def test_ragged_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(path)

    def test_nonnumeric_names_location(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="line 2, column 2"):
            load_dataset(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_dataset(path)


class TestStandardize:
    def test_two_point_population_denominator(self):
        ds = standardize(Dataset(np.array([[1.0], [3.0]])))
        assert np.array_equal(ds.samples, [[-1.0], [1.0]])

    def test_constant_column_zeroed_and_flagged(self):
        ds = standardize(Dataset(np.array([[1.0, 5.0], [2.0, 5.0]])))
        assert np.all(ds.samples[:, 1] == 0.0)
        assert ds.constant_columns == (1,)

    def test_moments(self):
        rng = rng_for(1)
        ds = standardize(Dataset(rng.standard_normal((100, 5)) * 3 + 1))
        assert np.max(np.abs(ds.samples.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(ds.samples.std(axis=0) - 1.0)) <= 1e-8

    def test_overflowing_column_rejected(self):
        # the variance of a column holding 1e200 overflows; that column must
        # not pass for a constant one and be zeroed
        x = np.array([[1.0, 0.0], [2.0, 1e200], [3.0, 0.0]])
        with pytest.raises(KernelOverflowError, match=r"column\(s\) \[1\]"):
            standardize(Dataset(x))
        assert issubclass(KernelOverflowError, ValueError)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_idempotent(self, seed):
        rng = rng_for(seed)
        once = standardize(Dataset(rng.standard_normal((30, 4)) * 2 + 5))
        twice = standardize(once)
        assert np.max(np.abs(once.samples - twice.samples)) <= 1e-12


class TestBuildKernel:
    def test_gaussian_identical_points(self):
        ds = Dataset(np.array([[1.0, 2.0], [1.0, 2.0]]))
        K = build_kernel(ds, KernelSpec.gaussian(0.7))
        assert K.a[0, 1] == 1.0

    def test_gaussian_known_value(self):
        # squared distance 2 with gamma 0.5 -> exp(-1)
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]))
        K = build_kernel(ds, KernelSpec.gaussian(0.5))
        assert K.a[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_gaussian_diagonal_exactly_one(self):
        ds = Dataset(rng_for(2).standard_normal((40, 6)))
        K = build_kernel(ds, KernelSpec.gaussian(0.3))
        assert np.all(np.diag(K.a) == 1.0)

    def test_gaussian_psd_within_tolerance(self):
        ds = standardize(Dataset(rng_for(3).standard_normal((80, 4))))
        K = build_kernel(ds, KernelSpec.gaussian(0.2))
        min_eig = sym_eig_full(K).values[-1]
        assert min_eig >= -1e-8 * K.n

    def test_polynomial_known_value(self):
        ds = Dataset(np.array([[1.0, 0.0], [1.0, 1.0]]))
        K = build_kernel(ds, KernelSpec.polynomial(2))
        assert K.a[0, 1] == 4.0

    def test_linear_has_no_offset(self):
        ds = Dataset(np.array([[1.0, 0.0], [1.0, 1.0]]))
        K = build_kernel(ds, KernelSpec.linear())
        assert K.a[0, 1] == 1.0

    def test_polynomial_overflow_reported(self):
        ds = Dataset(np.array([[1e200, 0.0], [1e200, 0.0]]))
        with pytest.raises(OverflowError, match="pair"):
            build_kernel(ds, KernelSpec.polynomial(3))

    def test_spec_parse(self):
        assert KernelSpec.parse("gaussian:0.5") == KernelSpec.gaussian(0.5)
        assert KernelSpec.parse("poly:3") == KernelSpec.polynomial(3)
        assert KernelSpec.parse("linear") == KernelSpec.linear()
        for text in ("rbf:1", "linear:3", "poly:2.5"):
            with pytest.raises(ValueError):
                KernelSpec.parse(text)

    @pytest.mark.parametrize("kind, param, error", [
        ("rbf", None, ValueError), ("gaussian", 0.0, ValueError), ("gaussian", -1.0, ValueError),
        ("gaussian", float("nan"), ValueError), ("gaussian", float("inf"), ValueError),
        ("polynomial", 0, ValueError), ("linear", 7.0, ValueError),
        ("gaussian", None, TypeError), ("gaussian", "0.1", TypeError), ("polynomial", None, TypeError),
        ("polynomial", 2.0, TypeError),
        ("polynomial", "2", TypeError),
    ])
    def test_construction_is_checked(self, kind, param, error):
        with pytest.raises(error) as caught:
            KernelSpec(kind, param)
        assert type(caught.value) is error

    def test_parameter_is_stored_in_one_form(self):
        # the degree stays a Python int: (1 + gram) ** degree is an integer power
        for spec, param in [(KernelSpec.polynomial(np.int64(2)), 2), (KernelSpec.gaussian(1), 1.0),
                            (KernelSpec.gaussian(np.float32(0.5)), 0.5), (KernelSpec.linear(), None)]:
            assert spec.param == param and type(spec.param) is type(param)
        assert KernelSpec.polynomial(np.int64(2)) == KernelSpec.polynomial(2)


class TestSparsify:
    def test_keep_all(self):
        ds = Dataset(rng_for(4).standard_normal((15, 3)))
        K = build_kernel(ds, KernelSpec.gaussian(0.4))
        S = sparsify(K, 1.0)
        assert np.array_equal(S.to_dense().a, K.a)

    def test_diag_dominant_keeps_diagonal(self):
        n = 10
        a = 0.01 * np.ones((n, n))
        np.fill_diagonal(a, 1.0)
        K = sparsify(SymmetricDense(a), n / (n * (n + 1) / 2))
        assert np.array_equal(K.to_dense().a, np.eye(n))

    def test_count_matches_formula(self):
        n = 30
        ds = Dataset(rng_for(5).standard_normal((n, 4)))
        K = build_kernel(ds, KernelSpec.gaussian(0.3))
        S = sparsify(K, 0.1)
        kept = int(np.ceil(0.1 * (n * (n + 1) / 2)))
        diag_kept = int(np.count_nonzero(S.rows == S.cols))
        assert S.nnz == 2 * kept - diag_kept

    def test_invalid_fraction(self):
        K = build_kernel(Dataset(np.eye(3)), KernelSpec.linear())
        with pytest.raises(ValueError):
            sparsify(K, 0.0)


def _sparsify_by_stable_sort(K: SymmetricDense, keep_fraction: float) -> SparseSymmetric:
    """Reference: a stable descending sort of all upper-triangle magnitudes."""
    iu = np.triu_indices(K.n)
    vals = K.a[iu]
    count = int(np.ceil(keep_fraction * vals.size))
    order = np.argsort(-np.abs(vals), kind="stable")[:count]
    return SparseSymmetric(K.n, iu[0][order], iu[1][order], vals[order])


def _assert_same_triplets(S, R):
    assert S.n == R.n
    for name in ("rows", "cols", "vals"):
        a, b = getattr(S, name), getattr(R, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestSparsifyMatchesStableSort:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 14), st.integers(0, 10_000), st.floats(1e-3, 1.0),
           st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0]), min_size=1, max_size=4))
    def test_few_distinct_values(self, n, seed, fraction, levels):
        # with a handful of magnitudes the cut almost always lands inside a tie run
        a = rng_for(seed).choice(levels, size=(n, n))
        K = SymmetricDense(np.triu(a) + np.triu(a, 1).T)
        _assert_same_triplets(sparsify(K, fraction), _sparsify_by_stable_sort(K, fraction))

    def test_keep_all(self):
        a = rng_for(7).choice([0.0, 1.0, -1.0, 3.0], size=(20, 20))
        K = SymmetricDense(np.triu(a) + np.triu(a, 1).T)
        _assert_same_triplets(sparsify(K, 1.0), _sparsify_by_stable_sort(K, 1.0))

    @pytest.mark.parametrize("run_end", [5, 11])
    def test_count_ends_at_end_of_tie_run(self, run_end):
        # 55 upper entries: 5 of magnitude 3, then 6 of magnitude 2, then ones
        n = 10
        iu = np.triu_indices(n)
        vals = np.ones(iu[0].size)
        picked = rng_for(8).permutation(iu[0].size)
        vals[picked[:5]] = -3.0
        vals[picked[5:11]] = 2.0
        a = np.zeros((n, n))
        a[iu] = vals
        K = SymmetricDense(np.triu(a) + np.triu(a, 1).T)
        fraction = run_end / iu[0].size
        assert int(np.ceil(fraction * iu[0].size)) == run_end
        S = sparsify(K, fraction)
        _assert_same_triplets(S, _sparsify_by_stable_sort(K, fraction))
        assert S.vals.size == run_end


def _spec(kind, gamma, degree):
    """The KernelSpec of ``kind`` with the one parameter that kind takes."""
    return KernelSpec(kind, {"gaussian": gamma, "polynomial": degree}.get(kind))


def _build_kernel_out_of_place(ds: Dataset, spec: KernelSpec) -> SymmetricDense:
    """build_kernel as it was before the Gaussian kernel was computed in place,
    verbatim: the oracle that the in-place body must match bit for bit."""
    x = ds.samples
    if spec.kind == "gaussian":
        sq = np.einsum("ij,ij->i", x, x)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        np.clip(d2, 0.0, None, out=d2)
        np.fill_diagonal(d2, 0.0)
        K = np.exp(-spec.param * d2)
        return SymmetricDense(K, symmetrize=True)
    with np.errstate(over="ignore"):
        gram = x @ x.T
        if spec.kind == "linear":
            K = gram
        else:
            K = (1.0 + gram) ** spec.param
    bad = ~np.isfinite(K)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise KernelOverflowError(f"{spec.kind} kernel overflow at sample pair ({i}, {j})")
    return SymmetricDense(K, symmetrize=True)


def _sparsify_by_triu_indices(K: SymmetricDense, keep_fraction: float) -> SparseSymmetric:
    """sparsify as it was before it gathered the upper triangle row by row,
    verbatim: the oracle that the row-wise body must match bit for bit."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must lie in (0, 1]")
    n = K.n
    iu = np.triu_indices(n)
    vals = K.a[iu]
    count = int(np.ceil(keep_fraction * vals.size))
    mag = np.abs(vals)
    cut = np.partition(mag, vals.size - count)[vals.size - count]
    keep = mag > cut
    tied = np.flatnonzero(mag == cut)
    keep[tied[:count - np.count_nonzero(keep)]] = True
    return SparseSymmetric(n, iu[0][keep], iu[1][keep], vals[keep])


# sizes around the 128-row tiles of the symmetric average
_TILE_EDGE_N = st.one_of(st.integers(1, 40), st.sampled_from([127, 128, 129, 255, 256, 257, 300]))


class TestInPlaceKernelMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(_TILE_EDGE_N, st.integers(1, 6), st.floats(1e-3, 10.0), st.integers(0, 10_000),
           st.integers(0, 3), st.sampled_from(["gaussian", "polynomial", "linear"]))
    def test_build_kernel(self, n, d, gamma, seed, repeats, kind):
        x = rng_for(seed).standard_normal((n, d))
        # repeated rows tie kernel entries, zero distances among them
        x[:min(repeats, n)] = x[0]
        spec = _spec(kind, gamma, 1 + seed % 3)
        got, want = build_kernel(Dataset(x), spec), _build_kernel_out_of_place(Dataset(x), spec)
        assert got.a.dtype == want.a.dtype and np.array_equal(got.a, want.a)
        assert not got.a.flags.writeable and got.a.flags.c_contiguous

    @settings(max_examples=40, deadline=None)
    @given(_TILE_EDGE_N, st.integers(0, 10_000), st.floats(1e-3, 1.0), st.booleans())
    def test_sparsify(self, n, seed, fraction, tied):
        rng = rng_for(seed)
        if tied:
            # a handful of magnitudes of both signs: the cut lands in a tie run
            a = rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0], size=(n, n))
            K = SymmetricDense(np.triu(a) + np.triu(a, 1).T)
        else:
            K = build_kernel(Dataset(rng.standard_normal((n, 3))), KernelSpec.gaussian(0.5))
        _assert_same_triplets(sparsify(K, fraction), _sparsify_by_triu_indices(K, fraction))

    def test_trial_kernel(self):
        # the kernel of the sparse experiment at n = 1000, keep = 0.1
        ds = standardize(gen_clustered_dataset(n=1000, seed=5))
        K = build_kernel(ds, KernelSpec.gaussian(0.1))
        assert np.array_equal(K.a, _build_kernel_out_of_place(ds, KernelSpec.gaussian(0.1)).a)
        _assert_same_triplets(sparsify(K, 0.1), _sparsify_by_triu_indices(K, 0.1))

    def test_peaks(self):
        # one Gram and one work array for the kernel; one magnitude array and
        # its partitioned copy for sparsify
        n = 600
        ds = standardize(gen_clustered_dataset(n=n, dim=20, seed=6))

        def peak(call):
            tracemalloc.start()
            try:
                out = call()
                return out, tracemalloc.get_traced_memory()[1] / (8.0 * n * n)
            finally:
                tracemalloc.stop()

        K, kernel_peak = peak(lambda: build_kernel(ds, KernelSpec.gaussian(0.1)))
        _, sparsify_peak = peak(lambda: sparsify(K, 0.1))
        assert kernel_peak <= 2.1 and sparsify_peak <= 1.6


def _build_kernel_whole_gram(ds: Dataset, spec: KernelSpec) -> SymmetricDense:
    """build_kernel as it was before it evaluated its entries as one slab,
    verbatim: the oracle that the slab body must match bit for bit."""
    x = ds.samples
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x @ x.T
        if spec.kind == "gaussian":
            sq = np.einsum("ij,ij->i", x, x)
            gram *= 2.0
            K = sq[:, None] + sq[None, :]
            K -= gram
            del gram  # the kernel is the only n x n array from here on
            np.clip(K, 0.0, None, out=K)
            np.fill_diagonal(K, 0.0)
            K *= -spec.param
            np.exp(K, out=K)
        elif spec.kind == "linear":
            K = gram
        else:
            K = (1.0 + gram) ** spec.param
    bad = ~np.isfinite(K)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise KernelOverflowError(f"{spec.kind} kernel overflow at sample pair ({i}, {j})")
    return SymmetricDense._adopt(_average_transpose(K, K))


def _sparsify_by_magnitude_rows(K: SymmetricDense, keep_fraction: float) -> SparseSymmetric:
    """sparsify as it was before it shared its selection with
    build_sparse_kernel, verbatim: the oracle of both."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must lie in (0, 1]")
    n = K.n
    # flat offset of each row's diagonal entry in the row-major upper triangle
    starts = np.concatenate(([0], np.cumsum(np.arange(n, 0, -1))))
    mag = np.empty(starts[-1])
    for i in range(n):
        np.abs(K.a[i, i:], out=mag[starts[i]:starts[i + 1]])
    count = int(np.ceil(keep_fraction * mag.size))
    cut = np.partition(mag, mag.size - count)[mag.size - count]
    keep = mag > cut
    tied = np.flatnonzero(mag == cut)
    keep[tied[:count - np.count_nonzero(keep)]] = True
    flat = np.flatnonzero(keep)
    rows = np.searchsorted(starts, flat, side="right") - 1
    cols = flat - starts[rows] + rows
    return SparseSymmetric(n, rows, cols, K.a[rows, cols])


def _kernel_from_slabs(ds: Dataset, spec: KernelSpec) -> SymmetricDense:
    """The dense kernel whose upper triangle is the builder's slabs, mirrored."""
    n, h = ds.n, kernels._SLAB_ROWS
    slab, a = kernels._slab_evaluator(ds, spec), np.zeros((n, n))
    for lo in range(0, n, h):
        a[lo:lo + h, lo:] = slab(lo, min(lo + h, n))
    return SymmetricDense(np.triu(a) + np.triu(a, 1).T)


_H = kernels._SLAB_ROWS
# sizes around the slab edges
_SLAB_EDGE_N = st.one_of(st.integers(1, 400), st.sampled_from([_H - 1, _H, _H + 1, 2 * _H + 1]))


class TestSparseKernelBuilder:
    """build_sparse_kernel against sparsify(build_kernel(.)), kept verbatim
    above: the same kept pairs and values to rounding, and bit for bit the
    shared selection of the dense kernel its own slabs make."""

    @settings(max_examples=60, deadline=None)
    @given(_SLAB_EDGE_N, st.sampled_from([1, 3, 81]), st.sampled_from(["gaussian", "polynomial", "linear"]),
           st.floats(1e-3, 1.0, exclude_min=True), st.integers(0, 3), st.integers(0, 10_000))
    def test_matches_dense_oracle(self, n, d, kind, fraction, repeats, seed):
        rng = rng_for(seed)
        x = rng.standard_normal((n, d))
        # duplicated samples tie kernel entries exactly
        x[:min(repeats, n)] = x[-1]
        ds, spec = Dataset(x), _spec(kind, 1.0 / d, 1 + seed % 3)
        got = build_sparse_kernel(ds, spec, fraction)
        want = _sparsify_by_magnitude_rows(_build_kernel_whole_gram(ds, spec), fraction)
        # values agree to 1e-13 relative to the largest; (1 + x_i . x_j) ** p
        # near zero is cancellation, so an entry's own relative error is no bound
        tol = 1e-13 * np.max(np.abs(want.vals))
        # the whole-Gram syrk may round two products of duplicated samples
        # apart where a slab's gemm ties them, or the other way: then a pair
        # whose magnitude equals the cut to rounding is kept on one side only
        got_key, want_key = got.rows * n + got.cols, want.rows * n + want.cols
        both, in_want = np.isin(got_key, want_key), np.isin(want_key, got_key)
        assert got_key.size == want_key.size
        cut = np.min(np.abs(want.vals))
        assert np.all(np.abs(np.abs(got.vals[~both]) - cut) <= tol)
        assert np.all(np.abs(np.abs(want.vals[~in_want]) - cut) <= tol)
        assert np.all(np.abs(got.vals[both] - want.vals[in_want]) <= tol)
        _assert_same_triplets(got, sparsify(_kernel_from_slabs(ds, spec), fraction))

    @settings(max_examples=30, deadline=None)
    @given(_SLAB_EDGE_N, st.sampled_from([1, 3, 81]), st.sampled_from(["gaussian", "polynomial", "linear"]),
           st.integers(0, 10_000))
    def test_build_kernel_is_bit_for_bit(self, n, d, kind, seed):
        ds = Dataset(rng_for(seed).standard_normal((n, d)))
        spec = _spec(kind, 1.0 / d, 1 + seed % 3)
        assert np.array_equal(build_kernel(ds, spec).a, _build_kernel_whole_gram(ds, spec).a)

    @pytest.mark.parametrize("n", [50, 1000])
    def test_trial_kernel_is_bit_for_bit(self, n):
        # the kernel of the sparse experiment, keep = 0.1, at the slab height
        ds = standardize(gen_clustered_dataset(n=n, seed=5))
        spec = KernelSpec.gaussian(0.1)
        _assert_same_triplets(build_sparse_kernel(ds, spec, 0.1),
                              _sparsify_by_magnitude_rows(_build_kernel_whole_gram(ds, spec), 0.1))

    @pytest.mark.parametrize("kind, pair", [
        # rows 200 and 300 overflow their squared norms: their distance is
        # inf - inf, not a number
        ("gaussian", (200, 300)),
        # (1 + x_i . x_j) ** 3 overflows first at row 140, in the second slab,
        # paired with itself: the rows before it are zero
        ("polynomial", (140, 140)),
    ])
    def test_overflow_names_the_first_pair(self, kind, pair):
        samples = rng_for(9).standard_normal((400, 3))
        if kind == "gaussian":
            samples[[200, 300]] = [1e200, 0.0, 0.0]
        else:
            samples[:140] = 0.0
            samples[140:142] = 1e120
        ds, spec = Dataset(samples), _spec(kind, 0.5, 3)
        with pytest.raises(KernelOverflowError) as want:
            _build_kernel_whole_gram(ds, spec)
        for build in (lambda: build_kernel(ds, spec), lambda: build_sparse_kernel(ds, spec, 0.1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(KernelOverflowError) as got:
                    build()
            assert str(got.value) == str(want.value) == f"{kind} kernel overflow at sample pair {pair}"

    def test_invalid_fraction_before_any_slab(self, monkeypatch):
        # a slab drawn would call None and raise TypeError
        monkeypatch.setattr(kernels, "_slab_evaluator", lambda ds, spec: None)
        for fraction in (0.0, -0.5, 1.5, float("nan")):
            with pytest.raises(ValueError, match="keep_fraction"):
                build_sparse_kernel(Dataset(np.eye(3)), KernelSpec.linear(), fraction)

    def test_peak_below_one_square(self):
        # the row-major upper triangle and the magnitude copy the selection
        # partitions, about n^2 doubles, where sparsify(build_kernel(.)) peaks
        # at 2.0
        n = 1000
        ds = standardize(gen_clustered_dataset(n=n, seed=6))
        tracemalloc.start()
        try:
            build_sparse_kernel(ds, KernelSpec.gaussian(0.1), 0.1)
            peak = tracemalloc.get_traced_memory()[1] / (8.0 * n * n)
        finally:
            tracemalloc.stop()
        assert peak < 1.1


class TestGaussianOverflow:
    def test_typed_error_names_first_pair_without_warnings(self):
        # rows 1 and 2 overflow their squared norms: their distance is
        # inf - inf, not a number, while row 0 lies infinitely far from both
        ds = Dataset(np.array([[0.0, 1.0], [1e200, 0.0], [1e200, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelOverflowError, match=r"gaussian kernel overflow at sample pair \(1, 2\)"):
                build_kernel(ds, KernelSpec.gaussian(0.5))

    def test_overflowing_distance_is_a_zero_entry(self):
        # |x_i - x_j|^2 overflows to inf, so the entry is exp(-inf) = 0, as
        # the out-of-place formula gives it
        ds = Dataset(np.array([[1e154], [-1e154], [0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = build_kernel(ds, KernelSpec.gaussian(0.5))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(K.a, _build_kernel_out_of_place(ds, KernelSpec.gaussian(0.5)).a)


class TestAverageOverflow:
    """An entry above DBL_MAX / 2 overflows the symmetric average of
    ``build_kernel`` although the kernel itself is finite."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("samples, pair", [
        ([[1.0], [9.5e153]], (1, 1)),
        # rows 2 and 3 overflow, and so does their pair (2, 3); row 2's own
        # entry comes first in row-major order
        ([[1.0], [2.0], [9.5e153], [-9.5e153]], (2, 2)),
    ])
    def test_typed_error_names_the_first_pair(self, samples, pair):
        ds = Dataset(np.array(samples))
        with pytest.raises(KernelOverflowError, match=rf"linear kernel overflow at sample pair \({pair[0]}, {pair[1]}\)"):
            build_kernel(ds, KernelSpec.linear())
        # the sparse builder does not average, and keeps the finite entry
        S = build_sparse_kernel(ds, KernelSpec.linear(), 1.0)
        assert np.isfinite(S.vals).all() and S.vals.max() == 9.5e153 ** 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_entry_just_below_the_limit_keeps_its_bits(self):
        ds = Dataset(np.array([[1.0], [9.4e153], [-3.0]]))
        K = build_kernel(ds, KernelSpec.linear())
        with np.errstate(over="ignore"):
            assert np.array_equal(K.a, _build_kernel_whole_gram(ds, KernelSpec.linear()).a)
        assert K.a[1, 1] == 9.4e153 ** 2


def _gen_band_matrix_reference(n: int, seed: int = 0) -> SparseSymmetric:
    """gen_band_matrix in its dense form: one draw and one power over all
    n(n - 1)/2 pairs.  The block-wise generator must reproduce it bit for bit."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = rng_for(seed)
    iu = np.triu_indices(n, k=1)
    x = rng.uniform(size=iu[0].size)
    expo = (iu[1] - iu[0]).astype(float) / BAND_DECAY
    with np.errstate(under="ignore"):
        vals = x ** expo
    keep = vals >= BAND_CUTOFF
    rows = np.concatenate([np.arange(n), iu[0][keep]])
    cols = np.concatenate([np.arange(n), iu[1][keep]])
    vals = np.concatenate([np.ones(n), vals[keep]])
    return SparseSymmetric(n, rows, cols, vals)


class TestBandGenerator:
    def test_diagonal_is_one(self):
        B = gen_band_matrix(50, seed=6)
        full = B.to_dense().a
        assert np.all(np.diag(full) == 1.0)

    def test_cutoff_respected(self):
        B = gen_band_matrix(80, seed=7)
        assert np.min(np.abs(B.vals)) >= 1e-10

    def test_band_concentration(self):
        n = 500
        B = gen_band_matrix(n, seed=8)
        dist = (B.cols - B.rows).astype(int)
        assert dist.max() > n // 2  # rare large-X draws do survive far out
        # density decays with distance: near-diagonal diagonals are dense,
        # far diagonals carry isolated survivors
        near_density = np.count_nonzero(dist <= 10) / 10
        far_density = np.count_nonzero(dist > n // 2) / (n / 2)
        assert near_density > 50 * max(far_density, 1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 12345, derive_seed(0, 10, 0)])
    @pytest.mark.parametrize("n", [2, 3, 17, 300, 2000])
    def test_matches_dense_reference(self, monkeypatch, n, seed):
        expected = _gen_band_matrix_reference(n, seed)
        _assert_same_triplets(gen_band_matrix(n, seed), expected)
        # one row per block, and at 7 the last short rows share blocks
        for block in (1, 7):
            monkeypatch.setattr(kernels, "_BAND_BLOCK", block)
            _assert_same_triplets(gen_band_matrix(n, seed), expected)

    def test_band_experiment_rows_unchanged(self, monkeypatch):
        args = dict(n=300, m=4, trials=2, seed=11)
        rows = run_band_experiment(**args)
        monkeypatch.setattr(experiments, "gen_band_matrix", _gen_band_matrix_reference)
        assert run_band_experiment(**args) == rows

    def test_memory_stays_below_dense_pair_arrays(self):
        # the dense form holds index, draw and power arrays over all
        # n(n - 1)/2 pairs: a peak of about 180 MB at n = 3000
        tracemalloc.start()
        try:
            gen_band_matrix(3000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6

    def test_seed_determinism(self):
        B1 = gen_band_matrix(60, seed=9)
        B2 = gen_band_matrix(60, seed=9)
        assert np.array_equal(B1.vals, B2.vals)
        assert np.array_equal(B1.rows, B2.rows)


class TestSpectrumGenerators:
    def test_unit_norm(self):
        A = gen_unit_random_symmetric(64, seed=10)
        assert spectral_norm(A) == pytest.approx(1.0, abs=1e-8)

    def test_rank_m_exact_rank(self):
        A = gen_rank_m_spectrum(40, 6, tail_value=0.0, seed=11)
        vals = sym_eig_full(A).values
        assert np.all(np.abs(vals[6:]) <= 1e-12)

    def test_rank_m_tail_value_recovered(self):
        A = gen_rank_m_spectrum(50, 5, tail_value=0.3, seed=12)
        vals = sym_eig_full(A).values
        assert np.max(np.abs(vals[5:] - 0.3)) <= 1e-10
        assert np.all(vals[:5] >= 1.0 - 1e-12) and np.all(vals[:5] <= 2.0 + 1e-12)

    def test_same_seed_shares_leading_structure(self):
        A1 = gen_rank_m_spectrum(30, 4, tail_value=0.1, seed=13)
        A2 = gen_rank_m_spectrum(30, 4, tail_value=0.2, seed=13)
        v1 = sym_eig_full(A1)
        v2 = sym_eig_full(A2)
        assert np.max(np.abs(v1.values[:4] - v2.values[:4])) <= 1e-10

    def test_slow_decay_spectrum(self):
        K = gen_slow_decay(100, seed=14)
        vals = sym_eig_full(K).values
        assert np.max(np.abs(vals - 1.0 / np.arange(1, 101))) <= 1e-10

    def test_generator_determinism(self):
        A1 = gen_unit_random_symmetric(20, seed=15)
        A2 = gen_unit_random_symmetric(20, seed=15)
        assert np.array_equal(A1.a, A2.a)


class TestClusteredDataset:
    def test_shape_and_determinism(self):
        ds1 = gen_clustered_dataset(n=200, dim=20, seed=16)
        ds2 = gen_clustered_dataset(n=200, dim=20, seed=16)
        assert ds1.samples.shape == (200, 20)
        assert np.array_equal(ds1.samples, ds2.samples)

    def test_cluster_structure_survives_kernel(self):
        ds = standardize(gen_clustered_dataset(n=300, dim=81, seed=17))
        K = build_kernel(ds, KernelSpec.gaussian(0.1))
        off_diag = K.a[~np.eye(300, dtype=bool)]
        # bimodal: strong within-cluster entries, negligible between-cluster
        assert np.count_nonzero(off_diag > 0.5) > 1000
        assert np.median(off_diag) < 1e-3
