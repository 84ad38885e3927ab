import tracemalloc

import numpy as np
import pytest

from perturbext.extension import ExtensionConfig, Selector, block_extend, kernel_approx, pert_extend
from perturbext.kernels import (
    Dataset,
    KernelSpec,
    build_kernel,
    gen_slow_decay,
    gen_wishart_psd,
    rng_for,
    standardize,
)
from perturbext import extension, matrixcore
from perturbext.matrixcore import (
    DENSE_FALLBACK_N,
    EigengapError,
    SparseSymmetric,
    SymmetricDense,
    canonical_signs,
    principal_angle,
    spectral_norm,
    sym_eig_full,
    sym_eig_partial,
)
from perturbext.nystrom import (
    SingularSampleError,
    check_shifted_equivalence,
    check_topleft_equivalence,
    ensemble_nystrom,
    generalized_nystrom,
    nystrom_extend,
    shift_mu_mean,
    shifted_nystrom,
)


class TestClassical:
    def test_diagonal_kernel(self):
        n, k = 8, 3
        d = np.array([8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
        vals, vecs = nystrom_extend(SymmetricDense(np.diag(d)), k)
        assert np.allclose(vals, (n / k) * d[:k])
        expected = np.sqrt(k / n) * np.eye(n)[:, :k]
        assert np.max(np.abs(np.abs(vecs) - expected)) <= 1e-14

    def test_full_sample_exact(self):
        n = 20
        K = gen_wishart_psd(n, seed=1)
        vals, vecs = nystrom_extend(K, n)
        exact = sym_eig_full(K)
        assert np.max(np.abs(vals - exact.values)) <= 1e-10
        assert principal_angle(vecs, exact.vectors) <= 1e-8

    def test_matches_scaled_perturbation_extension(self):
        n, k = 200, 20
        K = gen_wishart_psd(n, seed=2)
        vals, vecs = nystrom_extend(K, k)
        res = pert_extend(K, Selector.top_left(k), ExtensionConfig(m=k))
        ref = np.sqrt(k / n) * res.vectors
        for i in range(k):
            v = vecs[:, i] if np.dot(vecs[:, i], ref[:, i]) >= 0 else -vecs[:, i]
            assert np.max(np.abs(v - ref[:, i])) <= 1e-10
        assert np.max(np.abs(vals - (n / k) * res.values)) <= 1e-10 * spectral_norm(K)

    def test_singular_sample_rejected(self):
        a = np.zeros((6, 6))
        a[3:, 3:] = np.eye(3)
        with pytest.raises(SingularSampleError):
            nystrom_extend(SymmetricDense(a), 2)

    def test_small_but_regular_sample_accepted(self):
        # the guard is relative to the sampled block, not to ||K||: a
        # well-conditioned block far below the scale of K is not singular
        d = np.array([2e-14, 1e-14, 1e3, 5e2, 1.0, 0.5])
        vals, vecs = nystrom_extend(SymmetricDense(np.diag(d)), 2)
        assert np.allclose(vals, 3.0 * d[:2], rtol=1e-12, atol=0.0)
        assert np.max(np.abs(np.abs(vecs) - np.sqrt(2 / 6) * np.eye(6)[:, :2])) <= 1e-14


def _full_eigh_pairs(K, k, cols):
    """Reference sampled pairs from a full dense eigh of the block."""
    n, l = K.n, len(cols)
    C = np.ascontiguousarray(K.to_dense().a[:, cols])
    w, v = np.linalg.eigh(C[cols])
    order = np.argsort(-w, kind="stable")[:k]
    lam, U = w[order], canonical_signs(v[:, order])
    return (n / l) * lam, np.sqrt(l / n) * (C @ U) / lam[None, :]


def _refuse_full_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("full eigensolve of the sampled block")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(matrixcore, "sym_eig_full", refuse)


class TestPartialBlockSolve:
    """Above DENSE_FALLBACK_N the sampled block goes to Lanczos, never to a
    full eigensolve; a sparse K's block is sliced from its CSR."""

    n, k, l = 420, 4, 300

    def kernels(self):
        x = rng_for(31).standard_normal((self.n, 2))
        K = build_kernel(standardize(Dataset(x)), KernelSpec.gaussian(0.5))
        D = SymmetricDense(np.where(K.a > 1e-3, K.a, 0.0))
        return K, SparseSymmetric(D.n, *D.triplets())

    def test_generalized_matches_full_eigh(self, monkeypatch):
        assert self.l > DENSE_FALLBACK_N
        cols = np.arange(self.l)
        for K in self.kernels():
            ref_vals, ref_vecs = _full_eigh_pairs(K, self.k, cols)
            with monkeypatch.context() as mp:
                _refuse_full_eigensolve(mp)
                if isinstance(K, SparseSymmetric):
                    mp.setattr(SparseSymmetric, "to_dense", lambda self: pytest.fail("densified"))
                vals, vecs = generalized_nystrom(K, self.k, self.l)
            np.testing.assert_allclose(vals, ref_vals, rtol=1e-10)
            np.testing.assert_allclose(vecs, ref_vecs, rtol=1e-10,
                                       atol=1e-10 * np.abs(ref_vecs).max())

    def test_ensemble_matches_full_eigh(self, monkeypatch):
        subsets = [np.sort(rng_for(s).choice(self.n, size=self.l, replace=False)) for s in (32, 33)]
        for K in self.kernels():
            ref = np.zeros((self.n, self.n))
            for subset in subsets:
                vals, vecs = _full_eigh_pairs(K, self.k, subset)
                ref += 0.5 * (vecs * vals[None, :]) @ vecs.T
            with monkeypatch.context() as mp:
                _refuse_full_eigensolve(mp)
                approx = ensemble_nystrom(K, self.k, subsets)
            np.testing.assert_allclose(approx.a, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())

    @pytest.mark.parametrize("l", [6, 300])
    def test_guard_scales_with_largest_magnitude(self, l):
        # an indefinite block whose most negative eigenvalue outweighs the
        # largest: lambda_2 = 1e-10 is singular against |lambda_min| = 1e3
        # though not against lambda_1 = 1, while 1e-8 is small but regular
        n = 400
        rest = -np.linspace(1.0, 2.0, n - 3)
        for small, singular in ((1e-10, True), (1e-8, False)):
            d = np.concatenate([[1.0, small, -1e3], rest])
            for K in (SymmetricDense(np.diag(d)), SparseSymmetric(n, np.arange(n), np.arange(n), d)):
                if singular:
                    with pytest.raises(SingularSampleError):
                        generalized_nystrom(K, 2, l)
                else:
                    vals, _ = generalized_nystrom(K, 2, l)
                    np.testing.assert_allclose(vals, (n / l) * d[:2], rtol=1e-6)

    def test_zero_block_is_singular_above_fallback(self):
        n = 400
        d = np.concatenate([np.zeros(300), np.ones(n - 300)])
        for K in (SymmetricDense(np.diag(d)), SparseSymmetric(n, np.arange(n), np.arange(n), d)):
            with pytest.raises(SingularSampleError):
                generalized_nystrom(K, 3, 300)

    def test_tied_pair_raises_eigengap(self):
        # pairs k = 3 and k + 1 tie; the Lanczos path reports the tie as a
        # typed error instead of dividing through an arbitrary split
        n, l, k = 400, 300, 3
        d = np.concatenate([[5.0, 4.0, 3.0, 3.0], np.linspace(2.0, 1.0, n - 4)])
        for K in (SymmetricDense(np.diag(d)), SparseSymmetric(n, np.arange(n), np.arange(n), d)):
            with pytest.raises(EigengapError):
                generalized_nystrom(K, k, l)
            with pytest.raises(EigengapError):
                ensemble_nystrom(K, k, [np.arange(l)])


class TestGeneralized:
    def test_l_equals_k_reduces_to_classical(self):
        K = gen_wishart_psd(30, seed=3)
        v1, u1 = nystrom_extend(K, 5)
        v2, u2 = generalized_nystrom(K, 5, 5)
        assert np.array_equal(v1, v2)
        assert np.array_equal(u1, u2)

    def test_l_equals_n_exact(self):
        n = 25
        K = gen_wishart_psd(n, seed=4)
        vals, vecs = generalized_nystrom(K, 6, n)
        exact = sym_eig_full(K)
        assert principal_angle(vecs, exact.vectors[:, :6]) <= 1e-8
        assert np.max(np.abs(vals - exact.values[:6])) <= 1e-10

    def test_error_nonincreasing_in_l_median(self):
        # Gaussian kernels of random points: a larger sample never hurts
        n, k = 60, 5
        l_grid = (5, 10, 20, 40, 60)
        angles = {l: [] for l in l_grid}
        for trial in range(20):
            ds = standardize(Dataset(rng_for(100 + trial).standard_normal((n, 3))))
            K = build_kernel(ds, KernelSpec.gaussian(0.5))
            exact = sym_eig_full(K).vectors[:, :k]
            for l in l_grid:
                _, vecs = generalized_nystrom(K, k, l)
                angles[l].append(principal_angle(vecs, exact))
        medians = [np.median(angles[l]) for l in l_grid]
        assert all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))

    def test_sparse_kernel_matches_dense(self):
        # a sparse K is read through its CSR, never densified: the block
        # solve gives the same values bit for bit, and the sampled columns'
        # product, a GEMM for a dense K and a CSR product for a sparse one,
        # agrees to round-off
        K = gen_wishart_psd(300, seed=27)
        S = SparseSymmetric(K.n, *K.triplets())
        subsets = [np.sort(rng_for(s).choice(300, size=30, replace=False)) for s in (28, 29)]
        for run in (lambda A: generalized_nystrom(A, 5, 40), lambda A: shifted_nystrom(A, 5, 0.5)):
            (dense_vals, dense_vecs), (sparse_vals, sparse_vecs) = run(K), run(S)
            assert np.array_equal(dense_vals, sparse_vals)
            assert np.max(np.abs(dense_vecs - sparse_vecs)) <= 1e-13 * np.abs(dense_vecs).max()
        dense, sparse = ensemble_nystrom(K, 5, subsets).a, ensemble_nystrom(S, 5, subsets).a
        assert np.max(np.abs(dense - sparse)) <= 1e-13 * np.abs(dense).max()

    def test_invalid_sizes(self):
        K = gen_wishart_psd(10, seed=5)
        with pytest.raises(ValueError):
            generalized_nystrom(K, 5, 3)
        with pytest.raises(ValueError):
            generalized_nystrom(K, 2, 11)


class TestShifted:
    def test_mu_zero_identical_to_classical(self):
        K = gen_wishart_psd(30, seed=6)
        v1, u1 = nystrom_extend(K, 5)
        v2, u2 = shifted_nystrom(K, 5, 0.0)
        assert np.max(np.abs(v1 - v2)) <= 1e-14
        assert np.max(np.abs(u1 - u2)) <= 1e-14

    def test_equals_perturbation_extension_with_same_mu(self):
        n, k = 80, 8
        K = gen_wishart_psd(n, seed=7)
        mu = shift_mu_mean(K, k)
        rep = check_shifted_equivalence(K, k, mu, tolerance=1e-10)
        assert rep["passed"], rep

    def test_default_mu_is_tail_mean(self):
        K = gen_wishart_psd(12, seed=8)
        full = sym_eig_full(K)
        expected = np.mean(full.values[4:])
        assert shift_mu_mean(K, 4) == pytest.approx(expected, abs=1e-12)

    def test_default_mu_call_equals_explicit_tail_mean(self):
        K = build_kernel(standardize(Dataset(rng_for(10).standard_normal((60, 4)))),
                         KernelSpec.gaussian(0.5))
        v_default, u_default = shifted_nystrom(K, 5)
        v_mean, u_mean = shifted_nystrom(K, 5, shift_mu_mean(K, 5))
        assert np.array_equal(v_default, v_mean)
        assert np.array_equal(u_default, u_mean)

    def test_tail_mean_without_full_eigensolve(self, monkeypatch):
        # above the fallback size only the k largest values are computed
        K = gen_wishart_psd(300, seed=30)
        full = sym_eig_full(K)
        expected = np.mean(full.values[6:])

        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve for the tail mean")

        monkeypatch.setattr(matrixcore, "sym_eig_full", refuse)
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for A in (K, SparseSymmetric(K.n, *K.triplets())):
            assert shift_mu_mean(A, 6) == pytest.approx(expected, rel=1e-12)

    def test_frobenius_improvement_on_slow_decay(self):
        for trial in range(20):
            K = gen_slow_decay(150, seed=500 + trial)
            k = 10
            mu = shift_mu_mean(K, k)
            vp, up = nystrom_extend(K, k)
            err_plain = np.linalg.norm(K.a - kernel_approx(vp, up).a)
            vs, us = shifted_nystrom(K, k, mu)
            err_shift = np.linalg.norm(K.a - kernel_approx(vs, us).a)
            assert err_shift <= err_plain

    def test_near_eigenvalue_mu_guarded(self):
        K = gen_wishart_psd(30, seed=9)
        full = sym_eig_full(SymmetricDense(np.array(K.a[:5, :5]), symmetrize=True))
        with pytest.raises((SingularSampleError, ValueError)):
            shifted_nystrom(K, 5, float(full.values[0]))


class TestEnsemble:
    def test_single_member_is_plain_nystrom(self):
        n, k = 24, 4
        K = gen_wishart_psd(n, seed=10)
        approx = ensemble_nystrom(K, k, [np.arange(n)])
        vals, vecs = generalized_nystrom(K, k, n)
        expected = kernel_approx(vals, vecs)
        assert np.max(np.abs(approx.a - expected.a)) <= 1e-12

    def test_identical_subsets_collapse(self):
        n, k = 20, 3
        K = gen_wishart_psd(n, seed=11)
        subset = np.arange(5)
        single = ensemble_nystrom(K, k, [subset])
        repeated = ensemble_nystrom(K, k, [subset, subset, subset])
        assert np.max(np.abs(single.a - repeated.a)) <= 1e-12

    def test_uniform_weights_match_member_mean(self):
        n, k, q = 32, 4, 4
        K = gen_wishart_psd(n, seed=12)
        rng = rng_for(13)
        subsets = [np.sort(rng.choice(n, size=8, replace=False)) for _ in range(q)]
        approx = ensemble_nystrom(K, k, subsets)
        members = []
        for subset in subsets:
            rest = np.setdiff1d(np.arange(n), subset)
            perm = np.concatenate([subset, rest])
            P = SymmetricDense(K.a[np.ix_(perm, perm)])
            vals, vecs = generalized_nystrom(P, k, subset.size)
            member = (vecs * vals[None, :]) @ vecs.T
            inv = np.empty(n, dtype=np.int64)
            inv[perm] = np.arange(n)
            members.append(member[np.ix_(inv, inv)])
        expected = np.mean(members, axis=0)
        assert np.max(np.abs(approx.a - expected)) <= 1e-12

    def test_matches_block_extension_on_partition(self):
        # block-diagonal selection combined by their mean equals the ensemble
        # built from the same index groups
        n, k = 24, 3
        K = gen_wishart_psd(n, seed=14)
        combined = block_extend(K, [12, 12], ExtensionConfig(m=k))
        ens = ensemble_nystrom(K, k, [np.arange(12), np.arange(12, 24)])
        assert np.max(np.abs(combined.a - ens.a)) <= 1e-10


def _sampled_pairs_by_columns(K, k, cols, shift=0.0):
    """Reference: the sampled pairs from the formed columns C = K[:, cols] -
    shift * I[:, cols], the block solved as ``_sampled_pairs`` solves it."""
    n, l = K.n, len(cols)
    C = np.array(K.to_dense().a[:, cols], order="C")
    C[cols, np.arange(l)] -= shift
    shifts = SparseSymmetric(l, np.arange(l), np.arange(l), np.full(l, shift))
    pairs = sym_eig_partial(K.principal_block(cols).minus(shifts), k)
    lam = pairs.values
    return (n / l) * lam + shift, np.sqrt(l / n) * (C @ pairs.vectors) / lam[None, :]


class TestSampledColumnsProduct:
    """The sampled columns are never formed: C u is K.columns_matvec on u
    placed on the sampled rows.  Every variant matches the formed-columns
    reference on dense and sparse K, below and above DENSE_FALLBACK_N."""

    n, k = 420, 4

    @classmethod
    def kernel(cls, sparse):
        x = rng_for(41).standard_normal((cls.n, 3))
        K = build_kernel(standardize(Dataset(x)), KernelSpec.gaussian(0.5))
        D = SymmetricDense(np.where(K.a > 1e-3, K.a, 0.0))
        return SparseSymmetric(D.n, *D.triplets()) if sparse else K

    @pytest.fixture(scope="class", params=[False, True], ids=["dense", "sparse"])
    def K(self, request):
        return self.kernel(request.param)

    def assert_close(self, K, got, want):
        norm = spectral_norm(K)
        assert np.max(np.abs(got[0] - want[0])) <= 1e-13 * norm
        assert principal_angle(got[1], want[1]) <= 1e-12
        assert np.max(np.abs(got[1] - want[1])) <= 1e-12 * np.abs(want[1]).max()

    @pytest.mark.parametrize("l", [40, 300])
    def test_generalized(self, K, l):
        self.assert_close(K, generalized_nystrom(K, self.k, l),
                          _sampled_pairs_by_columns(K, self.k, np.arange(l)))

    def test_classical_and_shifted(self, K):
        cols = np.arange(self.k)
        self.assert_close(K, nystrom_extend(K, self.k), _sampled_pairs_by_columns(K, self.k, cols))
        for mu in (0.25, None):
            shift = shift_mu_mean(K, self.k) if mu is None else mu
            self.assert_close(K, shifted_nystrom(K, self.k, mu),
                              _sampled_pairs_by_columns(K, self.k, cols, shift))

    @pytest.mark.parametrize("sort", [True, False], ids=["sorted", "unsorted"])
    def test_ensemble(self, K, sort):
        subsets = [rng_for(42, j).choice(self.n, size=size, replace=False)
                   for j, size in enumerate((40, 300))]
        subsets = [np.sort(s) if sort else s for s in subsets]
        ref = [_sampled_pairs_by_columns(K, self.k, s) for s in subsets]
        want = 0.5 * sum((v * w[None, :]) @ v.T for w, v in ref)
        got = ensemble_nystrom(K, self.k, subsets).a
        assert np.max(np.abs(got - want)) <= 1e-12 * spectral_norm(K)

    def test_same_whether_or_not_K_has_its_csr(self, monkeypatch):
        K = self.kernel(sparse=True)
        subsets = [np.arange(300), rng_for(43).choice(self.n, size=60, replace=False)]

        def runs(A):
            return [generalized_nystrom(A, self.k, 300), shifted_nystrom(A, self.k, 0.25),
                    (ensemble_nystrom(A, self.k, subsets).a,)]

        cold = runs(SparseSymmetric(K.n, *K.triplets()))
        warm = SparseSymmetric(K.n, *K.triplets())
        warm.matvec(np.ones(K.n))
        builds = []
        build = matrixcore._mirrored_csr
        monkeypatch.setattr(matrixcore, "_mirrored_csr", lambda *a: builds.append(a[0]) or build(*a))
        for a, b in zip(runs(warm), cold):
            for x, y in zip(a, b):
                assert np.array_equal(x, y)
        # with K's CSR at hand only the shifted k x k block builds its own
        assert builds == [self.k]


class TestCombinationMemory:
    """The members of an ensemble or block combination are combined as
    factors, so their n x n approximations are never held one per member."""

    n = 1000

    @pytest.fixture(scope="class")
    def K(self):
        return gen_wishart_psd(self.n, 3)

    def peak_in_n2_doubles(self, call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / (8.0 * self.n ** 2)
        finally:
            tracemalloc.stop()

    def test_ensemble_peak(self, K):
        subsets = [np.sort(rng_for(30, j).choice(self.n, size=50, replace=False)) for j in range(8)]
        assert self.peak_in_n2_doubles(lambda: ensemble_nystrom(K, 5, subsets)) < 1.6

    def test_block_extend_peak(self, K):
        blocks = (self.n // 8,) * 8
        assert self.peak_in_n2_doubles(lambda: block_extend(K, blocks, ExtensionConfig(m=5))) < 1.6

    def test_block_extend_members_form_no_n2_array(self, monkeypatch, K):
        # the members alone, without the combination that forms the result
        peaks = []

        def members_only(members):
            peaks.append(self.peak_in_n2_doubles(lambda: list(members)))

        monkeypatch.setattr(extension, "_uniform_mean", members_only)
        block_extend(K, (self.n // 8,) * 8, ExtensionConfig(m=5))
        assert peaks[0] < 0.25


class TestEquivalenceChecks:
    def test_diagonal_kernel_zero_deviation(self):
        K = SymmetricDense(np.diag(np.arange(20, 0, -1.0)))
        rep = check_topleft_equivalence(K, 5, tolerance=1e-14)
        assert rep["passed"]
        assert rep["max_vector_deviation"] <= 1e-14

    def test_random_psd_at_tolerance(self):
        K = gen_wishart_psd(200, seed=16)
        rep = check_topleft_equivalence(K, 20, tolerance=1e-10)
        assert rep["passed"], rep

    def test_many_seeds(self):
        for trial in range(10):
            K = gen_wishart_psd(80, seed=600 + trial)
            assert check_topleft_equivalence(K, 8, tolerance=1e-10)["passed"]
            mu = shift_mu_mean(K, 8)
            assert check_shifted_equivalence(K, 8, mu, tolerance=1e-10)["passed"]


class TestConfig:
    def test_invariants(self):
        K = gen_wishart_psd(10, seed=15)
        with pytest.raises(ValueError):
            nystrom_extend(K, 0)
        with pytest.raises(ValueError):
            generalized_nystrom(K, 5, 3)
        for subset in ([-1, 2, 3], [0, 1, 10]):
            with pytest.raises(ValueError, match="subset indices"):
                ensemble_nystrom(K, 2, [subset])

    def test_ensemble_dispatch(self):
        K = gen_wishart_psd(30, seed=41)
        subsets = [np.sort(rng_for(s).choice(30, size=10, replace=False)) for s in (7, 8, 9)]
        approx = ensemble_nystrom(K, 3, subsets)
        assert isinstance(approx, SymmetricDense)
        again = ensemble_nystrom(K, 3, subsets)
        assert np.array_equal(approx.a, again.a)

    def test_shifted_check_guards_mu_collision(self):
        K = gen_wishart_psd(40, seed=42)
        block = np.linalg.eigvalsh(np.array(K.a[:5, :5]))
        from perturbext.perturbation import MuCollisionError
        with pytest.raises((MuCollisionError, SingularSampleError)):
            check_shifted_equivalence(K, 5, float(block[-1]))


class TestPairCount:
    """Counts that are not integers raise a TypeError naming the argument
    before any solve; NumPy integers are integers."""

    @pytest.fixture(scope="class")
    def D(self):
        return gen_wishart_psd(400, seed=3)

    @pytest.mark.parametrize("k, l, message", [(2.5, 300, "k must be an integer, got 2.5"),
                                               (10, 300.7, "l must be an integer, got 300.7")])
    def test_generalized_nystrom(self, D, k, l, message):
        with pytest.raises(TypeError, match=message):
            generalized_nystrom(D, k, l)

    def test_ensemble_subset_of_floats(self, D):
        # a float index is refused, never truncated to a column
        with pytest.raises(TypeError, match="subset 1 must hold integers, got dtype float64"):
            ensemble_nystrom(D, 2, [[0, 1, 2], [0.5, 1, 2]])
        with pytest.raises(TypeError, match="subset 0"):
            ensemble_nystrom(D, 2, [np.array([0.0, 1.0, 2.0])])

    def test_generalized_nystrom_numpy_integers(self, D):
        got = generalized_nystrom(D, np.int64(4), np.int64(300))
        want = generalized_nystrom(D, 4, 300)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_shift_mu_mean(self, D):
        with pytest.raises(TypeError, match="k must be an integer, got 2.5"):
            shift_mu_mean(D, 2.5)
        assert shift_mu_mean(D, np.int64(3)) == shift_mu_mean(D, 3)


class TestSingularGuardNorm:
    def test_regular_block_above_fallback_makes_no_norm_solve(self, monkeypatch):
        # the Frobenius norm clears a regular block, so ||block||_2 is never
        # solved for
        x = rng_for(34).standard_normal((400, 3))
        K = build_kernel(standardize(Dataset(x)), KernelSpec.gaussian(0.5))
        monkeypatch.setattr("perturbext.nystrom.spectral_norm",
                            lambda A: pytest.fail("spectral_norm called"))
        for A in (K, SparseSymmetric(K.n, *K.triplets())):
            l = 300
            assert l > DENSE_FALLBACK_N
            vals, vecs = generalized_nystrom(A, 4, l)
            assert np.all(np.isfinite(vals)) and np.all(np.isfinite(vecs))
