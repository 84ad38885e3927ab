import numpy as np
import pytest

from perturbext.extension import ExtensionConfig, Selector, block_extend, pert_extend
from perturbext.kernels import (
    Dataset,
    KernelSpec,
    build_kernel,
    gen_slow_decay,
    gen_wishart_psd,
    rng_for,
    standardize,
)
from perturbext import matrixcore
from perturbext.matrixcore import (
    SparseSymmetric,
    SymmetricDense,
    principal_angle,
    spectral_norm,
    sym_eig_full,
)
from perturbext.nystrom import (
    SingularSampleError,
    check_shifted_equivalence,
    check_topleft_equivalence,
    ensemble_nystrom,
    generalized_nystrom,
    nystrom_extend,
    nystrom_kernel_approx,
    permute_symmetric,
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

    def test_sparse_kernel_bit_identical_to_dense(self):
        # a sparse K is read column-wise from its CSR rows, never densified
        K = gen_wishart_psd(300, seed=27)
        S = SparseSymmetric.from_dense(K)
        subsets = [np.sort(rng_for(s).choice(300, size=30, replace=False)) for s in (28, 29)]
        for run in (lambda A: generalized_nystrom(A, 5, 40),
                    lambda A: shifted_nystrom(A, 5, 0.5),
                    lambda A: (ensemble_nystrom(A, 5, subsets).a,)):
            for a, b in zip(run(K), run(S)):
                assert np.array_equal(a, b)

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
        for A in (K, SparseSymmetric.from_dense(K)):
            assert shift_mu_mean(A, 6) == pytest.approx(expected, rel=1e-12)

    def test_frobenius_improvement_on_slow_decay(self):
        for trial in range(20):
            K = gen_slow_decay(150, seed=500 + trial)
            k = 10
            mu = shift_mu_mean(K, k)
            vp, up = nystrom_extend(K, k)
            err_plain = np.linalg.norm(K.a - nystrom_kernel_approx(vp, up).a)
            vs, us = shifted_nystrom(K, k, mu)
            err_shift = np.linalg.norm(K.a - nystrom_kernel_approx(vs, us).a)
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
        approx = ensemble_nystrom(K, k, [np.arange(n)], weights=[1.0])
        vals, vecs = generalized_nystrom(K, k, n)
        expected = nystrom_kernel_approx(vals, vecs)
        assert np.max(np.abs(approx.a - expected.a)) <= 1e-12

    def test_identical_subsets_collapse(self):
        n, k = 20, 3
        K = gen_wishart_psd(n, seed=11)
        subset = np.arange(5)
        single = ensemble_nystrom(K, k, [subset], weights=[1.0])
        repeated = ensemble_nystrom(K, k, [subset, subset, subset],
                                    weights=[0.2, 0.5, 0.3])
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
            vals, vecs = generalized_nystrom(permute_symmetric(K, perm), k, subset.size)
            member = (vecs * vals[None, :]) @ vecs.T
            inv = np.empty(n, dtype=np.int64)
            inv[perm] = np.arange(n)
            members.append(member[np.ix_(inv, inv)])
        expected = np.mean(members, axis=0)
        assert np.max(np.abs(approx.a - expected)) <= 1e-12

    def test_matches_block_extension_on_partition(self):
        # block-diagonal selection combined by weights equals the ensemble
        # built from the same index groups
        n, k = 24, 3
        K = gen_wishart_psd(n, seed=14)
        combined = block_extend(K, [12, 12], ExtensionConfig(m=k))
        ens = ensemble_nystrom(K, k, [np.arange(12), np.arange(12, 24)])
        assert np.max(np.abs(combined.a - ens.a)) <= 1e-10

    def test_invalid_weights(self):
        K = gen_wishart_psd(10, seed=15)
        with pytest.raises(ValueError):
            ensemble_nystrom(K, 2, [np.arange(4)], weights=[0.7])


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

    def test_permute_preserves_type_and_spectrum(self):
        K = gen_wishart_psd(15, seed=17)
        perm = rng_for(18).permutation(15)
        P = permute_symmetric(K, perm)
        assert isinstance(P, SymmetricDense)
        assert np.allclose(np.sort(np.linalg.eigvalsh(P.a)),
                           np.sort(np.linalg.eigvalsh(K.a)), atol=1e-12)


class TestConfig:
    def test_invariants(self):
        K = gen_wishart_psd(10, seed=15)
        with pytest.raises(ValueError):
            nystrom_extend(K, 0)
        with pytest.raises(ValueError):
            generalized_nystrom(K, 5, 3)
        with pytest.raises(ValueError, match="weights"):
            ensemble_nystrom(K, 2, [np.arange(4), np.arange(4, 8)], weights=(0.9, 0.3))
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
