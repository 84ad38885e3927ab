import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturbext import matrixcore
from perturbext.extension import (
    ExtensionConfig,
    Selector,
    block_extend,
    extend_with_submatrix,
    kernel_approx,
    pert_extend,
    select_submatrix,
)
from perturbext.kernels import gen_band_matrix, gen_wishart_psd
from perturbext.matrixcore import (
    SparseSymmetric,
    SymmetricDense,
    add_scaled,
    nnz,
    principal_angle,
    spectral_norm,
    sym_eig_full,
    trace,
    write_sparse,
)
from perturbext.nystrom import nystrom_extend
from perturbext.perturbation import MuPolicy, first_order_bounds, mu_mean, second_order_bounds


def to_full(S):
    return S.to_dense().a


class TestSelectors:
    def test_full_mask_is_identity_selection(self):
        K = gen_wishart_psd(12, seed=1)
        Ks = select_submatrix(K, Selector.full_mask(12))
        assert np.array_equal(to_full(Ks), K.a)

    def test_band_zero_keeps_diagonal_only(self):
        K = gen_wishart_psd(10, seed=2)
        Ks = select_submatrix(K, Selector.band(0))
        assert np.array_equal(to_full(Ks), np.diag(np.diag(K.a)))

    def test_sparse_top_q_full_fraction_keeps_all(self):
        B = gen_band_matrix(40, seed=3)
        Ks = select_submatrix(B, Selector.sparse_top_q(1.0))
        assert Ks.nnz == B.nnz
        assert np.array_equal(to_full(Ks), to_full(B))

    def test_sparse_top_q_hits_budget(self):
        K = gen_wishart_psd(20, seed=4)
        total = nnz(K)
        for q in (0.1, 0.35, 0.8):
            Ks = select_submatrix(K, Selector.sparse_top_q(q))
            target = np.ceil(q * total)
            # reaches the budget; at most one mirrored pair of overshoot
            assert target <= Ks.nnz <= target + 1

    def test_sparse_top_q_takes_largest_magnitudes(self):
        a = np.diag([0.0] * 4)
        a[0, 1] = a[1, 0] = 5.0
        a[2, 3] = a[3, 2] = -4.0
        a[0, 2] = a[2, 0] = 0.5
        K = SymmetricDense(a)
        Ks = select_submatrix(K, Selector.sparse_top_q(0.5))
        full = to_full(Ks)
        assert full[0, 1] == 5.0
        assert full[2, 3] == 0.0 or abs(full[2, 3]) == 4.0  # budget boundary
        assert full[0, 2] == 0.0

    def test_topleft_matches_block(self):
        K = gen_wishart_psd(9, seed=5)
        Ks = select_submatrix(K, Selector.top_left(4))
        expected = np.zeros((9, 9))
        expected[:4, :4] = K.a[:4, :4]
        assert np.array_equal(to_full(Ks), expected)

    def test_blocks_partition_must_sum(self):
        K = gen_wishart_psd(9, seed=6)
        with pytest.raises(ValueError, match="block sizes"):
            select_submatrix(K, Selector.block_diag([4, 4]))

    def test_selected_entries_match_source(self):
        B = gen_band_matrix(50, seed=7)
        Ks = select_submatrix(B, Selector.band(5))
        full, src = to_full(Ks), to_full(B)
        picked = full != 0
        assert np.array_equal(full[picked], src[picked])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_custom_mask_correctness(self, seed):
        rng = np.random.default_rng(seed)
        n = 10
        K = gen_wishart_psd(n, seed=seed)
        count = rng.integers(1, 20)
        rows = rng.integers(0, n, size=count)
        cols = rng.integers(0, n, size=count)
        sel = Selector.custom_mask(rows, cols)
        Ks = select_submatrix(K, sel)
        full = to_full(Ks)
        assert np.array_equal(full, full.T)
        mask = np.zeros((n, n), dtype=bool)
        mask[rows, cols] = True
        mask |= mask.T
        assert np.array_equal(full[mask], K.a[mask])
        assert np.all(full[~mask] == 0)

    def test_parse_grammar(self):
        assert Selector.parse("topleft:5").size == 5
        assert Selector.parse("band:3").bandwidth == 3
        assert Selector.parse("sparse:0.25").fraction == 0.25
        assert Selector.parse("blocks:2,3,4").block_sizes == (2, 3, 4)
        with pytest.raises(ValueError):
            Selector.parse("banana:9")
        with pytest.raises(ValueError):
            Selector.parse("topleft")

    def test_parse_mask_file(self, tmp_path):
        S = SparseSymmetric(6, [0, 1], [2, 1], [1.0, 2.0])
        path = tmp_path / "mask.txt"
        write_sparse(path, S)
        sel = Selector.parse(f"mask:{path}")
        assert sel.kind == "mask"
        assert sel.mask_rows == (0, 1)

    def test_mask_selectors_compare_and_hash(self):
        a = Selector.custom_mask([2, 0, 1], [0, 3, 1])
        b = Selector.custom_mask([0, 3, 1], [2, 0, 1])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Selector.custom_mask([0, 1], [2, 1])
        assert Selector.full_mask(4) == Selector.full_mask(4)
        assert Selector.full_mask(4) != Selector.full_mask(5)


class TestPertExtend:
    def test_full_mask_reproduces_exact_pairs(self):
        K = gen_wishart_psd(30, seed=8)
        res = pert_extend(K, Selector.full_mask(30), ExtensionConfig(m=6))
        exact = sym_eig_full(K)
        assert principal_angle(res.vectors, exact.vectors[:, :6]) <= 1e-8
        assert np.max(np.abs(res.values - exact.values[:6])) <= 1e-10

    def test_topleft_matches_scaled_nystrom(self):
        n, m = 50, 8
        K = gen_wishart_psd(n, seed=9)
        res = pert_extend(K, Selector.top_left(m), ExtensionConfig(m=m))
        nys_vals, nys_vecs = nystrom_extend(K, m)
        for i in range(m):
            u = np.sqrt(m / n) * res.vectors[:, i]
            v = nys_vecs[:, i]
            if np.dot(u, v) < 0:
                v = -v
            assert np.max(np.abs(u - v)) <= 1e-10
        assert np.max(np.abs((n / m) * res.values - nys_vals)) <= 1e-10

    def test_band_error_decreases_with_budget_on_smooth_kernel(self):
        # banded Toeplitz-style kernel: wider bands must not hurt
        n, m = 60, 4
        rho = 0.4
        dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        K = SymmetricDense(rho ** dist, symmetrize=True)
        exact = sym_eig_full(K).vectors[:, :m]
        angles = []
        for p in (1, 3, 6, 12, 25, 59):
            res = pert_extend(K, Selector.band(p), ExtensionConfig(m=m))
            angles.append(principal_angle(res.vectors, exact))
        assert all(b <= a + 1e-12 for a, b in zip(angles, angles[1:]))
        assert angles[-1] <= 1e-8

    def test_second_order_available(self):
        K = gen_wishart_psd(25, seed=10)
        res1 = pert_extend(K, Selector.band(6), ExtensionConfig(m=3, order=1))
        res2 = pert_extend(K, Selector.band(6), ExtensionConfig(m=3, order=2))
        exact = sym_eig_full(K).vectors[:, :3]
        assert principal_angle(res2.vectors, exact) <= principal_angle(res1.vectors, exact) * 1.5

    def test_dense_and_sparse_kernel_agree(self):
        # E = K - K^s is stored in K's own type; both must give one answer,
        # on the dense-LAPACK (n=20) and the Lanczos (n=300) size
        for n, p in ((20, 4), (300, 40)):
            K = gen_wishart_psd(n, seed=23)
            S = SparseSymmetric.from_dense(K)
            for cfg in (ExtensionConfig(m=4), ExtensionConfig(m=4, order=2, mu=MuPolicy.mean())):
                dense = extend_with_submatrix(K, select_submatrix(K, Selector.band(p)), cfg)
                sparse = extend_with_submatrix(S, select_submatrix(S, Selector.band(p)), cfg)
                for a, b in ((dense.values, sparse.values), (dense.vectors, sparse.vectors),
                             (dense.bound_terms, sparse.bound_terms)):
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestValueUpdates:
    def test_full_selection_keeps_values(self):
        K = gen_wishart_psd(15, seed=11)
        Ks = select_submatrix(K, Selector.full_mask(15))
        res = extend_with_submatrix(K, Ks, ExtensionConfig(m=4))
        assert np.array_equal(res.values, res.source_pairs.values)

    def test_topleft_quadratic_form_vanishes(self):
        K = gen_wishart_psd(20, seed=12)
        Ks = select_submatrix(K, Selector.top_left(5))
        res = extend_with_submatrix(K, Ks, ExtensionConfig(m=5))
        assert np.max(np.abs(res.values - res.source_pairs.values)) <= 1e-12

    def test_value_error_is_second_order(self):
        # scaling the residual by t scales the value error by ~t^2
        n, m = 40, 4
        K = gen_wishart_psd(n, seed=13)
        exact = sym_eig_full(K).values[:m]

        def value_error(scale):
            mixed = SymmetricDense(np.where(np.abs(np.subtract.outer(
                np.arange(n), np.arange(n))) <= 10, K.a,
                scale * K.a), symmetrize=True)
            Ks = select_submatrix(mixed, Selector.band(10))
            res = extend_with_submatrix(mixed, Ks, ExtensionConfig(m=m))
            exact_vals = sym_eig_full(mixed).values[:m]
            return np.max(np.abs(res.values - exact_vals))

        e_small, e_half = value_error(0.01), value_error(0.02)
        ratio = e_half / e_small
        assert 2.5 <= ratio <= 6.0  # ~4 expected for a quadratic error


class TestBounds:
    def test_full_selection_bound_zero(self):
        K = gen_wishart_psd(15, seed=14)
        res = pert_extend(K, Selector.full_mask(15), ExtensionConfig(m=4))
        finite = np.isfinite(res.bound_terms)
        assert np.all(res.bound_terms[finite] == 0.0)

    def test_rank_m_topleft_bound_zero(self):
        # kernel of rank m: the top-left selection has an all-zero tail
        rng = np.random.default_rng(15)
        g = rng.standard_normal((20, 4))
        K = SymmetricDense(g @ g.T, symmetrize=True)
        res = pert_extend(K, Selector.top_left(4), ExtensionConfig(m=4))
        finite = np.isfinite(res.bound_terms)
        assert np.all(res.bound_terms[finite] <= 1e-10)

    def test_rank_m_topleft_bound_zero_over_seeds(self):
        # as above, over seeds and both orders.  At this size the tail comes
        # from the spectrum; the trace identity's cancellation would leave up
        # to ~1e-3 in the first-order terms of about one case in four
        for seed in range(50):
            g = np.random.default_rng(seed).standard_normal((20, 4))
            K = SymmetricDense(g @ g.T, symmetrize=True)
            for order in (1, 2):
                res = pert_extend(K, Selector.top_left(4), ExtensionConfig(m=4, order=order))
                finite = np.isfinite(res.bound_terms)
                assert np.all(res.bound_terms[finite] <= 1e-10), (seed, order)

    def test_no_dense_eigensolve_above_fallback_size(self, monkeypatch):
        K = gen_wishart_psd(300, seed=24)

        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve on the extension path")

        monkeypatch.setattr(matrixcore, "sym_eig_full", refuse)
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for A in (K, SparseSymmetric.from_dense(K)):
            for cfg in (ExtensionConfig(m=4), ExtensionConfig(m=4, order=2, mu=MuPolicy.mean())):
                res = extend_with_submatrix(A, select_submatrix(A, Selector.band(40)), cfg)
                assert np.all(np.isfinite(res.bound_terms[:-1]))
                assert np.all(res.bound_terms[:-1] >= 0.0)
                assert np.isinf(res.bound_terms[-1])

    def test_trace_tails_match_full_spectrum(self):
        # above the fallback size: second-order terms equal the full-spectrum
        # ones, first-order terms (Cauchy-Schwarz tail) are at least those
        m = 4
        wishart = gen_wishart_psd(300, seed=25)
        cases = ((wishart, 40), (SparseSymmetric.from_dense(wishart), 40),
                 (gen_band_matrix(400, seed=26), 20))
        for A, p in cases:
            Ks = select_submatrix(A, Selector.band(p))
            spectrum = sym_eig_full(Ks).values
            norm_e = spectral_norm(add_scaled(A, Ks, -1.0))
            for mu in (MuPolicy.zero(), MuPolicy.mean()):
                res1 = extend_with_submatrix(A, Ks, ExtensionConfig(m=m, mu=mu))
                res2 = extend_with_submatrix(A, Ks, ExtensionConfig(m=m, order=2, mu=mu))
                t = res2.source_pairs.values
                mu_val = 0.0 if mu.kind == "zero" else mu_mean(trace(Ks), t, Ks.n)
                np.testing.assert_allclose(
                    res2.bound_terms, second_order_bounds(t, spectrum[m:], mu_val, norm_e),
                    rtol=1e-12, atol=0.0)
                exact1 = first_order_bounds(t, spectrum[m:], mu_val, norm_e)
                assert np.all(res1.bound_terms[:-1] >= exact1[:-1])

    def test_bound_covers_measured_error_small_residual(self):
        n, m = 40, 5
        for seed in range(5):
            K = gen_wishart_psd(n, seed=300 + seed)
            # nearly-full selection: tiny residual
            a = np.array(K.a)
            rng = np.random.default_rng(seed)
            i, j = rng.integers(0, n, size=2)
            if i == j:
                j = (i + 1) % n
            delta = 1e-9
            a[i, j] += delta
            a[j, i] += delta
            Kp = SymmetricDense(a, symmetrize=True)
            Ks = SparseSymmetric.from_dense(K)
            res = extend_with_submatrix(Kp, Ks, ExtensionConfig(m=m))
            exact = sym_eig_full(Kp).vectors[:, :m]
            for col in range(m):
                v = exact[:, col]
                if np.dot(res.vectors[:, col], v) < 0:
                    v = -v
                err = np.linalg.norm(res.vectors[:, col] - v)
                assert err <= 2.0 * res.bound_terms[col] + 1e-12


class TestKernelApprox:
    def test_full_reconstruction(self):
        K = gen_wishart_psd(12, seed=16)
        res = pert_extend(K, Selector.full_mask(12), ExtensionConfig(m=12))
        approx = kernel_approx(res)
        scale = spectral_norm(K)
        assert np.max(np.abs(approx.a - K.a)) <= 1e-8 * scale

    def test_single_pair_outer_product(self):
        vals = np.array([3.0])
        vecs = np.zeros((4, 1))
        vecs[0, 0] = 1.0
        from perturbext.extension import ExtensionResult
        from perturbext.matrixcore import EigenPairs

        res = ExtensionResult(values=vals, vectors=vecs, bound_terms=np.array([np.inf]),
                              selector_nnz=1,
                              source_pairs=EigenPairs(np.array([1.0]), vecs))
        approx = kernel_approx(res)
        expected = np.zeros((4, 4))
        expected[0, 0] = 3.0
        assert np.array_equal(approx.a, expected)

    def test_rank_at_most_m(self):
        K = gen_wishart_psd(25, seed=17)
        res = pert_extend(K, Selector.band(8), ExtensionConfig(m=5))
        approx = kernel_approx(res)
        svals = np.linalg.svd(approx.a, compute_uv=False)
        assert np.all(svals[5:] <= 1e-10 * svals[0])

    def test_matches_nystrom_kernel_approx_for_topleft(self):
        # the sqrt(m/n) and n/m factors cancel inside lambda * u u^T
        n, m = 40, 6
        K = gen_wishart_psd(n, seed=18)
        res = pert_extend(K, Selector.top_left(m), ExtensionConfig(m=m))
        approx_pert = kernel_approx(res)
        vals, vecs = nystrom_extend(K, m)
        approx_nys = (vecs * vals[None, :]) @ vecs.T
        assert np.max(np.abs(approx_pert.a - approx_nys)) <= 1e-10 * spectral_norm(K)


class TestBlockExtend:
    def test_single_block_equals_full_topleft(self):
        K = gen_wishart_psd(18, seed=19)
        combined = block_extend(K, [18], ExtensionConfig(m=4), weights=[1.0])
        res = pert_extend(K, Selector.top_left(18), ExtensionConfig(m=4))
        assert np.max(np.abs(combined.a - kernel_approx(res).a)) <= 1e-12

    def test_blockdiagonal_kernel_reconstructed_per_block(self):
        rng = np.random.default_rng(20)
        blocks = []
        for size in (6, 6):
            g = rng.standard_normal((size, size))
            blocks.append(g @ g.T)
        a = np.zeros((12, 12))
        a[:6, :6] = blocks[0]
        a[6:, 6:] = blocks[1]
        K = SymmetricDense(a, symmetrize=True)
        combined = block_extend(K, [6, 6], ExtensionConfig(m=6), weights=[0.5, 0.5])
        # each member reconstructs its block exactly, so the weighted sum is
        # the weighted block-diagonal
        assert np.max(np.abs(combined.a - 0.5 * a)) <= 1e-10

    def test_two_blocks_equal_weighted_average_of_members(self):
        K = gen_wishart_psd(16, seed=21)
        cfg = ExtensionConfig(m=3)
        combined = block_extend(K, [8, 8], cfg, weights=[0.25, 0.75])
        members = []
        rows, cols = np.triu_indices(16)
        for lo, hi in ((0, 8), (8, 16)):
            keep = (rows >= lo) & (cols < hi) & (rows < hi) & (cols >= lo)
            Ks = SparseSymmetric(16, rows[keep], cols[keep], K.a[rows[keep], cols[keep]])
            members.append(kernel_approx(extend_with_submatrix(K, Ks, cfg)).a)
        expected = 0.25 * members[0] + 0.75 * members[1]
        assert np.max(np.abs(combined.a - expected)) <= 1e-12

    def test_bad_weights_rejected(self):
        K = gen_wishart_psd(8, seed=22)
        with pytest.raises(ValueError, match="weights"):
            block_extend(K, [4, 4], ExtensionConfig(m=2), weights=[0.5, 0.2])
