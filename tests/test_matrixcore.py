import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from perturbext import matrixcore
from perturbext.experiments import derive_seed
from perturbext.extension import Selector, select_submatrix
from perturbext.kernels import (
    KernelSpec,
    build_kernel,
    gen_clustered_dataset,
    gen_psd_separated_block,
    gen_wishart_psd,
    standardize,
)
from perturbext.matrixcore import (
    ConvergenceError,
    EigengapError,
    EigenPairs,
    RankDeficientError,
    SparseSymmetric,
    SymmetricDense,
    _selection,
    block_selection,
    canonical_signs,
    magnitude_profile,
    principal_angle,
    read_dense,
    read_mask,
    read_sparse,
    restriction,
    spectral_norm,
    sym_eig_full,
    sym_eig_partial,
    write_dense,
    write_sparse,
)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return SymmetricDense(a, symmetrize=True)


def shift_identity(l, shift):
    """shift * I as an l-row diagonal sparse matrix, which a principal block's
    ``minus`` takes off its diagonal."""
    return SparseSymmetric(l, np.arange(l), np.arange(l), np.full(l, shift))


class TestTypes:
    def test_dense_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymmetricDense([[1.0, 2.0], [3.0, 4.0]])

    def test_dense_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            SymmetricDense([[np.nan, 0.0], [0.0, 1.0]])

    def test_dense_symmetrize_rejects_overflowing_average(self):
        # every input entry is finite, but a + a.T is not
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            SymmetricDense(np.full((2, 2), 1e308), symmetrize=True)

    def test_dense_symmetrize_overflow_raises_without_warning(self):
        # an entry above DBL_MAX / 2 overflows its own average
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                SymmetricDense(np.array([[9.5e307, 1.0], [1.0, 1.0]]), symmetrize=True)

    def test_dense_symmetrize_is_exact(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((40, 40))
        K = SymmetricDense(a, symmetrize=True)
        assert np.array_equal(K.a, K.a.T)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1500])
    def test_tile_average_equals_whole_array_average(self, n):
        # tile edges fall inside, on and just past the matrix edge
        p = np.random.default_rng(n).standard_normal((n, n))
        p[0, 0] = -abs(p[0, 0])  # negative entries even at n = 1
        expected = (p + p.T) / 2
        given = p.copy()
        K = SymmetricDense(given, symmetrize=True)
        assert np.array_equal(K.a, expected) and K.a.tobytes() == expected.tobytes()
        # the constructor writes to a new array, never to its input
        assert np.array_equal(given, p)
        in_place = matrixcore._average_transpose(given, given)
        assert in_place is given and in_place.tobytes() == expected.tobytes()

    def test_dense_immutable(self):
        K = SymmetricDense(np.eye(3))
        with pytest.raises(ValueError):
            K.a[0, 0] = 5.0

    def test_sparse_rejects_lower_triplets(self):
        with pytest.raises(ValueError, match="row <= col"):
            SparseSymmetric(3, [1], [0], [1.0])

    def test_sparse_rejects_dimension_beyond_flat_index(self):
        # row * n + col must fit int64; checked before any n-sized array
        with pytest.raises(ValueError, match="too large"):
            SparseSymmetric(10 ** 13, [0], [0], [1.0])

    def test_sparse_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseSymmetric(3, [0, 0], [1, 1], [1.0, 2.0])

    @staticmethod
    def _upper_triplets(n, seed):
        rng = np.random.default_rng(seed)
        iu = np.triu_indices(n)
        pick = np.sort(rng.choice(iu[0].size, size=iu[0].size // 3, replace=False))
        vals = rng.choice([0.0, 1.0, -2.5, 0.125], size=pick.size)
        return iu[0][pick], iu[1][pick], vals

    def test_sparse_sorted_and_shuffled_inputs_agree(self):
        n = 30
        rows, cols, vals = self._upper_triplets(n, 0)
        shuffle = np.random.default_rng(1).permutation(rows.size)
        assert matrixcore._row_major_order(n, rows, cols) == slice(None)
        assert isinstance(matrixcore._row_major_order(n, rows[shuffle], cols[shuffle]), np.ndarray)
        a = SparseSymmetric(n, rows, cols, vals)
        b = SparseSymmetric(n, rows[shuffle], cols[shuffle], vals[shuffle])
        for name in ("rows", "cols", "vals"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert 0.0 not in a.vals

    @pytest.mark.parametrize("rows, cols, match", [
        ([1, 0, 0], [2, 1, 1], "duplicate"),      # unsorted; sorted is tested above
        ([0, 2, 2], [1, 1, 2], "row <= col"),     # flat keys increasing
        ([-1, 0], [0, 1], "out of range"),
        ([0, 1], [1, 3], "out of range"),
    ])
    def test_sparse_rejects_bad_triplets(self, rows, cols, match):
        with pytest.raises(ValueError, match=match):
            SparseSymmetric(3, rows, cols, np.ones(len(rows)))

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_sparse_leaves_caller_arrays_alone(self, shuffled):
        rows, cols, vals = self._upper_triplets(12, 2)
        vals = vals + 10.0  # no zero to drop: every entry is kept
        if shuffled:
            order = np.random.default_rng(3).permutation(rows.size)
            rows, cols, vals = rows[order], cols[order], vals[order]
        S = SparseSymmetric(12, rows, cols, vals)
        stored = S.vals.copy()
        for arr in (rows, cols, vals):
            assert arr.flags.writeable
        vals[:] = 7.0
        assert np.array_equal(S.vals, stored)
        assert not S.vals.flags.writeable

    def test_sparse_nnz_counts_pairs_twice(self):
        S = SparseSymmetric(4, [0, 0, 2], [0, 1, 3], [1.0, 2.0, 3.0])
        assert S.nnz == 1 + 2 + 2
        assert S.vals.size == 3

    def test_sparse_drops_exact_zeros(self):
        S = SparseSymmetric(3, [0, 1], [1, 2], [0.0, 2.0])
        assert S.vals.size == 1

    def test_sparse_roundtrip_dense(self):
        S = SparseSymmetric(3, [0, 0, 1], [0, 2, 1], [1.0, -2.0, 3.0])
        D = S.to_dense()
        expected = np.array([[1.0, 0, -2], [0, 3, 0], [-2, 0, 0]])
        assert np.array_equal(D.a, expected)
        back = SparseSymmetric(D.n, *D.triplets())
        assert np.array_equal(back.vals, np.array([1.0, -2.0, 3.0]))

    def test_eigenpairs_reject_ascending(self):
        with pytest.raises(ValueError, match="descending"):
            EigenPairs([1.0, 2.0], np.eye(2))

    def test_eigenpairs_reject_nonorthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            EigenPairs([2.0, 1.0], np.array([[1.0, 1.0], [0.0, 0.1]]))

    def test_eigenpairs_orthonormality_invariant(self):
        pairs = sym_eig_full(random_symmetric(30, 5))
        gram = pairs.vectors.T @ pairs.vectors
        assert np.max(np.abs(gram - np.eye(30))) <= 1e-8


class TestEigFull:
    def test_diagonal(self):
        pairs = sym_eig_full(SymmetricDense(np.diag([3.0, 1.0, 2.0])))
        assert np.array_equal(pairs.values, [3.0, 2.0, 1.0])
        # permuted identity columns
        assert np.array_equal(np.abs(pairs.vectors), np.eye(3)[:, [0, 2, 1]])

    def test_identity_degenerate_permitted(self):
        pairs = sym_eig_full(SymmetricDense(np.eye(4)))
        assert np.array_equal(pairs.values, np.ones(4))

    def test_residuals_random_100(self):
        A = random_symmetric(100, 7)
        pairs = sym_eig_full(A)
        norm = spectral_norm(A)
        resid = A.a @ pairs.vectors - pairs.vectors * pairs.values[None, :]
        assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-10 * norm

    def test_rejects_nonfinite(self):
        bad = np.eye(3)
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            SymmetricDense(bad)

    def test_sign_convention(self):
        pairs = sym_eig_full(random_symmetric(20, 11))
        lead = np.abs(pairs.vectors).argmax(axis=0)
        assert np.all(pairs.vectors[lead, np.arange(20)] > 0)

    def test_determinism(self):
        A = random_symmetric(50, 13)
        p1 = sym_eig_full(A)
        p2 = sym_eig_full(A)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(p1.vectors, p2.vectors)

    @pytest.mark.parametrize("m", [1, 5, 30])
    def test_leading_m_equal_full_columns(self, m):
        # only the kept columns are sign-fixed, column by column, so they
        # equal the leading columns of the full decomposition bit for bit
        A = random_symmetric(30, 17)
        full, lead = sym_eig_full(A), sym_eig_full(A, m)
        assert lead.m == m
        assert np.array_equal(lead.values, full.values[:m])
        assert np.array_equal(lead.vectors, full.vectors[:, :m])

    @pytest.mark.parametrize("m", [0, 31])
    def test_m_out_of_range(self, m):
        with pytest.raises(ValueError, match="1 <= m <= n"):
            sym_eig_full(random_symmetric(30, 17), m)


class TestEigPartial:
    def test_diagonal(self):
        pairs = sym_eig_partial(SymmetricDense(np.diag([5.0, 4.0, 3.0, 2.0, 1.0])), 2)
        assert np.array_equal(pairs.values, [5.0, 4.0])

    def test_sparse_identity(self):
        n = 6
        S = SparseSymmetric(n, np.arange(n), np.arange(n), np.ones(n))
        pairs = sym_eig_partial(S, 1)
        assert pairs.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_full_oracle_on_random_sparse(self):
        # 300 > dense-fallback threshold, so the Lanczos path is exercised
        rng = np.random.default_rng(23)
        n, density = 300, 0.05
        iu = np.triu_indices(n)
        keep = rng.uniform(size=iu[0].size) < density
        S = SparseSymmetric(n, iu[0][keep], iu[1][keep], rng.standard_normal(keep.sum()))
        m = 10
        partial = sym_eig_partial(S, m)
        full = sym_eig_full(S)
        assert np.max(np.abs(partial.values - full.values[:m])) <= 1e-8
        for i in range(m):
            u, v = partial.vectors[:, i], full.vectors[:, i]
            if np.dot(u, v) < 0:
                v = -v
            assert np.linalg.norm(u - v) <= 1e-6

    def test_partial_residual_contract(self):
        rng = np.random.default_rng(29)
        n = 400
        iu = np.triu_indices(n)
        keep = rng.uniform(size=iu[0].size) < 0.02
        S = SparseSymmetric(n, iu[0][keep], iu[1][keep], rng.standard_normal(keep.sum()))
        pairs = sym_eig_partial(S, 6)
        norm = spectral_norm(S)
        for i in range(6):
            resid = S.matvec(pairs.vectors[:, i]) - pairs.values[i] * pairs.vectors[:, i]
            assert np.linalg.norm(resid) <= 1e-8 * norm

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            sym_eig_partial(SymmetricDense(np.eye(3)), 4)

    @pytest.mark.parametrize("found, message", [(None, "ARPACK error -9999"), (2, "2 of 5 values found")],
                             ids=["error", "no_convergence"])
    def test_arpack_failure_is_convergence_error(self, monkeypatch, found, message):
        import scipy.sparse.linalg as spla

        def eigsh_fails(*args, **kwargs):
            if found is None:
                raise spla.ArpackError(-9999)
            raise spla.ArpackNoConvergence("no convergence", np.ones(found), None)

        monkeypatch.setattr(matrixcore.spla, "eigsh", eigsh_fails)
        with pytest.raises(ConvergenceError, match=message):
            sym_eig_partial(random_symmetric(300, 7), 4)

    def test_dense_path_builds_one_eigenpairs(self, monkeypatch):
        built = []

        class Counted(EigenPairs):
            def __init__(self, values, vectors, _rest=None):
                built.append(len(values))
                super().__init__(values, vectors, _rest=_rest)

        monkeypatch.setattr(matrixcore, "EigenPairs", Counted)
        sym_eig_partial(random_symmetric(50, 19), 3)
        assert built == [3]

    def test_determinism(self):
        rng = np.random.default_rng(31)
        n = 300
        iu = np.triu_indices(n)
        keep = rng.uniform(size=iu[0].size) < 0.03
        S = SparseSymmetric(n, iu[0][keep], iu[1][keep], rng.standard_normal(keep.sum()))
        p1 = sym_eig_partial(S, 5)
        p2 = sym_eig_partial(S, 5)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(p1.vectors, p2.vectors)


class TestPairCount:
    """A count that is not an integer raises a TypeError naming it before
    any solve (it used to crash inside ARPACK or a slice); NumPy integers
    are integers.  At n = 400 the sparse form goes to Lanczos."""

    @pytest.fixture(scope="class")
    def D(self):
        return gen_wishart_psd(400, seed=3)

    def test_sym_eig_full(self, D):
        with pytest.raises(TypeError, match="m must be an integer, got 2.5"):
            sym_eig_full(D, 2.5)
        assert np.array_equal(sym_eig_full(D, np.int64(3)).values, sym_eig_full(D, 3).values)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_sym_eig_partial(self, D, sparse):
        A = SparseSymmetric(D.n, *D.triplets()) if sparse else D
        with pytest.raises(TypeError, match="m must be an integer, got 2.5"):
            sym_eig_partial(A, 2.5)
        got, want = sym_eig_partial(A, np.int64(3)), sym_eig_partial(A, 3)
        assert np.array_equal(got.values, want.values) and np.array_equal(got.vectors, want.vectors)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_extreme_eigvals(self, D, sparse):
        A = SparseSymmetric(D.n, *D.triplets()) if sparse else D
        with pytest.raises(TypeError, match="k must be an integer, got 2.5"):
            matrixcore._extreme_eigvals(A, 2.5, "LA")
        assert np.array_equal(matrixcore._extreme_eigvals(A, np.int64(2), "LM"),
                              matrixcore._extreme_eigvals(A, 2, "LM"))


class TestSpectralNorm:
    def test_diagonal_max_magnitude(self):
        assert spectral_norm(SymmetricDense(np.diag([-7.0, 3.0]))) == pytest.approx(7.0)

    def test_zero_matrix(self, monkeypatch):
        # no eigensolver runs on a matrix without nonzeros, at any size
        def no_dense_solve(a):
            raise AssertionError("dense eigvalsh called on a zero matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_dense_solve)
        assert spectral_norm(SymmetricDense(np.zeros((4, 4)))) == 0.0
        assert spectral_norm(SparseSymmetric(1200, [0], [0], [0.0])) == 0.0

    @pytest.mark.parametrize("A", [SparseSymmetric(1200, [], [], []), SymmetricDense(np.zeros((300, 300)))],
                             ids=["sparse", "dense"])
    def test_zero_matrix_extreme_values_run_no_solver(self, monkeypatch, A):
        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolver called on a zero matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
        monkeypatch.setattr(matrixcore.spla, "eigsh", no_solve)
        assert np.array_equal(matrixcore._extreme_eigvals(A, 3, "LA"), np.zeros(3))

    def test_failed_dense_solve_is_convergence_error(self, monkeypatch):
        def lapack_fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", lapack_fails)
        with pytest.raises(ConvergenceError, match="did not converge"):
            spectral_norm(random_symmetric(20, 5))

    def test_matches_full_eig_oracle(self):
        A = random_symmetric(50, 41)
        oracle = np.max(np.abs(sym_eig_full(A).values))
        assert spectral_norm(A) == pytest.approx(oracle, rel=1e-8)

    def test_large_sparse_path(self):
        rng = np.random.default_rng(43)
        n = 350
        iu = np.triu_indices(n)
        keep = rng.uniform(size=iu[0].size) < 0.02
        S = SparseSymmetric(n, iu[0][keep], iu[1][keep], rng.standard_normal(keep.sum()))
        oracle = np.max(np.abs(np.linalg.eigvalsh(S.to_dense().a)))
        assert spectral_norm(S) == pytest.approx(oracle, rel=1e-8)
        assert spectral_norm(S.to_dense()) == pytest.approx(oracle, rel=1e-8)


class TestDenseLanczos:
    """Above DENSE_FALLBACK_N a dense matrix reaches eigsh through its
    ``matvec``, one dsymv on its own array, in C or F order alike."""

    @staticmethod
    def planted(n, order):
        # five separated leading values over a tail in [-1, 1]
        rng = np.random.default_rng(n)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        spectrum = np.concatenate([[10.0, 9.0, 8.0, 7.0, 6.0], rng.uniform(-1.0, 1.0, n - 5)])
        a = SymmetricDense((q * spectrum) @ q.T, symmetrize=True).a
        A = SymmetricDense(np.asarray(a, order=order))
        assert A.a.flags[f"{order}_CONTIGUOUS"]
        return A

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [257, 600])
    def test_matches_dense_oracle(self, n, order):
        A = self.planted(n, order)
        w, v = np.linalg.eigh(A.a)
        norm = np.max(np.abs(w))
        assert abs(spectral_norm(A) - norm) <= 1e-12 * norm
        pairs = sym_eig_partial(A, 4)
        assert np.max(np.abs(pairs.values - w[::-1][:4])) <= 1e-12 * norm
        assert np.max(np.abs(pairs.vectors - canonical_signs(v[:, ::-1][:, :4]))) <= 1e-12 * norm

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_vector_product_reads_the_stored_array(self, monkeypatch, order):
        A = self.planted(257, order)
        dsymv, seen = matrixcore.blas.dsymv, []

        def recording(alpha, a, x):
            seen.append(a)
            return dsymv(alpha, a, x)

        monkeypatch.setattr(matrixcore.blas, "dsymv", recording)
        x = np.random.default_rng(3).standard_normal(A.n)
        y = A.matvec(x)
        assert len(seen) == 1 and seen[0].flags.f_contiguous and np.shares_memory(seen[0], A.a)
        assert np.max(np.abs(y - A.a @ x)) <= 1e-12 * np.abs(A.a).sum(axis=1).max()

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_lanczos_products_take_nonzero_vectors(self, monkeypatch, kind):
        # a product on a block or on a probing zero vector would show here
        A = self.planted(300, "C")
        A = A if kind == "dense" else SparseSymmetric(A.n, *A.triplets())
        matvec, seen = type(A).matvec, []

        def recording(self, x):
            seen.append((x.ndim, bool(np.any(x))))
            return matvec(self, x)

        monkeypatch.setattr(type(A), "matvec", recording)
        sym_eig_partial(A, 4)
        spectral_norm(A)
        assert seen and set(seen) == {(1, True)}


class TestZeroGuard:
    @pytest.mark.parametrize("where", [(0, 0), (299, 299), (150, 290)], ids=["first", "last", "off-diagonal"])
    def test_single_nonzero_is_not_zero(self, where):
        # one nonzero anywhere, in the first scanned block of rows or a later one
        i, j = where
        a = np.zeros((300, 300))
        a[i, j] = a[j, i] = 2.0
        A = SymmetricDense(a)
        assert not A.is_zero()
        assert spectral_norm(A) == pytest.approx(2.0)
        assert matrixcore._extreme_eigvals(A, 2, "LA")[0] == pytest.approx(2.0)

    def test_zero_matrices(self):
        assert SymmetricDense(np.zeros((300, 300))).is_zero()
        assert SparseSymmetric(300, [0], [0], [0.0]).is_zero()
        assert not SparseSymmetric(300, [299], [299], [-1.0]).is_zero()


class TestPrincipalAngle:
    def test_identical_subspaces(self):
        rng = np.random.default_rng(0)
        U = rng.standard_normal((10, 3))
        assert principal_angle(U, U) <= 1e-12

    def test_orthogonal_spans(self):
        e1 = np.eye(4)[:, :1]
        e2 = np.eye(4)[:, 1:2]
        assert principal_angle(e1, e2) == pytest.approx(np.pi / 2)

    def test_forty_five_degrees(self):
        e1 = np.eye(3)[:, :1]
        mix = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2)
        assert principal_angle(e1, mix) == pytest.approx(np.pi / 4, abs=1e-12)

    def test_rank_deficient_rejected(self):
        U = np.ones((5, 2))
        with pytest.raises(RankDeficientError):
            principal_angle(U, np.eye(5)[:, :2])

    @pytest.mark.parametrize("failing_call", [0, 1], ids=["cosines", "sines"])
    def test_failed_svd_is_convergence_error(self, monkeypatch, failing_call):
        # a small angle takes both SVDs; LinAlgError alone is a ValueError
        svd, calls = np.linalg.svd, []

        def svd_fails_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == failing_call + 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd_fails_once)
        U = np.eye(6)[:, :2]
        with pytest.raises(ConvergenceError, match="SVD did not converge"):
            principal_angle(U, U + 1e-3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_invariance_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        U = rng.standard_normal((12, 3))
        W = rng.standard_normal((12, 3))
        theta = principal_angle(U, W)
        assert 0.0 <= theta <= np.pi / 2
        assert abs(theta - principal_angle(W, U)) <= 1e-8
        mix = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        assert abs(theta - principal_angle(U @ mix, W)) <= 1e-8
        mix2 = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        assert abs(theta - principal_angle(U, W @ mix2)) <= 1e-8


def protocol_case(name):
    """The dense form of one protocol case."""
    if name == "random":
        return random_symmetric(12, 37)
    if name == "zeros_and_empty_row":
        a = np.array(random_symmetric(12, 38).a)
        a[np.abs(a) < 0.5] = 0.0
        a[5, :] = a[:, 5] = 0.0
        return SymmetricDense(a)
    if name == "all_zero":
        return SymmetricDense(np.zeros((6, 6)))
    # n = 300: nonzeros only in rows the zero scan reaches after its first block
    a = np.zeros((300, 300))
    a[200:230, 200:230] = random_symmetric(30, 39).a
    a[120, 299] = a[299, 120] = -1.5
    return SymmetricDense(a)


class TestProtocol:
    """Both matrix types answer every protocol query identically."""

    def test_both_types_expose_the_same_members(self):
        # apart from their storage fields: the dense array, the sparse triplets
        def public(cls, storage):
            names = {name for name in dir(cls) if not name.startswith("_")}
            assert storage <= names
            return names - storage

        assert public(SymmetricDense, {"a"}) == public(SparseSymmetric, {"rows", "cols", "vals"})

    @pytest.mark.parametrize("name", ["random", "zeros_and_empty_row", "all_zero", "n300"])
    def test_dense_and_sparse_forms_agree(self, name):
        M = protocol_case(name)
        n = M.n
        forms = (M, SparseSymmetric(M.n, *M.triplets()))
        cols = np.array([n - 1, 0, n // 2])
        support = np.flatnonzero(M.a.any(axis=1))
        for A in forms:
            assert A.n == n
            assert A.nnz == np.count_nonzero(M.a)
            assert A.trace() == np.trace(M.a)
            np.testing.assert_array_max_ulp(A.frobenius_norm(), np.linalg.norm(M.a), maxulp=1)
            for got, want in zip(A.triplets(), forms[0].triplets()):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(magnitude_profile(A)[0], magnitude_profile(forms[0])[0])
            # the columns themselves, read through the product with I[:, cols]
            unit = np.zeros((n, cols.size))
            unit[cols, np.arange(cols.size)] = 1.0
            assert np.array_equal(A.columns_matvec(cols, unit), M.a[:, cols])
            expected_block = M.a[np.ix_(cols, cols)] - 0.75 * np.eye(cols.size)
            assert np.array_equal(A.principal_block(cols).minus(shift_identity(3, 0.75)).to_dense().a,
                                  expected_block)
            assert np.array_equal(A.matvec(np.eye(n)), M.a)
            assert np.array_equal(A.to_dense().a, M.a)
            assert A.is_zero() == (not M.a.any())
            # one support rule: exactly the rows holding a nonzero, and the
            # principal block on them unless they are none or all n
            rows, block = A.support_block()
            assert np.array_equal(rows, support)
            if 0 < support.size < n:
                assert type(block) is type(A)
                assert np.array_equal(block.to_dense().a, M.a[np.ix_(support, support)])
            else:
                assert block is A
        # every case has at most 256 support rows, so both forms take one
        # dense solve of equal blocks
        dense, sparse = (sym_eig_partial(A, 2) for A in forms)
        for part in ("values", "vectors", "rest"):
            assert np.array_equal(getattr(dense, part), getattr(sparse, part)), part

        # B is part of M plus one entry outside it, so A - B both cancels
        # and fills entries
        b = np.where(np.abs(M.a) >= np.median(np.abs(M.a)), M.a, 0.0)
        b[0, -1] = b[-1, 0] = 0.25
        B = SymmetricDense(b)
        for A in forms:
            for other in (B, SparseSymmetric(B.n, *B.triplets())):
                result = A.minus(other)
                assert type(result) is type(A)
                assert np.array_equal(result.to_dense().a, M.a - b)


class TestUtilities:
    def test_matvec_identity(self):
        x = np.arange(4.0)
        assert np.array_equal(SymmetricDense(np.eye(4)).matvec(x), x)

    def test_trace_diagonal(self):
        assert SymmetricDense(np.diag([1.0, 2.0, 3.0])).trace() == 6.0

    def test_minus_cancels(self):
        A = random_symmetric(8, 3)
        Z = A.minus(A)
        assert np.all(Z.a == 0)

    def test_minus_sparse(self):
        S = SparseSymmetric(3, [0, 1], [1, 2], [2.0, 3.0])
        Z = S.minus(S)
        assert Z.nnz == 0

    def test_dense_minus_sparse_keeps_sparse_operand(self, monkeypatch):
        A = random_symmetric(8, 4)
        S = SparseSymmetric(8, [0, 1, 3, 5], [0, 4, 3, 7], [1.5, -2.0, 0.25, 3.0])
        expected = A.a - S.to_dense().a

        def refuse(self):
            raise AssertionError("sparse operand densified")

        monkeypatch.setattr(SparseSymmetric, "to_dense", refuse)
        assert np.array_equal(A.minus(S).a, expected)

    def test_minus_dense_result_is_frozen_and_fresh(self):
        A = random_symmetric(8, 5)
        S = SparseSymmetric(8, [0, 2], [3, 2], [1.0, -4.0])
        for B in (S, A):
            E = A.minus(B)
            assert not E.a.flags.writeable
            assert not np.shares_memory(E.a, A.a)

    def test_minus_overflow_raises(self):
        # 1e308 - (-1e308) overflows
        A = SymmetricDense(np.full((3, 3), 1e308))
        for B in (SymmetricDense(-A.a), SparseSymmetric(3, [0], [1], [-1e308])):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
                A.minus(B)

    @pytest.mark.parametrize("build", [
        lambda D, S: SparseSymmetric(3, [0.7], [1.2], [1.0]),
        lambda D, S: D.principal_block([0.5, 2.9]),
        lambda D, S: S.principal_block(np.array([0.0, 2.0])),
        lambda D, S: block_selection(D, [0.2, 1.7]),
        lambda D, S: block_selection(S, [0.2, 1.7]),
    ], ids=["sparse-triplets", "dense-block", "sparse-block", "dense-selection", "sparse-selection"])
    def test_float_indices_raise_type_error(self, build):
        # a float index is refused, never truncated to a row
        D = SymmetricDense(2.0 * np.eye(3))
        S = SparseSymmetric(3, *D.triplets())
        with pytest.raises(TypeError, match="must hold integers, got dtype float64"):
            build(D, S)

    def test_principal_block_is_frozen_and_fresh(self):
        A = random_symmetric(8, 6)
        block = A.principal_block([1, 4, 6])
        assert not block.a.flags.writeable
        assert not np.shares_memory(block.a, A.a)

    @pytest.mark.parametrize("cols", [np.arange(8), np.arange(2, 6), np.array([3])],
                             ids=["all", "inner", "one"])
    def test_range_reads_are_fresh_and_equal_to_gathers(self, cols):
        # a range of indices is read through a slice; the result is the
        # gathered one bit for bit, never a view of A
        A = random_symmetric(8, 6)
        x = np.random.default_rng(1).standard_normal((8, 2))
        product, block = A.columns_matvec(cols, x), A.principal_block(cols)
        assert product.flags.writeable
        assert not np.shares_memory(product, A.a) and not np.shares_memory(block.a, A.a)
        assert np.array_equal(product, (x[cols].T @ np.ascontiguousarray(A.a[list(cols)])).T)
        assert np.array_equal(block.a, A.a[np.ix_(list(cols), list(cols))])

    def test_frobenius_sparse_matches_dense(self):
        S = SparseSymmetric(4, [0, 0, 1, 3], [0, 2, 1, 3], [1.0, 2.0, -1.0, 4.0])
        assert S.frobenius_norm() == pytest.approx(np.linalg.norm(S.to_dense().a))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SymmetricDense(np.eye(2)).minus(SymmetricDense(np.eye(3)))

    def test_nnz_dense(self):
        assert SymmetricDense(np.diag([1.0, 0.0, 2.0])).nnz == 2


class TestFileFormats:
    def test_dense_roundtrip(self, tmp_path):
        A = random_symmetric(7, 19)
        path = tmp_path / "m.txt"
        write_dense(path, A)
        B = read_dense(path)
        assert np.array_equal(A.a, B.a)

    def test_sparse_roundtrip(self, tmp_path):
        S = SparseSymmetric(5, [0, 1, 2], [3, 1, 4], [0.5, -1.25, 3.75])
        path = tmp_path / "s.txt"
        write_sparse(path, S)
        T = read_sparse(path)
        assert T.n == 5
        assert np.array_equal(S.vals, T.vals)
        assert np.array_equal(S.rows, T.rows)

    def test_sparse_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("4 2\n\n0 1 0.5\n   \n3\t3\t-2\n\n")
        T = read_sparse(path)
        assert np.array_equal(T.rows, [0, 3]) and np.array_equal(T.cols, [1, 3])
        assert np.array_equal(T.vals, [0.5, -2.0])
        n, rows, cols = read_mask(path)
        assert n == 4 and rows.dtype == np.int64 and np.array_equal(cols, [1, 3])

    @pytest.mark.parametrize("body", ["0 1\n", "0 1 1.0 7\n", "0.5 1 1.0\n", "1e0 1 1.0\n",
                                      "0 1 x\n", "0 1 1.0\n0 2 1.0\n", ""],
                             ids=["two_fields", "four_fields", "fractional_index", "exponent_index",
                                  "non_numeric_value", "beyond_header_count", "no_triplets"])
    def test_sparse_malformed_lines_rejected(self, tmp_path, body):
        path = tmp_path / "s.txt"
        path.write_text("4 1\n" + body)
        with pytest.raises(ValueError, match="s.txt"):
            read_sparse(path)

    def test_dense_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError):
            read_dense(path)

    def test_dense_non_square_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,2\n2,1\n3,3\n")
        with pytest.raises(ValueError, match="bad.txt"):
            read_dense(path)

    def test_dense_nonnumeric_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,2\nx,4\n")
        with pytest.raises(ValueError, match="line 2"):
            read_dense(path)


class TestCanonicalSigns:
    def test_flips_negative_lead(self):
        v = np.array([[-2.0, 1.0], [1.0, 2.0]])
        out = canonical_signs(v)
        assert out[0, 0] == 2.0 and out[1, 0] == -1.0
        assert out[1, 1] == 2.0


class TestSmallSupport:
    """A sparse matrix whose nonzeros lie in at most 256 of its rows is solved
    densely on those rows; Lanczos on it would exhaust its Krylov space."""

    @staticmethod
    def topleft_block(l):
        # the K^s of trial 0 of 'verify --n 300 --m 10 --seed 11' for l = 10
        K = gen_psd_separated_block(300, 10, seed=derive_seed(11, 30, 0))
        return select_submatrix(K, Selector.top_left(l))

    def test_repeated_calls_equal_padded_block_solve(self, monkeypatch):
        n, m = 300, 10
        Ks = self.topleft_block(m)
        to_dense = SparseSymmetric.to_dense

        def small_only(self):
            assert self.n <= 256, "an n x n array was formed"
            return to_dense(self)

        monkeypatch.setattr(SparseSymmetric, "to_dense", small_only)
        block = sym_eig_full(Ks.principal_block(np.arange(m)), m)
        expected = np.zeros((n, m))
        expected[:m] = block.vectors
        for _ in range(8):
            pairs = sym_eig_partial(Ks, m)
            assert np.array_equal(pairs.values, block.values)
            assert np.array_equal(pairs.vectors, expected)

    def test_padded_zero_among_leading_pairs_raises(self):
        with pytest.raises(EigengapError, match="zero eigenvalues"):
            sym_eig_partial(self.topleft_block(3), 5)

    @pytest.mark.parametrize("diag, m, match", [([-1.0, -2.0], 1, "zero eigenvalues"),
                                                ([2.0, 1.0, 1.0], 2, "eigengap"),
                                                ([2.0, 1e-14], 2, "eigengap")],
                             ids=["negative_block", "tie_inside_block", "tie_with_padded_zero"])
    def test_degenerate_support_raises(self, diag, m, match):
        rows = np.arange(len(diag)) * 7
        with pytest.raises(EigengapError, match=match):
            sym_eig_partial(SparseSymmetric(300, rows, rows, diag), m)


def on_rows(block, rows, n):
    """The n-row sparse matrix that stores ``block`` on the increasing ``rows``."""
    r, c, v = block.triplets()
    return SparseSymmetric(n, rows[r], rows[c], v)


def padded_block_solve(block, rows, n, m):
    """(values, vectors) of ``sym_eig_partial(block, m)``, the vectors moved
    to ``rows`` of n and zero elsewhere."""
    pairs = sym_eig_partial(block, m)
    vectors = np.zeros((n, m))
    vectors[rows] = pairs.vectors
    return pairs.values, vectors


class TestRest:
    """A dense solve keeps the eigenvalues after the m it returns as
    ``rest``, read-only; values and rest together are the whole spectrum."""

    @pytest.mark.parametrize("solve", [sym_eig_full, sym_eig_partial], ids=["full", "partial"])
    def test_dense_solve_keeps_the_spectrum(self, solve):
        A = random_symmetric(50, 19)
        pairs = solve(A, 3)
        assert not pairs.rest.flags.writeable
        assert np.array_equal(np.concatenate((pairs.values, pairs.rest)), sym_eig_full(A).values)

    def test_lanczos_keeps_none(self):
        S = on_rows(gen_wishart_psd(300, seed=3), np.arange(300), 300)
        assert sym_eig_partial(S, 4).rest is None
        # a padded block above 256 rows goes to Lanczos too
        assert sym_eig_partial(on_rows(gen_wishart_psd(300, seed=3), np.arange(300) * 2, 600), 4).rest is None

    def test_padded_solve_ends_with_the_zeros(self):
        n, r, m = 200, 150, 4
        S = on_rows(gen_wishart_psd(r, seed=3), np.arange(r) + 30, n)
        pairs = sym_eig_partial(S, m)
        assert pairs.rest.size == n - m and not pairs.rest.flags.writeable
        assert np.array_equal(pairs.rest[r - m:], np.zeros(n - r))
        spectrum = np.sort(np.concatenate((pairs.values, pairs.rest)))[::-1]
        assert np.allclose(spectrum, sym_eig_full(S).values, rtol=0.0, atol=1e-12 * spectral_norm(S))

    def test_built_by_hand_keeps_none(self):
        assert EigenPairs(np.ones(1), np.eye(3)[:, :1]).rest is None


class TestSupportBlockRule:
    """``sym_eig_partial`` solves a matrix whose nonzeros lie in r < n rows on
    its r-row block at every n, and any other matrix as a whole."""

    # a 600-row matrix with 400 support rows, and a 200-row one with an empty row
    ROWS600 = np.flatnonzero(np.arange(600) % 3 != 2)
    ROWS200 = np.delete(np.arange(200), 100)

    def test_lanczos_receives_only_the_block(self, monkeypatch):
        W = gen_wishart_psd(400, seed=3)
        B = SparseSymmetric(W.n, *W.triplets())
        S = on_rows(B, self.ROWS600, 600)
        values, vectors = padded_block_solve(B, self.ROWS600, 600, 4)
        seen = []
        lanczos = matrixcore._lanczos

        def recording(A, *args, **kwargs):
            seen.append(A)
            return lanczos(A, *args, **kwargs)

        monkeypatch.setattr(matrixcore, "_lanczos", recording)
        pairs = sym_eig_partial(S, 4)
        assert len(seen) == 1 and seen[0].n == 400
        for got, want in zip(seen[0].triplets(), B.triplets()):
            assert np.array_equal(got, want)
        assert np.array_equal(pairs.values, values)
        assert np.array_equal(pairs.vectors, vectors)

    def test_empty_row_below_dense_limit(self):
        B = gen_wishart_psd(199, seed=3)
        pairs = sym_eig_partial(on_rows(B, self.ROWS200, 200), 4)
        values, vectors = padded_block_solve(B, self.ROWS200, 200, 4)
        assert np.array_equal(pairs.values, values)
        assert np.array_equal(pairs.vectors, vectors)
        # every eigenvalue of the negated block is below -0.5, so the leading
        # pair would be the empty row's zero
        with pytest.raises(EigengapError, match="zero eigenvalues"):
            sym_eig_partial(on_rows(SymmetricDense(-B.a), self.ROWS200, 200), 4)

    def test_block_selection_of_all_rows_solves_n_rows(self):
        K = build_kernel(standardize(gen_clustered_dataset(n=300, seed=3)), KernelSpec.gaussian(0.1))
        Ks = select_submatrix(K, Selector.top_left(300))
        assert Ks._block[0].size == 300
        pairs = sym_eig_partial(Ks, 4)
        want = sym_eig_partial(SparseSymmetric(300, *Ks.triplets()), 4)
        assert np.array_equal(pairs.values, want.values)
        assert np.array_equal(pairs.vectors, want.vectors)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("rank", [2, 3, 5])
    def test_low_rank_full_support_is_deterministic(self, sparse, rank):
        # Lanczos for m + 1 <= rank + 1 pairs exhausts the Krylov space of a
        # rank-deficient matrix; the eigsh calls in between move ARPACK's own
        # random state, from which a restart would draw
        x = np.random.default_rng(rank).standard_normal((300, rank))
        A = SymmetricDense(x @ x.T, symmetrize=True)
        A = SparseSymmetric(A.n, *A.triplets()) if sparse else A
        other = random_symmetric(300, 5).a
        for m in range(1, rank + 1):
            first = sym_eig_partial(A, m)
            for _ in range(5):
                spla.eigsh(other, k=3)
                again = sym_eig_partial(A, m)
                assert np.array_equal(again.values, first.values)
                assert np.array_equal(again.vectors, first.vectors)


class TestPartialDegenerateGap:
    def test_iterative_path_rejects_tied_leading_pair(self):
        # diagonal sparse matrix with a tied eigenvalue at the split point,
        # large enough to take the Lanczos path
        n = 300
        vals = np.concatenate([[5.0, 5.0], np.linspace(3.0, 0.1, n - 2)])
        S = SparseSymmetric(n, np.arange(n), np.arange(n), vals)
        with pytest.raises(EigengapError):
            sym_eig_partial(S, 1)

    @pytest.mark.parametrize("A", [SparseSymmetric(300, [], [], []), SymmetricDense(np.zeros((300, 300)))],
                             ids=["sparse", "dense"])
    def test_iterative_path_rejects_zero_matrix(self, monkeypatch, A):
        # every pair ties at 0; Lanczos cannot even start on it.  The empty
        # support rows say so, with no second scan of the entries
        monkeypatch.setattr(type(A), "is_zero", lambda self: pytest.fail("is_zero was called"))
        with pytest.raises(EigengapError, match="no nonzeros"):
            sym_eig_partial(A, 2)


class TestPrincipalBlock:
    @pytest.mark.parametrize("shift", [0.0, 0.75])
    def test_equals_rows_of_sampled_columns(self, shift):
        # the block, less shift * I, is bit-identical to the rows cols of
        # A[:, cols] with the shift taken off the diagonal, and keeps A's type
        A = random_symmetric(30, 23)
        A = SymmetricDense(np.where(np.abs(A.a) > 0.5, A.a, 0.0))
        cols = np.array([7, 2, 19, 11, 0, 25])
        expected = A.to_dense().a[:, cols][cols]
        expected[np.arange(cols.size), np.arange(cols.size)] -= shift
        for K in (A, SparseSymmetric(A.n, *A.triplets())):
            block = K.principal_block(cols).minus(shift_identity(cols.size, shift))
            assert type(block) is type(K)
            assert np.array_equal(block.to_dense().a, expected)



class TestRawArrayInput:
    """Entry points that take a matrix name the two accepted types when they
    get a raw array."""

    def test_sym_eig_full(self):
        with pytest.raises(TypeError, match="SymmetricDense or SparseSymmetric"):
            sym_eig_full(np.eye(3))


class TestCachedForms:
    def test_dense_triplets_and_order_formed_once(self, monkeypatch):
        A = SymmetricDense(np.where(np.abs(random_symmetric(40, 3).a) > 0.7, 1.0, 0.0))
        first = A.triplets()
        calls = []
        monkeypatch.setattr(np, "triu", lambda *a, **k: calls.append(a))
        assert A.triplets() is first and calls == []
        assert all(not arr.flags.writeable for arr in first)
        order = magnitude_profile(A)[0]
        assert magnitude_profile(A)[0] is order and not order.flags.writeable
        for fresh in (SymmetricDense(A.a), SymmetricDense._adopt(np.array(A.a))):
            assert fresh._triplets is None and fresh._magnitude is None

    def test_magnitude_profile_counts_pairs_twice(self):
        S = SparseSymmetric(4, [0, 0, 1, 2], [0, 3, 2, 2], [1.0, -5.0, 2.0, 3.0])
        order, cum = magnitude_profile(S)
        assert order.tolist() == [1, 3, 2, 0]
        assert cum.tolist() == [2, 3, 5, 6] and cum[-1] == S.nnz

    def test_sparse_matvec_operator_matches_bare_csr(self):
        import scipy.sparse.linalg as spla

        a = random_symmetric(400, 5).a
        D = SymmetricDense(np.where(np.abs(a) > 1.5, a, 0.0))
        S = SparseSymmetric(D.n, *D.triplets())
        v0 = np.linspace(1.0, 2.0, S.n)
        x = np.linspace(-1.0, 1.0, S.n)
        op = spla.LinearOperator((S.n, S.n), matvec=S.matvec, dtype=float)
        assert np.array_equal(op.matvec(x), S._csr_form() @ x)
        via_matvec = spla.eigsh(op, k=4, which="LA", v0=v0)
        via_csr = spla.eigsh(S._csr_form(), k=4, which="LA", v0=v0)
        for a, b in zip(via_matvec, via_csr):
            assert np.array_equal(a, b)


class TestPrincipalBlockFromTriplets:
    @pytest.mark.parametrize("shift", [0.0, 0.75, -2.0])
    def test_unsorted_cols_and_empty_diagonal(self, monkeypatch, shift):
        a = random_symmetric(40, 9).a
        a = np.where(np.abs(a) > 0.9, a, 0.0)
        a[np.arange(0, 40, 2), np.arange(0, 40, 2)] = 0.0
        a[3, 3] = 0.75
        A = SymmetricDense(a)
        S = SparseSymmetric(A.n, *A.triplets())
        builds = []
        monkeypatch.setattr(matrixcore, "_mirrored_csr",
                            lambda *args: builds.append(args) or (None, None))
        cols = np.array([31, 3, 17, 0, 8, 22, 39, 12])
        block = S.principal_block(cols).minus(shift_identity(cols.size, shift))
        assert builds == []
        expected = a[np.ix_(cols, cols)] - shift * np.eye(cols.size)
        monkeypatch.undo()
        assert np.array_equal(block.to_dense().a, expected)
        assert np.count_nonzero(block.to_dense().a) == block.nnz
        with pytest.raises(ValueError, match="distinct"):
            S.principal_block([3, 8, 3])


def _old_dense_shifted_block(self, cols, shift):
    """The body of ``SymmetricDense.principal_block(cols, shift)`` from before
    ``shift`` was removed, copied verbatim: the oracle of a shifted block."""
    cols = matrixcore._indices(cols, "cols")
    span = matrixcore._span(cols)
    block = self.a[np.ix_(cols, cols)] if span is cols else self.a[span, span].copy()
    block[np.arange(cols.size), np.arange(cols.size)] -= shift
    return SymmetricDense._adopt(block)


def _old_sparse_shifted_block(self, cols, shift):
    """The body of ``SparseSymmetric.principal_block(cols, shift)`` from before
    ``shift`` was removed, copied verbatim: the oracle of a shifted block."""
    cols = matrixcore._indices(cols, "cols")
    l = cols.size
    place = np.full(self._n, -1, dtype=np.int64)
    place[cols] = np.arange(l)
    if not np.array_equal(place[cols], np.arange(l)):
        raise ValueError("principal_block needs distinct cols")
    r, c = place[self.rows], place[self.cols]
    inside = (r >= 0) & (c >= 0)
    r, c, v = r[inside], c[inside], self.vals[inside]
    # cols out of order can put an entry below the block's diagonal
    r, c = np.minimum(r, c), np.maximum(r, c)
    if shift:
        diag = r == c
        v = np.where(diag, v - shift, v)
        empty = np.ones(l, dtype=bool)
        empty[r[diag]] = False
        fill = np.flatnonzero(empty)
        r, c = np.concatenate([r, fill]), np.concatenate([c, fill])
        v = np.concatenate([v, np.full(fill.size, -shift)])
    block = SparseSymmetric(l, r, c, v)
    if self._csr is not None and not shift:
        span = matrixcore._span(cols)
        block._csr = self._csr[span, span] if span is not cols else self._csr[np.ix_(cols, cols)]
        block._csr.sort_indices()
    return block


class TestShiftedBlock:
    """A shifted block is ``principal_block(cols).minus(shift * I)``: bit for
    bit the block the shift parameter of ``principal_block`` once gave."""

    @pytest.mark.parametrize("shift", [0.75, -2.0])
    @pytest.mark.parametrize("cols", [np.array([31, 3, 17, 0, 8, 22, 39, 12]), np.arange(4, 20)],
                             ids=["unsorted", "range"])
    def test_equals_the_old_shifted_block(self, shift, cols):
        # even rows have an empty diagonal entry, and row 3 one that a shift
        # of 0.75 cancels
        a = random_symmetric(40, 9).a
        a = np.where(np.abs(a) > 0.9, a, 0.0)
        a[np.arange(0, 40, 2), np.arange(0, 40, 2)] = 0.0
        a[3, 3] = 0.75
        D = SymmetricDense(a)
        S = SparseSymmetric(D.n, *D.triplets())
        S.matvec(np.ones(S.n))  # the CSR an unshifted block would cut
        got = D.principal_block(cols).minus(shift_identity(cols.size, shift))
        assert got.a.tobytes() == _old_dense_shifted_block(D, cols, shift).a.tobytes()
        got = S.principal_block(cols).minus(shift_identity(cols.size, shift))
        want = _old_sparse_shifted_block(S, cols, shift)
        assert got.n == want.n and got._csr is None and want._csr is None
        for x, y in zip(got.triplets(), want.triplets()):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestBlockCsrCut:
    """An unshifted principal block of a sparse matrix whose CSR exists cuts
    its CSR from that one, bit for bit the CSR its own triplets would build."""

    @staticmethod
    def sparse(n=60, seed=12):
        a = random_symmetric(n, seed).a
        a = np.where(np.abs(a) > 0.8, a, 0.0)
        a[5, :] = a[:, 5] = 0.0
        D = SymmetricDense(a)
        return SparseSymmetric(D.n, *D.triplets())

    @pytest.mark.parametrize("cols", [
        np.arange(60), np.arange(10, 45), np.array([7]), np.array([2, 5, 9, 30, 31, 58]),
        np.array([31, 3, 17, 0, 8, 22, 59, 12, 5]), np.array([40, 39, 38, 37])],
        ids=["all", "range", "one", "sorted", "unsorted", "descending"])
    def test_cut_equals_built(self, monkeypatch, cols):
        S = self.sparse()
        cold = S.principal_block(cols)
        S.matvec(np.ones(S.n))
        builds = []
        monkeypatch.setattr(matrixcore, "_mirrored_csr", lambda *args: builds.append(args))
        warm = S.principal_block(cols)
        assert builds == [] and warm._csr is not None and cold._csr is None
        monkeypatch.undo()
        built = matrixcore._mirrored_csr(warm.n, *warm.triplets())
        assert warm._csr.shape == built.shape and warm._csr.has_sorted_indices
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(warm._csr, part), getattr(built, part)), part
        for a, b in zip(warm.triplets(), cold.triplets()):
            assert np.array_equal(a, b)
        x = np.linspace(-1.0, 1.0, cols.size)
        assert np.array_equal(warm.matvec(x), cold.matvec(x))

    def test_shifted_block_builds_its_own(self):
        S = self.sparse()
        S.matvec(np.ones(S.n))
        assert S.principal_block(np.arange(10)).minus(shift_identity(10, 0.5))._csr is None

    def test_dense_block_selection_keeps_no_triplets(self):
        # K^s shares the block's values; the block itself is only solved
        K = random_symmetric(40, 13)
        Ks = block_selection(K, np.arange(5, 30))
        rows, block = Ks._block
        assert block._triplets is None
        assert np.array_equal(Ks.to_dense().a[np.ix_(rows, rows)], block.a)


def dense_and_sparse(a):
    """The matrix of the symmetric array a in both types."""
    D = SymmetricDense(a)
    return D, SparseSymmetric(D.n, *D.triplets())


class TestBlockIndices:
    """A principal block, and so a block selection, takes distinct indices in
    [0, n) on both types; anything else raises ValueError, never wraps,
    empties or repeats a row."""

    FOUR = np.arange(16.0).reshape(4, 4) + np.arange(16.0).reshape(4, 4).T

    @pytest.mark.parametrize("kind", [0, 1], ids=["dense", "sparse"])
    @pytest.mark.parametrize("cols", [[-1, 0], [0, 4], [4], [3, 3], [2, 0, 2]],
                             ids=["negative", "n", "only-n", "repeat", "repeat-apart"])
    def test_principal_block_rejects(self, kind, cols):
        K = dense_and_sparse(self.FOUR)[kind]
        with pytest.raises(ValueError, match=r"distinct cols in \[0, 4\)"):
            K.principal_block(cols)

    @pytest.mark.parametrize("kind", [0, 1], ids=["dense", "sparse"])
    @pytest.mark.parametrize("rows", [[-1, 0], [0, 4], [-3]], ids=["negative", "n", "only-negative"])
    def test_block_selection_rejects_rows_out_of_range(self, kind, rows):
        K = dense_and_sparse(self.FOUR)[kind]
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            block_selection(K, rows)

    @pytest.mark.parametrize("kind", [0, 1], ids=["dense", "sparse"])
    def test_block_selection_takes_a_set(self, kind):
        # rows name a set: a repeat collapses, as np.unique makes it
        K = dense_and_sparse(random_symmetric(9, 2).a)[kind]
        repeated, distinct = block_selection(K, [6, 1, 6, 3]), block_selection(K, [1, 3, 6])
        for got, want in zip(repeated.triplets(), distinct.triplets()):
            assert np.array_equal(got, want)


def _sparse_case(n, seed, density):
    """A random symmetric n x n array with about ``density`` of its entries nonzero."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = np.where(rng.random((n, n)) < density, a, 0.0)
    return np.triu(a) + np.triu(a, 1).T


class TestRestriction:
    """``restriction(K, keep)`` has one body for both types: it gathers K's
    triplets at ``keep`` and records (K, keep), which ``_selection`` reads."""

    @pytest.mark.parametrize("kind", [0, 1], ids=["dense", "sparse"])
    @pytest.mark.parametrize("keep", [
        lambda size: np.ones(size - 1, dtype=bool),
        lambda size: np.ones(size + 1, dtype=bool),
        lambda size: np.ones(size),
        lambda size: np.arange(size),
        lambda size: np.ones((1, size), dtype=bool),
        lambda size: [True, False, True],
    ], ids=["short", "long", "float", "int", "2-D", "list"])
    def test_wrong_keep_raises(self, kind, keep):
        K = dense_and_sparse(_sparse_case(5, 1, 0.5))[kind]
        size = K.triplets()[2].size
        assert size > 3
        with pytest.raises(ValueError, match=f"one bool per triplet \\({size}\\)"):
            restriction(K, keep(size))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10_000), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_equals_the_constructor(self, n, seed, density, share):
        a = _sparse_case(n, seed, density)
        keep_rng = np.random.default_rng(seed + 1)
        for K in dense_and_sparse(a):
            keep = keep_rng.random(K.triplets()[2].size) < share
            want = SparseSymmetric(n, *(x[keep] for x in K.triplets()))
            got = restriction(K, keep)
            assert got.n == n
            for g, w in zip(got.triplets(), want.triplets()):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
                assert not g.flags.writeable
            got_keep, got_rows = _selection(got, K)
            assert np.array_equal(got_keep, keep) and got_rows is None
            assert not got_keep.flags.writeable and not np.shares_memory(got_keep, keep)
            if type(K) is SparseSymmetric:
                # the shortcut E equals the general merge, byte for byte
                shortcut, merged = K.minus(got), K.minus(want)
                assert _selection(want, K) == (None, None)
                for g, w in zip(shortcut.triplets(), merged.triplets()):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            else:
                assert np.array_equal(K.minus(got).a, K.minus(want).a)


def _old_write_rows(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def _old_write_sparse(path, S):
    with open(path, "w") as fh:
        fh.write(f"{S.n} {S.vals.size}\n")
        for i, j, v in zip(S.rows, S.cols, S.vals):
            fh.write(f"{i} {j} {v:.17g}\n")


class TestWritersBytes:
    """The writers format Python scalars in bulk, byte for byte as the old
    per-value loops did."""

    @staticmethod
    def values(rng, size):
        mags = 10.0 ** rng.uniform(-300, 300, size)
        v = rng.choice([-1.0, 1.0], size) * mags
        v[::7] = rng.standard_normal(v[::7].size)
        v[::11] = np.round(v[::11])
        special = [5e-324, -1.7976931348623157e308, 1.0 / 3.0, -0.0]
        v[:len(special)] = special[:size]
        return v

    @pytest.mark.parametrize("shape", [(1, 1), (5, 1), (7, 3), (3000, 25)])
    def test_write_rows(self, tmp_path, monkeypatch, shape):
        rng = np.random.default_rng(shape[0])
        a = self.values(rng, shape[0] * shape[1]).reshape(shape)
        a[-1, -1] = np.inf
        monkeypatch.setattr(matrixcore, "_WRITE_CHUNK", 64)
        matrixcore.write_rows(tmp_path / "new", a)
        _old_write_rows(tmp_path / "old", a)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()

    @pytest.mark.parametrize("n, count", [(1, 1), (30, 0), (2000, 5000)])
    def test_write_sparse(self, tmp_path, monkeypatch, n, count):
        rng = np.random.default_rng(count)
        i, j = np.triu_indices(n)
        pick = rng.choice(i.size, size=min(count, i.size), replace=False)
        S = SparseSymmetric(n, i[pick], j[pick], self.values(rng, pick.size))
        monkeypatch.setattr(matrixcore, "_WRITE_CHUNK", 100)
        write_sparse(tmp_path / "new", S)
        _old_write_sparse(tmp_path / "old", S)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()
        back = read_sparse(tmp_path / "new")
        assert np.array_equal(back.vals, S.vals) and np.array_equal(back.cols, S.cols)
