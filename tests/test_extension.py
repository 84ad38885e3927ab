import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from perturbext import extension, matrixcore
from perturbext.cli import main as cli_main
from perturbext.extension import (
    ExtensionConfig,
    Selector,
    _uniform_mean,
    block_extend,
    extend_with_submatrix,
    kernel_approx,
    pert_extend,
    select_submatrix,
)
from perturbext.experiments import run_band_experiment, run_sparse_experiment
from perturbext.kernels import (
    KernelSpec,
    build_kernel,
    gen_band_matrix,
    gen_clustered_dataset,
    gen_wishart_psd,
    sparsify,
    standardize,
)
from perturbext.matrixcore import (
    ConvergenceError,
    EigengapError,
    EigenPairs,
    SparseSymmetric,
    SymmetricDense,
    block_selection,
    magnitude_profile,
    principal_angle,
    read_sparse,
    restriction,
    spectral_norm,
    sym_eig_full,
    write_sparse,
)
from perturbext.nystrom import nystrom_extend
from perturbext.perturbation import (
    MuPolicy,
    PerturbationProblem,
    bound_terms,
    classical_eigval_update,
    mu_mean,
    truncated_first_order,
    truncated_second_order,
)


def to_full(S):
    return S.to_dense().a


def mask_buffer(rows, cols):
    """A mask ``Selector``'s pair buffer: the int64 rows, then the cols, as given."""
    return np.array([*rows, *cols], dtype=np.int64).tobytes()


class TestSelectors:
    def test_full_mask_is_identity_selection(self):
        K = gen_wishart_psd(12, seed=1)
        Ks = select_submatrix(K, Selector.custom_mask(*np.triu_indices(12)))
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
        total = K.nnz
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

    def test_sparse_top_q_sorts_once_with_same_ties(self):
        # magnitudes drawn from four values, so the budget cut falls inside
        # runs of ties; a sparse K sorts once and cuts exactly where the
        # dense K of the same entries does
        a = np.round(gen_wishart_psd(30, seed=6).a * 4) / 4
        a = SymmetricDense(np.where(np.abs(a) <= 1.0, np.sign(a), a))
        S = SparseSymmetric(a.n, *a.triplets())
        first = magnitude_profile(S)[0]
        for q in (0.05, 0.3, 0.31, 0.7, 1.0):
            dense_sel = select_submatrix(a, Selector.sparse_top_q(q))
            sparse_sel = select_submatrix(S, Selector.sparse_top_q(q))
            for name in ("rows", "cols", "vals"):
                assert np.array_equal(getattr(dense_sel, name), getattr(sparse_sel, name))
        assert magnitude_profile(S)[0] is first
        assert not first.flags.writeable

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

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_blocks_are_union_of_principal_blocks(self, sparse):
        B = gen_band_matrix(40, seed=8)
        K = B if sparse else B.to_dense()
        sizes = (10, 17, 13)
        Ks = select_submatrix(K, Selector.block_diag(sizes))
        parts = []
        for start, size in zip(np.cumsum((0,) + sizes[:-1]), sizes):
            r, c, v = K.principal_block(np.arange(start, start + size)).triplets()
            parts.append((r + start, c + start, v))
        expected = SparseSymmetric(40, *(np.concatenate(arrays) for arrays in zip(*parts)))
        assert Ks.nnz < B.nnz
        for name in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(Ks, name), getattr(expected, name))
        with pytest.raises(ValueError, match="block sizes sum to 39, expected 40"):
            select_submatrix(K, Selector.block_diag((10, 17, 12)))

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
        assert Selector.parse("topleft:5").param == 5
        assert Selector.parse("band:3").param == 3
        assert Selector.parse("sparse:0.25").param == 0.25
        assert Selector.parse("blocks:2,3,4").param == (2, 3, 4)
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
        assert sel.mask_pairs[0].tolist() == [0, 1]

    @pytest.mark.parametrize("kind, param", [
        ("sparse", float("nan")), ("sparse", 2.0), ("sparse", -1.0), ("sparse", 0.0),
        ("blocks", (30, -1, 31)), ("blocks", ()),
        ("band", -1), ("topleft", 0),
        ("mask", (0, b"")), ("mask", (0, mask_buffer((0, 1), (1,)))),
        ("mask", (0, mask_buffer((2,), (1,)))),
        ("mask", (0, mask_buffer((-1,), (1,)))),
        ("mask", (-1, mask_buffer((0,), (1,)))),
        # a buffer that ends inside an int64 or a (row, col) pair
        ("mask", (0, mask_buffer((0,), (1,)) + bytes(4))),
        ("mask", (0, mask_buffer((0,), (1,)) + bytes(8))),
        # a mask parameter is exactly (n, pairs)
        ("mask", (0, mask_buffer((0,), (1,)), 5)),
        ("banana", 1),
    ])
    def test_direct_construction_is_checked(self, kind, param):
        with pytest.raises(ValueError) as caught:
            Selector(kind, param)
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize("kind, param", [
        ("topleft", 2.0), ("topleft", "3"), ("band", 1.5), ("band", None), ("sparse", None),
        ("sparse", "0.5"), ("sparse", [0.5]), ("blocks", 5), ("blocks", (2, 3.0)), ("mask", 3),
        ("mask", (0.0, mask_buffer((0,), (1,)))), ("mask", (0, [0, 1])),
    ])
    def test_parameter_of_the_wrong_type_raises_type_error(self, kind, param):
        with pytest.raises(TypeError):
            Selector(kind, param)

    @pytest.mark.parametrize("kind", ["topleft", "band", "sparse", "blocks", "mask"])
    def test_construction_without_parameter_raises_type_error(self, kind):
        with pytest.raises(TypeError):
            Selector(kind)

    @pytest.mark.parametrize("rows, cols", [([], []), ([-1, 2], [3, 1]), ([-2], [-1]), ([0, 1], [1])])
    def test_bad_custom_mask_raises(self, rows, cols):
        with pytest.raises(ValueError):
            Selector.custom_mask(rows, cols)

    def test_direct_construction_equals_classmethod(self):
        assert Selector("band", 3) == Selector.band(3)
        assert Selector("mask", (0, mask_buffer((0, 1), (2, 1)))) == Selector.custom_mask([2, 1], [0, 1])

    def test_parameter_is_stored_in_one_form(self):
        for sel, param in [(Selector.top_left(np.int64(4)), 4), (Selector.band(np.int32(2)), 2),
                           (Selector.sparse_top_q(1), 1.0), (Selector.block_diag(np.array([2, 3])), (2, 3)),
                           (Selector("mask", (np.int64(3), bytearray(mask_buffer((0,), (1,))))),
                            (3, mask_buffer((0,), (1,))))]:
            assert sel.param == param and type(sel.param) is type(param)
        assert hash(Selector.top_left(np.int64(4))) == hash(Selector.top_left(4))

    def test_mask_pairs_are_a_read_only_view(self):
        sel = Selector.custom_mask([2, 0, 1], [0, 3, 1])
        pairs = sel.mask_pairs
        assert pairs.dtype == np.int64 and pairs.tolist() == [[0, 0, 1], [2, 3, 1]]
        assert not pairs.flags.writeable
        with pytest.raises(ValueError):
            pairs[0, 0] = 5

    def test_mask_selectors_compare_and_hash(self):
        a = Selector.custom_mask([2, 0, 1], [0, 3, 1])
        b = Selector.custom_mask([0, 3, 1], [2, 0, 1])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Selector.custom_mask([0, 1], [2, 1])
        assert Selector.custom_mask(*np.triu_indices(4)) == Selector.custom_mask(*np.triu_indices(4))
        assert Selector.custom_mask(*np.triu_indices(4)) != Selector.custom_mask(*np.triu_indices(5))

    @pytest.mark.parametrize("wrap", [bytearray, memoryview, lambda b: np.frombuffer(b, np.int64).copy()])
    def test_mutable_mask_buffer_is_copied(self, wrap):
        # the selector keeps the pairs it checked, whatever the caller later
        # writes into the buffer it passed
        buffer = wrap(bytearray(mask_buffer((0, 1), (2, 1))))
        sel = Selector("mask", (0, buffer))
        np.frombuffer(buffer, np.uint8)[0] = 9
        assert sel.mask_pairs.tolist() == [[0, 1], [2, 1]]
        assert type(sel.param[1]) is bytes and not sel.mask_pairs.flags.writeable
        built = Selector.custom_mask([2, 1], [0, 1])
        assert sel == built and hash(sel) == hash(built)


@pytest.mark.parametrize("build, error", [
    (lambda: Selector("band", size=5), TypeError),
    (lambda: Selector.top_left(2.7), TypeError),
    (lambda: Selector.block_diag([2.5, 3.9]), TypeError),
    (lambda: Selector.custom_mask([0.7], [1.2]), TypeError),
    (lambda: KernelSpec.polynomial(2.5), TypeError),
    (lambda: KernelSpec("linear", gamma=7.0), TypeError),
    (lambda: MuPolicy("zero", 3.0), ValueError),
], ids=["band-size", "topleft-float", "blocks-floats", "mask-floats", "poly-float", "linear-gamma",
        "zero-mu-value"])
def test_a_value_the_kind_ignores_or_truncates_is_rejected(build, error):
    """A config holds only its kind's one parameter, of its type: a value
    the kind would ignore, or a float it would truncate to a count or an
    index, raises a typed error instead of building another config."""
    with pytest.raises(error):
        build()


def _tuple_upper_pairs(rows, cols):
    """Oracle: the tuple-based mask normalization the int64 buffer replaced,
    kept verbatim: upper-triangle pairs in row-major order, each once."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ValueError("mask rows/cols must be equally sized 1-D arrays")
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    # a negative index decodes to a negative row, which Selector rejects
    base = int(np.abs(hi).max(initial=0)) + 1
    key = np.unique(lo * base + hi)
    return tuple((key // base).tolist()), tuple((key % base).tolist())


def _tuple_mask_selection(K, mask_rows, mask_cols):
    """Oracle: the mask branch of ``select_submatrix`` over those tuples, verbatim."""
    n = K.n
    rows, cols, _ = K.triplets()
    mask_rows = np.array(mask_rows, dtype=np.int64)
    mask_cols = np.array(mask_cols, dtype=np.int64)
    if int(mask_cols.max()) >= n:
        raise ValueError("mask index out of range")
    keep = np.isin(rows * n + cols, mask_rows * n + mask_cols)
    return restriction(K, keep)


class TestMaskRoutes:
    """A mask file and ``custom_mask`` of the same pairs hold equal buffers,
    and both select the K^s the tuple-based code selected, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 30), seed=st.integers(0, 1000))
    def test_file_and_custom_mask_equal_the_tuple_oracle(self, data, n, seed):
        # pairs in any order, with repeats and in either triangle
        entries = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                     min_size=1, max_size=3 * n))
        rows, cols = (list(side) for side in zip(*entries))
        # the file holds each pair once, upper triangle, in a drawn order
        upper = data.draw(st.permutations(sorted({(min(p), max(p)) for p in entries})))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pairs.mask"
            path.write_text(f"{n} {len(upper)}\n" + "".join(f"{i} {j} 1\n" for i, j in upper))
            from_file = Selector.parse(f"mask:{path}")
        custom = Selector.custom_mask(rows, cols)
        oracle = _tuple_upper_pairs(rows, cols)
        assert from_file.param == (n, custom.param[1]) and custom.param[0] == 0
        assert custom.mask_pairs.tolist() == [list(oracle[0]), list(oracle[1])]
        K = gen_wishart_psd(n, seed=seed)
        for A in (K, sparsify(K, 0.5)):
            want = _tuple_mask_selection(A, *oracle)
            for sel in (from_file, custom):
                got = select_submatrix(A, sel)
                assert got.n == want.n
                for a, b in zip(got.triplets(), want.triplets()):
                    assert a.dtype == b.dtype and np.array_equal(a, b)


class TestPertExtend:
    def test_full_mask_reproduces_exact_pairs(self):
        K = gen_wishart_psd(30, seed=8)
        res = pert_extend(K, Selector.custom_mask(*np.triu_indices(30)), ExtensionConfig(m=6))
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
            S = SparseSymmetric(K.n, *K.triplets())
            for cfg in (ExtensionConfig(m=4), ExtensionConfig(m=4, order=2, mu=MuPolicy.mean())):
                dense = extend_with_submatrix(K, select_submatrix(K, Selector.band(p)), cfg)
                sparse = extend_with_submatrix(S, select_submatrix(S, Selector.band(p)), cfg)
                for a, b in ((dense.values, sparse.values), (dense.vectors, sparse.vectors),
                             (dense.bound_terms, sparse.bound_terms)):
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_one_e_product_per_extension(self, monkeypatch, sparse):
        # the vector and the value update share E V; order 1 never applies K^s
        K = gen_wishart_psd(40, seed=24)
        K = SparseSymmetric(K.n, *K.triplets()) if sparse else K
        calls = []
        original = type(K).matvec

        def counting(self, x):
            calls.append(x.shape)
            return original(self, x)

        monkeypatch.setattr(type(K), "matvec", counting)
        pert_extend(K, Selector.band(5), ExtensionConfig(m=4))
        assert len(calls) == 1


class TestValueUpdates:
    def test_full_selection_keeps_values(self):
        K = gen_wishart_psd(15, seed=11)
        Ks = select_submatrix(K, Selector.custom_mask(*np.triu_indices(15)))
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
        res = pert_extend(K, Selector.custom_mask(*np.triu_indices(15)), ExtensionConfig(m=4))
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
        for A in (K, SparseSymmetric(K.n, *K.triplets())):
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
        cases = ((wishart, 40), (SparseSymmetric(wishart.n, *wishart.triplets()), 40),
                 (gen_band_matrix(400, seed=26), 20))
        for A, p in cases:
            Ks = select_submatrix(A, Selector.band(p))
            spectrum = sym_eig_full(Ks).values
            norm_e = spectral_norm(A.minus(Ks))
            for mu in (MuPolicy.zero(), MuPolicy.mean()):
                res1 = extend_with_submatrix(A, Ks, ExtensionConfig(m=m, mu=mu))
                res2 = extend_with_submatrix(A, Ks, ExtensionConfig(m=m, order=2, mu=mu))
                t = res2.source_pairs.values
                mu_val = 0.0 if mu.kind == "zero" else mu_mean(Ks.trace(), t, Ks.n)
                np.testing.assert_allclose(
                    res2.bound_terms, bound_terms(t, spectrum[m:], mu_val, norm_e, 2),
                    rtol=1e-12, atol=0.0)
                exact1 = bound_terms(t, spectrum[m:], mu_val, norm_e, 1)
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
            Ks = SparseSymmetric(K.n, *K.triplets())
            res = extend_with_submatrix(Kp, Ks, ExtensionConfig(m=m))
            exact = sym_eig_full(Kp).vectors[:, :m]
            for col in range(m):
                v = exact[:, col]
                if np.dot(res.vectors[:, col], v) < 0:
                    v = -v
                err = np.linalg.norm(res.vectors[:, col] - v)
                assert err <= 2.0 * res.bound_terms[col] + 1e-12


# n, order and an explicit mu whose tail sum overflows: the trace identity
# above n = 256, the summed |t_k - mu|^order below it.  At n = 40 and order 1
# the sum of 36 terms of about 1e160 stays finite.
HUGE_MU = [(n, order, mu) for n in (40, 300) for order in (1, 2) for mu in (1e160, 1e308)
           if (n, order, mu) != (40, 1, 1e160)]


def _terms_before_guard(res, mu, order):
    """The bound terms as computed before the overflow guard existed."""
    K, Ks, values = res._K, res._Ks, res.source_pairs.values
    n, m = Ks.n, values.size
    if n <= 256:
        d = np.abs(np.linalg.eigvalsh(Ks.to_dense().a)[::-1][m:] - mu)
        total = float(np.sum(d) if order == 1 else np.dot(d, d))
    else:
        d = values - mu
        sq = max(0.0, float(Ks.frobenius_norm() ** 2 - 2.0 * mu * Ks.trace() + n * mu * mu - np.dot(d, d)))
        total = sq if order == 2 else float(np.sqrt((n - m) * sq))
    gap = np.abs(values - values[-1])
    out = np.full(m, np.inf)
    ok = gap >= 1e-12
    out[ok] = total / (gap[ok] * np.abs(values[ok] - mu) ** order) * spectral_norm(K.minus(Ks))
    return out


@pytest.mark.filterwarnings("error")
class TestHugeMu:
    """A mu that overflows the tail sum of the bound terms raises ValueError
    naming it, with no warning; a large mu that does not keeps its terms."""

    @staticmethod
    def extend(n, order, mu):
        return pert_extend(gen_wishart_psd(n, seed=3), Selector.band(5),
                           ExtensionConfig(m=4, order=order, mu=MuPolicy.explicit(mu)))

    @pytest.mark.parametrize("n, order, mu", HUGE_MU)
    def test_overflowing_tail_raises(self, n, order, mu):
        res = self.extend(n, order, mu)
        with pytest.raises(ValueError, match=re.escape(f"overflows at mu = {mu:g}")):
            res.bound_terms

    @pytest.mark.parametrize("n", [40, 300])
    @pytest.mark.parametrize("order", [1, 2])
    def test_finite_tail_keeps_terms(self, n, order):
        for mu in (1e100,) + ((1e160,) if (n, order) == (40, 1) else ()):
            res = self.extend(n, order, mu)
            assert np.array_equal(res.bound_terms, _terms_before_guard(res, mu, order))
            assert np.all(np.isfinite(res.bound_terms[:-1]) & (res.bound_terms[:-1] > 0.0))


class TestKernelApprox:
    def test_full_reconstruction(self):
        K = gen_wishart_psd(12, seed=16)
        res = pert_extend(K, Selector.custom_mask(*np.triu_indices(12)), ExtensionConfig(m=12))
        approx = kernel_approx(res.values, res.vectors)
        scale = spectral_norm(K)
        assert np.max(np.abs(approx.a - K.a)) <= 1e-8 * scale

    def test_single_pair_outer_product(self):
        vals = np.array([3.0])
        vecs = np.zeros((4, 1))
        vecs[0, 0] = 1.0
        approx = kernel_approx(vals, vecs)
        expected = np.zeros((4, 4))
        expected[0, 0] = 3.0
        assert np.array_equal(approx.a, expected)

    def test_rank_at_most_m(self):
        K = gen_wishart_psd(25, seed=17)
        res = pert_extend(K, Selector.band(8), ExtensionConfig(m=5))
        approx = kernel_approx(res.values, res.vectors)
        svals = np.linalg.svd(approx.a, compute_uv=False)
        assert np.all(svals[5:] <= 1e-10 * svals[0])

    def test_matches_nystrom_kernel_approx_for_topleft(self):
        # the sqrt(m/n) and n/m factors cancel inside lambda * u u^T
        n, m = 40, 6
        K = gen_wishart_psd(n, seed=18)
        res = pert_extend(K, Selector.top_left(m), ExtensionConfig(m=m))
        approx_pert = kernel_approx(res.values, res.vectors)
        approx_nys = kernel_approx(*nystrom_extend(K, m))
        assert np.max(np.abs(approx_pert.a - approx_nys.a)) <= 1e-10 * spectral_norm(K)

    H = extension._APPROX_ROWS

    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.sampled_from([H - 1, H, H + 1, 2 * H + 1]), st.integers(1, 2 * H + 2)),
           m=st.integers(1, 40), seed=st.integers(0, 10_000))
    def test_upper_triangle_slabs_match_averaged_product(self, n, m, seed):
        rng = np.random.default_rng(seed)
        # values of both signs over a few orders of magnitude
        values = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 3, m)
        vectors = rng.standard_normal((n, m))
        got, want = kernel_approx(values, vectors).a, _kernel_approx_reference(values, vectors).a
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_overflowing_product_rejected(self):
        vectors = np.full((2 * self.H + 1, 3), 1e160)
        for approx in (kernel_approx, _kernel_approx_reference):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="finite"):
                    approx(np.array([1.0, -1.0, 2.0]), vectors)


def _kernel_approx_reference(values, vectors):
    """kernel_approx as it was before it computed only the upper triangle:
    the whole product, averaged with its transpose in place."""
    p = (vectors * values[None, :]) @ vectors.T
    return SymmetricDense._adopt(matrixcore._average_transpose(p, p))


def _block_extend_reference(K, block_sizes, cfg: ExtensionConfig, members=None):
    """block_extend as it selected each member's K^s by one mask per member
    over all stored triplets of K; the members' K^s go to ``members``.  Such
    a hand-built K^s takes the general path, so the per-block selection must
    reproduce its triplets bit for bit and its combination to rounding."""
    n = K.n
    block_sizes = tuple(int(s) for s in block_sizes)
    if sum(block_sizes) != n:
        raise ValueError(f"block sizes sum to {sum(block_sizes)}, expected {n}")
    bounds = np.cumsum((0,) + block_sizes)
    block_of = np.searchsorted(bounds, np.arange(n), side="right") - 1
    rows, cols, vals = K.triplets()

    def member(j):
        inside = (block_of[rows] == j) & (block_of[cols] == j)
        Ks_j = SparseSymmetric(n, rows[inside], cols[inside], vals[inside])
        members.append(Ks_j)
        res = extend_with_submatrix(K, Ks_j, cfg)
        return res.values, res.vectors

    return _uniform_mean(map(member, range(len(block_sizes))))


class TestBlockSelection:
    """Each block_extend member's K^s is read from K's diagonal block."""

    @staticmethod
    def kernel(n, seed):
        # a Wishart kernel with its smallest entries set to exact zeros, so
        # that every block holds some
        a = gen_wishart_psd(n, seed).a
        return SymmetricDense(np.where(np.abs(a) < 0.02, 0.0, a))

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("n, sizes, m", [
        (60, (7, 31, 22), 3),
        (40, (40,), 4),
        (300, (120, 180), 4),
    ], ids=["uneven", "single", "lanczos-sized"])
    def test_members_and_combination_match_mask_selection(self, monkeypatch, sparse, n, sizes, m):
        K = self.kernel(n, 31 + n)
        assert np.any(K.a[:sizes[0], :sizes[0]] == 0.0)
        if sparse:
            K = SparseSymmetric(K.n, *K.triplets())
        cfg = ExtensionConfig(m=m)
        expected_members = []
        expected = _block_extend_reference(K, sizes, cfg, members=expected_members)

        members = []

        def recording(K_, Ks, cfg_):
            members.append(Ks)
            return extend_with_submatrix(K_, Ks, cfg_)

        monkeypatch.setattr(extension, "extend_with_submatrix", recording)
        combined = block_extend(K, sizes, cfg)
        assert len(members) == len(expected_members) == len(sizes)
        for got, want in zip(members, expected_members):
            assert got.n == want.n
            for name in ("rows", "cols", "vals"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.linalg.norm(combined.a - expected.a) <= 1e-12 * np.linalg.norm(expected.a)


class TestBlockExtend:
    def test_single_block_equals_full_topleft(self):
        K = gen_wishart_psd(18, seed=19)
        combined = block_extend(K, [18], ExtensionConfig(m=4))
        res = pert_extend(K, Selector.top_left(18), ExtensionConfig(m=4))
        assert np.max(np.abs(combined.a - kernel_approx(res.values, res.vectors).a)) <= 1e-12

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
        combined = block_extend(K, [6, 6], ExtensionConfig(m=6))
        # each member reconstructs its block exactly, so the mean of the two
        # is half the block-diagonal
        assert np.max(np.abs(combined.a - 0.5 * a)) <= 1e-10

    def test_two_blocks_equal_mean_of_members(self):
        K = gen_wishart_psd(16, seed=21)
        cfg = ExtensionConfig(m=3)
        combined = block_extend(K, [8, 8], cfg)
        members = []
        rows, cols = np.triu_indices(16)
        for lo, hi in ((0, 8), (8, 16)):
            keep = (rows >= lo) & (cols < hi) & (rows < hi) & (cols >= lo)
            Ks = SparseSymmetric(16, rows[keep], cols[keep], K.a[rows[keep], cols[keep]])
            res = extend_with_submatrix(K, Ks, cfg)
            members.append(kernel_approx(res.values, res.vectors).a)
        expected = 0.5 * members[0] + 0.5 * members[1]
        assert np.max(np.abs(combined.a - expected)) <= 1e-12

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("sizes", [(0, 40), (-5, 45), (40, 0)])
    def test_nonpositive_block_sizes_rejected_before_any_member(self, monkeypatch, sparse, sizes):
        K = gen_wishart_psd(40, seed=3)
        K = SparseSymmetric(K.n, *K.triplets()) if sparse else K
        monkeypatch.setattr(extension, "extend_with_submatrix", _no_member_runs)
        with pytest.raises(ValueError, match="block sizes must be positive") as caught:
            block_extend(K, sizes, ExtensionConfig(m=3))
        assert type(caught.value) is ValueError


def _no_member_runs(*args, **kwargs):
    raise AssertionError("a block member was extended")


class TestPairCount:
    """A count of pairs that is not an integer is refused where it comes in,
    by a TypeError that names it; NumPy integers count as integers."""

    def test_fractional_m_rejected(self):
        with pytest.raises(TypeError, match="m must be an integer, got 2.5"):
            ExtensionConfig(m=2.5)
        K = gen_wishart_psd(40, seed=3)
        with pytest.raises(TypeError, match="m must be an integer"):
            pert_extend(K, Selector.band(5), ExtensionConfig(m=2.5, order=2))

    def test_fractional_order_rejected(self):
        with pytest.raises(TypeError, match="order must be an integer, got 1.0"):
            ExtensionConfig(m=3, order=1.0)

    @pytest.mark.parametrize("build", [
        lambda K: Selector.top_left(True),
        lambda K: Selector.band(False),
        lambda K: Selector.block_diag([True, 39]),
        lambda K: ExtensionConfig(m=True),
        lambda K: ExtensionConfig(m=2, order=True),
        lambda K: ExtensionConfig(m=np.True_),
        lambda K: KernelSpec.polynomial(True),
        lambda K: matrixcore.sym_eig_partial(K, True),
        lambda K: matrixcore.sym_eig_full(K, True),
        lambda K: nystrom_extend(K, True),
    ], ids=["topleft", "band", "blocks", "m", "order", "numpy-bool-m", "degree", "partial", "full",
            "nystrom"])
    def test_bool_rejected(self, build):
        # operator.index takes a Python bool as 0 or 1; a count refuses it
        with pytest.raises(TypeError, match=r"must be an integer, got (np\.)?(True|False)"):
            build(gen_wishart_psd(40, seed=3))

    def test_numpy_integer_m_accepted(self):
        K = gen_wishart_psd(40, seed=3)
        got = pert_extend(K, Selector.band(5), ExtensionConfig(m=np.int64(3)))
        want = pert_extend(K, Selector.band(5), ExtensionConfig(m=3))
        assert np.array_equal(got.values, want.values) and np.array_equal(got.vectors, want.vectors)


def _clustered_kernel(n):
    return build_kernel(standardize(gen_clustered_dataset(n=n, seed=3)), KernelSpec.gaussian(0.1))


def _formed_E_reference(K, Ks, pairs, cfg):
    """(values, vectors) of the update from the given pairs of K^s and an
    E = K - K^s formed explicitly."""
    problem = PerturbationProblem(base=Ks, known=pairs, EV=K.minus(Ks).matvec(pairs.vectors))
    mu = cfg.mu.resolve(problem)
    update = truncated_first_order if cfg.order == 1 else truncated_second_order
    return classical_eigval_update(problem), update(problem, mu)


def _general_reference(K, Ks, cfg):
    """(pairs, values, vectors) of the general path: K^s solved by
    ``sym_eig_partial``, E formed."""
    pairs = matrixcore.sym_eig_partial(Ks, cfg.m)
    return (pairs, *_formed_E_reference(K, Ks, pairs, cfg))


def _padded_block_pairs(K, Ks, m):
    """The pairs of K's block on the rows of K^s that store a nonzero, from
    ``sym_eig_partial`` of that block, padded with zeros."""
    support = Ks.support_block()[0]
    block = matrixcore.sym_eig_partial(K.principal_block(support), m)
    vectors = np.zeros((K.n, m))
    vectors[support] = block.vectors
    return EigenPairs(block.values, vectors)


def _solved_matrices(monkeypatch, n):
    """Patch the two solvers under ``sym_eig_partial`` to record each matrix
    they receive and to fail on one of n rows, a K^s; returns the record."""
    solved = []
    for name in ("_lanczos", "sym_eig_full"):
        def recording(A, *args, _orig=getattr(matrixcore, name), **kwargs):
            assert A.n < n, "the n-row K^s was solved"
            solved.append(A)
            return _orig(A, *args, **kwargs)
        monkeypatch.setattr(matrixcore, name, recording)
    return solved


def _assert_close_to_general(res, K, Ks, cfg):
    pairs, values, vectors = _general_reference(K, Ks, cfg)
    scale = spectral_norm(K)
    assert np.max(np.abs(res.source_pairs.values - pairs.values)) <= 1e-12 * scale
    assert np.max(np.abs(res.values - values)) <= 1e-12 * scale
    assert principal_angle(res.source_pairs.vectors, pairs.vectors) <= 1e-10
    assert principal_angle(res.vectors, vectors) <= 1e-10


class TestBlockMemberPairs:
    """Each block_extend member's pairs come from K's own diagonal block,
    padded with zeros, instead of a solve of the n-row K^s; the members and
    their combination match the n-row solve."""

    @staticmethod
    def recorded_block_extend(monkeypatch, K, sizes, cfg):
        members = []

        def recording(K_, Ks, cfg_):
            res = extend_with_submatrix(K_, Ks, cfg_)
            members.append((Ks, res))
            return res

        monkeypatch.setattr(extension, "extend_with_submatrix", recording)
        return block_extend(K, sizes, cfg), members

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("sizes", [(300, 300), (200, 400)], ids=["even", "uneven"])
    def test_members_match_solve_of_full_selection(self, monkeypatch, sparse, sizes):
        K = _clustered_kernel(600)
        if sparse:
            K = SparseSymmetric(K.n, *K.triplets())
        cfg = ExtensionConfig(m=4)
        expected = _block_extend_reference(K, sizes, cfg, members=[])
        combined, members = self.recorded_block_extend(monkeypatch, K, sizes, cfg)
        assert len(members) == len(sizes)
        for Ks, res in members:
            _assert_close_to_general(res, K, Ks, cfg)
        assert np.linalg.norm(combined.a - expected.a) <= 1e-12 * np.linalg.norm(expected.a)

    @pytest.mark.parametrize("n, sizes", [(300, (100, 200)), (600, (300, 300))],
                             ids=["dense-block", "lanczos-block"])
    def test_nonpositive_pair_m_raises(self, n, sizes):
        # a negative definite K: every member's leading pair would be one of
        # the padded zero eigenvalues
        K = SymmetricDense(-np.diag(np.linspace(1.0, 2.0, n)))
        with pytest.raises(EigengapError, match="zero eigenvalues"):
            block_extend(K, sizes, ExtensionConfig(m=2))

    @pytest.mark.parametrize("n, sizes", [(300, (100, 200)), (600, (300, 300))],
                             ids=["dense-block", "lanczos-block"])
    def test_block_with_zero_row(self, monkeypatch, n, sizes):
        a = np.array(_clustered_kernel(n).a)
        a[5, :] = a[:, 5] = 0.0
        K = SymmetricDense(a)
        cfg = ExtensionConfig(m=4)
        _, members = self.recorded_block_extend(monkeypatch, K, sizes, cfg)
        Ks, res = members[0]
        assert 5 not in Ks.support_block()[0]
        exact = sym_eig_full(Ks, cfg.m)
        assert np.max(np.abs(res.source_pairs.values - exact.values)) <= 1e-12 * spectral_norm(K)
        assert principal_angle(res.source_pairs.vectors, exact.vectors) <= 1e-10
        assert np.all(res.source_pairs.vectors[sizes[0]:] == 0.0)


class TestPrincipalBlockDetection:
    """extend_with_submatrix takes the block path for a topleft K^s, which K
    builds with ``block_selection``, and the general path for an edited or
    hand-built one."""

    @staticmethod
    def kernel(n, sparse):
        K = _clustered_kernel(n)
        return sparsify(K, 0.3) if sparse else K

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("n, l", [(200, 100), (600, 100), (600, 300)])
    @pytest.mark.parametrize("cfg", [ExtensionConfig(m=4),
                                     ExtensionConfig(m=4, order=2, mu=MuPolicy.mean())],
                             ids=["order1-zero", "order2-mean"])
    def test_topleft_takes_block_path(self, monkeypatch, sparse, n, l, cfg):
        K = self.kernel(n, sparse)
        Ks = select_submatrix(K, Selector.top_left(l))
        assert np.array_equal(Ks.support_block()[0], np.arange(l))
        with monkeypatch.context() as patch:
            solved = _solved_matrices(patch, n)
            res = extend_with_submatrix(K, Ks, cfg)
        assert len(solved) == 1 and solved[0] is Ks._block[1]
        assert np.all(res.source_pairs.vectors[l:] == 0.0)
        _assert_close_to_general(res, K, Ks, cfg)

    @staticmethod
    def edited_topleft(K, l, edit):
        r, c, v = select_submatrix(K, Selector.top_left(l)).triplets()
        r, c, v = np.array(r), np.array(c), np.array(v)
        if edit == "value":
            v[1] *= 1.5
        elif edit == "missing":
            r, c, v = np.delete(r, 1), np.delete(c, 1), np.delete(v, 1)
        else:  # an entry outside the block
            r, c, v = np.append(r, 0), np.append(c, l + 7), np.append(v, 0.5)
        return SparseSymmetric(K.n, r, c, v)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("n", [200, 600])
    @pytest.mark.parametrize("edit", ["value", "missing", "outside"])
    def test_not_a_block_takes_general_path(self, sparse, n, edit):
        K = self.kernel(n, sparse)
        Ks = self.edited_topleft(K, n // 2, edit)
        cfg = ExtensionConfig(m=4)
        res = extend_with_submatrix(K, Ks, cfg)
        pairs, values, vectors = _general_reference(K, Ks, cfg)
        assert np.array_equal(res.source_pairs.values, pairs.values)
        assert np.array_equal(res.source_pairs.vectors, pairs.vectors)
        assert np.array_equal(res.values, values)
        assert np.array_equal(res.vectors, vectors)

    @pytest.mark.parametrize("n", [200, 300])
    def test_too_few_rows_for_m(self, n):
        # a 3-row block holds 3 pairs; the 4th would be a padded zero
        K = _clustered_kernel(n)
        Ks = select_submatrix(K, Selector.top_left(3))
        with pytest.raises(EigengapError, match="zero eigenvalues"):
            extend_with_submatrix(K, Ks, ExtensionConfig(m=4))

    def test_all_zero_selection_exits_1(self, tmp_path, capsys):
        # K^s, the top-left block, stores nothing, so it has no support rows;
        # tests/test_cli.py checks the same above the dense size limit
        path = tmp_path / "z.txt"
        path.write_text("40 1\n39 39 1.0\n")
        code = cli_main(["extend", "--sparse-matrix", str(path), "--selector", "topleft:20",
                         "--m", "2", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "numerical error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("dim", [100, 700])
    def test_other_dimension_raises(self, dim):
        # K's leading 100-row block as a matrix of dimension dim, the larger
        # one with a diagonal entry in a row that K does not have
        K = _clustered_kernel(600)
        r, c, v = K.principal_block(np.arange(100)).triplets()
        if dim > K.n:
            r, c, v = np.append(r, 650), np.append(c, 650), np.append(v, 1.0)
        Ks = SparseSymmetric(dim, r, c, v)
        with pytest.raises(ValueError, match="dimension"):
            extend_with_submatrix(K, Ks, ExtensionConfig(m=4))


class TestBlockMemberProduct:
    """A block_extend member takes E V as K[:, rows] V[rows] with its rows
    set to zero, and forms no E.  On a sparse K that is the CSR product K V,
    and the output equals that of the formed E bit for bit; on a dense K it
    is one product with the gathered rows, equal to rounding."""

    @staticmethod
    def kernel(sparse):
        a = np.array(_clustered_kernel(600).a)
        # an all-zero row in each block
        for i in (7, 333):
            a[i, :] = a[:, i] = 0.0
        K = SymmetricDense(a)
        return sparsify(K, 0.3) if sparse else K

    @staticmethod
    def member_with_formed_E(K, rows, cfg):
        """(values, vectors) of the member on ``rows``, from the pairs of K's
        block on the member's support rows and an E formed explicitly."""
        r, c, v = K.principal_block(rows).triplets()
        Ks = SparseSymmetric(K.n, r + rows[0], c + rows[0], v)
        return _formed_E_reference(K, Ks, _padded_block_pairs(K, Ks, cfg.m), cfg)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("cfg", [ExtensionConfig(m=4),
                                     ExtensionConfig(m=4, order=2, mu=MuPolicy.mean())],
                             ids=["order1-zero", "order2-mean"])
    def test_equal_to_formed_E(self, monkeypatch, sparse, cfg):
        K = self.kernel(sparse)
        sizes = (200, 400)
        bounds = np.cumsum((0,) + sizes)
        expected = [self.member_with_formed_E(K, np.arange(bounds[j], bounds[j + 1]), cfg)
                    for j in range(len(sizes))]
        calls = []
        for cls in (SymmetricDense, SparseSymmetric):
            def counting(self, B, _orig=cls.minus):
                calls.append(B)
                return _orig(self, B)
            monkeypatch.setattr(cls, "minus", counting)
        combined, members = TestBlockMemberPairs.recorded_block_extend(monkeypatch, K, sizes, cfg)
        assert calls == []
        want = _uniform_mean(iter(expected)).a
        for (_, res), (values, vectors) in zip(members, expected):
            if sparse:
                assert np.array_equal(res.values, values)
                assert np.array_equal(res.vectors, vectors)
            else:
                assert np.max(np.abs(res.values - values)) <= 1e-13 * spectral_norm(K)
                assert principal_angle(res.vectors, vectors) <= 1e-12
        if sparse:
            assert np.array_equal(combined.a, want)
        else:
            assert np.linalg.norm(combined.a - want) <= 1e-12 * np.linalg.norm(want)


class TestBuiltBlockPath:
    """The block path is taken exactly for a K^s that K built itself with
    ``block_selection``: K's block is gathered once, its support rows are
    counted once, on the block, and it is the only matrix solved; K V and
    the n-row K^s's support rows are never formed, and the source pairs are
    those of K's block on the rows that store a nonzero, bit for bit."""

    @staticmethod
    def kernel(n, sparse):
        a = np.array(_clustered_kernel(n).a)
        # an all-zero row in each block of the member splits used below
        for i in (7, n // 3 + 5):
            a[i, :] = a[:, i] = 0.0
        K = SymmetricDense(a)
        return sparsify(K, 0.3) if sparse else K

    @staticmethod
    def counted(monkeypatch, K):
        """Record every ``principal_block`` and ``matvec`` call on K and every
        ``support_block`` call on any matrix that counts its support rows
        rather than return a kept block; also the ``_solved_matrices`` record,
        so that a solve of the n-row K^s fails."""
        calls = []
        for cls in (SymmetricDense, SparseSymmetric):
            for name in ("principal_block", "matvec", "support_block"):
                def counting(self, *args, _orig=getattr(cls, name), _name=name, **kwargs):
                    out = _orig(self, *args, **kwargs)
                    if self is K or (_name == "support_block" and out is not getattr(self, "_block", None)):
                        calls.append(_name)
                    return out
                monkeypatch.setattr(cls, name, counting)
        return calls, _solved_matrices(monkeypatch, K.n)

    CFGS = [ExtensionConfig(m=4), ExtensionConfig(m=4, order=2, mu=MuPolicy.mean())]

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("n", [200, 600])
    @pytest.mark.parametrize("cfg", CFGS, ids=["order1-zero", "order2-mean"])
    def test_topleft_gathers_once(self, monkeypatch, sparse, n, cfg):
        K = self.kernel(n, sparse)
        l = n // 2
        with monkeypatch.context() as patch:
            calls, solved = self.counted(patch, K)
            res = pert_extend(K, Selector.top_left(l), cfg)
        assert calls == ["principal_block", "support_block"]
        assert len(solved) == 1 and solved[0] is res._Ks._block[1]
        Ks = SparseSymmetric(K.n, *select_submatrix(K, Selector.top_left(l)).triplets())
        expected = _padded_block_pairs(K, Ks, cfg.m)
        assert 7 not in Ks.support_block()[0]
        assert np.array_equal(res.source_pairs.values, expected.values)
        assert np.array_equal(res.source_pairs.vectors, expected.vectors)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("n", [200, 600])
    @pytest.mark.parametrize("cfg", CFGS, ids=["order1-zero", "order2-mean"])
    def test_members_gather_once(self, monkeypatch, sparse, n, cfg):
        K = self.kernel(n, sparse)
        sizes = (n // 3, n - n // 3)
        members = []

        def recording(K_, Ks, cfg_):
            res = extend_with_submatrix(K_, Ks, cfg_)
            members.append((Ks, res))
            return res

        with monkeypatch.context() as patch:
            patch.setattr(extension, "extend_with_submatrix", recording)
            calls, solved = self.counted(patch, K)
            block_extend(K, sizes, cfg)
        assert calls == ["principal_block", "support_block"] * len(sizes)
        assert len(solved) == len(members)
        assert all(A is Ks._block[1] for A, (Ks, _) in zip(solved, members))
        for Ks, res in members:
            expected = _padded_block_pairs(K, SparseSymmetric(K.n, *Ks.triplets()), cfg.m)
            assert np.array_equal(res.source_pairs.values, expected.values)
            assert np.array_equal(res.source_pairs.vectors, expected.vectors)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("n", [200, 600])
    @pytest.mark.parametrize("cfg", CFGS, ids=["order1-zero", "order2-mean"])
    @pytest.mark.parametrize("builder", ["hand", "copy"])
    def test_equal_block_not_built_by_K_takes_general_path(self, sparse, n, cfg, builder):
        K = self.kernel(n, sparse)
        rows = np.arange(n // 3, n)
        own = block_selection(K, rows)
        if builder == "hand":
            Ks = SparseSymmetric(K.n, *own.triplets())
        else:
            K2 = SparseSymmetric(K.n, *K.triplets()) if sparse else SymmetricDense(K.a)
            Ks = block_selection(K2, rows)
        for a, b in zip(Ks.triplets(), own.triplets()):
            assert np.array_equal(a, b)
        res = extend_with_submatrix(K, Ks, cfg)
        pairs, values, vectors = _general_reference(K, Ks, cfg)
        assert np.array_equal(res.source_pairs.values, pairs.values)
        assert np.array_equal(res.source_pairs.vectors, pairs.vectors)
        assert np.array_equal(res.values, values)
        assert np.array_equal(res.vectors, vectors)


def _eager_block_selection(K, rows):
    """block_selection(K, rows)'s triplets as it gathered them before they
    were deferred: the block's moved to ``rows`` at once."""
    rows = np.unique(np.asarray(rows, dtype=np.int64))
    br, bc, bv = K.principal_block(rows).triplets(cache=False)
    return SparseSymmetric(K.n, rows[br], rows[bc], bv)


def _unset_triplet_slots(Ks):
    """The triplet slots of Ks that hold nothing, read past ``__getattr__``."""
    unset = []
    for name in ("rows", "cols", "vals"):
        try:
            getattr(SparseSymmetric, name).__get__(Ks, SparseSymmetric)
        except AttributeError:
            unset.append(name)
    return unset


class TestDeferredBlockTriplets:
    """A block selection builds its n-row triplets on first read, the arrays
    the eager gather gave; every reader sees them, and ``block_extend`` on a
    dense K reads none."""

    kernel = staticmethod(TestBuiltBlockPath.kernel)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("rows", [np.arange(50, 350), np.arange(400), np.r_[3:9, 120:200, 7]],
                             ids=["range", "all", "unsorted"])
    def test_fresh_selection_holds_no_triplets_until_read(self, sparse, rows):
        K = self.kernel(400, sparse)
        Ks = block_selection(K, rows)
        assert _unset_triplet_slots(Ks) == ["rows", "cols", "vals"]
        want = _eager_block_selection(K, rows)
        got = Ks.vals
        assert _unset_triplet_slots(Ks) == []
        assert got is Ks.triplets()[2]
        for a, b in zip(Ks.triplets(), want.triplets()):
            assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("l", [150, 400], ids=["block", "all-rows"])
    @pytest.mark.parametrize("zero_rows", [True, False], ids=["zero-rows", "no-zero-rows"])
    def test_every_reader_matches_the_eager_gather(self, sparse, l, zero_rows):
        # without zero rows, topleft:n keeps a block of all n rows, and
        # support_block counts the rows from the n-row triplets
        K = self.kernel(400, sparse) if zero_rows else _clustered_kernel(400)
        if sparse and not zero_rows:
            K = sparsify(K, 0.3)
        rows = np.arange(l)
        want = _eager_block_selection(K, rows)
        x = np.random.default_rng(4).standard_normal((400, 3))
        readers = {
            "trace": lambda A: A.trace(),
            "frobenius_norm": lambda A: A.frobenius_norm(),
            "nnz": lambda A: A.nnz,
            "matvec": lambda A: A.matvec(x),
            "to_dense": lambda A: A.to_dense().a,
            "E": lambda A: K.minus(A).to_dense().a,
            "support_rows": lambda A: A.support_block()[0],
        }
        for name, read in readers.items():
            # a fresh selection per reader, so that each one is the first read
            assert np.array_equal(read(block_selection(K, rows)), read(want)), name
        cfg = ExtensionConfig(m=4, order=2, mu=MuPolicy.mean())
        got = extend_with_submatrix(K, block_selection(K, rows), cfg)
        assert np.array_equal(got.bound_terms, pert_extend(K, Selector.top_left(l), cfg).bound_terms)

    def test_empty_block_has_empty_triplets(self):
        K = SymmetricDense(np.diag(np.r_[np.zeros(5), np.ones(5)]))
        Ks = block_selection(K, np.arange(5))
        assert _unset_triplet_slots(Ks) == [] and Ks.is_zero()
        assert Ks.selection_of(K) == (None, None)

    @pytest.mark.parametrize("sizes", [(200, 200), (100, 300)])
    def test_block_extend_on_dense_K_reads_no_triplets(self, monkeypatch, sizes):
        K = self.kernel(400, False)
        members = []

        def recording(K_, Ks, cfg_):
            members.append(Ks)
            return extend_with_submatrix(K_, Ks, cfg_)

        def failing(self, cache=True):
            raise AssertionError("SymmetricDense.triplets was called")

        monkeypatch.setattr(extension, "extend_with_submatrix", recording)
        monkeypatch.setattr(SymmetricDense, "triplets", failing)
        block_extend(K, sizes, ExtensionConfig(m=4))
        assert len(members) == 2
        assert all(_unset_triplet_slots(Ks) == ["rows", "cols", "vals"] for Ks in members)


class TestSelectionOf:
    """``selection_of(K)`` answers whether K built a matrix, and with what."""

    def test_what_each_builder_keeps(self):
        D = _clustered_kernel(60)
        S = sparsify(D, 0.5)
        rows = np.arange(10, 40)
        keep = S.rows < 30
        assert D.selection_of(D) == (None, None)
        assert S.selection_of(S) == (None, None)
        restricted = restriction(S, keep)
        got_keep, got_rows = restricted.selection_of(S)
        assert np.array_equal(got_keep, keep) and got_rows is None
        assert restricted.selection_of(D) == (None, None)
        dense_keep = D.triplets()[0] < 30
        got_keep, got_rows = restriction(D, dense_keep).selection_of(D)
        assert np.array_equal(got_keep, dense_keep) and got_rows is None
        dense_keep, dense_rows = block_selection(D, rows).selection_of(D)
        assert dense_keep is None and np.array_equal(dense_rows, rows)
        sparse_keep, sparse_rows = block_selection(S, rows).selection_of(S)
        assert sparse_keep is None
        assert np.array_equal(sparse_rows, block_selection(S, rows).support_block()[0])
        assert block_selection(D, rows).selection_of(SymmetricDense(D.a)) == (None, None)

    @pytest.mark.parametrize("rows", [np.arange(10, 40), np.r_[50:55, 3:9, 7, 44]], ids=["range", "unsorted"])
    def test_sparse_block_selection_E_is_the_restriction_to_the_rest(self, rows):
        # a block selection is no restriction, and E = K - K^s comes from the
        # merge; it is K restricted to the triplets outside rows x rows, the
        # E a block selection that was a restriction gave, with no byte moved
        S = TestBuiltBlockPath.kernel(60, True)
        E = S.minus(block_selection(S, rows))
        want = restriction(S, ~(np.isin(S.rows, rows) & np.isin(S.cols, rows)))
        for got, expected in zip(E.triplets(), want.triplets()):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class TestCsrBuilds:
    """A SparseSymmetric builds its CSR only when something iterates on it or
    slices it."""

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        build = matrixcore._mirrored_csr

        def counting(n, rows, cols, vals):
            builds.append(rows)
            return build(n, rows, cols, vals)

        monkeypatch.setattr(matrixcore, "_mirrored_csr", counting)
        return builds

    def test_read_and_extend_builds_none_for_K(self, monkeypatch, tmp_path):
        D = _clustered_kernel(300)
        K = SparseSymmetric(D.n, *D.triplets())
        write_sparse(tmp_path / "K.txt", K)
        builds = self.count_builds(monkeypatch)
        K = read_sparse(tmp_path / "K.txt")
        assert builds == []
        sel = Selector.sparse_top_q(0.3)
        pert_extend(K, sel, ExtensionConfig(m=4))
        Ks = select_submatrix(K, sel)
        E = K.minus(Ks)
        # one build for K^s (its solve), one for E (its norm), none for K
        assert sorted(rows.size for rows in builds) == sorted((Ks.vals.size, E.vals.size))
        assert not any(rows is K.rows for rows in builds)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_block_member_builds_none(self, monkeypatch, sparse):
        K = _clustered_kernel(600)
        if sparse:
            K = SparseSymmetric(K.n, *K.triplets())
        builds = self.count_builds(monkeypatch)
        _, members = TestBlockMemberPairs.recorded_block_extend(
            monkeypatch, K, (300, 300), ExtensionConfig(m=4))
        # a sparse K builds its own CSR once, for the first member's K V, and
        # the first 300-row block one for its Lanczos run; the second block
        # cuts its CSR from K's.  No E is formed to build one.  A dense K
        # builds none
        assert len(builds) == (2 if sparse else 0)
        assert sum(rows is K.rows for rows in builds) == int(sparse)
        for Ks, _ in members:
            assert not any(rows is Ks.rows for rows in builds)

    def test_built_once_on_first_product(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        S = SparseSymmetric(4, [0, 0, 2], [0, 3, 2], [1.0, 2.0, 3.0])
        assert S.nnz == 4 and S.trace() == 4.0 and builds == []
        x = np.arange(4.0)
        assert np.array_equal(S.matvec(x), S.to_dense().a @ x)
        S.matvec(x)
        assert len(builds) == 1


class TestDeferredBoundTerms:
    """The bound terms are computed on first read, from K, K^s, mu and the
    order the result keeps, and equal the formula evaluated at once."""

    @staticmethod
    def eager(K, Ks, res, cfg):
        values = res.source_pairs.values
        mu = 0.0 if cfg.mu.kind == "zero" else mu_mean(Ks.trace(), values, K.n)
        return bound_terms(values, extension._bound_tail(Ks, res.source_pairs, mu, cfg.order), mu,
                           spectral_norm(K.minus(Ks)), cfg.order)

    @pytest.mark.parametrize("n", [120, 300])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_equal_to_eager_formula(self, n, sparse):
        K = _clustered_kernel(n)
        if sparse:
            K = sparsify(K, 0.3)
        Ks = select_submatrix(K, Selector.sparse_top_q(0.5))
        for order in (1, 2):
            for mu in (MuPolicy.zero(), MuPolicy.mean()):
                cfg = ExtensionConfig(m=4, order=order, mu=mu)
                res = extend_with_submatrix(K, Ks, cfg)
                expected = self.eager(K, Ks, res, cfg)
                assert np.array_equal(res.bound_terms, expected)
                assert np.isinf(res.bound_terms[-1]) and np.all(np.isfinite(res.bound_terms[:-1]))

    def test_second_read_runs_no_solve(self, monkeypatch):
        K = sparsify(_clustered_kernel(300), 0.3)
        norms = []
        norm = extension.spectral_norm

        def counting(A):
            norms.append(A)
            return norm(A)

        monkeypatch.setattr(extension, "spectral_norm", counting)
        res = pert_extend(K, Selector.sparse_top_q(0.4), ExtensionConfig(m=4))
        assert norms == []
        first = res.bound_terms
        assert len(norms) == 1
        assert res.bound_terms is first and len(norms) == 1
        assert not first.flags.writeable

    def test_failed_dense_tail_solve_is_convergence_error(self, monkeypatch):
        # the tail spectrum is the one the dense partial solve kept, so the
        # solve that fails here is the dense one of ||E||
        res = pert_extend(_clustered_kernel(120), Selector.sparse_top_q(0.5), ExtensionConfig(m=4))

        def lapack_fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", lapack_fails)
        with pytest.raises(ConvergenceError, match="did not converge"):
            res.bound_terms


class TestBoundTailFromTheSolve:
    """The bound terms take their tail from the spectrum the partial solve of
    K^s kept, and solve K^s no second time."""

    def test_small_n_solves_only_E(self, monkeypatch):
        K = _clustered_kernel(120)
        Ks = select_submatrix(K, Selector.sparse_top_q(0.5))
        res = extend_with_submatrix(K, Ks, ExtensionConfig(m=4))
        solved = []
        for name in ("eigh", "eigvalsh"):
            def counting(a, *args, _solve=getattr(np.linalg, name), **kwargs):
                solved.append(np.array(a))
                return _solve(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        res.bound_terms
        assert len(solved) == 1
        assert np.array_equal(solved[0], K.minus(Ks).to_dense().a)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("mu", [MuPolicy.zero(), MuPolicy.mean()], ids=["zero", "mean"])
    def test_dense_block_tail_is_exact(self, order, mu):
        K, l, m = _clustered_kernel(600), 100, 4
        Ks = select_submatrix(K, Selector.top_left(l))
        res = extend_with_submatrix(K, Ks, ExtensionConfig(m=m, order=order, mu=mu))
        pairs = res.source_pairs
        mu = 0.0 if mu.kind == "zero" else mu_mean(Ks.trace(), pairs.values, K.n)
        norm_e = spectral_norm(K.minus(Ks))
        block = K.principal_block(np.arange(l)).a
        exact = np.concatenate((np.linalg.eigvalsh(block)[::-1][m:], np.zeros(K.n - l)))
        expected = bound_terms(pairs.values, exact, mu, norm_e, order)
        terms = res.bound_terms
        finite = np.isfinite(terms)
        assert np.array_equal(finite, np.isfinite(expected)) and finite[:-1].all()
        assert np.allclose(terms[finite], expected[finite], rtol=1e-12, atol=0.0)
        if order == 1:
            # the Lanczos form of the tail: pairs that carry no spectrum
            bare = EigenPairs(pairs.values, pairs.vectors)
            loose = bound_terms(pairs.values, extension._bound_tail(Ks, bare, mu, order), mu, norm_e, order)
            assert np.all(terms[finite] < loose[finite])
        # every finite term covers the error of its normalized vector
        U = sym_eig_full(K, m).vectors
        W = res.vectors / np.linalg.norm(res.vectors, axis=0)
        signs = np.sign(np.einsum("ij,ij->j", W, U))
        errors = np.linalg.norm(W - U * signs, axis=0)
        assert np.all(terms[finite] >= errors[finite])


def _no_norm_solves(monkeypatch):
    """Make every binding of spectral_norm fail when called."""
    from perturbext import nystrom

    def forbidden(A):
        raise AssertionError("spectral_norm called")

    for module in (matrixcore, extension, nystrom):
        monkeypatch.setattr(module, "spectral_norm", forbidden)


class TestCallersSolveNoNorm:
    """Callers that never read the bound terms run no norm solve of E."""

    def test_sparse_experiment(self, monkeypatch):
        _no_norm_solves(monkeypatch)
        rows = run_sparse_experiment(n=300, m=4, trials=1, q_grid=(0.3, 0.6))
        assert len(rows) >= 3

    def test_band_experiment(self, monkeypatch):
        _no_norm_solves(monkeypatch)
        rows = run_band_experiment(n=300, m=4, p_grid=(20, 80), trials=1)
        assert len(rows) >= 3

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_block_extend(self, monkeypatch, sparse):
        K = _clustered_kernel(600)
        if sparse:
            K = SparseSymmetric(K.n, *K.triplets())
        _no_norm_solves(monkeypatch)
        assert block_extend(K, (300, 300), ExtensionConfig(m=4)).n == 600


def _fresh_csr(M):
    """The CSR arrays scipy builds from M's triplets and their mirror images."""
    rows, cols, vals = M.triplets()
    off = rows != cols
    csr = scipy.sparse.csr_array((np.concatenate([vals, vals[off]]),
                                  (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]]))),
                                 shape=(M.n, M.n))
    return csr.indptr, csr.indices, csr.data


_SELECTORS = {
    "topleft": Selector.top_left(150),
    "band": Selector.band(12),
    "sparse": Selector.sparse_top_q(0.35),
    "blocks": Selector.block_diag((100, 60, 140)),
    "mask": Selector.custom_mask(np.arange(0, 300, 3), np.arange(0, 300, 3)[::-1]),
}


class TestMaskedSelections:
    """A selection of a sparse K and its E are restrictions of K: the
    triplets the general code gives, and a CSR equal to a fresh build,
    whether K built its CSR before or not."""

    @pytest.mark.parametrize("kind", sorted(_SELECTORS))
    @pytest.mark.parametrize("k_csr_first", [False, True], ids=["own", "masked"])
    def test_equal_to_fresh_build(self, kind, k_csr_first):
        K = sparsify(_clustered_kernel(300), 0.3)
        if k_csr_first:
            K.matvec(np.ones(K.n))
        Ks = select_submatrix(K, _SELECTORS[kind])
        E = K.minus(Ks)
        # the general code: the selected triplets, and the merge of K with a
        # copy of K^s that is not a restriction of K
        keep = np.isin(K.rows * K.n + K.cols, Ks.rows * K.n + Ks.cols)
        general_E = K.minus(SparseSymmetric(K.n, *Ks.triplets()))
        for got, (rows, cols, vals) in ((Ks, (K.rows[keep], K.cols[keep], K.vals[keep])),
                                        (E, general_E.triplets())):
            for a, b in zip(got.triplets(), (rows, cols, vals)):
                assert np.array_equal(a, b) and not a.flags.writeable
            csr = got._csr_form()
            for a, b in zip((csr.indptr, csr.indices, csr.data), _fresh_csr(got)):
                assert np.array_equal(a, b)
            x = np.linspace(-1.0, 1.0, K.n)
            assert np.array_equal(got.matvec(x), general_E.matvec(x) if got is E
                                  else SparseSymmetric(K.n, *got.triplets()).matvec(x))
        assert Ks.nnz + E.nnz == K.nnz

    def test_restriction_of_restriction(self):
        K = sparsify(_clustered_kernel(300), 0.3)
        K.matvec(np.ones(K.n))
        Ks = select_submatrix(K, Selector.band(40))
        Ks.matvec(np.ones(K.n))
        inner = select_submatrix(Ks, Selector.sparse_top_q(0.5))
        csr = inner._csr_form()
        for a, b in zip((csr.indptr, csr.indices, csr.data), _fresh_csr(inner)):
            assert np.array_equal(a, b)

    def test_other_operands_take_the_general_merge(self):
        K = sparsify(_clustered_kernel(300), 0.3)
        Ks = select_submatrix(K, Selector.sparse_top_q(0.5))
        perturbed = SparseSymmetric(K.n, Ks.rows, Ks.cols, Ks.vals * (1.0 + 1e-9))
        other = select_submatrix(SparseSymmetric(K.n, *K.triplets()), Selector.sparse_top_q(0.5))
        for B in (perturbed, other):
            got = K.minus(B)
            assert np.array_equal(got.to_dense().a, K.to_dense().a - B.to_dense().a)
        # only the restriction of K itself, subtracted, is a restriction
        assert K.minus(perturbed).nnz == K.nnz
        assert K.minus(Ks).nnz == K.nnz - Ks.nnz

    def test_sparse_trial_builds_each_csr_once(self, monkeypatch):
        builds = TestCsrBuilds.count_builds(monkeypatch)
        rows = run_sparse_experiment(n=1000, m=5, trials=1)
        nystrom_rows = [r for r in rows if r.method == "nystrom_generalized"]
        # one for K, and one each for the 10 selections and their 10 E; the
        # 10 Nystrom blocks cut theirs from K's.  No matrix builds its CSR twice
        assert len(nystrom_rows) == 10
        assert len(builds) == 21
        assert len({id(built) for built in builds}) == 21
