"""The cost promise of the extension on a sparse K: a partial eigensolve of
K^s plus O(nnz) work.  One ``pert_extend`` call and its bound read on
``gen_band_matrix`` at two sizes, for each selector path and both orders:
the tracemalloc peak may grow at most 1.25 times as fast as nnz(K).  An
n x n array on any of these paths (a dense solve of E, a densified E)
grows as n², 9 times from n = 2000 to 6000 where nnz grows about 3.5 times.

The same call counts the products of the Lanczos solve of K^s, through a
wrapper of ``_lanczos``'s matrix; each test records them as the property
``ks_lanczos_products``.  They are the same from run to run and at one or
two BLAS threads.  From n = 2000 to 6000 they read 218 -> 234 (band:20),
189 -> 189 (topleft:400), 255 -> 305 (sparse:0.5) and 279 -> 239
(blocks), at either order, so they may grow at most 1.25 times: with
them, the eigensolve's work grows with nnz(K^s).

The products of the bound read's ||E|| Lanczos run, the one without
vectors, are recorded beside them as ``e_norm_lanczos_products`` and not
asserted: 111 -> 141 (band:20), 111 -> 121 (topleft:400), 81 -> 121
(sparse:0.5) and 131 -> 81 (blocks), a baseline for an E-free norm.
"""

import tracemalloc
import types

import pytest

from perturbext import ExtensionConfig, Selector, SparseSymmetric, gen_band_matrix, matrixcore, pert_extend

SIZES = (2000, 6000)
SLACK = 1.25

SELECTORS = {
    "band:20": lambda n: Selector.band(20),
    "topleft:400": lambda n: Selector.top_left(400),
    "sparse:0.5": lambda n: Selector.sparse_top_q(0.5),
    "blocks:(n/4)x4": lambda n: Selector.block_diag((n // 4,) * 4),
}


@pytest.fixture(scope="module")
def kernels():
    return {n: gen_band_matrix(n, seed=3) for n in SIZES}


@pytest.fixture
def lanczos_products(monkeypatch):
    """Count the products of each Lanczos run into the returned dict: under
    True those of the solves of K^s, which return vectors, under False
    those of the norm solves, which do not."""
    counts = {True: [], False: []}
    lanczos = matrixcore._lanczos

    def counting(A, k, which, seed, vectors):
        run = counts[vectors]

        def matvec(x):
            run[-1] += 1
            return A.matvec(x)

        run.append(0)
        return lanczos(types.SimpleNamespace(n=A.n, matvec=matvec), k, which, seed, vectors)

    monkeypatch.setattr(matrixcore, "_lanczos", counting)
    return counts


def extension_peak(K0, sel, order) -> int:
    """The tracemalloc peak of one extension and its bound read, on a fresh
    copy of K0, so that no CSR or magnitude order cached by an earlier call
    is reused."""
    K = SparseSymmetric(K0.n, *K0.triplets())
    tracemalloc.start()
    try:
        pert_extend(K, sel, ExtensionConfig(m=5, order=order)).bound_terms
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", list(SELECTORS))
def test_peak_grows_with_nnz(kernels, lanczos_products, record_property, name, order):
    small, large = (kernels[n] for n in SIZES)
    peaks, products, e_products = [], [], []
    for K in (small, large):
        for runs in lanczos_products.values():
            runs.clear()
        peaks.append(extension_peak(K, SELECTORS[name](K.n), order))
        products.append(sum(lanczos_products[True]))
        e_products.append(sum(lanczos_products[False]))
    record_property("ks_lanczos_products", products)
    record_property("e_norm_lanczos_products", e_products)
    nnz_growth = large.nnz / small.nnz
    assert nnz_growth > 3
    assert peaks[1] / peaks[0] <= SLACK * nnz_growth, (
        f"{name} order {order}: peak {peaks[0] / 1e6:.2f} -> {peaks[1] / 1e6:.2f} MB "
        f"while nnz grew {nnz_growth:.2f}x")
    assert 0 < products[0] and products[1] <= SLACK * products[0], (
        f"{name} order {order}: the Lanczos solve of K^s took {products[0]} -> {products[1]} products")
