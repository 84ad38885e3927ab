"""Acceptance checks: one test per headline guarantee, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Every check must be green.
"""

import time

import numpy as np

from perturbext.cli import main as cli_main
from perturbext.extension import (
    ExtensionConfig,
    Selector,
    extend_with_submatrix,
    kernel_approx,
    pert_extend,
    select_submatrix,
)
from perturbext.experiments import (
    derive_seed,
    matched_topleft_size,
    run_norm_slopes,
    run_tail_slopes,
)
from perturbext.kernels import (
    Dataset,
    KernelSpec,
    build_kernel,
    gen_band_matrix,
    gen_clustered_dataset,
    gen_psd_separated_block,
    gen_rank_m_spectrum,
    gen_slow_decay,
    gen_unit_random_symmetric,
    gen_wishart_psd,
    rng_for,
    sparsify,
    standardize,
)
from perturbext.matrixcore import (
    EigenPairs,
    SymmetricDense,
    principal_angle,
    spectral_norm,
    sym_eig_full,
)
from perturbext.nystrom import (
    check_shifted_equivalence,
    check_topleft_equivalence,
    generalized_nystrom,
    nystrom_extend,
    shift_mu_mean,
    shifted_nystrom,
)
from perturbext.perturbation import (
    PerturbationProblem,
    bound_terms,
    truncated_first_order,
    truncated_second_order,
)

MASTER_SEED = 20240817


def report(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")


def leading(A, m):
    full = sym_eig_full(A)
    return EigenPairs(full.values[:m], full.vectors[:, :m])


def aligned_errors(W, A_perturbed, m):
    exact = sym_eig_full(SymmetricDense(A_perturbed)).vectors[:, :m]
    errs = np.empty(m)
    for i in range(m):
        v = exact[:, i]
        if np.dot(W[:, i], v) < 0:
            v = -v
        errs[i] = np.linalg.norm(W[:, i] - v)
    return errs


def test_topleft_scaling_equivalence():
    """Sampling view equals the extension view up to sqrt(m/n) and n/m."""
    t0 = time.perf_counter()
    n, m, trials, tol = 200, 20, 50, 1e-10
    worst_vec = worst_val = 0.0
    for trial in range(trials):
        K = gen_psd_separated_block(n, m, seed=derive_seed(MASTER_SEED, 1, trial))
        rep = check_topleft_equivalence(K, m, tolerance=tol)
        worst_vec = max(worst_vec, rep["max_vector_deviation"])
        worst_val = max(worst_val, rep["max_value_deviation"])
    elapsed = time.perf_counter() - t0
    ok = worst_vec <= tol and worst_val <= tol and elapsed < 60
    report("topleft-scaling-equivalence", ok,
           f"max vec dev {worst_vec:.2e}, max val dev {worst_val:.2e} "
           f"(tol {tol:g}), {elapsed:.1f}s over {trials} trials")
    assert ok


def test_shifted_scaling_equivalence():
    """Shifted sampling view equals the mu-extension view, two mu choices."""
    n, m, trials, tol = 200, 20, 50, 1e-10
    worst = 0.0
    for trial in range(trials):
        K = gen_psd_separated_block(n, m, seed=derive_seed(MASTER_SEED, 2, trial))
        mu_a = shift_mu_mean(K, m)
        block = np.linalg.eigvalsh(np.array(K.a[:m, :m]))
        mu_b = 0.3 * float(block[-1])
        for mu in (mu_a, mu_b):
            rep = check_shifted_equivalence(K, m, mu, tolerance=tol)
            worst = max(worst, rep["max_vector_deviation"], rep["max_value_deviation"])
    ok = worst <= tol
    report("shifted-scaling-equivalence", ok,
           f"max deviation {worst:.2e} (tol {tol:g}) over {trials} trials x 2 shifts")
    assert ok


def test_lowrank_shift_orders_and_quadratic_error():
    """Low-rank base plus shift: orders coincide and the error is quadratic."""
    n, m = 200, 10
    norms = np.logspace(-5, -2, 8)
    worst_gap = 0.0
    slopes = []
    for case, delta in enumerate((0.0, 0.5)):
        base0 = gen_rank_m_spectrum(n, m, tail_value=0.0,
                                    seed=derive_seed(MASTER_SEED, 3, case))
        base = SymmetricDense(base0.a + delta * np.eye(n), symmetrize=True)
        direction = gen_unit_random_symmetric(n, seed=derive_seed(MASTER_SEED, 4, case)).a
        known = leading(base, m)
        errs = []
        for s in norms:
            problem = PerturbationProblem(base=base, known=known, EV=(s * direction) @ known.vectors)
            W1 = truncated_first_order(problem, delta)
            W2 = truncated_second_order(problem, delta)
            worst_gap = max(worst_gap, float(np.max(np.abs(W1 - W2))))
            errs.append(aligned_errors(W1[:, :1], base.a + s * direction, 1)[0])
        slopes.append(np.polyfit(np.log(norms), np.log(errs), 1)[0])
    ok = worst_gap <= 1e-12 and all(1.85 <= s <= 2.15 for s in slopes)
    report("lowrank-shift-orders", ok,
           f"max order gap {worst_gap:.2e} (tol 1e-12), "
           f"error slopes {[f'{s:.3f}' for s in slopes]} (target 2.0 +- 0.15)")
    assert ok


def test_error_slope_in_perturbation_norm():
    """Both truncated orders scale linearly with the perturbation norm."""
    t0 = time.perf_counter()
    _, slopes = run_norm_slopes(n=200, m=10, seed=MASTER_SEED)
    elapsed = time.perf_counter() - t0
    ok = all(0.9 <= slopes[k] <= 1.1 for k in ("order1", "order2")) and elapsed < 120
    report("slope-vs-perturbation-norm", ok,
           f"slopes {slopes['order1']:.3f}/{slopes['order2']:.3f} "
           f"(target 1.0 +- 0.1), {elapsed:.1f}s")
    assert ok


def test_error_slopes_in_tail_value():
    """Error grows linearly (order 1) and quadratically (order 2) in the tail."""
    t0 = time.perf_counter()
    _, slopes = run_tail_slopes(n=200, m=10, seed=MASTER_SEED)
    elapsed = time.perf_counter() - t0
    ok = (0.85 <= slopes["order1"] <= 1.15 and 1.85 <= slopes["order2"] <= 2.15
          and elapsed < 120)
    report("slope-vs-tail-value", ok,
           f"slopes {slopes['order1']:.3f} (target 1 +- 0.15) / "
           f"{slopes['order2']:.3f} (target 2 +- 0.15), {elapsed:.1f}s")
    assert ok


def test_full_selection_exactness():
    """Full selection and full sampling both reproduce the exact pairs."""
    worst = 0.0
    cases = [
        ("wishart", gen_wishart_psd(150, seed=derive_seed(MASTER_SEED, 5))),
        ("kernel", build_kernel(standardize(gen_clustered_dataset(n=150, dim=20,
                                                                  seed=derive_seed(MASTER_SEED, 6))),
                                KernelSpec.gaussian(0.1))),
        ("band", gen_band_matrix(150, seed=derive_seed(MASTER_SEED, 7))),
    ]
    for name, K in cases:
        m = 8
        exact = sym_eig_full(K).vectors[:, :m]
        res = pert_extend(K, Selector.custom_mask(*np.triu_indices(150)), ExtensionConfig(m=m))
        worst = max(worst, principal_angle(res.vectors, exact))
        _, vecs = generalized_nystrom(K, m, 150)
        worst = max(worst, principal_angle(vecs, exact))
    ok = worst <= 1e-8
    report("full-selection-exactness", ok, f"max angle {worst:.2e} (tol 1e-8)")
    assert ok


def test_bound_validity():
    """Computable bound terms cover the measured per-vector error."""
    n, m, trials = 40, 6, 50
    norm_e = 1e-8
    covered = True
    worst_ratio = 0.0
    for trial in range(trials):
        A = gen_unit_random_symmetric(n, seed=derive_seed(MASTER_SEED, 8, trial))
        E = norm_e * gen_unit_random_symmetric(n, seed=derive_seed(MASTER_SEED, 9, trial)).a
        known = leading(A, m)
        problem = PerturbationProblem(base=A, known=known, EV=E @ known.vectors)
        W1 = truncated_first_order(problem, 0.0)
        errs = aligned_errors(W1, A.a + E, m)
        tail = sym_eig_full(A).values[m:]
        bounds = bound_terms(known.values, tail, 0.0, norm_e, 1)
        limit = 2.0 * bounds + 1e-12
        covered &= bool(np.all(errs <= limit))
        finite = np.isfinite(bounds)
        worst_ratio = max(worst_ratio, float(np.max(errs[finite] / limit[finite])))

    # second-order term below first-order term whenever every tail value is
    # closer to mu than every retained value
    ordering_holds = True
    rng = rng_for(derive_seed(MASTER_SEED, 10))
    for _ in range(50):
        values = np.sort(rng.uniform(2.0, 4.0, size=m))[::-1]
        tail = rng.uniform(0.0, 1.0, size=n - m)
        b1 = bound_terms(values, tail, 0.0, norm_e, 1)
        b2 = bound_terms(values, tail, 0.0, norm_e, 2)
        finite = np.isfinite(b1)
        ordering_holds &= bool(np.all(b2[finite] <= b1[finite]))
    ok = covered and ordering_holds
    report("bound-validity", ok,
           f"coverage {'ok' if covered else 'VIOLATED'} "
           f"(worst error/limit ratio {worst_ratio:.3f}), "
           f"order comparison {'ok' if ordering_holds else 'VIOLATED'}")
    assert ok


def test_band_selection_vs_nystrom():
    """Band selections beat budget-matched sampling on band-concentrated kernels.

    Instance: per trial, n points x ~ U(0, 1) drawn from
    rng_for(derive_seed(MASTER_SEED, 11, trial)), sorted, and the Gaussian
    kernel exp(-gamma (x_i - x_j)**2) with gamma = 1000 built on them.
    Sorting puts neighbours next to each other in the index order, so the
    kernel's mass sits in a band: its width 1/sqrt(gamma) is about 16
    sample spacings, and the entries >= 1e-10 cover about 28% of the
    matrix.  That is what the claim assumes.  The claim cannot hold without
    it: by the Davis-Kahan sin-theta theorem no extension recovers the
    leading subspace once ||K - K^s|| is far above the eigengap.
    gen_band_matrix is such a case: its entries X**(|i-j|/decay), one
    X ~ U(0, 1) per pair, have mean decay/(decay + |i-j|), a harmonic tail,
    and at p = 20 ||K - K^s|| = 1.51 against a gap lambda_10 - lambda_11 of
    0.019, so every extension stays near pi/2 there.

    Medians over the 20 trials (1e-6 is first met at 30% of the budget):
    p = 80 covers 30% of the entries, band 8.9e-10 against sampled 1.57;
    p = 40 covers 16%, band 8.1e-3.  At gamma = 2000 the check passes too.
    It fails at gamma = 400 (support 42%, 1e-6 first met at 51%), and at
    gamma = 100 the sampled block is singular (SingularSampleError).

    Dominance is checked only at budgets that extend something in every
    trial, i.e. K^s != K and the matched top-left block has l < n.  Where
    either fails, both methods return the exact decomposition and the
    comparison would be between round-off values (p = 450: 9.0e-15 band
    against 1.4e-15 sampled).
    """
    t0 = time.perf_counter()
    n, m, trials = 500, 10, 20
    gamma = 1000.0
    p_grid = (2, 5, 10, 20, 40, 80, 150, 250, 350, 450)
    cfg = ExtensionConfig(m=m)
    band_angles = {p: [] for p in p_grid}
    band_fracs = {p: [] for p in p_grid}
    nys_angles = {p: [] for p in p_grid}
    extends = {p: True for p in p_grid}
    for trial in range(trials):
        x = np.sort(rng_for(derive_seed(MASTER_SEED, 11, trial)).uniform(size=n))
        K = build_kernel(Dataset(x[:, None]), KernelSpec.gaussian(gamma))
        total = K.nnz
        exact = sym_eig_full(K).vectors[:, :m]
        for p in p_grid:
            Ks = select_submatrix(K, Selector.band(p))
            res = extend_with_submatrix(K, Ks, cfg)
            band_angles[p].append(principal_angle(res.vectors, exact))
            band_fracs[p].append(Ks.nnz / total)
            l = matched_topleft_size(K, Ks.nnz, minimum=m)
            extends[p] &= Ks.nnz < total and l < n
            _, vecs = generalized_nystrom(K, m, l)
            nys_angles[p].append(principal_angle(vecs, exact))
    elapsed = time.perf_counter() - t0

    dominance = True
    reaches_small_error = False
    lines = []
    for p in p_grid:
        frac = float(np.median(band_fracs[p]))
        band_med = float(np.median(band_angles[p]))
        nys_med = float(np.median(nys_angles[p]))
        if frac >= 0.2 and extends[p]:
            dominance &= band_med <= nys_med
        if frac < 0.5 and band_med <= 1e-6:
            reaches_small_error = True
        lines.append(f"p={p}: frac {frac:.2f}, band {band_med:.2e}, sampled {nys_med:.2e}"
                     + ("" if extends[p] else " (exact in some trial)"))
    ok = dominance and reaches_small_error and elapsed < 300
    report("band-selection-vs-nystrom", ok,
           f"dominance at >=20% budget: {dominance}, "
           f"<=1e-6 before 50% budget: {reaches_small_error}, {elapsed:.0f}s\n    "
           + "\n    ".join(lines))
    assert ok


def test_sparse_selection_vs_nystrom():
    """Largest-entry selections beat budget-matched sampling on clustered kernels."""
    t0 = time.perf_counter()
    n, m, trials = 1000, 5, 20
    q_grid = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    cfg = ExtensionConfig(m=m)
    sparse_angles = {q: [] for q in q_grid}
    fracs = {q: [] for q in q_grid}
    nys_angles = {q: [] for q in q_grid}
    for trial in range(trials):
        ds = standardize(gen_clustered_dataset(n=n, seed=derive_seed(MASTER_SEED, 12, trial)))
        K = sparsify(build_kernel(ds, KernelSpec.gaussian(0.1)), 0.1)
        total = K.nnz
        exact = sym_eig_full(K).vectors[:, :m]
        for q in q_grid:
            Ks = select_submatrix(K, Selector.sparse_top_q(q))
            res = extend_with_submatrix(K, Ks, cfg)
            sparse_angles[q].append(principal_angle(res.vectors, exact))
            fracs[q].append(Ks.nnz / total)
            l = matched_topleft_size(K, Ks.nnz, minimum=m)
            _, vecs = generalized_nystrom(K, m, l)
            nys_angles[q].append(principal_angle(vecs, exact))
    elapsed = time.perf_counter() - t0

    dominance = True
    sparse_vars, nys_vars = [], []
    lines = []
    for q in q_grid:
        frac = float(np.median(fracs[q]))
        s_med = float(np.median(sparse_angles[q]))
        n_med = float(np.median(nys_angles[q]))
        if frac >= 0.3:
            dominance &= s_med <= n_med
            sparse_vars.append(np.var(sparse_angles[q]))
            nys_vars.append(np.var(nys_angles[q]))
        lines.append(f"q={q}: frac {frac:.2f}, sparse {s_med:.2e}, sampled {n_med:.2e}")
    variance_ok = float(np.mean(sparse_vars)) <= float(np.mean(nys_vars))
    ok = dominance and variance_ok
    report("sparse-selection-vs-nystrom", ok,
           f"dominance at >=30% budget: {dominance}, "
           f"variance {np.mean(sparse_vars):.2e} <= {np.mean(nys_vars):.2e}: {variance_ok}, "
           f"{elapsed:.0f}s\n    " + "\n    ".join(lines))
    assert ok


def test_shifted_frobenius_improvement():
    """Spectrum shifting never hurts the kernel approximation on slow decay."""
    trials, n, k = 20, 200, 10
    improved = 0
    worst_margin = np.inf
    for trial in range(trials):
        K = gen_slow_decay(n, seed=derive_seed(MASTER_SEED, 13, trial))
        mu = shift_mu_mean(K, k)
        vp, up = nystrom_extend(K, k)
        err_plain = np.linalg.norm(K.a - kernel_approx(vp, up).a)
        vs, us = shifted_nystrom(K, k, mu)
        err_shift = np.linalg.norm(K.a - kernel_approx(vs, us).a)
        improved += err_shift <= err_plain
        worst_margin = min(worst_margin, err_plain - err_shift)
    ok = improved == trials
    report("shifted-frobenius-improvement", ok,
           f"{improved}/{trials} trials improved, smallest margin {worst_margin:.2e}")
    assert ok


def test_eigensolver_contract_and_determinism(tmp_path):
    """Residual contract on 100 random matrices; byte-identical reruns."""
    worst = 0.0
    for trial in range(100):
        rng = rng_for(derive_seed(MASTER_SEED, 14, trial))
        A = SymmetricDense(rng.standard_normal((100, 100)), symmetrize=True)
        pairs = sym_eig_full(A)
        norm = spectral_norm(A)
        resid = A.a @ pairs.vectors - pairs.vectors * pairs.values[None, :]
        worst = max(worst, float(np.max(np.linalg.norm(resid, axis=0)) / norm))
    residuals_ok = worst <= 1e-10

    args = ["band", "--n", "120", "--m", "4", "--trials", "2",
            "--seed", str(MASTER_SEED), "--p-grid", "3,12,48"]
    assert cli_main(args + ["--out", str(tmp_path / "a.csv")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b.csv")]) == 0
    identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    ok = residuals_ok and identical
    report("eigensolver-contract", ok,
           f"worst relative residual {worst:.2e} (tol 1e-10), "
           f"byte-identical reruns: {identical}")
    assert ok
