"""Desk-scale experiment runners behind the CLI.

Every runner is deterministic given (seed, parameters): per-trial generators
derive their keys from the master seed and the trial index, and report rows
are sorted before writing, so scheduling cannot change the output bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import perturbation as pert
from .extension import ExtensionConfig, Selector, extend_with_submatrix, kernel_approx, select_submatrix
from .kernels import (
    Dataset,
    KernelSpec,
    build_sparse_kernel,
    gen_band_matrix,
    gen_clustered_dataset,
    gen_psd_separated_block,
    gen_rank_m_spectrum,
    gen_slow_decay,
    gen_unit_random_symmetric,
    rng_for,
    standardize,
)
from .matrixcore import (
    ConvergenceError,
    EigengapError,
    SparseSymmetric,
    SymmetricDense,
    principal_angle,
    sym_eig_full,
    sym_eig_partial,
)
from .nystrom import (
    SingularSampleError,
    check_shifted_equivalence,
    check_topleft_equivalence,
    generalized_nystrom,
    nystrom_extend,
    shift_mu_mean,
    shifted_nystrom,
)

REPORT_HEADER = "experiment_id,method,parameter,nnz_fraction,metric,value,trial,seed"


def derive_seed(seed: int, *stream: int) -> int:
    """Deterministic integer sub-seed for (master seed, stream indices)."""
    ss = np.random.SeedSequence(entropy=(int(seed), *map(int, stream)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class ReportRow:
    experiment_id: str
    method: str
    parameter: float
    nnz_fraction: float
    metric: str
    value: float
    trial: int
    seed: int

    def validate(self):
        if not np.isfinite(self.value):
            raise ValueError(f"non-finite metric value in row {self}")
        if not 0.0 < self.nnz_fraction <= 1.0:
            raise ValueError(f"nnz_fraction outside (0, 1] in row {self}")


def write_report(path, rows) -> None:
    """Write report rows as CSV, sorted by (experiment, method, parameter,
    trial), every float with 17 significant digits so it reads back exactly.

    Every row is validated before the file is opened.
    """
    rows = list(rows)
    for row in rows:
        row.validate()
    with open(path, "w") as fh:
        fh.write(REPORT_HEADER + "\n")
        for r in sorted(rows, key=lambda r: (r.experiment_id, r.method, r.parameter, r.trial)):
            fh.write(f"{r.experiment_id},{r.method},{r.parameter:.17g},"
                     f"{r.nnz_fraction:.17g},{r.metric},{r.value:.17g},"
                     f"{r.trial},{r.seed}\n")


def _aligned_leading_error(exact: np.ndarray, approx_col: np.ndarray) -> float:
    """Distance between the approximated and the exact leading eigenvector,
    after flipping the exact vector's sign to match."""
    if np.dot(exact, approx_col) < 0:
        exact = -exact
    return float(np.linalg.norm(approx_col - exact))


# ---------------------------------------------------------------------------
# slope experiments


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")


NORM_SLOPE_GRID = np.logspace(-6, -3, 10)
TAIL_SLOPE_GRID = np.logspace(np.log10(3e-2), np.log10(5e-1), 8)


def _slope_grid(experiment_id: str, grid, default) -> np.ndarray:
    """The grid of a slope sweep, ``default`` when None.  A log-log slope
    needs two distinct points with finite logarithms, so a grid with fewer
    than two distinct values, or with a value that is not finite and
    positive, raises ValueError naming the grid."""
    grid = np.asarray(default if grid is None else grid, dtype=float)
    if np.unique(grid).size < 2 or not np.all(np.isfinite(grid) & (grid > 0)):
        raise ValueError(f"{experiment_id} grid {grid.tolist()} needs at least two distinct "
                         f"values, all finite and positive")
    return grid


def _slope_sweep(experiment_id: str, grid: np.ndarray, problem_at, seed: int):
    """Leading-eigenvector error of both truncated orders (mu = 0) at each
    point c of a ``_slope_grid``, where problem_at(c) gives (base, its known
    leading pairs, the entries of the perturbation E); the updates take
    E V = E @ V, and base + E is solved once per point.  Returns (rows,
    slopes): slopes maps order name to the fitted log-log slope of the
    error against c.
    """
    rows = []
    errors = {"order1": [], "order2": []}
    for c in grid:
        base, known, E = problem_at(c)
        problem = pert.PerturbationProblem(base=base, known=known, EV=E @ known.vectors)
        exact = sym_eig_full(SymmetricDense(base.a + E), 1).vectors[:, 0]
        for name, update in (("order1", pert.truncated_first_order),
                             ("order2", pert.truncated_second_order)):
            err = _aligned_leading_error(exact, update(problem, 0.0)[:, 0])
            errors[name].append(err)
            rows.append(ReportRow(experiment_id, name, float(c), 1.0,
                                  "vector_error", err, 0, seed))
    # _slope_grid guarantees two distinct positive points, so the fit is defined
    try:
        slopes = {name: float(np.polyfit(np.log(grid), np.log(errs), 1)[0])
                  for name, errs in errors.items()}
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{experiment_id} slope fit failed: {exc}") from exc
    return rows, slopes


def run_norm_slopes(n: int = 200, m: int = 10, seed: int = 0, grid=None):
    """Leading-eigenvector error of both truncated orders versus ||c E||.

    Unit-norm random base and perturbation direction, mu = 0.  Returns
    (rows, slopes) where slopes maps order name to the fitted log-log slope.
    """
    grid = _slope_grid("slope_vs_norm", grid, NORM_SLOPE_GRID)
    base = gen_unit_random_symmetric(n, derive_seed(seed, 0))
    direction = gen_unit_random_symmetric(n, derive_seed(seed, 1))
    known = sym_eig_full(base, m)
    return _slope_sweep("slope_vs_norm", grid, lambda c: (base, known, c * direction.a), seed)


def run_tail_slopes(n: int = 200, m: int = 10, seed: int = 0, grid=None):
    """Leading-eigenvector error of both orders versus the tail value c.

    The base matrix has m leading values in [1, 2] and all remaining values
    exactly c; the perturbation norm is fixed at 1e-6, small enough that the
    tail term dominates.  First order responds linearly in c, second order
    quadratically.
    """
    grid = _slope_grid("slope_vs_tail", grid, TAIL_SLOPE_GRID)
    E = 1e-6 * gen_unit_random_symmetric(n, derive_seed(seed, 2)).a
    spectrum_seed = derive_seed(seed, 3)

    def problem_at(c):
        base = gen_rank_m_spectrum(n, m, tail_value=float(c), seed=spectrum_seed)
        return base, sym_eig_full(base, m), E

    return _slope_sweep("slope_vs_tail", grid, problem_at, seed)


# ---------------------------------------------------------------------------
# budget experiments (band and sparse selections vs. generalized Nystrom)


def _topleft_nnz(K) -> np.ndarray:
    """Stored nonzeros of the top-left l x l block at index l - 1, for every
    l (symmetric pairs counted twice)."""
    rows, cols, _ = K.triplets()
    weight = np.where(rows == cols, 1, 2)
    return np.cumsum(np.bincount(cols, weights=weight, minlength=K.n))


def _matched_size(topleft_nnz: np.ndarray, target_nnz: float, minimum: int) -> int:
    """``matched_topleft_size`` read from the profile ``_topleft_nnz(K)``."""
    l = int(np.searchsorted(topleft_nnz, target_nnz) + 1)
    return max(minimum, min(l, topleft_nnz.size))


def matched_topleft_size(K, target_nnz: float, minimum: int = 1) -> int:
    """Smallest l whose top-left l x l block holds at least target_nnz
    stored nonzeros (symmetric pairs counted twice)."""
    return _matched_size(_topleft_nnz(K), target_nnz, minimum)


class SweepError(RuntimeError):
    """Points of a budget sweep failed with a typed numerical error: ``rows`` holds the
    scored points, ``failures`` one (trial, method, parameter, message) per failed one."""

    def __init__(self, rows, failures):
        super().__init__(f"{len(failures)} sweep point(s) failed")
        self.rows, self.failures = rows, failures


def _budget_trial(experiment_id: str, K: SparseSymmetric, selections, cfg: ExtensionConfig,
                  trial: int, seed: int, failures: list):
    """One trial of a budget experiment: extension from each (parameter,
    selector) pair against generalized Nystrom.

    The exact leading-m subspace of K is the oracle; each method's largest
    principal angle against it is recorded together with its selected
    share of the stored nonzeros.  The oracle comes from
    ``sym_eig_partial``: dense LAPACK up to n = 256, seeded Lanczos on K's
    CSR above, where a tie between pairs m and m + 1 raises EigengapError.
    The Nystrom block sizes are budget-matched to the selections, all read
    from one top-left nnz profile of K.  A point whose solve raises a typed
    numerical error scores no row: (trial, method, parameter, message) goes
    to ``failures`` and the trial goes on.
    The extensions' bound terms are never read, so none is computed.
    """
    m = cfg.m
    total_nnz = K.nnz
    exact = sym_eig_partial(K, m).vectors
    topleft_nnz = _topleft_nnz(K)
    rows, matched_ls = [], []

    def score(method, param, selected_nnz, solve):
        try:
            rows.append(ReportRow(experiment_id, method, float(param), selected_nnz / total_nnz,
                                  "principal_angle", principal_angle(solve(), exact), trial, seed))
        except (EigengapError, ConvergenceError, pert.MuCollisionError, SingularSampleError) as exc:
            failures.append((trial, method, float(param), str(exc)))

    for param, sel in selections:
        Ks = select_submatrix(K, sel)
        nnz = Ks.nnz
        score(f"{experiment_id}_extension", param, nnz, lambda: extend_with_submatrix(K, Ks, cfg).vectors)
        matched_ls.append(_matched_size(topleft_nnz, nnz, m))
    for l in sorted(set(matched_ls)):
        score("nystrom_generalized", l, int(topleft_nnz[l - 1]), lambda: generalized_nystrom(K, m, l)[1])
    return rows


def _budget_sweep(experiment_id: str, grid_name: str, grid, selector_of, kernel_of,
                  m: int, trials: int, seed: int, order: int, mu):
    """``_budget_trial`` of kernel_of(trial) for every trial, with the selection
    selector_of(x) for each x in the grid: the rows, or SweepError with them."""
    if not grid:
        raise ValueError(f"empty {grid_name} grid")
    _check_trials(trials)
    cfg = ExtensionConfig(m=m, order=order, mu=pert.MuPolicy.zero() if mu is None else mu)
    selections = [(x, selector_of(x)) for x in grid]
    rows, failures = [], []
    for trial in range(trials):
        rows += _budget_trial(experiment_id, kernel_of(trial), selections, cfg, trial, seed, failures)
    if failures:
        raise SweepError(rows, failures)
    return rows


def run_band_experiment(n: int = 500, m: int = 10, p_grid=None,
                        trials: int = 20, seed: int = 0, order: int = 1,
                        mu: pert.MuPolicy | None = None):
    """Band selections versus generalized Nystrom on gen_band_matrix instances,
    whose stored count is concentrated near the diagonal while the
    magnitudes have a harmonic tail (see gen_band_matrix).  A failed point raises SweepError.
    """
    if p_grid is None:
        p_grid = (2, 5, 10, 20, 40, 80, 150, 250, 350, 450)
    return _budget_sweep("band", "p", [int(p) for p in p_grid], lambda p: Selector.band(min(p, n - 1)),
                         lambda trial: gen_band_matrix(n, seed=derive_seed(seed, 10, trial)),
                         m, trials, seed, order, mu)


def _sparse_trial_kernel(dataset: Dataset | None, kernel_spec: KernelSpec,
                         n: int, keep: float, trial_seed: int) -> SparseSymmetric:
    if dataset is None:
        ds = gen_clustered_dataset(n=n, seed=trial_seed)
    else:
        rng = rng_for(trial_seed)
        take = min(n, dataset.n)
        idx = rng.choice(dataset.n, size=take, replace=False)
        ds = Dataset(dataset.samples[idx])
    return build_sparse_kernel(standardize(ds), kernel_spec, keep)


def run_sparse_experiment(dataset: Dataset | None = None,
                          kernel_spec: KernelSpec | None = None,
                          m: int = 5, q_grid=None,
                          trials: int = 20, seed: int = 0, n: int = 1000,
                          keep: float = 0.1, order: int = 1,
                          mu: pert.MuPolicy | None = None):
    """Largest-entry selections versus generalized Nystrom on sparsified kernels.

    The kernel of each trial is built from the dataset (or the synthetic
    clustered stand-in), standardized, and sparsified to its largest
    ``keep`` fraction of entries; that sparse matrix is the object whose
    leading subspace both methods approximate.  A failed point raises SweepError.
    """
    if kernel_spec is None:
        kernel_spec = KernelSpec.gaussian(0.1)
    if q_grid is None:
        q_grid = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    return _budget_sweep("sparse", "q", [float(q) for q in q_grid], Selector.sparse_top_q,
                         lambda trial: _sparse_trial_kernel(dataset, kernel_spec, n, keep,
                                                            derive_seed(seed, 20, trial)),
                         m, trials, seed, order, mu)


# ---------------------------------------------------------------------------
# verification of the exact equivalences


def run_verification(n: int = 200, m: int = 20, trials: int = 50, seed: int = 0,
                     mu_policy: pert.MuPolicy | None = None, tolerance: float = 1e-10):
    """Seeded checks of the sampling/perturbation equivalences and the
    low-rank-plus-shift degeneracy.

    Returns (rows, all_passed, guarded).  ``guarded`` collects parameter
    combinations that hit a guarded singularity (for example an explicit mu
    equal to a sampled eigenvalue) rather than producing wrong numbers.
    """
    _check_trials(trials)
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    if mu_policy is None:
        mu_policy = pert.MuPolicy.mean()
    tag = f"mu_{mu_policy.kind}"
    rows = []
    guarded = []
    all_passed = True
    for trial in range(trials):
        trial_seed = derive_seed(seed, 30, trial)
        K = gen_psd_separated_block(n, min(m, n - 1), seed=trial_seed)

        rep = check_topleft_equivalence(K, m, tolerance)
        rows.append(ReportRow("verify", "topleft_equivalence", float(m), 1.0,
                              "max_vector_deviation", rep["max_vector_deviation"], trial, seed))
        rows.append(ReportRow("verify", "topleft_equivalence", float(m), 1.0,
                              "max_value_deviation", rep["max_value_deviation"], trial, seed))
        all_passed &= rep["passed"]

        # the zero policy's value is 0.0
        mu_val = shift_mu_mean(K, m) if mu_policy.kind == "mean" else mu_policy.value
        try:
            rep = check_shifted_equivalence(K, m, mu_val, tolerance)
        except (pert.MuCollisionError, EigengapError, SingularSampleError) as exc:
            guarded.append((trial, tag, str(exc)))
        else:
            rows.append(ReportRow("verify", f"shifted_equivalence_{tag}", float(m), 1.0,
                                  "max_vector_deviation", rep["max_vector_deviation"], trial, seed))
            rows.append(ReportRow("verify", f"shifted_equivalence_{tag}", float(m), 1.0,
                                  "max_value_deviation", rep["max_value_deviation"], trial, seed))
            all_passed &= rep["passed"]

        # low-rank base plus spectrum shift: both truncated orders coincide
        delta = 0.5
        base = gen_rank_m_spectrum(n, m, tail_value=0.0, seed=derive_seed(seed, 31, trial))
        shifted = SymmetricDense(base.a + delta * np.eye(n), symmetrize=True)
        detected = pert.is_lowrank_plus_shift(shifted, m)
        detect_err = abs((detected if detected is not None else np.inf) - delta)
        E = SymmetricDense(1e-6 * gen_unit_random_symmetric(n, derive_seed(seed, 32, trial)).a)
        known = sym_eig_full(shifted, m)
        problem = pert.PerturbationProblem(base=shifted, known=known, EV=E.matvec(known.vectors))
        W1 = pert.truncated_first_order(problem, delta)
        W2 = pert.truncated_second_order(problem, delta)
        order_gap = float(np.max(np.abs(W1 - W2)))
        rows.append(ReportRow("verify", "lowrank_shift_detection", float(m), 1.0,
                              "delta_error", detect_err, trial, seed))
        rows.append(ReportRow("verify", "lowrank_shift_orders", float(m), 1.0,
                              "max_order_difference", order_gap, trial, seed))
        all_passed &= detect_err <= 1e-8 and order_gap <= 1e-12
    return rows, all_passed, guarded


# ---------------------------------------------------------------------------
# shifted-vs-plain Frobenius comparison on slowly decaying spectra


def run_shift_comparison(n: int = 200, k: int = 10, trials: int = 20, seed: int = 0):
    """Frobenius error of the shifted and plain approximations on slow-decay
    instances; returns (rows, n_improved)."""
    rows = []
    improved = 0
    for trial in range(trials):
        K = gen_slow_decay(n, seed=derive_seed(seed, 40, trial))
        mu = shift_mu_mean(K, k)
        vals_p, vecs_p = nystrom_extend(K, k)
        err_plain = float(np.linalg.norm(K.a - kernel_approx(vals_p, vecs_p).a))
        vals_s, vecs_s = shifted_nystrom(K, k, mu)
        err_shift = float(np.linalg.norm(K.a - kernel_approx(vals_s, vecs_s).a))
        rows.append(ReportRow("shift_comparison", "plain", float(k), 1.0,
                              "frobenius_error", err_plain, trial, seed))
        rows.append(ReportRow("shift_comparison", "shifted", float(k), 1.0,
                              "frobenius_error", err_shift, trial, seed))
        improved += err_shift <= err_plain
    return rows, improved
