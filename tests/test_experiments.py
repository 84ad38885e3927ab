import numpy as np
import pytest

from perturbext import experiments as exp
from perturbext.extension import ExtensionConfig, Selector, select_submatrix
from perturbext.kernels import KernelSpec, gen_band_matrix
from perturbext.matrixcore import EigengapError, SparseSymmetric, principal_angle, sym_eig_full
from perturbext.nystrom import SingularSampleError
from perturbext.perturbation import MuCollisionError, MuPolicy


class TestBudgetExperiments:
    def test_nystrom_fraction_matches_materialized_block(self):
        # the reference materializes each top-left block K^s and counts it
        seed, trials = 5, 2
        runs = (
            (exp.run_band_experiment(n=90, m=3, p_grid=(2, 10, 40), trials=trials, seed=seed),
             lambda trial: gen_band_matrix(90, seed=exp.derive_seed(seed, 10, trial))),
            (exp.run_sparse_experiment(m=3, q_grid=(0.1, 0.5), trials=trials, seed=seed, n=120),
             lambda trial: exp._sparse_trial_kernel(None, KernelSpec.gaussian(0.1), 120, 0.1,
                                                     exp.derive_seed(seed, 20, trial))),
        )
        for rows, kernel_of in runs:
            nys = [r for r in rows if r.method == "nystrom_generalized"]
            assert nys
            for r in nys:
                K = kernel_of(r.trial)
                Ks = select_submatrix(K, Selector.top_left(int(r.parameter)))
                assert r.nnz_fraction == Ks.nnz / K.nnz


class TestFailedPoints:
    """A sweep point whose solve raises a typed numerical error scores no row
    and the sweep goes on; the runner then raises SweepError with every
    scored row and every failed point."""

    # q = 0.05 of this 200-point kernel selects only the unit diagonal, whose
    # leading values tie
    ARGS = dict(n=200, m=4, trials=2, seed=11)

    def test_degenerate_selection_fails_alone(self):
        with pytest.raises(exp.SweepError) as caught:
            exp.run_sparse_experiment(**self.ARGS)
        rows, failures = caught.value.rows, caught.value.failures
        assert [(t, method, q) for t, method, q, _ in failures] == [
            (0, "sparse_extension", 0.05), (1, "sparse_extension", 0.05)]
        assert all("gap" in message for *_, message in failures)
        assert all(np.isfinite(r.value) for r in rows)
        grid = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        others = exp.run_sparse_experiment(q_grid=grid, **self.ARGS)
        ext = [r for r in rows if r.method == "sparse_extension"]
        assert ext == [r for r in others if r.method == "sparse_extension"]
        # the failed selection still sets its Nystrom budget
        nys = [r for r in rows if r.method == "nystrom_generalized"]
        assert set(r for r in others if r.method == "nystrom_generalized") <= set(nys)

    def test_failed_nystrom_block(self, monkeypatch):
        nystrom = exp.generalized_nystrom

        def failing(K, m, l):
            if l == failing.l:
                raise SingularSampleError("sampled block is zero")
            return nystrom(K, m, l)

        plain = exp.run_band_experiment(n=90, m=3, p_grid=(2, 10, 40), trials=1, seed=5)
        failing.l = int(max(r.parameter for r in plain if r.method == "nystrom_generalized"))
        monkeypatch.setattr(exp, "generalized_nystrom", failing)
        with pytest.raises(exp.SweepError) as caught:
            exp.run_band_experiment(n=90, m=3, p_grid=(2, 10, 40), trials=1, seed=5)
        assert caught.value.failures == [(0, "nystrom_generalized", float(failing.l),
                                          "sampled block is zero")]
        assert caught.value.rows == [r for r in plain if r.parameter != failing.l
                                     or r.method != "nystrom_generalized"]

    def test_single_trial_records_the_failure(self):
        K = SparseSymmetric(20, np.arange(20), np.arange(20), np.ones(20))
        failures = []
        rows = exp._budget_trial("sparse", K, [(1.0, Selector.band(0))], ExtensionConfig(m=2),
                                 0, 0, failures)
        assert [r.method for r in rows] == ["nystrom_generalized"]
        assert [f[:3] for f in failures] == [(0, "sparse_extension", 1.0)]


class TestBudgetOracle:
    def test_tie_at_pair_m_above_dense_limit_raises(self):
        # 300 stored diagonal entries send the oracle to Lanczos; pairs 2 and 3 tie,
        # while the selection (rows 0 and 1) has a gap, so only the oracle can raise
        n = 300
        d = np.linspace(1.0, 0.1, n)
        d[:3] = (3.0, 2.0, 2.0)
        K = SparseSymmetric(n, np.arange(n), np.arange(n), d)
        with pytest.raises(EigengapError, match="pairs 2 and 3"):
            exp._budget_trial("sparse", K, [(2, Selector.top_left(2))],
                              ExtensionConfig(m=2), 0, 0, [])

    @pytest.mark.parametrize("trial", [0, 1])
    @pytest.mark.parametrize("experiment, m, kernel_of", [
        ("band", 10, lambda trial: gen_band_matrix(500, seed=exp.derive_seed(0, 10, trial))),
        ("sparse", 5, lambda trial: exp._sparse_trial_kernel(
            None, KernelSpec.gaussian(0.1), 1000, 0.1, exp.derive_seed(0, 20, trial))),
    ], ids=["band", "sparse"])
    def test_oracle_matches_dense_solve(self, monkeypatch, experiment, m, kernel_of, trial):
        K = kernel_of(trial)
        oracles = []

        def record(U, W):
            oracles.append(W)
            return 0.0

        monkeypatch.setattr(exp, "principal_angle", record)
        exp._budget_trial(experiment, K, [(0.5, Selector.top_left(50))],
                          ExtensionConfig(m=m), trial, 0, [])
        dense = sym_eig_full(K, m).vectors
        assert oracles and all(W is oracles[0] for W in oracles)
        assert principal_angle(oracles[0], dense) <= 1e-10


class TestVerification:
    @pytest.mark.parametrize("error", [MuCollisionError, EigengapError, SingularSampleError])
    def test_typed_guards_are_reported(self, monkeypatch, error):
        def guarded(*args, **kwargs):
            raise error("guard tripped")

        monkeypatch.setattr(exp, "check_shifted_equivalence", guarded)
        rows, passed, guarded_cases = exp.run_verification(n=30, m=3, trials=2, seed=1)
        assert passed
        assert [(trial, tag) for trial, tag, _ in guarded_cases] == [(0, "mu_mean"), (1, "mu_mean")]

    @pytest.mark.parametrize("policy, tag", [(MuPolicy.zero(), "mu_zero"),
                                             (MuPolicy.explicit(0.25), "mu_explicit")])
    def test_fixed_mu_policies_tag_their_rows(self, policy, tag):
        rows, passed, guarded_cases = exp.run_verification(n=30, m=3, trials=2, seed=1,
                                                           mu_policy=policy)
        assert passed and not guarded_cases
        shifted = [r for r in rows if r.method.startswith("shifted_equivalence")]
        assert len(shifted) == 4
        assert {r.method for r in shifted} == {f"shifted_equivalence_{tag}"}

    def test_other_value_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a guard")

        monkeypatch.setattr(exp, "check_shifted_equivalence", broken)
        with pytest.raises(ValueError, match="not a guard"):
            exp.run_verification(n=30, m=3, trials=1, seed=1)


class TestShiftComparison:
    def test_small_run(self):
        trials = 3
        rows, improved = exp.run_shift_comparison(n=40, k=4, trials=trials, seed=3)
        assert len(rows) == 2 * trials
        assert all(np.isfinite(r.value) for r in rows)
        assert exp.run_shift_comparison(n=40, k=4, trials=trials, seed=3) == (rows, improved)
        error = {(r.method, r.trial): r.value for r in rows}
        assert improved == sum(error["shifted", t] <= error["plain", t] for t in range(trials))


class TestSlopeGrid:
    @pytest.mark.parametrize("grid", [(1e-4, 1e-4), (0.0, 1e-3), (1e-3,), ()])
    def test_degenerate_slope_grid_rejected_before_any_sweep(self, monkeypatch, grid):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep ran on a degenerate grid")

        monkeypatch.setattr(exp, "_slope_sweep", no_sweep)
        monkeypatch.setattr(exp, "gen_unit_random_symmetric", no_sweep)
        with pytest.raises(ValueError, match="slope_vs_norm grid"):
            exp.run_norm_slopes(n=20, m=2, grid=grid)
