import pytest

from perturbext import experiments as exp
from perturbext.extension import Selector, select_submatrix
from perturbext.kernels import KernelSpec, gen_band_matrix
from perturbext.matrixcore import EigengapError, nnz
from perturbext.nystrom import SingularSampleError
from perturbext.perturbation import MuCollisionError


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
                assert r.nnz_fraction == nnz(Ks) / K.nnz


class TestVerification:
    @pytest.mark.parametrize("error", [MuCollisionError, EigengapError, SingularSampleError])
    def test_typed_guards_are_reported(self, monkeypatch, error):
        def guarded(*args, **kwargs):
            raise error("guard tripped")

        monkeypatch.setattr(exp, "check_shifted_equivalence", guarded)
        rows, passed, guarded_cases = exp.run_verification(n=30, m=3, trials=2, seed=1)
        assert passed
        assert [(trial, tag) for trial, tag, _ in guarded_cases] == [(0, "mu_mean"), (1, "mu_mean")]

    def test_other_value_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a guard")

        monkeypatch.setattr(exp, "check_shifted_equivalence", broken)
        with pytest.raises(ValueError, match="not a guard"):
            exp.run_verification(n=30, m=3, trials=1, seed=1)


class TestSlopeGrid:
    @pytest.mark.parametrize("grid", [(1e-4, 1e-4), (0.0, 1e-3), (1e-3,), ()])
    def test_degenerate_slope_grid_rejected_before_any_sweep(self, monkeypatch, grid):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep ran on a degenerate grid")

        monkeypatch.setattr(exp, "_slope_sweep", no_sweep)
        monkeypatch.setattr(exp, "gen_unit_random_symmetric", no_sweep)
        with pytest.raises(ValueError, match="slope_vs_norm grid"):
            exp.run_norm_slopes(n=20, m=2, grid=grid)
