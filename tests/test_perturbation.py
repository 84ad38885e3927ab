import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturbext.kernels import gen_rank_m_spectrum, gen_unit_random_symmetric
from perturbext.matrixcore import (
    GAP_TOL,
    ConvergenceError,
    EigengapError,
    EigenPairs,
    SymmetricDense,
    sym_eig_full,
)
from perturbext.perturbation import (
    tail_sq_sum_from_traces,
    MuCollisionError,
    MuPolicy,
    PerturbationProblem,
    bound_terms,
    classical_eigval_update,
    classical_eigvec_update,
    is_lowrank_plus_shift,
    mu_mean,
    truncated_first_order,
    truncated_second_order,
)


def leading(A, m):
    full = sym_eig_full(A)
    return EigenPairs(full.values[:m], full.vectors[:, :m])


def make_problem(A, E, m):
    known = leading(A, m)
    return PerturbationProblem(base=A, known=known, EV=E @ known.vectors)


def aligned_column_errors(W, A_perturbed, m):
    """Sign-aligned distances between W's columns and the exact leading vectors."""
    exact = sym_eig_full(SymmetricDense(A_perturbed)).vectors[:, :m]
    errs = []
    for i in range(m):
        v = exact[:, i]
        if np.dot(W[:, i], v) < 0:
            v = -v
        errs.append(np.linalg.norm(W[:, i] - v))
    return np.array(errs)


class TestClassicalUpdates:
    def test_zero_perturbation_identity(self):
        A = gen_unit_random_symmetric(12, seed=1)
        problem = make_problem(A, np.zeros((12, 12)), 12)
        W = classical_eigvec_update(problem)
        assert np.array_equal(W, problem.known.vectors)
        vals = classical_eigval_update(problem)
        assert np.array_equal(vals, problem.known.values)

    def test_two_by_two_closed_form(self):
        # A' = diag(2, 1), E couples the coordinates with eps = 1e-4
        eps = 1e-4
        A = SymmetricDense(np.diag([2.0, 1.0]))
        E = np.array([[0.0, eps], [eps, 0.0]])
        problem = make_problem(A, E, 2)
        W = classical_eigvec_update(problem)
        assert W[:, 0] == pytest.approx([1.0, eps], abs=1e-15)
        # closed-form eigenvector of [[2, eps], [eps, 1]]: angle from atan2
        theta = 0.5 * np.arctan2(2 * eps, 1.0)
        exact = np.array([np.cos(theta), np.sin(theta)])
        assert np.linalg.norm(W[:, 0] / np.linalg.norm(W[:, 0]) - exact) <= 1e-8

    def test_small_perturbation_matches_oracle(self):
        A = gen_unit_random_symmetric(8, seed=2)
        E = 1e-5 * gen_unit_random_symmetric(8, seed=3).a
        problem = make_problem(A, E, 8)
        W = classical_eigvec_update(problem)
        errs = aligned_column_errors(W, A.a + E, 8)
        assert np.max(errs) <= 1e-8

    def test_diagonal_value_update_exact(self):
        A = SymmetricDense(np.diag([2.0, 1.0]))
        E = np.array([[0.01, 0.0], [0.0, 0.0]])
        vals = classical_eigval_update(make_problem(A, E, 2))
        assert vals[0] == pytest.approx(2.01, abs=1e-15)

    def test_value_update_second_order_accurate(self):
        A = gen_unit_random_symmetric(8, seed=4)
        E = 1e-4 * gen_unit_random_symmetric(8, seed=5).a
        vals = classical_eigval_update(make_problem(A, E, 8))
        exact = sym_eig_full(SymmetricDense(A.a + E, symmetrize=True)).values
        assert np.max(np.abs(vals - exact)) <= 1e-7

    def test_repeated_eigenvalues_rejected(self):
        A = SymmetricDense(np.eye(3))
        with pytest.raises(EigengapError):
            make_problem(A, np.zeros((3, 3)), 3)

    def test_problem_is_frozen(self):
        # the gap check of construction must hold for the problem's whole life
        A = gen_unit_random_symmetric(6, seed=7)
        problem = make_problem(A, np.zeros((6, 6)), 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.known = leading(SymmetricDense(np.eye(6)), 3)
        with pytest.raises(AttributeError):
            problem.known.values = np.ones(3)
        assert problem.coupling is problem.coupling

    def test_classical_requires_full_basis(self):
        A = gen_unit_random_symmetric(6, seed=6)
        with pytest.raises(ValueError, match="all n eigenpairs"):
            classical_eigvec_update(make_problem(A, np.zeros((6, 6)), 3))


class TestResidual:
    """The residual block of the coupling, R[:, i] = (I - V V^T) E v_i."""

    def test_complete_projector_gives_zero(self):
        A = gen_unit_random_symmetric(9, seed=7)
        E = gen_unit_random_symmetric(9, seed=8).a
        _, R = make_problem(A, E, 9).coupling
        assert np.linalg.norm(R[:, 0]) <= 1e-12

    def test_zero_perturbation_gives_zero(self):
        A = gen_unit_random_symmetric(9, seed=9)
        _, R = make_problem(A, np.zeros((9, 9)), 4).coupling
        assert np.all(R == 0)

    def test_orthogonal_to_known_subspace(self):
        A = gen_unit_random_symmetric(30, seed=10)
        E = gen_unit_random_symmetric(30, seed=11).a
        known = leading(A, 6)
        _, R = PerturbationProblem(base=A, known=known, EV=E @ known.vectors).coupling
        for i in range(6):
            assert np.max(np.abs(known.vectors.T @ R[:, i])) <= 1e-10 * np.linalg.norm(E, 2)


class TestGivenProduct:
    """A problem holds E V, shaped like the known vectors, as a read-only copy."""

    @pytest.mark.parametrize("shape", [(12, 4), (11, 3), (12,)])
    def test_wrong_shape_rejected(self, shape):
        A = gen_unit_random_symmetric(12, seed=14)
        with pytest.raises(ValueError, match="share dimension"):
            PerturbationProblem(base=A, known=leading(A, 3), EV=np.zeros(shape))

    def test_stored_copy_is_read_only(self):
        A = gen_unit_random_symmetric(12, seed=14)
        EV = np.ones((12, 3))
        problem = PerturbationProblem(base=A, known=leading(A, 3), EV=EV)
        with pytest.raises(ValueError, match="read-only"):
            problem.EV[0, 0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.EV = EV
        # the caller's array stays writeable and is not the stored one
        EV[0, 0] = 2.0
        assert problem.EV[0, 0] == 1.0


class TestTruncatedFormulas:
    def test_full_basis_reduces_to_classical(self):
        A = gen_unit_random_symmetric(10, seed=13)
        E = 1e-3 * gen_unit_random_symmetric(10, seed=14).a
        problem = make_problem(A, E, 10)
        W_classical = classical_eigvec_update(problem)
        W_trunc = truncated_first_order(problem, 0.123)  # mu is irrelevant: r_i ~ 0
        assert np.max(np.abs(W_classical - W_trunc)) <= 1e-13

    def test_zero_perturbation_identity_bitwise(self):
        A = gen_unit_random_symmetric(10, seed=15)
        problem = make_problem(A, np.zeros((10, 10)), 4)
        assert np.array_equal(truncated_first_order(problem, 0.5), problem.known.vectors)
        assert np.array_equal(truncated_second_order(problem, 0.5), problem.known.vectors)

    def test_lowrank_base_orders_coincide_mu_zero(self):
        # rank-m base, mu = 0: both truncated orders give the same update
        A = gen_rank_m_spectrum(30, 5, tail_value=0.0, seed=16)
        E = 1e-4 * gen_unit_random_symmetric(30, seed=17).a
        problem = make_problem(A, E, 5)
        W1 = truncated_first_order(problem, 0.0)
        W2 = truncated_second_order(problem, 0.0)
        assert np.max(np.abs(W1 - W2)) <= 1e-12

    def test_shifted_lowrank_orders_coincide_mu_delta(self):
        delta = 0.5
        A0 = gen_rank_m_spectrum(30, 5, tail_value=0.0, seed=18)
        A = SymmetricDense(A0.a + delta * np.eye(30), symmetrize=True)
        E = 1e-4 * gen_unit_random_symmetric(30, seed=19).a
        problem = make_problem(A, E, 5)
        W1 = truncated_first_order(problem, delta)
        W2 = truncated_second_order(problem, delta)
        assert np.max(np.abs(W1 - W2)) <= 1e-12

    def test_mu_collision_rejected(self):
        A = gen_unit_random_symmetric(10, seed=20)
        problem = make_problem(A, np.zeros((10, 10)), 3)
        with pytest.raises(MuCollisionError):
            truncated_first_order(problem, float(problem.known.values[1]))

    def test_first_order_slope_in_perturbation_norm(self):
        # error scales linearly with ||cE|| for both orders
        n, m = 120, 8
        A = gen_unit_random_symmetric(n, seed=21)
        D = gen_unit_random_symmetric(n, seed=22).a
        known = leading(A, m)
        cs = np.logspace(-6, -3, 8)
        errs1, errs2 = [], []
        for c in cs:
            problem = PerturbationProblem(base=A, known=known, EV=(c * D) @ known.vectors)
            W1 = truncated_first_order(problem, 0.0)
            W2 = truncated_second_order(problem, 0.0)
            errs1.append(aligned_column_errors(W1[:, :1], A.a + c * D, 1)[0])
            errs2.append(aligned_column_errors(W2[:, :1], A.a + c * D, 1)[0])
        slope1 = np.polyfit(np.log(cs), np.log(errs1), 1)[0]
        slope2 = np.polyfit(np.log(cs), np.log(errs2), 1)[0]
        assert 0.9 <= slope1 <= 1.1
        assert 0.9 <= slope2 <= 1.1

    def test_tail_slopes_linear_and_quadratic(self):
        # error vs tail value: slope 1 for first order, slope 2 for second
        n, m = 120, 8
        E = 1e-6 * gen_unit_random_symmetric(n, seed=23).a
        cs = np.logspace(np.log10(3e-2), np.log10(5e-1), 8)
        errs1, errs2 = [], []
        for c in cs:
            A = gen_rank_m_spectrum(n, m, tail_value=float(c), seed=24)
            problem = make_problem(A, E, m)
            W1 = truncated_first_order(problem, 0.0)
            W2 = truncated_second_order(problem, 0.0)
            errs1.append(aligned_column_errors(W1[:, :1], A.a + E, 1)[0])
            errs2.append(aligned_column_errors(W2[:, :1], A.a + E, 1)[0])
        slope1 = np.polyfit(np.log(cs), np.log(errs1), 1)[0]
        slope2 = np.polyfit(np.log(cs), np.log(errs2), 1)[0]
        assert 0.85 <= slope1 <= 1.15
        assert 1.85 <= slope2 <= 2.15

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_zero_perturbation_property(self, seed):
        A = gen_unit_random_symmetric(15, seed=seed)
        problem = make_problem(A, np.zeros((15, 15)), 5)
        assert np.array_equal(truncated_first_order(problem, MuPolicy.mean().resolve(problem)),
                              problem.known.vectors)


class TestErrorBounds:
    def test_tail_exactly_mu_gives_zero(self):
        values, tail = np.array([5.0, 4.0]), np.array([0.5, 0.5])
        assert bound_terms(values, tail, 0.5, 0.01, 1)[0] == 0.0
        assert bound_terms(values, tail, 0.5, 0.01, 2)[0] == 0.0

    def test_first_order_arithmetic(self):
        # spectrum (5, 4, 1, 1), m=2, mu=0, ||E||=0.01, i=1
        bound = bound_terms(np.array([5.0, 4.0]), np.array([1.0, 1.0]), 0.0, 0.01, 1)[0]
        assert bound == pytest.approx(0.004, abs=1e-15)

    def test_second_order_arithmetic(self):
        bound = bound_terms(np.array([5.0, 4.0]), np.array([1.0, 1.0]), 0.0, 0.01, 2)[0]
        assert bound == pytest.approx(0.0008, abs=1e-15)

    def test_bound_vector_inf_at_last_index(self):
        bounds = bound_terms(np.array([5.0, 4.0]), np.array([1.0, 1.0]), 0.0, 0.01, 1)
        assert bounds[0] == pytest.approx(0.004)
        assert np.isinf(bounds[1])

    def test_matches_per_pair_formula(self):
        # reference: the formula evaluated pair by pair, inf where the gap
        # to the last retained value is below GAP_TOL
        rng = np.random.default_rng(56)
        values = np.append(np.sort(rng.uniform(2.0, 4.0, size=5))[::-1], [1.5, 1.5])
        tail = rng.uniform(-1.0, 1.0, size=12)
        for order in (1, 2):
            for mu in (0.0, 0.3):
                total = np.sum(np.abs(tail - mu) ** order)
                expected = [np.inf if abs(t - values[-1]) < GAP_TOL
                            else total / (abs(t - values[-1]) * abs(t - mu) ** order) * 1e-3
                            for t in values]
                np.testing.assert_allclose(bound_terms(values, tail, mu, 1e-3, order), expected,
                                           rtol=1e-15, atol=0.0)

    def test_bounds_cover_measured_error(self):
        # tiny perturbations: the first computable term dominates the truth
        for seed in range(10):
            n, m = 40, 6
            A = gen_unit_random_symmetric(n, seed=100 + seed)
            norm_e = 1e-8
            E = norm_e * gen_unit_random_symmetric(n, seed=200 + seed).a
            problem = make_problem(A, E, m)
            W1 = truncated_first_order(problem, 0.0)
            errs = aligned_column_errors(W1, A.a + E, m)
            tail = sym_eig_full(A).values[m:]
            bounds = bound_terms(problem.known.values, tail, 0.0, norm_e, 1)
            assert np.all(errs <= 2.0 * bounds + 1e-12)

    def test_second_bound_below_first_when_tail_dominated(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            values = np.sort(rng.uniform(2.0, 4.0, size=4))[::-1]
            tail = rng.uniform(0.0, 1.0, size=10)
            mu = 0.0
            # all |t_k - mu| <= |t_i - mu| for the retained i
            b1 = bound_terms(values, tail, mu, 1e-3, 1)
            b2 = bound_terms(values, tail, mu, 1e-3, 2)
            finite = np.isfinite(b1)
            assert np.all(b2[finite] <= b1[finite])


class TestMuSelection:
    def test_mu_mean_arithmetic(self):
        assert mu_mean(8.0, np.array([4.0]), 4) == pytest.approx(4.0 / 3.0)

    def test_mu_mean_lowrank_plus_shift(self):
        delta = 0.7
        A0 = gen_rank_m_spectrum(20, 4, tail_value=0.0, seed=30)
        A = SymmetricDense(A0.a + delta * np.eye(20), symmetrize=True)
        known = leading(A, 4)
        assert mu_mean(np.trace(A.a), known.values, 20) == pytest.approx(delta, abs=1e-10)

    def test_mu_mean_rank_m(self):
        A = gen_rank_m_spectrum(20, 4, tail_value=0.0, seed=31)
        known = leading(A, 4)
        assert mu_mean(np.trace(A.a), known.values, 20) == pytest.approx(0.0, abs=1e-12)

    def test_mu_mean_rejects_full_rank_request(self):
        with pytest.raises(ValueError):
            mu_mean(3.0, np.array([1.0, 1.0, 1.0]), 3)

    def test_policy_parse(self):
        assert MuPolicy.parse("zero").kind == "zero"
        assert MuPolicy.parse("mean").kind == "mean"
        assert MuPolicy.parse("0.25") == MuPolicy.explicit(0.25)
        with pytest.raises(ValueError):
            MuPolicy.parse("bogus")

    @pytest.mark.parametrize("kind, value, error", [
        ("median", 0.0, ValueError), ("explicit", float("nan"), ValueError),
        ("explicit", float("inf"), ValueError), ("zero", 3.0, ValueError), ("mean", -1.0, ValueError),
        ("zero", None, ValueError), ("explicit", None, TypeError), ("explicit", "1", TypeError),
        ("explicit", [0.5], TypeError),
    ])
    def test_construction_is_checked(self, kind, value, error):
        with pytest.raises(error) as caught:
            MuPolicy(kind, value)
        assert type(caught.value) is error

    def test_value_is_a_float(self):
        assert MuPolicy.zero().value == 0.0 and MuPolicy.mean().value == 0.0
        for policy in (MuPolicy.explicit(1), MuPolicy.explicit(np.float32(0.25)), MuPolicy("zero", 0)):
            assert type(policy.value) is float
        assert MuPolicy.explicit(1) == MuPolicy.explicit(1.0)


class TestLowrankPlusShift:
    def test_detects_shift(self):
        A0 = gen_rank_m_spectrum(25, 5, tail_value=0.0, seed=32)
        A = SymmetricDense(A0.a + 0.5 * np.eye(25), symmetrize=True)
        assert is_lowrank_plus_shift(A, 5) == pytest.approx(0.5, abs=1e-10)

    def test_detects_exact_lowrank(self):
        A = gen_rank_m_spectrum(25, 5, tail_value=0.0, seed=33)
        assert is_lowrank_plus_shift(A, 5) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_values_only_solve_matches_full_decomposition(self, seed):
        # reference: the trailing values of a full sym_eig_full decomposition
        A = SymmetricDense(gen_rank_m_spectrum(60, 6, tail_value=0.0, seed=seed).a + 0.25 * np.eye(60),
                           symmetrize=True)
        tail = sym_eig_full(A).values[6:]
        assert is_lowrank_plus_shift(A, 6) == pytest.approx(tail.mean(), abs=1e-12)

    def test_bad_input_raises_typed_errors(self, monkeypatch):
        A = gen_rank_m_spectrum(10, 2, tail_value=0.0, seed=1)
        with pytest.raises(ValueError, match="trailing values"):
            is_lowrank_plus_shift(A, 10)
        with pytest.raises(ValueError, match="finite"):
            is_lowrank_plus_shift(SymmetricDense(np.full((3, 3), np.nan)), 1)

        def lapack_fails(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", lapack_fails)
        with pytest.raises(ConvergenceError):
            is_lowrank_plus_shift(A, 2)

    def test_generic_matrix_rejected(self):
        A = gen_unit_random_symmetric(25, seed=34)
        assert is_lowrank_plus_shift(A, 5) is None


class TestTraceIdentities:
    def test_sq_sum_from_traces(self):
        A = gen_unit_random_symmetric(20, seed=41)
        full = sym_eig_full(A)
        m = 5
        expected = np.sum(full.values[m:] ** 2)
        via_trace = tail_sq_sum_from_traces(np.trace(A.a @ A.a), full.values[:m], 0.0, A.trace(), A.n)
        assert via_trace == pytest.approx(expected, abs=1e-10)
        shifted = tail_sq_sum_from_traces(np.trace(A.a @ A.a), full.values[:m], 0.5, A.trace(), A.n)
        assert shifted == pytest.approx(np.sum((full.values[m:] - 0.5) ** 2), abs=1e-10)

    def test_sq_sum_needs_trace_and_n_with_mu(self):
        with pytest.raises(TypeError):
            tail_sq_sum_from_traces(1.0, np.ones(2), 0.5)

    def test_bounds_accept_precomputed_sums(self):
        values, tail = np.array([5.0, 4.0]), np.array([1.0, 1.0])
        assert np.array_equal(bound_terms(values, tail, 0.0, 0.01, 1),
                              bound_terms(values, 2.0, 0.0, 0.01, 1))
        assert np.array_equal(bound_terms(values, tail, 0.0, 0.01, 2),
                              bound_terms(values, 2.0, 0.0, 0.01, 2))


class TestRawArrayInput:
    """A raw array is named as the wrong type, not failed on as a missing
    attribute."""

    def test_problem_base(self):
        A = gen_unit_random_symmetric(12, seed=7)
        with pytest.raises(TypeError, match="SymmetricDense or SparseSymmetric"):
            PerturbationProblem(base=A.a, known=leading(A, 3), EV=np.zeros((12, 3)))

    def test_is_lowrank_plus_shift(self):
        with pytest.raises(TypeError, match="SymmetricDense or SparseSymmetric"):
            is_lowrank_plus_shift(np.eye(4), 1)
