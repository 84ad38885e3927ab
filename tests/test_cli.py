import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturbext import cli, experiments as exp
from perturbext.cli import main
from perturbext.kernels import gen_wishart_psd, gen_band_matrix, sparsify
from perturbext.matrixcore import read_dense, write_dense, write_sparse


@pytest.fixture
def dense_matrix_file(tmp_path):
    path = tmp_path / "K.txt"
    write_dense(path, gen_wishart_psd(30, seed=1))
    return path


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["extend", "--matrix", str(tmp_path / "nope.txt"),
                     "--selector", "band:1", "--m", "2", "--out", str(out)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_selector_is_usage_error(self, dense_matrix_file, tmp_path):
        code = main(["extend", "--matrix", str(dense_matrix_file),
                     "--selector", "nonsense", "--m", "2",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("mask", ["5 2\n0 1 1.0\n3\n", "5 9\n0 1 1.0\n2 2 1.0\n",
                                      "5 1\n0.5 1 1.0\n", "20 1\n12 3 1.0\n", "10 1\n3 12 1.0\n",
                                      "20 2\n0 1 1.0\n0 1 1.0\n", "5 1\n0 0 1.0\n"],
                             ids=["one_field_line", "short_of_header_count", "non_integer_index",
                                  "row_above_col", "index_beyond_header", "duplicate_pair",
                                  "header_n_differs"])
    def test_malformed_mask_file_is_usage_error(self, tmp_path, capsys, mask):
        # every index fits the 20 x 20 matrix: the mask file itself is at fault
        matrix, mask_path = tmp_path / "K20.txt", tmp_path / "mask.txt"
        write_dense(matrix, gen_wishart_psd(20, seed=1))
        mask_path.write_text(mask)
        code = main(["extend", "--matrix", str(matrix), "--selector", f"mask:{mask_path}",
                     "--m", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, kernel", [("1,0\n2,1e200\n3,0\n", "poly:5"),
                                              ("1,2\n3,4\n5,1\n", "poly:2000")],
                             ids=["standardize_overflow", "kernel_overflow"])
    def test_overflowing_dataset_is_usage_error(self, tmp_path, capsys, rows, kernel):
        data = tmp_path / "data.csv"
        data.write_text(rows)
        code = main(["extend", "--dataset", str(data), "--kernel", kernel,
                     "--selector", "band:1", "--m", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o.values").exists()

    def test_huge_header_dimension_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("10000000000000 1\n0 0 1.0\n")
        code = main(["eig", "--sparse-matrix", str(path), "--m", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["eig", "band"])
    def test_out_of_memory_is_usage_error(self, monkeypatch, tmp_path, capsys, command):
        # a header n that fits int64 but not in memory fails inside the
        # reader; simulate it rather than allocate
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(cli, "read_sparse", no_memory)
        monkeypatch.setattr(exp, "run_band_experiment", no_memory)
        path = tmp_path / "m.txt"
        path.write_text("2 1\n0 0 1.0\n")
        argv = (["eig", "--sparse-matrix", str(path), "--m", "1", "--out", str(tmp_path / "o")]
                if command == "eig" else ["band", "--n", "40", "--trials", "1"])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: out of memory" in err and "Traceback" not in err
        assert not (tmp_path / "o.values").exists()

    def test_all_zero_submatrix_is_numerical_error(self, tmp_path, capsys):
        # K^s = the top-left 280 x 280 block is all zero and above the dense
        # fallback size, so it reaches the Lanczos path
        path = tmp_path / "z.txt"
        path.write_text("300 1\n299 299 1.0\n")
        code = main(["extend", "--sparse-matrix", str(path), "--selector", "topleft:280",
                     "--m", "2", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "numerical error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["band", "sparse", "verify"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_usage_error(self, tmp_path, capsys, command, trials):
        # a run over no trials would report a vacuous pass
        code = main([command, "--n", "40", "--m", "3", "--trials", trials,
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "at least one trial" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("tolerance", ["inf", "nan", "-1", "0"])
    def test_tolerance_not_finite_positive_is_usage_error(self, capsys, tolerance):
        code = main(["verify", "--n", "30", "--m", "3", "--trials", "1",
                     "--tolerance", tolerance])
        assert code == 2
        assert "tolerance must be finite and positive" in capsys.readouterr().err

    def test_slopes_has_no_trials_option(self):
        assert main(["slopes", "--n", "40", "--m", "4", "--trials", "3"]) == 2

    @pytest.mark.parametrize("argv", [
        ["extend", "--matrix", "K.txt", "--selector", "band:1", "--m", "2", "--out", "o",
         "--seed", "1"],
        ["band", "--n", "40", "--trials", "1", "--l-grid", "5"],
    ], ids=["extend-seed", "band-l-grid"])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err

    @pytest.mark.parametrize("source, flags, name", [
        ("--sparse-matrix", ["--keep", "0.3", "--kernel", "poly:2", "--has-header"], "--has-header"),
        ("--matrix", ["--keep", "0.5"], "--keep"),
        ("--matrix", ["--keep", "0"], "--keep"),
        ("--matrix", ["--kernel", "gaussian:1.0"], "--kernel"),
        ("--sparse-matrix", ["--has-header"], "--has-header"),
    ], ids=["sparse-all-three", "dense-keep", "dense-keep-zero", "dense-kernel-default", "sparse-header"])
    def test_dataset_flags_without_dataset_are_usage_errors(self, tmp_path, capsys, source, flags, name):
        # a flag that only a dataset reads is refused, not ignored, without one
        path = tmp_path / "K.txt"
        K = gen_wishart_psd(20, seed=1)
        if source == "--matrix":
            write_dense(path, K)
        else:
            write_sparse(path, sparsify(K, 0.5))
        argv = ["extend", source, str(path), "--selector", "band:1", "--m", "2", "--out", str(tmp_path / "o")]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert f"error: {name} is read only with --dataset" in err and "Traceback" not in err
        assert not (tmp_path / "o.values").exists()
        assert main(argv) == 0

    def test_sparse_has_header_without_dataset_is_usage_error(self, capsys):
        assert main(["sparse", "--n", "40", "--m", "3", "--trials", "1", "--has-header"]) == 2
        assert "error: --has-header is read only with --dataset" in capsys.readouterr().err

    def test_mu_collision_is_numerical_error(self, dense_matrix_file, tmp_path, capsys):
        # explicit mu equal to the top submatrix eigenvalue hits the guard
        K = read_dense(dense_matrix_file)
        sub = np.linalg.eigvalsh(K.a[:4, :4])
        code = main(["extend", "--matrix", str(dense_matrix_file),
                     "--selector", "topleft:4", "--m", "4",
                     "--mu", f"{sub[-1]:.17g}", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "numerical error" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, order, mu", [(n, order, mu) for n in (40, 300) for order in (1, 2)
                                          for mu in (1e160, 1e308) if (n, order, mu) != (40, 1, 1e160)])
def test_overflowing_mu_is_usage_error(tmp_path, capsys, n, order, mu):
    # mu overflows the tail sum of the bound terms (tests/test_extension.py,
    # TestHugeMu): the error line is all of stderr, and no report is written
    path = tmp_path / "K.txt"
    write_dense(path, gen_wishart_psd(n, seed=3))
    code = main(["extend", "--matrix", str(path), "--selector", "band:5", "--m", "4",
                 "--mu", repr(mu), "--order", str(order), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"error: the tail sum of the bound terms overflows at mu = {mu:g}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["K.txt"]


class TestLinearAlgebraFailures:
    """A failed ARPACK or LAPACK call is a numerical error (exit 1); LAPACK's
    LinAlgError is a ValueError and ARPACK's ArpackError a RuntimeError, which
    alone would exit 2 or escape as a traceback."""

    BAND = ["band", "--n", "300", "--m", "3", "--trials", "1", "--p-grid", "5"]

    def test_arpack_error_is_numerical_error(self, monkeypatch, capsys):
        import scipy.sparse.linalg as spla

        def eigsh_fails(*args, **kwargs):
            raise spla.ArpackError(-9999)

        monkeypatch.setattr(spla, "eigsh", eigsh_fails)
        assert main(self.BAND) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and "ARPACK error -9999" in err

    def test_failed_angle_fails_only_its_point(self, monkeypatch, tmp_path, capsys):
        svd, calls = np.linalg.svd, []

        def svd_fails_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd_fails_first)
        out = tmp_path / "b.csv"
        assert main(self.BAND + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical error (trial 0, band_extension 5): principal angle failed")
        rows = out.read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["nystrom_generalized"]

    def test_failed_slope_fit_is_numerical_error(self, monkeypatch, capsys):
        def polyfit_fails(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np, "polyfit", polyfit_fails)
        assert main(["slopes", "--n", "30", "--m", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical error: slope_vs_norm slope fit failed")


class TestExtend:
    def test_writes_three_files(self, dense_matrix_file, tmp_path):
        out = tmp_path / "result"
        code = main(["extend", "--matrix", str(dense_matrix_file),
                     "--selector", "band:5", "--m", "3", "--out", str(out)])
        assert code == 0
        values = [float(v) for v in (tmp_path / "result.values").read_text().split()]
        assert len(values) == 3
        bounds = [float(v) for v in (tmp_path / "result.bounds").read_text().split()]
        assert len(bounds) == 3
        vectors = (tmp_path / "result.vectors").read_text().strip().splitlines()
        assert len(vectors) == 30 and len(vectors[0].split(",")) == 3

    def test_full_mask_equals_exact(self, dense_matrix_file, tmp_path):
        out = tmp_path / "full"
        code = main(["extend", "--matrix", str(dense_matrix_file),
                     "--selector", "band:29", "--m", "2", "--out", str(out)])
        assert code == 0
        K = read_dense(dense_matrix_file)
        exact = np.linalg.eigvalsh(K.a)[::-1][:2]
        values = [float(v) for v in (tmp_path / "full.values").read_text().split()]
        assert np.allclose(values, exact, atol=1e-10)

    def test_sparse_matrix_input(self, tmp_path):
        spath = tmp_path / "S.txt"
        write_sparse(spath, gen_band_matrix(40, seed=2))
        code = main(["extend", "--sparse-matrix", str(spath),
                     "--selector", "sparse:0.5", "--m", "2",
                     "--out", str(tmp_path / "s")])
        assert code == 0


class TestEig:
    def test_full_eig(self, dense_matrix_file, tmp_path):
        code = main(["eig", "--matrix", str(dense_matrix_file),
                     "--out", str(tmp_path / "e")])
        assert code == 0
        values = [float(v) for v in (tmp_path / "e.values").read_text().split()]
        assert len(values) == 30
        assert values == sorted(values, reverse=True)

    def test_partial_eig(self, dense_matrix_file, tmp_path):
        code = main(["eig", "--matrix", str(dense_matrix_file), "--m", "4",
                     "--out", str(tmp_path / "e")])
        assert code == 0
        values = [float(v) for v in (tmp_path / "e.values").read_text().split()]
        assert len(values) == 4


class TestVerify:
    def test_verify_passes_quickly(self, tmp_path, capsys):
        code = main(["verify", "--n", "60", "--m", "6", "--trials", "3",
                     "--seed", "7", "--out", str(tmp_path / "v.csv")])
        assert code == 0
        assert "PASSED" in capsys.readouterr().out
        header = (tmp_path / "v.csv").read_text().splitlines()[0]
        assert header == "experiment_id,method,parameter,nnz_fraction,metric,value,trial,seed"


class TestSlopes:
    def test_single_point_grid_rejected(self, capsys):
        code = main(["slopes", "--n", "40", "--m", "4", "--norm-grid", "0.001"])
        assert code == 2

    @pytest.mark.parametrize("flag, grid", [("--norm-grid", "1e-4,1e-4"), ("--norm-grid", "0,1e-3"),
                                            ("--norm-grid", "-1e-3,1e-3"), ("--tail-grid", "0.1,inf"),
                                            ("--tail-grid", "nan,0.1,0.2")],
                             ids=["one_distinct_value", "zero", "negative", "infinite", "nan"])
    def test_degenerate_grid_rejected(self, capsys, flag, grid):
        # no slope fits through one distinct point or a log that is not finite
        code = main(["slopes", "--n", "40", "--m", "4", f"{flag}={grid}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "grid [" in err and "distinct values, all finite and positive" in err

    def test_bad_tail_grid_rejected_before_norm_sweep(self, monkeypatch, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("norm sweep ran before the tail grid was checked")

        monkeypatch.setattr(exp, "run_norm_slopes", no_sweep)
        assert main(["slopes", "--tail-grid=0.1,inf"]) == 2
        assert "slope_vs_tail grid [" in capsys.readouterr().err

    def test_failing_norm_solve_is_numerical_error(self, monkeypatch, capsys):
        # the generators' spectral norm is one dense LAPACK solve; its
        # LinAlgError is a ValueError, which alone would exit 2
        def lapack_fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", lapack_fails)
        code = main(["slopes", "--n", "40", "--m", "4"])
        assert code == 1
        err = capsys.readouterr().err
        assert "did not converge" in err and "Traceback" not in err

    def test_small_run_reports_slopes(self, tmp_path, capsys):
        code = main(["slopes", "--n", "60", "--m", "5", "--seed", "3",
                     "--norm-grid", "1e-5,3e-5,1e-4,3e-4",
                     "--tail-grid", "0.05,0.1,0.2,0.4",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "slope_vs_norm order1" in out
        assert (tmp_path / "s.csv").exists()


class TestDeterminism:
    def test_band_reports_byte_identical(self, tmp_path):
        args = ["band", "--n", "120", "--m", "4", "--trials", "2", "--seed", "11",
                "--p-grid", "2,10,40"]
        assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_sparse_small_run(self, tmp_path):
        args = ["sparse", "--n", "150", "--m", "3", "--trials", "1", "--seed", "5",
                "--q-grid", "0.3,0.8"]
        assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_failed_sweep_point_writes_the_others(self, tmp_path, capsys):
        # q = 0.05 selects only the tied unit diagonal of this kernel
        out = tmp_path / "s.csv"
        code = main(["sparse", "--n", "200", "--m", "4", "--trials", "2", "--seed", "11",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line.split(":")[0] for line in err.splitlines()] == [
            f"numerical error (trial {t}, sparse_extension 0.05)" for t in (0, 1)]
        lines = out.read_text().splitlines()[1:]
        assert len(lines) > 2 and not any(",sparse_extension,0.050000000000000003," in x for x in lines)
        assert "nan" not in out.read_text()

    def test_report_rows_sorted(self, tmp_path):
        main(["band", "--n", "100", "--m", "3", "--trials", "2", "--seed", "2",
              "--p-grid", "40,2,10", "--out", str(tmp_path / "r.csv")])
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()[1:]
        keys = []
        for line in lines:
            f = line.split(",")
            keys.append((f[0], f[1], float(f[2]), int(f[6])))
        assert keys == sorted(keys)


class TestDatasetInputs:
    def test_extend_from_dataset(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = "\n".join(",".join(f"{v:.6f}" for v in row)
                         for row in rng.standard_normal((40, 4)))
        data = tmp_path / "data.csv"
        data.write_text(rows + "\n")
        code = main(["extend", "--dataset", str(data), "--kernel", "gaussian:0.5",
                     "--selector", "sparse:0.6", "--m", "3", "--keep", "0.4",
                     "--out", str(tmp_path / "d")])
        assert code == 0
        assert (tmp_path / "d.values").exists()

    def test_header_and_default_kernel_apply_to_a_dataset(self, tmp_path):
        # --has-header skips the first line, and no --kernel is gaussian:1.0
        rows = "\n".join(",".join(f"{v:.6f}" for v in row)
                         for row in np.random.default_rng(5).standard_normal((30, 3)))
        plain, headed = tmp_path / "plain.csv", tmp_path / "headed.csv"
        plain.write_text(rows + "\n")
        headed.write_text("a,b,c\n" + rows + "\n")
        common = ["--selector", "band:3", "--m", "2"]
        assert main(["extend", "--dataset", str(plain), "--kernel", "gaussian:1.0", "--out",
                     str(tmp_path / "p")] + common) == 0
        assert main(["extend", "--dataset", str(headed), "--has-header", "--out", str(tmp_path / "h")] + common) == 0
        for ext in (".values", ".vectors", ".bounds"):
            assert (tmp_path / ("p" + ext)).read_bytes() == (tmp_path / ("h" + ext)).read_bytes()

    def test_sparse_command_with_dataset_file(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = "\n".join(",".join(f"{v:.6f}" for v in row)
                         for row in rng.standard_normal((120, 5)))
        data = tmp_path / "data.csv"
        data.write_text(rows + "\n")
        code = main(["sparse", "--dataset", str(data), "--n", "80", "--m", "3",
                     "--trials", "1", "--seed", "1", "--q-grid", "0.5,0.9",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 0
        assert (tmp_path / "r.csv").read_text().count("\n") > 2


class TestGridValidation:
    def test_empty_p_grid_is_usage_error(self, capsys):
        assert main(["band", "--n", "60", "--m", "3", "--trials", "1",
                     "--p-grid", ""]) == 2

    def test_missing_dataset_names_path(self, tmp_path, capsys):
        code = main(["sparse", "--dataset", str(tmp_path / "absent.csv"),
                     "--n", "50", "--m", "2", "--trials", "1"])
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err


class TestDeferredBounds:
    def test_failing_bound_solve_writes_nothing(self, monkeypatch, tmp_path, capsys):
        from perturbext import extension
        from perturbext.matrixcore import ConvergenceError

        def failing(A):
            raise ConvergenceError("Lanczos failed to converge (0 of 1 values found)")

        monkeypatch.setattr(extension, "spectral_norm", failing)
        spath = tmp_path / "S.txt"
        write_sparse(spath, gen_band_matrix(300, seed=2))
        code = main(["extend", "--sparse-matrix", str(spath), "--selector", "sparse:0.5",
                     "--m", "2", "--out", str(tmp_path / "s")])
        assert code == 1
        assert "numerical error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["S.txt"]

    def test_failing_dense_tail_solve_is_numerical_error(self, monkeypatch, tmp_path, capsys):
        # LAPACK's LinAlgError is a ValueError, which alone would exit 2
        def lapack_fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", lapack_fails)
        spath = tmp_path / "S.txt"
        write_sparse(spath, gen_band_matrix(40, seed=2))
        code = main(["extend", "--sparse-matrix", str(spath), "--selector", "band:3",
                     "--m", "3", "--out", str(tmp_path / "s")])
        assert code == 1
        assert "did not converge" in capsys.readouterr().err


# arguments of each grammar head and tokens of malformed files: empty,
# negative, nan, inf, huge and non-numeric values next to valid ones
_ARGS = ["", "0", "1", "2", "3", "0.5", "1,2", "2,,3", "3,-1", "-1", "-0.5", "nan", "-nan",
         "inf", "-inf", "1e308", "1e400", "99999999999999999999", "abc", "0x10", "1_0", " 1"]
_TOKENS = ["0", "1", "5", "39", "40", "41", "-1", "1.5", "nan", "inf", "-inf", "1e400",
           "99999999999999999999", "abc", "0x10", ","]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A 40-row dense matrix file and a 40-point dataset file."""
    d = tmp_path_factory.mktemp("fuzz")
    write_dense(d / "K.txt", gen_wishart_psd(40, seed=4))
    rng = np.random.default_rng(4)
    (d / "data.csv").write_text("\n".join(",".join(f"{v:.6f}" for v in row)
                                          for row in rng.standard_normal((40, 3))))
    return d


@st.composite
def _file_text(draw, kind):
    """A small valid file of the given kind, then up to three of its fields
    replaced by a ``_TOKENS`` token, appended to their line or deleted."""
    if kind == "dense":
        a = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -2.5]), min_size=21, max_size=21)))
        full = np.zeros((6, 6))
        full[np.triu_indices(6)] = a
        table = [[f"{v:g}" for v in row] for row in full + np.triu(full, 1).T]
    else:
        pairs = draw(st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)),
                              min_size=1, max_size=8, unique_by=lambda p: tuple(sorted(p))))
        table = [["40", str(len(pairs))]] + [[str(min(p)), str(max(p)), "1.5"] for p in pairs]
    for row, col, token in draw(st.lists(st.tuples(st.integers(0, len(table) - 1), st.integers(0, 6),
                                                   st.sampled_from(_TOKENS + [None])), max_size=3)):
        fields = table[row]
        if token is None:
            del fields[col:col + 1]
        elif col < len(fields):
            fields[col] = token
        else:
            fields.append(token)
    return "\n".join((",".join if kind == "dense" else " ".join)(f) for f in table) + "\n"


class TestExitCodeContract:
    """``main`` returns 0, 1 or 2 and raises nothing, whatever the grammar
    arguments and file contents; every run is in-process on at most 40 rows."""

    VALID = {"--selector": "band:3", "--kernel": "gaussian:0.5", "--mu": "zero", "--m": "3"}
    # the heads of each option's grammar; None passes the argument alone
    HEADS = {"--selector": ["topleft", "band", "sparse", "blocks", "mask", "none"],
             "--kernel": ["gaussian", "poly", "linear", "none"],
             "--mu": [None, "zero", "mean"], "--keep": [None], "--m": [None]}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), option=st.sampled_from(sorted(HEADS)), arg=st.sampled_from(_ARGS),
           source=st.sampled_from(["--matrix", "--dataset"]))
    def test_grammar_arguments(self, fuzz_inputs, data, option, arg, source):
        # one option takes a head with a fuzzed argument, the others stay valid
        head = data.draw(st.sampled_from(self.HEADS[option]))
        options = dict(self.VALID, **{option: arg if head is None else f"{head}:{arg}"})
        if source == "--matrix" and option != "--kernel":
            del options["--kernel"]  # only a dataset reads it; given, it exits 2
        argv = ["extend", source, str(fuzz_inputs / ("K.txt" if source == "--matrix" else "data.csv")),
                "--out", str(fuzz_inputs / "o")]
        assert main(argv + [x for item in options.items() for x in item]) in (0, 1, 2)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), kind=st.sampled_from(["sparse", "dense", "mask"]))
    def test_malformed_files(self, fuzz_inputs, data, kind):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.txt"
            path.write_text(data.draw(_file_text(kind)))
            out = str(Path(tmp) / "o")
            source = "--matrix" if kind == "dense" else "--sparse-matrix"
            if kind == "mask":
                argv = ["extend", "--matrix", str(fuzz_inputs / "K.txt"), "--selector", f"mask:{path}"]
            else:
                argv = ["extend", source, str(path), "--selector", "band:1"]
            assert main(argv + ["--m", "1", "--out", out]) in (0, 1, 2)
            assert main(["eig", source, str(path), "--out", out]) in (0, 1, 2)
