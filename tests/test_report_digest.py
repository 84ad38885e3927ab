"""The refactor check ``scripts/report_digest.py`` stays runnable: it exits 0
and prints one digest line for each report it is meant to cover."""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"

EXPECTED = sorted(
    [f"api_{name}.csv" for name in ("block_extend_n200", "block_extend_n600",
                                    "block_extend_n600_sparse_order2", "bounds", "bounds_n200",
                                    "bounds_topleft", "custom_mask",
                                    "dense_lanczos_n300", "ensemble_nystrom", "generalized_nystrom_l300",
                                    "kernel_approx", "shifted_nystrom", "sparse_kernel", "support_block")]
    + ["slopes.csv", "band.csv", "band_order2.csv", "sparse.csv", "verify.csv",
       "verify_mu_zero.csv", "eig.values", "eig.vectors"]
    + [f"{run}.{part}" for run in ("ext_sparse", "ext_sparse_mask", "ext_band", "ext_data_sparse",
                                   "ext_data_blocks", "ext_data_topleft")
       for part in ("bounds", "values", "vectors")])


ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def run_script(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], env=ENV, capture_output=True,
                          text=True, timeout=300)


@pytest.fixture(scope="module")
def kept(tmp_path_factory):
    """One ``--keep`` run shared by the tests below: its directory, which no
    test changes, and its finished process."""
    keep = tmp_path_factory.mktemp("digest") / "reports"
    done = run_script("--keep", str(keep))
    assert done.returncode == 0, done.stderr
    return keep, done


def test_report_digest_lists_every_report():
    done = run_script()
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    names = [m.group(1) for m in map(re.compile(r"[0-9a-f]{64}  (\S+)").fullmatch, lines) if m]
    assert len(names) == len(lines)
    assert names == EXPECTED


def test_keep_writes_the_reports_it_digests(kept):
    keep, done = kept
    for line in done.stdout.splitlines():
        digest, name = line.split("  ")
        assert hashlib.sha256((keep / name).read_bytes()).hexdigest() == digest
    assert sorted(line.split("  ")[1] for line in done.stdout.splitlines()) == EXPECTED
    # a directory that already holds files is refused before any run
    again = run_script("--keep", str(keep))
    assert again.returncode == 2 and "not empty" in again.stderr


def test_against_names_exactly_the_reports_that_moved(kept, tmp_path):
    def run(*args):
        done = run_script(*args)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()

    # the same checkout reproduces every report by value
    assert run("--against", str(kept[0])) == []
    # one number of one report in a copy of the kept ones tampered: only that
    # report moved, by exactly the tampered amount
    keep = shutil.copytree(kept[0], tmp_path / "reports")
    path = keep / "api_generalized_nystrom_l300.csv"
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    old = float(fields[2])
    fields[2] = repr(old + 0.5)
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    moved = run("--against", str(keep))
    assert len(moved) == 1
    name, change, relative = re.fullmatch(r"(\S+)  max abs (\S+)  max rel (\S+)", moved[0]).groups()
    assert name == path.name
    assert float(change) == float(f"{abs(old + 0.5 - old):.3g}") and 0.0 < float(relative) <= float(change)
