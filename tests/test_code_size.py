"""``scripts/code_size.py`` stays runnable: one line per module whose four
counts add up to the module's lines, a total, and the member count of
each matrix type."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "code_size.py"
MODULES = sorted(p.name for p in (ROOT / "src" / "perturbext").glob("*.py"))


def run_script(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=60)


def test_counts_partition_every_module():
    done = run_script()
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["module", "code", "docstring", "comment", "blank", "lines"]
    table = {fields[0]: [int(x) for x in fields[1:]] for fields in map(str.split, rows[:len(MODULES) + 1])}
    assert list(table) == MODULES + ["total"]
    for name in MODULES:
        *counts, lines = table[name]
        assert sum(counts) == lines == len((ROOT / "src" / "perturbext" / name).read_text().splitlines())
        assert counts[0] > 0
    assert table["total"] == [sum(table[name][i] for name in MODULES) for i in range(5)]
    members = [line.split() for line in rows[len(MODULES) + 1:]]
    assert [(name, word) for name, word, _ in members] == [("SymmetricDense", "members"),
                                                          ("SparseSymmetric", "members")]
    assert all(int(count) > 0 for *_, count in members)


def test_missing_package_is_a_usage_error(tmp_path):
    done = run_script("--src", str(tmp_path))
    assert done.returncode == 2 and "no modules" in done.stderr and not done.stdout
