"""``scripts/code_size.py`` stays runnable: one line per module whose four
counts add up to the module's lines, a total, the member count of each
matrix type and the field count of each config type.  Neither matrix type
may grow past its member ceiling."""

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
    counts = [line.split() for line in rows[len(MODULES) + 1:]]
    assert [(name, word) for name, word, _ in counts] == [
        ("SymmetricDense", "members"), ("SparseSymmetric", "members"), ("Selector", "fields"),
        ("KernelSpec", "fields"), ("MuPolicy", "fields"), ("ExtensionConfig", "fields")]
    assert all(int(count) > 0 for *_, count in counts)


# the most members each matrix type may have (ROADMAP item 13); a change
# that must add one raises its number here and says why in CHANGES.md
MEMBER_CEILING = {"SymmetricDense": 16, "SparseSymmetric": 18}


def test_matrix_types_stay_under_their_member_ceiling():
    done = run_script()
    assert done.returncode == 0, done.stderr
    members = {name: int(count) for name, word, count in map(str.split, done.stdout.splitlines()[-6:])
               if word == "members"}
    assert list(members) == list(MEMBER_CEILING)
    over = [f"{name} has {members[name]} members, more than {limit}"
            for name, limit in MEMBER_CEILING.items() if members[name] > limit]
    assert not over, "; ".join(over)


def test_fields_are_the_annotated_names_of_the_class_body(tmp_path):
    (tmp_path / "configs.py").write_text(
        "class Selector:\n"
        "    kind: str\n"
        "    param: object = None\n"
        "    LIMIT = 3\n"
        "    def check(self) -> None:\n"
        "        local: int = 0\n"
        "class MuPolicy:\n"
        "    kind: str\n")
    done = run_script("--src", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-4:] == ["Selector fields 2", "KernelSpec fields 0", "MuPolicy fields 1",
                                             "ExtensionConfig fields 0"]


def test_missing_package_is_a_usage_error(tmp_path):
    done = run_script("--src", str(tmp_path))
    assert done.returncode == 2 and "no modules" in done.stderr and not done.stdout
