"""``scripts/scale_probe.py`` stays runnable: one line of stage times, nnz and
peak RSS per size, each size probed in its own process."""

import os
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scale_probe.py"

LINE = re.compile(r"n=(\d+)  data=\S+  standardize=\S+  sparse_kernel=\S+  extension=\S+  "
                  r"nnz=(\d+)  peak_rss_mb=(\S+)")


def run_probe(*sizes):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(SCRIPT), "--n", *map(str, sizes)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_one_line_per_size():
    done = run_probe(60, 40)
    assert done.returncode == 0, done.stderr
    lines = [LINE.fullmatch(line) for line in done.stdout.splitlines()]
    assert [int(m.group(1)) for m in lines] == [60, 40]
    for m in lines:
        n, nnz = int(m.group(1)), int(m.group(2))
        # the kernel kept at 0.1 of its n(n + 1)/2 upper entries, mirrored
        assert 0 < nnz <= 2 * -(-n * (n + 1) // 20)
        assert float(m.group(3)) > 0


def test_too_small_a_size_is_a_usage_error():
    done = run_probe(1)
    assert done.returncode == 2 and "--n" in done.stderr and not done.stdout
