#!/usr/bin/env python3
"""Run the full desk-scale experiment battery into a results directory.

Produces one CSV per experiment plus a summary of fitted slopes and
verification outcomes.  Everything is derived from --seed, so two runs with
the same seed produce byte-identical files.

Usage: python scripts/reproduce_results.py [--out results] [--seed 0] [--trials 20]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perturbext import experiments as exp  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=str, default="results")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=20)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = []

    norm_rows, slopes = exp.run_norm_slopes(seed=args.seed)
    tail_rows, tail_slopes = exp.run_tail_slopes(seed=args.seed)
    exp.write_report(out / "slopes.csv", norm_rows + tail_rows)
    summary.append(f"slope_vs_norm: order1={slopes['order1']:.4f} order2={slopes['order2']:.4f}")
    summary.append(f"slope_vs_tail: order1={tail_slopes['order1']:.4f} order2={tail_slopes['order2']:.4f}")
    print(summary[-2]); print(summary[-1])

    rows = exp.run_band_experiment(trials=args.trials, seed=args.seed)
    exp.write_report(out / "band.csv", rows)
    print(f"band.csv: {len(rows)} rows")

    rows = exp.run_sparse_experiment(trials=args.trials, seed=args.seed)
    exp.write_report(out / "sparse.csv", rows)
    print(f"sparse.csv: {len(rows)} rows")

    rows, passed, guarded = exp.run_verification(trials=args.trials, seed=args.seed)
    exp.write_report(out / "verify.csv", rows)
    summary.append(f"verification: {'PASSED' if passed else 'FAILED'}"
                   + (f" ({len(guarded)} guarded singularities)" if guarded else ""))
    print(summary[-1])

    rows, improved = exp.run_shift_comparison(trials=args.trials, seed=args.seed)
    exp.write_report(out / "shift_comparison.csv", rows)
    summary.append(f"shift comparison: improved in {improved}/{args.trials} trials")
    print(summary[-1])

    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
