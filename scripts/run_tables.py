#!/usr/bin/env python3
"""Reproduce the benchmark tables for the quasi-periodic model problem.

Writes CSV and Markdown for:
  * the cubic-interpolation comparison (HS norm, N = 5..10), and
  * the linear-interpolation run (HS norm, N = 100, 120, 140), where the
    residual competitor does not apply.

Usage: python scripts/run_tables.py [--outdir OUT]
"""

import argparse
import pathlib
import time

import numpy as np

from relgap.harness import mathieu_model, rows_to_csv, rows_to_markdown, run_benchmark

THETA = np.pi - 1e-4
ALPHA = 0.2499
# (file stem, what the printout calls it, truncation order K, N values, interpolant);
# linear interpolants at N ~ 100 alias their interpolation error onto the
# modes k = +-(N-1), +-2(N-1), ...; the truncation must contain them
TABLES = (("cubic_hs", "cubic comparison", 64, range(5, 11), "cubic"),
          ("linear_hs", "linear run", 320, [100, 120, 140], "linear"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory (default: out)")
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for stem, label, trunc, ns, interp in TABLES:
        t0 = time.monotonic()
        rows = run_benchmark(mathieu_model(THETA, ALPHA, trunc), ns, interp, norm="hs")
        (outdir / f"{stem}.csv").write_text(rows_to_csv(rows))
        (outdir / f"{stem}.md").write_text(rows_to_markdown(rows))
        print(f"{label} written ({time.monotonic() - t0:.1f}s)")
        print(rows_to_markdown(rows))


if __name__ == "__main__":
    main()
