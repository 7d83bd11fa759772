#!/usr/bin/env python3
"""Regenerate every preset figure dataset into an output directory.

Usage:
  python scripts/regenerate_figures.py [--outdir data] [--format csv|json]

Each file is self-describing (version, target, grids and fixed parameters
in the metadata block) and reproduces bit-identically across runs.
"""

from __future__ import annotations

import argparse
import os
import time

from mirrorphase import figure_preset, run_sweep, write_dataset
from mirrorphase.sweeps import FIGURE_RANGE


def main() -> int:
    parser = argparse.ArgumentParser(description="Regenerate the preset figure datasets.")
    parser.add_argument("--outdir", default="data")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--only", type=int, choices=list(FIGURE_RANGE), default=None,
                        help="regenerate a single figure")
    args = parser.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    numbers = [args.only] if args.only is not None else list(FIGURE_RANGE)
    for n in numbers:
        path = os.path.join(args.outdir, f"fig{n}.{args.format}")
        start = time.monotonic()
        rows = write_dataset(run_sweep(figure_preset(n)), path, args.format)
        print(f"figure {n}: {rows} rows -> {path} ({time.monotonic() - start:.2f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
