#!/usr/bin/env python3
"""Regenerate every preset figure dataset into an output directory.

Usage:
  python scripts/regenerate_figures.py [--outdir data] [--format csv|json]

Each file is self-describing (version, target, grids and fixed parameters
in the metadata block) and reproduces bit-identically across runs. Each is
read back after it is written; a file whose rows or metadata differ from
those written is reported on one line, and the script exits 1. CSV reads
back the metadata written, JSON that metadata plus ``columns``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from mirrorphase import (figure_preset, read_dataset_csv, read_dataset_json, run_sweep,
                         write_dataset)
from mirrorphase.datafiles import FORMATS
from mirrorphase.sweeps import FIGURE_RANGE


def main() -> int:
    parser = argparse.ArgumentParser(description="Regenerate the preset figure datasets.")
    parser.add_argument("--outdir", default="data")
    parser.add_argument("--format", choices=FORMATS, default="csv")
    parser.add_argument("--only", type=int, choices=list(FIGURE_RANGE), default=None,
                        help="regenerate a single figure")
    args = parser.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    numbers = [args.only] if args.only is not None else list(FIGURE_RANGE)
    read = read_dataset_csv if args.format == "csv" else read_dataset_json
    for n in numbers:
        path = os.path.join(args.outdir, f"fig{n}.{args.format}")
        start = time.monotonic()
        dataset = run_sweep(figure_preset(n))
        rows = write_dataset(dataset, path, args.format)
        back = read(path)
        metadata = dict(dataset.metadata)
        if args.format == "json":
            metadata["columns"] = list(dataset.columns)
        wrong = ("rows" if back.columns != dataset.columns or back.rows != dataset.rows
                 else "metadata" if back.metadata != metadata else None)
        if wrong:
            print(f"figure {n}: {path} does not read back as the {wrong} written",
                  file=sys.stderr)
            return 1
        print(f"figure {n}: {rows} rows -> {path} ({time.monotonic() - start:.2f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
