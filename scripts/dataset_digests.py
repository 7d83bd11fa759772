#!/usr/bin/env python3
"""Print the SHA-256 of each reference dataset file, one line each.

Usage:
  PYTHONPATH=src python scripts/dataset_digests.py

The datasets are figures 2-8 (``fig2`` .. ``fig8``), an ``allow_errors``
sweep whose failed points are NaN rows (``nan_rows``), a decoherence
factor sweep whose time axis comes before its model axis (``time_first``),
and one of 10,000 rows (``signed_zeros``), whose time column holds 0.0 in
its first 1,000 rows, -0.0 in rows 5,000-5,999 and 0.0 again in its last
1,000, so that ``write_dataset``'s blocks, 1,365 rows of its three
columns, hold one zero at most, 0.0, then -0.0, then 0.0. Each is written
by ``write_dataset`` as CSV and as JSON. Each line reads
``<digest>  <file name>``, as ``sha256sum`` prints it. The script imports
``mirrorphase`` from ``PYTHONPATH``, so pointing that at another tree's
``src`` prints that tree's digests, and ``diff`` of two outputs shows which
files differ.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

from mirrorphase import TWO_PI, Axis, SweepSpec, figure_preset, run_sweep, write_dataset
from mirrorphase.datafiles import FORMATS
from mirrorphase.sweeps import FIGURE_RANGE


def _specs() -> dict:
    specs = {f"fig{n}": figure_preset(n) for n in FIGURE_RANGE}
    # gamma0 = 0 never decoheres, so those points are NaN rows
    specs["nan_rows"] = SweepSpec(
        target="decoherence_time",
        axes=(Axis.from_values("gamma0", (0.0, 0.05, 0.5)),
              Axis.linear("velocity", 0.1, 0.9, 5)),
        fixed={"lambda": 5.0, "omega": 0.03}, allow_errors=True)
    specs["time_first"] = SweepSpec(
        target="decoherence_factor",
        axes=(Axis.linear("time", 0.0, 2.0 * TWO_PI, 50),
              Axis.linear("velocity", 0.01, 0.95, 20)),
        fixed={"gamma0": 0.05, "lambda": 5.0, "omega": 0.03})
    # 10 times x 1,000 velocities: both columns are coded across blocks, -0.0
    # and 0.0 each with its own code
    specs["signed_zeros"] = SweepSpec(
        target="decoherence_factor",
        axes=(Axis.from_values("time", (0.0, 0.5, 1.0, 1.5, 2.0, -0.0, 2.5, 3.0, 3.5, 0.0)),
              Axis.linear("velocity", 0.01, 0.95, 1000)),
        fixed={"gamma0": 0.05, "lambda": 5.0, "omega": 0.03})
    return specs


def _digest_lines(specs: dict):
    """Run each named spec and yield one ``<digest>  <name>.<format>`` line per file."""
    with tempfile.TemporaryDirectory() as directory:
        for name, spec in specs.items():
            dataset = run_sweep(spec)
            for fmt in FORMATS:
                path = os.path.join(directory, f"{name}.{fmt}")
                write_dataset(dataset, path, fmt)
                with open(path, "rb") as handle:
                    digest = hashlib.sha256(handle.read()).hexdigest()
                yield f"{digest}  {name}.{fmt}"


def main() -> int:
    for line in _digest_lines(_specs()):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
