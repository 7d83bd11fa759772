"""scripts/dataset_digests.py: one SHA-256 per dataset file, of the bytes written."""

import hashlib
import math
import runpy
from itertools import groupby
from pathlib import Path

import pytest

from mirrorphase import datafiles, read_dataset_csv, read_dataset_json, run_sweep, sweeps

from oracles import reference_csv, reference_json

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "dataset_digests.py"


def test_digests_are_those_of_the_files_written():
    script = runpy.run_path(str(SCRIPT))
    specs = {name: spec for name, spec in script["_specs"]().items()
             if name in ("fig3", "nan_rows", "time_first", "signed_zeros")}
    assert any(math.isnan(row[-1]) for row in run_sweep(specs["nan_rows"]).rows)
    assert specs["time_first"].axes[0].name == "time"
    signed_zeros = run_sweep(specs["signed_zeros"])
    times = [repr(row[0]) for row in signed_zeros.rows]
    block = sweeps._block_rows(signed_zeros.rows.width)  # rows a write block
    zeros = [sorted({t for t in times[i:i + block] if t in ("0.0", "-0.0")})
             for i in range(0, len(times), block)]
    # no block holds both zeros, and the blocks that hold one go 0.0, -0.0, 0.0
    assert [kind for kind, _ in groupby(filter(None, zeros))] == [["0.0"], ["-0.0"], ["0.0"]]
    expected = []
    for name, spec in specs.items():
        dataset = run_sweep(spec)
        for fmt, text in (("csv", reference_csv(dataset)), ("json", reference_json(dataset))):
            expected.append(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}.{fmt}")
    assert list(script["_digest_lines"](specs)) == expected


@pytest.mark.parametrize("name", ["nan_rows", "time_first", "signed_zeros"])
def test_datasets_read_back_bit_for_bit(tmp_path, name):
    """Each dataset other than the figures, which C8 reads back, reads back
    through both readers entry for entry by ``repr``, NaN rows and the sign
    of zero included, with the metadata written."""
    dataset = run_sweep(runpy.run_path(str(SCRIPT))["_specs"]()[name])
    spelled = [tuple(map(repr, row)) for row in dataset.rows]
    for fmt, read in (("csv", read_dataset_csv), ("json", read_dataset_json)):
        path = str(tmp_path / f"{name}.{fmt}")
        datafiles.write_dataset(dataset, path, fmt)
        back = read(path)
        assert back.columns == dataset.columns
        assert [tuple(map(repr, row)) for row in back.rows] == spelled
        columns = {"columns": list(dataset.columns)} if fmt == "json" else {}
        assert back.metadata == {**dataset.metadata, **columns}
