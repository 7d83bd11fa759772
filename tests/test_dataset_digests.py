"""scripts/dataset_digests.py: one SHA-256 per dataset file, of the bytes written."""

import hashlib
import math
import runpy
from pathlib import Path

from mirrorphase import run_sweep

from oracles import reference_csv, reference_json

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "dataset_digests.py"


def test_digests_are_those_of_the_files_written():
    script = runpy.run_path(str(SCRIPT))
    specs = {name: spec for name, spec in script["_specs"]().items()
             if name in ("fig3", "nan_rows", "time_first")}
    assert any(math.isnan(row[-1]) for row in run_sweep(specs["nan_rows"]).rows)
    assert specs["time_first"].axes[0].name == "time"
    expected = []
    for name, spec in specs.items():
        dataset = run_sweep(spec)
        for fmt, text in (("csv", reference_csv(dataset)), ("json", reference_json(dataset))):
            expected.append(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}.{fmt}")
    assert list(script["_digest_lines"](specs)) == expected
