"""Dataset serialization: CSV with metadata comments, or a single JSON object.

Every number is written in shortest round-trip decimal form, so re-parsing
a file reproduces the original binary doubles exactly and repeated runs of
the same sweep produce byte-identical files.
"""

from __future__ import annotations

import json
import math

from .errors import DomainError
from .sweeps import Dataset


def _fmt(value: float) -> str:
    return repr(float(value))


def _metadata_lines(metadata: dict) -> list[str]:
    lines = [f"# {metadata.get('generator', 'mirrorphase')} dataset",
             f"# version = {metadata.get('version', '')}",
             f"# target = {metadata.get('target', '')}"]
    for axis in metadata.get("axes", []):
        if axis.get("scale") == "values":
            detail = "values " + " ".join(_fmt(v) for v in axis["values"])
        else:
            detail = (f"{axis['scale']} {_fmt(axis['min'])} {_fmt(axis['max'])} "
                      f"{axis['count']}")
        lines.append(f"# axis.{axis['name']} = {detail}")
    for name, value in metadata.get("fixed", {}).items():
        lines.append(f"# fixed.{name} = {_fmt(value)}")
    lines.append(f"# allow_errors = {'true' if metadata.get('allow_errors') else 'false'}")
    return lines


def dataset_to_csv(dataset: Dataset) -> str:
    lines = _metadata_lines(dataset.metadata)
    lines.append(",".join(dataset.columns))
    # repr(float(x)) per entry, as _fmt, with both steps mapped in C
    lines.extend(",".join(map(repr, map(float, row))) for row in dataset.rows)
    return "\n".join(lines) + "\n"


def dataset_to_json(dataset: Dataset) -> str:
    metadata = dict(dataset.metadata)
    metadata["columns"] = list(dataset.columns)
    payload = {"metadata": metadata, "rows": dataset.rows}
    try:
        return json.dumps(payload, allow_nan=False) + "\n"
    except ValueError:
        # only opt-in error rows hold NaN, which strict JSON spells as null
        payload["rows"] = [[x if math.isfinite(x) else None for x in row]
                           for row in dataset.rows]
        return json.dumps(payload, allow_nan=False) + "\n"


FORMATS = ("csv", "json")


def write_dataset(dataset: Dataset, path: str, fmt: str) -> int:
    """Write the dataset to ``path``; returns the number of data rows."""
    if fmt not in FORMATS:
        raise DomainError(f"unknown output format {fmt!r}; expected one of {FORMATS}")
    text = dataset_to_csv(dataset) if fmt == "csv" else dataset_to_json(dataset)
    with open(path, "w", newline="\n") as handle:
        handle.write(text)
    return len(dataset.rows)


def read_dataset_csv(path: str) -> Dataset:
    """Read back a CSV dataset; metadata comments are kept as raw strings."""
    raw_meta: dict[str, str] = {}
    columns: tuple[str, ...] | None = None
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    raw_meta[key.strip()] = value.strip()
                continue
            if columns is None:
                columns = tuple(line.split(","))
                continue
            rows.append(tuple(map(float, line.split(","))))
    if columns is None:
        raise DomainError(f"{path}: no header row found")
    return Dataset(columns=columns, rows=tuple(rows),
                   metadata={"raw": raw_meta, "allow_errors":
                             raw_meta.get("allow_errors") == "true"})


def read_dataset_json(path: str) -> Dataset:
    with open(path) as handle:
        payload = json.load(handle)
    metadata = payload["metadata"]
    columns = tuple(metadata["columns"])
    rows = tuple(tuple(map(float, row)) if None not in row
                 else tuple(math.nan if x is None else float(x) for x in row)
                 for row in payload["rows"])
    return Dataset(columns=columns, rows=rows, metadata=metadata)
