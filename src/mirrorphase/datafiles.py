"""Dataset serialization: CSV with metadata comments, or a single JSON object.

Every entry is written as ``repr(float(x))``, the shortest round-trip
decimal form of a double, in both formats (JSON spells a non-finite entry
``null``), so re-parsing a file reproduces the original binary doubles
exactly and repeated runs of the same sweep produce byte-identical files.
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


# strict JSON has no NaN or infinity: a non-finite entry is written as null
_JSON_NONFINITE = {"nan": "null", "inf": "null", "-inf": "null"}

# rows are spelled a block at a time, so only one block's strings are held
# beside the finished row texts
_BLOCK_ROWS = 4096


def _spell(values, nonfinite: dict[str, str]) -> list[str]:
    """``repr(float(x))`` of each value, mapped in C, with ``nonfinite`` swapped in."""
    texts = list(map(repr, map(float, values)))
    return list(map(nonfinite.get, texts, texts)) if nonfinite else texts


def _row_texts(dataset: Dataset, sep: str, nonfinite: dict[str, str]) -> list[str]:
    """Each row's entries spelled ``repr(float(x))`` and joined by ``sep``.

    A spelling that ``nonfinite`` names is replaced by its value. Each block
    of rows is transposed into columns. A sweep axis whose metadata gives it
    fewer grid points than there are rows repeats its values, so its column
    spells each distinct value once through a memo; every other column is
    spelled entry by entry, mapped in C. A row whose width differs from the
    column count is a ``DomainError``.
    """
    rows, width = dataset.rows, len(dataset.columns)
    if set(map(len, rows)) - {width}:
        index = next(i for i, row in enumerate(rows) if len(row) != width)
        raise DomainError(f"row {index} has {len(rows[index])} entries; "
                          f"the dataset has {width} columns")
    if not width:
        return [""] * len(rows)
    repeated = {axis["name"] for axis in dataset.metadata.get("axes", ())
                if axis.get("count", len(axis.get("values", ()))) < len(rows)}
    memos = [{} if name in repeated else None for name in dataset.columns]
    texts = []
    for begin in range(0, len(rows), _BLOCK_ROWS):
        columns = []
        for memo, column in zip(memos, zip(*rows[begin:begin + _BLOCK_ROWS])):
            if memo is None:
                columns.append(_spell(column, nonfinite))
                continue
            new = set(column).difference(memo)
            memo.update(zip(new, _spell(new, nonfinite)))
            # 0.0 == -0.0 share one memo entry, so a zero is spelled by its own sign
            columns.append([memo[x] if x else repr(float(x)) for x in column])
        texts.extend(map(sep.join, zip(*columns)))
    return texts


def dataset_to_csv(dataset: Dataset) -> str:
    lines = _metadata_lines(dataset.metadata)
    lines.append(",".join(dataset.columns))
    lines += _row_texts(dataset, ",", {})
    lines.append("")
    return "\n".join(lines)


def dataset_to_json(dataset: Dataset) -> str:
    """The bytes of ``json.dumps({"metadata": ..., "rows": ...})``, every entry
    spelled ``repr(float(x))`` and a non-finite one ``null``."""
    texts = _row_texts(dataset, ", ", _JSON_NONFINITE)
    metadata = dict(dataset.metadata)
    metadata["columns"] = list(dataset.columns)
    head = json.dumps({"metadata": metadata}, allow_nan=False)[:-1] + ', "rows": ['
    rows = "], [".join(texts)
    del texts  # freed before the rows are copied into the file text
    return f"{head}[{rows}]]}}\n" if dataset.rows else head + "]}\n"


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
