"""Dataset serialization: CSV with metadata comments, or a single JSON object.

Every entry is written as ``repr(float(x))``, the shortest round-trip
decimal form of a double, in both formats (JSON spells a non-finite entry
``null``), so re-parsing a file reproduces the original binary doubles
exactly and repeated runs of the same sweep produce byte-identical files.

Both readers refuse the rows the writers refuse: every row must have one
entry per column and every entry must parse as a double, or the read is a
``DomainError`` naming the file and the row. Entries are parsed by Python's
``float()`` in both formats (a JSON ``null`` reads as NaN), so the JSON
reader also reads spellings outside JSON's number grammar that ``float()``
takes, such as ``1_000``, ``.5``, ``+1``, ``inf`` and ``nan``; no writer
writes them. Rows are parsed a block at a time, each column mapped to
doubles in C. A sweep-axis column repeats its values, so each distinct
spelling in it is parsed once and its rows share one float object.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain, islice, repeat

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


def _axis_counts(axes) -> dict[str, int]:
    """Each sweep axis's grid count, from the metadata ``axes`` list.

    An entry that is not an object with a string ``name`` and an integer
    ``count`` (or a ``values`` list) is skipped: the counts decide only
    which columns go through a memo, so a hand-written file reads the same
    without them.
    """
    counts = {}
    for axis in axes if isinstance(axes, (list, tuple)) else ():
        if not (isinstance(axis, dict) and isinstance(axis.get("name"), str)):
            continue
        count = axis.get("count", axis.get("values"))
        if isinstance(count, (list, tuple)):
            count = len(count)
        if isinstance(count, int):
            counts[axis["name"]] = count
    return counts


def _memos(columns, counts: dict[str, int], rows: int) -> list[dict | None]:
    """A memo for each column naming an axis with fewer grid points than the
    dataset has rows, so that its values repeat; ``None`` for every other."""
    return [{} if isinstance(name, str) and counts.get(name, rows) < rows else None
            for name in columns]


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
    memos = _memos(dataset.columns, _axis_counts(dataset.metadata.get("axes", ())),
                   len(rows))
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


# rows are read a block at a time too, but in small blocks, so a block's
# strings stay small beside the row tuples already built: blocks of 4,096
# rows raised the figures workload's peak memory by 12%
_READ_ROWS = 256


def _to_floats(texts, null: str | None) -> list[float]:
    """``float`` of each text, mapped in C; the spelling ``null`` reads as NaN."""
    try:
        return list(map(float, texts))
    except ValueError:
        if null is None:
            raise
        return [math.nan if text.strip() == null else float(text) for text in texts]


def _floats(texts: list[str], memo: dict | None, null: str | None) -> list[float]:
    """The column ``texts`` as doubles; through ``memo`` (text -> float) if given."""
    if memo is None:
        return _to_floats(texts, null)
    new = set(texts).difference(memo)
    if new:
        memo.update(zip(new, _to_floats(new, null)))
    return list(map(memo.__getitem__, texts))


def _parse_rows(texts: list[str], width: int, memos: list, null: str | None,
                first: int, path: str):
    """Row tuples of the comma-separated entries that ``texts`` spell.

    The block's entries are split at once and sliced into columns, each
    parsed by ``_floats`` with its memo. ``first`` is the index of
    ``texts[0]`` among the file's rows. A row whose width differs from
    ``width``, or an entry that is not a number, is a ``DomainError``.
    """
    if set(map(str.count, texts, repeat(","))) <= {width - 1}:
        entries = ",".join(texts).split(",")
        try:
            columns = [_floats(entries[i::width], memo, null) for i, memo in enumerate(memos)]
        except ValueError:
            pass
        else:
            return zip(*columns)
    for index, text in enumerate(texts, first):  # find the row at fault
        entries = text.split(",") if text.strip() else []
        if len(entries) != width:
            raise DomainError(f"{path}: row {index} has {len(entries)} entries; "
                              f"the dataset has {width} columns")
        for entry in entries:
            try:
                _to_floats([entry], null)
            except ValueError:
                raise DomainError(f"{path}: row {index}: {entry.strip()!r} is not a number"
                                  ) from None
    return [()] * len(texts)  # only a dataset without columns gets here


def _data_line(line: str, raw_meta: dict[str, str]) -> bool:
    """Whether a CSV line holds the header or a row; a ``# key = value``
    comment is kept in ``raw_meta``, and blank lines and comments are skipped."""
    if line.startswith("#"):
        body = line[1:].strip()
        if "=" in body:
            key, value = body.split("=", 1)
            raw_meta[key.strip()] = value.strip()
        return False
    return bool(line)


def _csv_axis_counts(raw_meta: dict[str, str]) -> dict[str, int]:
    """Grid counts of the ``# axis.<name> = values v...`` and
    ``# axis.<name> = <scale> min max count`` comments."""
    counts = {}
    for key, value in raw_meta.items():
        fields = value.split()
        if not (key.startswith("axis.") and fields):
            continue
        if fields[0] == "values":
            counts[key[5:]] = len(fields) - 1
        elif fields[-1].isdecimal() and len(fields[-1]) < 19:  # no row count is longer
            counts[key[5:]] = int(fields[-1])
    return counts


def _csv_rows(handle, width: int, memos: list, raw_meta: dict[str, str], path: str):
    """Blocks of row tuples from the lines left in ``handle``."""
    first = 0
    while lines := list(islice(handle, _READ_ROWS)):
        joined = "".join(lines)
        texts = joined.split("\n")[:len(lines)]
        if "" in texts or "#" in joined:
            texts = [text for text in texts if _data_line(text, raw_meta)]
        if texts:
            yield _parse_rows(texts, width, memos, None, first, path)
            first += len(texts)


def read_dataset_csv(path: str) -> Dataset:
    """Read back a CSV dataset; metadata comments are kept as raw strings."""
    raw_meta: dict[str, str] = {}
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if _data_line(line, raw_meta):
                columns = tuple(line.split(","))
                break
        else:
            raise DomainError(f"{path}: no header row found")
        counts = _csv_axis_counts(raw_meta)
        memos = _memos(columns, counts, math.prod(counts.values()))
        rows = tuple(chain.from_iterable(_csv_rows(handle, len(columns), memos,
                                                   raw_meta, path)))
    return Dataset(columns=columns, rows=rows,
                   metadata={"raw": raw_meta, "allow_errors":
                             raw_meta.get("allow_errors") == "true"})


_JSON_SPACE = re.compile(r"[ \t\n\r]*")
_JSON_COMMA = re.compile(r"[ \t\n\r]*,[ \t\n\r]*")
# where one row of the rows array ends and the next begins
_JSON_ROW_BREAK = re.compile(r"\][ \t\n\r]*,[ \t\n\r]*\[")
# the last row's close and the rows array's
_JSON_ROWS_END = re.compile(r"\][ \t\n\r]*\]")


def _skip_space(text: str, pos: int) -> int:
    return _JSON_SPACE.match(text, pos).end()


def _expect(text: str, pos: int, char: str, path: str) -> int:
    """The position after ``char``, which must stand at ``text[pos]``."""
    if not text.startswith(char, pos):
        raise DomainError(f"{path}: expected {char!r} at character {pos}")
    return pos + 1


def _json_rows_span(text: str, pos: int, path: str) -> tuple[tuple[int, int], int]:
    """Where the rows of the array that opens at ``text[pos]`` begin and end,
    and the position after the array."""
    start = _skip_space(text, _expect(text, pos, "[", path))
    if text.startswith("]", start):
        return (start, start), start + 1
    end = _JSON_ROWS_END.search(text, start)
    if end is None:
        raise DomainError(f"{path}: the rows array at character {pos} is not closed")
    return (start, end.start() + 1), end.end()


def _json_members(text: str, path: str) -> tuple[dict, tuple[int, int] | None]:
    """The top-level object's members except ``rows``, each decoded by
    ``json``, and the span of the rows inside the ``rows`` array."""
    decoder, members, rows = json.JSONDecoder(), {}, None
    pos = _skip_space(text, _expect(text, _skip_space(text, 0), "{", path))
    more = not text.startswith("}", pos)
    while more:
        _expect(text, pos, '"', path)
        key, pos = decoder.raw_decode(text, pos)
        pos = _skip_space(text, _expect(text, _skip_space(text, pos), ":", path))
        if key == "rows":
            rows, pos = _json_rows_span(text, pos, path)
        else:
            members[key], pos = decoder.raw_decode(text, pos)
        pos = _skip_space(text, pos)
        more = text.startswith(",", pos)
        if more:
            pos = _skip_space(text, pos + 1)
    pos = _expect(text, pos, "}", path)
    if _skip_space(text, pos) != len(text):
        raise DomainError(f"{path}: unexpected text after character {pos}")
    return members, rows


def _json_rows(text: str, span: tuple[int, int], width: int, memos: list, path: str):
    """Blocks of row tuples from the rows ``[...], [...]`` in ``text[span[0]:span[1]]``.

    A block is the rows that end within a window of about ``_READ_ROWS``
    rows' characters. It is cut into rows at ``]``, ``,`` and ``[`` with
    any JSON whitespace between; a bracket left in an entry fails as an
    entry that is not a number.
    """
    pos, end = span
    window = max(1, (end - pos) * _READ_ROWS // max(1, text.count("]", pos, end)))
    first = 0
    while pos < end:
        stop = text.rfind("]", pos, min(pos + window, end)) + 1 or text.find("]", pos) + 1
        comma = _JSON_COMMA.match(text, stop, end)
        if not text.startswith("[", pos) or (stop < end and comma is None):
            raise DomainError(f"{path}: the rows array is not an array of number arrays "
                              f"after row {first}")
        texts = _JSON_ROW_BREAK.split(text[pos + 1:stop - 1])
        yield _parse_rows(texts, width, memos, "null", first, path)
        first += len(texts)
        pos = comma.end() if stop < end else end


def read_dataset_json(path: str) -> Dataset:
    """Read back a JSON dataset: the members other than ``rows`` through
    ``json``, the rows straight into tuples, with no list of lists between."""
    with open(path) as handle:
        text = handle.read()
    try:
        members, span = _json_members(text, path)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: {exc}") from None
    metadata = members.get("metadata")
    if span is None or not isinstance(metadata, dict) or "columns" not in metadata:
        raise DomainError(f"{path}: expected an object with rows and metadata.columns")
    columns = tuple(metadata["columns"])
    counts = _axis_counts(metadata.get("axes", ()))
    memos = _memos(columns, counts, math.prod(counts.values()))
    rows = tuple(chain.from_iterable(_json_rows(text, span, len(columns), memos, path)))
    return Dataset(columns=columns, rows=rows, metadata=metadata)
