"""Dataset serialization: CSV with metadata comments, or a single JSON object.

Every entry is written as ``repr(float(x))``, the shortest round-trip
decimal form of a double, in both formats (JSON spells a non-finite entry
``null``), so re-parsing a file reproduces the original binary doubles
exactly and repeated runs of the same sweep produce byte-identical files.

Both readers refuse a row without one entry per column, an entry that
``float()`` refuses (a JSON ``null`` reads as NaN) and text that is not
UTF-8, with a ``DomainError`` naming the file. So the JSON reader also
reads spellings outside JSON's number grammar, such as ``1_000``, ``.5``,
``+1``, ``inf`` and ``nan``; no writer writes them.

No write or read holds a file's whole text. The writers spell and write a
block of rows at a time from slices of the dataset's columns; a write that
fails after the file is opened removes the partial file. The readers parse
a block of rows at a time, each column mapped to doubles in C and appended
to the dataset's column. A sweep-axis column repeats its values, so each
distinct value in it is spelled once and each distinct spelling parsed
once. The CSV reader rebuilds the metadata block from the comments, so a
CSV read back writes the same bytes again. The JSON reader reads a piece of
characters at a time in two passes over the file: the first decodes the
members other than ``rows`` through ``json``, the second parses the rows,
so the members may come in any order.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from itertools import chain, islice, repeat

from .errors import DomainError
from .sweeps import Dataset, Rows


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

# rows are spelled and written a block at a time, so only one block's
# strings are held
_BLOCK_ROWS = 4096


def _spell(values, nonfinite: dict[str, str]) -> list[str]:
    """``repr(x)`` of each float, mapped in C, with ``nonfinite`` swapped in."""
    texts = list(map(repr, values))
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
        if isinstance(axis, dict) and isinstance(axis.get("name"), str):
            count = axis.get("count", axis.get("values"))
            count = len(count) if isinstance(count, (list, tuple)) else count
            if isinstance(count, int):
                counts[axis["name"]] = count
    return counts


def _memos(columns, counts: dict[str, int], rows: int) -> list[dict | None]:
    """A memo for each column naming an axis with fewer grid points than the
    dataset has rows, so that its values repeat; ``None`` for every other."""
    return [{} if isinstance(name, str) and counts.get(name, rows) < rows else None
            for name in columns]


def _row_blocks(dataset: Dataset, sep: str, nonfinite: dict[str, str]) -> Iterator[list[str]]:
    """Each block of ``_BLOCK_ROWS`` rows as row texts: entries spelled
    ``repr(x)``, a spelling that ``nonfinite`` names replaced by its value,
    and joined by ``sep``.

    A sweep axis whose metadata gives it fewer grid points than there are
    rows repeats its values, so its column spells each distinct value once
    through a memo shared by the blocks; every other column is spelled
    entry by entry, mapped in C.
    """
    rows = dataset.rows
    memos = _memos(dataset.columns, _axis_counts(dataset.metadata.get("axes", ())),
                   len(rows))
    for begin in range(0, len(rows), _BLOCK_ROWS):
        yield _spell_block(rows[begin:begin + _BLOCK_ROWS], memos, sep, nonfinite)


def _spell_block(rows: Rows, memos: list, sep: str, nonfinite: dict[str, str]) -> list[str]:
    """The row texts of one block of ``rows``; see ``_row_blocks``."""
    if not memos:
        return [""] * len(rows)
    texts = []
    for index, memo in enumerate(memos):
        column = rows.column(index)
        if memo is None:
            texts.append(_spell(column, nonfinite))
            continue
        column = column.tolist()  # a NaN is found only by its own object, which the list keeps
        new = set(column).difference(memo)
        memo.update(zip(new, _spell(new, nonfinite)))
        # 0.0 == -0.0 share one memo entry, so a zero is spelled by its own sign
        texts.append([memo[x] if x else repr(x) for x in column])
    return list(map(sep.join, zip(*texts)))


def _csv_pieces(dataset: Dataset) -> Iterator[str]:
    """The CSV text in pieces: the metadata comments and the header, then
    one piece per block of rows."""
    blocks = _row_blocks(dataset, ",", {})
    head = _metadata_lines(dataset.metadata) + [",".join(dataset.columns), ""]
    return chain(["\n".join(head)], map("{}\n".format, map("\n".join, blocks)))


def _json_pieces(dataset: Dataset) -> Iterator[str]:
    """The JSON text in pieces: the object up to the rows array, one piece
    per block of rows, and the close."""
    blocks = _row_blocks(dataset, ", ", _JSON_NONFINITE)
    metadata = dict(dataset.metadata)
    metadata["columns"] = list(dataset.columns)
    head = json.dumps({"metadata": metadata}, allow_nan=False)[:-1] + ', "rows": ['
    # "[" opens the first row and ", [" each block's first row after it
    return chain([head], map("{}[{}]".format, chain([""], repeat(", ")),
                             map("], [".join, blocks)), ["]}\n"])


def dataset_to_csv(dataset: Dataset) -> str:
    return "".join(_csv_pieces(dataset))


def dataset_to_json(dataset: Dataset) -> str:
    """The bytes of ``json.dumps({"metadata": ..., "rows": ...})``, every entry
    spelled ``repr(float(x))`` and a non-finite one ``null``."""
    return "".join(_json_pieces(dataset))


FORMATS = ("csv", "json")


def write_dataset(dataset: Dataset, path: str, fmt: str) -> int:
    """Write the dataset to ``path`` a block of rows at a time; returns the
    number of data rows.

    Every row was checked when the dataset was built. If the write fails
    after the file is opened, the partial file is removed (unless ``path``
    is not a regular file, such as ``/dev/stdout``) and the error re-raised.
    """
    if fmt not in FORMATS:
        raise DomainError(f"unknown output format {fmt!r}; expected one of {FORMATS}")
    pieces = _csv_pieces(dataset) if fmt == "csv" else _json_pieces(dataset)
    handle = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with handle:
            handle.writelines(pieces)
    except BaseException:
        with suppress(OSError):  # the write's own error is the one to report
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        raise
    return len(dataset.rows)


# CSV rows are read a block of lines at a time, in small blocks, so a
# block's strings stay small beside the columns already built: blocks of
# 4,096 rows raised the figures workload's peak memory by 12%
_READ_ROWS = 256


def _floats(texts, memo: dict | None, null: str | None) -> list[float]:
    """``float`` of each text, mapped in C, through ``memo`` (text -> float)
    if given; the spelling ``null`` reads as NaN."""
    if memo is not None:
        new = set(texts).difference(memo)
        memo.update(zip(new, _floats(new, None, null)))
        return list(map(memo.__getitem__, texts))
    try:
        return list(map(float, texts))
    except ValueError:
        if null is None:
            raise
        return [math.nan if text.strip() == null else float(text) for text in texts]


def _parse_rows(texts: list[str], width: int, memos: list, null: str | None,
                first: int, path: str) -> tuple[int, list[list[float]]]:
    """The row count and the columns of the comma-separated entries that
    ``texts`` spell, a block as ``Rows.from_blocks`` takes it.

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
            return len(texts), columns
    for index, text in enumerate(texts, first):  # find the row at fault
        entries = text.split(",") if text.strip() else []
        if len(entries) != width:
            raise DomainError(f"{path}: row {index} has {len(entries)} entries; "
                              f"the dataset has {width} columns")
        for entry in entries:
            try:
                _floats([entry], None, null)
            except ValueError:
                raise DomainError(f"{path}: row {index}: {entry.strip()!r} is not a number"
                                  ) from None
    return len(texts), []  # only a dataset without columns gets here


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


def _csv_axis(name: str, value: str) -> dict | None:
    """The metadata entry that an ``# axis.<name> = values v...`` or
    ``# axis.<name> = <scale> min max count`` comment spells, or ``None``."""
    fields = value.split()
    try:
        if fields[0] == "values":
            return {"name": name, "scale": "values", "values": list(map(float, fields[1:]))}
        scale, low, high, count = fields
        if count.isdecimal() and len(count) < 19:  # no grid count is longer
            return {"name": name, "scale": scale, "min": float(low), "max": float(high),
                    "count": int(count)}
    except (IndexError, ValueError):
        pass
    return None


def _csv_metadata(raw_meta: dict[str, str]) -> dict:
    """The metadata block that the CSV comments spell, as the writers take
    it: ``version``, ``target``, the ``axis.*`` and ``fixed.*`` lines and
    ``allow_errors``, with every comment also kept as text under ``raw``.
    A line that does not parse is kept only under ``raw``."""
    metadata = {key: raw_meta[key] for key in ("version", "target") if key in raw_meta}
    axes, fixed = [], {}
    for key, value in raw_meta.items():
        kind, _, name = key.partition(".")
        if kind == "axis" and (axis := _csv_axis(name, value)) is not None:
            axes.append(axis)
        elif kind == "fixed":
            with suppress(ValueError):
                fixed[name] = float(value)
    metadata.update(axes=axes, fixed=fixed, allow_errors=raw_meta.get("allow_errors") == "true",
                    raw=raw_meta)
    return metadata


def _csv_rows(handle, width: int, memos: list, raw_meta: dict[str, str], path: str):
    """Blocks of rows, as ``_parse_rows`` gives them, from the lines left in ``handle``."""
    first = 0
    while lines := list(islice(handle, _READ_ROWS)):
        joined = "".join(lines)
        texts = joined.split("\n")[:len(lines)]
        if "" in texts or "#" in joined:
            texts = [text for text in texts if _data_line(text, raw_meta)]
        if texts:
            yield _parse_rows(texts, width, memos, None, first, path)
            first += len(texts)


@contextmanager
def _text_file(path: str):
    """``path`` open for reading as UTF-8 text; text that is not UTF-8 is a
    DomainError naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_dataset_csv(path: str) -> Dataset:
    """Read back a CSV dataset; the metadata block is rebuilt from the comments."""
    raw_meta: dict[str, str] = {}
    with _text_file(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if _data_line(line, raw_meta):
                columns = tuple(line.split(","))
                break
        else:
            raise DomainError(f"{path}: no header row found")
        counts = _axis_counts(_csv_metadata(raw_meta)["axes"])
        memos = _memos(columns, counts, math.prod(counts.values()))
        rows = Rows.from_blocks(len(columns), _csv_rows(handle, len(columns), memos,
                                                        raw_meta, path))
    return Dataset(columns=columns, rows=rows, metadata=_csv_metadata(raw_meta))


# a JSON file is read this many characters at a time: about 240 rows of a
# four-column sweep, so its blocks are as small as the CSV reader's
_READ_CHARS = 1 << 14
_JSON_SPACE = re.compile(r"[ \t\n\r]*")
# what may still continue a number that ends where the text read so far ends
_JSON_NUMBER_TAIL = re.compile(r"[0-9.eE+-]*\Z")
# where one row of the rows array ends and the next begins
_JSON_ROW_BREAK = re.compile(r"\][ \t\n\r]*,[ \t\n\r]*\[")
# the last row's close and the rows array's
_JSON_ROWS_END = re.compile(r"\][ \t\n\r]*\]")
_JSON_DECODER = json.JSONDecoder()


class _JsonText:
    """The text of an open JSON file, read ``_READ_CHARS`` characters at a
    time: ``buf[pos:]`` is what has been read and not yet consumed, and
    ``offset`` the number of characters dropped before ``buf``."""

    def __init__(self, handle, path: str) -> None:
        self.handle, self.path = handle, path
        self.buf, self.pos, self.offset = "", 0, 0

    def fail(self, message: str) -> DomainError:
        return DomainError(f"{self.path}: {message}")

    def more(self, size: int = 0) -> bool:
        """Drop the consumed text and read one more piece of at least
        ``size`` characters; False, with nothing changed, at the end of the file."""
        piece = self.handle.read(max(size, _READ_CHARS))
        if piece:
            self.offset += self.pos
            self.buf, self.pos = self.buf[self.pos:] + piece, 0
        return bool(piece)

    def skip_space(self) -> bool:
        """Consume any whitespace; whether text follows it."""
        while True:
            self.pos = _JSON_SPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or not self.more():
                return self.pos < len(self.buf)

    def at(self, char: str) -> bool:
        """Whether ``char`` comes next, after any whitespace."""
        self.skip_space()
        return self.buf.startswith(char, self.pos)

    def expect(self, char: str) -> None:
        if not self.at(char):
            raise self.fail(f"expected {char!r} at character {self.offset + self.pos}")
        self.pos += 1

    def value(self):
        """The JSON value next, decoded by ``json``.

        Until the value decodes, and while a number may run on past the text
        read so far, the text read is doubled; a value that is malformed is
        therefore refused only at the end of the file.
        """
        self.skip_space()
        while True:
            try:
                value, end = _JSON_DECODER.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError as exc:
                if self.more(len(self.buf)):
                    continue
                raise self.fail(f"{exc.msg} at character {self.offset + exc.pos}") from None
            if not _JSON_NUMBER_TAIL.match(self.buf, end) or not self.more(len(self.buf)):
                self.pos = end
                return value


def _json_object(text: _JsonText, rows) -> dict:
    """The top-level object's members: ``rows`` as ``rows(text)`` reads its
    array, every other member decoded by ``json``."""
    members = {}
    text.expect("{")
    more = not text.at("}")
    while more:
        if not text.at('"'):
            raise text.fail(f"expected '\"' at character {text.offset + text.pos}")
        key = text.value()
        text.expect(":")
        members[key] = rows(text) if key == "rows" else text.value()
        more = text.at(",")
        if more:
            text.pos += 1
    text.expect("}")
    if text.skip_space():
        raise text.fail(f"unexpected text after character {text.offset + text.pos}")
    return members


def _skip_rows(text: _JsonText) -> None:
    """Read past the rows array, keeping no more than one row of it."""
    text.expect("[")
    if text.at("]"):
        text.pos += 1
        return
    while (end := _JSON_ROWS_END.search(text.buf, text.pos)) is None:
        last = text.buf.rfind("]", text.pos)  # may close the last row
        text.pos = last if last >= 0 else len(text.buf)
        if not text.more():
            raise text.fail("the rows array is not closed")
    text.pos = end.end()


def _json_rows(text: _JsonText, width: int, memos: list):
    """Blocks of rows, as ``_parse_rows`` gives them, from the rows array next.

    Each block is the rows that the text read so far holds whole. It is cut
    into rows at ``]``, ``,`` and ``[`` with any JSON whitespace between; a
    bracket left in an entry fails as an entry that is not a number. The
    row begun last is carried into the next block.
    """
    text.expect("[")
    if text.at("]"):
        text.pos += 1
        return
    first = 0
    while True:
        buf, pos = text.buf, text.pos
        if not buf.startswith("[", pos):
            raise text.fail(f"the rows array is not an array of number arrays after row {first}")
        end = _JSON_ROWS_END.search(buf, pos)
        if end is not None:
            text.pos = end.end()
            yield _parse_rows(_JSON_ROW_BREAK.split(buf[pos + 1:end.start()]), width, memos,
                              "null", first, text.path)
            return
        cut = buf.rfind("[", pos + 1)  # where the row begun last opens
        if cut > pos:
            block = buf[pos:cut].rstrip(" \t\n\r")
            rows = block[:-1].rstrip(" \t\n\r")  # without the comma after the last row
            if not (block.endswith(",") and rows.endswith("]")):
                raise text.fail("the rows array is not an array of number arrays "
                                f"after row {first}")
            texts = _JSON_ROW_BREAK.split(rows[1:-1])
            text.pos = cut
            yield _parse_rows(texts, width, memos, "null", first, text.path)
            first += len(texts)
        if not text.more():
            raise text.fail("the rows array is not closed")


def read_dataset_json(path: str) -> Dataset:
    """Read back a JSON dataset in pieces of ``_READ_CHARS`` characters.

    A first pass decodes the members other than ``rows`` through ``json``
    and reads past the rows; a second parses the rows straight into the
    columns, a block at a time, so neither the file's text nor a list of
    lists is held. The members may come in any order.
    """
    with _text_file(path) as handle:
        members = _json_object(_JsonText(handle, path), _skip_rows)
        metadata = members.get("metadata")
        if "rows" not in members or not isinstance(metadata, dict) or "columns" not in metadata:
            raise DomainError(f"{path}: expected an object with rows and metadata.columns")
        columns = tuple(metadata["columns"])
        counts = _axis_counts(metadata.get("axes", ()))
        memos = _memos(columns, counts, math.prod(counts.values()))
        handle.seek(0)
        rows = _json_object(_JsonText(handle, path), lambda text: Rows.from_blocks(
            len(columns), _json_rows(text, len(columns), memos)))["rows"]
    return Dataset(columns=columns, rows=rows, metadata=metadata)
