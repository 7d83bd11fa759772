"""Dataset serialization: CSV with metadata comments, or a single JSON object.

Every entry is written as ``repr(float(x))``, the shortest round-trip
decimal form of a double, in both formats (JSON spells a non-finite entry
``null``), so re-parsing a file reproduces the original binary doubles
exactly and repeated runs of the same sweep produce byte-identical files.
Both writers spell the metadata through ``json``, CSV as one
``# key = <JSON>`` comment per key, so both readers read back the metadata
written, and a CSV read back writes the same bytes again.

Each reader reads its writer's layout and no other. A CSV file is zero or
more ``# key = <JSON>`` lines, the header, then one row per line, each line
ending in a line break. A JSON file is ``{"metadata": ``, the metadata
object, ``, "rows": [``, the rows, each opened by ``[``, closed by ``]``
and joined by ``, ``, then ``]}`` and a line break. Anything else is refused
with a one-line ``DomainError`` naming the file and the line, character or
row where it leaves that layout: so are a row without one entry per column,
an entry that ``float()`` refuses (a JSON ``null`` reads as NaN), text that
is not UTF-8, metadata that ``json`` does not decode and a JSON
``metadata.columns`` that is not a non-empty list of strings. Earlier
versions also read JSON with other spacing or its members in another order,
and CSV with blank lines, other comments or metadata values that are not
JSON; such files are now refused.

No write or read holds a file's whole text. The writers spell and write a
block of rows at a time from slices of the dataset's columns, to a new
file beside a regular ``path`` that replaces it once the write is done, so
a write that fails part way leaves an older file intact. Both readers read
the file once, a piece of ``_READ_CHARS`` characters at a time, and parse
the rows that the text read so far holds whole as one block, carrying the
row begun last into the next piece; each block is split into its entries at
once by ``_parse_block``, each column mapped to doubles in C and appended
to one array of doubles per name. Only a block that is not parsed is cut
into rows, to name the first row at fault. Writers and readers alike pass
each column through a memo while it holds at most ``_MEMO_SIZE`` distinct
values, so a column that repeats its values, such as a sweep axis, spells
each value once and parses each spelling once; see ``_through_memo``.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
from array import array
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, suppress
from functools import partial
from itertools import chain, islice, repeat
from typing import NoReturn

from .errors import DomainError
from .sweeps import FORMATS, Dataset, Rows  # FORMATS is also read from here


# strict JSON has no NaN or infinity: a non-finite entry is written as null
_JSON_NONFINITE = {"nan": "null", "inf": "null", "-inf": "null"}
# a JSON file: the metadata object between the first two, the rows, each
# opened by "[", joined by "], [" and closed by "]", and the last
_JSON_HEAD, _JSON_ROWS, _JSON_END = '{"metadata": ', ', "rows": [', "]}\n"

# rows are spelled and written a block at a time, so only one block's
# strings are held
_BLOCK_ROWS = 4096
# the most distinct values a column's memo holds, in a writer or a reader
_MEMO_SIZE = 1024


def _spell(patterns, nonfinite: dict[str, str]) -> list[str]:
    """``repr(x)`` of each double whose 64-bit pattern is in ``patterns`` (a
    block's memoryview, read in place, or a set of new ones), mapped in C,
    with ``nonfinite`` swapped in where the values' sum is not finite, as it
    is wherever one of them is not."""
    if not isinstance(patterns, memoryview):
        patterns = memoryview(array("Q", patterns))
    values = patterns.cast("B").cast("d")
    texts = list(map(repr, values))
    if nonfinite and not math.isfinite(sum(values)):
        return list(map(nonfinite.get, texts, texts))
    return texts


def _through_memo(keys, memos: list, index: int, convert) -> list:
    """``convert(keys)`` through the memo ``memos[index]``: one lookup per
    key, mapped in C, once the memo holds them all. New keys are added as
    one set, ``convert`` of that set; keys that would take the memo past
    ``_MEMO_SIZE`` drop it (``memos[index] = None``), and from then on each
    block of the column is ``convert`` of its keys."""
    memo = memos[index]
    if memo is not None:
        try:
            return list(map(memo.__getitem__, keys))
        except KeyError:
            pass
        new = set(keys)
        new.difference_update(memo)
        if len(memo) + len(new) <= _MEMO_SIZE:
            memo.update(zip(new, convert(new)))
            return list(map(memo.__getitem__, keys))
        memos[index] = None
    return convert(keys)


def _row_blocks(dataset: Dataset, sep: str, nonfinite: dict[str, str]) -> Iterator[list[str]]:
    """Each block of ``_BLOCK_ROWS`` rows as row texts: entries spelled
    ``repr(x)``, a spelling that ``nonfinite`` names replaced by its value,
    and joined by ``sep``. Each column is spelled through a memo shared by
    the blocks, keyed by each double's 64-bit pattern, so -0.0, 0.0 and each
    NaN have their own entry, until the memo would outgrow ``_MEMO_SIZE``."""
    rows, memos = dataset.rows, [{} for _ in dataset.columns]
    for begin in range(0, len(rows), _BLOCK_ROWS):
        yield _spell_block(rows[begin:begin + _BLOCK_ROWS], memos, sep, nonfinite)


def _spell_block(rows: Rows, memos: list, sep: str, nonfinite: dict[str, str]) -> list[str]:
    """The row texts of one block of ``rows``; see ``_row_blocks``."""
    spell = partial(_spell, nonfinite=nonfinite)
    texts = [_through_memo(rows.column(index).cast("B").cast("Q"), memos, index, spell)
             for index in range(len(memos))]
    return list(map(sep.join, zip(*texts)))


def _json(value) -> str:
    """``value`` in JSON, as both writers spell metadata; NaN, a set or a value
    nested past the recursion limit is a ``DomainError``."""
    try:
        return json.dumps(value, allow_nan=False)
    except (ValueError, TypeError, RecursionError) as exc:
        raise DomainError(f"metadata cannot be written as JSON: {exc}") from None


# the metadata keys and the column names that the CSV reader reads back as
# written: a key holds no "=" or line break and has no space at its ends
_CSV_KEY = re.compile(r"(?!\s)[^=\n\r]+(?<!\s)")
_CSV_NAME = re.compile(r"[^,\n\r]+")


def _utf8(text: str) -> bool:
    """Whether ``text`` has a UTF-8 spelling, which a lone surrogate lacks.
    (A regex class of the surrogates costs each CLI process about 0.5 ms to
    compile.)"""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _csv_pieces(dataset: Dataset) -> Iterator[str]:
    """The CSV text in pieces: the metadata comments, one ``# key = <JSON>``
    line per key in dict order, and the header, then one piece per block of
    rows. A key or column name the reader would misread is a ``DomainError``."""
    head = []
    for key, value in dataset.metadata.items():
        if not (isinstance(key, str) and _CSV_KEY.fullmatch(key) and _utf8(key)):
            raise DomainError(f"metadata key {key!r} cannot be written to CSV: a key is "
                              "text without '=', a line break, a lone surrogate or space "
                              "at its ends")
        head.append(f"# {key} = {_json(value)}")
    names = dataset.columns
    if (names[0].startswith("#") or not all(map(_CSV_NAME.fullmatch, names))
            or not all(map(_utf8, names))):
        raise DomainError(f"column names {names!r} cannot be written to CSV: a name is text "
                          "without ',', a line break or a lone surrogate, the first not "
                          "starting with '#'")
    blocks = _row_blocks(dataset, ",", {})
    head += [",".join(names), ""]
    return chain(["\n".join(head)], map("{}\n".format, map("\n".join, blocks)))


def _json_pieces(dataset: Dataset) -> Iterator[str]:
    """The JSON text in pieces: the object up to the rows array, one piece
    per block of rows, and the close."""
    blocks = _row_blocks(dataset, ", ", _JSON_NONFINITE)
    metadata = {**dataset.metadata, "columns": list(dataset.columns)}
    # "[" opens the first row and ", [" each block's first row after it
    return chain([_JSON_HEAD + _json(metadata) + _JSON_ROWS],
                 map("{}[{}]".format, chain([""], repeat(", ")), map("], [".join, blocks)),
                 [_JSON_END])


def dataset_to_csv(dataset: Dataset) -> str:
    return "".join(_csv_pieces(dataset))


def dataset_to_json(dataset: Dataset) -> str:
    """The bytes of ``json.dumps({"metadata": ..., "rows": ...})``, every entry
    spelled ``repr(float(x))`` and a non-finite one ``null``."""
    return "".join(_json_pieces(dataset))


def write_text(path: str, pieces: Iterable[str]) -> None:
    """Write the concatenated ``pieces`` to ``path`` as UTF-8 text.

    A regular file, or a path that names nothing yet, is written as a new
    file beside it, with the mode ``open(path, "w")`` would give, which
    replaces it (through a symlink, the link's target) once the write is
    done. A write that fails part way removes the new file, leaves an older
    one intact and re-raises the error, naming ``path``. Any other path,
    such as ``/dev/stdout``, is written in place.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    # in place: anything but a regular file or a new file's name, such as
    # /dev/stdout, or out/, whose trailing separator open refuses
    if not (stat.S_ISREG(mode) if mode is not None else os.path.basename(path)):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(pieces)
        return
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    temp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        # a new file gets 0o666 less the umask, as open(path, "w") gives it
        with open(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "w",
                  encoding="utf-8", newline="\n") as handle:
            if mode is not None:  # open(path, "w") keeps an older file's mode
                os.fchmod(handle.fileno(), stat.S_IMODE(mode))
            handle.writelines(pieces)
        os.replace(temp, target)
    except BaseException as exc:
        with suppress(OSError):  # the write's own error is the one to report
            os.remove(temp)
        if isinstance(exc, OSError) and exc.filename == temp:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def write_dataset(dataset: Dataset, path: str, fmt: str) -> int:
    """Write the dataset to ``path`` a block of rows at a time, through
    ``write_text``; returns the number of data rows.

    Every row was checked when the dataset was built, and the metadata and
    column names are checked before the file is touched.
    """
    if fmt not in FORMATS:
        raise DomainError(f"unknown output format {fmt!r}; expected one of {FORMATS}")
    write_text(path, _csv_pieces(dataset) if fmt == "csv" else _json_pieces(dataset))
    return len(dataset.rows)


# both readers read a file this many characters at a time, about 240 rows of
# a four-column sweep, so a block's strings stay small beside the columns
# already built: blocks of 4,096 rows raised the figures workload's peak
# memory by 12%
_READ_CHARS = 1 << 14


def _floats(texts, null: str | None) -> list[float]:
    """``float`` of each text, mapped in C; the spelling ``null`` reads as
    NaN. A text that is neither is a ``ValueError``."""
    try:
        return list(map(float, texts))
    except ValueError:
        if null is None:
            raise
        return [math.nan if text.strip() == null else float(text) for text in texts]


def _parse_block(text: str, row_break: str, columns: list[array], memos: list,
                 null: str | None) -> int:
    """Append the rows that ``text`` holds, joined by ``row_break``, to
    ``columns``, and return how many they are; 0, with nothing appended, if
    a row has another width than ``columns`` or holds an entry that is not
    a number. ``text`` holds no line break but those in ``row_break``.

    The entries are split at once: each row begins with a line break, which
    ``float`` ignores, so the rows all have one entry per column when the
    first column holds every line break. Each column is parsed through its
    memo in ``memos`` by ``_through_memo``.
    """
    width, marked = len(columns), "\n" + text.replace(row_break, ",\n")
    count, entries = marked.count("\n"), marked.split(",")
    if len(entries) != width * count or "".join(entries[::width]).count("\n") != count:
        return 0
    parse = partial(_floats, null=null)
    try:
        parsed = [_through_memo(entries[index::width], memos, index, parse)
                  for index in range(width)]
    except ValueError:
        return 0
    for column, values in zip(columns, parsed):
        column.fromlist(values)
    return count


def _row_fault(texts: list[str], columns: list[array], null: str | None, path: str,
               source: str) -> NoReturn:
    """Refuse the rows that ``texts`` spell, comma-separated entries each,
    with a ``DomainError`` naming the first row at fault, numbered on from
    the rows in ``columns``: a line break in a row, an entry that is not a
    number, or a row without one entry per column, as ``source`` (the
    header or ``metadata.columns``) shows."""
    width = len(columns)
    for index, text in enumerate(texts, len(columns[0])):
        if "\n" in text:
            raise DomainError(f"{path}: row {index} holds a line break")
        entries = text.split(",")
        for entry in entries:
            try:
                _floats([entry], null)
            except ValueError:
                raise DomainError(f"{path}: row {index}: {entry.strip()!r} is not a number"
                                  ) from None
        if len(entries) != width:
            break
    raise DomainError(f"{path}: row {index} has {len(entries)} entries; {source} has {width}")


def _metadata_line(line: str, number: int, metadata: dict, path: str) -> None:
    """Set ``metadata[key]`` from ``line``, line ``number``, a ``# key = <JSON>``
    line with a key that the CSV writer takes; any other line is refused."""
    key, equals, value = line[2:].partition(" = ")
    if not (line.startswith("# ") and equals and _CSV_KEY.fullmatch(key)):
        raise DomainError(f"{path}: line {number} is not a '# key = <JSON>' line")
    try:
        metadata[key] = json.loads(value)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"{path}: line {number}: the value is not JSON ({exc})") from None


def _csv_rows(handle, width: int, path: str) -> Rows:
    """The rows of the text left in ``handle``, ``width`` entries each, one
    per line: the lines that each piece completes are parsed as one block."""
    columns, memos = [array("d") for _ in range(width)], [{} for _ in range(width)]
    rest = ""
    for piece in iter(partial(handle.read, _READ_CHARS), ""):
        cut = piece.rfind("\n")
        if cut < 0:
            rest += piece
            continue
        block, rest = rest + piece[:cut], piece[cut + 1:]
        if not _parse_block(block, "\n", columns, memos, None):
            _row_fault(block.split("\n"), columns, None, path, "the header")
    if rest:
        raise DomainError(f"{path}: row {len(columns[0])} has no line break at its end")
    return Rows(columns)


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
    """Read back a CSV dataset: ``# key = <JSON>`` lines, each a metadata
    entry, the header, then one row per line, each line ending in a line
    break."""
    metadata: dict = {}
    with _text_file(path) as handle:
        for number, line in enumerate(handle, 1):
            if not line.startswith("#"):
                break
            _metadata_line(line, number, metadata, path)
        else:
            raise DomainError(f"{path}: no header row found")
        columns = tuple(line[:-1].split(","))
        if not (line.endswith("\n") and all(columns)):
            raise DomainError(f"{path}: line {number} is not a header: names joined by ',' "
                              "and a line break")
        rows = _csv_rows(handle, len(columns), path)
    return Dataset(columns=columns, rows=rows, metadata=metadata)


_JSON_DECODER = json.JSONDecoder()


def _json_metadata(pieces: Iterator[str], path: str) -> tuple[object, str]:
    """The value that follows ``_JSON_HEAD``, decoded by ``json``, and the
    text read after the ``_JSON_ROWS`` that follows it, one character at least.

    The metadata may hold a key ``rows`` itself, so the value ends at the
    first ``_JSON_ROWS`` where ``raw_decode`` ends it. Decoding the text up
    to a mark fails there only for want of the text after it; a decode error
    before it, or a value that ends before it, is refused at once.
    """
    text, start = "", len(_JSON_HEAD)  # start: where the next mark is looked for
    while True:
        piece = next(pieces, None)
        text += piece or ""
        if not (text.startswith(_JSON_HEAD) or piece and _JSON_HEAD.startswith(text)):
            raise DomainError(f"{path}: expected {_JSON_HEAD!r} at character 0")
        # each mark with a character after it; at the end of the file, the end
        mark = text.find(_JSON_ROWS, start, len(text) - 1) if piece else len(text)
        while mark >= 0:
            found = _metadata_before(text, mark, piece is None, path)
            if found:
                return found
            start = mark + 1
            mark = text.find(_JSON_ROWS, start, len(text) - 1)
        start = max(start, len(text) - len(_JSON_ROWS))  # no mark ends before here


def _metadata_before(text: str, mark: int, last: bool, path: str) -> tuple[object, str] | None:
    """The value that ``raw_decode`` finds between ``_JSON_HEAD`` and a mark
    at ``mark``, and the text after the mark; ``None`` if the value runs on
    past it, unless the mark is the ``last`` one."""
    try:
        value, end = _JSON_DECODER.raw_decode(text[:mark], len(_JSON_HEAD))
    except json.JSONDecodeError as exc:
        if exc.pos < mark or last:
            raise DomainError(f"{path}: {exc.msg} at character {exc.pos}") from None
        return None
    except RecursionError:
        raise DomainError(f"{path}: a value nested past the recursion limit at character "
                          f"{len(_JSON_HEAD)}") from None
    except ValueError as exc:  # an integer past the digit limit of int
        raise DomainError(f"{path}: metadata: {exc}") from None
    if end < mark or last:
        raise DomainError(f"{path}: expected {_JSON_ROWS!r} and a row at character {end}")
    return value, text[mark + len(_JSON_ROWS):]


def _json_rows(text: str, pieces: Iterator[str], width: int, path: str) -> Rows:
    """The rows that follow ``_JSON_ROWS``, ``width`` entries each: ``text``
    the text read after it, ``pieces`` the rest of the file. The rows that
    each piece completes are parsed as one block; a block that holds a line
    break, which no writer writes, or that is not parsed goes to ``_row_fault``.
    """
    columns, memos = [array("d") for _ in range(width)], [{} for _ in range(width)]
    if not text.startswith("["):  # no row: the rows array closes at once
        # three pieces more hold a character past a whole _JSON_END, if there is one
        if text + "".join(islice(pieces, len(_JSON_END))) != _JSON_END:
            raise DomainError(f"{path}: expected row 0 to open with '[', or the file to end "
                              f"in {_JSON_END!r} with no row")
        return Rows(columns)
    rest, end = "", "]" + _JSON_END
    for piece in chain([text[1:]], pieces, [None]):
        if piece is None:  # the end of the file: the last block
            if not rest.endswith(end):
                raise DomainError(f"{path}: expected the last row to close with {end!r} and "
                                  "the end of the file")
            block = rest[:-len(end)]
        else:
            rest += piece
            cut = rest.rfind("], [")
            if cut < 0:
                continue
            block, rest = rest[:cut], rest[cut + 4:]
        if "\n" in block or not _parse_block(block, "], [", columns, memos, "null"):
            _row_fault(block.split("], ["), columns, "null", path, "metadata.columns")
    return Rows(columns)


def read_dataset_json(path: str) -> Dataset:
    """Read back a JSON dataset: ``_JSON_HEAD``, the metadata object,
    ``_JSON_ROWS``, the rows, each opened by ``[``, joined by ``], [`` and
    closed by ``]``, and ``_JSON_END``."""
    with _text_file(path) as handle:
        pieces = iter(partial(handle.read, _READ_CHARS), "")
        metadata, text = _json_metadata(pieces, path)
        columns = metadata.get("columns") if isinstance(metadata, dict) else None
        if not (isinstance(columns, list) and columns
                and all(isinstance(name, str) for name in columns)):
            raise DomainError(f"{path}: metadata.columns is not a non-empty list of strings")
        rows = _json_rows(text, pieces, len(columns), path)
    return Dataset(columns=tuple(columns), rows=rows, metadata=metadata)
