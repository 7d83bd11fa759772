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
a write that fails part way leaves an older file intact. A coded column,
2-byte codes into at most ``_MEMO_SIZE`` distinct doubles, such as a sweep
axis, has its values spelled once per write, and each block looks the
spellings up by code; any other column is spelled entry by entry. Both
readers first count a regular file's row marks (line breaks in CSV, ``[``
in JSON) in its bytes, ``_COUNT_BYTES`` at a time, and allocate each
column once, as codes of that length, or of the rows the file's bytes can
hold at two an entry if fewer, so no file claims more than four times its
size before it is parsed; a file that is not regular, such as a pipe,
starts its columns empty. They then read the text once, a piece of
``_READ_CHARS`` characters at a time, and parse the rows that the text read
so far holds whole as one block, carrying the row begun last into the next
piece; each block is split into its entries at once by ``_parse_block``,
and each column put in place after the rows before it by ``_put``, growing
a column only where the count fell short. A column's memo maps each
spelling to its code, so a spelling is parsed once; a column whose memo
would pass ``_MEMO_SIZE`` spellings becomes an array of doubles of the same
length, once, and from then on each block of it is mapped to doubles in C.
The columns are then trimmed to the rows parsed. So the count sets only
where the columns start, a file that changes after the count reads as it
is then, and the columns, never grown or moved, leave no holes in the
heap: memory stays flat over repeated round trips in one process. Only a
block that is not parsed is cut into rows, to name the first row at fault.
So a sweep's axes come back coded, as ``run_sweep`` holds them, and a
dense sweep of four columns holds about 14 bytes a point, where columns of
doubles held 32.
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
# FORMATS is also read from here
from .sweeps import _MEMO_SIZE, FORMATS, Coded, Dataset, Rows


# strict JSON has no NaN or infinity: a non-finite entry is written as null
_JSON_NONFINITE = {"nan": "null", "inf": "null", "-inf": "null"}
# a JSON file: the metadata object between the first two, the rows, each
# opened by "[", joined by "], [" and closed by "]", and the last
_JSON_HEAD, _JSON_ROWS, _JSON_END = '{"metadata": ', ', "rows": [', "]}\n"

# rows are spelled and written a block at a time, so only one block's
# strings are held
_BLOCK_ROWS = 4096


def _spell(values, nonfinite: dict[str, str]) -> list[str]:
    """``repr(x)`` of each double in ``values``, mapped in C, with
    ``nonfinite`` swapped in where the values' sum is not finite, as it is
    wherever one of them is not."""
    texts = list(map(repr, values))
    if nonfinite and not math.isfinite(sum(values)):
        return list(map(nonfinite.get, texts, texts))
    return texts


def _row_blocks(dataset: Dataset, sep: str, nonfinite: dict[str, str]) -> Iterator[list[str]]:
    """Each block of ``_BLOCK_ROWS`` rows as row texts: entries spelled
    ``repr(x)``, a spelling that ``nonfinite`` names replaced by its value,
    and joined by ``sep``. A coded column's values are spelled once, and
    each block looks its spellings up by code."""
    rows = dataset.rows
    columns = [rows.stored(index) for index in range(rows.width)]
    spelled = [_spell(column.values, nonfinite) if type(column) is Coded else None
               for column in columns]
    for begin in range(0, len(rows), _BLOCK_ROWS):
        yield _spell_block(columns, spelled, slice(begin, begin + _BLOCK_ROWS), sep,
                           nonfinite)


def _spell_block(columns: list, spelled: list, block: slice, sep: str,
                 nonfinite: dict[str, str]) -> list[str]:
    """The row texts of the rows ``block`` of ``columns``; see ``_row_blocks``."""
    texts = [_spell(column[block], nonfinite) if texts is None
             else list(map(texts.__getitem__, column.codes[block]))
             for column, texts in zip(columns, spelled)]
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
# a regular file's row marks are counted this many bytes at a time
_COUNT_BYTES = 1 << 16


def _row_hint(handle, mark: bytes, before: int, width: int) -> int:
    """The rows the file open in ``handle`` holds, if it is a regular file:
    its ``mark`` bytes less the ``before`` ones ahead of the rows, counted
    by ``os.pread`` without moving the handle, and no more than its bytes
    hold at two bytes an entry of ``width``, so columns allocated at the
    hint take at most four times the file's size; 0 for any other file,
    such as a pipe."""
    descriptor = handle.fileno()
    if not stat.S_ISREG(os.fstat(descriptor).st_mode):
        return 0
    count, offset = -before, 0
    while piece := os.pread(descriptor, _COUNT_BYTES, offset):
        count += piece.count(mark)
        offset += len(piece)
    return min(count, offset // (2 * width))


def _columns(width: int, hint: int) -> list[Coded]:
    """``width`` coded columns, each of ``hint`` codes (none where ``hint``
    is below 1) into no values yet; ``_put`` fills them in place."""
    return [Coded(array("H", [0]) * hint, []) for _ in range(width)]


def _trimmed(columns: list, filled: int) -> Rows:
    """The rows of the first ``filled`` entries of ``columns``."""
    for index, column in enumerate(columns):
        if type(column) is Coded:
            del column.codes[filled:]
            columns[index] = Coded(column.codes, tuple(column.values))
        else:
            del column[filled:]
    return Rows(columns)


def _floats(texts, null: str | None) -> list[float]:
    """``float`` of each text, mapped in C; the spelling ``null`` reads as
    NaN. A text that is neither is a ``ValueError``."""
    try:
        return list(map(float, texts))
    except ValueError:
        if null is None:
            raise
        return [math.nan if text.strip() == null else float(text) for text in texts]


def _put(keys: list[str], columns: list, memos: list, index: int, filled: int,
         convert) -> None:
    """Put the entries spelled ``keys`` in ``columns[index]`` after its first
    ``filled`` ones, growing it if it is too short. While the column is
    coded, its memo ``memos[index]`` maps each spelling to its code, and
    ``convert`` parses a spelling once, when it is new; spellings that would
    take the memo past ``_MEMO_SIZE`` drop it (``memos[index] = None``), and
    the column becomes an array of doubles of its length, once, which takes
    ``convert`` of each block's keys from then on. The codes are let go
    before the doubles are allocated, so only the entries already put are
    held twice."""
    column, memo = columns[index], memos[index]
    stop = filled + len(keys)
    if memo is not None:
        try:
            column.codes[filled:stop] = array("H", map(memo.__getitem__, keys))
            return
        except KeyError:
            pass
        new = [key for key in dict.fromkeys(keys) if key not in memo]
        if len(memo) + len(new) <= _MEMO_SIZE:
            column.values.extend(convert(new))
            memo.update(zip(new, range(len(memo), len(memo) + len(new))))
            column.codes[filled:stop] = array("H", map(memo.__getitem__, keys))
            return
        memos[index] = None
        head, length = array("d", column[:filled]), len(column)
        columns[index] = column = None  # the codes go before the doubles come
        columns[index] = column = array("d", [0.0]) * length
        column[:filled] = head
    column[filled:stop] = array("d", convert(keys))


def _parse_block(text: str, row_break: str, columns: list, filled: int,
                 memos: list, null: str | None) -> int:
    """Put the rows that ``text`` holds, joined by ``row_break``, in
    ``columns`` after their first ``filled`` entries, growing a column that
    is too short, and return how many they are; 0 if a row has another width
    than ``columns`` or holds an entry that is not a number, and then the
    columns may hold some of the rows. ``text`` holds no line break but
    those in ``row_break``.

    The entries are split at once: each row begins with a line break, which
    ``float`` ignores, so the rows all have one entry per column when the
    first column holds every line break. Each column is put by ``_put``
    through its memo in ``memos``.
    """
    width, marked = len(columns), "\n" + text.replace(row_break, ",\n")
    count, entries = marked.count("\n"), marked.split(",")
    if len(entries) != width * count or "".join(entries[::width]).count("\n") != count:
        return 0
    parse = partial(_floats, null=null)
    try:
        for index in range(width):
            _put(entries[index::width], columns, memos, index, filled, parse)
    except ValueError:
        return 0
    return count


def _row_fault(texts: list[str], filled: int, width: int, null: str | None, path: str,
               source: str) -> NoReturn:
    """Refuse the rows that ``texts`` spell, comma-separated entries each,
    with a ``DomainError`` naming the first row at fault, numbered on from
    the ``filled`` rows parsed before them: a line break in a row, an entry
    that is not a number, or a row without ``width`` entries, as ``source``
    (the header or ``metadata.columns``) shows."""
    for index, text in enumerate(texts, filled):
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


def _csv_rows(handle, width: int, path: str, hint: int) -> Rows:
    """The rows of the text left in ``handle``, ``width`` entries each, one
    per line, in columns allocated at ``hint`` rows: the lines that each
    piece completes are parsed as one block."""
    columns, memos = _columns(width, hint), [{} for _ in range(width)]
    filled, rest = 0, ""
    for piece in iter(partial(handle.read, _READ_CHARS), ""):
        cut = piece.rfind("\n")
        if cut < 0:
            rest += piece
            continue
        block, rest = rest + piece[:cut], piece[cut + 1:]
        count = _parse_block(block, "\n", columns, filled, memos, None)
        if not count:
            _row_fault(block.split("\n"), filled, width, None, path, "the header")
        filled += count
    if rest:
        raise DomainError(f"{path}: row {filled} has no line break at its end")
    return _trimmed(columns, filled)


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
        # each line read so far, the header's included, ends in a line break
        hint = _row_hint(handle, b"\n", number, len(columns))
        rows = _csv_rows(handle, len(columns), path, hint)
    return Dataset(columns=columns, rows=rows, metadata=metadata)


_JSON_DECODER = json.JSONDecoder()


def _json_metadata(pieces: Iterator[str], path: str) -> tuple[object, str, int]:
    """The value that follows ``_JSON_HEAD``, decoded by ``json``, the text
    read, and where the rows begin in it: after the ``_JSON_ROWS`` that
    follows the value, with one character at least after it.

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


def _metadata_before(text: str, mark: int, last: bool,
                     path: str) -> tuple[object, str, int] | None:
    """The value that ``raw_decode`` finds between ``_JSON_HEAD`` and a mark
    at ``mark``, ``text`` and where the mark ends in it; ``None`` if the
    value runs on past it, unless the mark is the ``last`` one."""
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
    return value, text, mark + len(_JSON_ROWS)


def _json_rows(text: str, pieces: Iterator[str], width: int, path: str, hint: int) -> Rows:
    """The rows that follow ``_JSON_ROWS``, ``width`` entries each, in
    columns allocated at ``hint`` rows: ``text`` the text read after it,
    ``pieces`` the rest of the file. The rows that each piece completes are
    parsed as one block; a block that holds a line break, which no writer
    writes, or that is not parsed goes to ``_row_fault``.
    """
    columns, memos = _columns(width, hint), [{} for _ in range(width)]
    if not text.startswith("["):  # no row: the rows array closes at once
        # three pieces more hold a character past a whole _JSON_END, if there is one
        if text + "".join(islice(pieces, len(_JSON_END))) != _JSON_END:
            raise DomainError(f"{path}: expected row 0 to open with '[', or the file to end "
                              f"in {_JSON_END!r} with no row")
        return _trimmed(columns, 0)
    filled, rest, end = 0, "", "]" + _JSON_END
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
        count = 0 if "\n" in block else _parse_block(block, "], [", columns, filled, memos,
                                                      "null")
        if not count:
            _row_fault(block.split("], ["), filled, width, "null", path, "metadata.columns")
        filled += count
    return _trimmed(columns, filled)


def read_dataset_json(path: str) -> Dataset:
    """Read back a JSON dataset: ``_JSON_HEAD``, the metadata object,
    ``_JSON_ROWS``, the rows, each opened by ``[``, joined by ``], [`` and
    closed by ``]``, and ``_JSON_END``."""
    with _text_file(path) as handle:
        pieces = iter(partial(handle.read, _READ_CHARS), "")
        metadata, text, start = _json_metadata(pieces, path)
        columns = metadata.get("columns") if isinstance(metadata, dict) else None
        if not (isinstance(columns, list) and columns
                and all(isinstance(name, str) for name in columns)):
            raise DomainError(f"{path}: metadata.columns is not a non-empty list of strings")
        # "[" opens each row, and the text before the rows may hold some too
        hint = _row_hint(handle, b"[", text.count("[", 0, start), len(columns))
        rows = _json_rows(text[start:], pieces, len(columns), path, hint)
    return Dataset(columns=tuple(columns), rows=rows, metadata=metadata)
