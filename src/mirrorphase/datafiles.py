"""Dataset serialization: CSV with metadata comments, or a single JSON object.

Every entry is written as ``repr(float(x))``, the shortest round-trip
decimal form of a double, in both formats (JSON spells a non-finite entry
``null``), so re-parsing a file reproduces the original binary doubles
exactly and repeated runs of the same sweep produce byte-identical files.
Both writers spell the metadata through ``json``, CSV as one
``# key = <JSON>`` comment per key, so both readers read back the metadata
written, and a CSV read back writes the same bytes again.

Both readers refuse a row without one entry per column, an entry that
``float()`` refuses (a JSON ``null`` reads as NaN), text that is not UTF-8,
a JSON value nested past the recursion limit and a JSON
``metadata.columns`` that is not a non-empty list of strings, with a
one-line ``DomainError`` naming the file. So the JSON reader also reads
spellings outside JSON's number grammar, such as ``1_000``, ``.5``,
``+1``, ``inf`` and ``nan``; no writer writes them.

No write or read holds a file's whole text. The writers spell and write a
block of rows at a time from slices of the dataset's columns, to a new
file beside a regular ``path`` that replaces it once the write is done, so
a write that fails part way leaves an older file intact. Each reader makes
the columns it returns, one array of doubles per name, and fills them a
block of rows at a time, each column mapped to doubles in C. Both readers
read the file once, a piece of ``_READ_CHARS`` characters at a time, and
parse the rows that the text read so far holds whole, carrying the row
begun last into the next piece: the CSV reader cuts each piece at its
last line break. Writers and readers alike pass each column through a
memo while it holds at most ``_MEMO_SIZE`` distinct values, so a column
that repeats its values, such as a sweep axis, spells each value once and
parses each spelling once. A writer's memo is keyed by each double's 64-bit
pattern, so -0.0, 0.0 and each NaN have their own entry; a reader's by each
spelling. Once a memo holds a column's values, a block of that column
costs one lookup per entry, mapped in C; only a block with a value not yet
in the memo adds its new values, and a column whose next block would take
its memo past ``_MEMO_SIZE`` drops the memo and is spelled or parsed a
block at a time, without one, from then on. Each block of rows takes one
path: it is split into its entries at once, each row's first entry marked
by a line break, at the CSV line breaks or the writers' own JSON ``], [``.
A JSON block in another form is first put into the writers' form, its line
breaks turned into spaces and each ``]``, ``,`` and ``[`` with any JSON
whitespace between into ``], [``. Only a block that is still not parsed,
with a row of another width or an entry that is not a number, is cut into
rows, to name the first row at fault. The JSON reader decodes the
members other than ``rows`` through ``json``, refusing a malformed one
without reading on; the members may come in any order.
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
from itertools import chain, repeat
from typing import NoReturn

from .errors import DomainError
from .sweeps import FORMATS, Dataset, Rows  # FORMATS is also read from here


# strict JSON has no NaN or infinity: a non-finite entry is written as null
_JSON_NONFINITE = {"nan": "null", "inf": "null", "-inf": "null"}

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


# the metadata keys and the column names that the CSV reader reads back as written
_CSV_KEY = re.compile(r"[^=\n\r]+")
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
        if not (isinstance(key, str) and key == key.strip() and _CSV_KEY.fullmatch(key)
                and _utf8(key)):
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
    head = _json({"metadata": metadata})[:-1] + ', "rows": ['
    # "[" opens the first row and ", [" each block's first row after it
    return chain([head], map("{}[{}]".format, chain([""], repeat(", ")),
                             map("], [".join, blocks)), ["]}\n"])


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
    the rows in ``columns``: an entry that is not a number, or a row
    without one entry per column, as ``source`` (the header,
    ``metadata.columns`` or row 0) shows."""
    width = len(columns)
    for index, text in enumerate(texts, len(columns[0])):
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


def _data_line(line: str, metadata: dict) -> bool:
    """Whether a CSV line holds the header or a row. A ``# key = value``
    comment sets ``metadata[key]`` to the value decoded by ``json``, or to
    its text if that is not JSON; blank lines and other comments are skipped."""
    if line.startswith("#"):
        key, equals, value = line[1:].partition("=")
        key, value = key.strip(), value.strip()
        if equals and key:
            with suppress(ValueError, RecursionError):  # older files hold text such as 0.1.0
                value = json.loads(value)
            metadata[key] = value
        return False
    return bool(line)


def _csv_rows(handle, width: int, metadata: dict, path: str) -> Rows:
    """The rows of the text left in ``handle``, ``width`` entries each, read
    ``_READ_CHARS`` characters at a time: each piece is cut at its last line
    break, and the lines it completes are parsed as one block, the line
    begun last carried into the next piece."""
    columns, memos = [array("d") for _ in range(width)], [{} for _ in range(width)]
    rest = ""
    # a line break after the last piece ends a last line that has none
    for piece in chain(iter(partial(handle.read, _READ_CHARS), ""), ["\n"]):
        cut = piece.rfind("\n")
        if cut < 0:
            rest += piece
            continue
        block, rest = rest + piece[:cut], piece[cut + 1:]
        if "#" in block or "\n\n" in f"\n{block}\n":  # a comment or a blank line
            block = "\n".join(text for text in block.split("\n") if _data_line(text, metadata))
        if block and not _parse_block(block, "\n", columns, memos, None):
            _row_fault(block.split("\n"), columns, None, path, "the header")
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
    """Read back a CSV dataset: each ``# key = value`` comment is a metadata
    entry, its value decoded by ``json``, or kept as text where it is not
    JSON, as in files written before metadata was spelled in JSON."""
    metadata: dict = {}
    with _text_file(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if _data_line(line, metadata):
                columns = tuple(line.split(","))
                break
        else:
            raise DomainError(f"{path}: no header row found")
        rows = _csv_rows(handle, len(columns), metadata, path)
    return Dataset(columns=columns, rows=rows, metadata=metadata)


_JSON_SPACE = re.compile(r"[ \t\n\r]*")
# what may still continue a number that ends where the text read so far ends
_JSON_NUMBER_TAIL = re.compile(r"[0-9.eE+-]*\Z")
# the literals that the text read so far may end inside
_JSON_WORDS = ("true", "false", "null", "NaN", "Infinity", "-Infinity")
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

        While the value fails only because the text read so far ends inside
        it, or decodes to a number that may run on past that end, the text
        read is doubled; any other failure is refused at once.
        """
        self.skip_space()
        while True:
            try:
                value, end = _JSON_DECODER.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError as exc:
                if self.cut_off(exc) and self.more(len(self.buf)):
                    continue
                raise self.fail(f"{exc.msg} at character {self.offset + exc.pos}") from None
            except RecursionError:
                raise self.fail("a value nested past the recursion limit at character "
                                f"{self.offset + self.pos}") from None
            if not _JSON_NUMBER_TAIL.match(self.buf, end) or not self.more(len(self.buf)):
                self.pos = end
                return value

    def cut_off(self, exc: json.JSONDecodeError) -> bool:
        """Whether more text may mend ``exc``: whether the text read so far
        ends inside a string, or inside the number, literal or ``\\u``
        escape where decoding stopped."""
        if exc.msg.startswith("Unterminated string"):
            return True
        rest = self.buf[exc.pos:exc.pos + 10]  # "-Infinity" and one character more
        if exc.msg.startswith("Invalid \\uXXXX"):
            return len(rest) <= len("uXXXX")  # json refuses an escape that ends the text
        return (_JSON_NUMBER_TAIL.match(self.buf, exc.pos) is not None
                or any(word.startswith(rest) for word in _JSON_WORDS))


def _json_columns(metadata) -> tuple[str, ...] | None:
    """``metadata["columns"]`` as a tuple, if ``metadata`` is an object whose
    ``columns`` is a non-empty list of strings; otherwise ``None``."""
    columns = metadata.get("columns") if isinstance(metadata, dict) else None
    if isinstance(columns, list) and columns and all(isinstance(name, str) for name in columns):
        return tuple(columns)
    return None


def _json_object(text: _JsonText) -> dict:
    """The top-level object's members: ``rows`` read by ``_json_rows``,
    every other member decoded by ``json``."""
    members = {}
    text.expect("{")
    more = not text.at("}")
    while more:
        if not text.at('"'):
            raise text.fail(f"expected '\"' at character {text.offset + text.pos}")
        key = text.value()
        text.expect(":")
        if key == "rows":
            members[key] = _json_rows(text, _json_columns(members.get("metadata")))
        else:
            members[key] = text.value()
        more = text.at(",")
        if more:
            text.pos += 1
    text.expect("}")
    if text.skip_space():
        raise text.fail(f"unexpected text after character {text.offset + text.pos}")
    return members


def _json_rows(text: _JsonText, names: tuple[str, ...] | None) -> Rows | tuple:
    """The rows of the rows array next; ``()`` if it is empty.

    A row has one entry per name in ``names``, the metadata's columns if
    they came first, or else as many as row 0. The rows are parsed a block
    at a time, each block the rows that the text read so far holds whole,
    by ``_parse_block`` in the writers' form: rows joined by ``], [``, with
    no line break. A block in another form is put into the writers' form
    first, its line breaks turned into spaces and each ``_JSON_ROW_BREAK``
    into ``], [``. A block still not parsed goes to ``_row_fault``, cut at
    ``_JSON_ROW_BREAK`` as written, where a bracket left in an entry fails
    as an entry that is not a number. The row begun last is carried into
    the next block.
    """
    text.expect("[")
    if text.at("]"):
        text.pos += 1
        return ()
    columns = memos = None
    first = 0  # the rows parsed so far
    while True:
        buf, pos = text.buf, text.pos
        if not buf.startswith("[", pos):
            raise text.fail(f"the rows array is not an array of number arrays after row {first}")
        end = _JSON_ROWS_END.search(buf, pos)
        if end is None:
            cut = max(buf.rfind("[", pos + 1), pos)  # where the row begun last opens
            block = buf[pos:cut].rstrip(" \t\n\r")
            rows = block[:-1].rstrip(" \t\n\r")  # without the comma after the last row
            if block and not (block.endswith(",") and rows.endswith("]")):
                raise text.fail("the rows array is not an array of number arrays "
                                f"after row {first}")
            text.pos = cut
        else:
            rows, text.pos = buf[pos:end.start() + 1], end.end()
        if rows:
            body = rows[1:-1]
            if columns is None:
                width = len(names) if names else _JSON_ROW_BREAK.split(body, 1)[0].count(",") + 1
                columns, memos = [array("d") for _ in range(width)], [{} for _ in range(width)]
            # the writers' form first, unless a line break would pass for a row's
            # mark; a block in another form is put into the writers' form once
            count = ("\n" not in body and _parse_block(body, "], [", columns, memos, "null")
                     or _parse_block(_JSON_ROW_BREAK.sub("], [", body.replace("\n", " ")),
                                     "], [", columns, memos, "null"))
            if not count:
                _row_fault(_JSON_ROW_BREAK.split(body), columns, "null", text.path,
                           "metadata.columns" if names else "row 0")
            first += count
        if end is not None:
            return Rows(columns)
        if not text.more():
            raise text.fail("the rows array is not closed")


def read_dataset_json(path: str) -> Dataset:
    """Read back a JSON dataset in one pass, in pieces of ``_READ_CHARS``
    characters.

    The members other than ``rows`` are decoded through ``json``; the rows
    are parsed straight into the columns, a block at a time, so neither the
    file's text nor a list of lists is held. The members may come in any
    order: rows that come before ``metadata`` take their width from row 0.
    """
    with _text_file(path) as handle:
        members = _json_object(_JsonText(handle, path))
    metadata = members.get("metadata")
    columns = _json_columns(metadata)
    if "rows" not in members or columns is None:
        raise DomainError(f"{path}: expected an object with rows and metadata.columns, "
                          "a non-empty list of strings")
    rows = members["rows"]
    if len(rows) and rows.width != len(columns):
        raise DomainError(f"{path}: row 0 has {rows.width} entries; "
                          f"metadata.columns has {len(columns)}")
    return Dataset(columns=columns, rows=rows, metadata=metadata)
