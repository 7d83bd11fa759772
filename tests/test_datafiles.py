"""Dataset serialization: exact round trips, error rows, and the written bytes."""

import json
import math
import os
import re
import stat
import sys
import threading
import tracemalloc
from array import array
from collections import Counter
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mirrorphase import (Axis, Dataset, DomainError, SweepSpec, dataset_to_csv,
                         dataset_to_json, figure_preset, read_dataset_csv, read_dataset_json,
                         run_sweep, write_dataset)
from mirrorphase import datafiles, sweeps
from mirrorphase.datafiles import FORMATS
from mirrorphase.sweeps import FIGURE_RANGE, Coded, Rows, describe_spec

from oracles import reference_csv, reference_json

TWO_PI = 2.0 * math.pi

# read-piece sizes in characters, small enough to split every token
PIECES = range(1, 8)

READERS = {"csv": read_dataset_csv, "json": read_dataset_json}

AWKWARD = (0.1, 1.0 / 3.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           math.pi, 1e22, 123456789.12345679, 0.0)


def factor_spec(**overrides):
    settings = dict(
        target="decoherence_factor",
        axes=(Axis.from_values("velocity", (0.1, 0.5)),
              Axis.linear("time", 0.0, TWO_PI, 4)),
        fixed={"gamma0": 0.05, "lambda": 5.0, "omega": 0.03})
    settings.update(overrides)
    return SweepSpec(**settings)


def signed_zero_spec(times):
    """decoherence_factor over two velocities and a time axis of the given
    zeros, so the time column repeats its values and is coded."""
    return factor_spec(axes=(Axis.from_values("velocity", (0.1, 0.5)),
                             Axis.from_values("time", times)))


def error_spec():
    """decoherence_time over gamma0 = 0 (no decoherence) and 0.1, error rows kept."""
    return SweepSpec(target="decoherence_time",
                     axes=(Axis.from_values("gamma0", (0.0, 0.1)),
                           Axis.linear("velocity", 0.1, 0.9, 3)),
                     fixed={"lambda": 5.0, "omega": 0.03}, allow_errors=True)


def zeros_by_block_spec(times):
    """decoherence_factor over a time axis of the given zeros outside two
    velocities, so that in blocks of two rows each block holds one zero."""
    return factor_spec(axes=(Axis.from_values("time", times),
                             Axis.from_values("velocity", (0.1, 0.5))))


def repeated_error_spec():
    """decoherence_time over gamma0 {0, 0.1, 0, 0.1} x two velocities, error
    rows kept: the value column repeats its values, NaN rows among them."""
    return SweepSpec(target="decoherence_time",
                     axes=(Axis.from_values("gamma0", (0.0, 0.1, 0.0, 0.1)),
                           Axis.from_values("velocity", (0.1, 0.9))),
                     fixed={"lambda": 5.0, "omega": 0.03}, allow_errors=True)


def awkward_dataset():
    return Dataset(columns=("a", "b", "c"),
                   rows=tuple(zip(AWKWARD, AWKWARD[::-1], AWKWARD[3:] + AWKWARD[:3])),
                   metadata={"generator": "mirrorphase", "target": "test"})


def empty_dataset():
    """A sweep's columns and metadata, axes included, without a row."""
    dataset = run_sweep(factor_spec())
    return Dataset(columns=dataset.columns, rows=(), metadata=dataset.metadata)


def hand_file(tmp_path, fmt, columns, rows):
    """A dataset file written by hand: ``rows`` are lists of entry spellings."""
    path = tmp_path / f"hand.{fmt}"
    if fmt == "csv":
        lines = [",".join(columns)] + [",".join(row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
    else:
        path.write_text('{"metadata": %s, "rows": [%s]}\n' % (
            json.dumps({"columns": list(columns)}),
            ", ".join("[" + ", ".join(row) + "]" for row in rows)))
    return str(path)


def count_reads(monkeypatch):
    """The characters that each ``read`` of a file that a reader opens
    returns, as a list that fills while the reader runs."""
    pieces = []

    class Counted:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def read(self, size):
            piece = self.handle.read(size)
            pieces.append(len(piece))
            return piece

        def fileno(self):
            return self.handle.fileno()

    monkeypatch.setattr(datafiles, "open", lambda *args, **kwargs: Counted(open(*args, **kwargs)),
                        raising=False)
    return pieces


def spy_row_hint(monkeypatch, shift=0):
    """The row hints that each read takes, as a list that fills while the
    reader runs; each hint is given to the reader moved by ``shift``."""
    hints, row_hint = [], datafiles._row_hint

    def shifted(*args):
        hints.append(row_hint(*args))
        return hints[-1] + shift

    monkeypatch.setattr(datafiles, "_row_hint", shifted)
    return hints


@pytest.fixture
def one_value_memos(monkeypatch):
    """Memos of one value, and files read 16 characters at a time, a row or
    two each, so that a column whose first block repeats one value drops
    its memo mid-file."""
    monkeypatch.setattr(datafiles, "_MEMO_SIZE", 1)
    monkeypatch.setattr(datafiles, "_READ_CHARS", 16)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_sweep_rows_come_back_exactly(self, tmp_path, fmt):
        dataset = run_sweep(factor_spec())
        path = str(tmp_path / f"data.{fmt}")
        assert write_dataset(dataset, path, fmt) == len(dataset.rows)
        back = READERS[fmt](path)
        assert back.columns == dataset.columns
        assert back.rows == dataset.rows

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_awkward_doubles_come_back_exactly(self, tmp_path, fmt):
        dataset = awkward_dataset()
        path = str(tmp_path / f"data.{fmt}")
        write_dataset(dataset, path, fmt)
        back = READERS[fmt](path)
        assert back.rows == dataset.rows
        assert all(type(x) is float for row in back.rows for x in row)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_error_rows_keep_nan(self, tmp_path, fmt):
        dataset = run_sweep(error_spec())
        assert [math.isnan(row[-1]) for row in dataset.rows] == [True] * 3 + [False] * 3
        path = str(tmp_path / f"data.{fmt}")
        write_dataset(dataset, path, fmt)
        back = READERS[fmt](path)
        assert back.metadata["allow_errors"] is True
        assert back.rows == dataset.rows  # NaN equals NaN

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_empty_dataset_keeps_its_columns(self, tmp_path, fmt):
        """A dataset without rows holds one empty column per name, so it
        equals its read-back in both formats."""
        dataset = Dataset(columns=("a", "b"), rows=(), metadata={})
        assert dataset.rows.width == 2
        path = str(tmp_path / f"data.{fmt}")
        write_dataset(dataset, path, fmt)
        back = READERS[fmt](path)
        assert back.columns == dataset.columns and back.rows == dataset.rows

    def test_error_rows_spell_nan_as_null_in_json(self):
        payload = json.loads(dataset_to_json(run_sweep(error_spec())))
        assert [row[-1] for row in payload["rows"][:3]] == [None] * 3
        assert all(isinstance(row[-1], float) for row in payload["rows"][3:])

    def test_error_rows_spell_nan_as_nan_in_csv(self):
        text = dataset_to_csv(run_sweep(error_spec()))
        assert text.splitlines()[-6:-3] == ["0.0,0.1,nan", "0.0,0.5,nan", "0.0,0.9,nan"]


def read_refused(path, fmt, piece=None) -> str:
    """The one-line refusal of the file at ``path``, read ``piece``
    characters at a time, without the ``<path>: `` that starts it."""
    with mock.patch.object(datafiles, "_READ_CHARS", piece or datafiles._READ_CHARS), \
            pytest.raises(DomainError) as caught:
        READERS[fmt](str(path))
    message = str(caught.value)
    assert message.startswith(f"{path}: ") and "\n" not in message
    return message[len(f"{path}: "):]


JSON_ONE = '{"metadata": {"columns": ["a"]}, "rows": '
JSON_TWO = '{"metadata": {"columns": ["a", "b"]}, "rows": '
HEAD = "expected '{\"metadata\": ' at character 0"
COLUMNS = "metadata.columns is not a non-empty list of strings"
LAST_ROW = "expected the last row to close with ']]}\\n' and the end of the file"
NO_ROW = "expected row 0 to open with '[', or the file to end in ']}\\n' with no row"


class TestReaders:
    def test_json_integers_read_back_as_floats(self, tmp_path):
        path = tmp_path / "hand.json"
        path.write_text('{"metadata": {"columns": ["time", "value"]}, '
                        '"rows": [[0, 1], [2, 0.5], [3, null]]}\n')
        back = read_dataset_json(str(path))
        assert back.columns == ("time", "value")
        assert back.rows == ((0.0, 1.0), (2.0, 0.5), (3.0, math.nan))
        assert all(type(x) is float for row in back.rows for x in row)

    @pytest.mark.parametrize("rows, message", [
        ((("0.0", "1.0"), ("2.0",), ("3.0", "4.0", "5.0")), "row 1 has 1 entries"),
        ((("0.0", "1.0"), ("3.0", "4.0", "5.0")), "row 1 has 3 entries"),
        ((("0.0", "1.0"), ("2.0", "abc")), "row 1: 'abc' is not a number"),
        ((("0.0", ""),), "row 0: '' is not a number"),
    ], ids=["ragged", "long", "not_a_number", "empty_entry"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_rows_the_writer_refuses_are_refused(self, tmp_path, fmt, rows, message):
        path = hand_file(tmp_path, fmt, ("time", "value"), rows)
        with pytest.raises(DomainError, match=message) as caught:
            READERS[fmt](path)
        assert str(caught.value).startswith(f"{path}: ")
        assert "\n" not in str(caught.value)

    @pytest.mark.parametrize("entry", ['"1.0"', "true", "{}"])
    def test_json_entries_that_are_not_numbers(self, tmp_path, entry):
        path = hand_file(tmp_path, "json", ("time", "value"), [("0.0", "1.0"), ("2.0", entry)])
        with pytest.raises(DomainError, match=f"{path}: row 1"):
            read_dataset_json(path)

    @pytest.mark.parametrize("text, message", [
        (JSON_ONE + "[[0] [1]]}\n", "row 0: '0] [1' is not a number"),
        (JSON_ONE + "[[0],[1]]}\n", "row 0: '0]' is not a number"),
        (JSON_TWO + "[[0.0, 1.0], [2.0, 3.0],[4.0, 5.0]\n ,\n[6.0, x], [8.0, 9.0]]}\n",
         "row 1 holds a line break"),
        (JSON_ONE + "[[0],\n[1]]}\n", "row 0 holds a line break"),
        (JSON_TWO + "[[0.0, 1.0], [2.0, 3.0], [4.0, [5.0]], [6.0, 7.0]]}\n",
         "row 2: '[5.0]' is not a number"),
        (JSON_TWO + "[[0.0, 1.0], [2.0, [3.0], [4.0, 5.0]]}\n",
         "row 1: '[3.0' is not a number"),
        (JSON_TWO + "[[0.0, 1.0], [2.0], [4.0, 5.0]]}\n",
         "row 1 has 1 entries; metadata.columns has 2"),
        (JSON_TWO + "[[0.0, 1.0], [2.0, 3.0], [4.0, 5.0, 6.0]]}\n",
         "row 2 has 3 entries; metadata.columns has 2"),
        (JSON_TWO + "[[0.0, 1.0], []]}\n", "row 1: '' is not a number"),
        (JSON_ONE + "[[0], [1],]}\n", LAST_ROW),
        (JSON_ONE + "[[0], 1]}\n", LAST_ROW),
        (JSON_ONE + "[[0]]} []\n", LAST_ROW),
        (JSON_ONE + "[[0]]\n", LAST_ROW),
        (JSON_ONE + "[[0]]}", LAST_ROW),
        (JSON_ONE + "[]}\nx", NO_ROW),
        (JSON_ONE + "[]\n", NO_ROW),
        ('{"metadata": {"columns": ["a"]}}\n',
         "expected ', \"rows\": [' and a row at character 31"),
        ('{"metadata": {"columns": ["a"]} , "rows": [[0]]}\n',
         "expected ', \"rows\": [' and a row at character 31"),
        ('{"metadata": {"columns": ["a"]}, "note": 1, "rows": [[0]]}\n',
         "expected ', \"rows\": [' and a row at character 31"),
        ('{"metadata": {"columns": ["a"], "axes": [}, "rows": []}\n',
         "Expecting value at character 41"),
        ("[[0]]\n", HEAD),
        ('{"rows": [[0]], "metadata": {"columns": ["a"]}}\n', HEAD),
        ('{"metadata":{"columns": ["a"]}, "rows": [[0]]}\n', HEAD),
        ('{ "metadata": {"columns": ["a"]}, "rows": [[0]]}\n', HEAD),
        ("", HEAD),
        ('{"meta', HEAD),
        ('{"metadata": {"columns": 5}, "rows": [[0]]}\n', COLUMNS),
        ('{"metadata": {"columns": [1, 2]}, "rows": [[0, 1]]}\n', COLUMNS),
        ('{"metadata": {"columns": "ab"}, "rows": [[0, 1]]}\n', COLUMNS),
        ('{"metadata": {"columns": []}, "rows": []}\n', COLUMNS),
        ('{"metadata": [1], "rows": []}\n', COLUMNS),
        ('{"metadata": {"n": %s, "columns": ["a"]}, "rows": [[0]]}\n' % ("9" * 5000),
         "metadata: Exceeds the limit (4300 digits) for integer string conversion"),
    ], ids=["no_comma", "row_break_without_space", "mixed_breaks", "line_break_between_rows",
            "bracket_in_an_entry", "bracket_across_rows", "short_row", "long_row", "empty_row",
            "trailing_comma",
            "bare_entry", "trailing_text", "unclosed", "no_line_break", "text_after_no_rows",
            "no_rows_unclosed", "no_rows_member", "space_before_rows", "second_member",
            "bad_metadata", "not_an_object", "rows_first", "no_space_after_metadata",
            "space_before_metadata", "empty_file", "cut_short", "number_columns",
            "number_names", "text_columns", "no_columns", "metadata_list", "long_integer"])
    @pytest.mark.parametrize("shift", [0, 1_000])
    @pytest.mark.parametrize("piece", [*PIECES, datafiles._READ_CHARS])
    def test_json_off_the_writers_layout(self, tmp_path, monkeypatch, text, message,
                                         piece, shift):
        """Each file is refused in one line naming where it leaves the
        writers' layout, wherever the pieces end and however far the row
        hint is off."""
        spy_row_hint(monkeypatch, shift)
        path = tmp_path / "hand.json"
        path.write_text(text)
        assert read_refused(path, "json", piece).startswith(message)

    @pytest.mark.parametrize("text, message", [
        ('# a note\na,b\n0,1\n', "line 1 is not a '# key = <JSON>' line"),
        ('#  target = "t"\na,b\n0,1\n', "line 1 is not a '# key = <JSON>' line"),
        ('# target  = "t"\na,b\n0,1\n', "line 1 is not a '# key = <JSON>' line"),
        ('#target = "t"\na,b\n0,1\n', "line 1 is not a '# key = <JSON>' line"),
        ('# target = "t"\n# version = 0.1.0\na,b\n0,1\n', "line 2: the value is not JSON"),
        ('# n = %s\na\n0\n' % ("9" * 5000), "line 1: the value is not JSON (Exceeds the limit"),
        ('# x = %s%s\na\n0\n' % ("[" * 100_000, "]" * 100_000),
         "line 1: the value is not JSON (maximum recursion depth exceeded"),
        ('# target = "t"\n\na,b\n0,1\n', "line 2 is not a header"),
        ("a,,b\n0,1,2\n", "line 1 is not a header"),
        ('# target = "t"\na,b', "line 2 is not a header"),
        ('# target = "t"\n', "no header row found"),
        ("a,b\n0,1\n\n2,3\n", "row 1: '' is not a number"),
        ("a,b\n0,1\n# between = 1\n2,3\n", "row 1: '# between = 1' is not a number"),
        ("a,b\n0,1\n2,3\n\n", "row 2: '' is not a number"),
        ("a,b\n0,1\n2,3", "row 1 has no line break at its end"),
        ("a,b\n0,1\n2,x\n", "row 1: 'x' is not a number"),
        ("a,b\n0,1\n2,3\n4\n", "row 2 has 1 entries; the header has 2"),
    ], ids=["comment_without_value", "key_after_two_spaces", "key_before_two_spaces",
            "no_space_after_hash", "value_not_json", "long_integer", "nested_too_deep",
            "blank_before_header", "empty_name", "header_without_line_break", "no_header",
            "blank_among_rows", "comment_among_rows", "blank_at_the_end",
            "no_line_break_at_the_end", "not_a_number", "short_row"])
    @pytest.mark.parametrize("shift", [0, 1_000])
    @pytest.mark.parametrize("piece", [*PIECES, datafiles._READ_CHARS])
    def test_csv_off_the_writers_layout(self, tmp_path, monkeypatch, text, message,
                                        piece, shift):
        """Each file is refused in one line naming the line or row where it
        leaves the writers' layout, wherever the pieces end and however far
        the row hint is off."""
        spy_row_hint(monkeypatch, shift)
        path = tmp_path / "hand.csv"
        path.write_text(text)
        assert read_refused(path, "csv", piece).startswith(message)

    @pytest.mark.parametrize("piece", [*PIECES, datafiles._READ_CHARS])
    def test_json_nested_past_the_recursion_limit(self, tmp_path, piece):
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text('{"metadata": {"columns": ["a"], "x": ' + "[" * depth + "]" * depth
                        + '}, "rows": [[1.0]]}\n')
        assert read_refused(path, "json", piece) == ("a value nested past the recursion limit "
                                                     "at character 13")

    @pytest.mark.parametrize("rows, message", [
        ("[[0, 1], [2, 3]]", "row 0 has 2 entries; metadata.columns has 1"),
        ("[[0], [1, 2]]", "row 1 has 2 entries; metadata.columns has 1"),
    ], ids=["wider_row_0", "wider_row_1"])
    @pytest.mark.parametrize("shift", [0, 1_000])
    @pytest.mark.parametrize("piece", [*PIECES, datafiles._READ_CHARS])
    def test_json_width_errors_state_the_widths(self, tmp_path, monkeypatch, rows, message,
                                                piece, shift):
        """The row width comes from metadata.columns."""
        spy_row_hint(monkeypatch, shift)
        path = tmp_path / "hand.json"
        path.write_text(JSON_ONE + rows + "}\n")
        assert read_refused(path, "json", piece) == message

    def test_json_file_is_read_once(self, tmp_path, monkeypatch):
        path = tmp_path / "data.json"
        dataset = run_sweep(factor_spec())
        write_dataset(dataset, str(path), "json")
        pieces = count_reads(monkeypatch)
        monkeypatch.setattr(datafiles, "_READ_CHARS", 64)
        assert read_dataset_json(str(path)).rows == dataset.rows
        assert sum(pieces) == len(path.read_text())

    @pytest.mark.parametrize("member", ["tru", "1x", "01", "-x", '"\\x"', '"\\u12zz"',
                                        "[1 2]", "{1: 2}", "nul]"])
    def test_malformed_metadata_fails_at_once(self, tmp_path, monkeypatch, member):
        """Malformed metadata is refused, with the message that decoding the
        whole file gives, without reading the rest of it."""
        text = '{"metadata": {"note": %s, "columns": ["a"]}, "rows": [%s]}\n' % (
            member, ", ".join(["[0.5]"] * 20_000))
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(json.JSONDecodeError) as decoded:
            json.loads(text)
        pieces = count_reads(monkeypatch)
        assert read_refused(path, "json") == (f"{decoded.value.msg} at character "
                                              f"{decoded.value.pos}")
        assert len(text) > 4 * datafiles._READ_CHARS
        assert sum(pieces) <= 2 * datafiles._READ_CHARS

    @pytest.mark.parametrize("axes", [
        '[{"count": 2}]', "null", "5", '{"name": "a", "count": 2}',
        '[{"name": "a", "count": null}]', '[{"name": "a", "count": "2"}]',
        '[{"name": "a", "values": 2}]', '[1, "a", null]', '[{"name": ["a"], "count": 2}]',
    ], ids=["no_name", "null", "number", "object", "null_count", "text_count",
            "number_values", "not_objects", "list_name"])
    def test_json_axes_that_name_no_grid_read_as_plain_columns(self, tmp_path, axes):
        """The reader takes nothing from the axes but the metadata itself, so
        axes that name no grid leave the rows as written."""
        path = tmp_path / "hand.json"
        path.write_text('{"metadata": {"columns": ["a", "v"], "axes": %s}, '
                        '"rows": [[0.0, 1.0], [1, 2.0], [0.0, 3.0], [1.0, 4.0]]}\n' % axes)
        back = read_dataset_json(str(path))
        assert back.rows == ((0.0, 1.0), (1.0, 2.0), (0.0, 3.0), (1.0, 4.0))
        assert all(type(x) is float for row in back.rows for x in row)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("piece", PIECES)
    def test_csv_rows_split_across_pieces(self, tmp_path, piece, newline):
        """Metadata lines, rows, entries and line ends cut off where a piece
        ends read whole, with either line end."""
        lines = ['# target = "t"', '# note = {"a": [1.5, null], "b": "x, y"}', "time,value",
                 "0.125,-1.5e-07", "123456789.12345679,5e-324", "-0.0,1.7976931348623157e+308"]
        path = tmp_path / "hand.csv"
        path.write_bytes((newline.join(lines) + newline).encode())
        with mock.patch.object(datafiles, "_READ_CHARS", piece):
            back = read_dataset_csv(str(path))
        assert back.columns == ("time", "value")
        assert back.rows == ((0.125, -1.5e-07), (123456789.12345679, 5e-324),
                             (-0.0, 1.7976931348623157e+308))
        assert repr(back.rows[2][0]) == "-0.0"
        assert back.metadata == {"target": "t", "note": {"a": [1.5, None], "b": "x, y"}}

    @pytest.mark.parametrize("piece", PIECES)
    def test_json_metadata_holding_rows_split_across_pieces(self, tmp_path, piece):
        """Metadata that holds the rows mark itself, in a value and as a
        nested key, reads whole, wherever the pieces end."""
        metadata = {"note": ', "rows": [', "rows": [1, {"x": 2, "rows": [3]}],
                    "columns": ["a"]}
        path = tmp_path / "hand.json"
        path.write_text('{"metadata": %s, "rows": [[1.5], [-2]]}\n' % json.dumps(metadata))
        with mock.patch.object(datafiles, "_READ_CHARS", piece):
            back = read_dataset_json(str(path))
        assert back.rows == ((1.5,), (-2.0,))
        assert back.metadata == metadata

    @pytest.mark.parametrize("piece", PIECES)
    def test_json_strings_and_literals_split_across_pieces(self, tmp_path, piece):
        """Escapes, literals and numbers cut off where a piece ends read whole."""
        metadata = {"note": "é\U0001d11e\\ \"x\"", "flags": [True, False, None],
                    "limits": [-math.inf, math.inf, -1.5e-7], "columns": ["a"]}
        path = tmp_path / "hand.json"
        path.write_text('{"metadata": %s, "rows": [[1.5]]}\n' % json.dumps(metadata))
        with mock.patch.object(datafiles, "_READ_CHARS", piece):
            back = read_dataset_json(str(path))
        assert back.metadata == metadata and back.rows == ((1.5,),)

    @pytest.mark.parametrize("fmt, nan", [("csv", "nan"), ("json", "null"), ("json", "NaN")])
    def test_nan_in_memo_and_plain_columns(self, tmp_path, one_value_memos, fmt, nan):
        rows = [(nan, "0.0", "1.0"), ("1.0", "0.0", nan), (nan, "1.0", nan),
                ("1.0", "1.0", "2.0")]
        path = hand_file(tmp_path, fmt, ("a", "b", "v"), rows)
        back = READERS[fmt](path)
        assert back.rows == ((math.nan, 0.0, 1.0), (1.0, 0.0, math.nan),
                             (math.nan, 1.0, math.nan), (1.0, 1.0, 2.0))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_signed_zeros_in_a_memo_column(self, tmp_path, one_value_memos, fmt):
        rows = [("-0.0", "0.0", "1.0"), ("0.0", "0.0", "2.0"), ("-0.0", "-0.0", "3.0"),
                ("0.0", "-0.0", "4.0")]
        path = hand_file(tmp_path, fmt, ("a", "b", "v"), rows)
        back = READERS[fmt](path)
        assert [list(map(repr, row)) for row in back.rows] == [list(row) for row in rows]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_axis_columns_spell_and_parse_each_value_once(self, tmp_path, fmt):
        """A repeated axis coordinate is spelled once and parsed once, also
        across blocks."""
        dataset = run_sweep(factor_spec())
        axis_texts = {repr(x) for row in dataset.rows for x in row[:2]}  # velocity, time
        path = tmp_path / f"data.{fmt}"
        spelled, parsed = Counter(), Counter()
        spell, floats = datafiles._spell, datafiles._floats

        def counted_spell(patterns, nonfinite):
            texts = spell(patterns, nonfinite)
            spelled.update(texts)
            return texts

        def counted_floats(texts, null):
            parsed.update(text.strip() for text in texts)
            return floats(texts, null)

        with mock.patch.object(sweeps, "_BLOCK_ENTRIES", 2 * dataset.rows.width), \
                mock.patch.object(datafiles, "_spell", counted_spell):
            write_dataset(dataset, str(path), fmt)
        with mock.patch.object(datafiles, "_READ_CHARS", 40), \
                mock.patch.object(datafiles, "_floats", counted_floats):
            back = READERS[fmt](str(path))
        assert back.rows == dataset.rows
        assert len(axis_texts) == 6
        assert {text: spelled[text] for text in axis_texts} == dict.fromkeys(axis_texts, 1)
        assert {text: parsed[text] for text in axis_texts} == dict.fromkeys(axis_texts, 1)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("distinct", [256, 257, datafiles._MEMO_SIZE,
                                          datafiles._MEMO_SIZE + 1])
    def test_column_of_at_most_memo_size_values_reads_back_coded(self, tmp_path, fmt,
                                                                  distinct):
        """A column of at most ``_MEMO_SIZE`` distinct spellings, NaN and both
        zeros among them, comes back coded, in 1-byte codes up to 256 of them
        and 2-byte ones past that, and one of more comes back as doubles;
        either is written again in the same bytes. Read in whole pieces, the
        first block holds more than 600 rows, so a column passes 256
        spellings there; read in pieces of 200 characters, about 8 rows each,
        it passes them in a later block, after codes have been put."""
        values = [math.nan, -0.0, 0.0] + [index / 7 for index in range(1, distinct - 2)]
        rows = [(values[index % distinct], float(index)) for index in range(3 * distinct)]
        dataset = Dataset(columns=("a", "b"), rows=rows, metadata={"note": "hand"})
        path = tmp_path / f"data.{fmt}"
        write_dataset(dataset, str(path), fmt)

        def held_as_needed(column, count):
            if count > datafiles._MEMO_SIZE:
                return type(column) is array
            return (type(column) is Coded and len(column.values) == count
                    and column.codes.itemsize == (1 if count <= 256 else 2))

        for chars in (datafiles._READ_CHARS, 200):
            with mock.patch.object(datafiles, "_READ_CHARS", chars):
                back = READERS[fmt](str(path))
            first, second = back.rows.stored(0), back.rows.stored(1)
            assert held_as_needed(first, distinct) and held_as_needed(second, len(rows))
            assert same_bits(back, dataset, fmt)
        write_dataset(back, str(tmp_path / f"again.{fmt}"), fmt)
        assert (tmp_path / f"again.{fmt}").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_file_that_is_not_utf8(self, tmp_path, fmt):
        path = hand_file(tmp_path, fmt, ("time", "value"), [("0.0", "1.0")])
        with open(path, "ab") as handle:
            handle.write(b"\xff\n")
        assert read_refused(path, fmt).startswith("not UTF-8 text")


def test_csv_read_back_writes_the_same_bytes(tmp_path):
    """The metadata block is rebuilt from the comments, so a CSV read back
    and written again is the same file; figures 2-8 are checked with C8."""
    for number, make in enumerate((lambda: run_sweep(factor_spec()),
                                   lambda: run_sweep(error_spec()), empty_dataset)):
        path = tmp_path / f"data{number}.csv"
        write_dataset(make(), str(path), "csv")
        back = read_dataset_csv(str(path))
        assert dataset_to_csv(back) == path.read_text()
        assert back.metadata["allow_errors"] is (number == 1)


def nested_list(depth: int) -> list:
    """``[[...[]...]]``, ``depth`` lists deep."""
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


def read_back_metadata(dataset, fmt) -> dict:
    """The metadata that a reader gives back for ``dataset``: the dict
    written, plus ``columns`` in JSON."""
    if fmt == "csv":
        return dataset.metadata
    return {**dataset.metadata, "columns": list(dataset.columns)}


def assert_refused_before_writing(tmp_path, dataset, fmt, message):
    """Writing ``dataset`` raises a one-line DomainError matching
    ``message`` and leaves the file already at the path as it was."""
    path = tmp_path / f"data.{fmt}"
    path.write_text("old contents")
    with pytest.raises(DomainError, match=message) as caught:
        write_dataset(dataset, str(path), fmt)
    assert "\n" not in str(caught.value)
    assert path.read_text() == "old contents"


class TestMetadata:
    @pytest.mark.parametrize("number", FIGURE_RANGE)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_figure_metadata_reads_back(self, tmp_path, fmt, number):
        """The metadata block of each figure dataset, as ``run_sweep`` records it."""
        dataset = Dataset(columns=("x",), rows=((1.0,),),
                          metadata=describe_spec(figure_preset(number)))
        path = str(tmp_path / f"fig{number}.{fmt}")
        write_dataset(dataset, path, fmt)
        assert READERS[fmt](path).metadata == read_back_metadata(dataset, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_awkward_metadata_text_reads_back(self, tmp_path, fmt):
        metadata = {"target": "t\nb", "note #1, \u00e9": "a = b # c, d\r\n\u00e9\u2028",
                    "nested": {"x=y": [1, -0.0, 1e308, None, True, "\n# z = 1"]},
                    "empty": "", "space": " padded ", "number": 5}
        dataset = Dataset(columns=("a", "#b"), rows=((1.0, 2.0), (3.0, 4.0)), metadata=metadata)
        path = str(tmp_path / f"data.{fmt}")
        write_dataset(dataset, path, fmt)
        back = READERS[fmt](path)
        assert back.columns == dataset.columns and back.rows == dataset.rows
        assert back.metadata == read_back_metadata(dataset, fmt)
        if fmt == "csv":
            assert dataset_to_csv(back) == open(path, encoding="utf-8").read()

    def test_older_comment_lines_are_refused(self, tmp_path):
        """A CSV written before metadata was spelled in JSON is refused at
        its first comment that is not a ``# key = <JSON>`` line."""
        path = tmp_path / "old.csv"
        path.write_text("# mirrorphase dataset\n# version = 0.1.0\n# target = decoherence_factor\n"
                        "velocity,time,decoherence_factor\n0.1,0.0,1.0\n")
        assert read_refused(path, "csv") == "line 1 is not a '# key = <JSON>' line"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
        assert read_refused(path, "csv").startswith("line 1: the value is not JSON")

    @pytest.mark.parametrize("key", ["", " a", "a ", "a=b", "a\nb", "a\rb", "\t", 1, None,
                                     ("a",), "k\ud800", "\udfff"])
    def test_keys_the_csv_reader_would_misread(self, tmp_path, key):
        dataset = Dataset(columns=("a",), rows=((1.0,),), metadata={"target": "t", key: 1})
        assert_refused_before_writing(tmp_path, dataset, "csv",
                                      f"^metadata key {re.escape(repr(key))} cannot be written")

    @pytest.mark.parametrize("columns", [("",), ("#x",), ("a,b",), ("a\nb",), ("a\rb",),
                                         ("a", ""), ("a", "b,c"), ("a\ud800",),
                                         ("a", "\udc80b")])
    def test_column_names_the_csv_reader_would_misread(self, tmp_path, columns):
        """CSV refuses them before the file is opened; JSON takes any text."""
        dataset = Dataset(columns=columns, rows=((1.0,) * len(columns),) * 2, metadata={})
        assert_refused_before_writing(tmp_path, dataset, "csv",
                                      "^column names .* cannot be written")
        path = str(tmp_path / "data.json")
        write_dataset(dataset, path, "json")
        back = read_dataset_json(path)
        assert back.columns == columns and back.rows == dataset.rows

    @pytest.mark.parametrize("value", [math.nan, -math.inf, [1.0, math.inf], {1, 2}, object(),
                                       {"a": (1, {2})}, nested_list(100_000)])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_metadata_json_cannot_spell(self, tmp_path, fmt, value):
        dataset = Dataset(columns=("a",), rows=((1.0,),), metadata={"x": value})
        assert_refused_before_writing(tmp_path, dataset, fmt,
                                      "^metadata cannot be written as JSON: ")


def test_unknown_format_rejected_before_writing(tmp_path):
    path = tmp_path / "data.xml"
    with pytest.raises(DomainError, match="unknown output format 'xml'"):
        write_dataset(run_sweep(factor_spec()), str(path), "xml")
    assert not path.exists()


class TestWrittenBytes:
    @pytest.mark.parametrize("make", [
        lambda: run_sweep(factor_spec()),
        lambda: run_sweep(error_spec()),
        awkward_dataset,
        lambda: Dataset(columns=("n", "x"), rows=((0, 1.5), (2, -0.0)),
                        metadata={"target": "integers"}),
        lambda: run_sweep(signed_zero_spec((-0.0, 0.0, -0.0))),
        empty_dataset,
    ], ids=["sweep", "error_rows", "awkward", "integer_entries", "signed_zero_axis",
            "no_rows"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_match_the_per_value_formula(self, tmp_path, make, fmt):
        dataset = make()
        path = tmp_path / f"data.{fmt}"
        write_dataset(dataset, str(path), fmt)
        reference = reference_csv if fmt == "csv" else reference_json
        assert path.read_bytes() == reference(dataset).encode()

    def test_small_dataset_bytes(self, tmp_path):
        dataset = run_sweep(factor_spec(axes=(Axis.linear("time", 0.0, 1.0, 2),),
                                        fixed={"gamma0": 1.0, "lambda": 0.0,
                                               "omega": 0.03, "velocity": 0.0}))
        assert dataset_to_csv(dataset).splitlines()[-3:] == [
            "time,decoherence_factor", "0.0,1.0", "1.0,0.6065306597126334"]
        assert dataset_to_json(dataset).endswith(
            '"rows": [[0.0, 1.0], [1.0, 0.6065306597126334]]}\n')

    def test_integer_inputs_are_written_as_doubles(self):
        """An API-built sweep with integer endpoints and fixed values spells
        them 0.0 and 1.0 in both formats, as a config-built one does."""
        dataset = run_sweep(factor_spec(axes=(Axis.linear("time", 0, 10, 3),),
                                        fixed={"gamma0": 1, "lambda": 5, "omega": 0.03,
                                               "velocity": 0}))
        csv_text = dataset_to_csv(dataset)
        assert '"min": 0.0, "max": 10.0' in csv_text
        assert '"gamma0": 1.0' in csv_text
        assert "\n0.0,1.0\n" in csv_text
        json_text = dataset_to_json(dataset)
        assert '"min": 0.0, "max": 10.0' in json_text
        assert '"gamma0": 1.0' in json_text
        assert '"rows": [[0.0, 1.0]' in json_text

    @pytest.mark.parametrize("make", [lambda: run_sweep(factor_spec()),
                                      lambda: run_sweep(signed_zero_spec((-0.0, 0.0, -0.0))),
                                      awkward_dataset],
                             ids=["sweep", "signed_zero_axis", "awkward"])
    def test_rows_spelled_in_blocks(self, monkeypatch, make):
        """A coded axis column's spellings carry from one block to the next."""
        dataset = make()
        monkeypatch.setattr(sweeps, "_BLOCK_ENTRIES", 2 * dataset.rows.width)
        assert dataset_to_csv(dataset) == reference_csv(dataset)
        assert dataset_to_json(dataset) == reference_json(dataset)

    @pytest.mark.parametrize("make", [lambda: run_sweep(zeros_by_block_spec((0.0, -0.0))),
                                      lambda: run_sweep(zeros_by_block_spec((-0.0, 0.0))),
                                      lambda: run_sweep(repeated_error_spec())],
                             ids=["zero_then_negative_zero", "negative_zero_then_zero",
                                  "repeated_values_and_nan"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_memos_across_blocks_of_two_rows(self, tmp_path, monkeypatch, make, fmt):
        """At the default memo size each repeating column stays coded, with a
        code per spelling in a reader: a zero or NaN that an earlier block
        spelled or parsed leaves a later block's other zero, or its repeats,
        as spelled."""
        dataset = make()
        monkeypatch.setattr(sweeps, "_BLOCK_ENTRIES", 2 * dataset.rows.width)
        monkeypatch.setattr(datafiles, "_READ_CHARS", 40)
        spelled = [tuple(map(repr, row)) for row in dataset.rows]
        assert len(set(spelled)) < len(spelled) or {"0.0", "-0.0"} <= set(chain(*spelled))
        path = tmp_path / f"data.{fmt}"
        write_dataset(dataset, str(path), fmt)
        reference = reference_csv if fmt == "csv" else reference_json
        assert path.read_bytes() == reference(dataset).encode()
        assert [tuple(map(repr, row)) for row in READERS[fmt](str(path)).rows] == spelled

    @pytest.mark.parametrize("width, rows", [(1, 4096), (3, 1365), (7, 585), (5000, 1)])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_a_block_holds_the_entry_budget(self, tmp_path, monkeypatch, fmt, width, rows):
        """Each block is ``rows`` rows, as many as 4,096 entries hold, or
        one row of a dataset wider than that; the last holds what is left."""
        count = 2 * rows + 1
        dataset = Dataset(columns=tuple(f"c{index}" for index in range(width)),
                          rows=Rows([array("d", range(count))] * width), metadata={})
        spell_block, blocks = datafiles._spell_block, []

        def counted_block(*args):
            texts = spell_block(*args)
            blocks.append(len(texts))
            return texts

        monkeypatch.setattr(datafiles, "_spell_block", counted_block)
        write_dataset(dataset, str(tmp_path / f"data.{fmt}"), fmt)
        assert blocks == [rows, rows, 1]

    @pytest.mark.parametrize("rows", [((0.0, 1.0, 2.0), (1.0, 2.0)),
                                      ((0.0, 1.0, 2.0, 3.0),),
                                      ((0.0, 1.0, 2.0), ())],
                             ids=["short", "long", "empty_row"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_row_width_must_match_the_columns(self, tmp_path, rows, fmt):
        path = tmp_path / f"data.{fmt}"
        with pytest.raises(DomainError, match=f"row {len(rows) - 1} has "
                                              f"{len(rows[-1])} entries"):
            write_dataset(Dataset(columns=("a", "b", "c"), rows=rows, metadata={}),
                          str(path), fmt)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_entry_that_is_not_a_number_leaves_an_old_file(self, tmp_path, fmt):
        """The entry is refused when the dataset is built, before the file is opened."""
        path = tmp_path / f"data.{fmt}"
        path.write_text("old contents")
        with pytest.raises(DomainError, match=r"^row 1, column 'a': 'x' is not a number$"):
            write_dataset(Dataset(columns=("a",), rows=((1.0,), ("x",)), metadata={}),
                          str(path), fmt)
        assert path.read_text() == "old contents"


@pytest.mark.parametrize("older", ["older contents", None], ids=["older_file", "no_file"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_failed_write_leaves_an_older_file_intact(tmp_path, monkeypatch, fmt, older):
    """An error after the first block is written removes the new file beside
    ``path`` and leaves ``path`` as it was: the older file, or none."""
    path = tmp_path / f"data.{fmt}"
    if older is not None:
        path.write_text(older)
    before = sorted(tmp_path.iterdir())
    spell_block = datafiles._spell_block
    calls = []

    def failing_second_block(*args):
        calls.append(sorted(tmp_path.iterdir()))
        if len(calls) == 2:
            raise RuntimeError("spelling failed")
        return spell_block(*args)

    dataset = run_sweep(factor_spec())
    monkeypatch.setattr(sweeps, "_BLOCK_ENTRIES", 2 * dataset.rows.width)
    monkeypatch.setattr(datafiles, "_spell_block", failing_second_block)
    with pytest.raises(RuntimeError, match="spelling failed"):
        write_dataset(dataset, str(path), fmt)
    # the first block went to a new file beside the older one
    assert len(calls) == 2 and len(calls[1]) == len(before) + 1
    assert sorted(tmp_path.iterdir()) == before
    if older is not None:
        assert path.read_text() == older


def test_write_through_a_symlink_replaces_its_target(tmp_path, monkeypatch):
    """The link stays a link; its target is replaced, and keeps its mode,
    as ``open(path, "w")`` keeps it. A failed write leaves both as they were."""
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    dataset = run_sweep(factor_spec())

    def failing(*args):
        raise RuntimeError("spelling failed")

    with monkeypatch.context() as patch:
        patch.setattr(datafiles, "_spell_block", failing)
        with pytest.raises(RuntimeError, match="spelling failed"):
            write_dataset(dataset, str(link), "csv")
    assert link.is_symlink() and sorted(tmp_path.iterdir()) == [link]

    target.write_text("older contents")
    target.chmod(0o640)
    write_dataset(dataset, str(link), "csv")
    assert link.is_symlink() and sorted(tmp_path.iterdir()) == [link, target]
    assert target.read_text() == dataset_to_csv(dataset)
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_new_file_gets_the_mode_open_gives(tmp_path):
    umask = os.umask(0o027)
    try:
        write_dataset(run_sweep(factor_spec()), str(tmp_path / "new.csv"), "csv")
        with open(tmp_path / "plain.csv", "w"):
            pass
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o640
    assert (tmp_path / "new.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode


def test_new_name_ending_in_a_separator_is_refused(tmp_path):
    """``open`` refuses it; the file beside it must not be made instead."""
    with pytest.raises(IsADirectoryError):
        write_dataset(run_sweep(factor_spec()), f"{tmp_path}/new/", "csv")
    assert list(tmp_path.iterdir()) == []


def test_path_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    """A FIFO, as ``/dev/stdout`` may be, gets the rows and stays a FIFO."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    dataset = run_sweep(factor_spec())
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    write_dataset(dataset, str(fifo), "json")
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [dataset_to_json(dataset)]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def same_bits(back, dataset, fmt) -> bool:
    """Whether ``back``, read from ``fmt``, holds the columns, metadata and
    bits of ``dataset``."""
    return (back.columns == dataset.columns
            and back.metadata == read_back_metadata(dataset, fmt)
            and len(back.rows) == len(dataset.rows)
            and all(back.rows.column(index).tobytes() == dataset.rows.column(index).tobytes()
                    for index in range(len(dataset.columns))))


@pytest.mark.parametrize("fmt", FORMATS)
def test_dataset_from_a_fifo_reads_back_bit_for_bit(grid_files, tmp_path, monkeypatch, fmt):
    """A file that is not regular is not counted: its columns start empty
    and grow as its rows are parsed."""
    _, dataset = grid_files
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    failed = []

    def write():
        try:
            write_dataset(dataset, str(fifo), fmt)
        except Exception as exc:  # reported by the test below
            failed.append(exc)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    hints = spy_row_hint(monkeypatch)
    back = READERS[fmt](str(fifo))
    writer.join(timeout=30)
    assert not writer.is_alive() and failed == []
    assert hints == [0]
    assert same_bits(back, dataset, fmt)


@pytest.mark.parametrize("shift", [-10**9, -1_000, -1, 1, 1_000])
@pytest.mark.parametrize("fmt", FORMATS)
def test_rows_counted_wrongly_read_as_written(grid_files, monkeypatch, fmt, shift):
    """A file that changes between the count and the parse reads as it is
    when parsed: the count only sets where the columns start."""
    directory, dataset = grid_files
    hints = spy_row_hint(monkeypatch, shift)
    back = READERS[fmt](str(directory / f"grid.{fmt}"))
    assert len(hints) == 1
    assert same_bits(back, dataset, fmt)


# Entries a column may hold: both zeros, the non-finite values, the extreme
# doubles, integers and arbitrary doubles.
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     1.7976931348623157e308, -1.7976931348623157e308, 0.1]),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=True, allow_infinity=True))


# Metadata keys a CSV comment spells, and values JSON spells: text with
# any character, finite doubles, and lists and objects of them.
_METADATA_KEYS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                         max_size=8).filter(
    lambda key: key == key.strip() and not {"=", "\n", "\r"} & set(key))
_METADATA_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)


@st.composite
def hand_built_tables(draw):
    """The columns, rows and metadata of datasets of 1-4 columns, a random
    subset of them named as sweep axes with a random point count, one column
    holding both zeros whenever there are two rows or more, and up to three
    metadata keys more."""
    width = draw(st.integers(min_value=1, max_value=4))
    columns = tuple(f"c{i}" for i in range(width))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=width, max_size=width),
                         max_size=12))
    if len(rows) >= 2:
        zeros = draw(st.integers(min_value=0, max_value=width - 1))
        rows[0][zeros], rows[-1][zeros] = -0.0, 0.0
    axes = [{"name": name, "scale": "linear", "min": 0.0, "max": 1.0,
             "count": draw(st.integers(min_value=2, max_value=12))}
            for name in columns if draw(st.booleans())]
    metadata = {"target": "hand-built", "axes": axes,
                **draw(st.dictionaries(_METADATA_KEYS, _METADATA_VALUES, max_size=3))}
    return columns, tuple(map(tuple, rows)), metadata


def hand_built_datasets():
    return hand_built_tables().map(lambda table: Dataset(*table))


@given(table=hand_built_tables())
@settings(max_examples=150, deadline=None)
def test_dataset_rows_hold_the_rows_given(table):
    """The rows equal the rows given (NaN equal to NaN) and iterate, index
    and slice as ``tuple(map(float, row))`` does, the sign of zero included."""
    columns, rows, metadata = table
    held = Dataset(columns=columns, rows=rows, metadata=metadata).rows
    assert held == rows and not held != rows
    assert len(held) == len(rows)
    spelled = [tuple(map(repr, map(float, row))) for row in rows]
    assert [tuple(map(repr, row)) for row in held] == spelled
    assert all(type(row) is tuple and all(type(x) is float for x in row) for row in held)
    for index in range(-len(rows), len(rows)):
        assert tuple(map(repr, held[index])) == spelled[index]
    assert held[1::2] == rows[1::2] and held[::-1] == rows[::-1]


def check_round_trip(directory, dataset):
    """Written bytes equal the per-value formula, the metadata reads back
    as written, and every finite entry reads back exactly as a float, the
    sign of zero included."""
    for fmt, reference in (("csv", reference_csv), ("json", reference_json)):
        path = directory / f"data.{fmt}"
        write_dataset(dataset, str(path), fmt)
        assert path.read_bytes() == reference(dataset).encode()
        back = READERS[fmt](str(path))
        assert back.metadata == read_back_metadata(dataset, fmt)
        assert len(back.rows) == len(dataset.rows)
        for row, back_row in zip(dataset.rows, back.rows):
            assert len(back_row) == len(row)
            for entry, read in zip(row, back_row):
                entry = float(entry)
                assert type(read) is float
                if math.isfinite(entry) or fmt == "csv":
                    assert repr(read) == repr(entry)
                else:  # strict JSON wrote null
                    assert math.isnan(read)


@given(dataset=hand_built_datasets())
@settings(max_examples=150, deadline=None)
def test_writers_follow_the_per_value_formula(tmp_path_factory, dataset):
    check_round_trip(tmp_path_factory.mktemp("property"), dataset)


@given(dataset=hand_built_datasets(), piece=st.sampled_from(PIECES),
       memo_size=st.sampled_from([1, datafiles._MEMO_SIZE]))
@settings(max_examples=150, deadline=None)
def test_round_trip_across_blocks_of_two_rows(tmp_path_factory, dataset, piece, memo_size):
    """The same property with rows written two at a time, and both files
    read ``piece`` characters at a time, so the rows, the memos and every
    token cross piece boundaries; with memos of one value, a memo is
    dropped mid-file."""
    with mock.patch.object(sweeps, "_BLOCK_ENTRIES", 2 * dataset.rows.width), \
            mock.patch.object(datafiles, "_READ_CHARS", piece), \
            mock.patch.object(datafiles, "_MEMO_SIZE", memo_size):
        check_round_trip(tmp_path_factory.mktemp("blocks"), dataset)


def outcome(path, fmt, piece):
    """What reading ``path`` ``piece`` characters at a time gives: the
    columns, each row's ``repr`` spellings and the metadata, or the text of
    a one-line ``DomainError`` that starts with the path."""
    with mock.patch.object(datafiles, "_READ_CHARS", piece):
        try:
            back = READERS[fmt](str(path))
        except DomainError as exc:
            message = str(exc)
            assert message.startswith(f"{path}: ") and "\n" not in message
            return message
    return back.columns, [tuple(map(repr, row)) for row in back.rows], back.metadata


# whitespace that JSON allows between tokens; text files read "\r" as a line break
_SPACES = st.sampled_from([" ", "\t", "\n", "\r\n", "  "])


def splits(text, at):
    """Whether ``at`` lies between two characters of one number or word."""
    return re.fullmatch(r"[-+.\w]{2}", text[at - 1:at + 1]) is not None


@st.composite
def json_edits(draw, text, meta_end):
    """One edit of ``text``, a written JSON file whose metadata object ends
    at ``meta_end``, and whether the edited file keeps the writers' layout.

    Whitespace keeps it inside the metadata object, and beside an entry
    inside a row if it holds no line break, unless it splits a number or
    word; so does reordering the metadata's members. Whitespace anywhere
    else, the rows before the metadata, a ``]`` or ``,`` outside a string
    dropped or doubled, and a comment leave it.
    """
    head, rows_start = len(datafiles._JSON_HEAD), meta_end + len(datafiles._JSON_ROWS)
    tokens = list(re.finditer(r'"(?:[^"\\]|\\.)*"|.', text, re.S))  # a string is one token
    bounds = [0] + [token.end() for token in tokens]

    def in_row(at):  # between the brackets of a row
        return text.rfind("[", rows_start, at) > text.rfind("]", rows_start, at)

    kind = draw(st.sampled_from(["space", "unspace", "reorder", "rows_first", "bracket_comma",
                                 "comment"]))
    if kind == "space":
        at, space = draw(st.sampled_from(bounds)), draw(_SPACES)
        keeps = (head < at < meta_end or in_row(at) and space.isspace()
                 and not {"\n", "\r"} & set(space)) and not splits(text, at)
        return text[:at] + space + text[at:], keeps
    if kind == "unspace":
        at = draw(st.sampled_from([t.start() for t in tokens if t.group() in (" ", "\n")]))
        return text[:at] + text[at + 1:], head <= at < meta_end or in_row(at)
    if kind == "reorder":
        metadata = json.loads(text[head:meta_end])
        return (text[:head] + json.dumps(dict(reversed(metadata.items()))) + text[meta_end:],
                True)
    if kind == "rows_first":
        rows = text[meta_end + len(', "rows": '):-2]
        return '{"rows": ' + rows + ', "metadata": ' + text[head:meta_end] + "}\n", False
    if kind == "bracket_comma":
        at = draw(st.sampled_from([t.start() for t in tokens if t.group() in ("]", ",")]))
        return text[:at] + draw(st.sampled_from(["", text[at] * 2])) + text[at + 1:], False
    at = draw(st.sampled_from(bounds))
    return text[:at] + draw(st.sampled_from(["/* note */", "// note\n"])) + text[at:], False


@st.composite
def csv_edits(draw, text):
    """One edit of ``text``, a written CSV file, and whether the edited
    file keeps the writers' layout.

    A space or tab beside an entry, or at the end of a metadata line, keeps
    it, as do a line break spelled CR LF and two metadata lines swapped. A
    space or tab that splits an entry or ends the file, a blank line, a
    comment among the rows or before the header, the header swapped with a
    metadata line, and a ``,`` or ``]`` dropped or added among the rows
    leave it.
    """
    header = 0
    while text.startswith("#", header):
        header = text.index("\n", header) + 1
    rows = text.index("\n", header) + 1  # where the rows begin
    breaks = [at for at, char in enumerate(text) if char == "\n"]
    meta_starts = [0] + [at + 1 for at in breaks if at < header]
    kind = draw(st.sampled_from(["space", "crlf", "row_line", "meta_line", "reorder",
                                 "comma"]))
    if kind == "space":
        at = draw(st.sampled_from([*range(rows, len(text) + 1),
                                   *(at for at in breaks if at < header)]))
        keeps = at < len(text) and (at < header or not re.fullmatch(r"[^,\n]{2}",
                                                                       text[at - 1:at + 1]))
        return text[:at] + draw(st.sampled_from([" ", "\t"])) + text[at:], keeps
    if kind == "crlf":
        at = draw(st.sampled_from(breaks))
        return text[:at] + "\r" + text[at:], True
    if kind == "row_line":
        at = draw(st.sampled_from([rows] + [at + 1 for at in breaks if at >= rows]))
        line = draw(st.sampled_from(["\n", "# note\n", "# between = 1\n"]))
        return text[:at] + line + text[at:], False
    if kind == "meta_line":
        at = draw(st.sampled_from(meta_starts))
        line = draw(st.sampled_from(["\n", "# a note\n", "# note = not JSON\n"]))
        return text[:at] + line + text[at:], False
    if kind == "reorder":
        lines = text[:rows].split("\n")[:-1]  # the metadata lines and the header
        at = draw(st.integers(0, len(lines) - 2))
        lines[at:at + 2] = lines[at + 1], lines[at]
        return "\n".join(lines) + "\n" + text[rows:], at + 2 < len(lines)
    commas = [at for at in range(rows, len(text)) if text[at] == ","]
    if commas and draw(st.booleans()):
        at = draw(st.sampled_from(commas))
        return text[:at] + draw(st.sampled_from(["", ",,"])) + text[at + 1:], False
    at = draw(st.integers(rows, len(text)))
    return text[:at] + draw(st.sampled_from([",", "]"])) + text[at:], False


@pytest.mark.parametrize("make", [awkward_dataset, empty_dataset], ids=["rows", "no_rows"])
def test_json_space_in_or_beside_a_fixed_mark_is_refused(tmp_path, make):
    """A space anywhere in ``{"metadata": ``, between the metadata object
    and ``, "rows": [`` or in it, inside a row break, or after the last row
    leaves the writers' layout, and the file is refused."""
    dataset = make()
    path = tmp_path / "data.json"
    write_dataset(dataset, str(path), "json")
    text = path.read_text()
    meta_end = len(datafiles._JSON_HEAD) + len(json.dumps(read_back_metadata(dataset, "json")))
    breaks = [match.start() + offset for match in re.finditer(r"\], \[", text)
              for offset in (1, 2, 3)]
    spots = [*range(len(datafiles._JSON_HEAD) + 1),
             *range(meta_end, meta_end + len(datafiles._JSON_ROWS) + 1),
             *breaks, *range(len(text) - 3, len(text) + 1)]
    assert len(breaks) == 3 * max(len(dataset.rows) - 1, 0)
    for at in spots:
        path.write_text(text[:at] + " " + text[at:])
        read_refused(path, "json")


@given(dataset=hand_built_datasets(), fmt=st.sampled_from(FORMATS), data=st.data(),
       piece=st.sampled_from(PIECES), mark=st.booleans())
@settings(max_examples=200, deadline=None)
def test_edited_files_read_as_written_or_are_refused(tmp_path_factory, dataset, fmt, data,
                                                      piece, mark):
    """A written file with one edit reads back as the file written where
    the edit keeps the writers' layout, and is refused in one line naming
    the file where it does not, alike at every piece size. With ``mark``,
    the metadata holds the JSON reader's rows mark itself."""
    if mark:
        dataset = Dataset(columns=dataset.columns, rows=dataset.rows,
                          metadata={**dataset.metadata, "rows": [{"x": 1, "rows": [2]}]})
    path = tmp_path_factory.mktemp("edited") / f"data.{fmt}"
    write_dataset(dataset, str(path), fmt)
    text, written = path.read_bytes().decode(), outcome(path, fmt, datafiles._READ_CHARS)
    if fmt == "json":
        meta_end = len(datafiles._JSON_HEAD) + len(json.dumps(
            read_back_metadata(dataset, fmt)))
        edited, keeps = data.draw(json_edits(text, meta_end))
    else:
        edited, keeps = data.draw(csv_edits(text))
    path.write_bytes(edited.encode())
    read = outcome(path, fmt, piece)
    assert read == outcome(path, fmt, datafiles._READ_CHARS)
    if keeps:
        assert read == written
    else:
        assert isinstance(read, str)


def grid_spec():
    """A 4 x 100 x 100 decoherence_factor sweep whose axes all repeat."""
    return SweepSpec(target="decoherence_factor",
                     axes=(Axis.linear("lambda", 1.0, 15.0, 4),
                           Axis.linear("velocity", 0.05, 0.9, 100),
                           Axis.linear("time", 0.0, 2.0 * TWO_PI, 100)),
                     fixed={"gamma0": 0.05, "omega": 0.03})


@pytest.fixture(scope="module")
def grid_files(tmp_path_factory):
    """The ``grid_spec`` sweep, written in both formats."""
    dataset = run_sweep(grid_spec())
    directory = tmp_path_factory.mktemp("grid")
    for fmt in FORMATS:
        write_dataset(dataset, str(directory / f"grid.{fmt}"), fmt)
    return directory, dataset


def traced(call):
    """The tracemalloc size held after ``call()``, its peak, and the result."""
    tracemalloc.start()
    try:
        result = call()
        return (*tracemalloc.get_traced_memory(), result)
    finally:
        tracemalloc.stop()


def traced_peak(call):
    """The tracemalloc peak of ``call()``, and its result."""
    _, peak, result = traced(call)
    return peak, result


# tracemalloc size per row of the grid_spec dataset that run_sweep returns,
# about 25% above what it measured (11.3 B: three coded axis columns, 1 B an
# entry, and the values as doubles). Axis columns of 2-byte codes held
# 14.3 B, four columns of doubles 32.2 B, and row tuples of floats 104 B.
SWEEP_BYTES_PER_ROW = 14
# tracemalloc peak per row of each reader and writer, about 18% above the
# larger of what it measured on grid_files (read: CSV 17.8 B, JSON 19.7 B;
# write: CSV 6.7 B, JSON 6.8 B) and on long_axis_spec (read: CSV 23.6 B,
# JSON 24.4 B; write: 9.1 and 9.2 B), where a column widens from 1-byte
# to 2-byte codes after 256 values and switches to doubles after 1,024. A
# write's peak does not depend on the code width. Writers that spelled
# 4,096 rows a block, whatever the width, peaked at 24.8 and 25.1 B on
# grid_files and 26.6 and 26.8 B on long_axis_spec. Readers that started each
# column as 2-byte codes peaked at 20.8 and 22.7 B on grid_files and 24.6
# and 25.4 B on long_axis_spec. Keeping a column's codes until its doubles
# were allocated peaked at 27.0 and 27.7 B reading long_axis_spec. Readers
# that held every column as doubles
# peaked at 38.9 and 40.7 B on grid_files and 33.6 and 34.0 B on
# long_axis_spec, and writers that spelled the columns through memos of
# 64-bit patterns at 28.5 and 28.7 B, and 29.0 and 29.3 B. Readers that grew
# the columns of doubles peaked at 37.3 and 37.9 B on grid_files, and read
# 33.5 B in place of 34.8 B from the JSON of a 250,000-row grid. Memos that
# kept every value of the long axis peaked at 83.6-87.9 B. Readers that
# built row tuples peaked at 110 B (CSV) and 107 B (JSON), readers that
# parse every entry apart at 185 B (CSV), and JSON readers holding the list
# of lists or the file's text at 274 and 180 B; writers that built the
# file's text first peaked at 194 B (CSV) and 204 B (JSON).
READ_PEAK_BYTES_PER_ROW = {"csv": 28, "json": 29}
WRITE_PEAK_BYTES_PER_ROW = {"csv": 11, "json": 11}


def long_axis_spec():
    """A 2 x 20,000 decoherence_factor sweep: its time axis has more values
    than a memo holds."""
    return factor_spec(axes=(Axis.from_values("velocity", (0.1, 0.5)),
                             Axis.linear("time", 0.0, 2.0 * TWO_PI, 20_000)))


def test_sweep_dataset_size_per_row():
    held, _, dataset = traced(lambda: run_sweep(grid_spec()))
    assert len(dataset.rows) == 40_000
    assert held / len(dataset.rows) < SWEEP_BYTES_PER_ROW


# tracemalloc peak per point of run_sweep on a sweep of one long time axis,
# whose points all share one model cell: it measured 18.1 B, the time and
# value columns (16) and the arrays' growth. Building the time column from
# the grid tuple (a float object and a pointer per point, 32 B) and copying
# it peaked at 48.4 B; holding the cell's values in a list until the cell
# ended peaked at 88.6 B.
SWEEP_PEAK_BYTES_PER_POINT = 24


def test_one_long_cell_peak_memory_per_point():
    spec = factor_spec(axes=(Axis.linear("time", 0.0, 2.0 * TWO_PI, 200_000),),
                       fixed={"gamma0": 0.05, "lambda": 5.0, "omega": 0.03,
                              "velocity": 0.5})
    _, peak, dataset = traced(lambda: run_sweep(spec))
    assert len(dataset.rows) == 200_000
    assert peak / len(dataset.rows) <= SWEEP_PEAK_BYTES_PER_POINT


@pytest.mark.parametrize("fmt", FORMATS)
def test_read_back_peak_memory_per_row(grid_files, fmt):
    directory, dataset = grid_files
    peak, back = traced_peak(lambda: READERS[fmt](str(directory / f"grid.{fmt}")))
    assert len(back.rows) == len(dataset.rows) == 40_000
    assert peak / len(back.rows) < READ_PEAK_BYTES_PER_ROW[fmt]


# the entries that a column read back may hold beyond its rows: the columns
# are allocated once, at the rows counted, where columns grown as the rows
# came held about 6% more
SPARE_ENTRIES = 16


@pytest.mark.parametrize("fmt", FORMATS)
def test_read_back_columns_hold_no_growth_slack(grid_files, fmt):
    """The three axis columns come back as 1-byte codes and the values as
    doubles, each array allocated once; the value column switched from codes
    to doubles once, at the same length."""
    directory, dataset = grid_files
    back = READERS[fmt](str(directory / f"grid.{fmt}"))
    empty = sys.getsizeof(array("d"))
    held = [back.rows.stored(index) for index in range(back.rows.width)]
    assert [type(column) for column in held] == [Coded] * 3 + [array]
    assert [len(column.values) for column in held[:3]] == [4, 100, 100]
    assert [column.codes.itemsize for column in held[:3]] == [1] * 3
    for column in [column.codes for column in held[:3]] + held[3:]:
        assert len(column) == 40_000
        assert sys.getsizeof(array(column.typecode)) == empty
        assert (sys.getsizeof(column) - empty) // column.itemsize - len(column) <= SPARE_ENTRIES
    assert back.rows == dataset.rows


# a header of 1,000 names and 10,000 row marks with no row between them: the
# readers refuse it at a tracemalloc peak of 0.41 MB (CSV) and 0.36 MB (JSON),
# where the parent of the row hint peaked at 0.36 and 0.29 MB, and columns
# allocated at every mark would take 80 MB
WIDE_NAMES, WIDE_MARKS, WIDE_PEAK_BYTES = 1_000, 10_000, 1 << 20


@pytest.mark.parametrize("fmt, message", [
    ("csv", "row 0: '' is not a number"),
    ("json", LAST_ROW),
])
def test_marks_without_rows_claim_no_memory(tmp_path, fmt, message):
    """The row hint is no more than the file's bytes can hold, two bytes an
    entry, so blank lines or a run of '[' under a wide header are refused
    before columns are allocated for them."""
    names = [f"c{index}" for index in range(WIDE_NAMES)]
    path = tmp_path / f"wide.{fmt}"
    if fmt == "csv":
        path.write_text(",".join(names) + "\n" * WIDE_MARKS)
    else:
        path.write_text('{"metadata": %s, "rows": [%s]}\n'
                        % (json.dumps({"columns": names}), "[" * WIDE_MARKS))
    peak, refusal = traced_peak(lambda: read_refused(path, fmt))
    assert refusal == message
    assert peak < WIDE_PEAK_BYTES


@pytest.mark.parametrize("fmt", FORMATS)
def test_write_peak_memory_per_row(grid_files, tmp_path, fmt):
    _, dataset = grid_files
    path = tmp_path / f"grid.{fmt}"
    peak, count = traced_peak(lambda: write_dataset(dataset, str(path), fmt))
    assert count == 40_000
    assert peak / count < WRITE_PEAK_BYTES_PER_ROW[fmt]


# tracemalloc peak of one write, whatever its rows, 18% above the largest it
# measured (bytes, CSV and JSON): figure 5, 3,600 rows of 7 columns, 245,240
# and 249,067; grid_spec, 40,000 rows of 4, 268,085 and 271,465;
# long_axis_spec, 40,000 rows of 3, 363,095 and 366,074. Writers that
# spelled 4,096 rows a block, whatever the width, peaked at 1,319,127 and
# 1,341,036; 989,859 and 1,002,455; 1,062,101 and 1,070,542.
WRITE_PEAK_BYTES = 432_000


@pytest.fixture(scope="module")
def shaped_datasets(grid_files):
    return {"figure5": run_sweep(figure_preset(5)), "grid": grid_files[1],
            "long_axis": run_sweep(long_axis_spec())}


@pytest.mark.parametrize("shape", ["figure5", "grid", "long_axis"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_write_peak_is_one_block_whatever_the_shape(shaped_datasets, tmp_path, fmt, shape):
    """A block holds as many rows as 4,096 entries fill, so a write of
    short wide rows peaks no higher than one of long narrow ones."""
    dataset = shaped_datasets[shape]
    path = str(tmp_path / f"data.{fmt}")
    peak, count = traced_peak(lambda: write_dataset(dataset, path, fmt))
    assert count == len(dataset.rows)
    assert peak < WRITE_PEAK_BYTES


@pytest.mark.parametrize("fmt", FORMATS)
def test_long_axis_peak_memory_per_row(tmp_path, fmt):
    dataset = run_sweep(long_axis_spec())
    path = str(tmp_path / f"long.{fmt}")
    write_peak, count = traced_peak(lambda: write_dataset(dataset, path, fmt))
    read_peak, back = traced_peak(lambda: READERS[fmt](path))
    assert count == len(back.rows) == 40_000 and back.rows == dataset.rows
    assert write_peak / count < WRITE_PEAK_BYTES_PER_ROW[fmt]
    assert read_peak / count < READ_PEAK_BYTES_PER_ROW[fmt]
