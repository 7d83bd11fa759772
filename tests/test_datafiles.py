"""Dataset serialization: exact round trips, error rows, and the written bytes."""

import json
import math
import os
import re
import stat
import threading
import tracemalloc
from collections import Counter
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mirrorphase import (Axis, Dataset, DomainError, SweepSpec, dataset_to_csv,
                         dataset_to_json, figure_preset, read_dataset_csv, read_dataset_json,
                         run_sweep, write_dataset)
from mirrorphase import datafiles
from mirrorphase.datafiles import FORMATS
from mirrorphase.sweeps import FIGURE_RANGE, describe_spec

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
    zeros, so the time column repeats its values and is spelled by a memo."""
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


def count_json_reads(monkeypatch):
    """The characters that each ``_JsonText.more`` call reads, as a list
    that fills while the reader runs."""
    more, pieces = datafiles._JsonText.more, []

    def counted_more(text, size=0):
        before = text.offset + len(text.buf)
        read = more(text, size)
        pieces.append(text.offset + len(text.buf) - before)
        return read

    monkeypatch.setattr(datafiles._JsonText, "more", counted_more)
    return pieces


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

    def test_empty_dataset_keeps_its_columns(self, tmp_path):
        """A dataset without rows holds one empty column per name, so it
        equals its read-back in both formats and a rows-first JSON file."""
        dataset = Dataset(columns=("a", "b"), rows=(), metadata={})
        assert dataset.rows.width == 2
        rows_first = tmp_path / "rows_first.json"
        rows_first.write_text('{"rows": [], "metadata": {"columns": ["a", "b"]}}')
        backs = [read_dataset_json(str(rows_first))]
        for fmt in FORMATS:
            path = str(tmp_path / f"data.{fmt}")
            write_dataset(dataset, path, fmt)
            backs.append(READERS[fmt](path))
        for back in backs:
            assert back.columns == dataset.columns and back.rows == dataset.rows

    def test_error_rows_spell_nan_as_null_in_json(self):
        payload = json.loads(dataset_to_json(run_sweep(error_spec())))
        assert [row[-1] for row in payload["rows"][:3]] == [None] * 3
        assert all(isinstance(row[-1], float) for row in payload["rows"][3:])

    def test_error_rows_spell_nan_as_nan_in_csv(self):
        text = dataset_to_csv(run_sweep(error_spec()))
        assert text.splitlines()[-6:-3] == ["0.0,0.1,nan", "0.0,0.5,nan", "0.0,0.9,nan"]


class TestReaders:
    def test_json_integers_read_back_as_floats(self, tmp_path):
        path = tmp_path / "hand.json"
        path.write_text('{"metadata": {"columns": ["time", "value"]},\n'
                        ' "rows": [[0, 1], [2, 0.5], [3, null]]}\n')
        back = read_dataset_json(str(path))
        assert back.columns == ("time", "value")
        assert back.rows == ((0.0, 1.0), (2.0, 0.5), (3.0, math.nan))
        assert all(type(x) is float for row in back.rows for x in row)

    def test_csv_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text("# mirrorphase dataset\n\n# target = decoherence_factor\n"
                        "# a note without a value\ntime,value\n\n0,1\n"
                        "# between rows\n2.5,0.25\n\n")
        back = read_dataset_csv(str(path))
        assert back.columns == ("time", "value")
        assert back.rows == ((0.0, 1.0), (2.5, 0.25))
        assert back.metadata == {"target": "decoherence_factor"}

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

    @pytest.mark.parametrize("text", [
        '{"metadata": {"columns": ["a"]}, "rows": [[0] [1]]}',
        '{"metadata": {"columns": ["a"]}, "rows": [[0], [1],]}',
        '{"metadata": {"columns": ["a"]}, "rows": [[0], 1]}',
        '{"metadata": {"columns": ["a", "b"]}, "rows": [[0, 1], [2, [3]]]}',
        '{"metadata": {"columns": ["a"]}, "rows": [[0]]} []',
        '{"metadata": {"columns": ["a"]}, "rows": [[0]]',
        '{"metadata": {"columns": ["a"]}}',
        '{"rows": [], "metadata": {"columns": ["a"], "axes": [}}',
        '[[0]]',
        '{"metadata": {"columns": 5}, "rows": [[0]]}',
        '{"metadata": {"columns": [1, 2]}, "rows": [[0, 1]]}',
        '{"metadata": {"columns": "ab"}, "rows": [[0, 1]]}',
        '{"metadata": {"columns": []}, "rows": []}',
        '{"rows": [], "metadata": {"columns": []}}',
    ], ids=["no_comma", "trailing_comma", "bare_entry", "nested", "trailing_text",
            "unclosed", "no_rows", "bad_metadata", "not_an_object", "number_columns",
            "number_names", "text_columns", "no_columns", "rows_first_no_columns"])
    @pytest.mark.parametrize("piece", [*PIECES, datafiles._READ_CHARS])
    def test_json_that_is_not_a_dataset_object(self, tmp_path, text, piece):
        path = tmp_path / "hand.json"
        path.write_text(text)
        with mock.patch.object(datafiles, "_READ_CHARS", piece), \
                pytest.raises(DomainError, match=str(path)) as caught:
            read_dataset_json(str(path))
        assert "\n" not in str(caught.value)

    @pytest.mark.parametrize("piece", [*PIECES, datafiles._READ_CHARS])
    def test_json_nested_past_the_recursion_limit(self, tmp_path, piece):
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text('{"metadata": {"columns": ["a"], "x": ' + "[" * depth + "]" * depth
                        + '}, "rows": [[1.0]]}')
        with mock.patch.object(datafiles, "_READ_CHARS", piece), \
                pytest.raises(DomainError, match=f"^{re.escape(str(path))}: a value nested "
                                                 "past the recursion limit at character 13$"):
            read_dataset_json(str(path))

    @pytest.mark.parametrize("text, message", [
        ('{"rows": [[0], [1, 2]], "metadata": {"columns": ["a"]}}',
         "row 1 has 2 entries; row 0 has 1"),
        ('{"rows": [[0, 1], [2, 3]], "metadata": {"columns": ["a"]}}',
         "row 0 has 2 entries; metadata.columns has 1"),
        ('{"metadata": {"columns": ["a", "b"]}, "rows": [[0, 1], [2]]}',
         "row 1 has 1 entries; metadata.columns has 2"),
    ], ids=["rows_first", "rows_first_wider", "metadata_first"])
    @pytest.mark.parametrize("piece", [*PIECES, datafiles._READ_CHARS])
    def test_json_width_errors_state_the_widths_the_file_shows(self, tmp_path, text, message,
                                                               piece):
        """The row width comes from metadata.columns when it comes first, and
        otherwise from row 0."""
        path = tmp_path / "hand.json"
        path.write_text(text)
        with mock.patch.object(datafiles, "_READ_CHARS", piece), \
                pytest.raises(DomainError, match=f"^{path}: {message}$"):
            read_dataset_json(str(path))

    def test_json_file_is_read_once(self, tmp_path, monkeypatch):
        path = tmp_path / "data.json"
        dataset = run_sweep(factor_spec())
        write_dataset(dataset, str(path), "json")
        pieces = count_json_reads(monkeypatch)
        monkeypatch.setattr(datafiles, "_READ_CHARS", 64)
        assert read_dataset_json(str(path)).rows == dataset.rows
        assert sum(pieces) == len(path.read_text())

    @pytest.mark.parametrize("written", [True, False], ids=["writers_break", "mixed_breaks"])
    def test_json_rows_split_at_the_writers_break_first(self, tmp_path, written):
        """A block is split at the writers' ``], [``; only a block that holds
        another break is put into that form, once, through ``_JSON_ROW_BREAK``."""
        pattern, calls = datafiles._JSON_ROW_BREAK, []

        class CountedBreak:
            def sub(self, replacement, text):
                calls.append("sub")
                return pattern.sub(replacement, text)

            def split(self, text, maxsplit=0):
                calls.append("split")
                return pattern.split(text, maxsplit)

        path = tmp_path / "data.json"
        if written:
            dataset = run_sweep(factor_spec())
            write_dataset(dataset, str(path), "json")
        else:
            path.write_text('{"metadata": {"columns": ["a", "b"]}, "rows": [[0.0, 1.0], '
                            '[2.0, 3.0],[4.0, 5.0]\n ,\n[6.0, 7.0], [8.0, 9.0]]}')
            dataset = Dataset(columns=("a", "b"), rows=[(0.0, 1.0), (2.0, 3.0), (4.0, 5.0),
                                                        (6.0, 7.0), (8.0, 9.0)], metadata={})
        with mock.patch.object(datafiles, "_JSON_ROW_BREAK", CountedBreak()):
            assert read_dataset_json(str(path)).rows == dataset.rows
        assert calls == ([] if written else ["sub"])

    @pytest.mark.parametrize("rows, message", [
        ("[[0.0, 1.0], [2.0, 3.0],[4.0, 5.0]\n ,\n[6.0, x], [8.0, 9.0]]",
         "row 3: 'x' is not a number"),
        ("[[0.0, 1.0],[2.0, 3.0], [4.0, [5.0]], [6.0, 7.0]]", "row 2: '[5.0' is not a number"),
        ("[[0.0, 1.0], [2.0, [3.0], [4.0, 5.0]]", "row 1: '[3.0' is not a number"),
        ("[[0.0, 1.0],[2.0], [4.0, 5.0]]", "row 1 has 1 entries; metadata.columns has 2"),
        ("[[0.0, 1.0], [2.0, 3.0]\n,[4.0, 5.0, 6.0]]",
         "row 2 has 3 entries; metadata.columns has 2"),
    ], ids=["mixed_breaks", "bracket_in_an_entry", "bracket_across_rows", "short_row",
            "long_row"])
    def test_json_row_errors_beside_other_breaks(self, tmp_path, rows, message):
        """A block that the writers' break leaves unparsed is split at
        ``_JSON_ROW_BREAK`` and refused naming the row at fault."""
        path = tmp_path / "hand.json"
        path.write_text('{"metadata": {"columns": ["a", "b"]}, "rows": %s}' % rows)
        with pytest.raises(DomainError) as caught:
            read_dataset_json(str(path))
        assert str(caught.value) == f"{path}: {message}"

    @pytest.mark.parametrize("member", ["tru", "1x", "01", "-x", '"\\x"', '"\\u12zz"',
                                        "[1 2]", "{1: 2}", "nul]"])
    def test_malformed_json_member_fails_at_once(self, tmp_path, monkeypatch, member):
        """A member that more text cannot mend is refused, with the message
        that decoding the whole file gives, without reading the rest of it."""
        text = '{"metadata": {"note": %s, "columns": ["a"]}, "rows": [%s]}' % (
            member, ", ".join(["[0.5]"] * 20_000))
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(json.JSONDecodeError) as decoded:
            json.loads(text)
        pieces = count_json_reads(monkeypatch)
        with pytest.raises(DomainError) as caught:
            read_dataset_json(str(path))
        assert str(caught.value) == (f"{path}: {decoded.value.msg} at character "
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
                        '"rows": [[0.0, 1.0], [1, 2.0], [0.0, 3.0], [1.0, 4.0]]}' % axes)
        back = read_dataset_json(str(path))
        assert back.rows == ((0.0, 1.0), (1.0, 2.0), (0.0, 3.0), (1.0, 4.0))
        assert all(type(x) is float for row in back.rows for x in row)

    def test_csv_axis_count_too_long_for_int(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text("# axis.a = linear 0.0 1.0 %s\na,v\n0.0,1.0\n1.0,2.0\n" % ("9" * 5000))
        assert read_dataset_csv(str(path)).rows == ((0.0, 1.0), (1.0, 2.0))

    @pytest.mark.parametrize("piece", [*PIECES, datafiles._READ_CHARS])
    def test_csv_blank_and_comment_lines_on_block_boundaries(self, tmp_path, piece):
        """Comment and blank lines mid-file, and a last line without a line
        break, wherever the pieces end."""
        path = tmp_path / "hand.csv"
        path.write_text("# target = t\ntime,value\n0,1\n# between = rows\n\n2.5,0.25\n"
                        "3,4\n# a note\n\n\n5,6")
        with mock.patch.object(datafiles, "_READ_CHARS", piece):
            back = read_dataset_csv(str(path))
        assert back.rows == ((0.0, 1.0), (2.5, 0.25), (3.0, 4.0), (5.0, 6.0))
        assert back.metadata == {"target": "t", "between": "rows"}

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("piece", PIECES)
    def test_csv_rows_split_across_pieces(self, tmp_path, piece, newline):
        """Rows, entries and line ends cut off where a piece ends read whole,
        with either line end and with or without one after the last row."""
        lines = ["# target = t", "time,value", "0.125,-1.5e-07", "", "# between = rows",
                 "123456789.12345679,5e-324", "-0.0,1.7976931348623157e+308"]
        for tail in ("", newline):
            path = tmp_path / "hand.csv"
            path.write_bytes((newline.join(lines) + tail).encode())
            with mock.patch.object(datafiles, "_READ_CHARS", piece):
                back = read_dataset_csv(str(path))
            assert back.columns == ("time", "value")
            assert back.rows == ((0.125, -1.5e-07), (123456789.12345679, 5e-324),
                                 (-0.0, 1.7976931348623157e+308))
            assert repr(back.rows[2][0]) == "-0.0"
            assert back.metadata == {"target": "t", "between": "rows"}

    @pytest.mark.parametrize("piece", PIECES)
    def test_csv_errors_name_the_row_across_pieces(self, tmp_path, piece):
        """A bad entry or a short row is refused, naming its row, wherever
        the pieces end."""
        path = tmp_path / "hand.csv"
        for text, message in (("a,b\n1,2\n# c\n3,x\n", "row 1: 'x' is not a number"),
                              ("a,b\n1,2\n\n3,4\n5\n", "row 2 has 1 entries")):
            path.write_text(text)
            with mock.patch.object(datafiles, "_READ_CHARS", piece), \
                    pytest.raises(DomainError, match=re.escape(message)):
                read_dataset_csv(str(path))

    @pytest.mark.parametrize("piece", [*PIECES, 256])
    def test_json_rows_before_metadata_with_irregular_whitespace(self, tmp_path, piece):
        path = tmp_path / "hand.json"
        path.write_text('{"rows":[[0,1] ,\n\t[ 2 ,0.5 ],[3,\r\n null]\n,[-0.0,4e1]\n] ,\n'
                        ' "metadata" : {"columns": ["time","value"], "axes": '
                        '[{"name": "time", "count": 1}, {"name": "value", "count": 2}]}}')
        with mock.patch.object(datafiles, "_READ_CHARS", piece):
            back = read_dataset_json(str(path))
        assert back.columns == ("time", "value")
        assert back.rows == ((0.0, 1.0), (2.0, 0.5), (3.0, math.nan), (-0.0, 40.0))
        assert repr(back.rows[3][0]) == "-0.0"
        assert all(type(x) is float for row in back.rows for x in row)

    @pytest.mark.parametrize("piece", PIECES)
    def test_json_members_split_across_pieces(self, tmp_path, piece):
        """A top-level number member and a metadata value spelled "rows" read
        whole, wherever the pieces end."""
        path = tmp_path / "hand.json"
        path.write_text('{"count": 123456789e-3, "metadata": {"note": "rows", "rows": [1],'
                        ' "columns": ["a"]}, "rows": [[1.5], [-2]], "tail": -0.25}')
        with mock.patch.object(datafiles, "_READ_CHARS", piece):
            back = read_dataset_json(str(path))
        assert back.rows == ((1.5,), (-2.0,))
        assert back.metadata == {"note": "rows", "rows": [1], "columns": ["a"]}

    @pytest.mark.parametrize("piece", PIECES)
    def test_json_strings_and_literals_split_across_pieces(self, tmp_path, piece):
        """Escapes, literals and numbers cut off where a piece ends read whole."""
        metadata = {"note": "\u00e9\U0001d11e\\ \"x\"", "flags": [True, False, None],
                    "limits": [-math.inf, math.inf, -1.5e-7], "columns": ["a"]}
        path = tmp_path / "hand.json"
        path.write_text('{"metadata": %s, "rows": [[1.5]]}' % json.dumps(metadata))
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

        with mock.patch.object(datafiles, "_BLOCK_ROWS", 2), \
                mock.patch.object(datafiles, "_spell", counted_spell):
            write_dataset(dataset, str(path), fmt)
        with mock.patch.object(datafiles, "_READ_CHARS", 40), \
                mock.patch.object(datafiles, "_floats", counted_floats):
            back = READERS[fmt](str(path))
        assert back.rows == dataset.rows
        assert len(axis_texts) == 6
        assert {text: spelled[text] for text in axis_texts} == dict.fromkeys(axis_texts, 1)
        assert {text: parsed[text] for text in axis_texts} == dict.fromkeys(axis_texts, 1)

    def test_csv_without_header_row(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# mirrorphase dataset\n\n# allow_errors = false\n")
        with pytest.raises(DomainError, match="no header row found"):
            read_dataset_csv(str(path))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_file_that_is_not_utf8(self, tmp_path, fmt):
        path = hand_file(tmp_path, fmt, ("time", "value"), [("0.0", "1.0")])
        with open(path, "ab") as handle:
            handle.write(b"\xff\n")
        with pytest.raises(DomainError, match="not UTF-8 text") as caught:
            READERS[fmt](path)
        assert str(caught.value).startswith(f"{path}: ")
        assert "\n" not in str(caught.value)


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

    def test_older_comment_lines_read_as_flat_keys(self, tmp_path):
        """A CSV written before metadata was spelled in JSON reads each
        comment as one key: its JSON value where there is one, else its text."""
        path = tmp_path / "old.csv"
        path.write_text("# mirrorphase dataset\n# version = 0.1.0\n# target = decoherence_factor\n"
                        "# axis.velocity = values 0.1 0.5\n"
                        "# axis.time = linear 0.0 6.283185307179586 2\n# fixed.gamma0 = 0.05\n"
                        "# fixed.lambda = 5.0\n# fixed.omega = 0.03\n# allow_errors = false\n"
                        "velocity,time,decoherence_factor\n0.1,0.0,1.0\n"
                        "0.1,6.283185307179586,0.6862746861513069\n")
        back = read_dataset_csv(str(path))
        assert back.rows == ((0.1, 0.0, 1.0), (0.1, 6.283185307179586, 0.6862746861513069))
        assert back.metadata == {
            "version": "0.1.0", "target": "decoherence_factor",
            "axis.velocity": "values 0.1 0.5", "axis.time": "linear 0.0 6.283185307179586 2",
            "fixed.gamma0": 0.05, "fixed.lambda": 5.0, "fixed.omega": 0.03,
            "allow_errors": False}

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
        """A memo carries an axis column's spellings from one block to the next."""
        monkeypatch.setattr(datafiles, "_BLOCK_ROWS", 2)
        dataset = make()
        assert dataset_to_csv(dataset) == reference_csv(dataset)
        assert dataset_to_json(dataset) == reference_json(dataset)

    @pytest.mark.parametrize("make", [lambda: run_sweep(zeros_by_block_spec((0.0, -0.0))),
                                      lambda: run_sweep(zeros_by_block_spec((-0.0, 0.0))),
                                      lambda: run_sweep(repeated_error_spec())],
                             ids=["zero_then_negative_zero", "negative_zero_then_zero",
                                  "repeated_values_and_nan"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_memos_across_blocks_of_two_rows(self, tmp_path, monkeypatch, make, fmt):
        """At the default memo size every column keeps its memo, keyed by bit
        pattern in a writer: a zero or NaN that an earlier block put in the
        memo leaves a later block's other zero, or its repeats, as spelled."""
        monkeypatch.setattr(datafiles, "_BLOCK_ROWS", 2)
        monkeypatch.setattr(datafiles, "_READ_CHARS", 40)
        dataset = make()
        spelled = [tuple(map(repr, row)) for row in dataset.rows]
        assert len(set(spelled)) < len(spelled) or {"0.0", "-0.0"} <= set(chain(*spelled))
        path = tmp_path / f"data.{fmt}"
        write_dataset(dataset, str(path), fmt)
        reference = reference_csv if fmt == "csv" else reference_json
        assert path.read_bytes() == reference(dataset).encode()
        assert [tuple(map(repr, row)) for row in READERS[fmt](str(path)).rows] == spelled

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

    monkeypatch.setattr(datafiles, "_BLOCK_ROWS", 2)
    monkeypatch.setattr(datafiles, "_spell_block", failing_second_block)
    with pytest.raises(RuntimeError, match="spelling failed"):
        write_dataset(run_sweep(factor_spec()), str(path), fmt)
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
    with mock.patch.object(datafiles, "_BLOCK_ROWS", 2), \
            mock.patch.object(datafiles, "_READ_CHARS", piece), \
            mock.patch.object(datafiles, "_MEMO_SIZE", memo_size):
        check_round_trip(tmp_path_factory.mktemp("blocks"), dataset)


@pytest.fixture(scope="module")
def spaced_rows_file():
    """A decoherence_time sweep over gamma0 {-0.0, 0.1, 0.0} x two
    velocities, error rows kept, so its rows hold NaN (``null`` in JSON) and
    both zeros; with its JSON text before the rows array and the array's
    tokens: brackets, commas and entries."""
    dataset = run_sweep(SweepSpec(target="decoherence_time",
                                  axes=(Axis.from_values("gamma0", (-0.0, 0.1, 0.0)),
                                        Axis.from_values("velocity", (0.1, 0.9))),
                                  fixed={"lambda": 5.0, "omega": 0.03}, allow_errors=True))
    head, rows, tail = dataset_to_json(dataset).partition('"rows": ')
    assert tail.endswith("]}\n")
    return dataset, head + rows, re.findall(r"[][,]|[^][,\s]+", tail[:-2])


# JSON whitespace; "\r" reads as a line break, as text files are read
_JSON_SPACES = st.text(st.sampled_from(" \t\r\n"), max_size=3)


@given(data=st.data(), piece=st.integers(min_value=1, max_value=16),
       bad=st.sampled_from(["x", "1.0.0", "true", '"1.5"', "1e", "--2", "0x1p3"]))
@settings(max_examples=60, deadline=None)
def test_json_rows_in_any_spacing(tmp_path_factory, spaced_rows_file, data, piece, bad):
    """The rows array re-spaced with JSON whitespace around every bracket
    and comma, inside rows and between them, reads back as written, wherever
    the pieces cut it; with one entry that is not a number, the read names
    that entry and its row."""
    dataset, head, tokens = spaced_rows_file
    spaces = data.draw(st.lists(_JSON_SPACES, min_size=len(tokens) + 1,
                                max_size=len(tokens) + 1))
    path = tmp_path_factory.mktemp("spaced") / "data.json"

    def read(tokens):
        path.write_text(head + "".join(map("".join, zip(spaces, tokens))) + spaces[-1] + "}")
        with mock.patch.object(datafiles, "_READ_CHARS", piece):
            return read_dataset_json(str(path))

    back = read(tokens)
    assert [tuple(map(repr, row)) for row in back.rows] == [
        tuple(map(repr, row)) for row in dataset.rows]
    # the array's "[" and each row's "[" before the entry
    index = data.draw(st.sampled_from([i for i, token in enumerate(tokens)
                                       if token not in ("[", "]", ",")]))
    row = tokens[:index].count("[") - 2
    with pytest.raises(DomainError) as caught:
        read([*tokens[:index], bad, *tokens[index + 1:]])
    assert str(caught.value) == f"{path}: row {row}: {bad!r} is not a number"


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
# about 25% above what it measured (32.2 B: four columns of doubles). Row
# tuples of floats held 104 B.
SWEEP_BYTES_PER_ROW = 40
# tracemalloc peak per row of each reader and writer on grid_files, above
# what it measured by about 25% (read: CSV 37.7 B, JSON 38.7 B) and 18%
# (write: CSV 28.4 B, JSON 28.8 B); on long_axis_spec it measured 28.4 and
# 31.5 B reading and 29.1 and 29.3 B writing, where memos that kept every
# value of the long axis peaked at 83.6-87.9 B. Readers that built row tuples peaked at
# 110 B (CSV) and 107 B (JSON), readers that parse every entry apart at
# 185 B (CSV), and JSON readers holding the list of lists or the file's
# text at 274 and 180 B; writers that built the file's text first peaked at
# 194 B (CSV) and 204 B (JSON).
READ_PEAK_BYTES_PER_ROW = {"csv": 47, "json": 48}
WRITE_PEAK_BYTES_PER_ROW = {"csv": 34, "json": 34}


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


@pytest.mark.parametrize("fmt", FORMATS)
def test_write_peak_memory_per_row(grid_files, tmp_path, fmt):
    _, dataset = grid_files
    path = tmp_path / f"grid.{fmt}"
    peak, count = traced_peak(lambda: write_dataset(dataset, str(path), fmt))
    assert count == 40_000
    assert peak / count < WRITE_PEAK_BYTES_PER_ROW[fmt]


@pytest.mark.parametrize("fmt", FORMATS)
def test_long_axis_peak_memory_per_row(tmp_path, fmt):
    dataset = run_sweep(long_axis_spec())
    path = str(tmp_path / f"long.{fmt}")
    write_peak, count = traced_peak(lambda: write_dataset(dataset, path, fmt))
    read_peak, back = traced_peak(lambda: READERS[fmt](path))
    assert count == len(back.rows) == 40_000 and back.rows == dataset.rows
    assert write_peak / count < WRITE_PEAK_BYTES_PER_ROW[fmt]
    assert read_peak / count < READ_PEAK_BYTES_PER_ROW[fmt]
