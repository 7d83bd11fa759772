"""Dataset serialization: exact round trips, error rows, and the written bytes."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from mirrorphase import (Axis, Dataset, DomainError, SweepSpec, dataset_to_csv,
                         dataset_to_json, read_dataset_csv, read_dataset_json,
                         run_sweep, write_dataset)
from mirrorphase import datafiles
from mirrorphase.datafiles import FORMATS

from oracles import reference_csv, reference_json

TWO_PI = 2.0 * math.pi

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


def awkward_dataset():
    return Dataset(columns=("a", "b", "c"),
                   rows=tuple(zip(AWKWARD, AWKWARD[::-1], AWKWARD[3:] + AWKWARD[:3])),
                   metadata={"generator": "mirrorphase", "target": "test"})


def empty_dataset():
    """A sweep's columns and metadata, axes included, without a row."""
    dataset = run_sweep(factor_spec())
    return Dataset(columns=dataset.columns, rows=(), metadata=dataset.metadata)


def same_entries(left, right):
    """Row tuples equal entry by entry, NaN matching NaN."""
    return len(left) == len(right) and all(
        len(a) == len(b) and all(x == y or (math.isnan(x) and math.isnan(y))
                                 for x, y in zip(a, b))
        for a, b in zip(left, right))


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
        assert same_entries(back.rows, dataset.rows)

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
        assert same_entries(back.rows, ((0.0, 1.0), (2.0, 0.5), (3.0, math.nan)))
        assert all(type(x) is float for row in back.rows for x in row)

    def test_csv_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text("# mirrorphase dataset\n\n# target = decoherence_factor\n"
                        "# a note without a value\ntime,value\n\n0,1\n"
                        "# between rows\n2.5,0.25\n\n")
        back = read_dataset_csv(str(path))
        assert back.columns == ("time", "value")
        assert back.rows == ((0.0, 1.0), (2.5, 0.25))
        assert back.metadata == {"raw": {"target": "decoherence_factor"},
                                 "allow_errors": False}

    def test_csv_without_header_row(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# mirrorphase dataset\n\n# allow_errors = false\n")
        with pytest.raises(DomainError, match="no header row found"):
            read_dataset_csv(str(path))


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
        lambda: Dataset(columns=(), rows=((), ()), metadata={"target": "no columns"}),
    ], ids=["sweep", "error_rows", "awkward", "integer_entries", "signed_zero_axis",
            "no_rows", "no_columns"])
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
        assert "# axis.time = linear 0.0 10.0 3\n" in csv_text
        assert "# fixed.gamma0 = 1.0\n" in csv_text
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

    @pytest.mark.parametrize("rows", [((0.0, 1.0, 2.0), (1.0, 2.0)),
                                      ((0.0, 1.0, 2.0, 3.0),),
                                      ((0.0, 1.0, 2.0), ())],
                             ids=["short", "long", "empty_row"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_row_width_must_match_the_columns(self, tmp_path, rows, fmt):
        dataset = Dataset(columns=("a", "b", "c"), rows=rows, metadata={})
        path = tmp_path / f"data.{fmt}"
        with pytest.raises(DomainError, match=f"row {len(rows) - 1} has "
                                              f"{len(rows[-1])} entries"):
            write_dataset(dataset, str(path), fmt)
        assert not path.exists()


# Entries a column may hold: both zeros, the non-finite values, the extreme
# doubles, integers and arbitrary doubles.
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     1.7976931348623157e308, -1.7976931348623157e308, 0.1]),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def hand_built_datasets(draw):
    """Datasets of 1-4 columns, a random subset of them named as sweep axes
    with a random point count, one column holding both zeros whenever there
    are two rows or more."""
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
    return Dataset(columns=columns, rows=tuple(map(tuple, rows)),
                   metadata={"target": "hand-built", "axes": axes})


@given(dataset=hand_built_datasets())
@settings(max_examples=150, deadline=None)
def test_writers_follow_the_per_value_formula(tmp_path_factory, dataset):
    """Written bytes equal the per-value formula, and every finite entry
    reads back exactly, the sign of zero included."""
    directory = tmp_path_factory.mktemp("property")
    for fmt, reference in (("csv", reference_csv), ("json", reference_json)):
        path = directory / f"data.{fmt}"
        write_dataset(dataset, str(path), fmt)
        assert path.read_bytes() == reference(dataset).encode()
        back = READERS[fmt](str(path))
        assert len(back.rows) == len(dataset.rows)
        for row, back_row in zip(dataset.rows, back.rows):
            for entry, read in zip(row, back_row):
                entry = float(entry)
                if math.isfinite(entry) or fmt == "csv":
                    assert repr(read) == repr(entry)
                else:  # strict JSON wrote null
                    assert math.isnan(read)
