"""Declarative parameter sweeps and the preset grids behind the paper-style figures.

A sweep is a Cartesian grid over named axes plus fixed parameter
assignments, evaluated for one target quantity. Evaluation is
deterministic: the same spec always produces the same numeric table,
row-ordered lexicographically by the axes. Every axis value and fixed
value is a double from construction on, so both file formats spell it
alike. Before any point runs, ``SweepSpec.validate`` checks each fixed
value and axis end by ``model.require`` or ``qubit.require_bloch_angle``,
so ``allow_errors`` cannot turn a value outside its domain into NaN rows.
The coordinate columns are built first, one per axis: codes into the
axis's values where the axis repeats them, 1 byte each up to 256 values and
2 bytes up to 1,024, else an array of doubles.
A sweep then runs one cell of the model axes (gamma0, lambda, omega,
velocity) at a time: a cell's points are a run of consecutive rows, and
it builds the cell's model parameters once. Each point is evaluated
once, by the target's point function, which calls the public function a
scalar call uses; a point that raises is a ``SweepError`` naming it, or
with ``allow_errors`` a NaN row. Where time is a decoherence factor
sweep's only inner axis, the model's block form of
``decoherence_factor``, which repeats its operations bit for bit,
evaluates the times instead. Values are made a block of about 4,096
entries at a time, 4,096 points of one value column or 1,365 of three;
each block is checked, then moved into the value columns, arrays of
doubles. The writers spell their blocks by the same budget.

Grid resolutions and the velocity / plate-coupling families used by the
presets are reproduction conventions documented here, not published data;
the fixed physical parameters come from the respective figure captions.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections.abc import Iterable, Iterator, Sequence, Sized

from .errors import DomainError, QuadratureError, SweepError
from .model import (ModelParams, _decoherence_factors, _Record, decoherence_factor,
                    decoherence_time, require)
from .phase import TWO_PI, gp_exact, gp_perturbative
from .qubit import require_bloch_angle

_MODEL_NAMES = ("gamma0", "lambda", "omega", "velocity")
_PARAMETERS = _MODEL_NAMES + ("theta", "time")


def _factor(params: ModelParams, point: dict[str, float]) -> tuple[float, ...]:
    return (decoherence_factor(params, point["time"]),)


def _exact(params: ModelParams, point: dict[str, float]) -> tuple[float, ...]:
    result = gp_exact(params, point["theta"], s_final=point.get("time", TWO_PI))
    return (result.phase, result.quadrature_error, float(result.near_degenerate))


def _normalized(params: ModelParams, point: dict[str, float]) -> tuple[float, ...]:
    result = gp_exact(params, point["theta"], s_final=point.get("time", TWO_PI))
    return (result.normalized, result.quadrature_error, float(result.near_degenerate))


def _ratio(params: ModelParams, point: dict[str, float]) -> tuple[float, ...]:
    exact = gp_exact(params, point["theta"])
    approx = gp_perturbative(params, point["theta"])
    if approx == 0.0:
        raise DomainError("the first-order phase is 0, so phase_ratio is undefined")
    return (exact.phase, approx, exact.phase / approx)


def _time(params: ModelParams, point: dict[str, float]) -> tuple[float, ...]:
    return (decoherence_time(params),)


# target -> (required parameter names, optional parameter names, value
# columns, point function): the point function maps a cell's model and a
# point's parameters to the point's values, through the public function a
# scalar call uses
_TARGETS = {
    "decoherence_factor": (_MODEL_NAMES + ("time",), (), ("decoherence_factor",), _factor),
    "gp_exact": (_MODEL_NAMES + ("theta",), ("time",),
                 ("phase", "quadrature_error", "near_degenerate"), _exact),
    "gp_normalized": (_MODEL_NAMES + ("theta",), ("time",),
                      ("phase_normalized", "quadrature_error", "near_degenerate"), _normalized),
    "gp_perturbative_ratio": (_MODEL_NAMES + ("theta",), (),
                              ("phase_exact", "phase_perturbative", "phase_ratio"), _ratio),
    "decoherence_time": (_MODEL_NAMES, (), ("decoherence_time",), _time),
}

TARGETS = tuple(_TARGETS)
TARGET_COLUMNS = {target: entry[2] for target, entry in _TARGETS.items()}

LINEAR = "linear"
LOG = "log"
VALUES = "values"

# run_sweep holds a coordinate column whose axis has fewer values than the
# rows, and at most 1,024, as codes, 1 byte each up to 256 values and 2
# bytes past that, and every other entry as a double, 8 bytes, and one
# block of _BLOCK_ENTRIES values while the sweep runs; a column is filled
# from its axis as it is made, so no grid is held; the writers add only a
# block's strings, about 0.3-0.5 MB whatever the rows; reading a file back
# peaks near what its columns hold, as each column is allocated once at
# the rows counted and no column's memo holds more than 1,024 spellings
# (tracemalloc, bytes per point: held 11.2, peak 11.2, writing CSV then
# JSON adds 1.1, reading 12.2 from CSV and 12.5 from JSON, for a 4 x 250 x
# 250 sweep and one value column, where 2-byte codes held 14.2 and doubles
# 32.2; held 16.8, peak 17.4, write adds 1.0, read 16.5 and 16.6 for a
# 500,000-point sweep of one axis; held 17.5, peak 18.1, write adds 0.7,
# read 17.5 and 17.7 for 2 x 250,000 points); the cap keeps a sweep and its
# writing below about 45 MB
MAX_SWEEP_POINTS = 500_000


def _as_float(value: object, label: str) -> float:
    """``value`` as a double; a string or a value ``float`` refuses is a DomainError."""
    if not isinstance(value, (str, bytes)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{label}: expected a number, got {value!r}")


class Axis(_Record):
    """One sweep dimension: a generated range or an explicit value family."""

    __slots__ = ("name", "scale", "start", "stop", "count", "values")

    name: str
    scale: str
    start: float | None
    stop: float | None
    count: int | None
    values: tuple[float, ...] | None

    def __init__(self, name: str, scale: str, start: float | None = None,
                 stop: float | None = None, count: int | None = None,
                 values: tuple[float, ...] | None = None) -> None:
        # every coordinate is a double, so CSV and JSON spell it alike
        label = f"axis {name!r}"
        if start is not None:
            start = _as_float(start, label)
        if stop is not None:
            stop = _as_float(stop, label)
        if values is not None:
            values = tuple(_as_float(v, label) for v in values)
        if scale == VALUES:
            if not values:
                raise DomainError(f"axis {name!r}: explicit axis needs at least one value")
            if start is not None or stop is not None or count is not None:
                raise DomainError(f"axis {name!r}: values exclude min/max/count")
        elif scale in (LINEAR, LOG):
            if values is not None:
                raise DomainError(f"axis {name!r}: min/max/count exclude values")
            if start is None or stop is None or count is None:
                raise DomainError(f"axis {name!r}: min, max and count are all required")
            if count < 2:
                raise DomainError(f"axis {name!r}: count must be >= 2, got {count}")
            if not stop > start:
                raise DomainError(f"axis {name!r}: max must exceed min "
                                  f"({start} .. {stop})")
            if scale == LOG and not start > 0.0:
                raise DomainError(f"axis {name!r}: log scale needs min > 0")
        else:
            raise DomainError(f"axis {name!r}: unknown scale {scale!r}")
        super().__init__(name, scale, start, stop, count, values)

    @classmethod
    def linear(cls, name: str, start: float, stop: float, count: int) -> Axis:
        return cls(name=name, scale=LINEAR, start=start, stop=stop, count=count)

    @classmethod
    def log(cls, name: str, start: float, stop: float, count: int) -> Axis:
        return cls(name=name, scale=LOG, start=start, stop=stop, count=count)

    @classmethod
    def from_values(cls, name: str, values: tuple[float, ...]) -> Axis:
        return cls(name=name, scale=VALUES, values=values)

    def grid(self) -> tuple[float, ...]:
        return self.values if self.scale == VALUES else tuple(self._generate())

    def _generate(self) -> Iterator[float]:
        """The grid values in order, made one at a time."""
        if self.scale == VALUES:
            yield from self.values
            return
        start, stop, n = self.start, self.stop, self.count - 1
        yield start
        if self.scale == LINEAR:
            span = stop - start
            if math.isfinite(span * n):
                yield from (start + span * i / n for i in range(1, n))
            else:
                # span * i overflows near the float limit, so divide first
                step = span / n
                yield from (start + step * i for i in range(1, n))
        else:
            la, lb = math.log(start), math.log(stop)
            # exp(log(x)) may round past an end that lies a few ulps from the other
            yield from (min(max(math.exp(la + (lb - la) * i / n), start), stop)
                        for i in range(1, n))
        yield stop


class SweepSpec(_Record):
    """Target quantity, sweep axes, fixed assignments and the error policy."""

    __slots__ = ("target", "axes", "fixed", "allow_errors")

    target: str
    axes: tuple[Axis, ...]
    fixed: dict[str, float]
    allow_errors: bool

    def __init__(self, target: str, axes: tuple[Axis, ...] = (),
                 fixed: dict[str, float] | None = None, allow_errors: bool = False) -> None:
        fixed = {name: _as_float(value, f"fixed parameter {name!r}")
                 for name, value in (fixed or {}).items()}
        super().__init__(target, axes, fixed, allow_errors)

    def validate(self) -> None:
        if self.target not in TARGETS:
            raise DomainError(f"unknown sweep target {self.target!r}; "
                              f"expected one of {TARGETS}")
        required, optional = _TARGETS[self.target][:2]
        allowed = set(required) | set(optional)
        seen: set[str] = set()
        for axis in self.axes:
            if axis.name in seen:
                raise DomainError(f"duplicate axis {axis.name!r}")
            seen.add(axis.name)
        for name in self.fixed:
            if name in seen:
                raise DomainError(f"{name!r} is both an axis and a fixed parameter")
            seen.add(name)
        for name in seen:
            if name not in _PARAMETERS:
                raise DomainError(f"unknown parameter {name!r}")
            if name not in allowed:
                raise DomainError(f"parameter {name!r} does not apply to target "
                                  f"{self.target!r}")
        for name in required:
            if name not in seen:
                raise DomainError(f"target {self.target!r} needs parameter {name!r} "
                                  "as an axis or a fixed value")
        for name, value in self.fixed.items():
            _check_domain(name, value, "fixed value")
        for axis in self.axes:
            # every parameter domain is an interval, and range grids run
            # monotonically from min to max, so the endpoints decide
            ends = axis.values if axis.scale == VALUES else (axis.start, axis.stop)
            for value in ends:
                _check_domain(axis.name, value, "axis value")

    def point_count(self) -> int:
        """Grid size, from the axis lengths alone."""
        return math.prod(map(_axis_length, self.axes))


def _axis_length(axis: Axis) -> int:
    return len(axis.values) if axis.scale == VALUES else axis.count


def _check_domain(name: str, value: float, where: str) -> None:
    try:
        if name == "theta":
            require_bloch_angle(value)
        else:
            require(name, value)
    except DomainError as exc:
        raise type(exc)(f"{exc} ({where})") from None


def _same_entries(left, right) -> bool:
    """Equal entry by entry, a NaN equal to a NaN; the caller checks the lengths."""
    return all(x == y or (x != x and y != y) for x, y in zip(left, right))


def _same_column(left, right) -> bool:
    if type(left) is type(right) is array:
        # memoryviews of doubles compare as C doubles, so -0.0 == 0.0 and only NaN fails
        if memoryview(left) == memoryview(right):
            return True
    elif (type(left) is type(right) is Coded and len(left.values) == len(right.values)
          and _same_entries(left.values, right.values) and left.codes == right.codes):
        return True  # the same codes into equal values, compared in C
    return _same_entries(left, right)


def _same_row(left: tuple, right) -> bool:
    return left == right or (type(right) is tuple and len(left) == len(right)
                             and _same_entries(left, right))


def _doubles(name: str, column: tuple) -> array:
    """``column`` as an array of doubles; an entry that ``float`` refuses is a
    DomainError naming its row and the column."""
    try:
        return array("d", map(float, column))
    except (TypeError, ValueError, OverflowError):
        for index, entry in enumerate(column):
            try:
                float(entry)
            except (TypeError, ValueError, OverflowError):
                raise DomainError(f"row {index}, column {name!r}: {entry!r} is not a number"
                                  ) from None
        raise


# the most distinct values a coded column holds: a sweep axis of more values
# is held as doubles, and so is a column read back once its spellings pass it
_MEMO_SIZE = 1024


def _code_type(distinct: int) -> str:
    """The typecode of the narrowest codes into ``distinct`` values, at most
    ``_MEMO_SIZE``: ``'B'``, whose codes run from 0 to 255, up to 256
    values, else ``'H'``."""
    return "B" if distinct <= 256 else "H"


class Coded:
    """A column that repeats few values: ``codes``, an array of 1-byte codes
    (``'B'``) or 2-byte ones (``'H'``), as ``_code_type`` picks them, into
    ``values``, its distinct doubles, at most ``_MEMO_SIZE`` of them.

    Indexing, slicing, ``len`` and iteration behave as on the array of
    doubles it stands for; a slice shares ``values``.
    """

    __slots__ = ("codes", "values")

    def __init__(self, codes: array, values: Sequence[float]) -> None:
        self.codes, self.values = codes, values

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Coded(self.codes[key], self.values)
        return self.values[self.codes[key]]

    def __iter__(self) -> Iterator[float]:
        return map(self.values.__getitem__, self.codes)


class Rows(Sequence):
    """The rows of a ``Dataset``: a read-only sequence of tuples of floats.

    It stores each column as an array of doubles, 8 bytes an entry, or as a
    ``Coded`` column, 1 or 2 bytes an entry. Indexing, slicing, ``len`` and
    iteration behave as on a tuple of row tuples, and so does ``==``, except
    that a NaN equals a NaN. Two ``Rows`` compare column against column,
    with no column built; a ``Rows`` also compares with a tuple of row
    tuples.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Sequence[array | Coded]) -> None:
        """Rows that take over ``columns``, one or more arrays of doubles or
        ``Coded`` columns of one length."""
        columns = tuple(columns)
        if not columns or any(len(column) != len(columns[0]) for column in columns):
            raise ValueError("rows need one or more columns of one length")
        self._columns = columns

    @classmethod
    def from_rows(cls, rows: Iterable, names: Sequence[str]) -> Rows:
        """The rows of any iterable of rows, one entry per name in ``names``;
        without rows, one empty column per name.

        A row of another width, or an entry that ``float`` refuses, is a
        one-line ``DomainError`` naming the row (and the column).
        """
        rows = rows if isinstance(rows, (tuple, list)) else tuple(rows)
        for index, row in enumerate(rows):
            if not isinstance(row, Sized) or len(row) != len(names):
                got = f"{len(row)} entries" if isinstance(row, Sized) else repr(row)
                raise DomainError(f"row {index} has {got}; "
                                  f"the dataset has {len(names)} columns")
        columns = zip(*rows) if rows else itertools.repeat(())
        return cls([_doubles(name, column) for name, column in zip(names, columns)])

    @property
    def width(self) -> int:
        return len(self._columns)

    def column(self, index: int) -> memoryview:
        """Column ``index`` as a read-only view of its doubles, built if it is coded."""
        column = self._columns[index]
        return memoryview(array("d", column) if type(column) is Coded else column).toreadonly()

    def stored(self, index: int) -> array | Coded:
        """Column ``index`` as it is held: an array of doubles or a ``Coded`` column."""
        return self._columns[index]

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Rows([column[key] for column in self._columns])
        return tuple([column[key] for column in self._columns])

    def __iter__(self) -> Iterator[tuple[float, ...]]:
        return zip(*self._columns)

    def __eq__(self, other) -> bool:
        if isinstance(other, Rows):
            return (len(self) == len(other) and self.width == other.width
                    and all(map(_same_column, self._columns, other._columns)))
        if isinstance(other, tuple):
            return len(self) == len(other) and all(map(_same_row, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"<Rows: {len(self)} rows x {self.width} columns>"


# the file formats a dataset is written in
FORMATS = ("csv", "json")


class Dataset(_Record):
    """Columnar numeric table plus the metadata that regenerates it.

    It has at least one column: no ``columns`` is a ``DomainError``.
    ``rows`` may be given as any iterable of rows; it is held as ``Rows``,
    one array of doubles per column, 8 bytes an entry, unless it is a
    ``Rows`` already, whose columns may be coded. A row whose width
    differs from the column count, or an entry that ``float`` refuses, is a
    ``DomainError`` here, before any file is touched.
    """

    __slots__ = ("columns", "rows", "metadata")

    columns: tuple[str, ...]
    rows: Rows
    metadata: dict

    def __init__(self, columns: tuple[str, ...], rows: Iterable, metadata: dict) -> None:
        if not columns:
            raise DomainError("a dataset needs at least one column")
        if not (isinstance(rows, Rows) and rows.width == len(columns)):
            rows = Rows.from_rows(rows, columns)
        super().__init__(columns, rows, metadata)


def _model_params(point: dict[str, float]) -> ModelParams:
    return ModelParams(gamma0=point["gamma0"], lambda_tilde=point["lambda"],
                       omega_tilde=point["omega"], velocity=point["velocity"])


_POINT_ERRORS = (DomainError, QuadratureError)

# the entries a block holds, one per column of each of its rows: run_sweep
# evaluates, checks and moves its values a block at a time, and the writers
# spell their rows a block at a time, so a wide block holds no more entries
# than a narrow one
_BLOCK_ENTRIES = 4096


def _block_rows(width: int) -> int:
    """The rows of ``width`` entries in a block: as many as fill
    ``_BLOCK_ENTRIES``, and one at least."""
    return max(1, _BLOCK_ENTRIES // width)


def _product_columns(axes: Sequence[Axis], count: int) -> list[array | Coded]:
    """The columns of the ``count`` points of the axes' Cartesian product,
    first axis slowest. A column whose axis has fewer values than the rows,
    and at most ``_MEMO_SIZE``, is coded, each code its value's place on the
    axis, in the narrowest codes that index the axis's values; any other
    column is filled from its axis's values as they are made, so no axis's
    grid is held."""
    columns, tile, run = [], 1, count
    for axis in axes:
        length = _axis_length(axis)
        run //= length
        coded = length < count and length <= _MEMO_SIZE
        values = range(length) if coded else axis._generate()
        if run > 1:
            values = itertools.chain.from_iterable(
                map(itertools.repeat, values, itertools.repeat(run)))
        column = array(_code_type(length) if coded else "d", values)
        column = column * tile if tile > 1 else column
        columns.append(Coded(column, axis.grid()) if coded else column)
        tile *= length
    return columns


def _point_error(names: tuple[str, ...], columns: list[array | Coded], index: int,
                 exc: Exception) -> SweepError:
    """The ``SweepError`` for row ``index``, whose evaluation raised ``exc``,
    naming its coordinates."""
    combo = tuple(column[index] for column in columns)
    coords = ", ".join(f"{n}={v!r}" for n, v in zip(names, combo))
    where = f" at {coords}" if coords else ""
    return SweepError(f"sweep point failed{where}: {exc}",
                      coordinates=dict(zip(names, combo)))


def run_sweep(spec: SweepSpec) -> Dataset:
    """Evaluate the target over the Cartesian grid of the spec's axes.

    Rows are ordered lexicographically by the axes (first axis slowest).
    The coordinate columns are the grids' product, built once. The sweep
    runs one model cell at a time: the axes up to the last model axis
    (gamma0, lambda, omega, velocity) pick the cell, whose model
    parameters are built once, and the axes after it (time, theta) vary
    inside it, so a cell's points are a run of consecutive rows. Each
    point is evaluated once, by the target's point function, which calls
    the public function that a scalar call uses, so a sweep and a scalar
    call give the same bits. Where time is a decoherence factor sweep's
    only inner axis, the model's block form of ``decoherence_factor``,
    which repeats its operations bit for bit, evaluates a block of times
    at once instead. Values are made a block of ``_block_rows`` points at
    a time, as many as hold ``_BLOCK_ENTRIES`` values; each block is
    checked, then moved into the value columns: unless errors are allowed,
    every entry must be finite (``DomainError`` otherwise).

    A point whose evaluation raises is handled where it is evaluated: by
    default it aborts the sweep with a ``SweepError`` reporting its
    coordinates; with ``allow_errors`` it produces NaN values instead. A
    model that fails fails each point of its cell alike. Grids of more
    than ``MAX_SWEEP_POINTS`` points are refused before any is evaluated.
    """
    spec.validate()
    count = spec.point_count()
    if count > MAX_SWEEP_POINTS:
        raise DomainError(f"sweep has {count} points; at most {MAX_SWEEP_POINTS} "
                          "are allowed")
    value_names, evaluate = _TARGETS[spec.target][2:]
    block = _block_rows(len(value_names))  # points per block
    allow_errors, nan_row = spec.allow_errors, (math.nan,) * len(value_names)
    names = tuple(axis.name for axis in spec.axes)
    split = max((i + 1 for i, name in enumerate(names) if name in _MODEL_NAMES),
                default=0)
    inner_names = names[split:]
    kernel = spec.target == "decoherence_factor" and inner_names == ("time",)
    columns = _product_columns(spec.axes, count)
    cell_columns, inner_columns = columns[:split], columns[split:]
    size = math.prod(map(_axis_length, spec.axes[split:]))  # points per cell
    value_columns = [array("d") for _ in value_names]
    point = dict(spec.fixed)
    for start in range(0, count, size):
        stop = start + size
        point.update(zip(names, [column[start] for column in cell_columns]))
        try:
            params = _model_params(point)
        except _POINT_ERRORS as exc:  # a model that fails fails each point of its cell
            if not allow_errors:
                raise _point_error(names, columns, start, exc) from exc
            for column in value_columns:
                column.fromlist([math.nan] * size)
            continue
        for begin in range(start, stop, block):
            end = min(begin + block, stop)
            if kernel:
                values = [_decoherence_factors(params, inner_columns[0][begin:end])]
            else:
                rows = []
                for index in range(begin, end):
                    point.update(zip(inner_names, [column[index] for column in inner_columns]))
                    try:
                        rows.append(evaluate(params, point))
                    except _POINT_ERRORS as exc:
                        if not allow_errors:
                            raise _point_error(names, columns, index, exc) from exc
                        rows.append(nan_row)
                values = [list(column) for column in zip(*rows)]
            if not (allow_errors or all(all(map(math.isfinite, v)) for v in values)):
                for index, row in enumerate(zip(*values), begin):
                    if not all(map(math.isfinite, row)):
                        combo = tuple(column[index] for column in columns)
                        raise DomainError(f"non-finite entry in row {combo + row!r}")
            for column, entries in zip(value_columns, values):
                column.fromlist(entries)
    return Dataset(columns=names + value_names, rows=Rows(columns + value_columns),
                   metadata=describe_spec(spec))


def describe_spec(spec: SweepSpec) -> dict:
    """Self-describing metadata block recorded with every dataset."""
    from . import __version__

    axes = []
    for axis in spec.axes:
        if axis.scale == VALUES:
            axes.append({"name": axis.name, "scale": axis.scale,
                         "values": list(axis.values)})
        else:
            axes.append({"name": axis.name, "scale": axis.scale,
                         "min": axis.start, "max": axis.stop, "count": axis.count})
    return {
        "generator": "mirrorphase",
        "version": __version__,
        "target": spec.target,
        "axes": axes,
        "fixed": {name: spec.fixed[name] for name in sorted(spec.fixed)},
        "allow_errors": spec.allow_errors,
    }


FIGURE_RANGE = range(2, 9)

_VELOCITY_FAMILY = (0.1, 0.3, 0.5, 0.7, 0.9)
_LAMBDA_FAMILY = (1.0, 5.0, 10.0, 15.0)
_THETA_FAMILY = (0.1 * math.pi, 0.25 * math.pi, 0.45 * math.pi)


def figure_preset(n: int) -> SweepSpec:
    """Sweep spec reproducing the dataset behind figure ``n`` (2..8).

    Fixed parameters follow each figure caption; grids and families are
    documented conventions (200 time points, 50x50 surfaces, velocity
    family 0.1..0.9, plate-coupling family 1/5/10/15) chosen to span the
    figures' visible dynamic range.
    """
    if n not in FIGURE_RANGE:
        raise DomainError(f"figure number must be in 2..8, got {n}")
    if n == 2:
        # decoherence factor vs time, one curve per velocity
        return SweepSpec(
            target="decoherence_factor",
            axes=(Axis.from_values("velocity", _VELOCITY_FAMILY),
                  Axis.linear("time", 0.0, 2.0 * TWO_PI, 200)),
            fixed={"gamma0": 0.05, "lambda": 5.0, "omega": 0.03})
    if n == 3:
        # decoherence factor at half a period vs velocity, one curve per coupling
        return SweepSpec(
            target="decoherence_factor",
            axes=(Axis.from_values("lambda", _LAMBDA_FAMILY),
                  Axis.linear("velocity", 0.01, 0.95, 95)),
            fixed={"gamma0": 0.05, "omega": 0.03, "time": math.pi})
    if n == 4:
        # normalized phase surface over initial angle and velocity
        return SweepSpec(
            target="gp_normalized",
            axes=(Axis.linear("theta", 0.02 * math.pi, 0.98 * math.pi, 50),
                  Axis.linear("velocity", 0.01, 0.95, 50)),
            fixed={"gamma0": 0.05, "lambda": 15.0, "omega": 0.03, "time": TWO_PI})
    if n == 5:
        # normalized phase vs time; gamma0 = 0 gives the free-evolution reference line
        return SweepSpec(
            target="gp_normalized",
            axes=(Axis.from_values("gamma0", (0.0, 0.1)),
                  Axis.from_values("lambda", (1.0, 5.0, 15.0)),
                  Axis.from_values("velocity", (0.1, 0.5, 0.9)),
                  Axis.linear("time", 0.0, 2.0 * TWO_PI, 200)),
            fixed={"theta": 0.1 * math.pi, "omega": 0.03})
    if n == 6:
        return SweepSpec(
            target="gp_normalized",
            axes=(Axis.from_values("theta", _THETA_FAMILY),
                  Axis.linear("velocity", 0.01, 0.95, 95)),
            fixed={"gamma0": 0.05, "lambda": 1.0, "omega": 0.03, "time": TWO_PI})
    if n == 7:
        return SweepSpec(
            target="gp_normalized",
            axes=(Axis.from_values("theta", _THETA_FAMILY),
                  Axis.linear("velocity", 0.01, 0.95, 95)),
            fixed={"gamma0": 0.5, "lambda": 5.0, "omega": 0.03, "time": TWO_PI})
    # n == 8: exact vs first-order closed form, per initial angle
    return SweepSpec(
        target="gp_perturbative_ratio",
        axes=(Axis.from_values("theta", _THETA_FAMILY),
              Axis.linear("velocity", 0.01, 0.95, 95)),
        fixed={"gamma0": 0.5, "lambda": 5.0, "omega": 0.03})
