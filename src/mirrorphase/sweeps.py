"""Declarative parameter sweeps and the preset grids behind the paper-style figures.

A sweep is a Cartesian grid over named axes plus fixed parameter
assignments, evaluated for one target quantity. Evaluation is
deterministic: the same spec always produces the same numeric table,
row-ordered lexicographically by the axes. Every axis value and fixed
value is a double from construction on, so both file formats spell it
alike. The model parameters are built once per cell of the model axes
(gamma0, lambda, omega, velocity), and each row is checked as it is made.

Grid resolutions and the velocity / plate-coupling families used by the
presets are reproduction conventions documented here, not published data;
the fixed physical parameters come from the respective figure captions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import DomainError, NoDecoherenceError, QuadratureError, SweepError
from .model import ModelParams, decoherence_factor, decoherence_time
from .phase import TWO_PI, gp_exact, gp_perturbative

TARGETS = ("decoherence_factor", "gp_exact", "gp_normalized",
           "gp_perturbative_ratio", "decoherence_time")

# name -> (validator, human description of the domain)
_PARAMETER_DOMAINS = {
    "gamma0": (lambda x: 0.0 <= x < math.inf, "gamma0 must be finite and >= 0"),
    "lambda": (lambda x: 0.0 <= x < math.inf, "lambda must be finite and >= 0"),
    "omega": (lambda x: 0.0 < x < math.inf, "omega must be finite and > 0"),
    "velocity": (lambda x: 0.0 <= x < 1.0, "velocity must lie in [0, 1)"),
    "theta": (lambda x: 0.0 < x < math.pi,
              "theta must lie strictly inside (0, pi); the poles are excluded"),
    "time": (lambda x: 0.0 <= x < math.inf, "time must be finite and >= 0"),
}

_MODEL_NAMES = ("gamma0", "lambda", "omega", "velocity")

# target -> (required parameter names, optional parameter names)
_TARGET_PARAMS = {
    "decoherence_factor": (_MODEL_NAMES + ("time",), ()),
    "gp_exact": (_MODEL_NAMES + ("theta",), ("time",)),
    "gp_normalized": (_MODEL_NAMES + ("theta",), ("time",)),
    "gp_perturbative_ratio": (_MODEL_NAMES + ("theta",), ()),
    "decoherence_time": (_MODEL_NAMES, ()),
}

TARGET_COLUMNS = {
    "decoherence_factor": ("decoherence_factor",),
    "gp_exact": ("phase", "quadrature_error", "near_degenerate"),
    "gp_normalized": ("phase_normalized", "quadrature_error", "near_degenerate"),
    "gp_perturbative_ratio": ("phase_exact", "phase_perturbative", "phase_ratio"),
    "decoherence_time": ("decoherence_time",),
}

LINEAR = "linear"
LOG = "log"
VALUES = "values"

# run_sweep holds every row in memory (about 100 bytes per point), and
# writing the dataset as CSV and then JSON peaks near 300 bytes per point;
# reading it back peaks near 110 bytes per point from CSV and 180 from JSON,
# whose reader also holds the file text (tracemalloc, the held rows
# included: write 308, read 105 and 181 for a 250,000-point sweep of four
# columns; write 254, read 113 and 157 for a 500,000-point sweep of one
# axis); the cap keeps a sweep below about 150 MB
MAX_SWEEP_POINTS = 500_000


def _as_float(value: object, label: str) -> float:
    """``value`` as a double; a string or a value ``float`` refuses is a DomainError."""
    if not isinstance(value, (str, bytes)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{label}: expected a number, got {value!r}")


@dataclass(frozen=True)
class Axis:
    """One sweep dimension: a generated range or an explicit value family."""

    name: str
    scale: str
    start: float | None = None
    stop: float | None = None
    count: int | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        # every coordinate is a double, so CSV and JSON spell it alike
        label = f"axis {self.name!r}"
        for key in ("start", "stop"):
            value = getattr(self, key)
            if value is not None:
                object.__setattr__(self, key, _as_float(value, label))
        if self.values is not None:
            object.__setattr__(self, "values",
                               tuple(_as_float(v, label) for v in self.values))
        if self.scale == VALUES:
            if not self.values:
                raise DomainError(f"axis {self.name!r}: explicit axis needs at least one value")
            if self.start is not None or self.stop is not None or self.count is not None:
                raise DomainError(f"axis {self.name!r}: values exclude min/max/count")
        elif self.scale in (LINEAR, LOG):
            if self.values is not None:
                raise DomainError(f"axis {self.name!r}: min/max/count exclude values")
            if self.start is None or self.stop is None or self.count is None:
                raise DomainError(f"axis {self.name!r}: min, max and count are all required")
            if self.count < 2:
                raise DomainError(f"axis {self.name!r}: count must be >= 2, got {self.count}")
            if not self.stop > self.start:
                raise DomainError(f"axis {self.name!r}: max must exceed min "
                                  f"({self.start} .. {self.stop})")
            if self.scale == LOG and not self.start > 0.0:
                raise DomainError(f"axis {self.name!r}: log scale needs min > 0")
        else:
            raise DomainError(f"axis {self.name!r}: unknown scale {self.scale!r}")

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
        if self.scale == VALUES:
            return self.values
        n = self.count - 1
        if self.scale == LINEAR:
            start, span = self.start, self.stop - self.start
            if math.isfinite(span * n):
                inner = (start + span * i / n for i in range(1, n))
            else:
                # span * i overflows near the float limit, so divide first
                step = span / n
                inner = (start + step * i for i in range(1, n))
            return (start, *inner, self.stop)
        la, lb = math.log(self.start), math.log(self.stop)
        inner = (math.exp(la + (lb - la) * i / n) for i in range(1, n))
        return (self.start, *inner, self.stop)


@dataclass(frozen=True)
class SweepSpec:
    """Target quantity, sweep axes, fixed assignments and the error policy."""

    target: str
    axes: tuple[Axis, ...] = ()
    fixed: dict[str, float] = field(default_factory=dict)
    allow_errors: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "fixed", {
            name: _as_float(value, f"fixed parameter {name!r}")
            for name, value in self.fixed.items()})

    def validate(self) -> None:
        if self.target not in TARGETS:
            raise DomainError(f"unknown sweep target {self.target!r}; "
                              f"expected one of {TARGETS}")
        required, optional = _TARGET_PARAMS[self.target]
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
            if name not in _PARAMETER_DOMAINS:
                raise DomainError(f"unknown parameter {name!r}")
            if name not in allowed:
                raise DomainError(f"parameter {name!r} does not apply to target "
                                  f"{self.target!r}")
        for name in required:
            if name not in seen:
                raise DomainError(f"target {self.target!r} needs parameter {name!r} "
                                  "as an axis or a fixed value")
        for name, value in self.fixed.items():
            _check_domain(name, value)
        for axis in self.axes:
            # every parameter domain is an interval, and range grids run
            # monotonically from min to max, so the endpoints decide
            ends = axis.values if axis.scale == VALUES else (axis.start, axis.stop)
            for value in ends:
                _check_domain(axis.name, value, axis=True)

    def point_count(self) -> int:
        """Grid size, from the axis lengths alone."""
        return math.prod(len(axis.values) if axis.scale == VALUES else axis.count
                         for axis in self.axes)


def _check_domain(name: str, value: float, axis: bool = False) -> None:
    ok, message = _PARAMETER_DOMAINS[name]
    if not ok(value):
        where = "axis value" if axis else "fixed value"
        raise DomainError(f"{message} ({where} {value!r})")


@dataclass(frozen=True)
class Dataset:
    """Columnar numeric table plus the metadata that regenerates it."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    metadata: dict


def _model_params(point: dict[str, float]) -> ModelParams:
    return ModelParams(gamma0=point["gamma0"], lambda_tilde=point["lambda"],
                       omega_tilde=point["omega"], velocity=point["velocity"])


def _evaluate(target: str, params: ModelParams,
              point: dict[str, float]) -> tuple[float, ...]:
    if target == "decoherence_factor":
        return (decoherence_factor(params, point["time"]),)
    if target == "decoherence_time":
        return (decoherence_time(params),)
    if target == "gp_perturbative_ratio":
        exact = gp_exact(params, point["theta"])
        approx = gp_perturbative(params, point["theta"])
        return (exact.phase, approx, exact.phase / approx)
    result = gp_exact(params, point["theta"], s_final=point.get("time", TWO_PI))
    if target == "gp_exact":
        return (result.phase, result.quadrature_error, float(result.near_degenerate))
    return (result.normalized, result.quadrature_error, float(result.near_degenerate))


def run_sweep(spec: SweepSpec) -> Dataset:
    """Evaluate the target over the Cartesian grid of the spec's axes.

    Rows are ordered lexicographically by the axes (first axis slowest).
    The model parameters are built once per model cell: the axes up to the
    last model axis (gamma0, lambda, omega, velocity) pick the cell, and
    the axes after it (time, theta) vary inside it. Each row is checked as
    it is made: its width must match the columns and, unless errors are
    allowed, every entry must be finite (``DomainError`` otherwise).

    By default any per-point failure aborts the sweep, reporting the
    offending coordinates; with ``allow_errors`` the failed points produce
    NaN value columns instead. Grids of more than ``MAX_SWEEP_POINTS``
    points are refused before any is evaluated.
    """
    spec.validate()
    count = spec.point_count()
    if count > MAX_SWEEP_POINTS:
        raise DomainError(f"sweep has {count} points; at most {MAX_SWEEP_POINTS} "
                          "are allowed")
    target, allow_errors = spec.target, spec.allow_errors
    names = tuple(axis.name for axis in spec.axes)
    value_columns = TARGET_COLUMNS[target]
    width = len(names) + len(value_columns)
    split = max((i + 1 for i, name in enumerate(names) if name in _MODEL_NAMES),
                default=0)
    cell_names, inner_names = names[:split], names[split:]
    inner_grids = [axis.grid() for axis in spec.axes[split:]]
    point = dict(spec.fixed)
    rows = []
    for cell in itertools.product(*(axis.grid() for axis in spec.axes[:split])):
        point.update(zip(cell_names, cell))
        params = None
        for inner in itertools.product(*inner_grids):
            point.update(zip(inner_names, inner))
            try:
                # built inside the try: a model that fails fails each point of its cell
                if params is None:
                    params = _model_params(point)
                values = _evaluate(target, params, point)
            except (DomainError, NoDecoherenceError, QuadratureError) as exc:
                if not allow_errors:
                    combo = cell + inner
                    coords = ", ".join(f"{n}={v!r}" for n, v in zip(names, combo))
                    where = f" at {coords}" if coords else ""
                    raise SweepError(f"sweep point failed{where}: {exc}",
                                     coordinates=dict(zip(names, combo))) from exc
                values = (math.nan,) * len(value_columns)
            row = cell + inner + values
            if len(row) != width:
                raise DomainError(f"row width {len(row)} != column count {width}")
            if not (allow_errors or all(map(math.isfinite, row))):
                raise DomainError(f"non-finite entry in row {row!r}")
            rows.append(row)
    return Dataset(columns=names + value_columns, rows=tuple(rows),
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
