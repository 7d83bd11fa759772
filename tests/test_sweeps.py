"""Sweep grids, validation, determinism, and the figure presets."""

import itertools
import math
import pickle
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mirrorphase import (Axis, Dataset, DegenerateStateError, DomainError, ModelParams,
                         NoDecoherenceError, SweepError, SweepSpec, decoherence_factor,
                         decoherence_time, figure_preset, gp_exact, gp_perturbative, run_sweep,
                         sweeps, unitary_gp)
from mirrorphase.sweeps import Coded, Rows

TWO_PI = 2.0 * math.pi


@pytest.fixture
def no_grids(monkeypatch):
    """Fail any test that enumerates an axis grid."""
    def no_grid(self):
        raise AssertionError(f"axis {self.name!r} was enumerated")
    monkeypatch.setattr(Axis, "grid", no_grid)
    monkeypatch.setattr(Axis, "_generate", no_grid)


class TestAxis:
    def test_linear_grid_hits_endpoints(self):
        grid = Axis.linear("velocity", 0.1, 0.9, 5).grid()
        assert grid[0] == 0.1 and grid[-1] == 0.9
        assert grid == pytest.approx((0.1, 0.3, 0.5, 0.7, 0.9), rel=1e-15)

    def test_linear_grid_near_the_float_limit(self):
        """(max - min) * (count - 1) overflows here; the grid stays finite."""
        grid = Axis.linear("time", 0.0, 1.7e308, 5).grid()
        assert all(map(math.isfinite, grid))
        assert all(a < b for a, b in zip(grid, grid[1:]))
        assert grid == pytest.approx((0.0, 4.25e307, 8.5e307, 1.275e308, 1.7e308),
                                     rel=1e-15)
        dataset = run_sweep(SweepSpec(
            target="decoherence_factor", axes=(Axis.linear("time", 0.0, 1.7e308, 5),),
            fixed={"gamma0": 0.05, "lambda": 5.0, "omega": 0.03, "velocity": 0.5}))
        assert [row[0] for row in dataset.rows] == list(grid)

    @pytest.mark.parametrize("axis", list(dict.fromkeys([
        *(axis for n in range(2, 9) for axis in figure_preset(n).axes
          if axis.scale == "linear"),
        Axis.linear("velocity", 0.01, 0.95, 250),
        Axis.linear("velocity", 0.0731, 0.95, 250),
        Axis.linear("time", 0.0, 2.0 * TWO_PI, 250),
    ])), ids=lambda axis: f"{axis.name}-{axis.start!r}-{axis.stop!r}-{axis.count}")
    def test_linear_grid_bits(self, axis):
        """Figure and dense grids keep start + (stop - start) * i / n, bit for bit."""
        n = axis.count - 1
        formula = [axis.start + (axis.stop - axis.start) * i / n for i in range(1, n)]
        assert axis.grid() == (axis.start, *formula, axis.stop)

    def test_log_grid(self):
        grid = Axis.log("gamma0", 0.01, 1.0, 3).grid()
        assert grid == pytest.approx((0.01, 0.1, 1.0), rel=1e-12)

    def test_values_grid(self):
        assert Axis.from_values("lambda", (1.0, 5.0, 10.0, 15.0)).grid() == \
            (1.0, 5.0, 10.0, 15.0)

    @given(name=st.sampled_from(("gamma0", "lambda", "omega", "time")),
           scale=st.sampled_from(("linear", "log", "values")),
           ends=st.lists(st.floats(min_value=0.0, max_value=1.7976931348623157e308),
                         min_size=2, max_size=2, unique=True),
           count=st.integers(min_value=2, max_value=2000))
    @settings(max_examples=300, deadline=None)
    # exp(log(x)) rounds the middle value of this log grid below its min
    @example(name="gamma0", scale="log",
             ends=[1.7976931348622734e308, 1.7976931348622736e308], count=3)
    def test_grids_of_valid_axes_are_finite(self, name, scale, ends, count):
        """A grid runs from min to max without leaving them and stays finite
        up to the float limit, so validate checks only the ends and
        run_sweep need not check the grid."""
        low, high = ends if scale == "values" else sorted(ends)
        assume(scale != "log" or low > 0.0)
        if scale == "values":
            axis = Axis.from_values(name, (low, high))
        else:
            axis = Axis(name=name, scale=scale, start=low, stop=high, count=count)
        fixed = {key: 0.5 for key in ("gamma0", "lambda", "omega", "velocity", "time")
                 if key != name}
        spec = SweepSpec(target="decoherence_factor", axes=(axis,), fixed=fixed)
        try:
            spec.validate()
        except DomainError:
            assume(False)
        grid = axis.grid()
        assert all(map(math.isfinite, grid))
        assert grid[0] == low and grid[-1] == high
        assert all(min(ends) <= x <= max(ends) for x in grid)
        assert len(grid) == (2 if scale == "values" else count)

    @pytest.mark.parametrize("bad", [
        lambda: Axis.linear("velocity", 0.5, 0.5, 2),
        lambda: Axis.linear("velocity", 0.9, 0.1, 5),
        lambda: Axis.linear("velocity", 0.1, 0.9, 1),
        lambda: Axis.log("gamma0", 0.0, 1.0, 3),
        lambda: Axis.from_values("lambda", ()),
        lambda: Axis(name="velocity", scale="geometric", start=0.0, stop=1.0, count=3),
        lambda: Axis(name="velocity", scale="linear", start=0.0, stop=0.9,
                     count=3, values=(0.1,)),
        lambda: Axis.linear("velocity", "0.1", 0.9, 5),
        lambda: Axis.linear("velocity", 0.1, None, 5),
        lambda: Axis.from_values("lambda", (1.0, "5")),
        lambda: Axis.from_values("lambda", (1.0, [5.0])),
        lambda: SweepSpec(target="decoherence_factor", fixed={"gamma0": "0.05"}),
        lambda: SweepSpec(target="decoherence_factor", fixed={"gamma0": None}),
    ])
    def test_rejected(self, bad):
        with pytest.raises(DomainError):
            bad()

    def test_record_contract(self):
        """Built by keyword or by position; equal only to an Axis with the same
        fields, hashable, and closed to assignment."""
        axis = Axis(name="time", scale="linear", start=0, stop=1, count=3)
        assert axis == Axis("time", "linear", 0.0, 1.0, 3) == Axis.linear("time", 0.0, 1.0, 3)
        assert hash(axis) == hash(Axis.linear("time", 0.0, 1.0, 3))
        assert axis != Axis.linear("time", 0.0, 1.0, 4) and axis != Axis.log("time", 1.0, 2.0, 3)
        assert axis != ("time", "linear", 0.0, 1.0, 3, None)
        assert repr(axis) == ("Axis(name='time', scale='linear', start=0.0, stop=1.0, "
                              "count=3, values=None)")
        assert repr(Axis.from_values("lambda", (1, 5))) == (
            "Axis(name='lambda', scale='values', start=None, stop=None, count=None, "
            "values=(1.0, 5.0))")
        assert pickle.loads(pickle.dumps(axis)) == axis
        with pytest.raises(AttributeError):
            axis.count = 4
        with pytest.raises(AttributeError):
            del axis.count

    def test_numbers_become_doubles(self):
        axis = Axis.linear("time", 0, 10, 3)
        assert (type(axis.start), type(axis.stop)) == (float, float)
        assert all(type(x) is float for x in axis.grid())
        assert all(type(x) is float for x in Axis.from_values("lambda", (1, 5)).values)
        spec = SweepSpec(target="decoherence_factor", fixed={"gamma0": 1, "omega": 0.03})
        assert spec.fixed == {"gamma0": 1.0, "omega": 0.03}
        assert all(type(x) is float for x in spec.fixed.values())


def basic_spec(**overrides):
    settings = dict(
        target="decoherence_factor",
        axes=(Axis.linear("time", 0.0, TWO_PI, 5),),
        fixed={"gamma0": 0.05, "lambda": 5.0, "omega": 0.03, "velocity": 0.5})
    settings.update(overrides)
    return SweepSpec(**settings)


class TestSweepSpecValidation:
    def test_record_contract(self):
        """Built by keyword or by position; equal only to a SweepSpec with the
        same fields, unhashable as its fixed values are a dict, and closed to
        assignment."""
        spec = basic_spec()
        assert spec == SweepSpec("decoherence_factor", spec.axes, dict(spec.fixed), False)
        assert spec != basic_spec(allow_errors=True) and spec != basic_spec(axes=())
        assert spec != (spec.target, spec.axes, spec.fixed, spec.allow_errors)
        with pytest.raises(TypeError):
            hash(spec)
        assert repr(SweepSpec(target="decoherence_time", fixed={"gamma0": 1})) == (
            "SweepSpec(target='decoherence_time', axes=(), fixed={'gamma0': 1.0}, "
            "allow_errors=False)")
        with pytest.raises(AttributeError):
            spec.allow_errors = True

    def test_valid(self):
        basic_spec().validate()

    def test_unknown_target(self):
        with pytest.raises(DomainError, match="target"):
            basic_spec(target="entropy").validate()

    def test_theta_axis_touching_pole(self):
        spec = SweepSpec(target="gp_exact",
                         axes=(Axis.linear("theta", 0.0, 0.5 * math.pi, 5),),
                         fixed={"gamma0": 0.05, "lambda": 1.0, "omega": 0.03,
                                "velocity": 0.3})
        with pytest.raises(DomainError, match="pole"):
            spec.validate()

    @pytest.mark.parametrize("allow_errors", [False, True])
    @pytest.mark.parametrize("where", ["axis", "fixed"])
    @pytest.mark.parametrize("target", ["gp_exact", "gp_normalized", "gp_perturbative_ratio"])
    def test_theta_where_the_unitary_phase_rounds_to_zero(self, target, where, allow_errors,
                                                           monkeypatch):
        def no_point(*args, **kwargs):
            raise AssertionError("a point ran before validation refused theta")
        monkeypatch.setattr(sweeps, "gp_exact", no_point)
        monkeypatch.setattr(sweeps, "gp_perturbative", no_point)
        near_pi = math.pi - 1e-9
        fixed = {"gamma0": 0.05, "lambda": 1.0, "omega": 0.03, "velocity": 0.3}
        if where == "axis":
            axes = (Axis.linear("theta", 0.5 * math.pi, near_pi, 5),)
        else:
            axes, fixed["theta"] = (), near_pi
        spec = SweepSpec(target=target, axes=axes, fixed=fixed, allow_errors=allow_errors)
        with pytest.raises(DegenerateStateError) as info:
            run_sweep(spec)
        message = str(info.value)
        assert message.startswith("theta must lie strictly inside (0, pi), below ")
        assert f"got {near_pi!r};" in message and message.endswith(f"({where} value)")

    def test_velocity_axis_reaching_light_speed(self):
        spec = basic_spec(axes=(Axis.linear("velocity", 0.1, 1.0, 5),
                                Axis.linear("time", 0.0, TWO_PI, 5)),
                          fixed={"gamma0": 0.05, "lambda": 5.0, "omega": 0.03})
        with pytest.raises(DomainError, match="velocity"):
            spec.validate()

    def test_missing_required(self):
        with pytest.raises(DomainError, match="needs parameter"):
            basic_spec(fixed={"gamma0": 0.05, "lambda": 5.0, "omega": 0.03}).validate()

    def test_axis_fixed_collision(self):
        with pytest.raises(DomainError, match="both"):
            basic_spec(axes=(Axis.linear("velocity", 0.1, 0.9, 5),
                             Axis.linear("time", 0.0, TWO_PI, 5))).validate()

    def test_irrelevant_parameter(self):
        with pytest.raises(DomainError, match="does not apply"):
            basic_spec(fixed={"gamma0": 0.05, "lambda": 5.0, "omega": 0.03,
                              "velocity": 0.5, "theta": 0.3}).validate()

    def test_time_forbidden_for_perturbative_ratio(self):
        spec = SweepSpec(target="gp_perturbative_ratio",
                         axes=(Axis.linear("velocity", 0.1, 0.9, 3),),
                         fixed={"gamma0": 0.5, "lambda": 5.0, "omega": 0.03,
                                "theta": 0.25 * math.pi, "time": TWO_PI})
        with pytest.raises(DomainError, match="does not apply"):
            spec.validate()

    @pytest.mark.parametrize("overrides", [
        dict(axes=(), fixed={"gamma0": 0.05, "lambda": 5.0, "omega": 0.03,
                             "velocity": 0.5, "time": math.inf}),
        dict(axes=(Axis.linear("time", 0.0, math.inf, 5),)),
        dict(axes=(Axis.from_values("gamma0", (0.05, math.inf)),
                   Axis.linear("time", 0.0, TWO_PI, 5)),
             fixed={"lambda": 5.0, "omega": 0.03, "velocity": 0.5}),
        dict(axes=(Axis.log("omega", 0.01, math.inf, 3),
                   Axis.linear("time", 0.0, TWO_PI, 5)),
             fixed={"gamma0": 0.05, "lambda": 5.0, "velocity": 0.5}),
    ])
    def test_infinite_values_rejected(self, overrides):
        with pytest.raises(DomainError, match="finite"):
            basic_spec(**overrides).validate()

    def test_range_axes_checked_by_endpoints(self, no_grids):
        spec = basic_spec(axes=(Axis.linear("time", 0.0, TWO_PI, 10**9),
                                Axis.log("velocity", 1e-3, 0.9, 10**6)),
                          fixed={"gamma0": 0.05, "lambda": 5.0, "omega": 0.03})
        spec.validate()
        assert spec.point_count() == 10**15


class TestRunSweep:
    def test_deterministic(self):
        spec = basic_spec()
        assert run_sweep(spec).rows == run_sweep(spec).rows

    def test_lexicographic_order_and_shape(self):
        spec = SweepSpec(
            target="decoherence_factor",
            axes=(Axis.from_values("velocity", (0.1, 0.5)),
                  Axis.linear("time", 0.0, TWO_PI, 3)),
            fixed={"gamma0": 0.05, "lambda": 5.0, "omega": 0.03})
        data = run_sweep(spec)
        assert data.columns == ("velocity", "time", "decoherence_factor")
        assert len(data.rows) == 6
        assert [row[0] for row in data.rows] == [0.1, 0.1, 0.1, 0.5, 0.5, 0.5]
        assert [row[1] for row in data.rows][:3] == [0.0, math.pi, TWO_PI]

    def test_unitary_point(self):
        spec = SweepSpec(
            target="gp_exact",
            axes=(Axis.from_values("theta", (0.3 * math.pi,)),),
            fixed={"gamma0": 0.0, "lambda": 1.0, "omega": 0.03, "velocity": 0.5})
        data = run_sweep(spec)
        assert len(data.rows) == 1
        assert data.rows[0][1] == pytest.approx(unitary_gp(0.3 * math.pi), abs=1e-9)

    def test_default_period_for_phase_targets(self):
        fixed = {"gamma0": 0.05, "lambda": 1.0, "omega": 0.03, "velocity": 0.3}
        axes = (Axis.from_values("theta", (0.1 * math.pi,)),)
        implicit = run_sweep(SweepSpec(target="gp_exact", axes=axes, fixed=fixed))
        explicit = run_sweep(SweepSpec(target="gp_exact", axes=axes,
                                       fixed=dict(fixed, time=TWO_PI)))
        assert implicit.rows[0][1] == explicit.rows[0][1]

    def test_fail_fast_names_coordinates(self):
        spec = SweepSpec(
            target="decoherence_time",
            axes=(Axis.from_values("gamma0", (0.0, 0.1)),),
            fixed={"lambda": 5.0, "omega": 0.03, "velocity": 0.5})
        with pytest.raises(SweepError, match="gamma0=0.0"):
            run_sweep(spec)

    def test_fail_fast_without_axes_names_no_coordinates(self):
        spec = SweepSpec(target="decoherence_time",
                         fixed={"gamma0": 0.0, "lambda": 1.0, "omega": 0.03,
                                "velocity": 0.5})
        with pytest.raises(SweepError, match=r"^sweep point failed: gamma0 = 0"):
            run_sweep(spec)

    def test_error_rows_opt_in(self):
        spec = SweepSpec(
            target="decoherence_time",
            axes=(Axis.from_values("gamma0", (0.0, 0.1)),),
            fixed={"lambda": 5.0, "omega": 0.03, "velocity": 0.5},
            allow_errors=True)
        data = run_sweep(spec)
        assert math.isnan(data.rows[0][1])
        assert math.isfinite(data.rows[1][1])

    def test_ratio_target_columns(self):
        spec = SweepSpec(
            target="gp_perturbative_ratio",
            axes=(Axis.from_values("velocity", (0.3,)),),
            fixed={"gamma0": 0.5, "lambda": 5.0, "omega": 0.03,
                   "theta": 0.25 * math.pi})
        data = run_sweep(spec)
        assert data.columns == ("velocity", "phase_exact", "phase_perturbative",
                                "phase_ratio")
        _, exact, approx, ratio = data.rows[0]
        assert ratio == pytest.approx(exact / approx, rel=1e-15)

    @pytest.mark.parametrize("allow_errors", [False, True])
    def test_ratio_where_the_first_order_phase_is_zero(self, allow_errors):
        # at this gamma0 the first-order correction cancels pi*(1 + cos(1.8)) exactly
        zero_at = 2.2832407350039605
        spec = SweepSpec(target="gp_perturbative_ratio",
                         axes=(Axis.from_values("gamma0", (0.05, zero_at)),),
                         fixed={"lambda": 0.0, "omega": 0.03, "velocity": 0.0, "theta": 1.8},
                         allow_errors=allow_errors)
        assert gp_perturbative(ModelParams(zero_at, 0.0, 0.03, 0.0), 1.8) == 0.0
        if not allow_errors:
            with pytest.raises(SweepError, match=r"at gamma0=2\.2832407350039605: the "
                                                 r"first-order phase is 0, so phase_ratio "
                                                 r"is undefined$"):
                run_sweep(spec)
            return
        first, second = run_sweep(spec).rows
        assert all(map(math.isfinite, first)) and second[0] == zero_at
        assert all(map(math.isnan, second[1:]))


MODEL = {"gamma0": 0.05, "lambda": 5.0, "omega": 0.03, "velocity": 0.5}


def without(*names):
    return {name: value for name, value in MODEL.items() if name not in names}


def reference_values(spec, point):
    """The target's values at ``point`` from the public functions, with a fresh model."""
    params = ModelParams(gamma0=point["gamma0"], lambda_tilde=point["lambda"],
                         omega_tilde=point["omega"], velocity=point["velocity"])
    if spec.target == "decoherence_factor":
        return (decoherence_factor(params, point["time"]),)
    if spec.target == "decoherence_time":
        return (decoherence_time(params),)
    result = gp_exact(params, point["theta"], s_final=point.get("time", TWO_PI))
    phase = result.phase if spec.target == "gp_exact" else result.normalized
    return (phase, result.quadrature_error, float(result.near_degenerate))


def reference_rows(spec):
    """The sweep's rows evaluated point by point, with a fresh model each time;
    with ``allow_errors`` a point that raises gets NaN values."""
    names = tuple(axis.name for axis in spec.axes)
    nan = (math.nan,) * len(sweeps.TARGET_COLUMNS[spec.target])
    rows = []
    for combo in itertools.product(*(axis.grid() for axis in spec.axes)):
        point = dict(spec.fixed)
        point.update(zip(names, combo))
        try:
            values = reference_values(spec, point)
        except (DomainError, NoDecoherenceError):
            if not spec.allow_errors:
                raise
            values = nan
        rows.append(combo + values)
    return tuple(rows)


class TestPerCellEvaluation:
    """run_sweep evaluates one cell of the model axes at a time; its columns
    must be bit-identical to the public functions called with a fresh model
    at every point, whatever the axis order."""

    @pytest.mark.parametrize("spec", [
        SweepSpec(target="decoherence_factor",
                  axes=(Axis.linear("time", 0.0, TWO_PI, 4),
                        Axis.linear("velocity", 0.1, 0.9, 5)),
                  fixed=without("velocity")),
        SweepSpec(target="gp_exact",
                  axes=(Axis.linear("theta", 0.1 * math.pi, 0.9 * math.pi, 3),
                        Axis.from_values("lambda", (1.0, 15.0))),
                  fixed=without("lambda")),
        SweepSpec(target="decoherence_factor",
                  axes=(Axis.from_values("lambda", (1.0, 5.0, 15.0)),
                        Axis.linear("velocity", 0.05, 0.95, 4),
                        Axis.linear("time", 0.0, 2.0 * TWO_PI, 7)),
                  fixed=without("lambda", "velocity")),
        SweepSpec(target="gp_exact",
                  axes=(Axis.from_values("velocity", (0.1, 0.9)),
                        Axis.linear("theta", 0.2, 2.9, 2),
                        Axis.linear("time", 1.0, TWO_PI, 2)),
                  fixed=without("velocity")),
        SweepSpec(target="decoherence_factor",
                  axes=(Axis.linear("time", 0.0, TWO_PI, 9),),
                  fixed=MODEL),
        SweepSpec(target="gp_normalized",
                  axes=(Axis.linear("time", 1.0, TWO_PI, 2),
                        Axis.from_values("theta", (0.3, 2.5))),
                  fixed=MODEL),
        SweepSpec(target="decoherence_time",
                  axes=(Axis.log("gamma0", 1e-3, 1.0, 5),
                        Axis.log("omega", 0.01, 1.0, 3)),
                  fixed=without("gamma0", "omega")),
        SweepSpec(target="decoherence_factor",
                  axes=(Axis.from_values("velocity", (0.2, 0.7)),
                        Axis.log("time", 1e-3, 100.0, 6)),
                  fixed=without("velocity")),
        figure_preset(2),
        figure_preset(3),
        SweepSpec(target="decoherence_time",
                  axes=(Axis.from_values("gamma0", (0.0, 0.05)),
                        Axis.from_values("velocity", (0.2, 0.7))),
                  fixed=without("gamma0", "velocity"), allow_errors=True),
        SweepSpec(target="decoherence_factor",
                  # one value column: a block is _BLOCK_ENTRIES points
                  axes=(Axis.linear("time", 0.0, 1e4, 2 * sweeps._BLOCK_ENTRIES + 3),),
                  fixed=MODEL),
        SweepSpec(target="decoherence_factor", fixed={**MODEL, "time": math.pi}),
    ], ids=["model_axis_innermost", "model_axis_innermost_phase",
            "model_axes_outermost", "model_axis_outermost_phase",
            "all_fixed_model", "all_fixed_model_phase",
            "log_model_axes", "log_time_axis", "figure2", "figure3", "allow_errors",
            "time_axis_across_blocks", "no_axes"])
    def test_rows_match_a_fresh_model_per_point(self, spec):
        rows, expected = run_sweep(spec).rows, reference_rows(spec)
        assert len(rows) == len(expected) == spec.point_count()
        for index in range(rows.width):  # bit for bit, NaN and signed zeros included
            column = array("d", [row[index] for row in expected])
            assert rows.column(index).tobytes() == column.tobytes()

    @staticmethod
    def fail_at_half_period(monkeypatch):
        """The exact phase refuses s = pi, so the target's point function fails there."""
        real = sweeps.gp_exact

        def phase(params, theta, s_final=TWO_PI):
            if s_final == math.pi:
                raise DomainError("refused at s = pi")
            return real(params, theta, s_final=s_final)
        monkeypatch.setattr(sweeps, "gp_exact", phase)

    @staticmethod
    def phase_over_time(allow_errors=False):
        return SweepSpec(target="gp_exact",
                         axes=(Axis.from_values("velocity", (0.1, 0.5)),
                               Axis.linear("time", 0.0, TWO_PI, 5)),
                         fixed={**without("velocity"), "theta": 1.0},
                         allow_errors=allow_errors)

    def test_fail_fast_names_the_point_that_failed_mid_cell(self, monkeypatch):
        self.fail_at_half_period(monkeypatch)
        with pytest.raises(SweepError, match=r"at velocity=0\.1, time=3\.14159265358979"
                                              r"3: refused at s = pi$") as info:
            run_sweep(self.phase_over_time())
        assert info.value.coordinates == {"velocity": 0.1, "time": math.pi}

    def test_error_rows_mid_cell(self, monkeypatch):
        self.fail_at_half_period(monkeypatch)
        spec = self.phase_over_time(allow_errors=True)
        data = run_sweep(spec)
        for row, expected in zip(data.rows, reference_rows(spec), strict=True):
            assert row[:2] == expected[:2]
            if row[1] == math.pi:
                assert all(map(math.isnan, row[2:]))
            else:
                assert row[2:] == expected[2:]

    @pytest.mark.parametrize("allow_errors", [False, True])
    def test_each_point_is_evaluated_once(self, monkeypatch, allow_errors):
        """The exact phase refuses s = 1e8: with allow_errors that point is a
        NaN row, and otherwise the calls stop at it."""
        real, calls = sweeps.gp_exact, []

        def counted(params, theta, s_final=TWO_PI):
            calls.append(s_final)
            if s_final == 1e8:
                raise DomainError("refused at s = 1e8")
            return real(params, theta, s_final=s_final)
        monkeypatch.setattr(sweeps, "gp_exact", counted)
        times = (1.0, 2.0, 3.0, 1e8, 4.0, 5.0, 6.0, 7.0)
        spec = SweepSpec(target="gp_exact", axes=(Axis.from_values("time", times),),
                         fixed={**MODEL, "theta": 1.0}, allow_errors=allow_errors)
        if allow_errors:
            phases = [row[1] for row in run_sweep(spec).rows]
            assert list(map(math.isnan, phases)) == [False] * 3 + [True] + [False] * 4
            assert calls == list(times)
            return
        with pytest.raises(SweepError, match=r"at time=100000000\.0: refused at s = 1e8$") as info:
            run_sweep(spec)
        assert info.value.coordinates == {"time": 1e8}
        assert calls == list(times[:4])

    def test_each_row_is_checked_as_it_is_made(self, monkeypatch):
        spec = SweepSpec(target="decoherence_factor",
                         axes=(Axis.linear("time", 0.0, TWO_PI, 3),), fixed=MODEL)
        monkeypatch.setattr(sweeps, "_decoherence_factors", lambda params, times: [
            math.inf if s == math.pi else 0.5 for s in times])
        with pytest.raises(DomainError, match=r"non-finite entry in row \(3\.14"):
            run_sweep(spec)
        rows = run_sweep(SweepSpec(target=spec.target, axes=spec.axes, fixed=MODEL,
                                   allow_errors=True)).rows
        assert rows == ((0.0, 0.5), (math.pi, math.inf), (TWO_PI, 0.5))
        # a point function's rows are checked alike
        spec = SweepSpec(target="decoherence_time",
                         axes=(Axis.from_values("gamma0", (0.05, 0.5)),),
                         fixed=without("gamma0"))
        monkeypatch.setattr(sweeps, "decoherence_time", lambda params: math.inf)
        with pytest.raises(DomainError, match=r"non-finite entry in row \(0\.05, inf\)"):
            run_sweep(spec)

    @pytest.mark.parametrize("target, block", [("decoherence_factor", 4096), ("gp_exact", 1365)])
    def test_a_block_holds_the_entry_budget(self, monkeypatch, target, block):
        """A block holds as many points as 4,096 values fill: 4,096 of one
        value column, 1,365 of three. A non-finite first value is refused
        once its block has been evaluated, and not before."""
        evaluated = []

        def factors(params, times):
            evaluated.extend(times)
            return [math.inf] + [0.5] * (len(times) - 1)

        def phase(params, theta, s_final):
            evaluated.append(s_final)
            return SimpleNamespace(phase=math.inf if len(evaluated) == 1 else 1.0,
                                   quadrature_error=0.0, near_degenerate=False)

        monkeypatch.setattr(sweeps, "_decoherence_factors", factors)
        monkeypatch.setattr(sweeps, "gp_exact", phase)
        spec = SweepSpec(target=target, axes=(Axis.linear("time", 0.0, 1.0, 2 * block + 1),),
                         fixed={**MODEL, "theta": 1.0} if target == "gp_exact" else MODEL)
        with pytest.raises(DomainError, match=r"non-finite entry in row \(0\.0, inf"):
            run_sweep(spec)
        assert len(evaluated) == block

    @pytest.mark.parametrize("target", sweeps.TARGETS)
    def test_each_point_function_gives_one_entry_per_value_column(self, target):
        """``run_sweep`` moves a point function's values into the value
        columns unchecked for width: at a valid point, each target's point
        function gives one finite entry per value column."""
        required, optional, value_names, evaluate = sweeps._TARGETS[target]
        point = {**MODEL, "theta": 1.0, "time": 1.0}
        point = {name: point[name] for name in required + optional}
        values = evaluate(sweeps._model_params(point), point)
        assert len(values) == len(value_names)
        assert all(type(x) is float and math.isfinite(x) for x in values)

    @pytest.mark.parametrize("allow_errors", [False, True])
    def test_a_cell_whose_model_fails(self, monkeypatch, allow_errors):
        real = sweeps.ModelParams

        def params(**fields):
            if fields["velocity"] == 0.5:
                raise DomainError("refused at v = 0.5")
            return real(**fields)
        monkeypatch.setattr(sweeps, "ModelParams", params)
        spec = SweepSpec(target="decoherence_factor",
                         axes=(Axis.from_values("velocity", (0.1, 0.5, 0.9)),
                               Axis.linear("time", 0.0, TWO_PI, 3)),
                         fixed=without("velocity"), allow_errors=allow_errors)
        if not allow_errors:
            with pytest.raises(SweepError, match=r"at velocity=0\.5, time=0\.0: "):
                run_sweep(spec)
            return
        values = [row[2] for row in run_sweep(spec).rows]
        assert [math.isnan(x) for x in values] == [False] * 3 + [True] * 3 + [False] * 3


def held(rows, columns=("a", "b")):
    return Dataset(columns=columns, rows=rows, metadata={}).rows


class TestRows:
    ROWS = ((0.0, 1.5), (1.0, -2.5), (2.0, 3.5), (3.0, 4.5))

    def test_indexing_and_len(self):
        rows = held(self.ROWS)
        assert len(rows) == 4
        assert [rows[i] for i in range(-4, 4)] == list(self.ROWS * 2)
        assert type(rows[0]) is tuple and type(rows[0][0]) is float
        for index in (4, -5):
            with pytest.raises(IndexError):
                rows[index]

    @pytest.mark.parametrize("key", [slice(1, 3), slice(None, None, -1), slice(3, 1),
                                     slice(-3, None, 2), slice(None, -1)])
    def test_slices(self, key):
        part = held(self.ROWS)[key]
        assert part == self.ROWS[key]
        assert list(part) == list(self.ROWS[key])
        assert len(part) == len(self.ROWS[key])

    def test_iteration_and_membership(self):
        rows = held(self.ROWS)
        assert list(rows) == list(self.ROWS)
        assert (1.0, -2.5) in rows and rows.index((2.0, 3.5)) == 2
        assert list(reversed(rows)) == list(reversed(self.ROWS))

    def test_nan_equals_nan(self):
        rows = held(((math.nan, 1.0), (0.5, float("nan"))))
        assert rows == held(((float("nan"), 1.0), (0.5, math.inf - math.inf)))
        assert rows == ((math.nan, 1.0), (0.5, math.nan))
        assert rows != ((math.nan, 1.0), (0.5, 0.5))
        assert rows != held(((math.nan, 1.0), (0.5, 0.5)))

    def test_signed_zeros_compare_equal_and_keep_their_sign(self):
        rows = held(((-0.0, 0.0),))
        assert rows == held(((0.0, -0.0),)) and rows == ((0.0, 0.0),)
        assert [repr(x) for x in rows[0]] == ["-0.0", "0.0"]

    def test_unequal_shapes_and_other_types(self):
        rows = held(self.ROWS)
        assert rows != self.ROWS[:3] and rows != held(self.ROWS[:3])
        assert rows != held(((0.0,), (1.0,), (2.0,), (3.0,)), columns=("a",))
        assert rows != list(self.ROWS) and rows != 4 and rows != "rows"
        assert rows != tuple(map(list, self.ROWS))

    def test_dataset_record_contract(self):
        """Built by keyword or by position; equal only to a Dataset with the
        same fields, unhashable as its metadata is a dict, and closed to
        assignment."""
        dataset = Dataset(columns=("a",), rows=((1.0,),), metadata={"k": 1})
        assert dataset == Dataset(("a",), [(1,)], {"k": 1})
        assert dataset != Dataset(("a",), [(1,)], {"k": 2})
        assert dataset != Dataset(("b",), [(1,)], {"k": 1})
        assert dataset != (("a",), ((1.0,),), {"k": 1})
        with pytest.raises(TypeError):
            hash(dataset)
        assert repr(dataset) == ("Dataset(columns=('a',), rows=<Rows: 1 rows x 1 columns>, "
                                 "metadata={'k': 1})")
        with pytest.raises(AttributeError):
            dataset.metadata = {}

    def test_a_dataset_needs_a_column(self):
        with pytest.raises(DomainError, match=r"^a dataset needs at least one column$"):
            Dataset(columns=(), rows=((), ()), metadata={})

    @pytest.mark.parametrize("columns", [[], [array("d", [1.0]), array("d")]],
                             ids=["none", "unequal"])
    def test_rows_take_one_or_more_columns_of_one_length(self, columns):
        with pytest.raises(ValueError):
            Rows(columns)

    def test_short_repr(self):
        dataset = run_sweep(SweepSpec(target="decoherence_factor",
                                      axes=(Axis.linear("time", 0.0, TWO_PI, 50_000),),
                                      fixed=MODEL))
        assert repr(dataset.rows) == "<Rows: 50000 rows x 2 columns>"
        assert len(repr(dataset)) < 1000

    def test_a_rows_of_the_right_width_is_kept(self):
        rows = held(self.ROWS)
        assert Dataset(columns=("x", "y"), rows=rows, metadata={}).rows is rows
        assert held(rows[:2], columns=("x", "y")) == self.ROWS[:2]

    @pytest.mark.parametrize("rows, message", [
        (((0.0, 1.0), (2.0,)), r"^row 1 has 1 entries; the dataset has 2 columns$"),
        (((0.0, 1.0), 2.0), r"^row 1 has 2\.0; the dataset has 2 columns$"),
        (((0.0, 1.0), (2.0, "x")), r"^row 1, column 'b': 'x' is not a number$"),
        (((None, 1.0),), r"^row 0, column 'a': None is not a number$"),
        (((10**400, 1.0),), r"^row 0, column 'a': 1000\d+ is not a number$"),
    ], ids=["short_row", "not_a_row", "text", "none", "too_large"])
    def test_bad_rows_are_refused(self, rows, message):
        with pytest.raises(DomainError, match=message):
            held(rows)

    def test_any_iterable_of_rows(self):
        assert held(iter([[0, 1], (2.0, "3.5")])) == ((0.0, 1.0), (2.0, 3.5))
        assert held(Rows([array("d"), array("d")])) == ()


def coded(entries, values):
    """A coded column of ``entries``, each looked up in ``values`` by its spelling,
    so -0.0, 0.0 and NaN find their own value."""
    spellings = list(map(repr, values))
    return Coded(array("H", [spellings.index(repr(entry)) for entry in entries]),
                 tuple(values))


def doubles(entries):
    return array("d", entries)


class TestCodedColumns:
    ENTRIES = (0.5, 2.0, 0.5, -1.0, 2.0, 0.5)

    @pytest.mark.parametrize("make", [
        lambda entries: coded(entries, [0.5, 2.0, -1.0]),
        lambda entries: coded(entries, [-1.0, 0.5, 2.0]),
        lambda entries: coded(entries, [2.0, 7.0, -1.0, 0.5]),
        lambda entries: Coded(array("B", coded(entries, [0.5, 2.0, -1.0]).codes),
                              (0.5, 2.0, -1.0)),
        doubles,
    ], ids=["coded", "other_order", "unused_value", "one_byte_codes", "doubles"])
    def test_equal_across_kinds_and_dictionary_orders(self, make):
        rows = Rows([make(self.ENTRIES), doubles(range(6))])
        for other in (coded(self.ENTRIES, [0.5, 2.0, -1.0]), doubles(self.ENTRIES)):
            assert rows == Rows([other, doubles(range(6))])
            changed = Rows([other[:5], doubles(range(5))])
            assert rows != changed and rows[:5] == changed
        differs = self.ENTRIES[:3] + (2.0,) + self.ENTRIES[4:]
        assert rows != Rows([coded(differs, [0.5, 2.0, -1.0]), doubles(range(6))])
        assert rows != Rows([doubles(differs), doubles(range(6))])
        assert rows == tuple(zip(self.ENTRIES, map(float, range(6))))

    def test_same_codes_compare_their_values(self):
        codes = array("H", [0, 1, 0])
        assert Rows([Coded(codes, (1.0, 2.0))]) != Rows([Coded(codes, (1.0, 3.0))])
        assert Rows([Coded(codes, (1.0, 2.0))]) == Rows([Coded(codes, (1.0, 2.0, 3.0))])
        assert Rows([Coded(codes, (0.0, 2.0))]) == Rows([Coded(codes, (-0.0, 2.0))])

    def test_nan_and_signed_zeros_in_values(self):
        entries = (math.nan, -0.0, 0.0, math.nan, -0.0)
        rows = Rows([coded(entries, [math.nan, -0.0, 0.0])])
        assert rows == Rows([coded(entries, [0.0, -0.0, math.nan])])
        assert rows == Rows([doubles((float("nan"), 0.0, -0.0, math.inf - math.inf, 0.0))])
        assert rows == ((math.nan,), (0.0,), (0.0,), (math.nan,), (0.0,))
        assert rows != Rows([doubles((math.nan, 0.0, 0.0, 1.0, 0.0))])
        assert [repr(row[0]) for row in rows] == ["nan", "-0.0", "0.0", "nan", "-0.0"]
        assert rows.column(0).tobytes() == doubles(entries).tobytes()

    def test_empty_rows(self):
        empty = Rows([Coded(array("H"), ()), doubles(())])
        assert empty == () and len(empty) == 0 and list(empty) == []
        assert empty == Rows([doubles(()), Coded(array("H"), (1.0,))])
        assert empty != Rows([doubles((1.0,)), doubles((2.0,))])
        assert empty.column(0).tobytes() == b""

    def test_column_slices_and_indexing_match_doubles(self):
        entries = (0.1, 1e-300, 0.1, -2.5, 1.7976931348623157e308, -2.5)
        kinds = Rows([coded(entries, [1.7976931348623157e308, -2.5, 0.1, 1e-300]),
                      doubles(entries)])
        column = kinds.column(0)
        assert column.readonly and column.format == "d"
        assert column.tobytes() == kinds.column(1).tobytes() == doubles(entries).tobytes()
        for index in range(-6, 6):
            first, second = kinds[index]
            assert type(first) is float and repr(first) == repr(second)
        for index in (6, -7):
            with pytest.raises(IndexError):
                kinds[index]
        for key in (slice(1, 4), slice(None, None, -1), slice(4, 1), slice(-5, None, 2)):
            part = kinds[key]
            assert type(part.stored(0)) is Coded and type(part.stored(1)) is array
            assert part.column(0).tobytes() == part.column(1).tobytes()
            assert list(part) == [(x, x) for x in entries[key]]

    @pytest.mark.parametrize("axes, kinds", [
        ((Axis.from_values("velocity", (0.1, 0.5)), Axis.linear("time", 0.0, 1.0, 4)),
         [Coded, Coded, array]),
        ((Axis.linear("time", 0.0, 1.0, 4),), [array, array]),
        ((Axis.from_values("velocity", (0.1, 0.5)), Axis.linear("time", 0.0, 1.0, 256)),
         [Coded, Coded, array]),
        ((Axis.from_values("velocity", (0.1, 0.5)), Axis.linear("time", 0.0, 1.0, 257)),
         [Coded, Coded, array]),
        ((Axis.from_values("velocity", (0.1, 0.5)), Axis.linear("time", 0.0, 1.0, 1024)),
         [Coded, Coded, array]),
        ((Axis.from_values("velocity", (0.1, 0.5)), Axis.linear("time", 0.0, 1.0, 1025)),
         [Coded, array, array]),
    ], ids=["both_repeat", "one_axis", "byte_range", "past_byte_range", "memo_size",
            "past_memo_size"])
    def test_sweep_codes_each_axis_that_repeats_few_values(self, axes, kinds):
        """Each coded axis is held in the narrowest codes that index its
        values: 1 byte up to 256 values, 2 bytes past them."""
        spec = SweepSpec(target="decoherence_factor", axes=axes,
                         fixed={name: MODEL[name] for name in MODEL if name != axes[0].name})
        rows = run_sweep(spec).rows
        assert [type(rows.stored(index)) for index in range(rows.width)] == kinds
        for index, axis in enumerate(axes):
            column = rows.stored(index)
            if type(column) is Coded:
                assert column.values == axis.grid()
                assert column.codes.itemsize == (1 if len(column.values) <= 256 else 2)
        assert rows == tuple(map(tuple, reference_rows(spec)))


class TestFigurePresets:
    def test_out_of_range(self):
        for n in (1, 9, 0, -3):
            with pytest.raises(DomainError):
                figure_preset(n)

    def test_fig2_shape_and_ordering(self):
        data = run_sweep(figure_preset(2))
        assert len(data.rows) == 1000
        assert data.columns == ("velocity", "time", "decoherence_factor")
        # one decreasing curve per velocity; larger velocity decays faster
        by_velocity = {}
        for v, s, r in data.rows:
            by_velocity.setdefault(v, []).append((s, r))
        for series in by_velocity.values():
            values = [r for _, r in series]
            assert all(b < a for a, b in zip(values, values[1:]))
        velocities = sorted(by_velocity)
        for idx in range(1, 200):  # skip s = 0 where every curve starts at 1
            column = [by_velocity[v][idx][1] for v in velocities]
            assert all(b < a for a, b in zip(column, column[1:]))

    def test_fig4_shape(self):
        spec = figure_preset(4)
        assert spec.point_count() == 2500
        grids = [axis.grid() for axis in spec.axes]
        assert len(grids[0]) == 50 and len(grids[1]) == 50

    def test_fig8_emits_both_phases(self):
        spec = figure_preset(8)
        assert spec.target == "gp_perturbative_ratio"
        data = run_sweep(SweepSpec(target=spec.target,
                                   axes=(Axis.from_values("theta", (0.25 * math.pi,)),
                                         Axis.from_values("velocity", (0.5,))),
                                   fixed=spec.fixed))
        assert "phase_exact" in data.columns
        assert "phase_perturbative" in data.columns

    @pytest.mark.parametrize("n", range(2, 9))
    def test_presets_validate(self, n):
        figure_preset(n).validate()
