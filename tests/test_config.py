"""Sweep config grammar: parsing, error reporting, and lossless round-trips."""

import math

import pytest
from hypothesis import given, strategies as st

from mirrorphase import Axis, ConfigError, SweepSpec, figure_preset
from mirrorphase.sweepconfig import (format_sweep_config, parse_number,
                                     parse_sweep_config)

BASIC = """\
# minimal decoherence sweep
target = decoherence_factor
gamma0 = 0.05
lambda = 5
omega = 0.03
time = pi

[axis.velocity]
min = 0.1
max = 0.9
count = 5
"""


class TestParseNumber:
    @pytest.mark.parametrize("text,expected", [
        ("1.5", 1.5), ("1e-10", 1e-10), ("pi", math.pi), ("0.5pi", 0.5 * math.pi),
        ("-0.25pi", -0.25 * math.pi), ("2PI", 2.0 * math.pi), (" 0.3 ", 0.3),
    ])
    def test_accepted(self, text, expected):
        assert parse_number(text) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("text", ["", "abc", "1.2.3", "pipi"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_number(text)


class TestParsing:
    def test_basic(self):
        spec = parse_sweep_config(BASIC)
        assert spec.target == "decoherence_factor"
        assert spec.fixed["time"] == math.pi
        assert spec.axes == (Axis.linear("velocity", 0.1, 0.9, 5),)

    def test_values_axis(self):
        spec = parse_sweep_config(BASIC.replace(
            "min = 0.1\nmax = 0.9\ncount = 5", "values = 0.1, 0.5, 0.9"))
        assert spec.axes[0].grid() == (0.1, 0.5, 0.9)

    def test_empty_config_reports_grammar(self):
        with pytest.raises(ConfigError, match="grammar"):
            parse_sweep_config("\n# only a comment\n")

    def test_missing_target(self):
        with pytest.raises(ConfigError, match="target"):
            parse_sweep_config("gamma0 = 0.05\n")

    @pytest.mark.parametrize("text,line", [
        ("target = decoherence_factor\nbogus line\n", 2),
        ("target = decoherence_factor\n\n[axis.velocity]\nslope = 3\n", 4),
        ("target = decoherence_factor\ngamma0 = fast\n", 2),
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ConfigError, match=f"line {line}"):
            parse_sweep_config(text)

    def test_retired_quadrature_section_is_unknown(self):
        with pytest.raises(ConfigError, match="line 13: unknown section 'quadrature'"):
            parse_sweep_config(BASIC + "\n[quadrature]\ntolerance = 1e-8\n")

    def test_duplicate_fixed(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_sweep_config("target = decoherence_factor\ngamma0 = 1\ngamma0 = 2\n")

    def test_unknown_target_lists_options(self):
        with pytest.raises(ConfigError, match="decoherence_time"):
            parse_sweep_config("target = wibble\n")

    def test_pole_in_theta_axis(self):
        text = """\
target = gp_exact
gamma0 = 0.05
lambda = 1
omega = 0.03
velocity = 0.3

[axis.theta]
min = 0
max = 0.5pi
count = 5
"""
        with pytest.raises(Exception, match="pole"):
            parse_sweep_config(text)


def axis_strategy(name):
    finite = st.floats(min_value=0.011, max_value=0.94, allow_nan=False)
    linear = st.tuples(finite, finite, st.integers(2, 7)).filter(
        lambda t: t[1] > t[0]).map(lambda t: Axis.linear(name, *t))
    values = st.lists(finite, min_size=1, max_size=4).map(
        lambda vs: Axis.from_values(name, tuple(vs)))
    return st.one_of(linear, values)


class TestRoundTrip:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_figure_presets(self, n):
        spec = figure_preset(n)
        assert parse_sweep_config(format_sweep_config(spec)) == spec

    @given(axis=axis_strategy("velocity"), gamma0=st.floats(0.0, 2.0),
           lam=st.floats(0.0, 20.0), time=st.floats(0.0, 20.0),
           allow_errors=st.booleans())
    def test_random_specs(self, axis, gamma0, lam, time, allow_errors):
        spec = SweepSpec(target="decoherence_factor", axes=(axis,),
                         fixed={"gamma0": gamma0, "lambda": lam, "omega": 0.03,
                                "time": time},
                         allow_errors=allow_errors)
        spec.validate()
        assert parse_sweep_config(format_sweep_config(spec)) == spec

    def test_round_trip_is_bitwise(self):
        # shortest round-trip floats: parse(format(spec)) reproduces doubles
        spec = figure_preset(4)
        again = parse_sweep_config(format_sweep_config(spec))
        assert again.axes[0].start == spec.axes[0].start
        assert repr(again.fixed["time"]) == repr(spec.fixed["time"])
