"""Sweep config grammar: parsing, error reporting, and lossless round-trips."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mirrorphase import Axis, ConfigError, DomainError, SweepSpec, figure_preset, sweeps
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
        with pytest.raises(ConfigError) as info:
            parse_sweep_config("\n# only a comment\n")
        assert str(info.value) == "empty config; see 'mirrorphase sweep --help' for the grammar"

    def test_missing_target(self):
        with pytest.raises(ConfigError) as info:
            parse_sweep_config("gamma0 = 0.05\n")
        assert str(info.value) == ("config does not name a target; see 'mirrorphase sweep "
                                   "--help' for the grammar")

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

    @pytest.mark.parametrize("line", [2, 3, 4, 5, 6, 7, 10, 11, 12])
    def test_repeated_key_is_refused_on_its_line(self, line):
        """Any key given twice in one section, even with the same value, names
        the second line."""
        text = BASIC.replace("time = pi", "time = pi\nallow_errors = true").splitlines()
        key = text[line - 1].split("=")[0].strip()
        text.insert(line, text[line - 1])
        with pytest.raises(ConfigError) as info:
            parse_sweep_config("\n".join(text))
        assert str(info.value) == f"line {line + 1}: duplicate key {key!r}"

    @pytest.mark.parametrize("extra", ["min = 0.1", "max = 0.9", "count = 3",
                                       "scale = linear", "scale = log"])
    def test_values_exclude_range_keys(self, extra):
        text = BASIC.replace("min = 0.1\nmax = 0.9\ncount = 5",
                             f"values = 0.1, 0.5, 0.9\n{extra}")
        with pytest.raises(ConfigError, match=r"^line 8: axis 'velocity': ") as info:
            parse_sweep_config(text)
        assert "exclude" in str(info.value)

    def test_values_beside_values_scale(self):
        spec = parse_sweep_config(BASIC.replace("min = 0.1\nmax = 0.9\ncount = 5",
                                                "scale = values\nvalues = 0.1, 0.9"))
        assert spec.axes == (Axis.from_values("velocity", (0.1, 0.9)),)

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


# parameter -> (low, high), inside the parameter's documented domain
RANGES = {"gamma0": (0.0, 2.0), "lambda": (0.0, 20.0), "omega": (1e-3, 10.0),
          "velocity": (0.0, 0.95), "theta": (0.01, 3.1), "time": (0.0, 20.0)}


def number(name, positive=False):
    low, high = RANGES[name]
    return st.floats(max(low, 1e-3) if positive else low, high)


@st.composite
def grammar_axis(draw, name):
    scale = draw(st.sampled_from(("linear", "log", "values")))
    if scale == "values":
        return Axis.from_values(name, tuple(draw(st.lists(number(name), min_size=1,
                                                          max_size=4))))
    ends = draw(st.lists(number(name, positive=scale == "log"), min_size=2, max_size=2,
                         unique=True))
    return Axis(name, scale, min(ends), max(ends), draw(st.integers(2, 7)))


@st.composite
def grammar_specs(draw):
    """A valid spec for any target, each of its parameters an axis or fixed."""
    target = draw(st.sampled_from(sweeps.TARGETS))
    required, optional = sweeps._TARGETS[target][:2]
    names = required + tuple(name for name in optional if draw(st.booleans()))
    on_axes = draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
    return SweepSpec(target=target, axes=tuple(draw(grammar_axis(name)) for name in on_axes),
                     fixed={name: draw(number(name)) for name in names if name not in on_axes},
                     allow_errors=draw(st.booleans()))


@st.composite
def mutated(draw, lines):
    """``lines`` with one mutation that makes them invalid, the error type it
    gives and a pattern its message matches."""
    lines = list(lines)
    keys = [i for i, line in enumerate(lines) if "=" in line]
    numbers = [i for i in keys if lines[i].split(" ")[0] not in ("target", "allow_errors",
                                                                "scale")]
    values = [i for i, line in enumerate(lines) if line.startswith("values = ")]
    headers = [i for i, line in enumerate(lines) if line.startswith("[")]
    kinds = ["repeat", "no_target", "number", "top_key", "section"]
    kinds += ["range_key"] * bool(values) + ["axis_key"] * bool(headers)
    kind = draw(st.sampled_from(kinds))
    if kind == "repeat":
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if line]))
        lines.insert(i + 1, lines[i])
        return lines, ConfigError, rf"line {i + 2}: duplicate (key|axis section) "
    if kind == "no_target":
        return lines[1:], ConfigError, "config does not name a target; "
    if kind == "number":
        i = draw(st.sampled_from(numbers))
        key, value = lines[i].split(" = ")
        bad = draw(st.sampled_from(("abc", "1.2.3", "2pipi", "0x1p3")))
        lines[i] = f"{key} = {draw(st.sampled_from((bad, f'{value}, {bad}')))}"
        return lines, ConfigError, rf"line {i + 1}: "
    if kind == "top_key":
        lines.insert(1, "bogus = 1")
        return lines, DomainError, "unknown parameter 'bogus'$"
    if kind == "section":
        lines.append(draw(st.sampled_from(("[wibble]", "[quadrature]"))))
        return lines, ConfigError, rf"line {len(lines)}: unknown section "
    if kind == "range_key":
        # a values section holds only its values line, below its header
        i = draw(st.sampled_from(values))
        extra = draw(st.sampled_from(("min = 0.5", "max = 0.5", "count = 3",
                                      "scale = linear", "scale = log")))
        lines.insert(draw(st.sampled_from((i, i + 1))), extra)
        return lines, ConfigError, rf"line {i}: axis '\w+': .*exclude"
    i = draw(st.sampled_from(headers))
    lines.insert(i + 1, "bogus = 1")
    return lines, ConfigError, rf"line {i + 2}: unknown axis key 'bogus'$"


class TestGrammarProperty:
    @given(spec=grammar_specs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_valid_configs_round_trip_and_invalid_ones_fail_in_one_line(self, spec, data):
        """Parsing only: no point is evaluated."""
        spec.validate()
        text = format_sweep_config(spec)
        if not data.draw(st.booleans(), label="mutate"):
            assert parse_sweep_config(text) == spec
            return
        lines, error, pattern = data.draw(mutated(text.splitlines()), label="mutation")
        with pytest.raises(error, match=pattern) as info:
            parse_sweep_config("\n".join(lines) + "\n")
        assert "\n" not in str(info.value)
