"""Line-oriented ``key = value`` grammar for sweep configuration files.

A config names the target, fixes parameters, and declares one ``[axis.*]``
section per sweep dimension. Serialization and parsing round-trip exactly
(floats are written in shortest round-trip form), so a config generated
from a preset reproduces the preset's dataset byte for byte.
"""

from __future__ import annotations

import math

from .errors import ConfigError, DomainError
from .sweeps import Axis, LINEAR, LOG, SweepSpec, TARGETS, VALUES

GRAMMAR_HELP = """\
Sweep config grammar (line oriented; '#' starts a comment):

  target = decoherence_factor | gp_exact | gp_normalized |
           gp_perturbative_ratio | decoherence_time
  <parameter> = <number>        # fixed assignment: gamma0, lambda, omega,
                                # velocity, theta, time
  allow_errors = true | false   # optional; record failed points as NaN rows

  [axis.<parameter>]            # one section per sweep dimension; the first
  min = <number>                # axis varies slowest in the output
  max = <number>
  count = <integer>
  scale = linear | log          # optional, default linear
  values = <number>, <number>   # explicit family; excludes min/max/count

Numbers may carry a 'pi' suffix (0.5pi, pi) meaning multiples of pi.
"""


def parse_number(token: str) -> float:
    """Parse a float, allowing the '<x>pi' suffix form (e.g. 0.25pi, pi)."""
    text = token.strip()
    if text.lower().endswith("pi"):
        head = text[:-2].strip()
        factor = 1.0 if head in ("", "+") else -1.0 if head == "-" else float(head)
        return factor * math.pi
    return float(text)


def _parse_float(token: str, key: str, line: int) -> float:
    try:
        return parse_number(token)
    except ValueError:
        raise ConfigError(f"bad number {token!r} for {key!r}", line=line) from None


def _parse_bool(token: str, line: int) -> bool:
    lowered = token.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected true/false, got {token!r}", line=line)


def _parse_int(token: str, line: int) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {token!r}", line=line) from None


def _split_pair(text: str, line: int) -> tuple[str, str]:
    if "=" not in text:
        raise ConfigError(f"expected 'key = value', got {text!r}", line=line)
    key, value = text.split("=", 1)
    key = key.strip()
    value = value.strip()
    if not key or not value:
        raise ConfigError(f"expected 'key = value', got {text!r}", line=line)
    return key, value


def parse_sweep_config(text: str) -> SweepSpec:
    """Parse a config document into a validated sweep spec.

    Raises :class:`ConfigError` with the offending line number on parse
    problems; domain violations surface as :class:`DomainError` from the
    spec validation.
    """
    target: str | None = None
    fixed: dict[str, float] = {}
    allow_errors = False
    axis_sections: list[tuple[str, dict[str, object], int]] = []
    section: str | None = None  # None (top level) or axis name

    seen_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        seen_content = True
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError(f"unterminated section header {stripped!r}", line=lineno)
            header = stripped[1:-1].strip()
            if header.startswith("axis."):
                name = header[len("axis."):].strip()
                if not name:
                    raise ConfigError("axis section needs a parameter name", line=lineno)
                if any(existing == name for existing, _, _ in axis_sections):
                    raise ConfigError(f"duplicate axis section {name!r}", line=lineno)
                axis_sections.append((name, {}, lineno))
                section = name
            else:
                raise ConfigError(f"unknown section {header!r}", line=lineno)
            continue

        key, value = _split_pair(stripped, lineno)
        if section is None:
            if key == "target":
                if target is not None:
                    raise ConfigError("duplicate 'target'", line=lineno)
                if value not in TARGETS:
                    raise ConfigError(f"unknown target {value!r}; expected one of "
                                      f"{', '.join(TARGETS)}", line=lineno)
                target = value
            elif key == "allow_errors":
                allow_errors = _parse_bool(value, lineno)
            else:
                if key in fixed:
                    raise ConfigError(f"duplicate fixed parameter {key!r}", line=lineno)
                fixed[key] = _parse_float(value, key, lineno)
        else:
            fields = axis_sections[-1][1]
            if key in fields:
                raise ConfigError(f"duplicate axis key {key!r}", line=lineno)
            if key in ("min", "max"):
                fields[key] = _parse_float(value, key, lineno)
            elif key == "count":
                fields[key] = _parse_int(value, lineno)
            elif key == "scale":
                fields[key] = value
            elif key == "values":
                try:
                    fields[key] = tuple(parse_number(tok) for tok in value.split(","))
                except ValueError:
                    raise ConfigError(f"bad value list {value!r}", line=lineno) from None
            else:
                raise ConfigError(f"unknown axis key {key!r}", line=lineno)

    if not seen_content:
        raise ConfigError("empty config.\n" + GRAMMAR_HELP)
    if target is None:
        raise ConfigError("config does not name a target.\n" + GRAMMAR_HELP)

    axes = []
    for name, fields, lineno in axis_sections:
        try:
            if "values" in fields:
                axes.append(Axis.from_values(name, fields["values"]))
            else:
                scale = fields.get("scale", LINEAR)
                if scale not in (LINEAR, LOG):
                    raise DomainError(f"axis {name!r}: unknown scale {scale!r}")
                axes.append(Axis(name=name, scale=scale,
                                 start=fields.get("min"), stop=fields.get("max"),
                                 count=fields.get("count")))
        except DomainError as exc:
            raise ConfigError(str(exc), line=lineno) from None

    spec = SweepSpec(target=target, axes=tuple(axes), fixed=fixed,
                     allow_errors=allow_errors)
    spec.validate()
    return spec


def format_sweep_config(spec: SweepSpec) -> str:
    """Serialize a sweep spec to config text; parsing it back is lossless."""
    lines = [f"target = {spec.target}"]
    for name in sorted(spec.fixed):
        lines.append(f"{name} = {spec.fixed[name]!r}")
    lines.append(f"allow_errors = {'true' if spec.allow_errors else 'false'}")
    for axis in spec.axes:
        lines.append("")
        lines.append(f"[axis.{axis.name}]")
        if axis.scale == VALUES:
            lines.append("values = " + ", ".join(repr(v) for v in axis.values))
        else:
            lines.append(f"min = {axis.start!r}")
            lines.append(f"max = {axis.stop!r}")
            lines.append(f"count = {axis.count}")
            lines.append(f"scale = {axis.scale}")
    return "\n".join(lines) + "\n"
