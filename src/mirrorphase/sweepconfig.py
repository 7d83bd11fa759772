"""Line-oriented ``key = value`` grammar for sweep configuration files.

A config names the target, fixes parameters, and declares one ``[axis.*]``
section per sweep dimension. Each key appears at most once in a section,
and an axis's ``values`` exclude ``min``, ``max``, ``count`` and any scale
other than ``values``; ``Axis`` holds the rules of an axis section's keys.
Serialization and parsing round-trip exactly (floats are written in
shortest round-trip form), so a config generated from a preset reproduces
the preset's dataset byte for byte.
"""

from __future__ import annotations

import math

from .errors import ConfigError, DomainError
from .sweeps import Axis, LINEAR, SweepSpec, TARGETS, VALUES

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
  scale = linear | log | values # optional, default values with values,
                                # linear otherwise
  values = <number>, <number>   # explicit family; excludes min, max, count
                                # and any scale other than values

Each key appears at most once in a section. Numbers may carry a 'pi'
suffix (0.5pi, pi) meaning multiples of pi.
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


def _parse_bool(token: str, key: str, line: int) -> bool:
    lowered = token.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected true/false, got {token!r}", line=line)


def _parse_int(token: str, key: str, line: int) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {token!r}", line=line) from None


def _parse_values(token: str, key: str, line: int) -> tuple[float, ...]:
    try:
        return tuple(parse_number(tok) for tok in token.split(","))
    except ValueError:
        raise ConfigError(f"bad value list {token!r}", line=line) from None


def _parse_target(token: str, key: str, line: int) -> str:
    if token not in TARGETS:
        raise ConfigError(f"unknown target {token!r}; expected one of "
                          f"{', '.join(TARGETS)}", line=line)
    return token


def _unknown_axis_key(token: str, key: str, line: int) -> None:
    raise ConfigError(f"unknown axis key {key!r}", line=line)


# section -> key -> reader of the key's value, called as the line is read;
# the None entry reads every key the section does not name
_TOP_KEYS = {"target": _parse_target, "allow_errors": _parse_bool, None: _parse_float}
_AXIS_KEYS = {"min": _parse_float, "max": _parse_float, "count": _parse_int,
              "scale": lambda token, key, line: token, "values": _parse_values,
              None: _unknown_axis_key}


def _split_pair(text: str, line: int) -> tuple[str, str]:
    if "=" not in text:
        raise ConfigError(f"expected 'key = value', got {text!r}", line=line)
    key, value = text.split("=", 1)
    key = key.strip()
    value = value.strip()
    if not key or not value:
        raise ConfigError(f"expected 'key = value', got {text!r}", line=line)
    return key, value


def _axis(name: str, fields: dict[str, object], line: int) -> Axis:
    """The axis of section ``[axis.<name>]`` on ``line``, built from every key
    the section has; ``Axis`` refuses keys that do not go together."""
    scale = fields.get("scale", VALUES if "values" in fields else LINEAR)
    try:
        return Axis(name=name, scale=scale, start=fields.get("min"), stop=fields.get("max"),
                    count=fields.get("count"), values=fields.get("values"))
    except DomainError as exc:
        raise ConfigError(str(exc), line=line) from None


def parse_sweep_config(text: str) -> SweepSpec:
    """Parse a config document into a validated sweep spec.

    Raises :class:`ConfigError` with the offending line number on parse
    problems; domain violations surface as :class:`DomainError` from the
    spec validation.
    """
    top: dict[str, object] = {}
    axes: dict[str, tuple[dict[str, object], int]] = {}  # name -> (keys, header line)
    table, readers = top, _TOP_KEYS
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError(f"unterminated section header {stripped!r}", line=lineno)
            header = stripped[1:-1].strip()
            if not header.startswith("axis."):
                raise ConfigError(f"unknown section {header!r}", line=lineno)
            name = header[len("axis."):].strip()
            if not name:
                raise ConfigError("axis section needs a parameter name", line=lineno)
            if name in axes:
                raise ConfigError(f"duplicate axis section {name!r}", line=lineno)
            table, readers = {}, _AXIS_KEYS
            axes[name] = (table, lineno)
            continue
        key, token = _split_pair(stripped, lineno)
        if key in table:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        table[key] = readers.get(key, readers[None])(token, key, lineno)

    if not top and not axes:
        raise ConfigError("empty config; see 'mirrorphase sweep --help' for the grammar")
    if "target" not in top:
        raise ConfigError("config does not name a target; see 'mirrorphase sweep --help' "
                          "for the grammar")
    target = top.pop("target")
    allow_errors = top.pop("allow_errors", False)
    spec = SweepSpec(target=target,
                     axes=tuple(_axis(name, *entry) for name, entry in axes.items()),
                     fixed=top, allow_errors=allow_errors)
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
