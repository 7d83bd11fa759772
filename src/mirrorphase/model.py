"""Dissipative model of a two-level particle moving parallel to an imperfect mirror.

Everything here is dimensionless: ``gamma0`` couples the qubit to the
vacuum field, ``lambda_tilde`` couples the vacuum field to the plate
oscillators, ``omega_tilde`` and ``omega0_tilde`` are frequencies scaled by
the particle-plate distance, and ``velocity`` is a fraction of the speed of
light. Time ``s`` is measured in units of the inverse qubit level
splitting, so one isolated precession period is ``s = 2*pi``.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, NoDecoherenceError
from .numerics import find_root_bracketed

# Each input's domain, under the name a user types: name -> (low, high, rule),
# for low <= value < high; the smallest positive double as low means "> 0"
_DOMAINS = {
    "gamma0": (0.0, math.inf, "must be finite and >= 0"),
    "lambda": (0.0, math.inf, "must be finite and >= 0"),
    "omega": (math.ulp(0.0), math.inf, "must be finite and > 0"),
    "omega0": (math.ulp(0.0), math.inf, "must be finite and > 0"),
    "velocity": (0.0, 1.0, "must lie in [0, 1)"),
    "time": (0.0, math.inf, "must be finite and >= 0"),
}


def require(name: str, value: float) -> None:
    """Raise a ``DomainError`` naming ``name`` first unless ``value`` is in its domain."""
    low, high, rule = _DOMAINS[name]
    if not low <= value < high:
        raise DomainError(f"{name} {rule}, got {value!r}")


class _Record:
    """Immutable record over ``__slots__``: ``==`` only within its own class,
    and ``hash`` and ``repr`` from the fields. The slots are the fields, in
    order, except an underscored slot, which is kept beside them. A subclass's
    ``__init__`` checks its arguments and passes the fields to this one.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__ if name[0] != "_"}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(self._fields().values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ModelParams(_Record):
    """Physical couplings and dimensionless frequencies of the friction model.

    ``omega0_tilde`` only enters the in-out action and defaults to 1; all
    other fields must be supplied explicitly. The dephasing multiplier is
    computed once, at construction, and kept beside the fields, not as one:
    ``==``, ``hash`` and ``repr`` see the fields alone.
    """

    __slots__ = ("gamma0", "lambda_tilde", "omega_tilde", "velocity", "omega0_tilde",
                 "_multiplier")

    gamma0: float
    lambda_tilde: float
    omega_tilde: float
    velocity: float
    omega0_tilde: float

    def __init__(self, gamma0: float, lambda_tilde: float, omega_tilde: float,
                 velocity: float, omega0_tilde: float = 1.0) -> None:
        require("gamma0", gamma0)
        require("lambda", lambda_tilde)
        require("omega", omega_tilde)
        require("omega0", omega0_tilde)
        require("velocity", velocity)
        super().__init__(gamma0, lambda_tilde, omega_tilde, velocity, omega0_tilde)
        multiplier = 1.0 + (2.0 / 3.0) * velocity * velocity + friction_factor(self)
        if not multiplier < math.inf:
            raise DomainError(f"lambda must keep the dephasing multiplier finite, "
                              f"got {lambda_tilde!r} at velocity {velocity!r}")
        object.__setattr__(self, "_multiplier", multiplier)


def friction_factor(params: ModelParams) -> float:
    """Velocity-dependent plate contribution to the dephasing rate.

    lambda_tilde^2 * v * exp(-(2*omega_tilde/v)*sqrt(1-v^2)) / (1-v^2);
    zero at v = 0 or lambda_tilde = 0, strictly increasing in v otherwise.
    The exponential beats every inverse power of v, so the limit at v = 0 is
    exactly 0; where it underflows, the factor is 0 even if lambda_tilde^2
    overflows.
    """
    v = params.velocity
    if v == 0.0:
        return 0.0
    damping = math.exp(-(2.0 * params.omega_tilde / v) * math.sqrt(1.0 - v * v))
    if damping == 0.0:
        return 0.0
    lam2 = params.lambda_tilde * params.lambda_tilde
    return lam2 * v * damping / (1.0 - v * v)


def dephasing_multiplier(params: ModelParams) -> float:
    """Dimensionless bracket multiplying gamma0*s/2 in the influence action.

    1 + (2/3)v^2 + friction_factor, computed once when ``params`` is built.
    """
    return params._multiplier


def im_influence_action(params: ModelParams, s: float) -> float:
    """Imaginary part of the influence action accumulated up to time ``s``.

    Linear in ``s``: (gamma0*s/2) * (1 + (2/3)v^2 + friction_factor).
    """
    require("time", s)
    # hot in the exact phase's integrand: reading _multiplier pays for require's lookup
    return 0.5 * params.gamma0 * s * params._multiplier


def decoherence_factor(params: ModelParams, s: float) -> float:
    """Multiplicative decay r(s) of the density-matrix off-diagonals.

    r = exp(-im_influence_action); equal to 1 at s = 0 and strictly
    decreasing in ``s`` whenever gamma0 > 0. Mathematically positive, but
    underflows to 0.0 once the action exceeds ~745; consumers that need
    r > 0 reject that edge explicitly.
    """
    return math.exp(-im_influence_action(params, s))


def _decoherence_factors(params: ModelParams, times) -> list[float]:
    """``decoherence_factor(params, s)`` for each ``s`` in ``times``, bit for
    bit, by the same operations in the same order; each ``s`` must already
    be in the time domain, as a validated sweep's are."""
    half, multiplier, exp = 0.5 * params.gamma0, params._multiplier, math.exp
    return [exp(-(half * s * multiplier)) for s in times]


def decoherence_time(params: ModelParams) -> float:
    """Time at which the influence action reaches unity.

    Solved with a generic bracketing root-finder (so the operation survives
    future non-linear models) and checked against the analytic inversion of
    the linear action, 2 / (gamma0 * multiplier).
    """
    if params.gamma0 <= 0.0:
        raise NoDecoherenceError(
            "gamma0 = 0: the influence action stays at 0 and never reaches 1")
    # the bracket grows from (0, 1) by doubling up to the largest double, where
    # the action must reach 1
    if im_influence_action(params, sys.float_info.max) < 1.0:
        raise DomainError(f"gamma0 {params.gamma0!r} is too small: the decoherence time "
                          "2/(gamma0*multiplier) exceeds the largest double")
    analytic = 2.0 / (params.gamma0 * dephasing_multiplier(params))
    root = find_root_bracketed(lambda s: im_influence_action(params, s) - 1.0,
                               xtol=1e-12)
    if abs(root - analytic) > 1e-9 * max(1.0, abs(analytic)):
        raise RuntimeError(
            f"root finder ({root}) disagrees with the analytic inversion ({analytic})")
    return root


def im_inout_action(params: ModelParams, flight_time: float) -> float:
    """Imaginary part of the in-out effective action for a flight of given duration.

    Signals excitation of the mirror degrees of freedom (non-contact
    friction). Provided for completeness; it does not feed the geometric
    phase. The squared plate coupling is reconstructed as
    lambda_tilde^2 * omega_tilde^3.
    """
    require("time", flight_time)
    v = params.velocity
    if v == 0.0 or params.gamma0 == 0.0:
        return 0.0
    omega, omega0 = params.omega_tilde, params.omega0_tilde
    # (omega0 + omega)^2 - v^2*omega^2 as a product of two positive factors,
    # so that neither overflows nor underflows to 0 where the whole would
    low, high = omega0 + omega * (1.0 - v), omega0 + omega * (1.0 + v)
    damping = math.exp(-(2.0 / v) * math.sqrt(low) * math.sqrt(high))
    if damping == 0.0:
        return 0.0
    # lambda^2 is finite here, as the finite dephasing multiplier bounds it
    # wherever the damping does not underflow
    action = (v * params.lambda_tilde * params.lambda_tilde * damping
              * (omega / low) * (omega / high)
              * (math.pi / 32.0) * params.gamma0 * (flight_time / omega0))
    if not action < math.inf:
        raise DomainError(f"omega0 {omega0!r} takes the in-out action past the largest "
                          f"double at gamma0 {params.gamma0!r} and flight time {flight_time!r}")
    return action
