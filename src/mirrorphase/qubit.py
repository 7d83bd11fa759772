"""Closed-form eigensystem of the qubit's dephasing-channel state.

The reduced density matrix keeps the initial populations and damps the
off-diagonals by the decoherence factor ``r``. Its eigenvalues and the
mixed angles of its dominant eigenvector are given here in closed form;
the test suite checks them against a direct 2x2 Hermitian eigensolver.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateStateError, DomainError

_HALF_PI = 0.5 * math.pi
_SQRT_HALF = math.sqrt(0.5)
# the first double where 1 + bloch_cosine(theta) rounds to 0, about 1.05e-8 below pi
POLE_LIMIT = 3.141592643053081


def bloch_cosine(theta: float) -> float:
    """cos(theta), evaluated as sin(pi/2 - theta).

    This maps the representable equator value ``math.pi/2`` to exactly 0.
    The naive cosine leaves a ~6e-17 residue there, which the mixed-angle
    formulas amplify to order one once the decoherence factor decays below
    it; evaluating through the shifted sine keeps the equator algebra exact
    while staying accurate to one ulp everywhere else.
    """
    return math.sin(_HALF_PI - theta)


def require_bloch_angle(theta: float) -> None:
    """Reject the poles, where the eigenbasis is undefined, and theta >= ``POLE_LIMIT``."""
    if not 0.0 < theta < POLE_LIMIT:
        raise DegenerateStateError(
            f"theta must lie strictly inside (0, pi), below {POLE_LIMIT!r}, got {theta!r}; at "
            "the poles the state evolves trivially, and from that limit on the closed-system "
            "phase pi*(1+cos(theta)) rounds to 0")


def require_polar_angle(theta: float) -> None:
    """Reject an initial angle outside the closed interval [0, pi]; the poles are allowed."""
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"theta must lie in [0, pi], got {theta}")


class MixedAngles(NamedTuple):
    """Instantaneous eigenvector parametrization (sin(theta_t), cos(theta_t))."""

    sin_theta_t: float
    cos_theta_t: float


def eigenvalues_closed_form(theta: float, r: float) -> tuple[float, float]:
    """Closed-form eigenvalues (eps_plus, eps_minus) of the dephasing state.

    eps_pm = 1/2 +- (1/2) sqrt(cos^2(theta) + r^2 sin^2(theta)); they sum to
    1 and eps_minus vanishes exactly at r = 1.
    """
    require_polar_angle(theta)
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"decoherence factor must lie in [0, 1], got {r}")
    spread = math.hypot(bloch_cosine(theta), r * math.sin(theta))
    return 0.5 + 0.5 * spread, 0.5 - 0.5 * spread


def eigenvalue_gap(theta: float, r: float) -> float:
    """eps_plus - eps_minus; small values flag a nearly degenerate state."""
    plus, minus = eigenvalues_closed_form(theta, r)
    return plus - minus


def angles_closed_form(theta: float, r: float) -> MixedAngles:
    """Closed-form mixed angles of the dominant eigenvector.

    sin(theta_t) = 2(eps_plus - cos^2(theta/2)) / D and
    cos(theta_t) = r sin(theta) / D with
    D = sqrt(r^2 sin^2(theta) + 4(eps_plus - cos^2(theta/2))^2).

    The doubled population shift 2(eps_plus - cos^2(theta/2)) equals
    sqrt(cos^2 + r^2 sin^2) - cos; for cos(theta) >= 0 it is evaluated
    through its conjugate form (r sin)^2 / (sqrt(...) + cos), which avoids
    the catastrophic cancellation the direct difference suffers once r
    decays far below |cos(theta)|. hypot keeps every intermediate finite
    even when r^2 would underflow.

    On the equator, cos(theta) = 0, the pair is (sqrt(1/2), sqrt(1/2)) for
    every r: computed, it divides a subnormal r sin(theta) by its own
    rounded hypot and leaves the unit circle. r may be 0, as r(s) is once
    it underflows. Elsewhere, where r sin(theta) is 0, the r -> 0 limit is
    returned: (sin, cos) = (0, 1) for cos(theta) > 0 and (1, 0) for
    cos(theta) < 0.
    """
    require_bloch_angle(theta)
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"decoherence factor must lie in [0, 1], got {r}")
    c = bloch_cosine(theta)
    if c == 0.0:
        return MixedAngles(sin_theta_t=_SQRT_HALF, cos_theta_t=_SQRT_HALF)
    q = r * math.sin(theta)
    if q == 0.0:
        if c > 0.0:
            return MixedAngles(sin_theta_t=0.0, cos_theta_t=1.0)
        return MixedAngles(sin_theta_t=1.0, cos_theta_t=0.0)
    spread = math.hypot(c, q)
    if c >= 0.0:
        rise = (q / (spread + c)) * q
    else:
        rise = spread - c
    norm = math.hypot(q, rise)
    return MixedAngles(sin_theta_t=rise / norm, cos_theta_t=q / norm)
