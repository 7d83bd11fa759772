"""Geometric phase of the open qubit: unitary, exact, oracle, and perturbative.

The exact phase integrates cos^2(theta_t) over dimensionless time with the
adaptive Simpson rule at the absolute tolerance ``QUADRATURE_TOLERANCE``;
this module is the one place that sets the integration policy. The
kinematic oracle instead evaluates the full mixed-state phase definition
(instantaneous eigenvectors, a finite-difference parallel-transport
connection, and a final argument) and is the independent check on the
closed-form route; the two agree modulo 2*pi at full periods.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, QuadratureError
from .model import ModelParams, decoherence_factor, dephasing_multiplier, require
# gauss_legendre is unused here; perfbench/tracing.py patches it here by name
from .numerics import adaptive_simpson, gauss_legendre  # noqa: F401
from .qubit import (angles_closed_form, bloch_cosine, eigenvalue_gap,
                    eigenvalues_closed_form, require_bloch_angle, require_polar_angle)

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi

DEGENERACY_GAP = 1e-6

QUADRATURE_TOLERANCE = 1e-10

DEFAULT_ORACLE_STEPS = 100_000

MAX_ORACLE_STEPS = 1_000_000

# the oracle's grid step must stay well below the precession period 2*pi
MAX_ORACLE_STEP = 0.1

# the oracle walks its grid this many points at a time
_ORACLE_BLOCK = 8192


class PhaseResult(NamedTuple):
    """Geometric phase with its normalization and quadrature diagnostics.

    ``normalized`` divides by the closed-system value pi*(1+cos(theta)) (the
    usual figure axis). ``near_degenerate`` marks runs whose eigenvalue gap
    dropped below 1e-6, where the phase of a mixed state loses meaning.
    """

    phase: float
    normalized: float
    quadrature_error: float
    near_degenerate: bool


def unitary_gp(theta: float) -> float:
    """Closed-system geometric phase pi*(1 + cos(theta)) for theta in [0, pi]."""
    require_polar_angle(theta)
    return math.pi * (1.0 + bloch_cosine(theta))


def dynamical_phase(theta: float) -> float:
    """Closed-system dynamical phase pi*cos(theta)."""
    require_polar_angle(theta)
    return math.pi * bloch_cosine(theta)


def circular_difference(a: float, b: float) -> float:
    """Distance between two phases on the circle, in [0, pi]."""
    d = math.fmod(abs(a - b), TWO_PI)
    return min(d, TWO_PI - d)


def gp_exact(params: ModelParams, theta: float, s_final: float = TWO_PI) -> PhaseResult:
    """Geometric phase of the open evolution up to ``s_final``.

    Adaptive Simpson quadrature of cos^2(theta_t(s)), a smooth integrand
    bounded in [0, 1], with r(s) taken from the dephasing model; where r(s)
    underflows to 0 the integrand takes its r -> 0 limit. Defaults to one
    isolated period. A panel unconverged at ``QUADRATURE_TOLERANCE`` raises
    :class:`QuadratureError`. ``require_bloch_angle`` refuses a ``theta``
    where the normalizing pi*(1+cos(theta)) rounds to 0.
    """
    require_bloch_angle(theta)
    require("time", s_final)

    def integrand(s: float) -> float:
        cos_t = angles_closed_form(theta, decoherence_factor(params, s)).cos_theta_t
        return cos_t * cos_t

    value, error = adaptive_simpson(integrand, 0.0, s_final, tolerance=QUADRATURE_TOLERANCE)
    gap = eigenvalue_gap(theta, decoherence_factor(params, s_final))
    return PhaseResult(phase=value,
                       normalized=value / unitary_gp(theta),
                       quadrature_error=error,
                       near_degenerate=gap < DEGENERACY_GAP)


def _angles_grid(theta: float, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized mirror of angles_closed_form over an array of r values.

    r may underflow to 0 on the grid. Where r*sin(theta) is then 0 with
    cos(theta) > 0, the r -> 0 limit (sin, cos) = (0, 1) is returned, as
    the scalar route does; on the equator the angles do not depend on r.
    """
    import numpy as np

    c = bloch_cosine(theta)
    if c == 0.0:
        half = np.full(r.shape, math.sqrt(0.5))
        return half, half
    q = r * math.sin(theta)
    spread = np.hypot(c, q)
    if c > 0.0:
        rise = (q / (spread + c)) * q
        under = q == 0.0
        norm = np.where(under, 1.0, np.hypot(q, rise))
        return rise / norm, np.where(under, 1.0, q / norm)
    rise = spread - c
    norm = np.hypot(q, rise)
    return rise / norm, q / norm


def _kinematic_arg(params: ModelParams, theta: float, s_final: float,
                   step_count: int) -> float:
    """Argument of the kinematic phase on the grid s_i = i*h, i = 0..step_count.

    The grid is walked in blocks of ``_ORACLE_BLOCK`` points, each with the
    neighbours its difference stencils need, so the memory held does not grow
    with ``step_count``. The points are those of ``np.linspace``, the central
    difference and the one-sided three-point stencils at the grid's ends are
    the whole grid's, and adjacent blocks share their edge point, so the
    blocks' trapezoid sums add up to the whole grid's.
    """
    import numpy as np

    h = s_final / step_count
    rate = 0.5 * params.gamma0 * dephasing_multiplier(params)
    transport = 0j
    for start in range(0, step_count, _ORACLE_BLOCK):
        stop = min(start + _ORACLE_BLOCK, step_count)  # the block's points start..stop
        lo, hi = max(start - 1, 0), min(stop + 1, step_count)  # and its stencils' lo..hi
        s = np.arange(lo, hi + 1, dtype=float) * h
        if hi == step_count:
            s[-1] = s_final
        r = np.exp(-rate * s)
        sin_t, cos_t = _angles_grid(theta, r)
        psi = np.empty((hi + 1 - lo, 2), dtype=complex)
        psi[:, 0] = cos_t
        psi[:, 1] = sin_t * np.exp(1j * s)

        dpsi = np.empty_like(psi)
        dpsi[1:-1] = (psi[2:] - psi[:-2]) / (2.0 * h)
        if lo == 0:
            dpsi[0] = (-3.0 * psi[0] + 4.0 * psi[1] - psi[2]) / (2.0 * h)
            first = psi[0].copy()
        if hi == step_count:
            dpsi[-1] = (3.0 * psi[-1] - 4.0 * psi[-2] + psi[-3]) / (2.0 * h)
        block = slice(start - lo, stop - lo + 1)
        connection = np.einsum("ij,ij->i", psi[block].conj(), dpsi[block])
        transport += complex(np.trapezoid(connection, dx=h))

    weight = math.sqrt(eigenvalues_closed_form(theta, 1.0)[0]
                       * eigenvalues_closed_form(theta, float(r[-1]))[0])
    overlap = complex(np.vdot(first, psi[-1]))
    total = weight * overlap * cmath.exp(-transport)
    return cmath.phase(total) % TWO_PI


def gp_kinematic_oracle(params: ModelParams, theta: float, s_final: float = TWO_PI,
                        step_count: int = DEFAULT_ORACLE_STEPS) -> float:
    """Mixed-state phase from the full kinematic definition, mod 2*pi.

    Uses the instantaneous eigenvectors on a uniform grid, a central
    finite-difference connection, trapezoidal accumulation, the
    sqrt(eps_plus(s_final)*eps_plus(0)) weight (real positive, kept for
    fidelity to the definition), and a final argument. The step is checked
    by recomputing at half step; an inconsistency above 1e-6 raises.
    The grids are walked a block at a time, so the memory held does not
    grow with ``step_count``; ``MAX_ORACLE_STEPS`` bounds the run time,
    which grows with the 3*step_count + 2 points of the two grids. The
    step ``s_final/step_count`` must lie in [``sys.float_info.min``,
    ``MAX_ORACLE_STEP``]: a coarser grid cannot resolve the precession, and
    the step-halving check need not notice; a subnormal step overflows the
    difference stencils to NaN.

    Agrees with :func:`gp_exact` modulo 2*pi at full periods.
    """
    require_bloch_angle(theta)
    require("time", s_final)
    if not 10 <= step_count <= MAX_ORACLE_STEPS:
        raise DomainError(f"step_count must lie in [10, {MAX_ORACLE_STEPS}], "
                          f"got {step_count}")
    if not sys.float_info.min <= s_final / step_count <= MAX_ORACLE_STEP:
        raise DomainError(f"grid step s_final/step_count = {s_final / step_count:.3g} "
                          f"must lie in [{sys.float_info.min!r}, {MAX_ORACLE_STEP}]")
    coarse = _kinematic_arg(params, theta, s_final, step_count)
    fine = _kinematic_arg(params, theta, s_final, 2 * step_count)
    # flags step counts too coarse for the decay rate; the residual O(h^2)
    # tail at the recommended counts sits far below this
    if circular_difference(coarse, fine) > 1e-6:
        raise QuadratureError(
            f"kinematic phase not converged: step halving moved it by "
            f"{circular_difference(coarse, fine):.3e}",
            best_estimate=fine)
    return fine


def gp_perturbative(params: ModelParams, theta: float) -> float:
    """First-order closed form for the one-period geometric phase.

    pi*(1+cos) + (pi^2/2)*gamma0*M*cos*sin^2, with M the dephasing
    multiplier 1 + (2/3)v^2 + friction_factor of the influence action.

    This is the first-order Taylor term in gamma0 of :func:`gp_exact` over
    one period: with r = exp(-gamma0*M*s/2), cos^2(theta_t) grows by
    (gamma0*M/4)*s*cos*sin^2 to first order, and integrating s over
    [0, 2*pi] gives 2*pi^2. The residual to the exact phase is therefore
    second order in gamma0. Pole angles are allowed: sin^2 switches the
    correction off. A result that overflows is a ``DomainError``.

    Earlier versions carried a bracket recorded as the published form,
    which the repository cannot check and whose residual to gp_exact is
    first order; the README's Conventions give it and when to revisit.
    """
    require_polar_angle(theta)
    c = bloch_cosine(theta)
    sin_theta = math.sin(theta)
    correction = ((math.pi * math.pi / 2.0) * params.gamma0 * dephasing_multiplier(params)
                  * c * sin_theta * sin_theta)
    phase = unitary_gp(theta) + correction
    if not math.isfinite(phase):
        raise DomainError(f"the first-order phase overflows at gamma0={params.gamma0!r}, "
                          f"theta={theta!r}; it holds only for small gamma0")
    return phase
