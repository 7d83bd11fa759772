"""Geometric phase of the open qubit: unitary, exact, oracle, and perturbative.

The exact phase integrates cos^2(theta_t) over dimensionless time with the
adaptive Simpson rule at the absolute tolerance ``QUADRATURE_TOLERANCE``;
this module is the one place that sets the integration policy. The
kinematic oracle, the independent check on that route, evaluates the full
mixed-state phase definition in its discrete Bargmann form: one pure-Python
walk of a grid of real eigenvector amplitudes, one atan2 per overlap of
neighbouring states, read at three step counts and Richardson-extrapolated.
The two agree modulo 2*pi at full periods.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DomainError, QuadratureError
from .model import ModelParams, decoherence_factor, dephasing_multiplier, require
# gauss_legendre is unused here; perfbench/tracing.py patches it here by name
from .numerics import adaptive_simpson, gauss_legendre  # noqa: F401
from .qubit import (angles_closed_form, bloch_cosine, eigenvalue_gap, require_bloch_angle,
                    require_polar_angle)

TWO_PI = 2.0 * math.pi

DEGENERACY_GAP = 1e-6

QUADRATURE_TOLERANCE = 1e-10

DEFAULT_ORACLE_STEPS = 20_000

MAX_ORACLE_STEPS = 1_000_000

# the oracle's grid step must stay well below the precession period 2*pi
MAX_ORACLE_STEP = 0.1


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


def _kinematic_args(params: ModelParams, theta: float, s_final: float,
                    step_count: int) -> tuple[float, float, float]:
    """Arguments of the kinematic phase at step_count, 2*step_count and
    4*step_count steps, from one walk of the finest grid s_i = i*h that holds
    a few floats at a time, whatever ``step_count``.

    arg<psi_0|psi_N> - sum_k arg<psi_k|psi_k+1> over the dominant
    eigenvectors (1, t e^{is}) for cos(theta) > 0, else (t, e^{is}), with
    t = tan(theta_t) or cot(theta_t), r sin(theta) / (sqrt(cos^2 + r^2 sin^2)
    + |cos|) off the equator and 1 on it; a positive scale moves no argument.
    With u = t_k t_k+1 an overlap is 1 + u e^{ih}, one atan2 of reals, or
    u + e^{ih}, whose argument is h less, so that form's invariant is the
    first's negated, mod 2*pi. The coarser grids' states are every second
    and every fourth state of the finest.
    """
    count = 4 * step_count
    h = s_final / count
    rate, c = 0.5 * params.gamma0 * dephasing_multiplier(params), bloch_cosine(theta)
    sin_theta, a = math.sin(theta), abs(c)
    exp, hypot, atan2 = math.exp, math.hypot, math.atan2
    sin1, cos1 = math.sin(h), math.cos(h)
    sin2, cos2 = math.sin(2.0 * h), math.cos(2.0 * h)
    sin4, cos4 = math.sin(4.0 * h), math.cos(4.0 * h)

    def amplitude(s: float) -> float:
        if c == 0.0:
            return 1.0
        q = exp(-rate * s) * sin_theta
        return q / (hypot(c, q) + a)

    t0 = first = amplitude(0.0)
    # Kahan-compensated sums: plain ones drift by 6e-12 over 200,000 equal
    # terms on the equator, where every rounding falls the same way
    p1 = p2 = p4 = e1 = e2 = e4 = 0.0
    for i in range(0, count, 4):
        t1, t2, t3 = amplitude((i + 1) * h), amplitude((i + 2) * h), amplitude((i + 3) * h)
        t4 = amplitude((i + 4) * h if i + 4 < count else s_final)
        u, v, w, x = t0 * t1, t1 * t2, t2 * t3, t3 * t4
        y = (atan2(u * sin1, 1.0 + u * cos1) + atan2(v * sin1, 1.0 + v * cos1)
             + atan2(w * sin1, 1.0 + w * cos1) + atan2(x * sin1, 1.0 + x * cos1)) - e4
        total = p4 + y
        e4, p4 = (total - p4) - y, total
        u, v = t0 * t2, t2 * t4
        y = atan2(u * sin2, 1.0 + u * cos2) + atan2(v * sin2, 1.0 + v * cos2) - e2
        total = p2 + y
        e2, p2 = (total - p2) - y, total
        u = t0 * t4
        y = atan2(u * sin4, 1.0 + u * cos4) - e1
        total = p1 + y
        e1, p1 = (total - p1) - y, total
        t0 = t4
    u = first * t0
    end = atan2(u * math.sin(s_final), 1.0 + u * math.cos(s_final))
    return tuple((end - arg if c > 0.0 else arg - end) % TWO_PI for arg in (p1, p2, p4))


def _extrapolated(coarse: float, fine: float) -> float:
    """Richardson's step of two kinematic arguments, the second on half the
    first's step: it cancels their O(h^2) error term, mod 2*pi."""
    return fine + math.remainder(fine - coarse, TWO_PI) / 3.0


def gp_kinematic_oracle(params: ModelParams, theta: float, s_final: float = TWO_PI,
                        step_count: int = DEFAULT_ORACLE_STEPS) -> float:
    """Mixed-state phase from the full kinematic definition, mod 2*pi.

    The discrete Bargmann invariant of the instantaneous dominant
    eigenvectors on a uniform grid: the argument of the overlap of the
    first and last states, less the arguments of the overlaps of
    neighbouring states, whose sum tends to the parallel-transport phase
    with an O(h^2) error. One walk of the grid of 4*step_count steps gives
    it at step_count, twice and four times as many steps, holding a few
    floats at a time. Richardson extrapolation of each neighbouring pair
    cancels the h^2 term, so the two extrapolated values, from the coarser
    pair and from the finer, differ by O(h^4); they must agree to 1e-6, and
    the finer is returned. ``MAX_ORACLE_STEPS`` bounds the run time, which
    grows with the steps walked. The step ``s_final/step_count`` must lie in
    [``sys.float_info.min``, ``MAX_ORACLE_STEP``]: a coarser grid cannot
    resolve the precession, and the step-halving check need not notice; a
    subnormal step carries too few bits to place the grid.

    Agrees with :func:`gp_exact` modulo 2*pi at full periods.
    """
    require_bloch_angle(theta)
    require("time", s_final)
    if not 10 <= step_count <= MAX_ORACLE_STEPS:
        raise DomainError(f"step_count must lie in [10, {MAX_ORACLE_STEPS}], got {step_count}")
    if not sys.float_info.min <= s_final / step_count <= MAX_ORACLE_STEP:
        raise DomainError(f"grid step s_final/step_count = {s_final / step_count:.3g} "
                          f"must lie in [{sys.float_info.min!r}, {MAX_ORACLE_STEP}]")
    p1, p2, p4 = _kinematic_args(params, theta, s_final, step_count)
    coarse, fine = _extrapolated(p1, p2), _extrapolated(p2, p4) % TWO_PI
    gap = circular_difference(coarse, fine)
    # flags step counts too coarse for the decay rate; the residual O(h^4)
    # tail at the recommended counts sits far below this
    if gap > 1e-6:
        raise QuadratureError(f"kinematic phase not converged: step halving moved the "
                              f"extrapolated phase by {gap:.3e}", best_estimate=fine)
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
