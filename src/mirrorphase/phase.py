"""Geometric phase of the open qubit: unitary, exact, oracle, and perturbative.

The exact phase integrates cos^2(theta_t) over dimensionless time with the
adaptive Simpson rule at the absolute tolerance ``QUADRATURE_TOLERANCE``;
this module is the one place that sets the integration policy. The
kinematic oracle, the independent check on that route, evaluates the full
mixed-state phase definition in its discrete Bargmann form: one walk of a
grid of real eigenvector amplitudes, one arctan2 per overlap of
neighbouring states. The two agree modulo 2*pi at full periods.
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

DEFAULT_ORACLE_STEPS = 150_000

MAX_ORACLE_STEPS = 1_000_000

# the oracle's grid step must stay well below the precession period 2*pi
MAX_ORACLE_STEP = 0.1

# the oracle walks its grid this many steps at a time
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


def _kinematic_args(params: ModelParams, theta: float, s_final: float,
                    step_count: int) -> tuple[float, float]:
    """Arguments of the kinematic phase at step_count and 2*step_count steps,
    from one walk of the finer grid s_i = i*h, ``_ORACLE_BLOCK`` steps at a
    time, so the memory held does not grow with ``step_count``.

    arg<psi_0|psi_N> - sum_k arg<psi_k|psi_k+1> over the dominant
    eigenvectors (1, t e^{is}) for cos(theta) > 0, else (t, e^{is}), with
    t = tan(theta_t) or cot(theta_t), r sin(theta) / (sqrt(cos^2 + r^2 sin^2)
    + |cos|) off the equator and 1 on it; a positive scale moves no argument.
    With u = t_k t_k+1 an overlap is 1 + u e^{ih}, one arctan2 of reals, or
    u + e^{ih}, whose argument is h less, so that form's invariant is the
    first's negated, mod 2*pi. The coarser grid's states are the even ones.
    """
    import numpy as np

    fine_count = 2 * step_count
    h = s_final / fine_count
    rate, c = 0.5 * params.gamma0 * dephasing_multiplier(params), bloch_cosine(theta)

    def transport(t, step):
        u = t[:-1] * t[1:]
        return float(np.arctan2(u * math.sin(step), 1.0 + u * math.cos(step)).sum())

    coarse = fine = 0.0
    for start in range(0, fine_count, _ORACLE_BLOCK):
        stop = min(start + _ORACLE_BLOCK, fine_count)
        s = np.arange(start, stop + 1, dtype=float) * h
        if stop == fine_count:
            s[-1] = s_final
        q = np.exp(-rate * s) * math.sin(theta)
        t = q / (np.hypot(c, q) + abs(c)) if c != 0.0 else np.ones_like(s)
        if start == 0:
            first = t[0]
        coarse += transport(t[::2], 2.0 * h)
        fine += transport(t, h)
    end = transport(np.array([first, t[-1]]), s_final)
    return tuple((end - arg if c > 0.0 else arg - end) % TWO_PI for arg in (coarse, fine))


def gp_kinematic_oracle(params: ModelParams, theta: float, s_final: float = TWO_PI,
                        step_count: int = DEFAULT_ORACLE_STEPS) -> float:
    """Mixed-state phase from the full kinematic definition, mod 2*pi.

    The discrete Bargmann invariant of the instantaneous dominant
    eigenvectors on a uniform grid: the argument of the overlap of the
    first and last states, less the arguments of the overlaps of
    neighbouring states, whose sum tends to the parallel-transport phase
    with an O(h^2) error. One walk of the grid of 2*step_count steps gives
    it at both step counts, block by block, so the memory held does not grow
    with ``step_count``; they must agree to 1e-6, and the finer is returned.
    ``MAX_ORACLE_STEPS`` bounds the run time, which grows with the steps
    walked. The step ``s_final/step_count`` must lie in
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
    coarse, fine = _kinematic_args(params, theta, s_final, step_count)
    gap = circular_difference(coarse, fine)
    # flags step counts too coarse for the decay rate; the residual O(h^2)
    # tail at the recommended counts sits far below this
    if gap > 1e-6:
        raise QuadratureError(f"kinematic phase not converged: step halving moved it by "
                              f"{gap:.3e}", best_estimate=fine)
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
