"""Independent routes the benchmark checks mirrorphase's outputs against.

None of these compares bytes or hashes: a later change may drop a column or
move a phase by about 1e-10 and still pass. Each check returns failure
messages, none when the output is correct.
"""

from __future__ import annotations

import math

# gp_exact integrates to an absolute tolerance of 1e-10. Its gap to the
# closed form below stays under 1e-9 on every preset row and on all but
# about 1 in 15,000 random domain points; 1e-8 leaves room for rounding.
PHASE_TOL = 1e-8
UNITARY_TOL = 1e-9   # gamma0 = 0 rows against (S/2)(1 + cos(theta))
ORACLE_TOL = 1e-6    # acceptance criterion C3, modulo 2*pi
FACTOR_RTOL = 1e-13  # decoherence_factor against exp(-im_influence_action)


def _asinh_shift(a: float, t: float) -> float:
    """asinh(a*e^t) - asinh(a) for a > 0, t >= 0, without cancellation or overflow."""
    if t < 1.0:
        root = math.sqrt(1.0 + a * a)
        rise = a * math.expm1(t) + a * a * math.expm1(2.0 * t) / (
            math.sqrt(1.0 + a * a * math.exp(2.0 * t)) + root)
        return math.log1p(rise / (a + root))
    return t + math.log(a + math.sqrt(math.exp(-2.0 * t) + a * a)) - math.asinh(a)


def bloch_cosine(theta: float) -> float:
    """cos(theta) as sin(pi/2 - theta): the documented convention that maps the
    representable equator, math.pi/2, to exactly 0 (cos leaves 6e-17 there,
    which decides the phase once r decays below it)."""
    return math.sin(0.5 * math.pi - theta)


def closed_form_phase(rate: float, theta: float, s_final: float) -> float:
    """Exact phase integral for r(s) = exp(-rate*s), in closed form.

    The integrand cos^2(theta_t) simplifies to (1 + c/sqrt(c^2 + r^2 sin^2))/2
    with c = cos(theta); substituting u = r*sin(theta) integrates it to
    S/2 + sign(c) * (asinh(|c| e^{rate S}/sin) - asinh(|c|/sin)) / (2 rate).
    This shares no code with the package's quadrature route.
    """
    c = bloch_cosine(theta)
    if rate == 0.0:
        return 0.5 * s_final * (1.0 + c)
    if c == 0.0:
        return 0.5 * s_final
    shift = _asinh_shift(abs(c) / math.sin(theta), rate * s_final)
    return 0.5 * s_final + math.copysign(shift, c) / (2.0 * rate)


def dephasing_rate(gamma0: float, lam: float, omega: float, v: float) -> float:
    """Decay rate of r(s), written out from the paper's influence action."""
    friction = 0.0
    if v > 0.0:
        friction = lam * lam * v * math.exp(-(2.0 * omega / v) * math.sqrt(1.0 - v * v)) \
            / (1.0 - v * v)
    return 0.5 * gamma0 * (1.0 + (2.0 / 3.0) * v * v + friction)


def closed_form_gap(point: dict, phase: float) -> float:
    """Distance of a phase from the closed form at the same point."""
    rate = dephasing_rate(point["gamma0"], point["lambda"], point["omega"], point["velocity"])
    return abs(phase - closed_form_phase(rate, point["theta"], point.get("time", 2.0 * math.pi)))


def check_phase(point: dict, phase: float, label: str) -> tuple[list[str], list[str]]:
    """A phase output: (problems, inaccuracies).

    Problems are wrong outputs: a phase that is not finite, lies outside
    [0, S] (the integrand lies in [0, 1]), or misses the unitary value at
    gamma0 = 0. An inaccuracy is a phase further than PHASE_TOL from the
    closed form: gp_exact promises 1e-10, and on a few decaying integrands
    its adaptive Simpson rule stops early and misses by up to about 1e-7.
    """
    s_final = point.get("time", 2.0 * math.pi)
    if not (math.isfinite(phase) and -PHASE_TOL <= phase <= s_final + PHASE_TOL):
        return [f"{label}: phase {phase!r} is not finite or lies outside [0, {s_final}]"], []
    problems, inaccuracies = [], []
    if point["gamma0"] == 0.0:
        unitary = 0.5 * s_final * (1.0 + bloch_cosine(point["theta"]))
        if abs(phase - unitary) > UNITARY_TOL:
            problems.append(f"{label}: gamma0 = 0 phase {phase!r} differs from the "
                            f"unitary value {unitary!r}")
    gap = closed_form_gap(point, phase)
    if gap > PHASE_TOL:
        inaccuracies.append(f"{label}: phase {phase!r} is {gap:.3e} from the closed form")
    return problems, inaccuracies


def check_normalized(point: dict, normalized: float, label: str) -> tuple[list[str], list[str]]:
    """A normalized phase: the phase it implies, and S/2pi when gamma0 = 0."""
    unitary_period = math.pi * (1.0 + bloch_cosine(point["theta"]))
    problems, inaccuracies = check_phase(point, normalized * unitary_period, label)
    if point["gamma0"] == 0.0:
        expected = point.get("time", 2.0 * math.pi) / (2.0 * math.pi)
        if abs(normalized - expected) > UNITARY_TOL:
            problems.append(f"{label}: gamma0 = 0 normalized phase {normalized!r} "
                            f"differs from S/2pi = {expected!r}")
    return problems, inaccuracies


def check_factor(point: dict, value: float, reference: float, label: str) -> list[str]:
    """decoherence_factor against exp(-im_influence_action) at the same point."""
    if value == reference or abs(value - reference) <= FACTOR_RTOL * abs(reference):
        return []
    return [f"{label}: decoherence_factor {value!r} != exp(-im_influence_action) "
            f"{reference!r} at {point}"]


def circular_gap(a: float, b: float) -> float:
    d = math.fmod(abs(a - b), 2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def check_oracle(phase: float, oracle: float, label: str) -> list[str]:
    gap = circular_gap(phase, oracle)
    if gap > ORACLE_TOL:
        return [f"{label}: phase {phase!r} and kinematic oracle {oracle!r} differ "
                f"by {gap:.3e} modulo 2pi"]
    return []
