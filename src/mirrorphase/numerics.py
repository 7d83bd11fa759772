"""Quadrature and root-finding utilities.

The adaptive Simpson rule integrates the exact phase, at the tolerance set
in :mod:`mirrorphase.phase`. A fixed-node Gauss-Legendre rule and a
bracketing root-finder serve no route of the package; the tests use the
rule to check the Simpson rule for silent bias. Both integrate in pure
Python; the Gauss-Legendre node table is built by Newton's method when a
rule size is first needed, and kept. Roots are found by growing a bracket
geometrically and bisecting it in pure Python.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import DomainError, QuadratureError


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tolerance: float = 1e-10, max_depth: int = 40) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, b]`` with the adaptive Simpson rule.

    Returns ``(value, error_estimate)``. The tolerance is split across
    subintervals, so the accumulated estimate stays below ``tolerance``.
    Raises :class:`QuadratureError` (carrying the best estimate) if any
    panel is still unconverged at ``max_depth``.
    """
    if b < a:
        raise DomainError("integration interval is reversed")
    if a == b:
        return 0.0, 0.0

    unconverged = 0
    error = 0.0

    def recurse(x0: float, x2: float, f0: float, f1: float, f2: float,
                whole: float, tol: float, depth: int) -> float:
        nonlocal unconverged, error
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm = f(lm)
        frm = f(rm)
        left = (x1 - x0) / 6.0 * (f0 + 4.0 * flm + f1)
        right = (x2 - x1) / 6.0 * (f1 + 4.0 * frm + f2)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol or depth <= 0:
            if abs(delta) > 15.0 * tol:
                unconverged += 1
            error += abs(delta) / 15.0
            return left + right + delta / 15.0
        return (recurse(x0, x1, f0, flm, f1, left, 0.5 * tol, depth - 1)
                + recurse(x1, x2, f1, frm, f2, right, 0.5 * tol, depth - 1))

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    value = recurse(a, b, fa, fm, fb, whole, tolerance, max_depth)
    if unconverged:
        raise QuadratureError(
            f"adaptive Simpson left {unconverged} panel(s) unconverged at depth {max_depth}",
            best_estimate=value, error_estimate=error)
    return value, error


_GL_CACHE: dict[int, tuple[list[float], list[float]]] = {}


def _gl_rule(nodes: int) -> tuple[list[float], list[float]]:
    """Nodes, ascending, and weights of the ``nodes``-point rule on [-1, 1],
    each built once: Newton's method on the three-term recurrence of the
    Legendre polynomials, from Tricomi's guess cos(pi (i - 1/4) / (n + 1/2)),
    for the nodes of one half, mirrored to the other."""
    rule = _GL_CACHE.get(nodes)
    if rule is not None:
        return rule

    def legendre(z: float) -> tuple[float, float]:
        # P_n(z) and its derivative, for |z| < 1
        previous, value = 1.0, z
        for k in range(2, nodes + 1):
            previous, value = value, ((2 * k - 1) * z * value - (k - 1) * previous) / k
        return value, nodes * (previous - z * value) / (1.0 - z * z)

    upper = []  # (node, weight) for the nodes in [0, 1), largest first
    for i in range(1, nodes // 2 + nodes % 2 + 1):
        z = math.cos(math.pi * (i - 0.25) / (nodes + 0.5))
        for _ in range(100):
            value, slope = legendre(z)
            step = value / slope
            z -= step
            if abs(step) <= 1e-16:
                break
        slope = legendre(z)[1]
        upper.append((z, 2.0 / ((1.0 - z * z) * slope * slope)))
    if nodes % 2:
        upper[-1] = (0.0, upper[-1][1])
    lower = [(-z, w) for z, w in upper[:nodes // 2]]
    pairs = lower + upper[::-1]
    rule = [z for z, _ in pairs], [w for _, w in pairs]
    _GL_CACHE[nodes] = rule
    return rule


def _gl_value(f: Callable[[float], float], a: float, b: float, nodes: int) -> float:
    x, w = _gl_rule(nodes)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * math.fsum(wi * f(half * xi + mid) for xi, wi in zip(x, w))


def gauss_legendre(f: Callable[[float], float], a: float, b: float,
                   nodes: int = 256) -> tuple[float, float]:
    """Fixed Gauss-Legendre quadrature of ``f`` over ``[a, b]``.

    The error estimate is the difference against the half-size rule.
    """
    if b < a:
        raise DomainError("integration interval is reversed")
    if a == b:
        return 0.0, 0.0
    value = _gl_value(f, a, b, nodes)
    coarse = _gl_value(f, a, b, max(2, nodes // 2))
    return value, abs(value - coarse)


def find_root_bracketed(f: Callable[[float], float], xtol: float = 1e-12,
                        bracket: tuple[float, float] = (0.0, 1.0),
                        max_growth: int = 1024) -> float:
    """Solve ``f(x) = 0`` for increasing ``f`` by bracketed bisection.

    The initial bracket is grown geometrically until it straddles a sign
    change, at most ``max_growth`` doublings, the last of which stops at
    the largest double: by default the bracket (0, 1) reaches 2**1023 and
    then the float limit. It is then bisected until it is no wider than
    ``xtol``, at the midpoint ``0.5*lo + 0.5*hi``, which never overflows.
    Bisection also stops on an exact zero, or when the midpoint rounds to
    an endpoint, which ends the search for roots whose float spacing
    exceeds ``xtol`` (above about 8e3 at the default): the result is then
    within one ulp.
    """
    lo, hi = bracket
    if not hi > lo:
        raise DomainError("initial bracket must satisfy hi > lo")
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    growths = 0
    # compare signs, not the product, which underflows to 0 for tiny values
    while fhi != 0.0 and (fhi < 0.0) == (flo < 0.0):
        if growths == max_growth or hi == sys.float_info.max:
            raise DomainError("no sign change found while growing the bracket")
        lo, flo = hi, fhi
        hi = min(2.0 * hi, sys.float_info.max)
        fhi = f(hi)
        growths += 1
    if fhi == 0.0:
        return hi
    while hi - lo > xtol:
        # the bits of 0.5*(lo + hi) for endpoints of 2**-1021 or more in size,
        # without its overflow near the float limit
        mid = 0.5 * lo + 0.5 * hi
        if mid == lo or mid == hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi
