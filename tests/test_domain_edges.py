"""Every public quantity is finite at the edges of its domain, or refused in one line.

Each argument is drawn from its entry in ``model._DOMAINS``: the bounds and
their neighbours inside, 5e-324, 1e-300, 1e300, the largest double, and
values in between. Angles run over [0, pi], down to 5e-324 and up to the
pole limit and its neighbours; decoherence factors over [0, 1].
"""

import math
import sys

from hypothesis import given, settings, strategies as st

from mirrorphase import (DomainError, ModelParams, angles_closed_form, decoherence_factor,
                         dephasing_multiplier, dynamical_phase, eigenvalue_gap,
                         eigenvalues_closed_form, friction_factor, gp_perturbative,
                         im_inout_action, model, unitary_gp)
from mirrorphase.qubit import POLE_LIMIT


def at_the_edges(name):
    """Values of ``model._DOMAINS[name]``, its edges drawn often."""
    low, high, _ = model._DOMAINS[name]
    edges = {low, math.nextafter(low, math.inf), math.nextafter(high, -math.inf),
             5e-324, 1e-300, 1.0, 1e300, sys.float_info.max}
    inside = sorted(value for value in edges if low <= value < high)
    return st.one_of(st.sampled_from(inside),
                     st.floats(low, high, exclude_max=high < math.inf, allow_infinity=False))


THETAS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-155, math.nextafter(math.pi / 2, 0.0),
                     math.pi / 2, math.nextafter(POLE_LIMIT, 0.0), POLE_LIMIT,
                     math.nextafter(POLE_LIMIT, 4.0), math.pi]),
    st.floats(0.0, math.pi))
FACTORS = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, math.nextafter(1.0, 0.0), 1.0]),
                    st.floats(0.0, 1.0))


def finite_or_refused(function, *args):
    try:
        result = function(*args)
    except DomainError as exc:
        assert "\n" not in str(exc), (function.__name__, args, str(exc))
        return
    values = result if isinstance(result, tuple) else (result,)
    assert all(math.isfinite(value) for value in values), (function.__name__, args, result)


@settings(max_examples=200)
@given(gamma0=at_the_edges("gamma0"), lam=at_the_edges("lambda"),
       omega=at_the_edges("omega"), omega0=at_the_edges("omega0"),
       v=at_the_edges("velocity"), s=at_the_edges("time"), theta=THETAS, r=FACTORS)
def test_finite_or_refused_in_one_line(gamma0, lam, omega, omega0, v, s, theta, r):
    for function, *args in [(unitary_gp, theta), (dynamical_phase, theta),
                            (angles_closed_form, theta, r),
                            (eigenvalues_closed_form, theta, r), (eigenvalue_gap, theta, r)]:
        finite_or_refused(function, *args)
    try:
        params = ModelParams(gamma0, lam, omega, v, omega0)
    except DomainError as exc:
        assert "\n" not in str(exc)
        return
    for function, *args in [(friction_factor, params), (dephasing_multiplier, params),
                            (decoherence_factor, params, s), (im_inout_action, params, s),
                            (gp_perturbative, params, theta)]:
        finite_or_refused(function, *args)
