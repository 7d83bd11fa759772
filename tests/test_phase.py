"""Geometric-phase routes: closed quadrature, kinematic oracle, first-order form.

The frozen exact-phase references come from mpmath quadrature of the
closed integrand at 50 digits.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mirrorphase import (DegenerateStateError, DomainError, ModelParams, PhaseResult,
                         QuadratureError, circular_difference, decoherence_factor,
                         angles_closed_form, dynamical_phase, eigenvalues_closed_form, gp_exact,
                         gp_kinematic_oracle, gp_perturbative, unitary_gp)
from mirrorphase import phase as phase_module
from mirrorphase.qubit import POLE_LIMIT

from conftest import params_fig2, params_fig6, params_fig7
from oracles import angles_grid, kinematic_arg_whole_grid

TWO_PI = 2.0 * math.pi


class TestClosedSystemPhases:
    def test_unitary_equator(self):
        assert unitary_gp(math.pi / 2) == pytest.approx(math.pi, abs=1e-15)

    def test_unitary_poles(self):
        assert unitary_gp(0.0) == pytest.approx(2.0 * math.pi, abs=1e-15)
        assert unitary_gp(math.pi) == 0.0

    def test_dynamical(self):
        assert dynamical_phase(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert dynamical_phase(0.0) == pytest.approx(math.pi, abs=1e-15)
        assert dynamical_phase(2.0 * math.pi / 3) == pytest.approx(-math.pi / 2, abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            unitary_gp(-0.1)
        with pytest.raises(DomainError):
            dynamical_phase(3.5)

    @pytest.mark.parametrize("theta", [-0.1, 3.5, math.nan])
    @pytest.mark.parametrize("call", [
        unitary_gp, dynamical_phase, lambda theta: gp_perturbative(params_fig7(0.5), theta),
        lambda theta: eigenvalues_closed_form(theta, 0.5),
    ], ids=["unitary_gp", "dynamical_phase", "gp_perturbative", "eigenvalues_closed_form"])
    def test_closed_interval_checked_alike(self, call, theta):
        """Every route that allows the poles refuses the same angles, alike."""
        with pytest.raises(DomainError, match=rf"^theta must lie in \[0, pi\], got {theta}$"):
            call(theta)
        call(0.0)
        call(math.pi)


class TestGpExact:
    def test_result_record(self):
        """Built by keyword or by position; equal to a result with the same
        fields, hashable, and closed to assignment."""
        result = PhaseResult(phase=1.0, normalized=0.5, quadrature_error=1e-12,
                             near_degenerate=False)
        assert result == PhaseResult(1.0, 0.5, 1e-12, False)
        assert hash(result) == hash(PhaseResult(1.0, 0.5, 1e-12, False))
        assert result != PhaseResult(1.0, 0.5, 1e-12, True)
        assert result != params_fig2(0.5)
        assert repr(result) == ("PhaseResult(phase=1.0, normalized=0.5, "
                                "quadrature_error=1e-12, near_degenerate=False)")
        with pytest.raises(AttributeError):
            result.phase = 2.0

    def test_unitary_limit(self):
        p = ModelParams(gamma0=0.0, lambda_tilde=5.0, omega_tilde=0.03, velocity=0.5)
        for theta in np.linspace(0.02 * math.pi, 0.98 * math.pi, 20):
            result = gp_exact(p, theta)
            assert abs(result.phase - math.pi * (1.0 + math.cos(theta))) < 1e-9
            assert result.normalized == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("make", [params_fig2, params_fig6, params_fig7])
    @pytest.mark.parametrize("v", [0.1, 0.5, 0.9])
    def test_equator_invariance(self, make, v):
        result = gp_exact(make(v), math.pi / 2)
        assert abs(result.phase - math.pi) < 1e-9

    def test_frozen_fig6_point(self):
        result = gp_exact(params_fig6(0.3), 0.1 * math.pi)
        assert result.phase == pytest.approx(6.1559684139934451, abs=2e-9)
        assert result.normalized == pytest.approx(1.0043305198201814, abs=1e-9)
        assert result.quadrature_error < 1e-9
        assert not result.near_degenerate

    def test_frozen_fig7_point(self):
        result = gp_exact(params_fig7(0.5), 0.25 * math.pi)
        assert result.phase == pytest.approx(6.2599306040292506, abs=2e-9)

    def test_monotone_in_final_time(self):
        p = params_fig6(0.5)
        phases = [gp_exact(p, 0.3 * math.pi, s_final=s).phase
                  for s in np.linspace(0.0, 2.0 * TWO_PI, 9)]
        assert phases[0] == 0.0
        assert all(b >= a for a, b in zip(phases, phases[1:]))

    @pytest.mark.parametrize("theta", [0.3, 0.5 * math.pi, 2.5])
    def test_underflowed_coherence_agrees_with_oracle(self, theta):
        # the decay rate is about 1090, so r(s) underflows to 0 inside the period
        p = ModelParams(gamma0=1.0, lambda_tilde=15.0, omega_tilde=0.01, velocity=0.95)
        assert decoherence_factor(p, TWO_PI) == 0.0
        exact = gp_exact(p, theta).phase
        assert circular_difference(exact, gp_kinematic_oracle(p, theta)) <= 5.2e-8

    def test_near_degenerate_flag(self):
        # strong decoherence at the equator collapses the eigenvalue gap
        assert gp_exact(params_fig7(0.9), math.pi / 2).near_degenerate
        assert not gp_exact(params_fig6(0.1), 0.3 * math.pi).near_degenerate

    def test_correction_positive_below_equator(self):
        for theta in np.linspace(0.05 * math.pi, 0.45 * math.pi, 5):
            result = gp_exact(params_fig6(0.5), theta)
            assert result.phase >= unitary_gp(theta) - 1e-12

    @pytest.mark.parametrize("theta", [3.14159265, math.pi - 1e-9])
    def test_normalizing_where_the_unitary_phase_rounds_to_zero_is_refused(self, theta):
        assert unitary_gp(theta) == 0.0
        with pytest.raises(DegenerateStateError, match=rf"^theta must lie strictly inside "
                                                       rf"\(0, pi\), below [0-9.]+, got {theta!r};"):
            gp_exact(params_fig6(0.5), theta)

    def test_normalized_grows_with_velocity(self):
        values = [gp_exact(params_fig6(v), 0.1 * math.pi).normalized
                  for v in np.linspace(0.1, 0.9, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_poles_rejected(self):
        with pytest.raises(DegenerateStateError):
            gp_exact(params_fig6(0.5), 0.0)

    def test_negative_final_time_rejected(self):
        with pytest.raises(DomainError):
            gp_exact(params_fig6(0.5), 0.3 * math.pi, s_final=-1.0)

    def test_infinite_final_time_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            gp_exact(params_fig6(0.5), 0.3 * math.pi, s_final=math.inf)


class TestAnglesGridMirror:
    """The whole-grid reference's angles are the scalar route's."""

    @given(theta=st.floats(0.02 * math.pi, 0.98 * math.pi),
           r=st.floats(1e-12, 1.0))
    def test_matches_scalar_route(self, theta, r):
        sin_t, cos_t = angles_closed_form(theta, r)
        grid_sin, grid_cos = angles_grid(theta, np.array([r]))
        assert grid_sin[0] == pytest.approx(sin_t, abs=1e-15)
        assert grid_cos[0] == pytest.approx(cos_t, abs=1e-15)

    @pytest.mark.parametrize("theta,limit", [
        (0.3, (0.0, 1.0)), (1e-3, (0.0, 1.0)), (0.7 * math.pi, (1.0, 0.0)),
        (0.5 * math.pi, (math.sqrt(0.5), math.sqrt(0.5))),
    ])
    def test_underflowed_coherence_gives_the_r_to_zero_limit(self, theta, limit):
        with np.errstate(divide="raise", invalid="raise"):
            grid_sin, grid_cos = angles_grid(theta, np.array([0.0, 5e-324]))
        assert list(grid_sin) == pytest.approx([limit[0]] * 2, abs=1e-15)
        assert list(grid_cos) == pytest.approx([limit[1]] * 2, abs=1e-15)


class TestKinematicOracle:
    def test_unitary_limit(self):
        p = ModelParams(gamma0=0.0, lambda_tilde=1.0, omega_tilde=0.03, velocity=0.3)
        value = gp_kinematic_oracle(p, math.pi / 3, step_count=20_000)
        assert circular_difference(value, 1.5 * math.pi) < 1e-6

    def test_equator(self):
        value = gp_kinematic_oracle(params_fig6(0.5), math.pi / 2, step_count=20_000)
        assert circular_difference(value, math.pi) < 1e-6

    @pytest.mark.parametrize("make,theta,v", [
        (params_fig6, 0.1 * math.pi, 0.3),
        (params_fig7, 0.25 * math.pi, 0.5),
        (params_fig7, 0.45 * math.pi, 0.9),
    ])
    def test_agrees_with_exact(self, make, theta, v):
        exact = gp_exact(make(v), theta).phase
        oracle = gp_kinematic_oracle(make(v), theta, step_count=50_000)
        assert circular_difference(exact, oracle) < 1e-6

    @settings(max_examples=20, deadline=None)
    @given(gamma0=st.floats(0.0, 1.0), lam=st.floats(0.0, 15.0),
           omega=st.floats(1e-3, 10.0), v=st.floats(0.0, 0.95),
           theta=st.floats(0.0, POLE_LIMIT, exclude_min=True, exclude_max=True),
           periods=st.integers(1, 3))
    # the domain's fastest decay, near the equator: the extrapolated values
    # differ by 1.5e-7 at the default 20,000 steps, and by 3.2e-6 at 10,000
    @example(gamma0=1.0, lam=15.0, omega=1e-3, v=0.95, theta=1.6493361431346414, periods=3)
    def test_agrees_with_exact_over_the_domain(self, gamma0, lam, omega, v, theta, periods):
        """C3's bound, modulo 2*pi, at one to three full periods."""
        p = ModelParams(gamma0=gamma0, lambda_tilde=lam, omega_tilde=omega, velocity=v)
        s_final = periods * TWO_PI
        exact = gp_exact(p, theta, s_final=s_final).phase
        assert circular_difference(exact, gp_kinematic_oracle(p, theta, s_final=s_final)) < 1e-6

    @pytest.mark.parametrize("make,theta,v", [(params_fig6, 0.1 * math.pi, 0.3),
                                              (params_fig7, 0.25 * math.pi, 0.5)])
    def test_error_is_second_order_in_the_step(self, make, theta, v):
        """The extrapolation relies on an O(h^2) error of the plain sums: each
        halving of the step cuts the halving gap by about 4."""
        for n in (1_000, 2_000):
            args = phase_module._kinematic_args(make(v), theta, TWO_PI, n)
            wide, narrow = (circular_difference(a, b) for a, b in zip(args, args[1:]))
            assert 3.5 <= wide / narrow <= 4.5

    @pytest.mark.parametrize("make,theta,v", [(params_fig6, 0.1 * math.pi, 0.3),
                                              (params_fig7, 0.25 * math.pi, 0.5)])
    def test_extrapolated_error_is_fourth_order_in_the_step(self, make, theta, v):
        """Extrapolation cancels the h^2 term: each halving of the step cuts
        the gap between the two extrapolated values by about 16. The counts
        keep that gap far above the rounding of the sums, about 1e-15."""
        gaps = []
        for n in (250, 500, 1_000):
            p1, p2, p4 = phase_module._kinematic_args(make(v), theta, TWO_PI, n)
            gaps.append(circular_difference(phase_module._extrapolated(p1, p2),
                                            phase_module._extrapolated(p2, p4)))
        assert all(15.0 <= wide / narrow <= 17.0 for wide, narrow in zip(gaps, gaps[1:]))

    def test_step_count_validated(self):
        with pytest.raises(DomainError):
            gp_kinematic_oracle(params_fig6(0.3), 0.3 * math.pi, step_count=5)

    @pytest.mark.parametrize("s_final,step_count", [(1e8, 100_000), (1e300, 100_000),
                                                    (1.1, 10), (0.0, 100_000), (1e-310, 10),
                                                    (sys.float_info.min * 9.5, 10)])
    def test_grid_step_bounded(self, s_final, step_count, monkeypatch):
        def no_grid(*args):
            raise AssertionError("the oracle built a grid past the step bound")
        monkeypatch.setattr(phase_module, "_kinematic_args", no_grid)
        with pytest.raises(DomainError, match="grid step"):
            gp_kinematic_oracle(params_fig6(0.3), 0.3 * math.pi, s_final=s_final,
                                step_count=step_count)

    def test_smallest_normal_step_gives_a_finite_phase(self):
        """Subnormal steps gave NaN and are refused; the least normal step is finite."""
        phase = gp_kinematic_oracle(params_fig6(0.3), 0.3 * math.pi,
                                    s_final=sys.float_info.min * 10, step_count=10)
        assert math.isfinite(phase)

    def test_grid_step_at_the_bound_reaches_the_halving_check(self):
        # h = 0.1 passes the bound; step halving then moves the extrapolated
        # phase by 4.3e-4
        with pytest.raises(QuadratureError, match="step halving"):
            gp_kinematic_oracle(params_fig7(0.9), 0.3 * math.pi, s_final=1.0,
                                step_count=10)

    def test_infinite_final_time_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            gp_kinematic_oracle(params_fig6(0.3), 0.3 * math.pi, s_final=math.inf)

    def test_returns_mod_two_pi(self):
        value = gp_kinematic_oracle(params_fig6(0.3), 0.1 * math.pi, step_count=20_000)
        assert 0.0 <= value < TWO_PI


# the step counts' ids name their place against this power of two
BLOCK = 8192


class TestBlockedGrid:
    """The oracle walks its finest grid once, in unnormalized states, and
    reads the coarser grids from every second and every fourth state; at
    each of the three step counts it must give the argument of the whole
    grid of normalized eigenvectors."""

    @pytest.mark.parametrize("step_count", [BLOCK + 1, BLOCK + 2, BLOCK + 3, 2 * BLOCK + 1,
                                            BLOCK // 2, BLOCK // 2 + 1, 10],
                             ids=["one_past", "two_past", "three_past", "two_blocks_one_past",
                                  "half_a_block", "fine_grid_two_past", "fewest_steps"])
    @pytest.mark.parametrize("theta", [0.1 * math.pi, 0.5 * math.pi, 0.8 * math.pi])
    def test_matches_the_whole_grid(self, step_count, theta):
        p = params_fig7(0.5)
        args = phase_module._kinematic_args(p, theta, TWO_PI, step_count)
        for walked, count in zip(args, (step_count, 2 * step_count, 4 * step_count)):
            whole = kinematic_arg_whole_grid(p, theta, TWO_PI, count)
            assert circular_difference(walked, whole) <= 1e-12

    @pytest.mark.parametrize("theta", [0.3, 0.5 * math.pi, 0.7 * math.pi])
    def test_matches_the_whole_grid_where_coherence_underflows(self, theta):
        p = ModelParams(gamma0=1.0, lambda_tilde=15.0, omega_tilde=0.01, velocity=0.95)
        assert decoherence_factor(p, 2 * TWO_PI) == 0.0
        args = phase_module._kinematic_args(p, theta, 2 * TWO_PI, 50_000)
        for walked, count in zip(args, (50_000, 100_000, 200_000)):
            whole = kinematic_arg_whole_grid(p, theta, 2 * TWO_PI, count)
            assert math.isfinite(walked)
            assert circular_difference(walked, whole) <= 1e-12

    def test_memory_does_not_grow_with_step_count(self):
        def peak(step_count):
            tracemalloc.start()
            try:
                gp_kinematic_oracle(params_fig7(0.5), 0.3 * math.pi, step_count=step_count)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a whole grid of 80,001 points would hold about 11 MB
        assert peak(20_000) <= peak(2_000) + 64 * 1024


class TestGpPerturbative:
    def test_zero_coupling_is_unitary(self):
        p = ModelParams(gamma0=0.0, lambda_tilde=3.0, omega_tilde=0.03, velocity=0.7)
        for theta in np.linspace(0.0, math.pi, 9):
            assert gp_perturbative(p, theta) == pytest.approx(unitary_gp(theta), abs=1e-15)

    def test_equator_has_no_correction(self):
        assert gp_perturbative(params_fig7(0.9), math.pi / 2) == pytest.approx(
            math.pi, abs=1e-14)

    def test_frozen_value(self):
        # mpmath, 50 digits
        assert gp_perturbative(params_fig6(0.5), 0.1 * math.pi) == pytest.approx(
            6.1690323286763894, rel=1e-14)

    def test_poles_allowed(self):
        assert gp_perturbative(params_fig6(0.5), 0.0) == pytest.approx(TWO_PI, abs=1e-14)
        assert gp_perturbative(params_fig6(0.5), math.pi) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("gamma0, theta", [(1e307, 1.0), (1e308, 1.0), (1e308, 2.0)])
    def test_overflow_is_a_domain_error(self, gamma0, theta):
        """Past the float range the phase is refused, not returned as +-inf;
        below it the phase stays finite."""
        def params(gamma0):
            return ModelParams(gamma0=gamma0, lambda_tilde=5.0, omega_tilde=0.03, velocity=0.5)

        with pytest.raises(DomainError, match="^the first-order phase overflows") as caught:
            gp_perturbative(params(gamma0), theta)
        assert "\n" not in str(caught.value)
        assert math.isfinite(gp_perturbative(params(1e306), theta))

    def test_rest_matches_vacuum_only_form(self):
        p = ModelParams(gamma0=0.08, lambda_tilde=9.0, omega_tilde=0.03, velocity=0.0)
        theta = 0.2 * math.pi
        expected = (math.pi * (1.0 + math.cos(theta))
                    + math.pi ** 2 / 2 * p.gamma0 * math.cos(theta) * math.sin(theta) ** 2)
        assert gp_perturbative(p, theta) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("theta", [0.1 * math.pi, 0.4 * math.pi, 0.75 * math.pi])
    def test_coefficient_is_slope_of_exact_phase(self, lam, v, theta):
        # the first-order term is the derivative in gamma0 of the exact phase
        gamma0 = 1e-5
        p = ModelParams(gamma0=gamma0, lambda_tilde=lam, omega_tilde=0.03, velocity=v)
        slope = (gp_exact(p, theta).phase - unitary_gp(theta)) / gamma0
        coefficient = (gp_perturbative(p, theta) - unitary_gp(theta)) / gamma0
        assert slope == pytest.approx(coefficient, rel=1e-3)

    @given(gamma0=st.floats(0.0, 1.0), v=st.floats(0.0, 0.99),
           omega=st.floats(1e-3, 1.0), theta=st.floats(0.0, math.pi))
    def test_no_plate_reduces_to_vacuum_form(self, gamma0, v, omega, theta):
        p = ModelParams(gamma0=gamma0, lambda_tilde=0.0, omega_tilde=omega, velocity=v)
        expected = (math.pi * (1.0 + math.cos(theta))
                    + math.pi ** 2 / 2 * gamma0 * (1.0 + (2.0 / 3.0) * v * v)
                    * math.cos(theta) * math.sin(theta) ** 2)
        assert abs(gp_perturbative(p, theta) - expected) <= 1e-14
