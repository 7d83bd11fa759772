"""Tests for the dissipative model: influence action, decoherence factor and times.

Frozen reference numbers were computed independently with mpmath at 50
digits, straight from the closed formulas.
"""

import math
import pickle
from array import array

import pytest
from hypothesis import example, given, strategies as st

from mirrorphase import (DomainError, ModelParams, NoDecoherenceError,
                         decoherence_factor, decoherence_time,
                         dephasing_multiplier, friction_factor,
                         im_influence_action, im_inout_action, model)

from conftest import params_fig2


def make(gamma0=0.05, lam=5.0, omega=0.03, v=0.5, omega0=1.0):
    return ModelParams(gamma0=gamma0, lambda_tilde=lam, omega_tilde=omega,
                       velocity=v, omega0_tilde=omega0)


class TestParams:
    def test_valid(self):
        make()

    @pytest.mark.parametrize("kwargs", [
        dict(gamma0=-0.1), dict(lam=-1.0), dict(omega=0.0), dict(omega=-0.03),
        dict(omega0=0.0), dict(v=-0.1), dict(v=1.0), dict(v=1.5),
        dict(gamma0=math.nan), dict(v=math.nan),
        dict(gamma0=math.inf), dict(lam=math.inf), dict(omega=math.inf),
        dict(omega0=math.inf),
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(DomainError):
            make(**kwargs)

    def test_record_contract(self):
        """Built by keyword or by position, with omega0_tilde defaulting to 1;
        equal only to a ModelParams with the same fields, hashable, and closed
        to assignment and deletion; a pickled copy is built anew."""
        params = ModelParams(0.05, 5.0, 0.03, 0.5)
        assert params == make() and hash(params) == hash(make())
        copied = pickle.loads(pickle.dumps(params))
        assert copied == params and dephasing_multiplier(copied) == dephasing_multiplier(params)
        assert params.omega0_tilde == 1.0 and params != make(omega0=2.0)
        assert params != (0.05, 5.0, 0.03, 0.5, 1.0)
        with pytest.raises(AttributeError):
            params.gamma0 = 0.1
        with pytest.raises(AttributeError):
            params.extra = 1.0
        with pytest.raises(AttributeError):
            del params.gamma0
        assert params == make()

    def test_multiplier_is_kept_beside_the_fields(self, monkeypatch):
        """Computed once at construction, the multiplier is no field: equality,
        hashing and repr see the five fields alone, and each ModelParams
        computes its own."""
        params = make()
        assert params == ModelParams(0.05, 5.0, 0.03, 0.5, 1.0)
        assert params == make() and hash(params) == hash(make())
        assert params != make(v=0.9)
        assert repr(params) == ("ModelParams(gamma0=0.05, lambda_tilde=5.0, "
                                "omega_tilde=0.03, velocity=0.5, omega0_tilde=1.0)")
        assert dephasing_multiplier(make(v=0.9)) != dephasing_multiplier(params)
        with pytest.raises(AttributeError):
            params.velocity = 0.9

        def recomputed(_):
            raise AssertionError("friction_factor called after construction")
        monkeypatch.setattr(model, "friction_factor", recomputed)
        dephasing_multiplier(params)
        decoherence_factor(params, 1.0)
        decoherence_time(params)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 15.0), st.floats(1e-3, 1.0),
           st.floats(0.0, 0.99), st.floats(0.0, 100.0))
    def test_cached_multiplier_keeps_every_bit(self, gamma0, lam, omega, v, s):
        """The kept value and the rate's operation order give the bits of
        the per-call formula 0.5*gamma0*s*(1 + (2/3)v^2 + friction_factor)."""
        params = make(gamma0=gamma0, lam=lam, omega=omega, v=v)
        multiplier = 1.0 + (2.0 / 3.0) * v * v + friction_factor(params)
        assert dephasing_multiplier(params) == multiplier
        assert decoherence_factor(params, s) == math.exp(-(0.5 * gamma0 * s * multiplier))


class TestFrictionFactor:
    def test_rest_is_exactly_zero(self):
        assert friction_factor(make(v=0.0)) == 0.0

    def test_no_plate_coupling(self):
        assert friction_factor(make(lam=0.0)) == 0.0

    @pytest.mark.parametrize("v,omega", [(0.0, 0.03), (0.01, 1000.0)])
    def test_zero_damping_beats_an_overflowing_coupling(self, v, omega):
        # lambda^2 overflows to inf while the damping is 0: inf*0 must not give NaN
        assert friction_factor(make(lam=1e200, omega=omega, v=v)) == 0.0

    def test_infinite_plate_term_rejected(self):
        with pytest.raises(DomainError, match=r"^lambda must keep the dephasing multiplier "
                                              r"finite, got 1e\+200 at velocity 0.5$"):
            make(gamma0=0.0, lam=1e200, v=0.5)

    def test_small_omega_limit(self):
        # exponent vanishes, leaving v/(1 - v^2)
        value = friction_factor(make(lam=1.0, omega=1e-12, v=0.5))
        assert value == pytest.approx(0.5 / 0.75, rel=1e-9)

    def test_frozen_value(self):
        # mpmath, 50 digits
        assert friction_factor(make(lam=1.0, v=0.5)) == pytest.approx(
            0.6008631005129370, rel=1e-13)

    def test_strictly_increasing_in_velocity(self):
        grid = [0.05 * k for k in range(1, 20)]
        values = [friction_factor(make(lam=1.0, v=v)) for v in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    @given(lam=st.floats(0.0, 20.0), omega=st.floats(1e-6, 10.0),
           v=st.floats(0.0, 0.99))
    def test_bounded_by_zero_frequency_envelope(self, lam, omega, v):
        # the exponential factor never exceeds 1
        assert 0.0 <= friction_factor(make(lam=lam, omega=omega, v=v)) \
            <= lam * lam * v / (1.0 - v * v) + 1e-15


class TestInfluenceAction:
    def test_zero_coupling(self):
        assert im_influence_action(make(gamma0=0.0), math.pi) == 0.0

    def test_vacuum_only_frozen(self):
        assert im_influence_action(make(v=0.0), math.pi) == pytest.approx(
            0.07853981633974483, rel=1e-14)

    def test_full_frozen(self):
        assert im_influence_action(make(), math.pi) == pytest.approx(
            1.2714217247200951, rel=1e-13)

    def test_multiplier_frozen(self):
        assert dephasing_multiplier(make()) == pytest.approx(
            16.18824417949009, rel=1e-13)

    @given(s=st.floats(0.0, 100.0), a=st.floats(0.0, 50.0))
    def test_linear_in_time(self, s, a):
        p = make()
        assert im_influence_action(p, a * s) == pytest.approx(
            a * im_influence_action(p, s), rel=1e-12, abs=1e-300)

    def test_strictly_increasing_in_velocity(self):
        grid = [0.05 * k for k in range(1, 20)]
        values = [im_influence_action(make(v=v), math.pi) for v in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            im_influence_action(make(), -0.1)

    def test_infinite_time_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            im_influence_action(make(), math.inf)


class TestDecoherenceFactor:
    def test_starts_at_one(self):
        assert decoherence_factor(make(), 0.0) == 1.0

    def test_vacuum_only_frozen(self):
        assert decoherence_factor(make(v=0.0), math.pi) == pytest.approx(
            0.9244652503762559, rel=1e-14)

    def test_full_frozen(self):
        assert decoherence_factor(make(), math.pi) == pytest.approx(
            0.28043264020769914, rel=1e-13)

    def test_strictly_decreasing_in_time(self):
        p = make()
        values = [decoherence_factor(p, 0.1 * k) for k in range(50)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_low_velocity_limit(self):
        # friction and the v^2 enhancement both switch off as v -> 0
        p = params_fig2(1e-6)
        for k in range(1, 9):
            s = 0.5 * k * math.pi
            assert abs(decoherence_factor(p, s)
                       - math.exp(-0.5 * p.gamma0 * s)) < 1e-6

    @given(s=st.floats(0.0, 50.0), v=st.floats(0.0, 0.95))
    def test_range(self, s, v):
        r = decoherence_factor(make(v=v), s)
        assert 0.0 < r <= 1.0

    def test_extreme_action_underflows_to_zero(self):
        # beyond action ~745 the factor is below the smallest double
        assert decoherence_factor(make(v=0.99), 1e4) == 0.0


def model_params_in_domain():
    """``ModelParams`` from the documented domain, its edges drawn often;
    lambda stays below 1e100, where the multiplier is finite at every velocity."""
    return st.builds(
        ModelParams,
        gamma0=st.one_of(st.sampled_from([0.0, 1e-300, 5e-324, 0.05]),
                         st.floats(0.0, allow_infinity=False)),
        lambda_tilde=st.one_of(st.sampled_from([0.0, 5.0, 15.0]), st.floats(0.0, 1e100)),
        omega_tilde=st.floats(5e-324, allow_infinity=False),
        velocity=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)))


class TestDecoherenceFactors:
    """``model._decoherence_factors``, the block form that sweeps use."""

    @given(params=model_params_in_domain(),
           times=st.lists(st.one_of(st.sampled_from([0.0, 5e-324, math.pi, 1e4, 1e308]),
                                    st.floats(0.0, 100.0),
                                    st.floats(0.0, allow_infinity=False)), max_size=20))
    @example(params=make(gamma0=0.0, v=0.0), times=[0.0, 1.0, 1e308])
    @example(params=make(gamma0=1e-300, v=0.0), times=[0.0, 1.0, 1e308])
    @example(params=make(), times=[0.0, 1e4, 1e308])
    def test_matches_decoherence_factor_bit_for_bit(self, params, times):
        block = model._decoherence_factors(params, array("d", times))
        expected = [decoherence_factor(params, s) for s in times]
        assert array("d", block).tobytes() == array("d", expected).tobytes()


class TestDecoherenceTime:
    def test_vacuum_only(self):
        assert decoherence_time(make(v=0.0)) == pytest.approx(40.0, abs=1e-9)

    def test_unit_multiplier(self):
        assert decoherence_time(make(gamma0=2.0, v=0.0)) == pytest.approx(1.0, abs=1e-10)

    def test_full_frozen(self):
        assert decoherence_time(make()) == pytest.approx(2.4709288763186882, rel=1e-10)

    def test_residual(self):
        for p in [make(), make(gamma0=0.7, lam=12.0, v=0.9), make(gamma0=1e-4, v=0.0)]:
            assert abs(im_influence_action(p, decoherence_time(p)) - 1.0) < 1e-9

    def test_no_decoherence(self):
        with pytest.raises(NoDecoherenceError):
            decoherence_time(make(gamma0=0.0))

    @pytest.mark.parametrize("gamma0", [1e-70, 1e-300])
    def test_tiny_coupling_matches_analytic_inversion(self, gamma0):
        # the time lies far beyond 2**200, so the bracket must keep growing
        p = make(gamma0=gamma0)
        expected = 2.0 / (gamma0 * dephasing_multiplier(p))
        assert decoherence_time(p) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("gamma0, v", [(1e-320, 0.5), (5e-324, 0.5)],
                             ids=["overflow", "least_double"])
    def test_time_past_the_bracket_names_gamma0(self, gamma0, v, monkeypatch):
        """Where 2/(gamma0*multiplier) lies past the largest double, which
        the bracket cannot reach, gamma0 is refused before the bracket grows."""
        def no_search(*args, **kwargs):
            raise AssertionError("the bracket grew")
        monkeypatch.setattr(model, "find_root_bracketed", no_search)
        with pytest.raises(DomainError, match=r"^gamma0 .* exceeds the largest double$"):
            decoherence_time(make(gamma0=gamma0, v=v))

    @pytest.mark.parametrize("gamma0, lam, v", [(1.5e-308, 5.0, 0.0), (1.2e-308, 0.0, 0.0),
                                                (1.0e-308, 0.0, 0.5)])
    def test_time_past_2_to_the_1023_is_found(self, gamma0, lam, v):
        """Times in (2**1023, 1.8e308] are finite doubles: the bracket's last
        growth stops at the largest double, and bisection does not overflow."""
        p = make(gamma0=gamma0, lam=lam, v=v)
        expected = 2.0 / (gamma0 * dephasing_multiplier(p))
        assert 2.0 ** 1023 < expected < math.inf
        assert decoherence_time(p) == pytest.approx(expected, rel=1e-12)

    @given(gamma0=st.floats(1.1e-308, 1.2e-308), lam=st.sampled_from([0.0, 5.0]))
    def test_edge_of_the_double_range_is_found_or_names_gamma0(self, gamma0, lam):
        """Near 2/(gamma0*multiplier) = the largest double, decoherence_time
        returns a finite time or refuses gamma0, nothing else."""
        try:
            assert math.isfinite(decoherence_time(make(gamma0=gamma0, lam=lam, v=0.0)))
        except DomainError as exc:
            assert str(exc).startswith(f"gamma0 {gamma0!r} is too small")


class TestInOutAction:
    def test_rest_is_zero(self):
        assert im_inout_action(make(v=0.0, omega0=0.03), 1.0) == 0.0

    def test_zero_coupling_is_zero(self):
        assert im_inout_action(make(gamma0=0.0, omega0=0.03), 1.0) == 0.0

    def test_frozen_value(self):
        # mpmath, 50 digits
        assert im_inout_action(make(omega0=0.03), 1.0) == pytest.approx(
            0.43232113898289178, rel=1e-13)

    def test_linear_in_flight_time(self):
        p = make(omega0=0.03)
        assert im_inout_action(p, 2.0) == pytest.approx(
            2.0 * im_inout_action(p, 1.0), rel=1e-14)

    def test_huge_omega_underflows_to_zero(self):
        # omega_tilde^2 overflows, but the damping underflows long before
        assert im_inout_action(ModelParams(0.05, 5, 1e200, 0.5), 1.0) == 0.0

    def test_tiny_frequencies(self):
        # (omega0 + omega)^2 and 32*omega*omega0 underflow to 0; mpmath, 50 digits
        assert im_inout_action(make(omega=1e-200, omega0=1e-200), 1.0) == pytest.approx(
            1.6362461737446840985e198, rel=1e-13)

    def test_overflow_names_omega0(self):
        with pytest.raises(DomainError, match=r"^omega0 1e-300 takes the in-out action past"):
            im_inout_action(make(gamma0=1e300, omega0=1e-300), 1.0)

    def test_negative_flight_time_rejected(self):
        with pytest.raises(DomainError):
            im_inout_action(make(omega0=0.03), -1.0)
