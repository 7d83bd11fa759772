"""Closed-form eigensystem of the dephasing state against direct diagonalization."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mirrorphase import (DegenerateStateError, DomainError, ModelParams,
                         angles_closed_form, bloch_cosine, decoherence_factor,
                         eigenvalues_closed_form)
from mirrorphase.qubit import POLE_LIMIT

from oracles import density_matrix, eig_numeric, eigenvector_plus

thetas = st.floats(min_value=0.02 * math.pi, max_value=0.98 * math.pi)
rs = st.floats(min_value=0.01, max_value=1.0)
times = st.floats(min_value=0.0, max_value=4.0 * math.pi)


class TestDensityMatrix:
    def test_fully_decohered_equator(self):
        state = density_matrix(math.pi / 2, 0.0, 0.0)
        assert np.allclose(state.matrix, np.eye(2) / 2, atol=1e-15)

    def test_initial_pure_state_is_projector(self):
        theta = math.pi / 3
        state = density_matrix(theta, 0.0, 1.0)
        vec = np.array([math.cos(theta / 2), math.sin(theta / 2)])
        assert np.allclose(state.matrix, np.outer(vec, vec), atol=1e-15)
        assert state.purity == pytest.approx(1.0, abs=1e-14)

    @given(theta=thetas, s=times, r=rs)
    def test_invariants(self, theta, s, r):
        state = density_matrix(theta, s, r)
        rho = state.matrix
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-14
        assert abs(np.trace(rho).real - 1.0) <= 1e-14
        eigvals, _ = eig_numeric(state)
        assert eigvals.min() >= -1e-14
        assert 0.5 - 1e-12 <= state.purity <= 1.0 + 1e-12

    def test_purity_non_increasing_under_decoherence(self):
        p = ModelParams(gamma0=0.3, lambda_tilde=5.0, omega_tilde=0.03, velocity=0.5)
        purities = [density_matrix(0.3 * math.pi, s, decoherence_factor(p, s)).purity
                    for s in np.linspace(0.0, 4.0 * math.pi, 25)]
        assert all(b <= a + 1e-15 for a, b in zip(purities, purities[1:]))

    @pytest.mark.parametrize("r", [-0.1, 1.1, math.nan])
    def test_bad_decoherence_factor(self, r):
        with pytest.raises(DomainError):
            density_matrix(math.pi / 3, 0.0, r)

    @pytest.mark.parametrize("theta", [0.0, math.pi, -0.2, 3.5])
    def test_poles_rejected(self, theta):
        with pytest.raises(DegenerateStateError):
            density_matrix(theta, 0.0, 1.0)


class TestEigenvaluesClosedForm:
    def test_pure_state(self):
        assert eigenvalues_closed_form(1.234, 1.0) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_maximal_mixing(self):
        assert eigenvalues_closed_form(math.pi / 2, 0.0) == (0.5, 0.5)

    def test_equator_half_coherence(self):
        assert eigenvalues_closed_form(math.pi / 2, 0.5) == pytest.approx((0.75, 0.25))

    def test_lower_eigenvalue_vanishes_only_for_pure(self):
        assert eigenvalues_closed_form(0.3 * math.pi, 1.0)[1] == pytest.approx(0.0, abs=1e-16)
        assert eigenvalues_closed_form(0.3 * math.pi, 0.99)[1] > 0.0

    @given(theta=thetas, r=st.floats(0.0, 1.0))
    def test_sum_and_order(self, theta, r):
        plus, minus = eigenvalues_closed_form(theta, r)
        assert plus + minus == pytest.approx(1.0, abs=1e-15)
        assert plus >= minus


class TestAnglesClosedForm:
    def test_pure_state_halves_the_angle(self):
        for theta in np.linspace(0.05 * math.pi, 0.95 * math.pi, 7):
            sin_t, cos_t = angles_closed_form(theta, 1.0)
            assert sin_t == pytest.approx(math.sin(theta / 2), abs=1e-14)
            assert cos_t == pytest.approx(math.cos(theta / 2), abs=1e-14)

    @pytest.mark.parametrize("r", [1.0, 0.5, 1e-3, 1e-12])
    def test_equator_is_balanced_for_any_coherence(self, r):
        sin_t, cos_t = angles_closed_form(math.pi / 2, r)
        assert sin_t == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert cos_t == pytest.approx(math.sqrt(0.5), abs=1e-15)

    @pytest.mark.parametrize("r", [2.2250738585072014e-308, 1e-310, 1e-320, 5e-324])
    def test_equator_is_balanced_for_subnormal_coherence(self, r):
        """r sin(theta) is subnormal, and its hypot with itself rounds far
        from sqrt(2) times it, so the pair is returned, not computed."""
        assert angles_closed_form(math.pi / 2, r) == (math.sqrt(0.5), math.sqrt(0.5))

    @given(theta=thetas, r=rs)
    def test_normalized_and_non_negative(self, theta, r):
        sin_t, cos_t = angles_closed_form(theta, r)
        assert sin_t * sin_t + cos_t * cos_t == pytest.approx(1.0, abs=1e-12)
        assert cos_t >= 0.0
        assert sin_t >= 0.0

    def test_survives_extreme_decoherence(self):
        # r^2 underflows; the hypot/conjugate evaluation must not produce NaN
        for theta in (0.1 * math.pi, 0.9 * math.pi):
            sin_t, cos_t = angles_closed_form(theta, 1e-290)
            assert math.isfinite(sin_t) and math.isfinite(cos_t)
            assert sin_t * sin_t + cos_t * cos_t == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.3, 1e-3])
    def test_underflowing_coherence_gives_the_r_to_zero_limit(self, theta):
        # r*sin(theta) rounds to 0 although r > 0
        assert angles_closed_form(theta, 5e-324) == (0.0, 1.0)

    @pytest.mark.parametrize("theta,limit", [
        (0.3, (0.0, 1.0)), (1e-3, (0.0, 1.0)), (0.7 * math.pi, (1.0, 0.0)),
        (0.5 * math.pi, (math.sqrt(0.5), math.sqrt(0.5))),
    ])
    def test_zero_coherence_gives_the_r_to_zero_limit(self, theta, limit):
        assert angles_closed_form(theta, 0.0) == pytest.approx(limit, abs=1e-15)

    @pytest.mark.parametrize("r", [-1e-300, -0.5, 1.0 + 1e-15, math.nan])
    def test_coherence_outside_unit_interval_rejected(self, r):
        with pytest.raises(DomainError):
            angles_closed_form(math.pi / 3, r)

    def test_poles_rejected(self):
        with pytest.raises(DegenerateStateError):
            angles_closed_form(0.0, 0.5)

    def test_pole_limit_is_the_first_angle_where_the_unitary_phase_rounds_to_zero(self):
        below = math.nextafter(POLE_LIMIT, 0.0)
        assert bloch_cosine(POLE_LIMIT) == -1.0
        assert bloch_cosine(below) > -1.0
        assert angles_closed_form(below, 0.5).sin_theta_t > 0.0
        with pytest.raises(DegenerateStateError, match=r"^theta must lie strictly inside"):
            angles_closed_form(POLE_LIMIT, 0.5)


class TestEigNumeric:
    def test_maximally_mixed(self):
        eigvals, _ = eig_numeric(np.eye(2, dtype=complex) / 2)
        assert eigvals == pytest.approx([0.5, 0.5])

    def test_pure_projector(self):
        vec = np.array([math.cos(0.2), math.sin(0.2)])
        eigvals, eigvecs = eig_numeric(np.outer(vec, vec).astype(complex))
        assert eigvals == pytest.approx([1.0, 0.0], abs=1e-15)
        assert abs(np.vdot(eigvecs[:, 0], vec)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_ordering(self):
        eigvals, eigvecs = eig_numeric(np.diag([0.3, 0.7]).astype(complex))
        assert eigvals == pytest.approx([0.7, 0.3])
        assert np.allclose(eigvecs[:, 0], [0.0, 1.0])
        assert np.allclose(eigvecs[:, 1], [1.0, 0.0])

    def test_phase_fix_first_component_real_positive(self):
        state = density_matrix(0.4 * math.pi, 1.7, 0.6)
        _, eigvecs = eig_numeric(state)
        for k in range(2):
            pivot = eigvecs[0, k] if abs(eigvecs[0, k]) > 1e-12 else eigvecs[1, k]
            assert pivot.imag == pytest.approx(0.0, abs=1e-15)
            assert pivot.real > 0.0

    @given(theta=thetas, s=times, r=rs)
    def test_matches_numpy_eigh(self, theta, s, r):
        rho = density_matrix(theta, s, r).matrix
        eigvals, eigvecs = eig_numeric(rho)
        ref_vals, ref_vecs = np.linalg.eigh(rho)
        assert eigvals == pytest.approx(ref_vals[::-1], abs=1e-13)
        for k in range(2):
            overlap = abs(np.vdot(eigvecs[:, k], ref_vecs[:, 1 - k]))
            assert overlap == pytest.approx(1.0, abs=1e-12)


class TestOracleEquivalence:
    """Closed forms against direct diagonalization over a 10x10x10 grid."""

    grid_theta = np.linspace(0.05 * math.pi, 0.95 * math.pi, 10)
    grid_s = np.linspace(0.0, 4.0 * math.pi, 10)
    grid_r = np.linspace(0.01, 1.0, 10)

    def test_eigenvalues(self):
        for theta in self.grid_theta:
            for s in self.grid_s:
                for r in self.grid_r:
                    numeric, _ = eig_numeric(density_matrix(theta, s, r))
                    closed = eigenvalues_closed_form(theta, r)
                    assert abs(numeric[0] - closed[0]) < 1e-12
                    assert abs(numeric[1] - closed[1]) < 1e-12

    def test_eigenvectors(self):
        for theta in self.grid_theta:
            for s in self.grid_s:
                for r in self.grid_r:
                    _, vecs = eig_numeric(density_matrix(theta, s, r))
                    closed = eigenvector_plus(theta, s, r)
                    assert abs(np.vdot(closed, vecs[:, 0])) >= 1.0 - 1e-10


class TestEigenvectorPlus:
    def test_initial_state(self):
        theta = 0.3 * math.pi
        vec = eigenvector_plus(theta, 0.0, 1.0)
        assert vec[0].real == pytest.approx(math.cos(theta / 2), abs=1e-14)
        assert vec[1].real == pytest.approx(math.sin(theta / 2), abs=1e-14)

    def test_equator_amplitudes(self):
        vec = eigenvector_plus(math.pi / 2, math.pi, 0.5)
        assert abs(vec[0]) == pytest.approx(math.sqrt(0.5), abs=1e-14)
        assert abs(vec[1]) == pytest.approx(math.sqrt(0.5), abs=1e-14)

    @given(theta=thetas, s=times, r=rs)
    def test_unit_norm(self, theta, s, r):
        vec = eigenvector_plus(theta, s, r)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
