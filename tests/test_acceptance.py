"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math
import time

import numpy as np
import pytest

from mirrorphase import (ModelParams, circular_difference, dataset_to_csv,
                         dataset_to_json, decoherence_factor, decoherence_time,
                         eigenvalues_closed_form, figure_preset, gp_exact,
                         gp_kinematic_oracle, gp_perturbative, im_influence_action,
                         read_dataset_csv, run_sweep, unitary_gp, write_dataset)

from conftest import params_fig2, params_fig6, params_fig7
from oracles import (density_matrix, eig_numeric, eigenvector_plus, reference_csv,
                     reference_json)

TWO_PI = 2.0 * math.pi


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c1_unitary_limit():
    """gamma0 = 0 reproduces pi*(1+cos(theta)) within 1e-9 across 20 angles."""
    start = time.monotonic()
    free = ModelParams(gamma0=0.0, lambda_tilde=5.0, omega_tilde=0.03, velocity=0.5)
    worst = max(abs(gp_exact(free, theta).phase - math.pi * (1.0 + math.cos(theta)))
                for theta in np.linspace(0.02 * math.pi, 0.98 * math.pi, 20))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 1.0
    report("1 unitary limit", ok, f"worst |dphi| = {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_c2_equator_invariance():
    """The phase at theta = pi/2 equals pi within 1e-9 for every parameter set."""
    start = time.monotonic()
    worst = max(abs(gp_exact(make(v), math.pi / 2).phase - math.pi)
                for make in (params_fig2, params_fig6, params_fig7)
                for v in (0.1, 0.5, 0.9))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 1.0
    report("2 equator invariance", ok, f"worst |phase - pi| = {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_c3_phase_oracle_equivalence():
    """Quadrature route vs kinematic route, mod 2*pi, on a 5x5 grid."""
    start = time.monotonic()
    worst = 0.0
    for theta in np.linspace(0.1 * math.pi, 0.9 * math.pi, 5):
        for v in (0.1, 0.3, 0.5, 0.7, 0.9):
            p = params_fig6(v)
            gap = circular_difference(gp_exact(p, theta).phase,
                                      gp_kinematic_oracle(p, theta, step_count=20_000))
            worst = max(worst, gap)
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 30.0
    report("3 phase oracle equivalence", ok,
           f"worst circular gap = {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < 30.0


def test_c4_eigensystem_oracle_equivalence():
    """Closed-form eigensystem vs direct diagonalization on a 1000-point grid."""
    start = time.monotonic()
    worst_eig = 0.0
    worst_overlap = 1.0
    for theta in np.linspace(0.05 * math.pi, 0.95 * math.pi, 10):
        for s in np.linspace(0.0, 2.0 * TWO_PI, 10):
            for r in np.linspace(0.01, 1.0, 10):
                numeric_vals, numeric_vecs = eig_numeric(density_matrix(theta, s, r))
                closed_vals = eigenvalues_closed_form(theta, r)
                worst_eig = max(worst_eig,
                                abs(numeric_vals[0] - closed_vals[0]),
                                abs(numeric_vals[1] - closed_vals[1]))
                overlap = abs(np.vdot(eigenvector_plus(theta, s, r),
                                      numeric_vecs[:, 0]))
                worst_overlap = min(worst_overlap, overlap)
    elapsed = time.monotonic() - start
    ok = worst_eig < 1e-12 and worst_overlap >= 1.0 - 1e-10 and elapsed < 1.0
    report("4 eigensystem oracle equivalence", ok,
           f"worst |deps| = {worst_eig:.3e}, worst overlap = 1 - {1.0 - worst_overlap:.3e}, "
           f"{elapsed:.2f}s")
    assert worst_eig < 1e-12
    assert worst_overlap >= 1.0 - 1e-10
    assert elapsed < 1.0


def test_c5_perturbative_order():
    """Residual |gp_exact - gp_perturbative| shrinks by a factor in [3, 5] when
    gamma0 is halved from 0.05 to 0.025 (theta = 0.1*pi, v = 0.3, plate
    coupling 1, frequency 0.03).

    The closed form carries the exact first-order coefficient
    (pi^2/2)*multiplier*cos*sin^2 (~0.597 per unit gamma0 here), so the
    residual is second order and the ratio sits near 4.
    """
    start = time.monotonic()

    def residual(gamma0):
        p = ModelParams(gamma0=gamma0, lambda_tilde=1.0, omega_tilde=0.03,
                        velocity=0.3)
        return abs(gp_exact(p, 0.1 * math.pi).phase - gp_perturbative(p, 0.1 * math.pi))

    ratio = residual(0.05) / residual(0.025)
    elapsed = time.monotonic() - start
    ok = 3.0 <= ratio <= 5.0 and elapsed < 5.0
    report("5 perturbative order", ok, f"halving ratio = {ratio:.4f}, {elapsed:.2f}s")
    assert elapsed < 5.0
    assert 3.0 <= ratio <= 5.0


def test_c6_no_plate_consistency():
    """With the plate decoupled the closed form reduces exactly to the
    vacuum-only expression pi*(1+cos) + (pi^2/2)*gamma0*(1 + (2/3)v^2)*cos*sin^2,
    the first-order phase under the vacuum decay r = exp(-gamma0*s/2*(1 + (2/3)v^2))."""
    start = time.monotonic()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(100):
        gamma0 = float(rng.uniform(0.0, 1.0))
        v = float(rng.uniform(0.0, 0.99))
        omega = float(rng.uniform(1e-3, 1.0))
        theta = float(rng.uniform(0.0, math.pi))
        p = ModelParams(gamma0=gamma0, lambda_tilde=0.0, omega_tilde=omega, velocity=v)
        reference = (math.pi * (1.0 + math.cos(theta))
                     + math.pi ** 2 / 2 * gamma0 * (1.0 + (2.0 / 3.0) * v * v)
                     * math.cos(theta) * math.sin(theta) ** 2)
        worst = max(worst, abs(gp_perturbative(p, theta) - reference))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-14
    report("6 no-plate consistency", ok, f"worst |delta| = {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-14


def test_c7_decoherence_monotonicity_and_limits():
    """Orderings in time, velocity and plate coupling; slow-motion limit;
    decoherence-time residual."""
    start = time.monotonic()

    # strictly decreasing in time (one curve per velocity)
    for v in (0.1, 0.5, 0.9):
        p = params_fig2(v)
        values = [decoherence_factor(p, s) for s in np.linspace(0.0, 2.0 * TWO_PI, 60)]
        assert all(b < a for a, b in zip(values, values[1:]))

    # strictly decreasing in velocity at fixed time, for every plate coupling
    for lam in (1.0, 5.0, 10.0, 15.0):
        values = [decoherence_factor(
            ModelParams(gamma0=0.05, lambda_tilde=lam, omega_tilde=0.03, velocity=v),
            math.pi) for v in np.linspace(0.05, 0.95, 19)]
        assert all(b < a for a, b in zip(values, values[1:]))

    # strictly decreasing in plate coupling at fixed positive velocity
    for v in (0.1, 0.5, 0.9):
        values = [decoherence_factor(
            ModelParams(gamma0=0.05, lambda_tilde=lam, omega_tilde=0.03, velocity=v),
            math.pi) for lam in (1.0, 5.0, 10.0, 15.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    # slow-motion limit: pure vacuum decay
    slow = params_fig2(1e-6)
    worst_limit = max(abs(decoherence_factor(slow, s) - math.exp(-0.5 * slow.gamma0 * s))
                      for s in np.linspace(0.0, 2.0 * TWO_PI, 40))
    assert worst_limit < 1e-6

    # decoherence-time residual
    worst_residual = max(
        abs(im_influence_action(p, decoherence_time(p)) - 1.0)
        for p in (params_fig2(0.5), params_fig6(0.3), params_fig7(0.9),
                  ModelParams(gamma0=2.0, lambda_tilde=0.0, omega_tilde=0.03,
                              velocity=0.0)))
    elapsed = time.monotonic() - start
    ok = worst_limit < 1e-6 and worst_residual < 1e-9 and elapsed < 1.0
    report("7 decoherence monotonicity and limits", ok,
           f"limit gap = {worst_limit:.3e}, action residual = {worst_residual:.3e}, "
           f"{elapsed:.2f}s")
    assert worst_residual < 1e-9
    assert elapsed < 1.0


def _rows_by_first_axis(dataset):
    series = {}
    for row in dataset.rows:
        series.setdefault(row[0], []).append(row[1:])
    return series


def _check_fig2(dataset):
    series = _rows_by_first_axis(dataset)
    velocities = sorted(series)
    for points in series.values():
        values = [r for _, r in points]
        assert all(b < a for a, b in zip(values, values[1:]))
    for idx in range(1, 200):  # s > 0 only; every curve starts at r = 1
        column = [series[v][idx][1] for v in velocities]
        assert all(b < a for a, b in zip(column, column[1:]))


def _check_fig3(dataset):
    series = _rows_by_first_axis(dataset)
    couplings = sorted(series)
    for points in series.values():
        values = [r for _, r in points]
        assert all(b < a for a, b in zip(values, values[1:]))
    for idx in range(len(series[couplings[0]])):
        column = [series[lam][idx][1] for lam in couplings]
        assert all(b < a for a, b in zip(column, column[1:]))


def _check_fig4(dataset):
    # the lowest-velocity column approaches the plate-independent value
    v_min = min(row[1] for row in dataset.rows)
    for theta, v, normalized, _, _ in dataset.rows:
        if v == v_min:
            vacuum = gp_exact(
                ModelParams(gamma0=0.05, lambda_tilde=0.0, omega_tilde=0.03,
                            velocity=v), theta).normalized
            assert abs(normalized - vacuum) < 2e-3


def _check_fig5(dataset):
    # gamma0 = 0 series: free evolution accumulates phase linearly in time
    for gamma0, lam, v, s, normalized, _, _ in dataset.rows:
        if gamma0 == 0.0:
            assert abs(normalized - s / TWO_PI) < 1e-9


def _check_fig67(dataset):
    series = {}
    for theta, v, normalized, _, _ in dataset.rows:
        series.setdefault(theta, []).append(normalized)
    for values in series.values():
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def _check_fig8(dataset):
    for theta, v, exact, approx, ratio in dataset.rows:
        assert exact > 0.0 and approx > 0.0
        assert ratio == pytest.approx(exact / approx, rel=1e-15)


_FIGURE_CHECKS = {2: _check_fig2, 3: _check_fig3, 4: _check_fig4,
                  5: _check_fig5, 6: _check_fig67, 7: _check_fig67, 8: _check_fig8}


@pytest.mark.parametrize("n", range(2, 9))
def test_c8_figure_regeneration(n, tmp_path):
    """Each preset completes in < 60 s, is NaN-free, satisfies its ordering or
    boundary property, reproduces bit-identically, both writers spell it
    as the per-value formula does, and its CSV read back writes the same
    bytes again."""
    start = time.monotonic()
    dataset = run_sweep(figure_preset(n))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    for row in dataset.rows:
        assert all(math.isfinite(x) for x in row)
    _FIGURE_CHECKS[n](dataset)
    repeat = run_sweep(figure_preset(n))
    identical = dataset_to_csv(dataset) == dataset_to_csv(repeat)
    formula = (dataset_to_csv(dataset) == reference_csv(dataset)
               and dataset_to_json(dataset) == reference_json(dataset))
    path = tmp_path / f"fig{n}.csv"
    write_dataset(dataset, str(path), "csv")
    rewritten = dataset_to_csv(read_dataset_csv(str(path))) == path.read_text()
    report(f"8 figure {n} regeneration", identical and formula and rewritten and elapsed < 60.0,
           f"{len(dataset.rows)} rows, {elapsed:.2f}s, bit-identical repeat: {identical}, "
           f"writers match the per-value formula: {formula}, "
           f"CSV read back writes the same bytes: {rewritten}")
    assert identical
    assert formula
    assert rewritten
