"""Quadrature and root-finder behavior on known integrals and roots."""

import math
import subprocess
import sys

import pytest

from mirrorphase import (TWO_PI, DomainError, QuadratureError, adaptive_simpson,
                         angles_closed_form, decoherence_factor, find_root_bracketed,
                         gauss_legendre, gp_exact)
from mirrorphase.phase import QUADRATURE_TOLERANCE

from conftest import params_fig6


class TestAdaptiveSimpson:
    def test_polynomial(self):
        value, err = adaptive_simpson(lambda x: x * x * x - 2.0 * x, 0.0, 2.0)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert err <= 1e-10

    def test_sine(self):
        value, err = adaptive_simpson(math.sin, 0.0, math.pi)
        assert value == pytest.approx(2.0, abs=1e-10)
        assert err <= 1e-10

    def test_sharp_exponential(self):
        value, _ = adaptive_simpson(lambda x: math.exp(-50.0 * x), 0.0, 1.0)
        assert value == pytest.approx((1.0 - math.exp(-50.0)) / 50.0, rel=1e-9)

    def test_empty_interval(self):
        assert adaptive_simpson(math.sin, 1.0, 1.0) == (0.0, 0.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            adaptive_simpson(math.sin, 1.0, 0.0)

    def test_error_estimate_is_honest(self):
        value, err = adaptive_simpson(lambda x: math.exp(-50.0 * x), 0.0, 1.0,
                                      tolerance=1e-8)
        exact = (1.0 - math.exp(-50.0)) / 50.0
        assert abs(value - exact) <= max(err, 1e-12)

    def test_depth_exhaustion_carries_best_estimate(self):
        with pytest.raises(QuadratureError) as info:
            adaptive_simpson(lambda x: math.exp(-2000.0 * x), 0.0, 1.0,
                             tolerance=1e-14, max_depth=3)
        assert info.value.best_estimate is not None
        assert info.value.error_estimate is not None


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        value, _ = gauss_legendre(lambda x: 7.0 * x ** 6 + x, -1.0, 3.0, nodes=8)
        # antiderivative x^7 + x^2/2 evaluated at the bounds
        assert value == pytest.approx(2192.0, rel=1e-13)

    def test_sine(self):
        value, err = gauss_legendre(math.sin, 0.0, math.pi)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert err < 1e-12

    def test_agrees_with_simpson(self):
        f = lambda x: 1.0 / (1.0 + x * x)
        simpson, _ = adaptive_simpson(f, 0.0, 4.0)
        gauss, _ = gauss_legendre(f, 0.0, 4.0)
        assert gauss == pytest.approx(simpson, abs=1e-10)

    def test_agrees_with_simpson_on_the_exact_phase(self):
        """The cross-check of the exact phase's quadrature: the integrand of
        ``gp_exact`` at the figure 6 point, integrated both ways."""
        p, theta = params_fig6(0.5), 0.3 * math.pi

        def integrand(s):
            cos_t = angles_closed_form(theta, decoherence_factor(p, s)).cos_theta_t
            return cos_t * cos_t
        simpson, _ = adaptive_simpson(integrand, 0.0, TWO_PI, tolerance=QUADRATURE_TOLERANCE)
        gauss, _ = gauss_legendre(integrand, 0.0, TWO_PI)
        assert gauss == pytest.approx(simpson, abs=1e-9)
        assert simpson == gp_exact(p, theta).phase


class TestRootFinder:
    def test_linear(self):
        assert find_root_bracketed(lambda x: 0.05 * x - 1.0) == pytest.approx(20.0, abs=1e-10)

    def test_cubic(self):
        assert find_root_bracketed(lambda x: x ** 3 - 8.0) == pytest.approx(2.0, abs=1e-10)

    def test_bracket_growth_reaches_large_roots(self):
        assert find_root_bracketed(lambda x: x - 1e6) == pytest.approx(1e6, abs=1e-6)

    def test_root_at_lower_edge(self):
        assert find_root_bracketed(lambda x: x) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(DomainError):
            find_root_bracketed(lambda x: -1.0, max_growth=20)

    @pytest.mark.parametrize("f, root", [
        (lambda x: 1e-12 * x - 2.0, 2e12),
        # not representable, so f never reaches 0 and bisection must stop on
        # a pair of adjacent floats
        (lambda x: x - 2e12 - 1e-4, 2e12 + 1e-4),
    ])
    def test_root_coarser_than_xtol_terminates(self, f, root):
        # near 2e12 adjacent floats are 2.4e-4 apart, far wider than xtol
        assert abs(find_root_bracketed(f) - root) <= math.ulp(root)

    def test_root_at_grown_bracket_end(self):
        # the bracket grows 1 -> 2 -> 4 -> 8, landing exactly on the root
        assert find_root_bracketed(lambda x: x - 8.0) == 8.0

    @pytest.mark.parametrize("xtol", [1e-3, 1e-8, 1e-12])
    def test_result_within_xtol(self, xtol):
        root = math.sqrt(2.0)
        found = find_root_bracketed(lambda x: x * x - 2.0, xtol=xtol)
        assert abs(found - root) <= xtol

    def test_tiny_function_values_keep_the_bracket_growing(self):
        # f(0) * f(1) is about 1e-390, which underflows to 0
        assert find_root_bracketed(lambda x: 1e-200 * (x - 1e5)) == pytest.approx(
            1e5, abs=1e-6)

    def test_bracket_reaches_the_float_limit(self):
        # 2**1023 is the last power of two below the float limit
        assert find_root_bracketed(lambda x: x - 2.0 ** 1023) == 2.0 ** 1023

    @pytest.mark.parametrize("root", [1.5e308, sys.float_info.max])
    def test_root_past_2_to_the_1023(self, root):
        # the last growth stops at the largest double, and the midpoint
        # 0.5*lo + 0.5*hi does not overflow where lo + hi would
        assert abs(find_root_bracketed(lambda x: x - root) - root) <= math.ulp(root)


# the modules a fresh process loads for a command, beyond those it held
# before importing the package: site may load json in some environments
LOADED_PROBE = """\
import sys
before = set(sys.modules)
import mirrorphase
if sys.argv[1:]:
    from mirrorphase.cli import main
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # --version exits through argparse
        code = exc.code
    assert code == 0, code
print(" ".join(sorted(set(sys.modules) - before)))
"""

# numpy and scipy serve only the oracle route; the records are plain
# classes, so nothing loads dataclasses or what it imports
UNUSED = {"numpy", "scipy", "dataclasses", "inspect", "ast", "dis", "tokenize"}
# only figure and sweep write a file
FILE_LAYER = {"mirrorphase.datafiles", "json"}

PHASE_FLAGS = ["phase", "--theta", "0.25pi", "--gamma0", "0.05", "--lambda", "5",
               "--omega", "0.03", "--velocity", "0.5"]


def loaded_modules(argv):
    proc = subprocess.run([sys.executable, "-c", LOADED_PROBE, *argv],
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("argv, unloaded", [
    ([], UNUSED | FILE_LAYER),
    (["decoherence", "--gamma0", "0.05", "--lambda", "5", "--omega", "0.03",
      "--velocity", "0.5", "--time", "1", "--solve-td"], UNUSED | FILE_LAYER),
    ([*PHASE_FLAGS, "--method", "exact"], UNUSED | FILE_LAYER),
    ([*PHASE_FLAGS, "--method", "approx"], UNUSED | FILE_LAYER),
    ([*PHASE_FLAGS, "--method", "oracle", "--steps", "20000"], FILE_LAYER),
    (["figure", "3", "-o", "{tmp}/fig3.csv"], UNUSED),
], ids=["import", "decoherence", "phase_exact", "phase_approx", "phase_oracle", "figure"])
def test_unused_modules_stay_unloaded(argv, unloaded, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    loaded = loaded_modules(argv)
    assert not loaded & unloaded
    if argv[:1] == ["figure"]:
        assert "mirrorphase.datafiles" in loaded
        assert (tmp_path / "fig3.csv").read_text().startswith("# generator = ")


def test_version_loads_no_more_than_phase():
    assert loaded_modules(["--version"]) <= loaded_modules([*PHASE_FLAGS, "--method", "exact"])


@pytest.mark.parametrize("argv", [
    [*PHASE_FLAGS, "--method", "oracle", "--steps", "20000"],
], ids=["oracle"])
def test_numpy_routes_load_numpy_on_demand(argv):
    proc = subprocess.run([sys.executable, "-m", "mirrorphase.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert 0.0 < float(proc.stdout.split()[1].split("=")[1]) < 2.0 * math.pi
