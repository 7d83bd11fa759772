"""Command-line contract: records, exit codes, dataset files, round-trips."""

import json
import math
import subprocess
import sys

import pytest

import mirrorphase
from mirrorphase import (Axis, circular_difference, figure_preset, parse_sweep_config,
                         read_dataset_csv, run_sweep, unitary_gp)
from mirrorphase import phase as phase_module
from mirrorphase.cli import main

MODEL_FLAGS = {"gamma0": "0.05", "lambda": "5", "omega": "0.03", "velocity": "0.5"}


def model_flags(**overrides):
    return [arg for name, value in {**MODEL_FLAGS, **overrides}.items()
            for arg in (f"--{name}", value)]


DECO_FLAGS = model_flags()


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "mirrorphase.cli", *args],
                          capture_output=True, text=True)


def record_fields(line):
    return dict(item.split("=", 1) for item in line.split())


class TestDecoherenceCommand:
    def test_record(self, capsys):
        assert main(["decoherence", *DECO_FLAGS, "--time", "3.14159265358979"]) == 0
        fields = record_fields(capsys.readouterr().out.strip())
        assert float(fields["r"]) == pytest.approx(0.2804326402076991, rel=1e-9)

    def test_periods_flag(self, capsys):
        assert main(["decoherence", *DECO_FLAGS, "--periods", "0.5"]) == 0
        fields = record_fields(capsys.readouterr().out.strip())
        assert float(fields["s"]) == pytest.approx(math.pi, rel=1e-15)

    def test_overflowing_plate_coupling_with_underflowing_damping(self, capsys):
        # lambda^2 overflows to inf while the velocity damping underflows to 0
        assert main(["decoherence", *model_flags(**{"lambda": "1e200", "omega": "1000",
                                                    "velocity": "0.01"}), "--time", "1"]) == 0
        fields = record_fields(capsys.readouterr().out.strip())
        assert float(fields["r"]) == math.exp(-0.025 * (1.0 + (2.0 / 3.0) * 0.01 * 0.01))

    def test_no_coupling_gives_unity(self, capsys):
        args = ["decoherence", "--gamma0", "0", "--lambda", "5", "--omega", "0.03",
                "--velocity", "0.5", "--time", "3.1"]
        assert main(args) == 0
        assert record_fields(capsys.readouterr().out.strip())["r"] == "1.0"

    def test_solve_td(self, capsys):
        assert main(["decoherence", *DECO_FLAGS, "--time", "1", "--solve-td"]) == 0
        fields = record_fields(capsys.readouterr().out.strip())
        assert float(fields["decoherence_time"]) == pytest.approx(
            2.4709288763186882, rel=1e-9)

    def test_light_speed_exits_2(self, capsys):
        args = ["decoherence", "--gamma0", "0.05", "--lambda", "5", "--omega",
                "0.03", "--velocity", "1.0", "--time", "1"]
        assert main(args) == 2
        assert "velocity" in capsys.readouterr().err

    def test_solve_td_without_coupling_exits_2(self, capsys):
        args = ["decoherence", "--gamma0", "0", "--lambda", "5", "--omega", "0.03",
                "--velocity", "0.5", "--time", "1", "--solve-td"]
        assert main(args) == 2
        assert "gamma0" in capsys.readouterr().err

    def test_solve_td_with_strong_plate_coupling(self, capsys):
        """A root search to an absolute 1e-12 printed 4.547473508864641e-13 here."""
        assert main(["decoherence", *model_flags(gamma0="1", **{"lambda": "1e7"}),
                     "--time", "1", "--solve-td"]) == 0
        fields = record_fields(capsys.readouterr().out.strip())
        assert fields["decoherence_time"] == "3.3285452181913434e-14"

    def test_solve_td_past_the_double_range_exits_2(self, capsys):
        args = ["decoherence", "--gamma0", "1e-320", "--lambda", "5", "--omega", "0.03",
                "--velocity", "0.5", "--time", "1", "--solve-td"]
        assert main(args) == 2
        assert_one_line_error(capsys, "gamma0 1e-320 is too small")


class TestPhaseCommand:
    def test_equator_exact(self, capsys):
        assert main(["phase", "--theta", "0.5pi", *DECO_FLAGS, "--method", "exact"]) == 0
        fields = record_fields(capsys.readouterr().out.strip())
        assert float(fields["phase"]) == pytest.approx(math.pi, abs=1e-9)
        assert float(fields["normalized"]) == pytest.approx(1.0, abs=1e-9)

    def test_unitary_free_evolution(self, capsys):
        args = ["phase", "--theta", "0.3pi", "--gamma0", "0", "--lambda", "5",
                "--omega", "0.03", "--velocity", "0.5"]
        assert main(args) == 0
        fields = record_fields(capsys.readouterr().out.strip())
        assert float(fields["phase"]) == pytest.approx(
            math.pi * (1.0 + math.cos(0.3 * math.pi)), abs=1e-9)

    def test_approx_equator(self, capsys):
        assert main(["phase", "--theta", "0.5pi", *DECO_FLAGS,
                     "--method", "approx"]) == 0
        fields = record_fields(capsys.readouterr().out.strip())
        assert float(fields["phase"]) == pytest.approx(math.pi, abs=1e-13)

    def test_approx_overflow_exits_2(self, capsys):
        assert main(["phase", "--gamma0", "1e308", "--lambda", "5", "--omega", "0.03",
                     "--velocity", "0.5", "--theta", "1", "--method", "approx"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the first-order phase overflows")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("method", ["exact", "approx", "oracle"])
    def test_normalized_divides_by_the_unitary_phase(self, method, capsys):
        assert main(["phase", "--theta", "0.3", *DECO_FLAGS, "--method", method]) == 0
        fields = record_fields(capsys.readouterr().out.strip())
        assert float(fields["normalized"]) == float(fields["phase"]) / unitary_gp(0.3)

    @pytest.mark.parametrize("method,theta", [
        ("approx", "pi"), ("approx", "3.14159265"), ("oracle", "3.14159265"),
    ])
    def test_normalizing_at_pi_exits_2_naming_theta(self, method, theta, capsys):
        """pi*(1+cos(theta)) rounds to 0 from about 1.05e-8 below pi on."""
        assert main(["phase", "--theta", theta, *DECO_FLAGS, "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: theta ")
        assert captured.err.count("\n") == 1

    def test_exact_normalizing_near_pi_exits_2(self, capsys):
        assert main(["phase", "--theta", "3.14159265", *DECO_FLAGS]) == 2
        assert_one_line_error(capsys, "theta must lie strictly inside (0, pi), below "
                                      "3.141592643053081, got 3.14159265;")

    def test_oracle_method(self, capsys):
        assert main(["phase", "--theta", "0.25pi", *DECO_FLAGS, "--method", "oracle",
                     "--steps", "20000"]) == 0
        fields = record_fields(capsys.readouterr().out.strip())
        assert 0.0 <= float(fields["phase"]) < 2.0 * math.pi

    @pytest.mark.parametrize("theta,expected", [
        ("0.3", 6.283174672551649), ("0.5pi", 0.0), ("0.7pi", 0.0),
    ])
    def test_oracle_with_underflowed_coherence_is_finite(self, theta, expected):
        # the decay rate is about 1090, so r underflows to 0 early in the grid
        result = run_cli(["phase", "--gamma0", "1", "--lambda", "15", "--omega", "0.01",
                          "--velocity", "0.95", "--theta", theta, "--method", "oracle",
                          "--periods", "2"])
        assert result.returncode == 0
        assert result.stderr == ""
        phase = float(record_fields(result.stdout.strip())["phase"])
        assert circular_difference(phase, expected) < 1e-3

    def test_equator_with_subnormal_coherence_ends(self):
        """On the equator the coherence decays to subnormal values before the
        end; the mixed angles stay on the unit circle there, so the quadrature
        converges and the phase is half the final time, as everywhere on the
        equator."""
        s_final = 9.539514388456325
        result = subprocess.run(
            [sys.executable, "-m", "mirrorphase.cli", "phase", "--gamma0",
             "0.30643530364655647", "--lambda", "11.505552193573896", "--omega",
             "0.016066986970937572", "--velocity", "0.9374061573196392", "--theta",
             "0.5pi", "--s-final", repr(s_final)],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0 and result.stderr == ""
        phase = float(record_fields(result.stdout.strip())["phase"])
        assert phase == pytest.approx(s_final / 2, abs=1e-12)

    def test_pole_exits_2_and_names_the_unitary_formula(self, capsys):
        assert main(["phase", "--theta", "0", *DECO_FLAGS]) == 2
        assert "pi*(1+cos(theta))" in capsys.readouterr().err

    def test_quad_method_is_refused_as_usage(self, capsys):
        """The exact phase has one quadrature, so argparse refuses the flag."""
        with pytest.raises(SystemExit) as exc:
            main(["phase", "--theta", "1", *DECO_FLAGS, "--quad-method", "adaptive-simpson"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --quad-method" in capsys.readouterr().err


class TestFigureCommand:
    def test_fig2_csv(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert main(["figure", "2", "--format", "csv", "-o", str(out)]) == 0
        assert "1000 rows" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any(ln.startswith("# fixed = ") and '"lambda": 5.0' in ln for ln in comments)
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "velocity,time,decoherence_factor"
        assert len([ln for ln in lines if not ln.startswith("#")]) == 1001

    def test_fig4_json(self, tmp_path):
        out = tmp_path / "fig4.json"
        assert main(["figure", "4", "--format", "json", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 2500
        assert payload["metadata"]["target"] == "gp_normalized"

    def test_stdout_output_keeps_the_status_line_out_of_the_data(self, tmp_path):
        result = run_cli(["figure", "2", "-o", "/dev/stdout"])
        assert result.returncode == 0
        assert result.stderr == "wrote 1000 rows to /dev/stdout\n"
        out = tmp_path / "fig2.csv"
        out.write_text(result.stdout)
        assert len(read_dataset_csv(str(out)).rows) == 1000

    def test_config_to_redirected_stdout_keeps_the_status_line_out(self, tmp_path):
        config = tmp_path / "fig3.cfg"
        with open(config, "w") as out:
            result = subprocess.run(
                [sys.executable, "-m", "mirrorphase.cli", "figure", "3", "--emit-config",
                 "/dev/stdout"], stdout=out, stderr=subprocess.PIPE, text=True)
        assert (result.returncode, result.stderr) == (0, "wrote sweep config to /dev/stdout\n")
        assert parse_sweep_config(config.read_text()) == figure_preset(3)

    def test_file_output_prints_the_status_line_on_stdout(self, tmp_path):
        out = tmp_path / "fig2.csv"
        result = run_cli(["figure", "2", "-o", str(out)])
        assert result.returncode == 0
        assert (result.stdout, result.stderr) == (f"wrote 1000 rows to {out}\n", "")

    def test_figure_9_exits_2(self):
        result = run_cli(["figure", "9", "-o", "fig9.csv"])
        assert result.returncode == 2

    def test_unwritable_path_exits_3(self, tmp_path):
        assert main(["figure", "2", "-o", str(tmp_path)]) == 3

    def test_missing_output_exits_2(self, capsys):
        assert main(["figure", "2"]) == 2
        assert "--output" in capsys.readouterr().err


class TestSweepCommand:
    def test_round_trip_matches_figure_output(self, tmp_path, capsys):
        config = tmp_path / "fig3.cfg"
        direct = tmp_path / "direct.csv"
        via_sweep = tmp_path / "sweep.csv"
        assert main(["figure", "3", "--emit-config", str(config)]) == 0
        assert main(["figure", "3", "-o", str(direct)]) == 0
        assert main(["sweep", str(config), "-o", str(via_sweep)]) == 0
        assert direct.read_bytes() == via_sweep.read_bytes()

    def test_empty_config_exits_2_with_grammar(self, tmp_path, capsys):
        config = tmp_path / "empty.cfg"
        config.write_text("# nothing here\n")
        assert main(["sweep", str(config), "-o", str(tmp_path / "out.csv")]) == 2
        assert "grammar" in capsys.readouterr().err

    def test_theta_pole_exits_2(self, tmp_path, capsys):
        config = tmp_path / "pole.cfg"
        config.write_text("""\
target = gp_exact
gamma0 = 0.05
lambda = 1
omega = 0.03
velocity = 0.3

[axis.theta]
min = 0
max = 0.5pi
count = 4
""")
        assert main(["sweep", str(config), "-o", str(tmp_path / "out.csv")]) == 2
        assert "pole" in capsys.readouterr().err

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["sweep", str(tmp_path / "nope.cfg"),
                     "-o", str(tmp_path / "out.csv")]) == 3

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"target = decoherence_factor\n# caf\xe9\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", str(config), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {config}: not UTF-8 text "
                                           "(invalid continuation byte)\n")
        assert not out.exists()


INF_TIME_CONFIG = """\
target = decoherence_factor
gamma0 = 0.05
lambda = 5
omega = 0.03
velocity = 0.5
time = inf
"""

HUGE_SWEEP_CONFIG = """\
target = decoherence_factor
gamma0 = 0.05
lambda = 5
omega = 0.03
velocity = 0.5

[axis.time]
min = 0
max = 10
count = 1000000000
"""


def assert_one_line_error(capsys, names=""):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {names}")
    assert err.count("\n") == 1


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv,names", [
        (["decoherence", *DECO_FLAGS, "--time", "inf"], "time"),
        (["decoherence", "--gamma0", "inf", "--lambda", "5", "--omega", "0.03",
          "--velocity", "0.5", "--time", "1", "--solve-td"], "gamma0"),
        (["phase", "--theta", "0.25pi", *DECO_FLAGS, "--method", "oracle",
          "--s-final", "inf"], "time"),
    ], ids=["time", "gamma0", "s_final"])
    def test_flag_exits_2(self, argv, names, capsys):
        assert main(argv) == 2
        assert_one_line_error(capsys, names)

    def test_sweep_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "inf.cfg"
        config.write_text(INF_TIME_CONFIG)
        assert main(["sweep", str(config), "-o", str(tmp_path / "out.csv")]) == 2
        assert_one_line_error(capsys, "time")


class TestAllocationCaps:
    """Each cap trips before anything sized by the request is allocated."""

    def test_oracle_steps(self, monkeypatch, capsys):
        def no_grid(*args):
            raise AssertionError("the oracle built a grid past the step cap")
        monkeypatch.setattr(phase_module, "_kinematic_args", no_grid)
        assert main(["phase", "--theta", "0.25pi", *DECO_FLAGS, "--method", "oracle",
                     "--steps", "1000000000"]) == 2
        assert_one_line_error(capsys, "step_count")

    def test_sweep_points(self, tmp_path, monkeypatch, capsys):
        def no_grid(self):
            raise AssertionError(f"axis {self.name!r} was enumerated")
        monkeypatch.setattr(Axis, "grid", no_grid)
        config = tmp_path / "huge.cfg"
        config.write_text(HUGE_SWEEP_CONFIG)
        assert main(["sweep", str(config), "-o", str(tmp_path / "out.csv")]) == 2
        assert_one_line_error(capsys, "sweep has")


RETIRED_SECTION_CONFIG = """\
target = decoherence_factor
gamma0 = 0.05
lambda = 5
omega = 0.03
velocity = 0.5
time = 1

[quadrature]
tolerance = 1e-8
"""

# a pole axis is refused by spec validation before any point runs, so the
# per-point failure comes from a coupling that never decoheres
FAILING_POINT_CONFIG = """\
target = decoherence_time
lambda = 5
omega = 0.03
velocity = 0.5

[axis.gamma0]
values = 0.05, 0
"""


NEGATIVE_LAMBDA_CONFIG = """\
target = decoherence_factor
gamma0 = 0.05
lambda = -1
omega = 0.03
velocity = 0.5
time = 1
"""

OMEGA_AXIS_CONFIG = """\
target = decoherence_factor
gamma0 = 0.05
lambda = 5
velocity = 0.5
time = 1

[axis.omega]
min = 0
max = 0.1
count = 3
"""

BAD_AXIS_NUMBER_CONFIG = OMEGA_AXIS_CONFIG.replace("min = 0", "min = abc")

VALUES_WITH_COUNT_CONFIG = """\
target = decoherence_factor
gamma0 = 0.05
lambda = 5
omega = 0.03
velocity = 0.5

[axis.time]
values = 1, 2
count = 7
"""

REPEATED_ALLOW_ERRORS_CONFIG = NEGATIVE_LAMBDA_CONFIG.replace(
    "lambda = -1", "allow_errors = true\nlambda = 5\nallow_errors = false")

# at this gamma0 the first-order phase is exactly 0
ZERO_FIRST_ORDER_CONFIG = """\
target = gp_perturbative_ratio
lambda = 0
omega = 0.03
velocity = 0
theta = 1.8

[axis.gamma0]
values = 2.2832407350039605
"""


@pytest.mark.parametrize("argv,config,code,message", [
    (["sweep", "{cfg}", "-o", "{tmp}/out.csv"], RETIRED_SECTION_CONFIG, 2,
     "line 8: unknown section 'quadrature'"),
    (["sweep", "{cfg}", "-o", "{tmp}/out.csv"], BAD_AXIS_NUMBER_CONFIG, 2,
     "line 8: bad number 'abc' for 'min'"),
    (["sweep", "{cfg}", "-o", "{tmp}/out.csv"], VALUES_WITH_COUNT_CONFIG, 2,
     "line 7: axis 'time': values exclude min/max/count"),
    (["sweep", "{cfg}", "-o", "{tmp}/out.csv"], REPEATED_ALLOW_ERRORS_CONFIG, 2,
     "line 5: duplicate key 'allow_errors'"),
    (["sweep", "{cfg}", "-o", "{tmp}/out.csv"], "# nothing here\n", 2,
     "empty config; see 'mirrorphase sweep --help' for the grammar"),
    (["sweep", "{cfg}", "-o", "{tmp}/out.csv"], "gamma0 = 0.05\n", 2,
     "config does not name a target; see 'mirrorphase sweep --help' for the grammar"),
    (["decoherence", "--gamma0", "0.05", "--lambda", "5", "--omega", "0.03",
      "--velocity", "1.5", "--time", "1"], None, 2, "velocity must lie in [0, 1)"),
    (["decoherence", *model_flags(gamma0="-1"), "--time", "1"], None, 2,
     "gamma0 must be finite and >= 0, got -1.0"),
    (["decoherence", *model_flags(**{"lambda": "-1"}), "--time", "1"], None, 2,
     "lambda must be finite and >= 0, got -1.0"),
    (["decoherence", *model_flags(omega="0"), "--time", "1"], None, 2,
     "omega must be finite and > 0, got 0.0"),
    (["decoherence", *model_flags(velocity="1"), "--time", "1"], None, 2,
     "velocity must lie in [0, 1), got 1.0"),
    (["sweep", "{cfg}", "-o", "{tmp}/out.csv"], NEGATIVE_LAMBDA_CONFIG, 2,
     "lambda must be finite and >= 0, got -1.0 (fixed value)"),
    (["sweep", "{cfg}", "-o", "{tmp}/out.csv"], OMEGA_AXIS_CONFIG, 2,
     "omega must be finite and > 0, got 0.0 (axis value)"),
    (["phase", "--theta", "1", *DECO_FLAGS, "--method", "approx", "--periods", "3"],
     None, 2, "--periods does not apply to --method approx"),
    (["phase", "--theta", "1", *DECO_FLAGS, "--method", "approx", "--s-final", "1"],
     None, 2, "--s-final does not apply to --method approx"),
    (["phase", "--theta", "0.25pi", *DECO_FLAGS, "--method", "oracle",
      "--s-final", "1e8"], None, 2, "grid step s_final/step_count"),
    (["phase", "--theta", "1", *DECO_FLAGS, "--method", "oracle", "--s-final", "1e-310",
      "--steps", "10"], None, 2,
     "grid step s_final/step_count = 1e-311 must lie in [2.2250738585072014e-308, 0.1]"),
    (["sweep", "{cfg}", "-o", "{tmp}/out.csv"], FAILING_POINT_CONFIG, 2,
     "sweep point failed at gamma0=0.0"),
    (["sweep", "{cfg}", "-o", "{tmp}/out.csv"], ZERO_FIRST_ORDER_CONFIG, 2,
     "sweep point failed at gamma0=2.2832407350039605: the first-order phase is 0, "
     "so phase_ratio is undefined"),
    (["phase", "--theta", "0", *DECO_FLAGS], None, 2, "theta must lie strictly inside"),
    # negative numbers past argparse's own -5 and -0.5 forms are values too
    (["phase", "--theta", "-0.25pi", *DECO_FLAGS], None, 2,
     "theta must lie strictly inside (0, pi), below 3.141592643053081, got -0.7853981633974483"),
    (["phase", "--theta", "-1e-3", *DECO_FLAGS], None, 2,
     "theta must lie strictly inside (0, pi), below 3.141592643053081, got -0.001"),
    (["phase", "--theta", "1", *model_flags(**{"lambda": "-inf"})], None, 2,
     "lambda must be finite and >= 0, got -inf"),
    # at the domain's fastest decay, step halving moves the extrapolated
    # phase by 2.5e-4 at 3,000 steps
    (["phase", "--theta", "1.6493361431346414", "--gamma0", "1", "--lambda", "15",
      "--omega", "1e-3", "--velocity", "0.95", "--periods", "3", "--method", "oracle",
      "--steps", "3000"], None, 2, "kinematic phase not converged"),
    (["figure", "2", "-o", "{tmp}"], None, 3, "cannot write"),
    (["decoherence", *model_flags(gamma0="0", **{"lambda": "1e200"}), "--time", "1"], None, 2,
     "lambda must keep the dephasing multiplier finite, got 1e+200 at velocity 0.5"),
    (["figure", "2"], None, 2, "figure takes exactly one of --output and --emit-config"),
    (["figure", "2", "-o", "{tmp}/out.csv", "--emit-config", "{tmp}/f.cfg"], None, 2,
     "figure takes exactly one of --output and --emit-config"),
], ids=["ConfigError", "ConfigError_axis_number", "ConfigError_values_with_count",
        "ConfigError_repeated_allow_errors", "ConfigError_empty", "ConfigError_no_target",
        "DomainError", "DomainError_gamma0", "DomainError_lambda", "DomainError_omega",
        "DomainError_velocity", "DomainError_fixed_lambda", "DomainError_omega_axis",
        "DomainError_approx_periods", "DomainError_approx_s_final", "DomainError_oracle_step",
        "DomainError_oracle_subnormal_step",
        "SweepError", "SweepError_zero_first_order_phase", "DegenerateStateError",
        "DomainError_negative_pi_form", "DomainError_negative_exponent_form",
        "DomainError_negative_infinity",
        "QuadratureError", "unwritable_output", "DomainError_infinite_plate_term",
        "figure_without_output", "figure_with_both_outputs"])
def test_error_class_contract(argv, config, code, message, tmp_path, capsys):
    """One line, the documented exit code, and the name the user typed first."""
    cfg = tmp_path / "run.cfg"
    if config is not None:
        cfg.write_text(config)
    argv = [arg.format(cfg=cfg, tmp=tmp_path) for arg in argv]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "_tilde" not in err
    assert err.count("\n") == 1


class TestNumericFormatting:
    def test_csv_reparses_to_identical_doubles(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert main(["figure", "6", "-o", str(out)]) == 0
        reread = read_dataset_csv(str(out))
        original = run_sweep(figure_preset(6))
        assert reread.columns == original.columns
        assert reread.rows == original.rows

    def test_repeated_runs_are_bit_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["figure", "3", "-o", str(first)]) == 0
        assert main(["figure", "3", "-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


VERSION_LINE = f"mirrorphase {mirrorphase.__version__}\n"


class TestVersion:
    def test_prints_the_package_version(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--version"])
        assert exited.value.code == 0
        assert capsys.readouterr().out == VERSION_LINE

    def test_console_exit_code(self):
        result = run_cli(["--version"])
        assert (result.returncode, result.stdout) == (0, VERSION_LINE)

