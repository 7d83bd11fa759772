"""Tests of the benchmark's own code: python -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


def test_tail_rule_keeps_ten_samples_beyond():
    assert stats.tail_percentile(10) is None
    assert stats.tail_percentile(16) == 37
    assert stats.tail_percentile(24) == 58
    assert stats.tail_percentile(20_000) == 99
    values = list(range(1, 25))
    value, pct = stats.tail(values)
    assert pct == 58
    assert sum(v > value for v in values) >= 10
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, None)


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([5], 99) == 5
    assert stats.median([3, 1, 2]) == 2


def test_self_time_excludes_children_and_hot_calls():
    tracer = tracing.Tracer()

    class Owner:
        @staticmethod
        def leaf(x):
            return x + 1

    tracer.patch(Owner, "leaf", "qubit.leaf", hot=True)
    with tracer.span("bench.op", op=True):
        with tracer.span("phase.outer"):
            with tracer.span("numerics.inner"):
                Owner.leaf(1)
            Owner.leaf(2)
    tracer.restore()
    assert Owner.leaf(1) == 2 and not hasattr(Owner.leaf, "__wrapped__")
    op, outer, inner = tracer.spans
    assert outer[tracing.PARENT] == 0 and inner[tracing.PARENT] == 1
    assert inner[tracing.OP] == outer[tracing.OP] == 1
    leaf_ns = tracer.hot["qubit.leaf"][1]
    assert tracer.hot["qubit.leaf"][0] == 2
    inner_ns = inner[tracing.END] - inner[tracing.START]
    assert outer[tracing.CHILD] >= inner_ns
    metrics, _ = tracing.summarize(tracer)
    outer_self = outer[tracing.END] - outer[tracing.START] - outer[tracing.CHILD]
    assert metrics["phase.self_s"] == pytest.approx(outer_self / 1e9)
    assert metrics["qubit.self_s"] == pytest.approx(leaf_ns / 1e9)
    assert metrics["qubit.calls"] == 2


def test_span_records_exception_class():
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracer.span("phase.gp_exact"):
            raise ValueError("r underflowed")
    metrics, breakdown = tracing.summarize(tracer)
    assert metrics["phase.gp_exact_failed"] == 1
    assert breakdown["phase.gp_exact_failed.ValueError"] == 1


def test_closed_form_phase_matches_package_and_limits():
    import mirrorphase as mp

    theta = 0.3 * math.pi
    assert checks.closed_form_phase(0.0, theta, 2 * math.pi) == pytest.approx(
        math.pi * (1 + math.cos(theta)), abs=1e-15)
    for gamma0, lam, omega, v, s in [(0.05, 15.0, 0.03, 0.9, 2 * math.pi),
                                     (0.6, 8.8, 0.026, 0.11, 0.2),
                                     (0.5, 5.0, 0.03, 0.5, 4 * math.pi)]:
        for theta in (0.1, 0.25 * math.pi, 0.5 * math.pi, 0.8 * math.pi):
            params = mp.ModelParams(gamma0, lam, omega, v)
            rate = checks.dephasing_rate(gamma0, lam, omega, v)
            assert rate == pytest.approx(0.5 * gamma0 * mp.dephasing_multiplier(params),
                                         rel=1e-14)
            exact = mp.gp_exact(params, theta, s).phase
            assert abs(exact - checks.closed_form_phase(rate, theta, s)) < checks.PHASE_TOL


def test_checks_flag_wrong_values():
    point = {"gamma0": 0.0, "lambda": 1.0, "omega": 0.03, "velocity": 0.5,
             "theta": 0.25 * math.pi, "time": math.pi}
    good = 0.5 * math.pi * (1 + math.cos(point["theta"]))
    assert checks.check_phase(point, good, "p") == ([], [])
    problems, inaccuracies = checks.check_phase(point, good + 1e-7, "p")
    assert problems and inaccuracies
    assert checks.check_phase(point, -1.0, "p")[0]
    assert checks.check_normalized(point, 0.5, "p") == ([], [])
    assert checks.check_normalized(point, 0.5 + 1e-7, "p")[0]
    assert checks.check_oracle(0.1, 0.1 + 2 * math.pi, "p") == []
    assert checks.check_oracle(0.1, 0.1 + 2e-6, "p") != []
    assert checks.check_factor(point, 0.5, 0.5 * (1 + 1e-10), "p") != []


def test_inaccurate_phase_fails_the_operation_but_not_the_run(tmp_path):
    import workloads

    workload = workloads.DomainPoints(1, tmp_path)
    point = {"gamma0": 0.5, "lambda": 5.0, "omega": 0.03, "velocity": 0.5,
             "theta": 1.0, "time": 2.0}
    rate = checks.dephasing_rate(0.5, 5.0, 0.03, 0.5)
    exact = checks.closed_form_phase(rate, 1.0, 2.0)
    workload.reject(*checks.check_phase(point, exact + 5e-8, "p"))
    assert workload.failed == 1 and dict(workload.failed_by_class) == {"inaccurate": 1}
    assert workload.problems == []
    workload.reject(*checks.check_phase(point, float("nan"), "p"))
    assert workload.failed == 2 and workload.problems


def test_domain_points_queries_do_not_depend_on_the_seed(tmp_path):
    import workloads

    first, second = workloads.DomainPoints(1, tmp_path), workloads.DomainPoints(2, tmp_path)
    assert first.queries == second.queries
    assert len(first.queries) == workloads.DomainPoints.QUERIES


def test_calibration_scales_by_the_reference_speed():
    assert calibrate.reference_ms(3) > 0
    assert calibrate.calibrated(10.0, calibrate.NOMINAL_MS, calibrate.NOMINAL_MS) == 10.0
    # a machine running at half speed doubles both the work and the reference
    assert calibrate.calibrated(20.0, 2 * calibrate.NOMINAL_MS,
                                2 * calibrate.NOMINAL_MS) == pytest.approx(10.0)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |     numpy.core
import time:       200 |        300 |   numpy
import time:        50 |         50 |       numpy.linalg
import time:        20 |         20 |       scipy
import time:       900 |        970 |     scipy.optimize
import time:        10 |       1290 |   mirrorphase.numerics
import time:         5 |       1295 | mirrorphase
"""


def test_importtime_counts_outermost_entries_only():
    assert run.outermost_cumulative_us(IMPORTTIME, "mirrorphase") == 1295
    assert run.outermost_cumulative_us(IMPORTTIME, "scipy") == 970
    # numpy.linalg, pulled in under scipy.optimize, counts for numpy as well
    assert run.outermost_cumulative_us(IMPORTTIME, "numpy") == 350


def test_benchmark_file_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(tracing.LAYERS) <= {name.split(".")[0] for name in run.PER_LAYER}


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
