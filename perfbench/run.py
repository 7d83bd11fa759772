#!/usr/bin/env python3
"""mirrorphase benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the root of a mirrorphase checkout):
  python3 perfbench/run.py --workload figures|domain_points|dense_sweep|cli_cold \
      --seed N --seconds S --trace 0|1

It warms up once (a discarded ``python -m mirrorphase.cli --help``, which
compiles the package's bytecode), times fresh ``import mirrorphase``
interpreters for the set-up time (or, traced, their ``-X importtime``
profile), then runs the workload in a fresh child interpreter
(workloads.py). Human-readable report lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Everything the run measured, with the machine
record, is also written to ``perfbench/out/``. See perfbench/README.md for
every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import calibrate
import stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

WORKLOADS = ("figures", "domain_points", "dense_sweep", "cli_cold")

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "op_tail_ms": "ms"}

PER_LAYER = {
    "import.mirrorphase_ms": "ms", "import.scipy_ms": "ms", "import.numpy_ms": "ms",
    "cli.self_s": "s", "cli.calls": "count", "cli.self_ms": "ms",
    "model.self_s": "s", "model.calls": "count",
    "model.decoherence_factor_us": "us", "model.decoherence_time_us": "us",
    "qubit.self_s": "s", "qubit.calls": "count", "qubit.angles_closed_form_us": "us",
    "qubit.angles_calls_per_gp_exact": "count",
    "phase.self_s": "s", "phase.calls": "count",
    "phase.gp_exact_us_p50": "us", "phase.gp_exact_us_p99": "us",
    "phase.gp_exact_failed": "count", "phase.oracle_ms": "ms",
    "phase.oracle_bytes_computed": "bytes",
    "numerics.self_s": "s", "numerics.calls": "count",
    "numerics.adaptive_simpson_evals": "count", "numerics.adaptive_simpson_self_s": "s",
    "sweeps.self_s": "s", "sweeps.calls": "count", "sweeps.run_sweep_s": "s",
    "sweeps.validate_ms": "ms", "sweeps.overhead_us_per_point": "us",
    "sweeps.points": "count",
    "sweepconfig.self_s": "s", "sweepconfig.calls": "count",
    "sweepconfig.parse_ms": "ms", "sweepconfig.format_ms": "ms",
    "datafiles.self_s": "s", "datafiles.calls": "count",
    "datafiles.csv_write_s": "s", "datafiles.json_write_s": "s",
    "datafiles.csv_read_s": "s", "datafiles.json_read_s": "s",
    "datafiles.bytes_written": "bytes",
    "trace.overhead_s": "s",
}

SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 150
IMPORT_PACKAGES = ("mirrorphase", "scipy", "numpy")


def child_env() -> dict:
    """The environment of every child: the package from src/, bytecode cached.

    Caching stays on even where the caller turned it off, so that the
    warm-up's compilation is not paid again by every timed interpreter.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu or "unknown", "platform": platform.platform()}


def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU (see calibrate.py).

    The two CPUs of a shared machine are slowed by other tenants at
    different times, so the reference computation and the work it
    calibrates must run on the same one.
    """
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def time_import(env: dict) -> float:
    """Seconds from starting a fresh interpreter until ``import mirrorphase`` is done."""
    code = "import mirrorphase, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env,
                          cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line != "ready\n":
        raise RuntimeError("a fresh interpreter could not import mirrorphase")
    return elapsed


def outermost_cumulative_us(report: str, package: str) -> int:
    """Cumulative ``-X importtime`` microseconds of a package's outermost imports.

    importtime prints each module after the modules it imported, indented
    two spaces per level; read in reverse, every module precedes its own
    imports, so a stack of open ancestors tells which entries of the package
    are not nested in another of its entries.
    """
    entries = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total, ancestors = 0, []
    for depth, cumulative, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(ours for _, ours in ancestors):
            total += cumulative
        ancestors.append((depth, mine))
    return total


def importtime_ms(env: dict) -> dict:
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_PACKAGES}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mirrorphase"],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        for name in IMPORT_PACKAGES:
            samples[name].append(outermost_cumulative_us(proc.stderr, name) / 1e3)
    return {f"import.{name}_ms": stats.median(values) for name, values in samples.items()}


def run_child(args: argparse.Namespace, env: dict, result_path: Path) -> dict:
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(ROOT / "perfbench" / "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(result_path)]
    with subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True) as proc:
        try:
            output, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"workload {args.workload} ran past {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"workload {args.workload} exited with {proc.returncode}:\n{output}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def report(args, machine, child, metrics, units, extra) -> None:
    print(f"mirrorphase benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v!r}" if k == "cpu" else f"{k}={v}"
                                 for k, v in machine.items()))
    share = child["failed"] / child["attempted"]
    print(f"  failed_share = {child['failed']}/{child['attempted']} = {share:.4f}  "
          f"by class {child['failed_by_class'] or '{}'}")
    for problem in child["problems"]:
        print(f"  check failed: {problem}")
    for inaccuracy in child["inaccuracies"]:
        print(f"  inaccurate (known defect): {inaccuracy}")
    for name, value in extra.items():
        print(f"  {name} = {value}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")


def main() -> int:
    parser = argparse.ArgumentParser(description="mirrorphase benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mirrorphase" / "__init__.py").is_file():
        print(f"perfbench: no mirrorphase source at {SRC}; run from the root of a "
              "mirrorphase checkout", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    env = child_env()
    machine = machine_record()
    pin_to_one_cpu()
    subprocess.run([sys.executable, "-m", "mirrorphase.cli", "--help"], env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, check=True, timeout=120)
    if args.trace:
        imports = importtime_ms(env)
    else:
        setup_raw, setup = [], []
        before = calibrate.process_reference_ms(env, ROOT)
        for _ in range(SETUP_SAMPLES):
            setup_raw.append(time_import(env))
            after = calibrate.process_reference_ms(env, ROOT)
            setup.append(calibrate.calibrated(setup_raw[-1], before, after,
                                              calibrate.NOMINAL_PROCESS_MS))
            before = after
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    child = run_child(args, env, OUT / f"result-{tag}.child.json")

    extra = dict(child["named"])
    if args.trace:
        units = PER_LAYER
        measured = dict(imports, **child["trace"]["metrics"])
        metrics = {name: measured[name] for name in PER_LAYER}
        extra.update(child["trace"]["breakdown"])
        extra["trace_file"] = child["trace"]["file"]
    else:
        units = END_TO_END
        metrics = {"setup_s": stats.median(setup), "peak_rss_mb": child["peak_rss_mb"],
                   "op_p50_ms": child["op_p50_ms"], "op_tail_ms": child["op_tail_ms"]}
        extra["setup_samples_s"] = setup
        extra["raw_setup_samples_s"] = setup_raw
    extra["raw_op_p50_ms"] = child["raw_op_p50_ms"]
    extra["raw_op_tail_ms"] = child["raw_op_tail_ms"]
    extra["op_tail_percentile"] = child["op_tail_percentile"]
    extra["op_samples"] = child["op_samples"]
    extra["passes"] = child["passes"]

    correct = child["check_failures"] == 0
    report(args, machine, child, metrics, units, extra)
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"machine": machine, "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "metrics": metrics, "units": units,
         "details": extra, "child": child}, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": child["attempted"], "failed": child["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
