"""Run one benchmark workload in this (fresh) interpreter and write its result.

Usage:
  python perfbench/workloads.py --workload NAME --seed N --seconds S \
      --trace 0|1 --out RESULT.json

``perfbench/run.py`` starts this script once per run, so that peak memory
belongs to the workload alone. Every workload repeats whole passes over
its seeded inputs until ``--seconds`` have elapsed, one caller in a closed
loop, and checks every output between passes, outside the timed region.
With ``--trace 1`` it then runs one more pass and a small layer probe with
every cross-module call wrapped (see tracing.py) and reports per-layer
numbers instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import calibrate
import checks
import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
import mirrorphase  # noqa: E402
from mirrorphase import cli, datafiles, model, phase, sweepconfig, sweeps  # noqa: E402

if Path(mirrorphase.__file__).resolve().parent != SRC / "mirrorphase":
    raise SystemExit(f"mirrorphase was imported from {mirrorphase.__file__}, "
                     f"not from this checkout's {SRC}")

# The figure captions' (gamma0, lambda) pairs at omega = 0.03; the probe and
# the CLI phase queries draw from them.
PUBLISHED_COUPLINGS = ((0.05, 15.0), (0.05, 1.0), (0.5, 5.0), (0.05, 5.0))
ORACLE_SAMPLES = 4


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def row_point(spec, columns, row) -> dict:
    point = dict(spec.fixed)
    point.update(zip(columns, row))
    return point


def model_params(point: dict):
    return model.ModelParams(gamma0=point["gamma0"], lambda_tilde=point["lambda"],
                             omega_tilde=point["omega"], velocity=point["velocity"])


class Workload:
    """Seeded inputs, one timed pass over them, and the checks of its outputs."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.tracer = tracing.NullTracer()
        self.attempted = 0
        self.failed = 0
        self.failed_by_class: Counter = Counter()
        self.problems: list[str] = []
        self.inaccuracies: list[str] = []
        self.latencies_ms: list[float] = []  # calibrated, see calibrate.py
        self.raw_ms: list[float] = []
        self.sampler: calibrate.Sampler | None = None
        self._spans: list[tuple[float, float]] = []

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        self.failed_by_class[type(exc).__name__] += 1

    def reject(self, problems: list[str], inaccuracies: list[str] | tuple = ()) -> None:
        """Count an operation whose output failed a check as failed.

        A failed check makes the run incorrect. An inaccurate phase (see
        checks.check_phase) is a known defect of the package: it fails the
        operation, class ``inaccurate``, but leaves the run correct.
        """
        if problems:
            self.failed += 1
            self.failed_by_class["check"] += 1
            self.problems.extend(problems)
        elif inaccuracies:
            self.failed += 1
            self.failed_by_class["inaccurate"] += 1
            self.inaccuracies.extend(inaccuracies)

    def timed(self, start: float, end: float) -> None:
        """Note one operation's perf_counter interval; settle() times it."""
        self._spans.append((start, end))

    def settle(self) -> None:
        """Turn the intervals noted since the last call into raw and calibrated ms.

        Needs a sampler sample taken after the last interval ended.
        """
        for start, end in self._spans:
            raw, calibrated = self.sampler.span_ms(start, end)
            self.raw_ms.append(raw)
            self.latencies_ms.append(calibrated)
        self._spans.clear()

    def discard_timings(self) -> None:
        self._spans.clear()

    def warm_up(self) -> None: ...
    def run_pass(self) -> None: ...
    def check_pass(self) -> None: ...
    def final_check(self) -> None: ...

    def peak_rss(self) -> float:
        return peak_rss_mb()

    def named(self) -> dict: ...


class Figures(Workload):
    """All seven presets: figure_preset -> run_sweep -> write_dataset (CSV)."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.outputs: list = []

    def warm_up(self) -> None:
        sweeps.run_sweep(sweeps.figure_preset(3))
        phase.gp_exact(model.ModelParams(0.05, 1.0, 0.03, 0.5), 1.0)

    def run_pass(self) -> None:
        order = list(sweeps.FIGURE_RANGE)
        self.rng.shuffle(order)
        self.outputs = []
        start = perf_counter()
        for n in order:
            path = self.workdir / f"fig{n}.csv"
            self.attempted += 1
            try:
                with self.tracer.span(f"bench.fig{n}", op=True):
                    dataset = sweeps.run_sweep(sweeps.figure_preset(n))
                    datafiles.write_dataset(dataset, str(path), "csv")
            except Exception as exc:  # a failed preset is counted, the pass goes on
                self.fail(exc)
                continue
            self.outputs.append((n, dataset, path))
        self.timed(start, perf_counter())

    def check_pass(self) -> None:
        for n, dataset, path in self.outputs:
            spec = sweeps.figure_preset(n)
            problems, inaccuracies = [], []
            for row in dataset.rows:
                point = row_point(spec, dataset.columns, row)
                wrong, inexact = self._check_row(n, spec.target, point)
                problems += wrong
                inaccuracies += inexact
                if len(problems) > 5:
                    break
            if datafiles.read_dataset_csv(str(path)).rows != dataset.rows:
                problems.append(f"fig{n}: CSV read-back differs from the rows written")
            self.reject(problems, inaccuracies)

    @staticmethod
    def _check_row(n: int, target: str, point: dict) -> tuple[list[str], list[str]]:
        label = f"fig{n} {point}"
        if target == "decoherence_factor":
            reference = math.exp(-model.im_influence_action(model_params(point),
                                                            point["time"]))
            return checks.check_factor(point, point["decoherence_factor"], reference,
                                       label), []
        if target == "gp_normalized":
            return checks.check_normalized(point, point["phase_normalized"], label)
        problems, inaccuracies = checks.check_phase(point, point["phase_exact"], label)
        if point["phase_ratio"] != point["phase_exact"] / point["phase_perturbative"]:
            problems.append(f"{label}: phase_ratio is not phase_exact / phase_perturbative")
        return problems, inaccuracies

    def final_check(self) -> None:
        """Seeded full-period rows against the kinematic oracle (untimed)."""
        candidates = []
        for n, dataset, _ in self.outputs:
            spec = sweeps.figure_preset(n)
            if spec.target not in ("gp_normalized", "gp_perturbative_ratio"):
                continue
            for row in dataset.rows:
                point = row_point(spec, dataset.columns, row)
                if point.get("time", 2.0 * math.pi) == 2.0 * math.pi:
                    candidates.append((n, point))
        for n, point in self.rng.sample(candidates, min(ORACLE_SAMPLES, len(candidates))):
            value = point.get("phase_exact")
            if value is None:
                value = point["phase_normalized"] * math.pi * (
                    1.0 + checks.bloch_cosine(point["theta"]))
            oracle = phase.gp_kinematic_oracle(model_params(point), point["theta"])
            self.reject(checks.check_oracle(value, oracle, f"fig{n} oracle {point}"))

    def named(self) -> dict:
        return {"figures_s": stats.median(self.latencies_ms) / 1e3}


class DomainPoints(Workload):
    """One fixed set of uniformly random gp_exact queries over the documented domain.

    The queries are drawn once from a fixed stream, not from the run's seed,
    so every run attempts the same queries and fails the same ones: about 4%
    decay until r underflows and gp_exact raises DomainError, a known defect
    that stays in the data as failures. The seed sets the order of the
    queries in each pass. Each query is one operation, counted and checked on
    the first pass; later passes repeat it for timing and must give the same
    outcome bit for bit.
    """

    QUERIES = 2000
    QUERY_STREAM = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        stream = random.Random(self.QUERY_STREAM)
        self.queries = [self.draw(stream) for _ in range(self.QUERIES)]
        self.outcomes: list | None = None  # per query, from the first pass
        self.pass_outcomes: list = []

    @staticmethod
    def draw(rng: random.Random) -> dict:
        return {"gamma0": rng.uniform(0.0, 1.0), "lambda": rng.uniform(0.0, 15.0),
                "omega": rng.uniform(0.01, 0.1), "velocity": rng.uniform(0.0, 0.95),
                "theta": rng.uniform(0.0, math.pi), "time": rng.uniform(0.0, 4.0 * math.pi)}

    @staticmethod
    def outcome_key(outcome):
        if isinstance(outcome, Exception):
            return type(outcome).__name__, str(outcome)
        return outcome

    def warm_up(self) -> None:
        # a separate stream, so the timed queries are the same with or without it
        rng = random.Random(-1)
        for _ in range(20):
            with contextlib.suppress(Exception):  # failures count in the timed passes
                point = self.draw(rng)
                phase.gp_exact(model_params(point), point["theta"], point["time"])

    def run_pass(self) -> None:
        order = list(range(len(self.queries)))
        self.rng.shuffle(order)
        outcomes = [None] * len(self.queries)
        for index in order:
            point = self.queries[index]
            with self.tracer.span("bench.query", op=True):
                start = perf_counter()
                try:
                    outcomes[index] = phase.gp_exact(
                        model.ModelParams(point["gamma0"], point["lambda"], point["omega"],
                                          point["velocity"]),
                        point["theta"], point["time"])
                except Exception as exc:  # counted by class, never re-sampled
                    # without its traceback, which would keep the failing frames alive
                    outcomes[index] = exc.with_traceback(None)
                    continue
                self.timed(start, perf_counter())
        self.pass_outcomes = outcomes

    def check_pass(self) -> None:
        if self.outcomes is not None:
            for point, first, again in zip(self.queries, self.outcomes, self.pass_outcomes):
                if self.outcome_key(again) != self.outcome_key(first):
                    self.problems.append(f"query {point}: a repeat gave {again!r}, "
                                         f"the first pass {first!r}")
            return
        self.outcomes = self.pass_outcomes
        for point, outcome in zip(self.queries, self.outcomes):
            self.attempted += 1
            if isinstance(outcome, Exception):
                self.fail(outcome)
                continue
            label = f"query {point}"
            problems, inaccuracies = checks.check_phase(point, outcome.phase, label)
            wrong, inexact = checks.check_normalized(point, outcome.normalized, label)
            self.reject(problems + wrong, inaccuracies + inexact)

    def final_check(self) -> None:
        """Seeded successful queries re-evaluated over one full period (untimed).

        Only queries with s >= 2pi are drawn: their r(2pi) >= r(s) > 0, so
        the full-period evaluation stays inside the working domain.
        """
        candidates = [point for point, outcome in zip(self.queries, self.outcomes)
                      if not isinstance(outcome, Exception) and point["time"] >= 2.0 * math.pi]
        for point in self.rng.sample(candidates, min(ORACLE_SAMPLES, len(candidates))):
            params = model_params(point)
            exact = phase.gp_exact(params, point["theta"]).phase
            oracle = phase.gp_kinematic_oracle(params, point["theta"])
            self.reject(checks.check_oracle(exact, oracle, f"full-period {point}"))

    def named(self) -> dict:
        return {"point_p50_ms": stats.percentile(self.latencies_ms, 50),
                "point_p99_ms": stats.percentile(self.latencies_ms, 99)}


DENSE_CONFIG = """\
# decoherence_factor over 4 couplings x 250 velocities x 250 times
target = decoherence_factor
gamma0 = {gamma0!r}
omega = {omega!r}

[axis.lambda]
values = 1, 5, 10, 15

[axis.velocity]
min = {vmin!r}
max = 0.95
count = 250

[axis.time]
min = 0
max = 4pi
count = 250
"""


class DenseSweep(Workload):
    """A 250,000-point decoherence_factor sweep config, run, written and read back."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.config = workdir / "dense.cfg"
        self.config.write_text(DENSE_CONFIG.format(
            gamma0=self.rng.uniform(0.01, 0.1), omega=self.rng.uniform(0.01, 0.1),
            vmin=self.rng.uniform(0.01, 0.1)))
        self.result = None

    def warm_up(self) -> None:
        small = self.config.read_text().replace("count = 250", "count = 5")
        dataset = sweeps.run_sweep(sweepconfig.parse_sweep_config(small))
        for fmt in datafiles.FORMATS:
            datafiles.write_dataset(dataset, str(self.workdir / f"warm.{fmt}"), fmt)
        datafiles.read_dataset_csv(str(self.workdir / "warm.csv"))
        datafiles.read_dataset_json(str(self.workdir / "warm.json"))

    def run_pass(self) -> None:
        csv_path, json_path = str(self.workdir / "dense.csv"), str(self.workdir / "dense.json")
        self.result = None
        self.attempted += 1
        start = perf_counter()
        try:
            with self.tracer.span("bench.dense", op=True):
                spec = sweepconfig.parse_sweep_config(self.config.read_text())
                dataset = sweeps.run_sweep(spec)
                datafiles.write_dataset(dataset, csv_path, "csv")
                datafiles.write_dataset(dataset, json_path, "json")
                from_csv = datafiles.read_dataset_csv(csv_path)
                from_json = datafiles.read_dataset_json(json_path)
        except Exception as exc:  # counted; the next pass starts afresh
            self.fail(exc)
            return
        self.timed(start, perf_counter())
        self.result = (spec, dataset, from_csv, from_json)

    def check_pass(self) -> None:
        if self.result is None:
            return
        spec, dataset, from_csv, from_json = self.result
        self.result = None
        problems = []
        for name, back in (("CSV", from_csv), ("JSON", from_json)):
            if back.columns != dataset.columns or back.rows != dataset.rows:
                problems.append(f"dense: {name} read-back differs from the rows written")
        if sweepconfig.parse_sweep_config(sweepconfig.format_sweep_config(spec)) != spec:
            problems.append("dense: format_sweep_config does not parse back to the spec")
        params, key = None, None
        for row in dataset.rows:
            point = row_point(spec, dataset.columns, row)
            if key != (point["lambda"], point["velocity"]):
                key = (point["lambda"], point["velocity"])
                params = model_params(point)
            reference = math.exp(-model.im_influence_action(params, point["time"]))
            problems += checks.check_factor(point, point["decoherence_factor"], reference,
                                            "dense")
            if len(problems) > 5:
                break
        self.reject(problems)

    def named(self) -> dict:
        return {"dense_sweep_s": stats.median(self.latencies_ms) / 1e3}


SWEEP_CONFIG = """\
target = gp_normalized
omega = 0.03
lambda = {lam!r}
velocity = {v!r}

[axis.gamma0]
values = 0, {gamma0!r}

[axis.theta]
values = {theta1!r}, {theta2!r}

[axis.time]
min = 0
max = 4pi
count = 5
"""


class CliCold(Workload):
    """Fresh ``python -m mirrorphase.cli`` processes, one after another.

    A round is the eight-command mix in seeded order; every command checks
    its exit code and output fields, and the data it wrote.
    """

    COMMANDS = ("decoherence", "phase_exact", "phase_approx", "phase_oracle", "figure",
                "sweep", "domain_error", "io_error")

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.walls: dict[str, list[float]] = {name: [] for name in self.COMMANDS}
        self.rounds = 0
        self._calls: list[tuple[str, float, float]] = []  # (command, raw ms, calibrated ms)

    def settle(self) -> None:
        for name, raw_ms, calibrated_ms in self._calls:
            self.raw_ms.append(raw_ms)
            self.latencies_ms.append(calibrated_ms)
            self.walls[name].append(calibrated_ms / 1e3)
        self._calls.clear()

    def discard_timings(self) -> None:
        self._calls.clear()

    def invoke(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "mirrorphase.cli", *argv],
                              cwd=self.workdir, capture_output=True, text=True, timeout=120)
        return proc, perf_counter() - start

    def warm_up(self) -> None:
        self.invoke(["decoherence", "--gamma0", "0.05", "--lambda", "5", "--omega", "0.03",
                     "--velocity", "0.5", "--periods", "0.5"])

    def _model_flags(self, point: dict) -> list[str]:
        return ["--gamma0", repr(point["gamma0"]), "--lambda", repr(point["lambda"]),
                "--omega", repr(point["omega"]), "--velocity", repr(point["velocity"])]

    def plan_round(self) -> list[tuple[str, list[str], dict]]:
        rng = self.rng
        self.rounds += 1
        deco = {"gamma0": rng.uniform(0.01, 1.0), "lambda": rng.uniform(0.0, 15.0),
                "omega": rng.uniform(0.01, 0.1), "velocity": rng.uniform(0.0, 0.95),
                "periods": rng.uniform(0.0, 2.0)}
        gamma0, lam = rng.choice(PUBLISHED_COUPLINGS)
        query = {"gamma0": gamma0, "lambda": lam, "omega": 0.03,
                 "velocity": rng.uniform(0.01, 0.95),
                 "theta": rng.uniform(0.02 * math.pi, 0.98 * math.pi)}
        sweep_cfg = self.workdir / f"sweep-{self.rounds}.cfg"
        sweep_cfg.write_text(SWEEP_CONFIG.format(
            lam=lam, v=query["velocity"], gamma0=gamma0,
            theta1=rng.uniform(0.02 * math.pi, 0.5 * math.pi),
            theta2=rng.uniform(0.5 * math.pi, 0.98 * math.pi)))
        sweep_point = {"omega": 0.03, "lambda": lam, "velocity": query["velocity"]}
        bad_velocity = rng.uniform(1.0, 2.0)
        phase_argv = ["phase", *self._model_flags(query), "--theta", repr(query["theta"])]
        plan = [
            ("decoherence", ["decoherence", *self._model_flags(deco),
                             "--periods", repr(deco["periods"]), "--solve-td"], deco),
            ("phase_exact", [*phase_argv, "--method", "exact"], query),
            ("phase_approx", [*phase_argv, "--method", "approx"], query),
            ("phase_oracle", [*phase_argv, "--method", "oracle"], query),
            ("figure", ["figure", "3", "-o", f"fig3-{self.rounds}.csv"], {}),
            ("sweep", ["sweep", str(sweep_cfg), "-o", f"sweep-{self.rounds}.csv"],
             sweep_point),
            ("domain_error", ["decoherence", *self._model_flags(dict(deco, velocity=bad_velocity)),
                              "--periods", "1"], {}),
            ("io_error", ["figure", "3", "-o", "missing-directory/fig3.csv"], {}),
        ]
        rng.shuffle(plan)
        return plan

    def run_pass(self) -> None:
        before = calibrate.process_reference_ms(os.environ, self.workdir)
        for name, argv, point in self.plan_round():
            self.attempted += 1
            with self.tracer.span(f"cli.process.{name}", op=True):
                try:
                    proc, wall = self.invoke(argv)
                except subprocess.SubprocessError as exc:
                    self.fail(exc)
                    continue
                finally:
                    after = calibrate.process_reference_ms(os.environ, self.workdir)
                    previous, before = before, after
            self._calls.append((name, wall * 1e3, calibrate.calibrated(
                wall * 1e3, previous, after, calibrate.NOMINAL_PROCESS_MS)))
            self.reject(*self.check_call(name, argv, point, proc))

    def check_call(self, name: str, argv: list[str], point: dict,
                   proc: subprocess.CompletedProcess) -> tuple[list[str], list[str]]:
        """(problems, inaccuracies) of one invocation, as in Workload.reject."""
        expected = {"domain_error": 2, "io_error": 3}.get(name, 0)
        label = f"cli {' '.join(argv)}"
        if proc.returncode != expected:
            return [f"{label}: exit {proc.returncode}, expected {expected}; "
                    f"stderr {proc.stderr.strip()!r}"], []
        if expected:
            lines = proc.stderr.strip().splitlines()
            prefix = "error: cannot write" if name == "io_error" else "error: velocity"
            if len(lines) != 1 or not lines[0].startswith(prefix):
                return [f"{label}: expected a one-line '{prefix}' diagnostic, "
                        f"got {proc.stderr!r}"], []
            return [], []
        if name in ("figure", "sweep"):
            return self._check_written(name, argv, point, proc.stdout), []
        fields = dict(item.split("=", 1) for item in proc.stdout.split())
        wanted = {"decoherence": ("s", "r", "decoherence_time"),
                  "phase_exact": ("method", "phase", "normalized", "quadrature_error",
                                  "near_degenerate"),
                  "phase_approx": ("method", "phase", "normalized"),
                  "phase_oracle": ("method", "phase", "normalized")}[name]
        if tuple(fields) != wanted:
            return [f"{label}: output fields {tuple(fields)}, expected {wanted}"], []
        if name == "decoherence":
            params = model_params(point)
            s = float(fields["s"])
            reference = math.exp(-model.im_influence_action(params, s))
            problems = checks.check_factor(point, float(fields["r"]), reference, label)
            rate = checks.dephasing_rate(point["gamma0"], point["lambda"], point["omega"],
                                         point["velocity"])
            td = float(fields["decoherence_time"])
            if abs(td * rate - 1.0) > 1e-9:
                problems.append(f"{label}: decoherence_time {td!r} != 1/rate {1.0 / rate!r}")
            return problems, []
        value, normalized = float(fields["phase"]), float(fields["normalized"])
        unitary = math.pi * (1.0 + checks.bloch_cosine(point["theta"]))
        if abs(normalized - value / unitary) > 1e-12 * max(1.0, abs(normalized)):
            return [f"{label}: normalized {normalized!r} != phase / pi(1+cos theta)"], []
        if name == "phase_exact":
            return checks.check_phase(point, value, label)
        if name == "phase_oracle":
            rate = checks.dephasing_rate(point["gamma0"], point["lambda"], point["omega"],
                                         point["velocity"])
            expected_phase = checks.closed_form_phase(rate, point["theta"], 2.0 * math.pi)
            return checks.check_oracle(expected_phase, value, label), []
        return [], []

    def _check_written(self, name: str, argv: list[str], point: dict, stdout: str) -> list[str]:
        path = self.workdir / argv[argv.index("-o") + 1]
        label = f"cli {name}"
        dataset = datafiles.read_dataset_csv(str(path))
        if stdout.strip() != f"wrote {len(dataset.rows)} rows to {path.name}":
            return [f"{label}: unexpected output {stdout!r}"]
        problems = []
        if name == "figure":
            spec = sweeps.figure_preset(3)
            for row in dataset.rows:
                p = row_point(spec, dataset.columns, row)
                reference = math.exp(-model.im_influence_action(model_params(p), p["time"]))
                problems += checks.check_factor(p, p["decoherence_factor"], reference, label)
        else:
            for row in dataset.rows:
                p = dict(point, **dict(zip(dataset.columns, row)))
                problems += checks.check_normalized(p, p["phase_normalized"], label)[0]
        path.unlink()
        return problems

    def peak_rss(self) -> float:
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def bare_import_s(self, count: int) -> list[float]:
        walls = []
        for _ in range(count):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "import mirrorphase"], check=True,
                           cwd=self.workdir, timeout=120)
            walls.append(perf_counter() - start)
        return walls

    def named(self) -> dict:
        walls = [ms / 1e3 for ms in self.latencies_ms]
        value, pct = stats.tail(walls)
        named = {"cli_p50_s": stats.median(walls), "cli_tail_s": value,
                 "cli_tail_percentile": "max" if pct is None else pct,
                 "cli_samples": len(walls)}
        for command, values in self.walls.items():
            if values:
                named[f"cli.{command}_s"] = stats.median(values)
        return named


WORKLOADS = {"figures": Figures, "domain_points": DomainPoints,
             "dense_sweep": DenseSweep, "cli_cold": CliCold}


def probe(tracer: tracing.Tracer, rng: random.Random, workdir: Path) -> None:
    """A few seeded calls into every layer, so each has spans in every traced run."""
    points = []
    for _ in range(20):
        gamma0, lam = rng.choice(PUBLISHED_COUPLINGS)
        points.append((model.ModelParams(gamma0, lam, 0.03, rng.uniform(0.01, 0.95)),
                       rng.uniform(0.02 * math.pi, 0.98 * math.pi)))
    with tracer.span("bench.probe", op=True):
        for params, theta in points:
            for s in (0.5, 1.0, 2.0, 4.0, 8.0):
                model.decoherence_factor(params, s)
            model.decoherence_time(params)
            phase.gp_exact(params, theta)
        phase.gp_kinematic_oracle(*points[0])
        text = DENSE_CONFIG.format(gamma0=0.05, omega=0.03, vmin=0.05).replace(
            "count = 250", "count = 20")
        spec = sweepconfig.parse_sweep_config(text)
        sweepconfig.format_sweep_config(spec)
        dataset = sweeps.run_sweep(spec)
        for fmt in datafiles.FORMATS:
            datafiles.write_dataset(dataset, str(workdir / f"probe.{fmt}"), fmt)
        datafiles.read_dataset_csv(str(workdir / "probe.csv"))
        datafiles.read_dataset_json(str(workdir / "probe.json"))
    params, theta = points[1]
    flags = ["--gamma0", repr(params.gamma0), "--lambda", repr(params.lambda_tilde),
             "--omega", "0.03", "--velocity", repr(params.velocity)]
    (workdir / "probe-sweep.cfg").write_text(text.replace("count = 20", "count = 3"))
    mix = [["decoherence", *flags, "--periods", "0.5", "--solve-td"],
           ["phase", *flags, "--theta", repr(theta), "--method", "exact"],
           ["phase", *flags, "--theta", repr(theta), "--method", "approx"],
           ["phase", *flags, "--theta", repr(theta), "--method", "oracle"],
           ["figure", "3", "-o", str(workdir / "probe-fig3.csv")],
           ["sweep", str(workdir / "probe-sweep.cfg"), "-o", str(workdir / "probe-sweep.csv")],
           ["decoherence", *flags[:-1], "1.5", "--periods", "1"],
           ["figure", "3", "-o", str(workdir / "missing-directory" / "fig3.csv")]]
    sink = io.StringIO()
    for argv in mix:
        with tracer.span("bench.probe_cli", op=True), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            cli.main(argv)


def cli_self_ms(tracer: tracing.Tracer, workload: Workload) -> float:
    """The cli layer's own time per invocation.

    On cli_cold, the median invocation minus the median bare ``import
    mirrorphase``, both as fresh processes; elsewhere the median self time of
    the probe's in-process ``cli.main`` calls.
    """
    if isinstance(workload, CliCold):
        imports = workload.bare_import_s(3)
        return stats.median(workload.raw_ms) - stats.median(imports) * 1e3
    own = [(r[tracing.END] - r[tracing.START] - r[tracing.CHILD]) / 1e6
           for r in tracer.spans if r[tracing.NAME] == "cli.main"]
    return stats.median(own)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = Path(args.out)
    workdir = out.parent / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.write_text(json.dumps(result))
    return 0


def run(args: argparse.Namespace, workdir: Path) -> dict:
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.warm_up()
    in_process = not isinstance(workload, CliCold)  # cli_cold works in other processes
    started = perf_counter()
    pass_s = []  # calibrated in process, raw on cli_cold

    def timed_pass() -> float:
        start = perf_counter()
        workload.run_pass()
        end = perf_counter()
        if workload.sampler is None:
            return end - start
        workload.sampler.sample()
        return workload.sampler.span_ms(start, end)[1] / 1e3

    with contextlib.ExitStack() as stack:
        if in_process:
            workload.sampler = stack.enter_context(calibrate.Sampler())
        while True:
            pass_s.append(timed_pass())
            workload.settle()
            workload.check_pass()
            if perf_counter() - started >= args.seconds:
                break
        result = {"workload": args.workload, "passes": len(pass_s), "pass_s": pass_s,
                  "peak_rss_mb": workload.peak_rss()}
        if args.trace:
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
            workload.tracer = tracer
            try:
                traced_s = timed_pass()
            finally:
                tracer.restore()
                workload.tracer = tracing.NullTracer()
            workload.discard_timings()  # a traced pass gives no end-to-end numbers
    workload.sampler = None
    if args.trace:
        workload.check_pass()
        tracing.instrument(tracer)
        try:
            probe(tracer, random.Random(args.seed), workdir)
        finally:
            tracer.restore()
        metrics, breakdown = tracing.summarize(tracer)
        metrics["cli.self_ms"] = cli_self_ms(tracer, workload)
        metrics["trace.overhead_s"] = traced_s - stats.median(pass_s)
        trace_file = Path(args.out).with_name(f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(str(trace_file), {"workload": args.workload, "seed": args.seed})
        result["trace"] = {"metrics": metrics, "breakdown": breakdown,
                           "traced_pass_s": traced_s, "file": str(trace_file.relative_to(ROOT))}
    workload.final_check()
    ops = workload.latencies_ms
    tail_ms, tail_pct = stats.tail(ops) if ops else (0.0, None)
    result.update({
        "attempted": workload.attempted, "failed": workload.failed,
        "failed_by_class": dict(workload.failed_by_class),
        "check_failures": len(workload.problems), "problems": workload.problems[:20],
        "inaccuracies": workload.inaccuracies[:20],
        "op_p50_ms": stats.median(ops) if ops else 0.0, "op_tail_ms": tail_ms,
        "op_tail_percentile": "max" if tail_pct is None else tail_pct, "op_samples": len(ops),
        "raw_op_p50_ms": stats.median(workload.raw_ms) if ops else 0.0,
        "raw_op_tail_ms": stats.tail(workload.raw_ms)[0] if ops else 0.0,
        "named": workload.named() if ops else {},
    })
    return result


if __name__ == "__main__":
    sys.exit(main())
