"""In-memory span tracer that instruments mirrorphase from outside the package.

A traced run replaces the module attributes through which one layer calls
another (``sweeps.gp_exact``, ``phase.adaptive_simpson``, ...) with timing
wrappers, and puts the originals back afterwards; no file of the package
changes. Each span records its name, start, end, parent span, operation id,
the time its children covered, and the exception class it ended with.

Functions called hundreds of thousands of times per pass (the phase
integrand's ``angles_closed_form`` and ``decoherence_factor``, the dense
sweep's ``decoherence_factor``) are "hot": they keep a call count and a
total time instead of one span per call, and that time is still charged to
the enclosing span as child time, so self times stay exact.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections import Counter, defaultdict
from time import perf_counter_ns

from stats import median, percentile

NAME, START, END, PARENT, OP, CHILD, ERROR = range(7)

LAYERS = ("cli", "model", "qubit", "phase", "numerics", "sweeps", "sweepconfig",
          "datafiles")


def layer_of(name: str) -> str:
    """Layer a span or hot name belongs to: the text before the first dot."""
    return name.split(".", 1)[0]


class NullTracer:
    """Stand-in used by untraced runs: a span is a shared no-op context."""

    _nothing = contextlib.nullcontext()

    def span(self, name: str, op: bool = False):
        return self._nothing


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.hot: dict[str, list[int]] = {}
        self.counters: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0, 0, parent, self.op, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter_ns()
        return record

    def close(self, record: list) -> None:
        record[END] = perf_counter_ns()
        self._stack.pop()
        if record[PARENT] >= 0:
            self.spans[record[PARENT]][CHILD] += record[END] - record[START]

    def span(self, name: str, op: bool = False):
        """Context manager for a span; ``op=True`` starts a new operation id."""
        if op:
            self.op += 1
        return _Span(self, name)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- instrumentation ---------------------------------------------------

    def patch(self, owner, attr: str, name: str, hot: bool = False,
              label=None, adapt=None, after=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`.

        ``label(*args, **kwargs)`` names the span from the arguments,
        ``adapt(original)`` returns the callable the span times (to count
        integrand evaluations, say), and ``after(tracer, args, kwargs,
        result)`` runs once the span has closed.
        """
        original = getattr(owner, attr)
        target = adapt(original) if adapt else original
        if hot:
            stat = self.hot.setdefault(name, [0, 0])
            stack, spans = self._stack, self.spans

            def wrapper(*args, **kwargs):
                start = perf_counter_ns()
                try:
                    return target(*args, **kwargs)
                finally:
                    elapsed = perf_counter_ns() - start
                    stat[0] += 1
                    stat[1] += elapsed
                    if stack:
                        spans[stack[-1]][CHILD] += elapsed
        else:
            def wrapper(*args, **kwargs):
                record = self.open(label(*args, **kwargs) if label else name)
                try:
                    result = target(*args, **kwargs)
                except BaseException as exc:
                    record[ERROR] = type(exc).__name__
                    raise
                finally:
                    self.close(record)
                if after is not None:
                    after(self, args, kwargs, result)
                return result
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: str, extra: dict) -> None:
        payload = dict(extra)
        payload["span_fields"] = ["name", "start_ns", "end_ns", "parent", "op",
                                  "child_ns", "error"]
        payload["spans"] = self.spans
        payload["hot"] = {name: {"calls": calls, "total_ns": total}
                          for name, (calls, total) in self.hot.items()}
        payload["counters"] = self.counters
        with open(path, "w") as handle:
            json.dump(payload, handle)


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> list:
        self.record = self.tracer.open(self.name)
        return self.record

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.record[ERROR] = exc_type.__name__
        self.tracer.close(self.record)


# -- mirrorphase instrumentation --------------------------------------------

def _count_evals(tracer: Tracer, counter: str):
    """Adapter that counts the integrand evaluations of a quadrature routine."""
    def adapt(quadrature):
        def counted_quadrature(f, *args, **kwargs):
            calls = [0]

            def integrand(x):
                calls[0] += 1
                return f(x)
            try:
                return quadrature(integrand, *args, **kwargs)
            finally:
                tracer.count(counter, calls[0])
        return counted_quadrature
    return adapt


def _oracle_bytes(tracer, args, kwargs, result) -> None:
    # _kinematic_arg holds, per grid point, s, r, sin, cos (float64), psi and
    # dpsi (2 complex128 each) and the connection (complex128): 112 bytes.
    # The oracle runs it at step_count and at twice that.
    steps = kwargs.get("step_count", args[3] if len(args) > 3 else 100_000)
    tracer.count("phase.oracle_calls")
    tracer.count("phase.oracle_bytes_computed", 112 * ((steps + 1) + (2 * steps + 1)))


def _sweep_points(tracer, args, kwargs, result) -> None:
    tracer.count("sweeps.points", len(result.rows))


def _bytes_written(tracer, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("datafiles.bytes_written", os.path.getsize(path))


def _write_label(dataset, path, fmt) -> str:
    return f"datafiles.write_dataset.{fmt}"


def instrument(tracer: Tracer) -> None:
    """Wrap every cross-module call of interest; undo with ``tracer.restore()``."""
    from mirrorphase import cli, datafiles, model, phase, sweepconfig, sweeps

    p = tracer.patch
    # phase -> qubit, model, numerics: the integrand and the quadrature
    p(phase, "angles_closed_form", "qubit.angles_closed_form", hot=True)
    p(phase, "eigenvalue_gap", "qubit.eigenvalue_gap", hot=True)
    p(phase, "decoherence_factor", "model.decoherence_factor", hot=True)
    p(phase, "adaptive_simpson", "numerics.adaptive_simpson",
      adapt=_count_evals(tracer, "numerics.adaptive_simpson_evals"))
    p(phase, "gauss_legendre", "numerics.gauss_legendre",
      adapt=_count_evals(tracer, "numerics.gauss_legendre_evals"))
    # model -> numerics
    p(model, "find_root_bracketed", "numerics.find_root_bracketed")
    # sweeps -> model, phase: the per-point evaluator
    p(sweeps, "decoherence_factor", "model.decoherence_factor", hot=True)
    p(sweeps, "decoherence_time", "model.decoherence_time")
    p(sweeps, "gp_exact", "phase.gp_exact")
    p(sweeps, "gp_perturbative", "phase.gp_perturbative")
    p(sweeps.SweepSpec, "validate", "sweeps.validate")
    # datafiles internals
    p(datafiles, "dataset_to_csv", "datafiles.dataset_to_csv")
    p(datafiles, "dataset_to_json", "datafiles.dataset_to_json")
    # public entry points, as the benchmark calls them
    p(model, "decoherence_factor", "model.decoherence_factor", hot=True)
    p(model, "decoherence_time", "model.decoherence_time")
    p(phase, "gp_exact", "phase.gp_exact")
    p(phase, "gp_kinematic_oracle", "phase.gp_kinematic_oracle", after=_oracle_bytes)
    p(sweeps, "run_sweep", "sweeps.run_sweep", after=_sweep_points)
    p(sweepconfig, "parse_sweep_config", "sweepconfig.parse_sweep_config")
    p(sweepconfig, "format_sweep_config", "sweepconfig.format_sweep_config")
    p(datafiles, "write_dataset", "", label=_write_label, after=_bytes_written)
    p(datafiles, "read_dataset_csv", "datafiles.read_dataset_csv")
    p(datafiles, "read_dataset_json", "datafiles.read_dataset_json")
    # the same entry points as the cli module sees them
    p(cli, "decoherence_factor", "model.decoherence_factor", hot=True)
    p(cli, "decoherence_time", "model.decoherence_time")
    p(cli, "gp_exact", "phase.gp_exact")
    p(cli, "gp_kinematic_oracle", "phase.gp_kinematic_oracle", after=_oracle_bytes)
    p(cli, "gp_perturbative", "phase.gp_perturbative")
    p(cli, "run_sweep", "sweeps.run_sweep", after=_sweep_points)
    p(cli, "parse_sweep_config", "sweepconfig.parse_sweep_config")
    p(cli, "format_sweep_config", "sweepconfig.format_sweep_config")
    p(cli, "write_dataset", "", label=_write_label, after=_bytes_written)
    p(cli, "main", "cli.main")


def summarize(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and breakdowns by operation.

    A layer's self time is the duration of its spans minus the time their
    children covered, plus its hot calls. Spans named ``bench.*`` are the
    benchmark's own operations: they name the operation id their children
    carry and are left out of every layer.
    """
    spans, counters = tracer.spans, tracer.counters
    op_names: dict[int, str] = {}
    durations: dict[str, list[int]] = defaultdict(list)
    own: Counter = Counter()
    errors: dict[str, Counter] = defaultdict(Counter)
    layer_self: Counter = Counter()
    layer_calls: Counter = Counter()
    by_op: dict[str, Counter] = defaultdict(Counter)
    validate_in_sweeps = 0
    for record in spans:
        name = record[NAME]
        duration = record[END] - record[START]
        if name.startswith("bench."):
            op_names.setdefault(record[OP], name[len("bench."):])
            continue
        layer = layer_of(name)
        if record[ERROR]:
            errors[name][record[ERROR]] += 1
        else:
            durations[name].append(duration)
        own[name] += duration - record[CHILD]
        layer_self[layer] += duration - record[CHILD]
        layer_calls[layer] += 1
        if name in ("sweeps.run_sweep", "phase.gp_exact"):
            by_op[name][op_names.get(record[OP], "unnamed")] += duration
        if (name == "sweeps.validate" and record[PARENT] >= 0
                and spans[record[PARENT]][NAME] == "sweeps.run_sweep"):
            validate_in_sweeps += duration
    for name, (calls, total) in tracer.hot.items():
        layer_self[layer_of(name)] += total
        layer_calls[layer_of(name)] += calls

    def hot_us(name: str) -> float:
        calls, total = tracer.hot.get(name, (0, 0))
        return total / calls / 1e3 if calls else 0.0

    def med(name: str, unit_ns: float) -> float:
        values = durations.get(name)
        return median(values) / unit_ns if values else 0.0

    def total(name: str, unit_ns: float) -> float:
        return sum(durations.get(name, ())) / unit_ns

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] / 1e9
        metrics[f"{layer}.calls"] = layer_calls[layer]
    gp_exact = durations.get("phase.gp_exact", [])
    gp_failed = sum(errors["phase.gp_exact"].values())
    angle_calls = tracer.hot.get("qubit.angles_closed_form", (0, 0))[0]
    points = counters.get("sweeps.points", 0)
    metrics.update({
        "model.decoherence_factor_us": hot_us("model.decoherence_factor"),
        "model.decoherence_time_us": med("model.decoherence_time", 1e3),
        "qubit.angles_closed_form_us": hot_us("qubit.angles_closed_form"),
        "qubit.angles_calls_per_gp_exact":
            angle_calls / (len(gp_exact) + gp_failed) if gp_exact else 0.0,
        "numerics.adaptive_simpson_evals": counters.get("numerics.adaptive_simpson_evals", 0),
        "numerics.adaptive_simpson_self_s": own["numerics.adaptive_simpson"] / 1e9,
        "phase.gp_exact_us_p50": percentile(gp_exact, 50) / 1e3 if gp_exact else 0.0,
        "phase.gp_exact_us_p99": percentile(gp_exact, 99) / 1e3 if gp_exact else 0.0,
        "phase.gp_exact_failed": gp_failed,
        "phase.oracle_ms": med("phase.gp_kinematic_oracle", 1e6),
        "phase.oracle_bytes_computed": counters.get("phase.oracle_bytes_computed", 0),
        "sweeps.run_sweep_s": total("sweeps.run_sweep", 1e9),
        "sweeps.validate_ms": total("sweeps.validate", 1e6),
        "sweeps.overhead_us_per_point":
            (own["sweeps.run_sweep"] + validate_in_sweeps) / points / 1e3 if points else 0.0,
        "sweeps.points": points,
        "sweepconfig.parse_ms": med("sweepconfig.parse_sweep_config", 1e6),
        "sweepconfig.format_ms": med("sweepconfig.format_sweep_config", 1e6),
        "datafiles.csv_write_s": total("datafiles.write_dataset.csv", 1e9),
        "datafiles.json_write_s": total("datafiles.write_dataset.json", 1e9),
        "datafiles.csv_read_s": total("datafiles.read_dataset_csv", 1e9),
        "datafiles.json_read_s": total("datafiles.read_dataset_json", 1e9),
        "datafiles.bytes_written": counters.get("datafiles.bytes_written", 0),
    })
    breakdown: dict[str, object] = {}
    for op, ns in sorted(by_op["sweeps.run_sweep"].items()):
        breakdown[f"sweeps.run_sweep_s.{op}"] = ns / 1e9
    for op, ns in sorted(by_op["phase.gp_exact"].items()):
        breakdown[f"phase.gp_exact_s.{op}"] = ns / 1e9
    for cls, n in sorted(errors["phase.gp_exact"].items()):
        breakdown[f"phase.gp_exact_failed.{cls}"] = n
    breakdown["span_errors"] = {name: dict(c) for name, c in sorted(errors.items())}
    breakdown["spans"] = len(spans)
    return metrics, breakdown
