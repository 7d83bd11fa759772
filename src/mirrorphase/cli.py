"""Command-line front end: single-point evaluation, figure presets, user sweeps.

Exit codes: 0 on success, 2 for usage or domain problems, 3 for I/O
failures. All numbers are printed in shortest round-trip decimal form.

The package's modules load on first use. Only ``figure`` and ``sweep``
write a file, so only they load the file layer (``datafiles``, and with it
``json``); ``decoherence`` and ``phase`` never do.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import ConfigError, DomainError, QuadratureError, SweepError
from .model import _DOMAINS, ModelParams, decoherence_factor, decoherence_time
from .phase import (DEFAULT_ORACLE_STEPS, TWO_PI, gp_exact, gp_kinematic_oracle,
                    gp_perturbative, unitary_gp)
from .qubit import POLE_LIMIT
from .sweepconfig import GRAMMAR_HELP, format_sweep_config, parse_number, parse_sweep_config
from .sweeps import FIGURE_RANGE, FORMATS, figure_preset, run_sweep


def __getattr__(name: str):
    # perfbench/tracing.py patches cli.write_dataset by name, and fails on a
    # name it cannot find; until it takes a missing name, this resolves that
    # one, loading the file layer. The handlers import write_dataset from
    # datafiles when they call it, so a traced write is recorded once.
    if name == "write_dataset":
        from .datafiles import write_dataset
        return write_dataset
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(value: float) -> str:
    return repr(float(value))


def _number(text: str) -> float:
    try:
        return parse_number(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    def flag(name: str, dest: str, what: str) -> None:
        parser.add_argument(f"--{name}", dest=dest, type=_number, required=True,
                            metavar=name.upper(), help=f"{what}; {_DOMAINS[name][2]}")
    flag("gamma0", "gamma0", "coupling to the vacuum field")
    flag("lambda", "lambda_tilde", "coupling to the plate")
    flag("omega", "omega_tilde", "plate oscillator frequency times distance")
    flag("velocity", "velocity", "velocity as a fraction of the speed of light")


def _params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(gamma0=args.gamma0, lambda_tilde=args.lambda_tilde,
                       omega_tilde=args.omega_tilde, velocity=args.velocity)


def _resolve_time(time: float | None, periods: float | None) -> float | None:
    """The time that ``--time`` (``--s-final``) or ``--periods`` gives; None
    without either."""
    return time if periods is None else periods * TWO_PI


def _cmd_decoherence(args: argparse.Namespace) -> int:
    params = _params(args)
    s = _resolve_time(args.time, args.periods)
    record = [f"s={_fmt(s)}", f"r={_fmt(decoherence_factor(params, s))}"]
    if args.solve_td:
        record.append(f"decoherence_time={_fmt(decoherence_time(params))}")
    print(" ".join(record))
    return 0


def _normalized(phase: float, theta: float) -> float:
    """``phase / pi*(1+cos(theta))``, the normalized phase of every method;
    refused where that rounds to 0, from ``POLE_LIMIT`` on, which only the
    first-order phase admits."""
    unitary = unitary_gp(theta)
    if unitary == 0.0:
        raise DomainError(f"theta {_fmt(theta)} rounds pi*(1+cos(theta)) to 0, so the "
                          f"normalized phase is undefined; take theta below {POLE_LIMIT!r}")
    return phase / unitary


def _cmd_phase(args: argparse.Namespace) -> int:
    s_final = _resolve_time(args.s_final, args.periods)
    if args.method == "approx" and s_final is not None:
        # the first-order form holds over one period only, as in the sweeps
        flag = "--s-final" if args.s_final is not None else "--periods"
        raise DomainError(f"{flag} does not apply to --method approx, the first-order "
                          "phase over one period")
    if s_final is None:
        s_final = TWO_PI
    params = _params(args)
    diagnostics = []
    if args.method == "exact":
        result = gp_exact(params, args.theta, s_final=s_final)
        phase = result.phase
        diagnostics = [f"quadrature_error={_fmt(result.quadrature_error)}",
                       f"near_degenerate={int(result.near_degenerate)}"]
    elif args.method == "approx":
        phase = gp_perturbative(params, args.theta)
    else:
        phase = gp_kinematic_oracle(params, args.theta, s_final=s_final,
                                    step_count=args.steps)
    record = [f"method={args.method}", f"phase={_fmt(phase)}",
              f"normalized={_fmt(_normalized(phase, args.theta))}", *diagnostics]
    print(" ".join(record))
    return 0


def _is_stdout(path: str) -> bool:
    """Whether ``path`` names the file this process's standard output writes to."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such path, or a stdout without a descriptor
        return False


def _write(path: str, what: str, write) -> int:
    """Call ``write()``, which writes ``path``, then report ``what`` it
    wrote; an ``OSError`` is exit 3."""
    # the status line must not join a file written to standard output
    status = sys.stderr if _is_stdout(path) else sys.stdout
    try:
        write()
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {what} to {path}", file=status)
    return 0


def _write_dataset(dataset, args: argparse.Namespace) -> int:
    from .datafiles import write_dataset
    return _write(args.output, f"{len(dataset.rows)} rows",
                  lambda: write_dataset(dataset, args.output, args.format))


def _cmd_figure(args: argparse.Namespace) -> int:
    spec = figure_preset(args.number)
    if args.emit_config:
        from .datafiles import write_text
        path = args.emit_config
        return _write(path, "sweep config",
                      lambda: write_text(path, [format_sweep_config(spec)]))
    return _write_dataset(run_sweep(spec), args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 3
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{args.config}: not UTF-8 text ({exc.reason})") from None
    spec = parse_sweep_config(text)
    return _write_dataset(run_sweep(spec), args)


def build_parser() -> argparse.ArgumentParser:
    # the raw formatter prints --version without loading textwrap
    parser = argparse.ArgumentParser(
        prog="mirrorphase", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Decoherence factor and geometric phase of a two-level particle moving\n"
                    "parallel to an imperfect mirror.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    deco = sub.add_parser("decoherence",
                          help="decoherence factor r(s), optionally the decoherence time")
    _add_model_flags(deco)
    when = deco.add_mutually_exclusive_group(required=True)
    when.add_argument("--time", type=_number, help="dimensionless time s")
    when.add_argument("--periods", type=_number, help="time in isolated periods (s = 2*pi*n)")
    deco.add_argument("--solve-td", action="store_true",
                      help="also give the time at which the influence action reaches 1")
    deco.set_defaults(func=_cmd_decoherence)

    phase = sub.add_parser("phase", help="geometric phase of the open evolution")
    _add_model_flags(phase)
    phase.add_argument("--theta", type=_number, required=True,
                       help="initial Bloch angle in radians; accepts the '0.25pi' form")
    phase.add_argument("--method", choices=("exact", "approx", "oracle"), default="exact")
    total = phase.add_mutually_exclusive_group()
    total.add_argument("--s-final", type=_number, help="integrate up to this time")
    total.add_argument("--periods", type=_number, help="integrate over this many periods")
    phase.add_argument("--steps", type=int, default=DEFAULT_ORACLE_STEPS,
                       help="coarsest grid steps N for the oracle method, which walks "
                            "4N steps and extrapolates (default: %(default)s)")
    phase.set_defaults(func=_cmd_phase)

    figure = sub.add_parser("figure", help="regenerate a preset figure dataset")
    figure.add_argument("number", type=int, choices=FIGURE_RANGE, metavar="N",
                        help=f"figure number, {FIGURE_RANGE[0]}..{FIGURE_RANGE[-1]}")
    figure.add_argument("--output", "-o", default=None)
    figure.add_argument("--format", choices=FORMATS, default="csv")
    figure.add_argument("--emit-config", metavar="PATH",
                        help="write the preset as a sweep config instead of running it; "
                             "PATH may be /dev/stdout")
    figure.set_defaults(func=_cmd_figure)

    sweep = sub.add_parser(
        "sweep", help="run a sweep from a config file",
        epilog=GRAMMAR_HELP, formatter_class=argparse.RawDescriptionHelpFormatter)
    sweep.add_argument("config", help="path to the sweep config file")
    sweep.add_argument("--output", "-o", required=True)
    sweep.add_argument("--format", choices=FORMATS, default="csv")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "figure" and (args.emit_config is None) == (args.output is None):
        print("error: figure takes exactly one of --output and --emit-config", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, DomainError, SweepError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
