"""Command-line front end: single-point evaluation, figure presets, user sweeps.

Exit codes: 0 on success, 2 for usage or domain problems, 3 for I/O
failures. All numbers are printed in shortest round-trip decimal form.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, DegenerateStateError, DomainError, QuadratureError, SweepError
from .model import ModelParams, decoherence_factor, decoherence_time
from .numerics import ADAPTIVE_SIMPSON, GAUSS_LEGENDRE
from .phase import TWO_PI, gp_exact, gp_kinematic_oracle, gp_perturbative, unitary_gp
from .datafiles import FORMATS, write_dataset
from .sweepconfig import GRAMMAR_HELP, format_sweep_config, parse_number, parse_sweep_config
from .sweeps import figure_preset, run_sweep


def _fmt(value: float) -> str:
    return repr(float(value))


def _number(text: str) -> float:
    try:
        return parse_number(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma0", type=_number, required=True,
                        help="coupling to the vacuum field (>= 0)")
    parser.add_argument("--lambda", dest="lambda_tilde", type=_number, required=True,
                        metavar="LAMBDA", help="coupling to the plate (>= 0)")
    parser.add_argument("--omega", dest="omega_tilde", type=_number, required=True,
                        metavar="OMEGA", help="plate oscillator frequency times distance (> 0)")
    parser.add_argument("--velocity", type=_number, required=True,
                        help="velocity as a fraction of the speed of light, in [0, 1)")


def _params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(gamma0=args.gamma0, lambda_tilde=args.lambda_tilde,
                       omega_tilde=args.omega_tilde, velocity=args.velocity)


def _resolve_time(args: argparse.Namespace, default: float | None = None) -> float:
    if getattr(args, "time", None) is not None:
        return args.time
    if getattr(args, "periods", None) is not None:
        return args.periods * TWO_PI
    if default is None:
        raise DomainError("either --time or --periods is required")
    return default


def _cmd_decoherence(args: argparse.Namespace) -> int:
    params = _params(args)
    s = _resolve_time(args)
    record = [f"s={_fmt(s)}", f"r={_fmt(decoherence_factor(params, s))}"]
    if args.solve_td:
        record.append(f"decoherence_time={_fmt(decoherence_time(params))}")
    print(" ".join(record))
    return 0


def _cmd_phase(args: argparse.Namespace) -> int:
    params = _params(args)
    s_final = args.s_final if args.s_final is not None else \
        (args.periods * TWO_PI if args.periods is not None else TWO_PI)
    try:
        if args.method == "exact":
            result = gp_exact(params, args.theta, s_final=s_final, method=args.quad_method)
            record = [f"method=exact", f"phase={_fmt(result.phase)}",
                      f"normalized={_fmt(result.normalized)}",
                      f"quadrature_error={_fmt(result.quadrature_error)}",
                      f"near_degenerate={int(result.near_degenerate)}"]
        elif args.method == "approx":
            phase = gp_perturbative(params, args.theta)
            record = [f"method=approx", f"phase={_fmt(phase)}",
                      f"normalized={_fmt(phase / unitary_gp(args.theta))}"]
        else:
            phase = gp_kinematic_oracle(params, args.theta, s_final=s_final,
                                        step_count=args.steps)
            record = [f"method=oracle", f"phase={_fmt(phase)}",
                      f"normalized={_fmt(phase / unitary_gp(args.theta))}"]
    except DegenerateStateError as exc:
        raise DegenerateStateError(
            f"{exc} The closed-system value there is pi*(1+cos(theta)).") from None
    print(" ".join(record))
    return 0


def _write(dataset, args: argparse.Namespace) -> int:
    try:
        count = write_dataset(dataset, args.output, args.format)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {count} rows to {args.output}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    spec = figure_preset(args.number)
    if args.emit_config:
        try:
            with open(args.emit_config, "w", newline="\n") as handle:
                handle.write(format_sweep_config(spec))
        except OSError as exc:
            print(f"error: cannot write {args.emit_config}: {exc}", file=sys.stderr)
            return 3
        print(f"wrote sweep config to {args.emit_config}")
        return 0
    return _write(run_sweep(spec), args)


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
    return _write(run_sweep(spec), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorphase",
        description="Decoherence factor and geometric phase of a two-level particle "
                    "moving parallel to an imperfect mirror.")
    sub = parser.add_subparsers(dest="command", required=True)

    deco = sub.add_parser("decoherence",
                          help="decoherence factor r(s), optionally the decoherence time")
    _add_model_flags(deco)
    when = deco.add_mutually_exclusive_group(required=True)
    when.add_argument("--time", type=_number, help="dimensionless time s")
    when.add_argument("--periods", type=_number, help="time in isolated periods (s = 2*pi*n)")
    deco.add_argument("--solve-td", action="store_true",
                      help="also solve for the time at which the influence action reaches 1")
    deco.set_defaults(func=_cmd_decoherence)

    phase = sub.add_parser("phase", help="geometric phase of the open evolution")
    _add_model_flags(phase)
    phase.add_argument("--theta", type=_number, required=True,
                       help="initial Bloch angle in radians; accepts the '0.25pi' form")
    phase.add_argument("--method", choices=("exact", "approx", "oracle"), default="exact")
    total = phase.add_mutually_exclusive_group()
    total.add_argument("--s-final", type=_number, help="integrate up to this time")
    total.add_argument("--periods", type=_number, help="integrate over this many periods")
    phase.add_argument("--quad-method", choices=(ADAPTIVE_SIMPSON, GAUSS_LEGENDRE),
                       default=ADAPTIVE_SIMPSON,
                       help="integration rule of the exact method; gauss-legendre "
                            "is a cross-check")
    phase.add_argument("--steps", type=int, default=100_000,
                       help="grid steps for the oracle method")
    phase.set_defaults(func=_cmd_phase)

    figure = sub.add_parser("figure", help="regenerate a preset figure dataset")
    figure.add_argument("number", type=int, choices=range(2, 9), metavar="N",
                        help="figure number, 2..8")
    figure.add_argument("--output", "-o", default=None)
    figure.add_argument("--format", choices=FORMATS, default="csv")
    figure.add_argument("--emit-config", metavar="PATH",
                        help="write the preset as a sweep config instead of running it")
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
    if args.command == "figure" and not args.emit_config and args.output is None:
        print("error: --output is required unless --emit-config is given", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, DomainError, SweepError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
