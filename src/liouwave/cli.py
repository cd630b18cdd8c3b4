"""Command-line front end.

Runs kernel evaluations, the four solvers, the named verification suites,
and the scaling/quadrature studies, writing CSV records.  Exit codes: 0
success, 1 usage or configuration error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError, DomainError
from .hyperbolic import (
    DEFAULT_N_THETA,
    HyperbolicPoint,
    _check_disk_rule,
    bump_profile_2d,
    hyperbolic_solve,
)
from .kernel import kernel_defined, wave_kernel
from .profiles import BumpProfile, read_profile_csv
from .propagator import DEFAULT_PANELS, solve_cauchy, solve_cauchy_regularized, solve_on_grid
from .quadrature import DEFAULT_QUAD_ORDER, gauss_legendre
from .reductions import (
    ScalingStudy,
    TelegraphParams,
    constant_potential_solve,
    scaling_limit_gap,
    telegraph_solve,
)
from .verification import SUITES, run_suites

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _number(text: str, flag: str, kind=float):
    """One number of ``flag``; malformed or non-finite text is a ConfigError naming both."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        expected = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{flag} expects {expected}, got {text!r}")
    return value


def _finite(text: str) -> float:
    """``type`` of the float flags; argparse reports 'argument --flag: <message>'."""
    try:
        return _number(text, "value")
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_floats(text: str, flag: str) -> list[float]:
    values = [_number(p, flag) for p in text.split(",") if p != ""]
    if not values:
        raise ConfigError(f"{flag} expects a comma-separated list of numbers, got {text!r}")
    return values


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--x-grid expects min:max:count, got {text!r}")
    lo, hi = _number(parts[0], "--x-grid"), _number(parts[1], "--x-grid")
    count = _number(parts[2], "--x-grid", int)
    if count < 1 or (count > 1 and not hi > lo):
        raise ConfigError(f"--x-grid needs min < max and count >= 1, got {text!r}")
    return np.linspace(lo, hi, count)


def _parse_profile(text: str, two_dim: bool = False):
    kind, _, rest = text.partition(":")
    if kind == "bump" and not two_dim:
        parts = rest.split(":")
        if len(parts) != 2:
            raise ConfigError(f"bump profile expects bump:a:b, got {text!r}")
        return BumpProfile(*(_number(p, "--profile") for p in parts))
    if kind == "file" and not two_dim:
        return read_profile_csv(rest)
    if kind == "bump2" and two_dim:
        parts = rest.split(":")
        if len(parts) != 4:
            raise ConfigError(f"2-D bump expects bump2:x0:x1:y0:y1, got {text!r}")
        return bump_profile_2d(*(_number(p, "--profile") for p in parts))
    expected = "bump2:x0:x1:y0:y1" if two_dim else "bump:a:b or file:PATH"
    raise ConfigError(f"profile {text!r} not recognized; expected {expected}")


def _parse_point(text: str) -> HyperbolicPoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--w expects X,Y, got {text!r}")
    return HyperbolicPoint(*(_number(p, "--w") for p in parts))


def _echo(args: argparse.Namespace, skip=("out", "no_timestamp", "func")) -> str:
    pairs = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None:
            continue
        pairs.append(f"{key.replace('_', '-')}={value}")
    return " ".join(pairs)


def _emit(args, started, body, tee: bool = False) -> None:
    """Write the record header, then the body lines, to --out or else stdout; tee writes both."""
    lines = []
    if not args.no_timestamp:
        wall = time.perf_counter() - started
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines.append(f"# generated {stamp} wall_time_s={wall:.3f}")
    lines.append(f"# config: {_echo(args)}")
    lines.extend(body)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if tee or not args.out:
        sys.stdout.write(text)


def _write_record(args, columns, rows, provenance, started):
    row_format = ",".join(["%.17g"] * len(columns))
    _emit(args, started, [f"# provenance: {provenance}", ",".join(columns),
                          *(row_format % row for row in rows)])


# ---------------------------------------------------------------------------
# subcommands

def _cmd_eval_kernel(args, started):
    times = _parse_floats(args.t, "--t")
    xs = _parse_grid(args.x_grid)
    rows = []
    for t in times:
        values = np.full(xs.shape, math.nan)
        defined = kernel_defined(t, xs, args.xp, args.k, args.coef_b)
        values[defined] = wave_kernel(t, xs[defined], args.xp, args.k, args.coef_a, args.coef_b)
        rows.extend((t, x, args.xp, v) for x, v in zip(xs.tolist(), values.tolist()))
    _write_record(args, ("t", "X", "Xp", "value"), rows, "closed-form", started)
    return EXIT_OK


def _cmd_solve_line(args, started):
    if args.command == "solve-telegraph":
        solver, coupling = telegraph_solve, TelegraphParams(args.alpha, args.beta)
    elif args.command == "solve-const":
        solver, coupling = constant_potential_solve, args.k
    else:
        solver, coupling = (solve_cauchy_regularized if args.regularized else solve_cauchy), args.k
    profile = _parse_profile(args.profile)
    field = solve_on_grid(coupling, profile, _parse_floats(args.t, "--t"), _parse_grid(args.x_grid),
                          gauss_legendre(args.quad_order), args.panels, solver)
    xs = field.positions.tolist()
    rows = [(t, x, v) for t, row in zip(field.times.tolist(), field.values.tolist())
            for x, v in zip(xs, row)]
    _write_record(args, ("t", "X", "value"), rows, field.provenance, started)
    return EXIT_OK


def _cmd_solve_hyperbolic(args, started):
    profile = _parse_profile(args.profile, two_dim=True)
    times = _parse_floats(args.t, "--t")
    w = _parse_point(args.w)
    rule = _check_disk_rule(gauss_legendre(args.quad_order), args.panels, args.ntheta)
    rows = []
    for t in times:
        value = 0.0 if t == 0.0 else hyperbolic_solve(
            profile, t, w, rule, args.panels, args.ntheta
        )
        rows.append((t, w.x, w.y, value))
    _write_record(args, ("t", "x", "y", "value"), rows, "quadrature", started)
    return EXIT_OK


def _cmd_verify(args, started):
    names = list(SUITES) if args.suite == "all" else [s.strip() for s in args.suite.split(",")]
    results = run_suites(names, dx=args.dx, dt=args.dt, cfl=args.cfl)
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        note = f"  ({r.note})" if r.note else ""
        lines.append(
            f"{status}  [{r.suite}] {r.name:<{width}}  max_err={r.max_err:.3e}  tol={r.tol:g}{note}"
        )
    failed = [r for r in results if not r.passed]
    lines.append(f"# {len(results) - len(failed)}/{len(results)} checks passed")
    _emit(args, started, lines, tee=True)
    return EXIT_VERIFY if failed else EXIT_OK


def _cmd_limit_study(args, started):
    lambdas = tuple(_parse_floats(args.lambdas, "--lambdas"))
    study = ScalingStudy(lambdas=lambdas, k=args.k)
    gaps = scaling_limit_gap(study)
    rows = [(lam, float(gap)) for lam, gap in zip(lambdas, gaps)]
    _write_record(args, ("lambda", "max_gap"), rows, "closed-form", started)
    return EXIT_OK


def _cmd_convergence(args, started):
    profile = _parse_profile(args.profile)
    times = _parse_floats(args.t, "--t")
    if len(times) != 1:
        raise ConfigError(f"convergence study takes exactly one --t, got {args.t!r}")
    if args.max_panels < 1:
        raise ConfigError(f"--max-panels must be >= 1, got {args.max_panels}")
    t = times[0]
    xs = _parse_grid(args.x_grid)
    rule = gauss_legendre(args.quad_order)
    rows = []
    panels = 1
    while panels <= args.max_panels:
        gap = np.max(np.abs(
            solve_cauchy(args.k, profile, t, xs, rule, panels)
            - solve_cauchy_regularized(args.k, profile, t, xs, rule, panels)
        ))
        rows.append((float(panels), float(gap)))
        panels *= 2
    _write_record(args, ("panels", "gap"), rows, "quadrature", started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly

def _add_output_flags(p):
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="suppress the timestamp/wall-time header line")


def _add_quad_flags(p):
    p.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER)
    p.add_argument("--panels", type=int, default=DEFAULT_PANELS)


def _add_line_flags(p):
    """Flags shared by the line-solve commands, which _cmd_solve_line dispatches."""
    p.add_argument("--profile", required=True, help="bump:a:b or file:PATH")
    p.add_argument("--t", required=True, help="comma-separated times")
    p.add_argument("--x-grid", required=True, help="min:max:count")
    _add_quad_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_solve_line)


@functools.cache  # parse_args leaves no state on it: defaults are immutable; SUITES is read when verify runs
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="liouwave", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-kernel", help="evaluate the light-cone wave kernel on a grid")
    p.add_argument("--k", type=_finite, required=True)
    p.add_argument("--t", required=True, help="comma-separated times")
    p.add_argument("--x-grid", required=True, help="min:max:count")
    p.add_argument("--xp", type=_finite, default=0.0, help="source position")
    p.add_argument("--coef-a", type=_finite, default=1.0, help="first-kind branch weight")
    p.add_argument("--coef-b", type=_finite, default=0.0, help="second-kind branch weight")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_eval_kernel)

    p = sub.add_parser("solve", help="exponential-potential Cauchy solve on a grid")
    p.add_argument("--k", type=_finite, required=True)
    p.add_argument("--regularized", action="store_true",
                   help="use the substituted form, well conditioned as t -> 0")
    _add_line_flags(p)

    p = sub.add_parser("solve-const", help="constant-potential Cauchy solve on a grid")
    p.add_argument("--k", type=_finite, required=True)
    _add_line_flags(p)

    p = sub.add_parser("solve-telegraph", help="transmission-line solve on a grid")
    p.add_argument("--alpha", type=_finite, required=True)
    p.add_argument("--beta", type=_finite, required=True)
    _add_line_flags(p)

    p = sub.add_parser("solve-hyperbolic", help="half-plane wave solve at a point")
    p.add_argument("--profile", required=True, help="bump2:x0:x1:y0:y1")
    p.add_argument("--w", required=True, help="observation point X,Y (Y > 0)")
    p.add_argument("--t", required=True)
    p.add_argument("--ntheta", type=int, default=DEFAULT_N_THETA, help="angular quadrature nodes")
    _add_quad_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_solve_hyperbolic)

    p = sub.add_parser("verify", help="run named verification suites")
    p.add_argument("--suite", default="all", help="comma-separated suite names or 'all'")
    p.add_argument("--dx", type=_finite, default=None,
                   help="mesh override for the finite-difference suites")
    p.add_argument("--dt", type=_finite, default=None,
                   help="time-step override for the finite-difference suites")
    p.add_argument("--cfl", type=_finite, default=None,
                   help="stability-safety override for the finite-difference suites")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("limit-study", help="rescaled-kernel gap per scale factor")
    p.add_argument("--k", type=_finite, required=True)
    p.add_argument("--lambdas", default="0.5,0.1,0.01",
                   help="comma-separated decreasing scales")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_limit_study)

    p = sub.add_parser("convergence", help="raw vs substituted gap under panel doubling")
    p.add_argument("--k", type=_finite, required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--x-grid", required=True)
    p.add_argument("--max-panels", type=int, default=64)
    _add_quad_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_convergence)

    return parser


# flags whose values may legitimately begin with '-' (negative bounds);
# argparse would otherwise read the value as an unknown option
_VALUE_FLAGS = frozenset({
    "--k", "--t", "--x-grid", "--xp", "--coef-a", "--coef-b",
    "--alpha", "--beta", "--w", "--lambdas", "--profile",
})


def _merge_dash_values(argv: list[str]) -> list[str]:
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _VALUE_FLAGS and nxt is not None and nxt.startswith("-") and not nxt.startswith("--"):
            merged.append(f"{tok}={nxt}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_dash_values(list(sys.argv[1:] if argv is None else argv)))
        return args.func(args, started)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
