"""Command-line surface: validation, curvature, soliton fit, flows, sweep.

Each subcommand's parser declares its flags, their defaults and the checks
that are the CLI's own; it binds its runner, which reads the parsed
namespace.  Values the library checks (integrator tolerances, finite times,
the sweep's horizons) are passed on and checked there.  `nilflow <command>
--help` lists each command's flags.

Exit codes: 0 success, 2 validation failure, 3 numerical failure, 4 I/O
failure.  All output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .config import (DEFAULT_ATOL, DEFAULT_RTOL, STRUCTURE_TOL, SWEEP_HORIZON_BACK,
                     SWEEP_T_LONG)
from .curvature import rc_metric, ric_orthonormal
from .dorfman import dorfman_jacobi_residual, dorfman_total_skew_residual
from .errors import NumericalError, ValidationError
from .flows import IntegratorControls, PhiSpec, integrate_gbf, integrate_grf, tmin_sweep
from .io import emit_phase_svg, emit_trajectory_csv, load_problem
from .lie import index_tuples, nilpotency_step, _structure_residuals, _structure_row
from .soliton import soliton_fit

__all__ = ["main"]


def _fmt_mat(mat):
    return np.array2string(
        np.asarray(mat, dtype=float),
        formatter={"float_kind": lambda v: format(v, ".12g")})


def _fmt_num(v):
    return format(float(v), ".12g")


def _controls(args):
    return IntegratorControls(rtol=args.rtol, atol=args.atol)


def _flow_span(args):
    """The flow commands' own checks, made before --input is read; returns (t_start, t_end)."""
    if not (math.isfinite(args.t_start) and math.isfinite(args.t_end)):
        raise ValidationError(f"--t-start and --t-end must be finite, got the time span "
                              f"({args.t_start}, {args.t_end})")
    if not args.t_start < args.t_end:
        raise ValidationError("--t-start must be strictly less than --t-end")
    for flag, value in (("--svg-x", args.svg_x), ("--svg-y", args.svg_y)):
        if value is not None and args.svg is None:
            raise ValidationError(f"{flag} needs --svg")
    return args.t_start, args.t_end


def _cmd_check(args):
    p = load_problem(args.input)
    # the structure gate's own residuals, so "status: ok" means every entry point accepts
    jr, cr = _structure_residuals(_structure_row(p.mu.coeffs, p.H.coeffs), p.dim)
    dj = dorfman_jacobi_residual(p.mu, p.H)
    if args.dorfman:
        print(json.dumps({
            "problem": p.name,
            "dim": p.dim,
            "jacobi": jr,
            "closedness": cr,
            "skewness": dorfman_total_skew_residual(p.mu, p.H),
            "dorfman_jacobi": dj,
        }, indent=2))
        return 0
    step = nilpotency_step(p.mu)
    print(f"problem: {p.name} (dim {p.dim})")
    print(f"jacobi residual: {_fmt_num(jr)}")
    print(f"nilpotency step: {step if step is not None else 'none (not nilpotent)'}")
    print(f"closedness |d_mu H|: {_fmt_num(cr)}")
    print(f"dorfman jacobi residual: {_fmt_num(dj)}")
    print(f"metric determinant: {_fmt_num(p.g.det)}")
    flags = [name for name, r in (("jacobi", jr), ("closedness", cr)) if r > STRUCTURE_TOL]
    print("status: ok" if not flags
          else f"status: residual above {STRUCTURE_TOL:g} ({', '.join(flags)})")
    return 0


def _cmd_ricci(args):
    p = load_problem(args.input)
    print("ricci (orthonormal frame):")
    print(_fmt_mat(ric_orthonormal(p.mu)))
    print("ricci (problem metric):")
    print(_fmt_mat(rc_metric(p.mu, p.g)))
    return 0


def _cmd_soliton_fit(args):
    p = load_problem(args.input)
    sol = soliton_fit(p.mu, p.g, p.H, p.theta)
    omega_entries = [[i + 1, j + 1, float(c)]
                     for (i, j), c in zip(index_tuples(p.dim, 2),
                                          sol.omega.coeffs)]
    print(json.dumps({
        "lambda": float(sol.lam),
        "D": np.asarray(sol.D, dtype=float).tolist(),
        "omega": omega_entries,
        "sym_residual": float(sol.sym_residual),
        "skew_residual": float(sol.skew_residual),
        "residual_norm": float(sol.residual_norm),
    }, indent=2))
    return 0


def _write_outputs(args, traj, default_x, default_y):
    if args.out:
        emit_trajectory_csv(traj, args.out)
        print(f"wrote trajectory CSV: {args.out}")
    if args.svg:
        emit_phase_svg(traj, args.svg_x or default_x, args.svg_y or default_y,
                       args.svg)
        print(f"wrote phase SVG: {args.svg}")


def _dominant_label(traj):
    labels = traj.column_labels()
    row0 = traj.rows[0]
    if row0.size == 0:
        return "t"
    return labels[int(np.argmax(np.abs(row0)))]


def _cmd_bracket_flow(args):
    span = _flow_span(args)
    controls = _controls(args)
    p = load_problem(args.input)
    traj = integrate_gbf(PhiSpec(args.phi), p.mu, p.H, span, controls)
    print(f"bracket flow ({args.phi}) on {p.name}: "
          f"t {_fmt_num(args.t_start)} -> {_fmt_num(args.t_end)}")
    print(f"steps: accepted={traj.accepted} rejected={traj.rejected}")
    fin = traj.final
    print(f"final |mu|_inf: {_fmt_num(np.max(np.abs(fin.mu)))}")
    print(f"final |H|_inf: {_fmt_num(fin.H.norm_inf)}")
    _write_outputs(args, traj, "t", _dominant_label(traj))
    return 0


def _cmd_grf(args):
    span = _flow_span(args)
    controls = _controls(args)
    p = load_problem(args.input)
    direction = 1 if args.direction == "forward" else -1
    traj = integrate_grf(p.mu, p.g, p.H, span, controls, direction=direction)
    print(f"generalized ricci flow on {p.name}: "
          f"t {_fmt_num(args.t_start)} -> {_fmt_num(args.t_end)} ({args.direction})")
    print(f"steps: accepted={traj.accepted} rejected={traj.rejected}")
    print("final g:")
    print(_fmt_mat(traj.final.g.entries))
    print(f"final |H|_inf: {_fmt_num(traj.final.H.norm_inf)}")
    if p.dim >= 3:
        default_x, default_y = "g_1", "g_3"
    else:
        default_x, default_y = "t", "g_1"
    _write_outputs(args, traj, default_x, default_y)
    return 0


def _cmd_tmin_sweep(args):
    rows = tmin_sweep(args.a_values, t_long=args.t_long, horizon_back=args.horizon,
                      controls=_controls(args))
    print(f"{'a':>12} {'T_min':>14} {'g3(t_long)':>14} {'g1(t_long)':>14}  status")
    for r in rows:
        tmin = format(r.t_min, ".8f") if r.t_min is not None else "none"
        print(f"{r.a:>12.6f} {tmin:>14} {r.g3_limit:>14.8f} "
              f"{r.g1_long:>14.8f}  {r.status}")
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "t_min", "g3_limit", "g1_long", "status"])
            for r in rows:
                writer.writerow([
                    format(r.a, ".17g"),
                    format(r.t_min, ".17g") if r.t_min is not None else "",
                    format(r.g3_limit, ".17g"),
                    format(r.g1_long, ".17g"),
                    r.status,
                ])
        print(f"wrote sweep CSV: {args.out}")
    return 0


def _numbers(text):
    """argparse type of --a-values: comma-separated numbers."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers, got {text!r}") from None


def _command(subs, name, run, summary):
    sub = subs.add_parser(name, help=summary, description=summary)
    sub.set_defaults(run=run)
    return sub


def _add_input(sub):
    sub.add_argument("--input", required=True,
                     help="JSON problem file or builtin fixture name "
                          "(heisenberg3, heisenberg3+H(a), abelian(n))")


def _add_controls(sub):
    sub.add_argument("--rtol", type=float, default=DEFAULT_RTOL,
                     help="adaptive step relative tolerance (default %(default)g)")
    sub.add_argument("--atol", type=float, default=DEFAULT_ATOL,
                     help="adaptive step absolute tolerance (default %(default)g)")


def _add_flow_flags(sub):
    sub.add_argument("--t-start", type=float, default=0.0,
                     help="start time (default %(default)g)")
    sub.add_argument("--t-end", type=float, default=10.0,
                     help="end time, strictly after --t-start (default %(default)g)")
    _add_controls(sub)
    sub.add_argument("--out", help="trajectory CSV path")
    sub.add_argument("--svg", help="phase plot SVG path")
    sub.add_argument("--svg-x", help="x column for --svg (default depends on flow)")
    sub.add_argument("--svg-y", help="y column for --svg (default depends on flow)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nilflow",
        description="Curvature, solitons, and geometric flows for "
                    "left-invariant data on nilpotent Lie groups.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = _command(subs, "check", _cmd_check, "validate a problem and report residuals")
    _add_input(s)
    s.add_argument("--dorfman", action="store_true",
                   help="print Jacobi/closedness/skewness residuals as JSON")

    s = _command(subs, "ricci", _cmd_ricci, "Ricci curvature in both frames")
    _add_input(s)

    s = _command(subs, "soliton-fit", _cmd_soliton_fit,
                 "best (lambda, D, omega) soliton fit and residuals")
    _add_input(s)

    s = _command(subs, "bracket-flow", _cmd_bracket_flow, "integrate the bracket flow")
    _add_input(s)
    s.add_argument("--phi", choices=[p.value for p in PhiSpec], default="ric",
                   help="bracket flow variant (default %(default)s)")
    _add_flow_flags(s)

    s = _command(subs, "grf", _cmd_grf, "integrate the gauge-fixed generalized Ricci flow")
    _add_input(s)
    s.add_argument("--direction", choices=["forward", "backward"], default="forward",
                   help="backward integrates the time-reversed flow: the row at "
                        "clock time s is the state at signed time "
                        "t_start - (s - t_start) (default %(default)s)")
    _add_flow_flags(s)

    s = _command(subs, "tmin-sweep", _cmd_tmin_sweep,
                 "backward singular times over the Heisenberg family")
    s.add_argument("--a-values", type=_numbers, required=True,
                   help="comma-separated list of family parameters")
    s.add_argument("--t-long", type=float, default=SWEEP_T_LONG,
                   help="forward horizon of the asymptotics (default %(default)g)")
    s.add_argument("--horizon", type=float, default=SWEEP_HORIZON_BACK,
                   help="backward search budget (default %(default)g)")
    _add_controls(s)
    s.add_argument("--out", help="sweep CSV path")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
