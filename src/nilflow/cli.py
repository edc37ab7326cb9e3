"""Command-line surface: validation, curvature, soliton fit, flows, sweep.

Exit codes: 0 success, 2 validation failure, 3 numerical failure, 4 I/O
failure.  All output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_ATOL, DEFAULT_RTOL, STRUCTURE_TOL, SWEEP_T_LONG
from .curvature import rc_metric, ric_orthonormal
from .dorfman import (closedness_residual, dorfman_jacobi_residual,
                      dorfman_total_skew_residual)
from .errors import NumericalError, ValidationError
from .flows import IntegratorControls, PhiSpec, integrate_gbf, integrate_grf, tmin_sweep
from .io import emit_phase_svg, emit_trajectory_csv, load_problem
from .lie import index_tuples, jacobi_residual, nilpotency_step
from .soliton import soliton_fit

__all__ = ["RunConfig", "main"]

_COMMANDS = ("check", "ricci", "soliton-fit", "bracket-flow", "grf", "tmin-sweep")


@dataclass(frozen=True)
class RunConfig:
    """Validated flag set for one CLI invocation."""

    command: str
    input_path: str | None = None
    out_csv: str | None = None
    out_svg: str | None = None
    svg_x: str | None = None
    svg_y: str | None = None
    phi: str = "ric"
    dorfman_json: bool = False
    t_start: float = 0.0
    t_end: float = 10.0
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    direction: str = "forward"
    tol: float = STRUCTURE_TOL
    a_values: tuple = ()
    t_long: float = SWEEP_T_LONG
    horizon: float = 10.0

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        for nm in ("rtol", "atol", "tol", "horizon", "t_long"):
            if not 0 < getattr(self, nm) < math.inf:
                raise ValidationError(f"--{nm.replace('_', '-')} must be finite and positive")
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValidationError("--t-start and --t-end must be finite")
        if self.command in ("bracket-flow", "grf") and not self.t_start < self.t_end:
            raise ValidationError("--t-start must be strictly less than --t-end")
        if self.direction not in ("forward", "backward"):
            raise ValidationError(f"unknown direction {self.direction!r}")
        if self.command == "tmin-sweep" and not self.a_values:
            raise ValidationError("tmin-sweep needs a nonempty --a-values list")
        if self.command != "tmin-sweep" and self.input_path is None:
            raise ValidationError(f"{self.command} needs --input")


def _fmt_mat(mat):
    return np.array2string(
        np.asarray(mat, dtype=float),
        formatter={"float_kind": lambda v: format(v, ".12g")})


def _fmt_num(v):
    return format(float(v), ".12g")


def _controls(cfg):
    return IntegratorControls(rtol=cfg.rtol, atol=cfg.atol)


def _cmd_check(cfg):
    p = load_problem(cfg.input_path)
    jr = jacobi_residual(p.mu)
    cr = closedness_residual(p.mu, p.H)
    dj = dorfman_jacobi_residual(p.mu, p.H)
    if cfg.dorfman_json:
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
    flags = []
    if jr > cfg.tol:
        flags.append("jacobi")
    if cr > cfg.tol:
        flags.append("closedness")
    print("status: ok" if not flags
          else f"status: residual above {cfg.tol:g} ({', '.join(flags)})")
    return 0


def _cmd_ricci(cfg):
    p = load_problem(cfg.input_path)
    print("ricci (orthonormal frame):")
    print(_fmt_mat(ric_orthonormal(p.mu)))
    print("ricci (problem metric):")
    print(_fmt_mat(rc_metric(p.mu, p.g)))
    return 0


def _cmd_soliton_fit(cfg):
    p = load_problem(cfg.input_path)
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


def _write_outputs(cfg, traj, default_x, default_y):
    if cfg.out_csv:
        emit_trajectory_csv(traj, cfg.out_csv)
        print(f"wrote trajectory CSV: {cfg.out_csv}")
    if cfg.out_svg:
        emit_phase_svg(traj, cfg.svg_x or default_x, cfg.svg_y or default_y,
                       cfg.out_svg)
        print(f"wrote phase SVG: {cfg.out_svg}")


def _dominant_label(traj):
    labels = traj.column_labels()
    row0 = traj.column_matrix()[0]
    if row0.size == 0:
        return "t"
    return labels[int(np.argmax(np.abs(row0)))]


def _cmd_bracket_flow(cfg):
    p = load_problem(cfg.input_path)
    traj = integrate_gbf(PhiSpec(cfg.phi), p.mu, p.H,
                         (cfg.t_start, cfg.t_end), _controls(cfg))
    print(f"bracket flow ({cfg.phi}) on {p.name}: "
          f"t {_fmt_num(cfg.t_start)} -> {_fmt_num(cfg.t_end)}")
    print(f"steps: accepted={traj.accepted} rejected={traj.rejected}")
    fin = traj.final
    print(f"final |mu|_inf: {_fmt_num(np.max(np.abs(fin.mu)))}")
    print(f"final |H|_inf: {_fmt_num(fin.H.norm_inf)}")
    _write_outputs(cfg, traj, "t", _dominant_label(traj))
    return 0


def _cmd_grf(cfg):
    p = load_problem(cfg.input_path)
    direction = 1 if cfg.direction == "forward" else -1
    traj = integrate_grf(p.mu, p.g, p.H, (cfg.t_start, cfg.t_end),
                         _controls(cfg), direction=direction)
    print(f"generalized ricci flow on {p.name}: "
          f"t {_fmt_num(cfg.t_start)} -> {_fmt_num(cfg.t_end)} ({cfg.direction})")
    print(f"steps: accepted={traj.accepted} rejected={traj.rejected}")
    print("final g:")
    print(_fmt_mat(traj.final.g.entries))
    print(f"final |H|_inf: {_fmt_num(traj.final.H.norm_inf)}")
    if p.dim >= 3:
        default_x, default_y = "g_1", "g_3"
    else:
        default_x, default_y = "t", "g_1"
    _write_outputs(cfg, traj, default_x, default_y)
    return 0


def _cmd_tmin_sweep(cfg):
    rows = tmin_sweep(cfg.a_values, t_long=cfg.t_long, horizon_back=cfg.horizon,
                      controls=_controls(cfg))
    print(f"{'a':>12} {'T_min':>14} {'g3(t_long)':>14} {'g1(t_long)':>14}  status")
    for r in rows:
        tmin = format(r.t_min, ".8f") if r.t_min is not None else "none"
        print(f"{r.a:>12.6f} {tmin:>14} {r.g3_limit:>14.8f} "
              f"{r.g1_long:>14.8f}  {r.status}")
    if cfg.out_csv:
        with open(cfg.out_csv, "w", newline="", encoding="utf-8") as fh:
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
        print(f"wrote sweep CSV: {cfg.out_csv}")
    return 0


_RUNNERS = {
    "check": _cmd_check,
    "ricci": _cmd_ricci,
    "soliton-fit": _cmd_soliton_fit,
    "bracket-flow": _cmd_bracket_flow,
    "grf": _cmd_grf,
    "tmin-sweep": _cmd_tmin_sweep,
}


def _add_input(sub):
    sub.add_argument("--input", required=True,
                     help="JSON problem file or builtin fixture name "
                          "(heisenberg3, heisenberg3+H(a), abelian(n))")


def _add_flow_flags(sub):
    sub.add_argument("--t-start", type=float, default=0.0)
    sub.add_argument("--t-end", type=float, default=10.0)
    sub.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
    sub.add_argument("--atol", type=float, default=DEFAULT_ATOL)
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

    s = subs.add_parser("check", help="validate a problem and report residuals")
    _add_input(s)
    s.add_argument("--tol", type=float, default=STRUCTURE_TOL,
                   help="reporting threshold for residual warnings")
    s.add_argument("--dorfman", action="store_true",
                   help="print Jacobi/closedness/skewness residuals as JSON")

    s = subs.add_parser("ricci", help="Ricci curvature in both frames")
    _add_input(s)

    s = subs.add_parser("soliton-fit",
                        help="best (lambda, D, omega) soliton fit and residuals")
    _add_input(s)

    s = subs.add_parser("bracket-flow", help="integrate the bracket flow")
    _add_input(s)
    s.add_argument("--phi", choices=[p.value for p in PhiSpec], default="ric")
    _add_flow_flags(s)

    s = subs.add_parser("grf", help="integrate the gauge-fixed generalized Ricci flow")
    _add_input(s)
    s.add_argument("--direction", choices=["forward", "backward"],
                   default="forward",
                   help="backward reverses the right-hand side in time")
    _add_flow_flags(s)

    s = subs.add_parser("tmin-sweep",
                        help="backward singular times over the Heisenberg family")
    s.add_argument("--a-values", required=True,
                   help="comma-separated list of family parameters")
    s.add_argument("--t-long", type=float, default=SWEEP_T_LONG)
    s.add_argument("--horizon", type=float, default=10.0,
                   help="backward search budget")
    s.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
    s.add_argument("--atol", type=float, default=DEFAULT_ATOL)
    s.add_argument("--out", help="sweep CSV path")
    return parser


def _config_from_args(args):
    kw = {"command": args.command}
    if hasattr(args, "input"):
        kw["input_path"] = args.input
    if hasattr(args, "tol"):
        kw["tol"] = args.tol
    if hasattr(args, "phi"):
        kw["phi"] = args.phi
    if hasattr(args, "dorfman"):
        kw["dorfman_json"] = args.dorfman
    if hasattr(args, "direction"):
        kw["direction"] = args.direction
    for name, key in (("t_start", "t_start"), ("t_end", "t_end"),
                      ("rtol", "rtol"), ("atol", "atol"), ("out", "out_csv"),
                      ("svg", "out_svg"), ("svg_x", "svg_x"), ("svg_y", "svg_y"),
                      ("t_long", "t_long"), ("horizon", "horizon")):
        if hasattr(args, name) and getattr(args, name) is not None:
            kw[key] = getattr(args, name)
    if hasattr(args, "a_values"):
        try:
            kw["a_values"] = tuple(float(x) for x in args.a_values.split(","))
        except ValueError:
            raise ValidationError(
                f"--a-values must be comma-separated numbers, got {args.a_values!r}"
            ) from None
    return RunConfig(**kw)


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        return _RUNNERS[cfg.command](cfg)
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
