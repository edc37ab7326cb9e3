"""Microseconds per call of the flow kernels, best of k, for n = 3..12.

    python tools/kernel_timing.py [--repeat K] [--number N]

Imports nilflow from this checkout's ``src`` and times one call of each of:

  - ``grf``: the generalized Ricci flow's right-hand side (``flows._grf_kernel``);
  - ``grf step``: one fixed-step RK4 step of the same flow, four kernel calls
    and the domain test, as the mean step of a 12-step run through ``flows._integrate``
    (the run nil7-forward makes twice a pass);
  - ``gbf``: the ``ric-h2`` bracket flow's right-hand side (``flows._gbf_kernel``);
  - ``gates``: the Jacobi and closedness residuals of one bracket-flow state,
    the structure gate every entry point shares (``lie._structure_residuals``,
    one pass over ``lie._gate_table``);
  - ``dp trial``: one adaptive Dormand-Prince trial (``flows._dp_step``) with
    the identity as right-hand side, on a state as wide as the bracket's GRF
    row, so the step controller's own cost reads apart from the kernels';

and, in a second table, one call of each Dorfman residual of the bracket and
the same H, on the doubled space of dimension 2n: ``dorfman_jacobi_residual``
and ``dorfman_total_skew_residual``.

The brackets are the Heisenberg algebras of dimension 3, 5, 7, 9 and 11
([e1, e2] = e3; [e1, e2] = [e3, e4] = e5; and so on) and the standard
filiform algebras [e1, ej] = e(j+1) of dimension 4 to 12.  Past the largest
dimension a problem may have (MAX_PROBLEM_DIM = 10), at n = 11 and 12, only
the ``grf`` column is timed, on the raw kernel: the other columns and the
second table stop at 10.  The ``grf`` state is g = I + 0.1 (every entry)
with every packed coefficient of H equal to 1.  A run starts only from a
closed H, so the ``grf step`` run starts from the same g and H = d(b), b the
2-form whose packed coefficients are all 1, with steps of 0.001.  The
bracket-flow state is the bracket's own packed row with H = 1.  Closedness
plays no part in a kernel's cost.  Each number is the least of K repeats of
N calls, divided by N.  BLAS is pinned to one thread, as in
``bench/run.py``.  The numbers are for reading, not for gating: they move
with the host.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import timeit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LARGEST = 12  # ROADMAP item 13 sizes the kernels up to here
NIL7_STEPS, STEP = 12, 0.001  # steps per timed run, as bench/workloads.py's NIL7_STEPS


def identity(y):
    """The right-hand side dy/dt = y: a Dormand-Prince trial on it costs the controller alone."""
    return y


def brackets(LieBracket, largest):
    """(name, LieBracket) for heis3, filiform4, heis5, filiform5, ..., up to dimension largest."""
    out = []
    for n in range(3, largest + 1):
        if n % 2:
            pairs = [(2 * i + 1, 2 * i + 2, n, 1.0) for i in range(n // 2)]
            out.append((f"heis{n}", LieBracket.from_entries(n, pairs)))
        if n >= 4:
            chain = [(1, j, j + 1, 1.0) for j in range(2, n)]
            out.append((f"filiform{n}", LieBracket.from_entries(n, chain)))
    return out


def per_call_us(fn, repeat, number):
    fn()  # builds what a kernel caches on first use
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5, help="repeats; the least is kept")
    ap.add_argument("--number", type=int, default=2000, help="calls per repeat")
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads BLAS
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    from nilflow import (IntegratorControls, KForm, LieBracket, ce_differential,
                         dorfman_jacobi_residual, dorfman_total_skew_residual, flows, lie)
    from nilflow.config import MAX_PROBLEM_DIM

    step_runs = IntegratorControls(fixed_step=STEP)
    adaptive = IntegratorControls()
    print(f"{'bracket':<10} {'n':>2} {'grf us':>9} {'grf step us':>12} {'gbf us':>9} "
          f"{'gates us':>9} {'dp trial us':>12}")
    for name, mu in brackets(LieBracket, LARGEST):
        m, n = mu.coeffs, mu.dim
        h = np.ones(math.comb(n, 3))
        grf, y_grf = flows._grf_kernel(m), flows._grf_row(np.eye(n) + 0.1, h)
        times = [per_call_us(lambda: grf(y_grf), args.repeat, args.number)]
        if n <= MAX_PROBLEM_DIM:
            closed = ce_differential(KForm(n, 2, np.ones(math.comb(n, 2))), mu)
            _, y_run, f, in_domain = flows._grf_setup(mu, np.eye(n) + 0.1, closed, 1)
            gbf = flows._gbf_kernel(flows.PhiSpec.RIC_MINUS_QUARTER_HSQ, n)
            y_gbf = lie._structure_row(m, h)
            times += [per_call_us(fn, args.repeat, args.number) for fn in (
                lambda: flows._integrate(f, 0.0, y_run, NIL7_STEPS * STEP, step_runs, in_domain),
                lambda: gbf(y_gbf), lambda: lie._structure_residuals(y_gbf, n),
                lambda: flows._dp_step(identity, y_run, STEP, y_run, adaptive))]
            times[1] /= NIL7_STEPS
        cells = [f"{t:9.1f}" for t in times] + ["-".rjust(9)] * (5 - len(times))
        print(f"{name:<10} {n:>2} {cells[0]} {cells[1]:>12} {cells[2]} {cells[3]} {cells[4]:>12}")
    print(f"\n{'bracket':<10} {'n':>2} {'dorfman jacobi us':>18} {'dorfman skew us':>16}")
    for name, mu in brackets(LieBracket, MAX_PROBLEM_DIM):
        h = KForm(mu.dim, 3, np.ones(math.comb(mu.dim, 3)))
        times = [per_call_us(lambda: fn(mu, h), args.repeat, args.number)
                 for fn in (dorfman_jacobi_residual, dorfman_total_skew_residual)]
        print(f"{name:<10} {mu.dim:>2} {times[0]:18.1f} {times[1]:16.1f}")


if __name__ == "__main__":
    main()
