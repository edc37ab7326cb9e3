"""nilflow benchmark: four seeded workloads timed through the public API.

Run from the repository root:

    python3 bench/run.py --workload heis3-forward --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, in turn

BENCHMARK.json lists heis3-forward, nil7-forward and survey, which between
them reach every layer.  heis3-tmin runs the same way but is left out of it:
its three searches take 2 to 6 s each, too long for the calibration kernel
run between operations to follow the host's speed, and its run-to-run spread
stayed near the 0.25 bound at any run length the time budget allows.

Each workload runs in one process with OpenBLAS pinned to one thread.  The
run sets up (import, input generation, warm-up; timed in this process and in
SETUP_SAMPLES - 1 fresh child processes, median reported), then runs whole
passes of the workload's operations until ``--seconds`` have passed and at
least MIN_PASSES passes are done, checking each result right after its timed
call against an independent reference (checks.py).

End-to-end metrics (``--trace 0``):
  setup_s          median set-up time
  wall_s, cpu_s    one pass of the operation set: the sum over the pass's
                   slots of each slot's median wall / CPU time
  op_p50_ms        median latency of one operation
  accuracy_digits  -log10 of the worst relative error against the references,
                   over the first MIN_PASSES passes
  peak_rss_mb      peak resident memory of the process (it includes the
                   reference code of the checks, loaded before the timing)
The four times are scaled to a reference host speed measured by a fixed
calibration kernel run between operations (calibrate.py), because the host's
own speed drifts by tens of percent between runs; the raw times are printed
with them.  Failures are the ``failed`` count of the result line (fail_frac =
failed / attempted).  op_p90_ms is printed, with its sample count, when a run
has at least 100 operations.

Per-layer metrics (``--trace 1``): after the untraced passes, the same passes
run again with spans around nilflow's public functions (spans.py).  Counts
and self times are per pass.  ``trace.overhead_frac`` compares the two runs.

Which end-to-end metric each layer metric should move:
  lie.gl_action, curvature.h_circ_h, hodge.Metric, lie.KForm,
  flows.controller_self_s           -> wall_s on heis3-forward and heis3-tmin
  hodge.hodge_laplacian, hodge.hodge_star, lie.compound_matrix,
  lie.ce_differential               -> wall_s on nil7-forward (less at n = 3)
  flows.rhs_evals, flows.accept_ratio -> wall_s on heis3-forward and heis3-tmin,
                                       with accuracy_digits held
  dorfman.*, soliton.*, curvature.generalized_ricci_plus,
  io.problem_from_dict              -> op_p50_ms and wall_s on survey; caching
                                       operators shows as setup_s / peak_rss_mb

The last line of standard output is the JSON result; a fuller record, with
the environment, every operation and the per-call RHS and step counts, goes
to .bench_out/.
"""

from __future__ import annotations

import os

# Pin BLAS before anything imports numpy: the numbers measure the program,
# not the thread scheduler.
BLAS_PIN = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_PIN

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("heis3-forward", "heis3-tmin", "nil7-forward", "survey")
SETUP_SAMPLES = 3
KERNEL_SAMPLES = 5  # least calibration kernel runs per pass, and runs per set-up
# Every slot gets at least this many samples, so its median is a median; this
# binds only where a pass is longer than a third of --seconds (heis3-tmin).
MIN_PASSES = 3
P90_MIN_OPS = 100
EPS = 2.220446049250313e-16  # accuracy_digits is capped at -log10(machine epsilon)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(name, seed):
    """Import the program, build the first pass's inputs, warm up.

    Returns (raw seconds, seconds at reference host speed, workload).
    """
    t0 = time.perf_counter()
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    import nilflow  # noqa: F401
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    os.makedirs(os.path.join(OUT, "csv"), exist_ok=True)
    # Generating the first pass counts as set-up; later passes generate their
    # inputs between operations, outside the timed calls.
    wl.make_pass(seed, 0, os.path.join(OUT, "csv"))
    wl.warm_up(seed, os.path.join(OUT, "csv"))
    raw = time.perf_counter() - t0
    import calibrate
    scale = calibrate.speed([calibrate.sample() for _ in range(KERNEL_SAMPLES)])[0]
    return raw, raw * scale, wl


def child_setup_seconds(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(out.stdout.strip().splitlines()[-1])
    return got["raw_setup_s"], got["setup_s"]


def _verdict(op, result, error):
    if error is not None:
        return {"ok": False, "rel_err": None, "note": error}
    try:
        v = op.check(result)
    except Exception as exc:  # a broken result can break its check; count it
        return {"ok": False, "rel_err": None, "note": f"check raised {exc!r}"}
    return {"ok": v.ok, "rel_err": v.rel_err, "note": v.note}


def run_passes(wl, seed, n_passes=None, seconds=None, tracer=None):
    """Closed loop over whole passes; returns one record per operation.

    Calibration kernels run between the operations of each pass, outside the
    timed calls, and scale that pass's times to the reference host speed.
    Without a tracer each result is checked right after its call, outside the
    timing, and dropped, so memory does not grow with the number of passes.
    """
    import calibrate
    outdir = os.path.join(OUT, "csv")
    records = []
    t_start = time.perf_counter()
    p = 0
    while (p < n_passes) if n_passes is not None else (
            p < MIN_PASSES or time.perf_counter() - t_start < seconds):
        ops = wl.make_pass(seed, p, outdir)
        k = max(KERNEL_SAMPLES, len(ops))  # one kernel before each operation, at least K a pass
        kernel_before = Counter(i * len(ops) // k for i in range(k))
        kernels, in_pass = [], []
        for i, op in enumerate(ops):
            kernels += [calibrate.sample() for _ in range(kernel_before[i])]
            call = op.run if tracer is None else (
                lambda op=op: tracer.run_op(op.run, f"pass {p} {op.slot}"))
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                result, error = call(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            w1, c1 = time.perf_counter(), time.process_time()
            rec = {"pass": p, "slot": op.slot, "raw_wall": w1 - w0, "raw_cpu": c1 - c0}
            if tracer is None:
                rec.update(_verdict(op, result, error))
            in_pass.append(rec)
        wall_scale, cpu_scale = calibrate.speed(kernels)
        for rec in in_pass:
            rec.update(wall=rec["raw_wall"] * wall_scale, cpu=rec["raw_cpu"] * cpu_scale,
                       host_speed=wall_scale)
        records += in_pass
        p += 1
    return records


def pass_time(records, key):
    slots = {}
    for r in records:
        slots.setdefault(r["slot"], []).append(r[key])
    return sum(statistics.median(v) for v in slots.values())


def end_to_end(records, setup_samples, rss_mb, raw=False):
    """The end-to-end metrics; raw=True gives the times before host-speed scaling."""
    wall, cpu, setup = ("raw_wall", "raw_cpu", 0) if raw else ("wall", "cpu", 1)
    # Over a fixed number of passes, so a faster program (more passes, more
    # problems) does not lower the worst case by sampling more of them.
    errs = [r["rel_err"] for r in records if r["rel_err"] is not None and r["pass"] < MIN_PASSES]
    worst = max((e if math.isfinite(e) else 1.0 for e in errs), default=1.0)
    return {
        "setup_s": (statistics.median(s[setup] for s in setup_samples), "s"),
        "wall_s": (pass_time(records, wall), "s"),
        "cpu_s": (pass_time(records, cpu), "s"),
        "op_p50_ms": (1e3 * statistics.median(r[wall] for r in records), "ms"),
        "accuracy_digits": (-math.log10(min(max(worst, EPS), 1.0)), "digits"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, n_passes, traced_wall, untraced_wall):
    from spans import DRIVERS, LAYER_SPANS
    summary, unattributed = tracer.summary()
    out = {}
    for name in LAYER_SPANS:
        calls, self_s = summary.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls / n_passes, "count")
        out[f"{name}.self_s"] = (self_s / n_passes, "s")
    c = tracer.counters
    acc, rej = c["flows.steps_accepted"], c["flows.steps_rejected"]
    out["flows.rhs_evals"] = (c["flows.rhs_evals"] / n_passes, "count")
    out["flows.steps_accepted"] = (acc / n_passes, "count")
    out["flows.steps_rejected"] = (rej / n_passes, "count")
    out["flows.accept_ratio"] = (acc / (acc + rej) if acc + rej else 0.0, "ratio")
    out["flows.controller_self_s"] = (
        sum(summary.get(f"flows.{d}", (0, 0.0))[1] for d in DRIVERS) / n_passes, "s")
    out["io.bytes_written"] = (c["io.bytes_written"] / n_passes, "bytes")
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    out["trace.unattributed_frac"] = (unattributed, "ratio")
    return out


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "blas_pin": {v: os.environ[v] for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": _blas_threads(), "machine": platform.machine(),
    }


def _blas_threads():
    """Threads OpenBLAS actually uses, read from numpy's bundled library."""
    import ctypes
    import glob
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_workload(args):
    samples = [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
    raw, scaled, wl = setup(args.workload, args.seed)
    samples.append((raw, scaled))
    import checks
    checks.load_references()

    records = run_passes(wl, args.seed, seconds=args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n_passes = records[-1]["pass"] + 1

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        saved = spans.install(tracer)
        try:
            traced = run_passes(wl, args.seed, n_passes=n_passes, tracer=tracer)
        finally:
            spans.uninstall(saved)

    failed = sum(not r["ok"] for r in records)
    if args.trace:
        metrics = per_layer(tracer, n_passes, sum(r["wall"] for r in traced),
                            sum(r["wall"] for r in records))
    else:
        metrics = end_to_end(records, samples, rss_mb)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    walls = sorted(r["wall"] for r in records)
    lines = [f"workload {args.workload}  seed {args.seed}  passes {n_passes}  "
             f"operations {len(records)}  failed {failed}  fail_frac {failed / len(records):.4g}"]
    if len(walls) >= P90_MIN_OPS:
        p90 = statistics.quantiles(walls, n=10)[8]
        lines.append(f"op_p90_ms {1e3 * p90:.6g} ms  (n={len(walls)})")
    lines += [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    if not args.trace:
        raw_metrics = end_to_end(records, samples, rss_mb, raw=True)
        lines += [f"raw {k} {raw_metrics[k][0]:.6g} {raw_metrics[k][1]} (before host-speed scaling)"
                  for k in ("setup_s", "wall_s", "cpu_s", "op_p50_ms")]
        lines.append(f"host_speed {statistics.median(r['host_speed'] for r in records):.4g} "
                     f"(reference kernel time / measured)")
    lines += [f"FAILED {r['slot']} pass {r['pass']}: {r['note']}" for r in records if not r["ok"]]
    lines += [f"note {r['slot']}: {r['note']}" for r in records
              if r["ok"] and r["note"] and r["pass"] == 0]
    if tracer is not None:
        lines += [f"counts {rec}" for rec in tracer.driver_log if rec["op"].startswith("pass 0 ")]
        tracer.dump(os.path.join(OUT, f"spans-{tag}.npz"))
    print("\n".join(lines))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "setup_samples_s": [{"raw": a, "scaled": b} for a, b in samples],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "operations": records,
              "driver_calls": tracer.driver_log if tracer is not None else []}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": record["metrics"]}))


def run_all(args):
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd).returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nilflow", "__init__.py")):
        print(f"bench: no nilflow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        raw, scaled, _ = setup(args.workload, args.seed)
        print(json.dumps({"raw_setup_s": raw, "setup_s": scaled}))
        return 0
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
