"""In-memory spans around nilflow's public functions, and self-time arithmetic.

``install(tracer)`` replaces each traced function at every binding its
callers look up: the attribute of every loaded ``nilflow`` module that holds
the function (so ``nilflow.flows.hodge_laplacian`` and
``nilflow.hodge.ce_differential`` are both wrapped), and for the classes
``KForm`` and ``Metric`` their ``__init__`` and ``unpack`` on the class.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.

A span is (name, start, end, parent span, operation id).  The program is
single-threaded, so spans nest and a span's self time is its duration minus
the part of it that its children cover.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Traced public functions, by the module that defines them.
FUNCTIONS = {
    "lie": ("ce_differential", "compound_matrix", "gl_action", "jacobi_residual",
            "nilpotency_step"),
    "hodge": ("hodge_laplacian", "codifferential", "hodge_star"),
    "curvature": ("rc_metric", "ric_orthonormal", "h_circ_h", "generalized_ricci_plus"),
    "soliton": ("soliton_fit", "symmetric_derivations"),
    "dorfman": ("dorfman_jacobi_residual", "dorfman_total_skew_residual", "dorfman_eval"),
    "io": ("problem_from_dict", "emit_trajectory_csv", "read_trajectory_csv"),
}
# Class members: (module, class, attribute, span name).
METHODS = (
    ("lie", "KForm", "__init__", "lie.KForm"),
    ("lie", "KForm", "unpack", "lie.KForm.unpack"),
    ("hodge", "Metric", "__init__", "hodge.Metric"),
)
# The drivers; their self time is controller and stepping overhead.
DRIVERS = ("integrate_grf", "integrate_gbf", "blowup_time")
# A call from nilflow.flows into one of these is one right-hand-side evaluation
# (rc_metric for the generalized Ricci flow, ric_orthonormal for the bracket flow).
RHS_CALLEES = ("rc_metric", "ric_orthonormal")

OP_SPAN = "op"


# Per-layer report order: every span the wrappers record, drivers excluded.
LAYER_SPANS = (
    "lie.ce_differential", "lie.compound_matrix", "lie.gl_action", "lie.jacobi_residual",
    "lie.nilpotency_step", "lie.KForm", "lie.KForm.unpack",
    "hodge.hodge_laplacian", "hodge.codifferential", "hodge.hodge_star", "hodge.Metric",
    "curvature.rc_metric", "curvature.ric_orthonormal", "curvature.h_circ_h",
    "curvature.generalized_ricci_plus",
    "soliton.soliton_fit", "soliton.symmetric_derivations",
    "dorfman.dorfman_jacobi_residual", "dorfman.dorfman_total_skew_residual",
    "dorfman.dorfman_eval",
    "io.problem_from_dict", "io.emit_trajectory_csv", "io.read_trajectory_csv",
)


class Tracer:
    """Spans in parallel typed arrays, a stack of open spans, and named counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id, self.parent, self.op = array("q"), array("q"), array("q")
        self.start, self.end = array("d"), array("d")
        self.stack = [-1]
        self.op_id = -1
        self.op_tag = ""
        self.counters = Counter()
        self.driver_log = []  # one dict per driver call: counts for the cross-check

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name):
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self.start.append(perf_counter())
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def run_op(self, fn, tag=""):
        """Call fn() inside a root span that starts a new operation id."""
        self.op_id += 1
        self.op_tag = tag
        idx = self.open(OP_SPAN)
        try:
            return fn()
        finally:
            self.close(idx)

    def arrays(self):
        return (np.array(self.start), np.array(self.end),
                np.array(self.parent), np.array(self.name_id))

    def summary(self):
        """{span name: (calls, total self seconds)}, and the share of operation
        time that no traced function covers (benchmark glue and untraced code)."""
        selfs = self_times(self.start, self.end, self.parent)
        start, end, _, name_id = self.arrays()
        calls = np.bincount(name_id, minlength=len(self.names))
        total = np.bincount(name_id, weights=selfs, minlength=len(self.names))
        is_op = name_id == self._ids[OP_SPAN]
        unattributed = float(np.sum(selfs[is_op]) / np.sum((end - start)[is_op]))
        return {n: (int(calls[i]), float(total[i])) for i, n in enumerate(self.names)}, unattributed

    def dump(self, path):
        """Write the spans and their name table to one compressed .npz file."""
        start, end, parent, name_id = self.arrays()
        np.savez_compressed(path, start=start, end=end, parent=parent, name_id=name_id,
                            op=np.array(self.op),
                            names=np.array(json.dumps(self.names)))


def self_times(start, end, parent):
    """Duration of each span minus the union of its children's intervals.

    Children of one parent must appear in order of start time (true for spans
    recorded as they open).  Child intervals are clipped to the parent.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    frontier = array("d", [-math.inf]) * n  # end of the union of children seen so far
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], start[p], frontier[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        frontier[p] = max(frontier[p], end[i])
    return np.asarray(end, dtype=float) - np.asarray(start, dtype=float) - np.asarray(covered)


def _wrap(fn, name, tracer, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, kwargs, out)
        return out
    return traced


def _counting(fn, tracer, key):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counters[key] += 1
        return fn(*args, **kwargs)
    return counted


def _driver(fn, name, tracer):
    """Span around a flows driver that also logs its RHS and step counts."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = tracer.counters["flows.rhs_evals"]
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        rec = {"call": name, "op": tracer.op_tag,
               "rhs_evals": tracer.counters["flows.rhs_evals"] - before}
        if hasattr(out, "accepted"):  # a Trajectory; BlowupReport has no counts
            rec.update(accepted=out.accepted, rejected=out.rejected)
            tracer.counters["flows.steps_accepted"] += out.accepted
            tracer.counters["flows.steps_rejected"] += out.rejected
        else:
            rec.update(reason=out.reason, time=out.time)
        tracer.driver_log.append(rec)
        return out
    return traced


def _bytes_written(tracer):
    def after(args, kwargs, out):
        path = kwargs["path"] if "path" in kwargs else args[1]
        tracer.counters["io.bytes_written"] += os.path.getsize(path)
    return after


def install(tracer):
    """Wrap every traced binding; returns what ``uninstall`` needs to undo it."""
    import nilflow

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "nilflow" or name.startswith("nilflow."))]
    saved = []

    def replace(orig, wrapper_at):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    saved.append((mod, attr, val))
                    setattr(mod, attr, wrapper_at(mod.__name__))

    for mod_name, fns in FUNCTIONS.items():
        home = getattr(nilflow, mod_name)
        for fn_name in fns:
            orig = getattr(home, fn_name)
            after = _bytes_written(tracer) if fn_name == "emit_trajectory_csv" else None
            span = _wrap(orig, f"{mod_name}.{fn_name}", tracer, after)
            if fn_name in RHS_CALLEES:
                counted = _counting(span, tracer, "flows.rhs_evals")
                replace(orig, lambda where, s=span, c=counted:
                        c if where == "nilflow.flows" else s)
            else:
                replace(orig, lambda where, s=span: s)

    for fn_name in DRIVERS:
        orig = getattr(nilflow.flows, fn_name)
        driver = _driver(orig, f"flows.{fn_name}", tracer)
        replace(orig, lambda where, d=driver: d)

    for mod_name, cls_name, attr, span_name in METHODS:
        cls = getattr(getattr(nilflow, mod_name), cls_name)
        orig = cls.__dict__[attr]
        saved.append((cls, attr, orig))
        setattr(cls, attr, _wrap(orig, span_name, tracer))
    return saved


def uninstall(saved):
    for owner, attr, orig in reversed(saved):
        setattr(owner, attr, orig)
