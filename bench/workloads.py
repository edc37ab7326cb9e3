"""The four workloads: their inputs, warm-up, operations and reference checks.

Every workload is a closed loop with one caller: the benchmark runs whole
passes of a fixed operation set, each operation starting when the previous
one returns.  ``make_pass(seed, p)`` builds pass p from the seed alone, so a
seed fixes the inputs of every pass however many passes a run completes.
An operation's ``slot`` names its place in the pass (the same slot holds the
same kind of work in every pass); the reported pass time sums the median
latency of each slot.

Operations call nilflow through attribute lookups on the package at call
time (``nf.integrate_grf``), so the traced run sees them through its wrappers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import nilflow as nf

import checks
import problems

HEIS3_A = (0.0, 0.5, 1.0, 2.0, 4.0)
TMIN_A = (0.0, 1.0, 4.0)     # a = 4 is the case reported as "step-underflow"
FORWARD_T = 50.0
TMIN_HORIZON = 1.0
# nil7-forward takes fixed RK4 steps: the same amount of work for every seed,
# and a basis change commutes with each step, so equivariance holds to
# round-off.  Each integration takes a few seconds at the seed commit.
NIL7_T, NIL7_STEPS = 0.12, 12
# Dimensions of one survey pass, run once in the sparse and once in a random basis.
# Mostly small problems, so a run has the 100 operations a 90th percentile
# needs; the median operation falls inside the n = 4 group, not at an edge.
SURVEY_DIMS = (3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 6, 7)


@dataclass
class Op:
    slot: str
    run: Callable[[], Any]
    check: Callable[[Any], checks.Verdict]


def _rng(seed, *tags):
    return np.random.default_rng([seed % 2 ** 63, *tags])


def _heis3():
    return problems.bracket_from_rows(3, problems.heisenberg_rows(3))


# ---------------------------------------------------------------------------
# heis3-forward

def _forward_op(a, outdir, t_end=FORWARD_T):
    mu = _heis3()
    flux = np.array([a])
    paths = [os.path.join(outdir, f"heis3-a{a:g}-{kind}.csv") for kind in ("grf", "gbf")]

    def run():
        grf = nf.integrate_grf(mu, np.eye(3), flux, t_span=(0.0, t_end))
        nf.emit_trajectory_csv(grf, paths[0])
        grf_back = nf.read_trajectory_csv(paths[0])
        gbf = nf.integrate_gbf("ric-h2", mu, flux, (0.0, t_end))
        nf.emit_trajectory_csv(gbf, paths[1])
        gbf_back = nf.read_trajectory_csv(paths[1])
        return grf, grf_back, gbf, gbf_back

    def check(out):
        grf, grf_back, gbf, gbf_back = out
        return checks.combine(
            checks.check_grf_heisenberg(a, grf), checks.check_roundtrip(grf, grf_back),
            checks.check_gbf_heisenberg(a, gbf, nf.gbf_decay_bound_check(gbf, a)),
            checks.check_roundtrip(gbf, gbf_back))

    return Op(f"a={a:g}", run, check)


# ---------------------------------------------------------------------------
# heis3-tmin

def _tmin_op(a):
    mu = _heis3()
    flux = np.array([a])

    def run():
        return nf.blowup_time(mu, np.eye(3), flux, direction=-1, horizon=TMIN_HORIZON)

    return Op(f"a={a:g}", run, lambda rep: checks.check_tmin(a, rep))


# ---------------------------------------------------------------------------
# nil7-forward

def _nil7_op(pair, controls, t_end=NIL7_T):
    sparse, dense = pair

    def run():
        return tuple(nf.integrate_grf(p.mu, p.g, problems.pack(p.H), t_span=(0.0, t_end),
                                      controls=controls) for p in pair)

    return Op("pair", run, lambda out: checks.check_equivariance(sparse, dense, *out))


# ---------------------------------------------------------------------------
# survey

def _survey_op(slot, prob):
    spec = prob.as_dict()

    def run():
        q = nf.problem_from_dict(spec)
        mu, g, H, th = q.mu, q.g, q.H, q.theta
        return {
            "jacobi_residual": nf.jacobi_residual(mu),
            "nilpotency_step": nf.nilpotency_step(mu),
            "closedness_residual": nf.closedness_residual(mu, H),
            "generalized_ricci_plus": nf.generalized_ricci_plus(mu, g, H, th),
            "soliton_fit": nf.soliton_fit(mu, g, H, th),
            "dorfman_total_skew_residual": nf.dorfman_total_skew_residual(mu, H),
            "dorfman_jacobi_residual": nf.dorfman_jacobi_residual(mu, H),
        }

    return Op(slot, run, lambda out: checks.check_survey(prob, out))


def _survey_slots():
    """(slot, n, random basis, family number): the k-th slot of a dimension takes
    the k-th family, so every seed and pass has the same mix of families."""
    slots = []
    for basis in ("sparse", "random"):
        for n in sorted(set(SURVEY_DIMS)):
            for k in range(SURVEY_DIMS.count(n)):
                slots.append((f"n={n} {basis} #{k}", n, basis == "random", k))
    return slots


# ---------------------------------------------------------------------------
# the table the runner uses

@dataclass(frozen=True)
class Workload:
    make_pass: Callable[[int, int, str], list]
    warm_up: Callable[[int, str], None]


def _shuffled(ops, seed, p):
    order = _rng(seed, p, 0).permutation(len(ops))
    return [ops[i] for i in order]


def _forward_pass(seed, p, outdir):
    return _shuffled([_forward_op(a, outdir) for a in HEIS3_A], seed, p)


def _forward_warm(seed, outdir):
    for a in HEIS3_A:
        _forward_op(a, outdir, t_end=0.5).run()


def _tmin_pass(seed, p, outdir):
    return _shuffled([_tmin_op(a) for a in TMIN_A], seed, p)


def _tmin_warm(seed, outdir):
    for a in TMIN_A:  # forward, where no singularity comes within the horizon
        nf.blowup_time(_heis3(), np.eye(3), np.array([a]), direction=1, horizon=0.5)


def _nil7_controls():
    return nf.IntegratorControls(fixed_step=NIL7_T / NIL7_STEPS)


def _nil7_pass(seed, p, outdir):
    return [_nil7_op(problems.nil7_pair(_rng(seed, p, 1)), _nil7_controls())]


def _nil7_warm(seed, outdir):
    _nil7_op(problems.nil7_pair(_rng(seed, 0, 1)), _nil7_controls(),
             t_end=NIL7_T / NIL7_STEPS).run()


def _survey_pass(seed, p, outdir):
    rng = _rng(seed, p, 2)
    ops = [_survey_op(slot, problems.survey_problem(rng, n, rand, family))
           for slot, n, rand, family in _survey_slots()]
    return _shuffled(ops, seed, p)


def _survey_warm(seed, outdir):
    # Separate problems: per-problem work must still be paid in the timed section.
    rng = _rng(seed, 0, 3)
    for n in sorted(set(SURVEY_DIMS)):
        _survey_op("warm", problems.survey_problem(rng, n, n == 3)).run()


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "heis3-forward": Workload(_forward_pass, _forward_warm),
    "heis3-tmin": Workload(_tmin_pass, _tmin_warm),
    "nil7-forward": Workload(_nil7_pass, _nil7_warm),
    "survey": Workload(_survey_pass, _survey_warm),
}
