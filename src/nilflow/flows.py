"""ODE drivers for left-invariant geometric flows.

Covers bracket flows with a pluggable curvature term, the gauge-fixed
generalized Ricci flow on (metric, 3-form) pairs, singular-time detection,
and a sweep utility over the Heisenberg one-parameter family.

Adaptive runs take Dormand-Prince 5(4) steps and propagate the 5th-order
solution (local extrapolation); the embedded 4th-order solution gives the
O(h^5) error estimate.  The last stage k7 = f(y1) is the next step's first
(FSAL), and a rejected trial keeps its k1 for the retry, so a run costs
1 right-hand-side evaluation plus 6 per attempted step.  A trial keeps y and
its seven stages as the rows of one array and scales one constant stage
matrix (_DP_STAGES: the tableau, the error weights and y's column) by h,
so each stage input, y1 and the error estimate is one vector-matrix
product.  Since k7 is taken at the new state, a trial that leaves the flow's
domain fails there and is rejected (_integrate).  Fixed-step runs take
classical RK4 steps, 4 evaluations each; a step's first stage, taken right
after the step before, is also that state's domain test, so only the final
state needs in_domain.  The flows are autonomous, so every kernel is f(y); a
backward-in-time run negates the kernel instead of stepping with negative h.
One loop (_integrate) serves every driver and returns the run it took: the
accepted times and rows from the initial state on, and the accepted and
rejected step counts.  Near a singular time an adaptive trial step falls
below STEP_FLOOR, and the run stalls: it returns with times[-1] short of the
span's end, which is where blowup_time stops and the other drivers raise.

Every integrator state is its trajectory CSV row (trajectory_column_labels),
and a Trajectory keeps each accepted one as it is.  Each flow has one
right-hand-side kernel on its row that works on plain arrays and builds no
Metric, KForm or LieBracket per evaluation; the form calculus is lie's and
d* is hodge._codiff, and this module keeps no copy.  Both flows start only
from an exact Courant algebroid, mu Lie and H closed for it
(lie._checked_structure_row).  The bracket flow's "gbf" row is lie's
structure row, so the gate re-checks every accepted row for drift; the flow
is a cubic in the row, kept by _gbf_tables as two monomial tables per
(spec, n).  The generalized Ricci flow carries a closed H, so its
H equation -Lap H is -d d*_g H: the flow is defined on the closed 3-forms,
and every increment lies in im d.  _grf_kernel needs a unimodular bracket
and takes one Cholesky factor g = L L^T per evaluation; rc_metric, h_circ_h
and codifferential share its arithmetic.  What is fixed for a run (where h
goes in the kernel's stacked array, the sign of -d d*, the metric's upper
triangle) is built with the kernel, and d*'s -1/2 with hodge's tables.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .config import (
    DECAY_BOUND_SLACK,
    DEFAULT_ATOL,
    DEFAULT_HORIZON,
    DEFAULT_RTOL,
    FAMILY_TOL,
    FIXED_STEP_COUNT_SLACK,
    INITIAL_STEP,
    MAX_GROW,
    MAX_PROBLEM_DIM,
    MAX_STEPS,
    MIN_SHRINK,
    SAFETY,
    STEP_FLOOR,
    SWEEP_HORIZON_BACK,
    SWEEP_T_LONG,
)
# rc_metric and hodge_laplacian are the library forms of two terms of the GRF
# kernel below, which does not call them; they stay bound here because the
# benchmark's tracer (bench/spans.py) and its tests look them up on this module.
from .curvature import rc_metric, ric_orthonormal  # noqa: F401
from .errors import NilflowError, NumericalError, ValidationError
from .hodge import Metric, as_metric, hodge_laplacian, _codiff  # noqa: F401
from .lie import (KForm, LieBracket, index_tuples, _as_3form, _as_bracket, _checked_structure_row,
                  _d_block, _frozen, _index_array, _monomials, _raise_pair, _real,
                  _row_bracket, _row_slots, _structure_failure, _structure_row, _unpack_tables)

__all__ = [
    "PhiSpec",
    "IntegratorControls",
    "BracketState",
    "GrfState",
    "Trajectory",
    "BlowupReport",
    "SweepRow",
    "gbf_rhs",
    "integrate_gbf",
    "gbf_decay_bound_check",
    "grf_rhs",
    "integrate_grf",
    "blowup_time",
    "tmin_sweep",
    "trajectory_column_labels",
    "trajectory_from_columns",
]


class PhiSpec(enum.Enum):
    """Choice of the symmetric endomorphism driving a bracket flow."""

    RIC = "ric"
    RIC_MINUS_QUARTER_HSQ = "ric-h2"


def _as_phi(spec):
    if isinstance(spec, PhiSpec):
        return spec
    try:
        return PhiSpec(spec)
    except ValueError:
        raise ValidationError(
            f"unknown phi spec {spec!r}; expected one of "
            f"{[p.value for p in PhiSpec]}") from None


def _positive(value):
    """True for a finite positive real number; a bool is refused, since True would read as 1."""
    return _real(value) and 0 < value < math.inf


@dataclass(frozen=True)
class IntegratorControls:
    """Tolerances and the step mode of the integrators.

    fixed_step disables the error controller and takes uniform classical RK4
    steps; used for order-of-convergence measurements.  The controller's
    other constants live in config, among them MAX_STEPS, the cap on
    attempted steps (accepted plus rejected); a fixed-step run that needs
    more raises NumericalError before its first step.
    """

    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    fixed_step: float | None = None

    def __post_init__(self):
        for name in ("rtol", "atol"):
            if not _positive(getattr(self, name)):
                raise ValidationError(f"integrator control {name} must be finite and positive")
        if self.fixed_step is not None and not _positive(self.fixed_step):
            raise ValidationError("fixed_step must be finite and positive when given")


@dataclass(frozen=True)
class BracketState:
    """One bracket-flow snapshot: structure constants plus the 3-form."""

    mu: np.ndarray
    H: KForm


@dataclass(frozen=True)
class GrfState:
    """One generalized-Ricci-flow snapshot: metric plus the 3-form."""

    g: Metric
    H: KForm


@dataclass(frozen=True)
class Trajectory:
    """Accepted states of one integration, including the initial condition.

    rows[i] is the state at times[i], one read-only row in the column layout
    of trajectory_column_labels(kind, dim), which is the trajectory CSV's.
    times[0] carries the initial state bitwise; times are finite and strictly
    increasing in integration time (signed time for backward runs lives in
    BlowupReport, not here).  The constructor checks that every entry is
    finite, that the row width fits kind (the width gives dim), and that
    every "grf" row holds a positive-definite metric (ValidationError
    otherwise).  states, the typed snapshots, are built on first read.
    """

    times: np.ndarray
    rows: np.ndarray
    kind: str
    accepted: int = 0
    rejected: int = 0
    dim: int = field(init=False)

    def __post_init__(self):
        ts = np.array(self.times, dtype=float, copy=True).reshape(-1)
        if ts.size == 0:
            raise ValidationError("trajectory needs at least one time sample")
        if not np.isfinite(ts).all():
            raise ValidationError("trajectory times must be finite")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise ValidationError("trajectory times must be strictly increasing")
        if self.kind not in ("gbf", "grf"):
            raise ValidationError(f"unknown trajectory kind {self.kind!r}")
        rows = np.array(self.rows, dtype=float, copy=True)
        if rows.ndim != 2 or rows.shape[0] != ts.size:
            raise ValidationError(
                f"{ts.size} times but rows of shape {rows.shape} in trajectory")
        n = _row_dims(self.kind).get(rows.shape[1])
        if n is None:
            raise ValidationError(f"no {self.kind} trajectory has rows of {rows.shape[1]} columns")
        if not np.isfinite(rows).all():
            raise ValidationError("trajectory entries must be finite")
        if self.kind == "grf":
            try:
                np.linalg.cholesky(rows[:, _grf_metric(n)])
            except np.linalg.LinAlgError:
                raise ValidationError("trajectory metric is not positive definite") from None
        ts.setflags(write=False)
        rows.setflags(write=False)
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "dim", n)

    @cached_property
    def states(self):
        """BracketState or GrfState snapshots, one per row; the last one is final."""
        return tuple(_row_state(row, self.kind, self.dim) for row in self.rows[:-1]) + (self.final,)

    @cached_property
    def final(self):
        """The snapshot of the last row, built without the others."""
        return _row_state(self.rows[-1], self.kind, self.dim)

    def column_labels(self):
        return trajectory_column_labels(self.kind, self.dim)


@dataclass(frozen=True)
class BlowupReport:
    """Outcome of a singular-time search.

    time is the signed blowup time, or None when the horizon was reached
    first (reason "horizon").  Otherwise the reason is read off the last
    accepted state: "metric-degenerate" (g's smallest eigenvalue shrank by
    a larger factor than the state's sup-norm grew) or "norm" (the other
    way round).
    """

    time: float | None
    reason: str
    t_last: float
    state: GrfState


@dataclass(frozen=True)
class SweepRow:
    """One row of a parameter sweep over the Heisenberg family."""

    a: float
    t_min: float | None
    g3_limit: float
    g1_long: float
    status: str


# ---------------------------------------------------------------------------
# column packing (CSV layout lives here so readers can rebuild typed states)

def _joined(parts, n):
    sep = "_" if n >= 10 else ""
    return sep.join(str(p) for p in parts)


def trajectory_column_labels(kind, n):
    """Flattened state labels for one trajectory row, excluding the t column."""
    if not 1 <= n <= MAX_PROBLEM_DIM:
        raise ValidationError(f"dimension {n} outside 1..{MAX_PROBLEM_DIM}")
    labels = []
    if kind == "gbf":
        for i, j in index_tuples(n, 2):
            for k in range(n):
                labels.append(f"mu_{_joined((i + 1, j + 1), n)}_{k + 1}")
    elif kind == "grf":
        for i in range(n):
            labels.append(f"g_{i + 1}")
        for i, j in index_tuples(n, 2):
            labels.append(f"g_{_joined((i + 1, j + 1), n)}")
    else:
        raise ValidationError(f"unknown trajectory kind {kind!r}")
    for t in index_tuples(n, 3):
        labels.append(f"H_{_joined(tuple(x + 1 for x in t), n)}")
    return labels


@lru_cache(maxsize=None)
def _row_dims(kind):
    """{row width: dimension} of the kind's column layout."""
    return {len(trajectory_column_labels(kind, n)): n for n in range(1, MAX_PROBLEM_DIM + 1)}


@lru_cache(maxsize=None)
def _grf_metric(n):
    """Index of a "grf" row's metric: row[index] is g, and row[index] = g writes a symmetric g."""
    index = np.diag(np.arange(n))
    i, j = _index_array(n, 2).T
    index[i, j] = index[j, i] = n + np.arange(i.size)
    return _frozen(index)[0]


def _grf_row(g, h):
    """The "grf" row of the symmetric (n, n) metric g and the packed 3-form h."""
    n = g.shape[0]
    row = np.empty(n * (n + 1) // 2 + h.size)
    row[_grf_metric(n)] = g
    row[n * (n + 1) // 2:] = h
    return row


def _row_state(row, kind, n):
    """The BracketState or GrfState of one row in the trajectory_column_labels layout."""
    split = row.size - math.comb(n, 3)
    H = KForm(n, 3, row[split:])
    if kind == "gbf":
        return BracketState(mu=_row_bracket(row, n), H=H)
    return GrfState(g=Metric(row[_grf_metric(n)]), H=H)


def trajectory_from_columns(times, labels, matrix):
    """Rebuild a Trajectory from its flat column layout (CSV reader support).

    An empty label list is the layout of a 1-dimensional bracket flow.  The
    Trajectory constructor checks the entries.  Step statistics are not
    part of the layout; the result reports accepted = len(times) - 1 and
    rejected = 0.
    """
    labels = list(labels)
    kind = "gbf" if not labels or labels[0].startswith("mu_") else "grf"
    n = _row_dims(kind).get(len(labels))
    if n is None or trajectory_column_labels(kind, n) != labels:
        raise ValidationError("unrecognized trajectory column layout")
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != len(labels):
        raise ValidationError(
            f"trajectory matrix must be 2-D with {len(labels)} columns")
    m_times = np.asarray(times, dtype=float).reshape(-1)
    return Trajectory(times=m_times, rows=mat, kind=kind,
                      accepted=max(m_times.size - 1, 0), rejected=0)


# ---------------------------------------------------------------------------
# Runge-Kutta core

# What a kernel raises off the flow's domain: g is not positive definite.  A non-finite
# stage raises nothing; it reaches the trial's error ratio instead.
_RHS_FAILURES = (np.linalg.LinAlgError,)


def _rk4_step(f, y, h, k1):
    """One classical RK4 step of size h from y, given its first stage k1 = f(y)."""
    k2 = f(y + (0.5 * h) * k1)
    k3 = f(y + (0.5 * h) * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# Table II.5.2).  _DP_MATRIX[i, j] = a_ij, zero for j >= i; its last row is
# also the 5th-order weights b (with b_7 = 0), so the 7th stage f(y1) is the
# next step's first.  _DP_ERROR = e is b minus the embedded 4th-order weights.
# No stage of an autonomous flow reads the stage times c_i = sum_j a_ij.
_DP_MATRIX, _DP_ERROR = _frozen(np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
]), np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]))
# The stage matrix _dp_step scales by h once a trial, against the rows
# (y, k1, ..., k7) of its (8, d) array K: row i < 7 forms the input of stage
# i + 1 (row 6 is y1), row 7 the error estimate.  Column 0 is y's weight,
# 1 on the seven stage rows and 0 on the error row; columns 1..7 are
# _DP_MATRIX, then _DP_ERROR.
_DP_STAGES = _frozen(np.block([[np.ones((7, 1)), _DP_MATRIX], [0.0, _DP_ERROR]]))[0]


def _dp_step(f, y, h, k1, controls):
    """One Dormand-Prince 5(4) trial of size h from y, given k1 = f(y).

    Returns (y1, k7, ratio): the 5th-order state, its stage k7 = f(y1) and
    the error ratio, the embedded estimate h * sum(e_i k_i) over
    atol + rtol * max(|y|, |y1|) in the max norm.  6 new evaluations.  y
    and the stages are the rows of one (8, d) array K, and the trial scales
    the stage matrix _DP_STAGES by h once (y's column kept at 1), so each
    stage input, y1 and the estimate are one product of a row of it with K.
    Nothing here tests the stages for finiteness: a NaN or inf in any of
    them reaches y1, k7 or the estimate through these products, where a
    zero weight still makes it NaN (0 * inf), and the ratio is then NaN or
    inf, which _integrate rejects.  So K starts as zeros: the rows not yet
    taken are read with zero weights and must be finite.
    """
    hT = h * _DP_STAGES
    hT[:7, 0] = 1.0
    K = np.zeros((8, y.size))
    K[0] = y
    K[1] = k1
    for i in range(1, 6):
        K[i + 1] = f(hT[i].dot(K))
    y1 = hT[6].dot(K)
    K[7] = f(y1)
    err = hT[7].dot(K)
    np.abs(err, out=err)
    scale = np.abs(y)
    np.maximum(scale, np.abs(y1), out=scale)
    scale *= controls.rtol
    scale += controls.atol
    err /= scale
    return y1, K[7], float(err.max(initial=0.0))  # 0 for an empty state


def _next_step(h, ratio):
    """Size of the step after a trial of size h with the given error ratio.

    A rejected trial (ratio > 1) gives a factor of at most SAFETY, so the
    step shrinks; an accepted one may grow, by at most MAX_GROW.  A NaN
    ratio, from a stage that was not finite, shrinks by MIN_SHRINK, as an
    infinite one does.
    """
    if math.isnan(ratio):
        return h * MIN_SHRINK
    grow = MAX_GROW if ratio == 0.0 else SAFETY * ratio ** -0.2
    return h * min(max(grow, MIN_SHRINK), MAX_GROW)


@np.errstate(invalid="ignore", over="ignore")
def _integrate(f, t0, y0, t_end, controls, in_domain=None):
    """Drive dy/dt = f(y) over [t0, t_end]; return the run as (times, rows, accepted, rejected).

    times and rows are the accepted states from (t0, y0) on, and accepted and
    rejected count the steps.  A run that lands ends on t_end exactly; one
    that stalled ends where times[-1] < t_end, at its last accepted state.
    Adaptive runs take Dormand-Prince 5(4) steps.  A trial fails when f
    raises one of _RHS_FAILURES at any stage, the last of which is taken at
    the new state, or when its error ratio is not finite; the ratio is the one
    finiteness test per trial, and a NaN or inf stage shows there, with
    numpy's invalid and overflow warnings off for the run.  A failed trial is
    rejected and the next one is MIN_SHRINK times as long, so steps shrink
    toward the domain's edge instead of crossing it; a trial step below
    STEP_FLOOR, as at a singular time, stalls the run.  Fixed-step runs never
    stall: they take max(1, ceil(span / h - FIXED_STEP_COUNT_SLACK)) classical
    RK4 steps over a positive span, the last landing on t_end, 4 evaluations
    each.  They raise NumericalError when f raises inside a step ("integration
    failed near t"), or when the state after a step is not finite or off the
    domain ("left the flow's domain after the last valid time t").  The domain
    test of a state that is not the last is the next step's first stage
    k1 = f(y), taken right after the step, which raises one of _RHS_FAILURES
    off the domain; the last state, which takes no further step, is tested by
    in_domain(y).
    """
    if not np.all(np.isfinite(y0)):
        raise ValidationError("initial state must be finite")
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValidationError(f"time span ({t0}, {t_end}) must have finite ends")
    span = t_end - t0
    if span < 0:
        raise ValidationError(f"t_end={t_end} precedes t_start={t0}")
    t, y = t0, np.array(y0, dtype=float)
    times, rows = [t], [y]
    if controls.fixed_step is not None:
        h = controls.fixed_step
        # compared as a float, so an overflowing count is caught too
        count = span / h - FIXED_STEP_COUNT_SLACK
        if count > MAX_STEPS:
            raise NumericalError(
                f"step budget {MAX_STEPS} exhausted at t={t:.9g} "
                f"(fixed step {h:.9g} over a span of {span:.9g})")
        steps = max(math.ceil(count), 1) if span > 0 else 0
        k1 = None  # f(y), taken after the previous step as its domain test
        for i in range(steps):
            last = i == steps - 1
            t_next = t_end if last else t0 + (i + 1) * h
            try:
                y = _rk4_step(f, y, t_next - t, f(y) if k1 is None else k1)
            except _RHS_FAILURES:
                raise NumericalError(
                    f"fixed-step integration failed near t={t:.9g} (metric)") from None
            inside = bool(np.isfinite(y).all())
            if inside and not last:
                try:
                    k1 = f(y)  # the next step's first stage tests this state's domain
                except _RHS_FAILURES:
                    inside = False
            elif inside and in_domain is not None:
                inside = in_domain(y)
            if not inside:
                raise NumericalError(
                    f"state left the flow's domain after the last valid time t={t:.9g}")
            t = t_next
            times.append(t)
            rows.append(y)
        return times, rows, steps, 0
    accepted = rejected = 0
    h = min(INITIAL_STEP, span or INITIAL_STEP)
    k1 = None  # f(y): the accepted trial's k7, kept for the retry after a rejection
    while t < t_end:
        if accepted + rejected >= MAX_STEPS:
            raise NumericalError(
                f"step budget {MAX_STEPS} exhausted at t={t:.9g}")
        remaining = t_end - t
        landing = h >= remaining
        h_use = remaining if landing else h
        if h_use < STEP_FLOOR:
            break  # stalled
        try:
            if k1 is None:
                k1 = f(y)
            y1, k7, ratio = _dp_step(f, y, h_use, k1, controls)
        except _RHS_FAILURES:
            rejected += 1
            h = h_use * MIN_SHRINK
            continue
        if ratio <= 1.0:
            t = t_end if landing else t + h_use
            y, k1 = y1, k7
            accepted += 1
            times.append(t)
            rows.append(y)
        else:
            rejected += 1
        h = _next_step(h_use, ratio)
    return times, rows, accepted, rejected


# ---------------------------------------------------------------------------
# bracket flow

@lru_cache(maxsize=None)
def _gbf_tables(spec, n):
    """The bracket flow's right-hand side on R^n as two monomial tables on the "gbf" row y,
    whose mu and H entries lie._row_slots places.

    (E, A, B, C): row r adds C[r] * y[A[r]] * y[B[r]] to phi.flat[E[r]], for
    phi = Ric_mu (- 1/4 H^2 for RIC_MINUS_QUARTER_HSQ) on and above its
    diagonal, with Ric_ij = -1/2 mu_ikl mu_jkl + 1/4 mu_kli mu_klj and
    (H^2)_ij = H_ikl H_jkl.  (O, F, G, D): row r adds D[r] * phi.flat[F[r]] *
    y[G[r]] to dy[O[r]], for dy = -pi(phi) on (mu, H): phi on the first two
    slots of both, -phi on mu's third slot and phi on H's.
    """
    slot, sign = _row_slots(n)
    i, j, k, l = np.indices((n,) * 4).reshape(4, -1)
    phi_terms = [(0, (i, k, l), (j, k, l), -0.5), (0, (k, l, i), (k, l, j), 0.25)]
    if spec is PhiSpec.RIC_MINUS_QUARTER_HSQ:
        phi_terms.append((1, (i, k, l), (j, k, l), -0.25))
    phi_table = _monomials([
        (i * n + j, np.minimum(slot[s][x], slot[s][z]), np.maximum(slot[s][x], slot[s][z]),
         c * (i <= j) * sign[s][x] * sign[s][z]) for s, x, z, c in phi_terms])
    outputs = ((0, i < j, -1.0), (1, (i < j) & (j < k), 1.0))  # packed entries, third-slot sign
    dy_table = _monomials([
        (slot[s][i, j, k], np.minimum(p, l) * n + np.maximum(p, l),  # phi_pl = phi_lp
         slot[s][x], c * packed * sign[s][x])
        for s, packed, third in outputs
        for p, x, c in ((i, (l, j, k), 1.0), (j, (i, l, k), 1.0), (k, (i, j, l), third))])
    return phi_table + dy_table


def _gbf_kernel(spec, n):
    """The bracket flow's right-hand side on R^n, as rhs(y) -> dy on the packed state.

    y is the structure row (lie._structure_row): the packed bracket, then the packed 3-form.
    Every dense entry of (mu, H) is plus or minus one of these or zero, so
    the step controller's error ratio is the same maximum as on the dense
    tensors.  dy is a cubic in y, and each call is one gather-multiply-bincount
    pass over each monomial table of _gbf_tables.
    """
    E, A, B, C, O, F, G, D = _gbf_tables(spec, n)

    def rhs(y):
        phi = np.bincount(E, C * y[A] * y[B], minlength=n * n)
        return np.bincount(O, D * phi[F] * y[G], minlength=y.size)

    return rhs


def _flux(H, n):
    """A flow's initial 3-form: None is the zero form, anything else goes to _as_3form."""
    return KForm.zero(n, 3) if H is None else _as_3form(H, n)


def gbf_rhs(spec, mu, H):
    """Time derivative of (mu, H) under the bracket flow for the given phi.

    phi = Ric_mu for RIC, and Ric_mu - (1/4) H^2 for RIC_MINUS_QUARTER_HSQ,
    where (H^2)_ij = H_ikl H_jkl; the derivative is -pi(phi) on both.
    Evaluates the kernel that integrate_gbf runs on.  mu is a LieBracket or
    a skew (n, n, n) array (ValidationError otherwise).  Returns the skew
    coefficient tensor for dmu and a packed 3-form for dH.
    """
    spec = _as_phi(spec)
    m = _as_bracket(mu).coeffs
    n = m.shape[0]
    h = _flux(H, n).coeffs
    dy = _gbf_kernel(spec, n)(_structure_row(m, h))
    return _row_bracket(dy, n), KForm(n, 3, dy[math.comb(n, 2) * n:])


def integrate_gbf(spec, mu0, H0, t_span, controls=None):
    """Integrate the bracket flow from (mu0, H0) over t_span.

    The initial bracket must satisfy Jacobi and H0 must be closed for it
    (lie._checked_structure_row, ValidationError otherwise); after the run the
    same gate is re-run on every accepted state, and NumericalError reports
    the first one that integration drift pushed past STRUCTURE_TOL.  A stalled
    run raises NumericalError too.  The run evaluates _gbf_kernel, built once,
    on the packed state: 1 right-hand-side evaluation plus 6 per attempted
    step (see the module docstring).  Each accepted packed state is kept as it
    is, as the trajectory row.
    """
    spec = _as_phi(spec)
    controls = controls if controls is not None else IntegratorControls()
    m0 = _as_bracket(mu0).coeffs
    n = m0.shape[0]
    y0 = _checked_structure_row(m0, _flux(H0, n).coeffs)
    t0, t1 = (float(t_span[0]), float(t_span[1]))
    times, rows, accepted, rejected = _integrate(_gbf_kernel(spec, n), t0, y0, t1, controls)
    for t, y in zip(times[1:], rows[1:]):  # rows[0] is y0, which passed the gate above
        reason = _structure_failure(y, n)
        if reason is not None:
            raise NumericalError(f"{reason} at t={t:.9g}")
    if times[-1] < t1:
        raise NumericalError(
            f"step size underflow at t={times[-1]:.9g}; last accepted state is valid")
    return Trajectory(times=times, rows=rows, kind="gbf",
                      accepted=accepted, rejected=rejected)


def gbf_decay_bound_check(trajectory, a):
    """Check x^2 + y^2 <= (1+a^2) / (1 + (1+a^2) t) along a Heisenberg run.

    x is the single bracket coefficient and y the 3-form coefficient of the
    three-dimensional family started at (1, a), read off the columns
    mu_12_3 and H_123.  Returns False if a stored sample exceeds the bound
    by more than DECAY_BOUND_SLACK; raises if the trajectory is not from
    that family (to FAMILY_TOL) or a is not finite.
    """
    if not isinstance(trajectory, Trajectory) or trajectory.kind != "gbf":
        raise ValidationError("decay bound check needs a bracket-flow trajectory")
    if trajectory.dim != 3:
        raise ValidationError("decay bound check is for the 3-dimensional family")
    a = float(a)
    if not math.isfinite(a):
        raise ValidationError(f"family parameter a must be finite, got {a}")
    labels = trajectory.column_labels()
    ix, iy = labels.index("mu_12_3"), labels.index("H_123")  # mu[0, 1, 2]; the last column
    xs, ys = trajectory.rows[:, ix], trajectory.rows[:, iy]
    stray = np.delete(trajectory.rows[:, :iy], ix, axis=1)  # every other mu column
    if np.any(np.max(np.abs(stray), axis=1) > FAMILY_TOL * (1.0 + np.abs(xs))):
        raise ValidationError(
            "trajectory leaves the one-parameter Heisenberg family")
    if abs(xs[0] - 1.0) > FAMILY_TOL or abs(ys[0] - a) > FAMILY_TOL:
        raise ValidationError(
            f"family trajectory must start at (1, {a}); got ({xs[0]}, {ys[0]})")
    s0 = 1.0 + a * a
    bound = s0 / (1.0 + s0 * (trajectory.times - trajectory.times[0]))
    return not np.any(xs * xs + ys * ys > bound + DECAY_BOUND_SLACK)


# ---------------------------------------------------------------------------
# generalized Ricci flow (gauge-fixed)

def _grf_kernel(m):
    """The flow's right-hand side for the bracket m, as rhs(y) -> dy on the "grf" row.

    y holds g = y[_grf_metric(n)], then the packed 3-form h; dy holds (dg, dh)
    alike.  Everything fixed for the run is built once from m: the positions
    of dg's upper triangle, taken in row order; -d2, minus the block of d on
    2-forms (lie._d_block, which rejects a bracket that is not unimodular), or
    None where d vanishes for m; and S, an (n, n, 2n) array with
    S[a, b, :n] = mu_ab, with the flat positions in S of h's dense entries
    S[a, b, n + r] = h_abr (lie._unpack_tables; the entries with a repeated
    index stay zero).  Per call: h is written into S through those positions;
    g = L L^T (LinAlgError off the domain); X, S raised by L^-1 on two slots
    (lie._raise_pair) as an (n^2, 2n) matrix with halves X1, X2.  X1 L is mu in
    an orthonormal frame, whose Ricci form pulled back by L^T is Rc_g;
    H o H = X2^T X2; and, where d2 is not None, Q = X1^T X2 = mu^T h^## gives
    d* h (hodge._codiff) and dh = -d d* h: -Lap h for the closed h the callers'
    gate (_grf_setup) lets in, without the d* d h of any other h.  Where d2 is
    None, dh = 0.  The constants are exact (signs and a factor -1/2 in d*), so
    folding them in moves no nonzero bit.
    """
    n = m.shape[0]
    metric, split = _grf_metric(n), n * (n + 1) // 2
    upper = np.unique(metric, return_index=True)[1]  # flat (i, j), i <= j, in row order
    d2 = _d_block(m, 3)
    minus_d2 = None if d2 is None else -d2
    zero = np.zeros(math.comb(n, 3))
    S = np.zeros((n, n, 2 * n))
    S[..., :n] = m
    flat, src, sign = _unpack_tables(n, 3)
    h_slots = flat // n * (2 * n) + n + flat % n  # flat (a, b, r) of h's tensor -> (a, b, n + r)
    h_src = split + src
    S_flat = S.reshape(-1)  # a view: writing it fills S

    def rhs(y):
        S_flat[h_slots] = sign * y[h_src]
        g = y[metric]
        L = np.linalg.cholesky(g)
        X = _raise_pair(np.linalg.inv(L), S)
        X1, X2 = X[:, :n], X[:, n:]
        dg = 0.5 * (X2.T @ X2) - 2.0 * (L @ ric_orthonormal((X1 @ L).reshape(n, n, n)) @ L.T)
        dh = zero if minus_d2 is None else minus_d2 @ _codiff(X1.T @ X2, g, n, 3)
        return np.concatenate((dg.take(upper), dh))

    return rhs


def grf_rhs(mu, state):
    """Time derivative (dg, dH) of the flow dg = -2 Rc + (1/2) H o H, dH = -d d*_g H.

    The state passes the drivers' gate (_grf_setup): mu is a LieBracket or skew (n, n, n)
    array that satisfies Jacobi and is unimodular, and H is closed for it, so -d d* H is
    -Lap H (ValidationError otherwise).  Evaluates _grf_kernel on the state's "grf" row.
    With g = L L^T, Rc is the Ricci form of the orthonormal-frame bracket (L^-1 on each
    input, L^T on its output) pulled back by L^T, H o H = X^T X for H raised by L^-1 on
    two slots, and d* is the g-adjoint of d; dg is exactly symmetric.
    """
    if not isinstance(state, GrfState):
        raise ValidationError("grf_rhs expects a GrfState")
    n, y, f, _ = _grf_setup(mu, state.g, state.H, 1)
    dy = f(y)
    return dy[_grf_metric(n)], KForm(n, 3, dy[n * (n + 1) // 2:])


def _grf_setup(mu, g0, H0, direction):
    """Check the initial data; return (n, y0, f, in_domain) on the "grf" row y.

    mu must satisfy Jacobi and H0 be closed for it (lie._checked_structure_row), as
    for the bracket flow; the kernel rejects a bracket that is not unimodular.

    f(y) is the flow's right-hand side, negated when direction is -1; it
    raises LinAlgError where g is not positive definite.  in_domain(y) says
    whether g is positive definite; fixed-step runs ask it about their final
    state only, since f tests every other (_integrate).
    """
    if direction not in (1, -1):
        raise ValidationError(f"direction must be +1 or -1, got {direction!r}")
    m = _as_bracket(mu).coeffs
    n = m.shape[0]
    met0 = as_metric(g0)
    if met0.dim != n:
        raise ValidationError(
            f"metric dimension {met0.dim} does not match bracket dimension {n}")
    h0 = _flux(H0, n).coeffs
    _checked_structure_row(m, h0)
    rhs = _grf_kernel(m)

    def in_domain(y):
        try:
            np.linalg.cholesky(y[_grf_metric(n)])
        except np.linalg.LinAlgError:
            return False
        return True

    f = rhs if direction == 1 else lambda y: -rhs(y)
    return n, _grf_row(met0.entries, h0), f, in_domain


def _stop_reason(y, y0, n):
    """Why a flow stalled at the "grf" row y, judged against its start y0.

    "metric-degenerate" when g's smallest eigenvalue shrank by a larger
    factor than the state's sup-norm grew, else "norm".
    """
    def eig_min(v):
        return float(np.linalg.eigvalsh(v[_grf_metric(n)])[0])

    growth = float(np.max(np.abs(y))) / float(np.max(np.abs(y0)))
    # eig_min(y0) / eig_min(y) > growth, without dividing by a vanishing eigenvalue
    return "metric-degenerate" if eig_min(y0) > growth * eig_min(y) else "norm"


def integrate_grf(mu, g0, H0, t_span, controls=None, direction=1):
    """Integrate the gauge-fixed flow from (g0, H0) over t_span.

    mu must satisfy Jacobi, g0 must be positive definite and H0 closed for
    mu (ValidationError otherwise).  Adaptive steps
    that leave positive definiteness are rejected; a fixed-step run that
    leaves it raises NumericalError naming the last valid time.  So does a
    stall of the step controller at a singular time, with the cause read
    off the last state as in BlowupReport.  direction=-1 integrates the
    time-reversed right-hand side, so the state recorded at clock time s is
    the flow state at signed time t_span[0] - (s - t_span[0]).
    """
    controls = controls if controls is not None else IntegratorControls()
    n, y0, f, in_domain = _grf_setup(mu, g0, H0, direction)
    t0, t1 = (float(t_span[0]), float(t_span[1]))
    times, rows, accepted, rejected = _integrate(f, t0, y0, t1, controls, in_domain)
    if times[-1] < t1:
        raise NumericalError(
            f"flow singular ({_stop_reason(rows[-1], y0, n)}): step size underflow "
            f"after the last valid time t={times[-1]:.9g}")
    return Trajectory(times=times, rows=rows, kind="grf",
                      accepted=accepted, rejected=rejected)


def blowup_time(mu, g0, H0, direction=-1, horizon=DEFAULT_HORIZON, controls=None):
    """Locate the singular time of the gauge-fixed flow in one time direction.

    Runs the adaptive integrator of integrate_grf over clock time
    [0, horizon].  Near a singular time its steps shrink until the trial
    step falls below STEP_FLOOR; the time of the last accepted state is
    reported, and the reason ("metric-degenerate" or "norm") is read off
    that state as described in BlowupReport.  If nothing singular happens
    before the horizon, time is None and reason "horizon".  Fixed steps
    cannot locate a singular time, so controls.fixed_step must be None.
    """
    if not _positive(horizon):
        raise ValidationError("horizon must be finite and positive")
    controls = controls if controls is not None else IntegratorControls()
    if controls.fixed_step is not None:
        raise ValidationError("blowup_time needs the adaptive controller, not fixed_step")
    n, y0, f, _ = _grf_setup(mu, g0, H0, direction)
    times, rows, _, _ = _integrate(f, 0.0, y0, horizon, controls)
    t, y = times[-1], rows[-1]
    stalled = t < horizon
    return BlowupReport(time=direction * t if stalled else None,
                        reason=_stop_reason(y, y0, n) if stalled else "horizon",
                        t_last=direction * t, state=_row_state(y, "grf", n))


# ---------------------------------------------------------------------------
# Heisenberg family sweep

def tmin_sweep(a_values, t_long=SWEEP_T_LONG, horizon_back=SWEEP_HORIZON_BACK, controls=None):
    """Backward singular time and long-run forward state per family parameter.

    For each a: run blowup_time backward (horizon horizon_back) and a
    forward integration to t_long on the Heisenberg bracket with 3-form
    coefficient a and the identity initial metric.  Rows come back sorted
    by a.  Invalid arguments, a non-finite a or fixed-step controls among
    them, raise ValidationError before any run; a run that fails for one a
    lands in that row's status instead of raising.
    """
    avals = sorted(float(a) for a in a_values)
    if not avals:
        raise ValidationError("a_values must be nonempty")
    for a in avals:
        if not math.isfinite(a):
            raise ValidationError(f"a_values must be finite, got {a}")
    if not _positive(t_long):
        raise ValidationError("t_long must be finite and positive")
    if not _positive(horizon_back):
        raise ValidationError("horizon_back must be finite and positive")
    if controls is not None and controls.fixed_step is not None:
        raise ValidationError("tmin_sweep's backward searches need the adaptive controller, "
                              "not fixed_step")

    mu = LieBracket.from_entries(3, [(1, 2, 3, 1.0)])

    def run_one(a):
        g0 = np.eye(3)
        H = KForm(3, 3, np.array([a]))
        try:
            rep = blowup_time(mu, g0, H, horizon=horizon_back, controls=controls)
            traj = integrate_grf(mu, g0, H, (0.0, t_long), controls)
            G = traj.final.g.entries
            status = "ok" if rep.time is not None else "no backward blowup within horizon"
            return SweepRow(a=a, t_min=rep.time, g3_limit=float(G[2, 2]),
                            g1_long=float(G[0, 0]), status=status)
        except NilflowError as exc:
            return SweepRow(a=a, t_min=None, g3_limit=float("nan"),
                            g1_long=float("nan"), status=f"error: {exc}")

    return [run_one(a) for a in avals]
