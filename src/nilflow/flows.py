"""ODE drivers for left-invariant geometric flows.

Covers bracket flows with a pluggable curvature term, the gauge-fixed
generalized Ricci flow on (metric, 3-form) pairs, singular-time detection,
and a sweep utility over the Heisenberg one-parameter family.

The integrator is classical RK4 with step-doubling error control; no local
extrapolation is applied, so the accepted state is the two-half-step result.
Backward-in-time runs reverse the right-hand side instead of stepping with
negative h.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .config import (
    BISECT_TOL,
    BLOWUP_NORM,
    DEFAULT_ATOL,
    DEFAULT_HORIZON,
    DEFAULT_RTOL,
    EIG_FLOOR,
    INITIAL_STEP,
    MAX_GROW,
    MAX_PROBLEM_DIM,
    MAX_STEPS,
    MIN_SHRINK,
    SAFETY,
    STEP_FLOOR,
    STRUCTURE_TOL,
    SWEEP_T_LONG,
)
from .curvature import h_circ_h, h_squared_neutral, rc_metric, ric_orthonormal
from .errors import NilflowError, NumericalError, ValidationError
from .hodge import Metric, hodge_laplacian
from .lie import KForm, LieBracket, bracket_coeffs, ce_differential, index_tuples, jacobi_residual

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


@dataclass(frozen=True)
class IntegratorControls:
    """Tolerances and budgets for the RK4 drivers.

    fixed_step disables the error controller and takes uniform steps; used
    for order-of-convergence measurements.  max_steps caps attempted steps,
    accepted plus rejected.  The controller's other constants live in config.
    """

    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    max_steps: int = MAX_STEPS
    bisect_tol: float = BISECT_TOL
    fixed_step: float | None = None

    def __post_init__(self):
        for name in ("rtol", "atol", "bisect_tol"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"integrator control {name} must be positive")
        if self.fixed_step is not None and not self.fixed_step > 0:
            raise ValidationError("fixed_step must be positive when given")
        if self.max_steps < 1:
            raise ValidationError("max_steps must be at least 1")


@dataclass(frozen=True)
class BracketState:
    """One bracket-flow snapshot: structure constants plus the 3-form."""

    mu: np.ndarray
    H: KForm

    @property
    def dim(self):
        return self.mu.shape[0]


@dataclass(frozen=True)
class GrfState:
    """One generalized-Ricci-flow snapshot: metric plus the 3-form."""

    g: Metric
    H: KForm

    @property
    def dim(self):
        return self.g.dim


@dataclass(frozen=True)
class Trajectory:
    """Accepted states of one integration, including the initial condition.

    times[0] carries the initial state bitwise; times are strictly
    increasing in integration time (signed time for backward runs lives in
    BlowupReport, not here).
    """

    times: np.ndarray
    states: tuple
    kind: str
    accepted: int = 0
    rejected: int = 0

    def __post_init__(self):
        ts = np.array(self.times, dtype=float, copy=True).reshape(-1)
        if ts.size == 0:
            raise ValidationError("trajectory needs at least one time sample")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise ValidationError("trajectory times must be strictly increasing")
        states = tuple(self.states)
        if len(states) != ts.size:
            raise ValidationError(
                f"{ts.size} times but {len(states)} states in trajectory")
        if self.kind not in ("gbf", "grf"):
            raise ValidationError(f"unknown trajectory kind {self.kind!r}")
        want = BracketState if self.kind == "gbf" else GrfState
        for s in states:
            if not isinstance(s, want):
                raise ValidationError(
                    f"{self.kind} trajectory holds {type(s).__name__} snapshots")
        ts.setflags(write=False)
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "states", states)

    @property
    def dim(self):
        return self.states[0].dim

    @property
    def final(self):
        return self.states[-1]

    @property
    def step_stats(self):
        return (self.accepted, self.rejected)

    def column_labels(self):
        return trajectory_column_labels(self.kind, self.dim)

    def column_matrix(self):
        """(n_times, n_columns) array matching column_labels order."""
        return np.array([_state_row(s, self.kind) for s in self.states])


@dataclass(frozen=True)
class BlowupReport:
    """Outcome of a singular-time search.

    time is the signed blowup time, or None when the horizon was reached
    first (reason "horizon").  Other reasons: "norm" (state magnitude
    escape), "metric-degenerate" (an eigenvalue of g fell under the floor),
    "step-underflow" (the error controller collapsed the step).
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


def _state_row(state, kind):
    if kind == "gbf":
        n = state.dim
        head = [state.mu[i, j, k] for i, j in index_tuples(n, 2) for k in range(n)]
    else:
        G = state.g.entries
        n = G.shape[0]
        head = [G[i, i] for i in range(n)]
        head += [G[i, j] for i, j in index_tuples(n, 2)]
    return np.concatenate([np.array(head, dtype=float), state.H.coeffs])


def trajectory_from_columns(times, labels, matrix):
    """Rebuild a Trajectory from its flat column layout (CSV reader support).

    Step statistics are not part of the layout; the result reports
    accepted = len(times) - 1 and rejected = 0.
    """
    labels = list(labels)
    if not labels:
        raise ValidationError("trajectory columns are empty")
    kind = "gbf" if labels[0].startswith("mu_") else "grf"
    n = None
    for cand in range(1, MAX_PROBLEM_DIM + 1):
        if trajectory_column_labels(kind, cand) == labels:
            n = cand
            break
    if n is None:
        raise ValidationError("unrecognized trajectory column layout")
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != len(labels):
        raise ValidationError(
            f"trajectory matrix must be 2-D with {len(labels)} columns")
    pairs = index_tuples(n, 2)
    n3 = math.comb(n, 3)
    states = []
    for row in mat:
        H = KForm(n, 3, row[len(row) - n3:] if n3 else np.zeros(0))
        if kind == "gbf":
            m = np.zeros((n, n, n))
            pos = 0
            for i, j in pairs:
                for k in range(n):
                    m[i, j, k] = row[pos]
                    m[j, i, k] = -row[pos]
                    pos += 1
            states.append(BracketState(mu=m, H=H))
        else:
            G = np.zeros((n, n))
            for i in range(n):
                G[i, i] = row[i]
            for pos, (i, j) in enumerate(pairs):
                G[i, j] = G[j, i] = row[n + pos]
            states.append(GrfState(g=Metric(G), H=H))
    m_times = np.asarray(times, dtype=float).reshape(-1)
    return Trajectory(times=m_times, states=tuple(states), kind=kind,
                      accepted=max(m_times.size - 1, 0), rejected=0)


# ---------------------------------------------------------------------------
# RK4 core

class _RhsFailure(Exception):
    """Internal: the right-hand side could not be evaluated at a trial state."""

    def __init__(self, kind):
        super().__init__(kind)
        self.kind = kind


def _guarded(f):
    def g(t, y):
        try:
            dy = f(t, y)
        except (ValidationError, np.linalg.LinAlgError):
            raise _RhsFailure("metric") from None
        if not np.all(np.isfinite(dy)):
            raise _RhsFailure("nonfinite")
        return dy
    return g


def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _pair_step(f, t, y, h):
    """One full step and the matching two half steps: (coarse, fine)."""
    y_big = _rk4_step(f, t, y, h)
    y_mid = _rk4_step(f, t, y, 0.5 * h)
    y_half = _rk4_step(f, t + 0.5 * h, y_mid, 0.5 * h)
    return y_big, y_half


def _error_ratio(y, y_big, y_half, controls):
    scale = controls.atol + controls.rtol * np.maximum(np.abs(y), np.abs(y_half))
    # y_half carries ~1/15 of the coarse/fine gap for a 4th order method
    return float(np.max(np.abs(y_half - y_big) / scale)) / 15.0


def _next_step(h, ratio):
    """Size of the step after a trial of size h with the given error ratio.

    A rejected trial (ratio > 1) gives a factor of at most SAFETY, so the
    step shrinks; an accepted one may grow, by at most MAX_GROW.
    """
    grow = MAX_GROW if ratio == 0.0 else SAFETY * ratio ** -0.2
    return h * min(max(grow, MIN_SHRINK), MAX_GROW)


def _integrate(f, t0, y0, t_end, controls, on_accept):
    """Drive f over [t0, t_end]; on_accept(t, y) sees every accepted state.

    Returns (accepted, rejected) step counts.  on_accept is also called on
    the initial state so trajectories always include it.
    """
    if not np.all(np.isfinite(y0)):
        raise ValidationError("initial state must be finite")
    span = t_end - t0
    if span < 0:
        raise ValidationError(f"t_end={t_end} precedes t_start={t0}")
    f = _guarded(f)
    on_accept(t0, y0)
    accepted = rejected = 0
    t, y = t0, np.array(y0, dtype=float)
    if controls.fixed_step is not None:
        h = controls.fixed_step
        n_steps = max(int(math.ceil(span / h - 1e-12)), 0)
        for i in range(n_steps):
            t_next = min(t0 + (i + 1) * h, t_end)
            try:
                y = _rk4_step(f, t, y, t_next - t)
            except _RhsFailure as e:
                raise NumericalError(
                    f"fixed-step integration failed near t={t:.9g} ({e.kind})") from None
            if not np.all(np.isfinite(y)):
                raise NumericalError(f"state left the finite range near t={t:.9g}")
            t = t_next
            accepted += 1
            on_accept(t, y)
        return accepted, rejected
    h = min(INITIAL_STEP, span or INITIAL_STEP)
    while True:
        remaining = t_end - t
        if remaining <= 0:
            return accepted, rejected
        if accepted + rejected >= controls.max_steps:
            raise NumericalError(
                f"step budget {controls.max_steps} exhausted at t={t:.9g}")
        landing = h >= remaining
        h_use = remaining if landing else h
        if h_use < STEP_FLOOR:
            raise NumericalError(
                f"step size underflow at t={t:.9g}; last accepted state is valid")
        try:
            y_big, y_half = _pair_step(f, t, y, h_use)
            finite = np.all(np.isfinite(y_big)) and np.all(np.isfinite(y_half))
        except _RhsFailure:
            finite = False
        if not finite:
            rejected += 1
            h = h_use * MIN_SHRINK
            continue
        ratio = _error_ratio(y, y_big, y_half, controls)
        if ratio <= 1.0:
            t = t_end if landing else t + h_use
            y = y_half
            accepted += 1
            on_accept(t, y)
        else:
            rejected += 1
        h = _next_step(h_use, ratio)


# ---------------------------------------------------------------------------
# bracket flow

def _phi_matrix(spec, m, hd):
    phi = ric_orthonormal(m)
    if spec is PhiSpec.RIC_MINUS_QUARTER_HSQ:
        phi = phi - 0.25 * h_squared_neutral(hd)
    return phi


def _gbf_rhs_arrays(spec, m, hd):
    p = _phi_matrix(spec, m, hd)
    dmu = (np.einsum("il,ljk->ijk", p, m)
           + np.einsum("jl,ilk->ijk", p, m)
           - np.einsum("lk,ijl->ijk", p, m))
    dh = (np.einsum("il,ljk->ijk", p, hd)
          + np.einsum("jl,ilk->ijk", p, hd)
          + np.einsum("kl,ijl->ijk", p, hd))
    return dmu, dh


def _pack3(hd, n):
    return KForm(n, 3, np.array([hd[idx] for idx in index_tuples(n, 3)]))


def _as_form3(H, n):
    if H is None:
        return KForm.zero(n, 3)
    if isinstance(H, KForm):
        if H.dim != n or H.degree != 3:
            raise ValidationError(
                f"expected a degree-3 form on R^{n}, got degree {H.degree} on R^{H.dim}")
        return H
    arr = np.asarray(H, dtype=float)
    if arr.ndim == 1:
        return KForm(n, 3, arr)
    form = KForm.from_dense(arr)
    if form.dim != n or form.degree != 3:
        raise ValidationError(
            f"expected a degree-3 form on R^{n}, got degree {form.degree} on R^{form.dim}")
    return form


def _skew_bracket_array(mu):
    if isinstance(mu, LieBracket):
        return mu.coeffs
    return LieBracket(np.asarray(mu, dtype=float)).coeffs


def gbf_rhs(spec, mu, H):
    """Time derivative of (mu, H) under the bracket flow for the given phi.

    phi = Ric_mu for RIC, and Ric_mu - (1/4) H^2 for RIC_MINUS_QUARTER_HSQ,
    where (H^2)_ij = H_ikl H_jkl.  Returns the raw skew coefficient tensor
    for dmu and a packed 3-form for dH.
    """
    spec = _as_phi(spec)
    m = bracket_coeffs(mu)
    n = m.shape[0]
    hd = _as_form3(H, n).unpack()
    dmu, dh = _gbf_rhs_arrays(spec, m, hd)
    return dmu, _pack3(dh, n)


def integrate_gbf(spec, mu0, H0, t_span, controls=None):
    """Integrate the bracket flow from (mu0, H0) over t_span.

    The initial bracket must satisfy Jacobi and H0 must be closed for it;
    both residuals are re-checked at every accepted step (NumericalError if
    integration drift ever pushes them past STRUCTURE_TOL).
    """
    spec = _as_phi(spec)
    controls = controls if controls is not None else IntegratorControls()
    m0 = _skew_bracket_array(mu0)
    n = m0.shape[0]
    h0 = _as_form3(H0, n)
    jr = jacobi_residual(m0)
    if jr > STRUCTURE_TOL:
        raise ValidationError(
            f"initial bracket violates Jacobi (residual {jr:.3e})")
    cr = ce_differential(h0, m0).norm_inf
    if cr > STRUCTURE_TOL:
        raise ValidationError(
            f"initial 3-form is not closed for the initial bracket "
            f"(residual {cr:.3e})")
    t0, t1 = (float(t_span[0]), float(t_span[1]))
    n3 = n ** 3
    y0 = np.concatenate([m0.ravel(), h0.unpack().ravel()])

    def f(t, y):
        m = y[:n3].reshape(n, n, n)
        hd = y[n3:].reshape(n, n, n)
        dmu, dh = _gbf_rhs_arrays(spec, m, hd)
        return np.concatenate([dmu.ravel(), dh.ravel()])

    times, states = [], []

    def on_accept(t, y):
        m = y[:n3].reshape(n, n, n).copy()
        hd = y[n3:].reshape(n, n, n)
        res = jacobi_residual(m)
        if res > STRUCTURE_TOL:
            raise NumericalError(
                f"Jacobi residual {res:.3e} exceeded {STRUCTURE_TOL:.1e} "
                f"at t={t:.9g}")
        Hk = _pack3(hd, n)
        res = ce_differential(Hk, m).norm_inf
        if res > STRUCTURE_TOL:
            raise NumericalError(
                f"closedness residual {res:.3e} exceeded {STRUCTURE_TOL:.1e} "
                f"at t={t:.9g}")
        times.append(t)
        states.append(BracketState(mu=m, H=Hk))

    accepted, rejected = _integrate(f, t0, y0, t1, controls, on_accept)
    return Trajectory(times=np.array(times), states=tuple(states), kind="gbf",
                      accepted=accepted, rejected=rejected)


def gbf_decay_bound_check(trajectory, a, slack=1e-9):
    """Check x^2 + y^2 <= (1+a^2) / (1 + (1+a^2) t) along a Heisenberg run.

    x is the single bracket coefficient and y the 3-form coefficient of the
    three-dimensional family started at (1, a).  Returns False on the first
    stored sample exceeding the bound by more than slack; raises if the
    trajectory is not from that family.
    """
    if not isinstance(trajectory, Trajectory) or trajectory.kind != "gbf":
        raise ValidationError("decay bound check needs a bracket-flow trajectory")
    if trajectory.dim != 3:
        raise ValidationError("decay bound check is for the 3-dimensional family")
    a = float(a)
    xs, ys = [], []
    for st in trajectory.states:
        m = st.mu
        x = m[0, 1, 2]
        stray = m.copy()
        stray[0, 1, 2] = stray[1, 0, 2] = 0.0
        if float(np.max(np.abs(stray))) > 1e-8 * (1.0 + abs(x)):
            raise ValidationError(
                "trajectory leaves the one-parameter Heisenberg family")
        xs.append(x)
        ys.append(st.H.coeffs[0])
    if abs(xs[0] - 1.0) > 1e-8 or abs(ys[0] - a) > 1e-8:
        raise ValidationError(
            f"family trajectory must start at (1, {a}); got ({xs[0]}, {ys[0]})")
    s0 = 1.0 + a * a
    t0 = trajectory.times[0]
    for t, x, y in zip(trajectory.times, xs, ys):
        bound = s0 / (1.0 + s0 * (t - t0))
        if x * x + y * y > bound + slack:
            return False
    return True


# ---------------------------------------------------------------------------
# generalized Ricci flow (gauge-fixed)

def _grf_rhs_arrays(m, gmat, hcoeffs, n):
    met = Metric(gmat)
    hform = KForm(n, 3, hcoeffs)
    dg = -2.0 * rc_metric(m, met) + 0.5 * h_circ_h(hform, met)
    dg = (dg + dg.T) / 2.0
    dh = hodge_laplacian(hform, m, met)
    return dg, -dh.coeffs


def grf_rhs(mu, state):
    """Time derivative (dg, dH) of the flow dg = -2 Rc + (1/2) H o H, dH = -Lap H.

    Orientation plays no part: the Laplacian applies the Hodge star twice.
    """
    if not isinstance(state, GrfState):
        raise ValidationError("grf_rhs expects a GrfState")
    m = bracket_coeffs(mu)
    n = m.shape[0]
    if state.dim != n:
        raise ValidationError(
            f"state dimension {state.dim} does not match bracket dimension {n}")
    dg, dh = _grf_rhs_arrays(m, state.g.entries, state.H.coeffs, n)
    return dg, KForm(n, 3, dh)


def _grf_setup(mu, g0, H0, direction):
    """Check the initial data; return (n, y0, f) for the flat state y = (g, H).

    f(t, y) is the flow's right-hand side, reversed in time when
    direction is -1.
    """
    if direction not in (1, -1):
        raise ValidationError(f"direction must be +1 or -1, got {direction!r}")
    m = _skew_bracket_array(mu)
    n = m.shape[0]
    met0 = Metric(g0) if not isinstance(g0, Metric) else g0
    if met0.dim != n:
        raise ValidationError(
            f"metric dimension {met0.dim} does not match bracket dimension {n}")
    h0 = _as_form3(H0, n)
    cr = ce_differential(h0, m).norm_inf
    if cr > STRUCTURE_TOL:
        raise ValidationError(
            f"initial 3-form is not closed for the bracket (residual {cr:.3e})")
    y0 = np.concatenate([met0.entries.ravel(), h0.coeffs])

    def f(t, y):
        dg, dh = _grf_rhs_arrays(m, y[:n * n].reshape(n, n), y[n * n:], n)
        return direction * np.concatenate([dg.ravel(), dh])

    return n, y0, f


def _grf_state(y, n):
    """GrfState of a flat state; ValidationError if g is not positive definite."""
    return GrfState(g=Metric(y[:n * n].reshape(n, n)), H=KForm(n, 3, y[n * n:]))


def integrate_grf(mu, g0, H0, t_span, controls=None, direction=1):
    """Integrate the gauge-fixed flow from (g0, H0) over t_span.

    g0 must be positive definite and H0 closed for mu; positive
    definiteness is re-asserted at every accepted step and its loss raises
    NumericalError naming the last valid time.  direction=-1 integrates the
    time-reversed right-hand side, so the state recorded at clock time s is
    the flow state at signed time t_span[0] - (s - t_span[0]).
    """
    controls = controls if controls is not None else IntegratorControls()
    n, y0, f = _grf_setup(mu, g0, H0, direction)
    t0, t1 = (float(t_span[0]), float(t_span[1]))
    times, states = [], []

    def on_accept(t, y):
        try:
            state = _grf_state(y, n)
        except ValidationError:
            last = f" (last valid time t={times[-1]:.9g})" if times else ""
            raise NumericalError(
                f"metric degenerated at t={t:.9g}{last}") from None
        times.append(t)
        states.append(state)

    accepted, rejected = _integrate(f, t0, y0, t1, controls, on_accept)
    return Trajectory(times=np.array(times), states=tuple(states), kind="grf",
                      accepted=accepted, rejected=rejected)


def _candidate_bad(y, n):
    """Classify a trial state: None if usable, else a blowup reason."""
    if not np.all(np.isfinite(y)):
        return "norm"
    if float(np.max(np.abs(y))) > BLOWUP_NORM:
        return "norm"
    gmat = y[:n * n].reshape(n, n)
    sym = (gmat + gmat.T) / 2.0
    if float(np.min(np.linalg.eigvalsh(sym))) < EIG_FLOOR:
        return "metric-degenerate"
    return None


def blowup_time(mu, g0, H0, direction=-1, horizon=DEFAULT_HORIZON, controls=None):
    """Locate the singular time of the gauge-fixed flow in one time direction.

    Integrates with adaptive steps; a trial state is rejected as singular
    when it leaves the finite range, exceeds the magnitude threshold, or
    drops a metric eigenvalue under the floor.  The last good/bad interval
    is narrowed by step halving until it is shorter than bisect_tol, and
    the midpoint is reported.  STEP_FLOOR is checked only after an
    error-ratio rejection: when the shrunken retry step falls below it, the
    search stops with reason "step-underflow" at the last accepted time.
    Accepted steps are not checked, so they may shrink below the floor, to
    where s + h == s.  If nothing singular happens before the horizon, time
    is None and reason "horizon".
    """
    if not horizon > 0:
        raise ValidationError("horizon must be positive")
    controls = controls if controls is not None else IntegratorControls()
    n, y0, f = _grf_setup(mu, g0, H0, direction)
    f = _guarded(f)
    s, y = 0.0, y0
    h = min(INITIAL_STEP, horizon)
    steps = 0
    while s < horizon:
        steps += 1
        if steps > controls.max_steps:
            raise NumericalError(
                f"step budget {controls.max_steps} exhausted at |t|={s:.9g}")
        remaining = horizon - s
        landing = h >= remaining
        h_use = remaining if landing else h
        bad = None
        try:
            y_big, y_half = _pair_step(f, s, y, h_use)
        except _RhsFailure as e:
            bad = "metric-degenerate" if e.kind == "metric" else "norm"
        if bad is None:
            bad = _candidate_bad(y_half, n)
        if bad is not None:
            if h_use <= controls.bisect_tol:
                return BlowupReport(time=direction * (s + h_use / 2.0), reason=bad,
                                    t_last=direction * s, state=_grf_state(y, n))
            h = h_use / 2.0
            continue
        ratio = _error_ratio(y, y_big, y_half, controls)
        h = _next_step(h_use, ratio)
        if ratio <= 1.0:
            s = horizon if landing else s + h_use
            y = y_half
        elif h < STEP_FLOOR:
            return BlowupReport(time=direction * s, reason="step-underflow",
                                t_last=direction * s, state=_grf_state(y, n))
    return BlowupReport(time=None, reason="horizon", t_last=direction * horizon,
                        state=_grf_state(y, n))


# ---------------------------------------------------------------------------
# Heisenberg family sweep

def _heisenberg_bracket():
    m = np.zeros((3, 3, 3))
    m[0, 1, 2] = 1.0
    m[1, 0, 2] = -1.0
    return m


def tmin_sweep(a_values, t_long=SWEEP_T_LONG, horizon_back=10.0, controls=None):
    """Backward singular time and long-run forward state per family parameter.

    For each a: run blowup_time backward (horizon horizon_back) and a
    forward integration to t_long on the Heisenberg bracket with 3-form
    coefficient a and the identity initial metric.  Rows come back sorted
    by a; per-a failures land in the row status instead of raising.
    """
    avals = sorted(float(a) for a in a_values)
    if not avals:
        raise ValidationError("a_values must be nonempty")
    if not t_long > 0:
        raise ValidationError("t_long must be positive")
    if not horizon_back > 0:
        raise ValidationError("horizon_back must be positive")

    def run_one(a):
        mu = _heisenberg_bracket()
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
