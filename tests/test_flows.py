"""Bracket-flow and gauge-fixed flow integration, blowup search, sweep."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nilflow import (
    BlowupReport,
    GrfState,
    IntegratorControls,
    KForm,
    LieBracket,
    MAX_PROBLEM_DIM,
    Metric,
    NumericalError,
    PhiSpec,
    Trajectory,
    ValidationError,
    blowup_time,
    builtin_problem,
    ce_differential,
    emit_trajectory_csv,
    gbf_decay_bound_check,
    gbf_rhs,
    gl_action,
    grf_rhs,
    h_circ_h,
    h_squared_neutral,
    hodge_laplacian,
    integrate_gbf,
    integrate_grf,
    jacobi_residual,
    pi_form,
    pi_mu,
    rc_metric,
    read_trajectory_csv,
    ric_orthonormal,
    tmin_sweep,
    trajectory_column_labels,
    trajectory_from_columns,
)
from nilflow import flows

import oracles as oc

HEIS = oc.bracket_from(oc.HEIS3, 3)


def _h3_flux(a):
    return KForm.from_entries(3, 3, [((1, 2, 3), a)])


def _gbf_rows(*states):
    """Bracket-flow trajectory rows of (mu, packed H) pairs, laid out by the oracle."""
    n = states[0][0].shape[0]
    labels = trajectory_column_labels("gbf", n)
    return [oc.labelled_row(labels, n, mu=m, h=oc.dense_form(h, n, 3)) for m, h in states]


def _family_xy(traj):
    xs = np.array([st.mu[0, 1, 2] for st in traj.states])
    ys = np.array([st.H.coeffs[0] for st in traj.states])
    return xs, ys


# ---------------------------------------------------------------------------
# right-hand sides


def test_gbf_rhs_family_scalars():
    for a in (0.0, 0.5, 1.0, 2.0):
        dmu, dH = gbf_rhs("ric-h2", HEIS, _h3_flux(a))
        assert dmu[0, 1, 2] == pytest.approx(-1.5 - 0.5 * a * a, abs=1e-14)
        assert dmu[1, 0, 2] == pytest.approx(1.5 + 0.5 * a * a, abs=1e-14)
        stray = dmu.copy()
        stray[0, 1, 2] = stray[1, 0, 2] = 0.0
        assert np.max(np.abs(stray)) == 0.0
        assert dH.coeffs[0] == pytest.approx(-1.5 * a ** 3 - 0.5 * a, abs=1e-14)


def test_gbf_rhs_ric_spec_drops_flux_term():
    dmu, dH = gbf_rhs(PhiSpec.RIC, HEIS, _h3_flux(2.0))
    dmu0, _ = gbf_rhs(PhiSpec.RIC, HEIS, None)
    assert np.array_equal(dmu, dmu0)
    assert dmu[0, 1, 2] == pytest.approx(-1.5, abs=1e-14)
    # the 3-form is still transported along phi = Ric
    assert dH.coeffs[0] == pytest.approx(-1.0, abs=1e-14)


def _closed_3form(rng, m):
    """A random closed 3-form: a combination of the null space of d (oc.packed_ce)."""
    n3 = math.comb(m.shape[0], 3)
    d3 = oc.packed_ce(np.eye(n3), m, 3)
    _, s, vt = np.linalg.svd(d3)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size else 0
    null = vt[rank:].T  # at n = 3, d3 has no rows and every 3-form is closed
    return null @ rng.standard_normal(null.shape[1])


def _oracle_phi(spec, m, h):
    """phi of the bracket flow by the oracles: Riemann-tensor Ricci and an einsum for H^2."""
    n = m.shape[0]
    phi = oc.ricci_riemann(m, np.eye(n))
    if PhiSpec(spec) is PhiSpec.RIC_MINUS_QUARTER_HSQ:
        Hd = oc.dense_form(h, n, 3)
        phi = phi - 0.25 * np.einsum('ikl,jkl->ij', Hd, Hd)
    return phi


def test_gbf_rhs_is_minus_pi_of_phi(rng):
    for n, spec in itertools.product(range(3, MAX_PROBLEM_DIM + 1), PhiSpec):
        mu = oc.random_nilpotent(rng, n)
        h = _closed_3form(rng, mu.coeffs)
        H = KForm(n, 3, h)
        phi = _oracle_phi(spec, mu.coeffs, h)
        want_mu, want_h = -pi_mu(phi, mu), -pi_form(phi, H).coeffs
        dmu, dH = gbf_rhs(spec, mu, H)
        assert np.max(np.abs(dmu - want_mu)) <= 1e-12 * np.max(np.abs(want_mu))
        assert np.max(np.abs(dH.coeffs - want_h)) <= 1e-12 * np.max(np.abs(want_h))


def test_gbf_rhs_zero_data():
    # n = 1 has no bracket entries and no monomials, n = 2 no 3-forms
    for n, spec in itertools.product((1, 2, 3), PhiSpec):
        dmu, dH = gbf_rhs(spec, builtin_problem(f"abelian({n})").mu, None)
        assert dmu.shape == (n, n, n) and np.max(np.abs(dmu)) == 0.0
        assert dH.norm_inf == 0.0


def test_gbf_rhs_bad_spec():
    with pytest.raises(ValidationError):
        gbf_rhs("newton", HEIS, None)
    # a raw bracket is read as skew, so an array that is not skew is refused
    with pytest.raises(ValidationError):
        gbf_rhs("ric", np.ones((3, 3, 3)), None)


def test_grf_rhs_family_values():
    g1, g3, a = 2.0, 1.5, 0.7
    state = GrfState(Metric.diagonal([g1, g1, g3]), _h3_flux(a))
    dg, dH = grf_rhs(HEIS, state)
    assert dg[0, 0] == pytest.approx((a * a + g3 * g3) / (g1 * g3), abs=1e-13)
    assert dg[1, 1] == pytest.approx((a * a + g3 * g3) / (g1 * g3), abs=1e-13)
    assert dg[2, 2] == pytest.approx((a * a - g3 * g3) / (g1 * g1), abs=1e-13)
    off = dg - np.diag(np.diag(dg))
    assert np.max(np.abs(off)) <= 1e-14
    # the top-degree flux is harmonic for every metric in this family
    assert dH.norm_inf == 0.0


def test_grf_rhs_assembly(rng):
    G = Metric(oc.random_spd(rng, 3))
    H = _h3_flux(1.3)
    dg, dH = grf_rhs(HEIS, GrfState(G, H))
    expect = -2.0 * rc_metric(HEIS, G) + 0.5 * h_circ_h(H, G)
    assert np.allclose(dg, (expect + expect.T) / 2.0, atol=1e-12)
    lap = hodge_laplacian(H, HEIS, G)
    assert dH.allclose(-1.0 * lap, tol=1e-14)


def _oracle_grf_rhs(m, G, Hd):
    """(dg, dense dH) of the flow by the oracles: Riemann-tensor Ricci, an
    einsum for H o H, and Lap = d d* + d* d with d* = (-1)^(n(k+1)+1) star d star."""
    n = m.shape[0]
    Ginv = np.linalg.inv(G)
    hh = np.einsum('rl,st,irs,jlt->ij', Ginv, Ginv, Hd, Hd)
    dg = -2.0 * oc.ricci_riemann(m, G) + 0.5 * hh

    def codiff(w):
        k = w.ndim
        sign = (-1.0) ** (n * (k + 1) + 1)
        # the star of a top-degree form is a 0-form, whose d vanishes
        inner = oc.dense_star(w, G)
        d_inner = oc.dense_ce(inner, m) if np.ndim(inner) else np.zeros(n)
        return sign * oc.dense_star(d_inner, G)

    lap = oc.dense_ce(codiff(Hd), m) + codiff(oc.dense_ce(Hd, m))
    return dg, -lap


def test_grf_rhs_matches_oracle_where_the_laplacian_is_not_zero(rng):
    for n in (4, 5, 6, 7):
        m = oc.random_nilpotent(rng, n).coeffs
        G = oc.random_spd(rng, n)
        for h in (_closed_3form(rng, m), oc.random_form_coeffs(rng, n, 3)):
            dg, dH = grf_rhs(m, GrfState(Metric(G), KForm(n, 3, h)))
            want_dg, want_dh = _oracle_grf_rhs(m, G, oc.dense_form(h, n, 3))
            want_dh = np.array([want_dh[T] for T in itertools.combinations(range(n), 3)])
            assert np.max(np.abs(want_dh)) > 1e-2  # the Laplacian term is exercised
            assert np.max(np.abs(dg - want_dg)) <= 1e-12 * np.max(np.abs(want_dg))
            assert np.max(np.abs(dH.coeffs - want_dh)) <= 1e-12 * np.max(np.abs(want_dh))


def test_grf_rhs_flat_and_bare():
    dg, dH = grf_rhs(LieBracket.zero(3),
                     GrfState(Metric.identity(3), KForm.zero(3, 3)))
    assert np.max(np.abs(dg)) == 0.0 and dH.norm_inf == 0.0
    dg, dH = grf_rhs(HEIS, GrfState(Metric.identity(3), KForm.zero(3, 3)))
    assert np.allclose(dg, np.diag([1.0, 1.0, -1.0]), atol=1e-14)


def test_grf_rhs_validation():
    with pytest.raises(ValidationError):
        grf_rhs(HEIS, (Metric.identity(3), KForm.zero(3, 3)))
    with pytest.raises(ValidationError):
        grf_rhs(HEIS, GrfState(Metric.identity(4), KForm.zero(4, 3)))


# ---------------------------------------------------------------------------
# integrator controls


def test_integrator_controls_validation():
    IntegratorControls(rtol=1e-6, atol=1e-9)  # fine
    with pytest.raises(ValidationError):
        IntegratorControls(rtol=0.0)
    with pytest.raises(ValidationError):
        IntegratorControls(atol=-1e-9)
    with pytest.raises(ValidationError):
        IntegratorControls(fixed_step=-0.1)
    with pytest.raises(ValidationError):
        IntegratorControls(max_steps=0)
    # a non-finite control makes the error ratio NaN or never leaves t0
    with pytest.raises(ValidationError):
        IntegratorControls(rtol=math.inf)
    with pytest.raises(ValidationError):
        IntegratorControls(atol=math.nan)
    with pytest.raises(ValidationError):
        IntegratorControls(fixed_step=math.inf)


# ---------------------------------------------------------------------------
# bracket flow integration


def test_integrate_gbf_family_closed_form():
    traj = integrate_gbf("ric-h2", HEIS, _h3_flux(1.0), (0.0, 10.0))
    xs, ys = _family_xy(traj)
    exact = (1.0 + 4.0 * traj.times) ** -0.5
    assert np.max(np.abs(xs - exact) / exact) <= 1e-6
    assert np.max(np.abs(ys - exact) / exact) <= 1e-6
    assert traj.times[0] == 0.0 and traj.times[-1] == 10.0


def test_integrate_gbf_pure_ricci_closed_form():
    traj = integrate_gbf("ric", HEIS, None, (0.0, 10.0))
    xs, ys = _family_xy(traj)
    exact = (1.0 + 3.0 * traj.times) ** -0.5
    assert np.max(np.abs(xs - exact) / exact) <= 1e-6
    assert np.max(np.abs(ys)) == 0.0


def test_integrate_gbf_initial_state_kept_bitwise():
    traj = integrate_gbf("ric-h2", HEIS, _h3_flux(0.5), (0.0, 1.0))
    assert np.array_equal(traj.states[0].mu, HEIS.coeffs)
    assert np.array_equal(traj.states[0].H.coeffs, [0.5])
    assert np.all(np.diff(traj.times) > 0)
    assert traj.accepted == len(traj.times) - 1
    assert traj.rejected >= 0
    assert traj.kind == "gbf" and traj.dim == 3
    assert traj.final is traj.states[-1]


def test_integrate_gbf_keeps_structure(rng):
    mu = oc.random_nilpotent(rng, 4)
    H = ce_differential(KForm(4, 2, rng.standard_normal(6)), mu)
    traj = integrate_gbf("ric-h2", mu, H, (0.0, 1.0))
    for st in traj.states:
        assert jacobi_residual(st.mu) <= 1e-7
        assert ce_differential(st.H, st.mu).norm_inf <= 1e-7


def test_integrate_gbf_matches_scipy(rng):
    mu = oc.random_nilpotent(rng, 4)
    H = ce_differential(KForm(4, 2, rng.standard_normal(6)), mu)
    traj = integrate_gbf("ric-h2", mu, H, (0.0, 0.5))

    n = 4
    y0 = np.concatenate([mu.coeffs.ravel(), H.coeffs])

    def f(t, y):
        m, h = y[:n ** 3].reshape(n, n, n), y[n ** 3:]
        phi = _oracle_phi("ric-h2", m, h)
        return np.concatenate([-pi_mu(phi, m).ravel(), -pi_form(phi, KForm(n, 3, h)).coeffs])

    sol = solve_ivp(f, (0.0, 0.5), y0, rtol=1e-11, atol=1e-13,
                    dense_output=False)
    ref_mu = sol.y[:n ** 3, -1].reshape(n, n, n)
    ref_H = sol.y[n ** 3:, -1]
    scale = np.max(np.abs(ref_mu))
    assert np.max(np.abs(traj.final.mu - ref_mu)) <= 1e-7 * scale
    assert np.max(np.abs(traj.final.H.coeffs - ref_H)) <= 1e-7 * max(scale, 1.0)


def test_adaptive_steps_share_their_first_stage(monkeypatch):
    """An adaptive run evaluates the RHS once, then 6 times per attempted step; a fixed step 4 times.

    A GRF evaluation makes one ric_orthonormal call and a bracket-flow one makes none, so one
    counter on both ric_orthonormal and the bracket-flow kernel counts each evaluation once.
    """
    calls = [0]

    def counting(m):
        calls[0] += 1
        return ric_orthonormal(m)

    def counting_kernel(spec, n, kernel=flows._gbf_kernel):
        rhs = kernel(spec, n)

        def counted(y):
            calls[0] += 1
            return rhs(y)
        return counted

    monkeypatch.setattr("nilflow.flows.ric_orthonormal", counting)
    monkeypatch.setattr(flows, "_gbf_kernel", counting_kernel)
    runs = (lambda t, c=None: integrate_grf(HEIS, np.eye(3), _h3_flux(2.0), (0.0, t), c),
            lambda t, c=None: integrate_gbf("ric-h2", HEIS, _h3_flux(2.0), (0.0, t), c))
    for run in runs:
        calls[0] = 0
        traj = run(50.0)
        assert traj.rejected >= 1  # a retry reuses its k1 too
        assert calls[0] == 1 + 6 * (traj.accepted + traj.rejected)
        calls[0] = 0
        traj = run(1.0, IntegratorControls(fixed_step=0.1))
        assert traj.accepted == 10 and calls[0] == 4 * 10


def test_dormand_prince_tableau_order_conditions():
    """c_i = sum_j a_ij; b meets the 17 order-5 tree conditions, the embedded weights the 8 of order 4.

    A mistyped coefficient still integrates, only less accurately, so no flow test would notice it.
    """
    A = flows._DP_MATRIX  # the arrays _dp_step multiplies its stacked stages by
    assert not np.any(np.triu(A))  # explicit: stage i reads stages before it only
    for i, row in enumerate(flows._DP_ROWS):
        assert np.array_equal(row, A[i, :i])
    c = np.array(flows._DP_C)
    assert np.max(np.abs(A.sum(axis=1) - c)) <= 1e-15
    b = A[6]  # the last stage is taken at the 5th-order state (FSAL), b_7 = 0
    b_hat = b - flows._DP_ERROR
    Ac, Ac2, AAc = A @ c, A @ c ** 2, A @ (A @ c)
    order4 = [(np.ones(7), 1.0), (c, 1 / 2), (c ** 2, 1 / 3), (Ac, 1 / 6),
              (c ** 3, 1 / 4), (c * Ac, 1 / 8), (Ac2, 1 / 12), (AAc, 1 / 24)]
    order5 = order4 + [
        (c ** 4, 1 / 5), (c ** 2 * Ac, 1 / 10), (c * Ac2, 1 / 15), (c * AAc, 1 / 30),
        (Ac ** 2, 1 / 20), (A @ c ** 3, 1 / 20), (A @ (c * Ac), 1 / 40), (A @ Ac2, 1 / 60),
        (A @ AAc, 1 / 120)]
    assert len(order4) == 8 and len(order5) == 17
    for v, want in order5:
        assert abs(b @ v - want) <= 1e-15
    for v, want in order4:
        assert abs(b_hat @ v - want) <= 1e-15


def _undefined_past(edge):
    """dy/dt = 1 while y < edge, NaN beyond: a kernel that fails without raising."""
    return lambda y: np.ones_like(y) if y[0] < edge else np.full_like(y, np.nan)


def test_adaptive_trial_with_a_nan_stage_is_rejected_and_shrinks(monkeypatch):
    """No stage is tested for finiteness; a NaN reaches the trial's error ratio, which rejects it."""
    trials = []  # (y, h, ratio) of every Dormand-Prince trial
    dp_step = flows._dp_step

    def recording(f, y, h, k1, controls):
        y1, k7, ratio = dp_step(f, y, h, k1, controls)
        trials.append((y[0], h, ratio))
        return y1, k7, ratio

    monkeypatch.setattr(flows, "_dp_step", recording)
    times = []
    with pytest.raises(NumericalError, match="step size underflow"):
        flows._integrate(_undefined_past(0.47), 0.0, np.zeros(1), 1.0, IntegratorControls(),
                         lambda t, y: times.append(t))
    failed = [i for i, (_, _, ratio) in enumerate(trials[:-1]) if math.isnan(ratio)]
    assert len(failed) >= 10
    for i in failed:
        y, h, _ = trials[i]
        assert trials[i + 1][:2] == (y, h * flows.MIN_SHRINK)  # rejected: same state, smaller step
    assert 0.47 - 1e-9 < times[-1] < 0.47  # the steps shrank toward the edge, not across it


def test_fixed_step_nan_stage_raises():
    with pytest.raises(NumericalError, match="left the flow's domain after the last valid time t=0.4$"):
        flows._integrate(_undefined_past(0.47), 0.0, np.zeros(1), 1.0,
                         IntegratorControls(fixed_step=0.1), lambda t, y: None)


def test_integrate_gbf_checks_closedness_on_accepted_states(monkeypatch):
    """A kernel that pushes H off closedness at n = 4 stops the run at the first accepted state."""
    mu = LieBracket.from_entries(4, [(1, 2, 2, 1.0)])  # Jacobi holds; d_mu e^234 != 0
    split = math.comb(4, 2) * 4
    push = np.zeros(split + math.comb(4, 3))
    push[-1] = 1.0  # H grows along e^234, the last packed 3-form; mu stays put
    monkeypatch.setattr(flows, "_gbf_kernel", lambda spec, n: lambda y: push)
    with pytest.raises(NumericalError, match="closedness residual .* at t="):
        integrate_gbf("ric", mu, None, (0.0, 1.0))


def test_integrate_gbf_validation(rng):
    with pytest.raises(ValidationError):
        integrate_gbf("ric", oc.random_skew_bracket(rng, 3), None, (0.0, 1.0))
    mu = LieBracket.from_entries(4, [(1, 2, 2, 1.0)])
    with pytest.raises(ValidationError):
        integrate_gbf("ric", mu, KForm.from_entries(4, 3, [((2, 3, 4), 1.0)]),
                      (0.0, 1.0))
    with pytest.raises(ValidationError):
        integrate_gbf("ric", HEIS, None, (1.0, 0.0))
    with pytest.raises(ValidationError):
        integrate_gbf("ric", HEIS, None, (0.0, math.inf))


def test_gbf_decay_bound_holds_on_family():
    for a in (0.0, 0.5, 1.0, 2.0):
        traj = integrate_gbf("ric-h2", HEIS, _h3_flux(a), (0.0, 5.0))
        assert gbf_decay_bound_check(traj, a) is True


def test_gbf_heisenberg_family_keeps_its_zero_entries_exactly():
    """Every bracket entry but mu_12_3 stays exactly 0; gbf_decay_bound_check allows 1e-8."""
    labels = trajectory_column_labels("gbf", 3)
    stray = [c for c, label in enumerate(labels) if label.startswith("mu_") and label != "mu_12_3"]
    for a in (0.0, 0.5, 1.0, 2.0, 4.0):
        traj = integrate_gbf("ric-h2", HEIS, _h3_flux(a), (0.0, 50.0))
        assert len(stray) == 8 and np.all(traj.rows[:, stray] == 0.0)


def test_gbf_decay_bound_detects_violation():
    a = 1.0
    frozen = (HEIS.coeffs, [a])
    traj = Trajectory(times=np.array([0.0, 1.0]), rows=_gbf_rows(frozen, frozen),
                      kind="gbf")
    assert gbf_decay_bound_check(traj, a) is False


def test_gbf_decay_bound_validation():
    grf_traj = integrate_grf(HEIS, Metric.identity(3), _h3_flux(1.0), (0.0, 0.1))
    with pytest.raises(ValidationError):
        gbf_decay_bound_check(grf_traj, 1.0)
    off = np.zeros((4, 4, 4))
    off[0, 1, 2] = 1.0
    off[1, 0, 2] = -1.0
    traj4 = Trajectory(times=np.array([0.0]), rows=_gbf_rows((off, np.zeros(4))),
                       kind="gbf")
    with pytest.raises(ValidationError):
        gbf_decay_bound_check(traj4, 0.0)
    stray = HEIS.coeffs.copy()
    stray[0, 2, 1] = 0.4
    stray[2, 0, 1] = -0.4
    bad = Trajectory(times=np.array([0.0]), rows=_gbf_rows((stray, [0.0])),
                     kind="gbf")
    with pytest.raises(ValidationError):
        gbf_decay_bound_check(bad, 0.0)
    scaled = Trajectory(times=np.array([0.0]), rows=_gbf_rows((2.0 * HEIS.coeffs, [0.0])),
                        kind="gbf")
    with pytest.raises(ValidationError):
        gbf_decay_bound_check(scaled, 0.0)


# ---------------------------------------------------------------------------
# gauge-fixed flow integration


def test_integrate_grf_closed_form_a0():
    traj = integrate_grf(HEIS, Metric.identity(3), _h3_flux(0.0), (0.0, 10.0))
    for t, st in zip(traj.times, traj.states):
        g1 = (1.0 + 3.0 * t) ** (1.0 / 3.0)
        g3 = (1.0 + 3.0 * t) ** (-1.0 / 3.0)
        G = st.g.entries
        assert abs(G[0, 0] - g1) <= 1e-6 * g1
        assert abs(G[1, 1] - g1) <= 1e-6 * g1
        assert abs(G[2, 2] - g3) <= 1e-6 * g3


def test_integrate_grf_closed_form_a1():
    traj = integrate_grf(HEIS, Metric.identity(3), _h3_flux(1.0), (0.0, 10.0))
    for t, st in zip(traj.times, traj.states):
        g1 = math.sqrt(1.0 + 4.0 * t)
        G = st.g.entries
        assert abs(G[0, 0] - g1) <= 1e-6 * g1
        assert abs(G[1, 1] - g1) <= 1e-6 * g1
        assert abs(G[2, 2] - 1.0) <= 1e-6


def test_integrate_grf_flux_and_symmetry_invariants():
    traj = integrate_grf(HEIS, Metric.identity(3), _h3_flux(2.0), (0.0, 10.0))
    for st in traj.states:
        assert np.array_equal(st.H.coeffs, [2.0])  # harmonic flux stays put
        G = st.g.entries
        assert abs(G[0, 0] - G[1, 1]) <= 1e-10
        assert np.max(np.abs(G - np.diag(np.diag(G)))) <= 1e-12


def test_integrate_grf_matches_scipy():
    a = 0.5
    traj = integrate_grf(HEIS, Metric.identity(3), _h3_flux(a), (0.0, 5.0))

    def f(t, y):
        state = GrfState(Metric(y[:9].reshape(3, 3)), KForm(3, 3, y[9:]))
        dg, dH = grf_rhs(HEIS, state)
        return np.concatenate([dg.ravel(), dH.coeffs])

    y0 = np.concatenate([np.eye(3).ravel(), [a]])
    sol = solve_ivp(f, (0.0, 5.0), y0, rtol=1e-11, atol=1e-13)
    ref = sol.y[:9, -1].reshape(3, 3)
    assert np.max(np.abs(traj.final.g.entries - ref)) <= 1e-7


@pytest.mark.parametrize("a", [0.5, 2.0, 4.0])
def test_heisenberg_grf_exact_oracle_matches_scipy(a):
    # the oracle pinned by acceptance test 08, checked without nilflow:
    # against the reduced ODE for (x, z) = (g1, g3) and its t -> oo limits
    def f(t, y):
        x, z = y
        return [(z * z + a * a) / (x * z), (a * a - z * z) / (x * x)]

    ts = [0.5, 5.0, 50.0]
    sol = solve_ivp(f, (0.0, 50.0), [1.0, 1.0], t_eval=ts, rtol=1e-11, atol=1e-13)
    for t, x_ref, z_ref in zip(ts, *sol.y):
        x, z = oc.heisenberg_grf_exact(a, t)
        assert abs(x - x_ref) <= 1e-8 * x_ref
        assert abs(z - z_ref) <= 1e-8 * z_ref
    assert oc.heisenberg_grf_exact(a, 0.0) == (1.0, 1.0)
    K = abs(1.0 - a * a)
    t = 1e6
    x, z = oc.heisenberg_grf_exact(a, t)
    assert abs(math.sqrt(t) * abs(z - a) / (K / (4.0 * math.sqrt(a))) - 1.0) <= 3e-4
    assert abs(x / (2.0 * math.sqrt(a * t)) - 1.0) <= 1e-5

    # T_min: the backward run in the clock ds/dtau = x^2 z/(1 + z^2), where the
    # collapse takes infinite tau and the backward time s converges
    def back(tau, y):
        x, z, _ = y
        c = 1.0 / (1.0 + z * z)
        return [-x * (z * z + a * a) * c, z * (z * z - a * a) * c, x * x * z * c]

    sol = solve_ivp(back, (0.0, 40.0), [1.0, 1.0, 0.0], method="DOP853",
                    rtol=1e-13, atol=1e-16)
    assert abs(-sol.y[2, -1] - oc.heisenberg_tmin_exact(a)) <= 1e-12


@pytest.mark.parametrize("a", [0.5, 2.0, 4.0])
def test_integrate_grf_tracks_exact_solution(a):
    # work-precision at the default controls: every accepted state, to t = 50
    traj = integrate_grf(HEIS, Metric.identity(3), _h3_flux(a), (0.0, 50.0))
    for t, st in zip(traj.times, traj.states):
        x, z = oc.heisenberg_grf_exact(a, t)
        G = st.g.entries
        assert abs(G[0, 0] - x) <= 2e-9 * x
        assert abs(G[2, 2] - z) <= 2e-9 * z


def test_integrate_grf_backward_hits_singularity():
    with pytest.raises(NumericalError):
        integrate_grf(HEIS, Metric.identity(3), _h3_flux(0.0), (0.0, 1.0),
                      direction=-1)
    # x = g_1 -> 0 while the state stays bounded: the stall names the metric
    with pytest.raises(NumericalError, match="metric"):
        integrate_grf(HEIS, Metric.identity(3), _h3_flux(1.0), (0.0, 1.0),
                      direction=-1)


# skew, with Jacobi residual 0.93: no Lie bracket
NOT_LIE = oc.random_skew_bracket(np.random.default_rng(0), 3)


def test_integrate_grf_validation():
    with pytest.raises(ValidationError):
        integrate_grf(HEIS, Metric.identity(3), _h3_flux(0.0), (0.0, 1.0),
                      direction=0)
    with pytest.raises(ValidationError):
        integrate_grf(HEIS, Metric.identity(4), KForm.zero(4, 3), (0.0, 1.0))
    mu = LieBracket.from_entries(4, [(1, 2, 2, 1.0)])
    with pytest.raises(ValidationError):
        integrate_grf(mu, Metric.identity(4),
                      KForm.from_entries(4, 3, [((2, 3, 4), 1.0)]), (0.0, 1.0))
    with pytest.raises(ValidationError):
        integrate_grf(HEIS, -np.eye(3), _h3_flux(0.0), (0.0, 1.0))
    with pytest.raises(ValidationError, match="initial bracket violates Jacobi"):
        integrate_grf(NOT_LIE, Metric.identity(3), None, (0.0, 0.1))
    for t_span in ((0.0, math.nan), (math.nan, 1.0), (-math.inf, 1.0)):
        with pytest.raises(ValidationError):
            integrate_grf(HEIS, Metric.identity(3), _h3_flux(1.0), t_span)


def test_integrate_grf_fixed_step_grid():
    controls = IntegratorControls(fixed_step=0.3)
    traj = integrate_grf(HEIS, Metric.identity(3), _h3_flux(1.0), (0.0, 1.0),
                         controls=controls)
    assert traj.times[-1] == 1.0
    assert len(traj.times) == 5  # 0, .3, .6, .9, 1
    assert traj.rejected == 0
    g1 = math.sqrt(5.0)
    assert abs(traj.final.g.entries[0, 0] - g1) <= 1e-3


def test_fixed_step_respects_max_steps():
    # 10 steps of 0.1 over (0, 1), counted against the budget before stepping
    def run(controls):
        return integrate_grf(HEIS, Metric.identity(3), _h3_flux(1.0), (0.0, 1.0),
                             controls=controls)

    with pytest.raises(NumericalError, match="step budget 5 exhausted"):
        run(IntegratorControls(fixed_step=0.1, max_steps=5))
    assert run(IntegratorControls(fixed_step=0.1, max_steps=10)).accepted == 10
    with pytest.raises(NumericalError, match="step budget"):  # span / h overflows to inf
        run(IntegratorControls(fixed_step=5e-324))


def test_fixed_step_lands_on_t_end():
    # a positive span below one step still takes a step, and the last step ends on t_end
    for t_end, steps in ((1e-13, 1), (3.0 + 1e-13, 3)):
        traj = integrate_grf(HEIS, Metric.identity(3), _h3_flux(1.0), (0.0, t_end),
                             controls=IntegratorControls(fixed_step=1.0))
        assert traj.accepted == steps
        assert traj.times[-1] == t_end


def test_final_builds_only_the_last_state(monkeypatch):
    traj = integrate_grf(HEIS, Metric.identity(3), _h3_flux(1.0), (0.0, 50.0))
    built = []
    init = Metric.__post_init__
    monkeypatch.setattr(Metric, "__post_init__", lambda self: built.append(self) or init(self))
    final = traj.final
    assert len(built) == 1 and len(traj.rows) > 2
    assert np.array_equal(final.g.entries[0], traj.rows[-1][[0, 3, 4]])
    assert traj.states[-1] is final


def test_fixed_step_order_of_convergence():
    exact = math.sqrt(5.0)
    errs = []
    for h in (2e-2, 1e-2):
        traj = integrate_grf(HEIS, Metric.identity(3), _h3_flux(1.0),
                             (0.0, 1.0), controls=IntegratorControls(fixed_step=h))
        errs.append(abs(traj.final.g.entries[0, 0] - exact))
    ratio = errs[0] / errs[1]
    assert 12.8 <= ratio <= 19.2


# ---------------------------------------------------------------------------
# blowup search


def test_blowup_time_backward_family():
    rep = blowup_time(HEIS, Metric.identity(3), _h3_flux(0.0))
    assert rep.time is not None
    assert abs(rep.time + 1.0 / 3.0) <= 1e-8
    # x -> 0 and z -> oo at the same rate, so both labels are true
    assert rep.reason in ("norm", "metric-degenerate")
    assert rep.t_last <= 0.0
    rep = blowup_time(HEIS, Metric.identity(3), _h3_flux(1.0))
    assert abs(rep.time + 0.25) <= 1e-8
    assert rep.reason == "metric-degenerate"
    for a in (0.5, 2.0, 4.0):
        rep = blowup_time(HEIS, Metric.identity(3), _h3_flux(a))
        assert abs(rep.time - oc.heisenberg_tmin_exact(a)) <= 1e-8
        if a > 1.0:
            assert rep.reason == "metric-degenerate"


def test_blowup_time_forward_horizon():
    rep = blowup_time(HEIS, Metric.identity(3), _h3_flux(1.0), direction=1,
                      horizon=20.0)
    assert rep.time is None
    assert rep.reason == "horizon"
    assert rep.t_last == 20.0
    assert isinstance(rep.state, GrfState)


def test_blowup_time_backward_horizon_short():
    rep = blowup_time(HEIS, Metric.identity(3), _h3_flux(0.0), horizon=0.2)
    assert rep.time is None and rep.reason == "horizon"
    assert rep.t_last == -0.2


def test_blowup_time_loose_controls_stay_in_domain():
    # a loose step can jump past the collapse to an indefinite metric; the
    # search must reject it and keep closing in on T_min
    loose = IntegratorControls(rtol=1e-2, atol=1e-1)
    for a in (2.0, 4.0):
        rep = blowup_time(HEIS, Metric.identity(3), _h3_flux(a), controls=loose)
        assert abs(rep.time - oc.heisenberg_tmin_exact(a)) <= 1e-3
        assert rep.reason == "metric-degenerate"


def test_blowup_time_validation():
    with pytest.raises(ValidationError):
        blowup_time(HEIS, Metric.identity(3), _h3_flux(0.0), horizon=0.0)
    with pytest.raises(ValidationError):
        blowup_time(HEIS, Metric.identity(3), _h3_flux(0.0), horizon=math.inf)
    with pytest.raises(ValidationError):
        blowup_time(HEIS, Metric.identity(3), _h3_flux(0.0), direction=2)
    with pytest.raises(ValidationError):
        blowup_time(HEIS, Metric.identity(3), _h3_flux(0.0),
                    controls=IntegratorControls(fixed_step=0.01))
    with pytest.raises(ValidationError, match="initial bracket violates Jacobi"):
        blowup_time(NOT_LIE, Metric.identity(3), None)


# ---------------------------------------------------------------------------
# parameter sweep


CHEAP = IntegratorControls(rtol=1e-7, atol=1e-9)


def test_tmin_sweep_rows():
    rows = tmin_sweep([1.0, 0.0], t_long=2.0, horizon_back=1.0, controls=CHEAP)
    assert [r.a for r in rows] == [0.0, 1.0]
    assert all(r.status == "ok" for r in rows)
    assert abs(rows[0].t_min + 1.0 / 3.0) <= 1e-3
    assert abs(rows[1].t_min + 0.25) <= 1e-3
    assert rows[0].g1_long > 1.0
    assert rows[1].g3_limit == pytest.approx(1.0, abs=1e-6)


def test_tmin_sweep_even_in_a():
    rows = tmin_sweep([0.5, -0.5], t_long=1.0, horizon_back=1.0, controls=CHEAP)
    assert rows[0].t_min == pytest.approx(rows[1].t_min, abs=1e-5)
    assert rows[0].g3_limit == pytest.approx(rows[1].g3_limit, abs=1e-9)


def test_tmin_sweep_captures_errors():
    controls = IntegratorControls(max_steps=3)
    rows = tmin_sweep([0.0], t_long=1.0, horizon_back=1.0, controls=controls)
    assert rows[0].status.startswith("error:")
    assert rows[0].t_min is None
    assert math.isnan(rows[0].g3_limit)


def test_tmin_sweep_validation():
    with pytest.raises(ValidationError):
        tmin_sweep([])
    with pytest.raises(ValidationError):
        tmin_sweep([1.0], t_long=0.0)
    with pytest.raises(ValidationError):
        tmin_sweep([1.0], horizon_back=0.0)
    with pytest.raises(ValidationError):
        tmin_sweep([1.0], t_long=math.inf)
    with pytest.raises(ValidationError):
        tmin_sweep([1.0], horizon_back=math.nan)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tmin_sweep_rejects_non_finite_a(bad, monkeypatch):
    # checked before any run, and the message names the value
    monkeypatch.setattr(flows, "blowup_time", None)
    with pytest.raises(ValidationError, match=f"a_values must be finite, got {bad}"):
        tmin_sweep([0.0, bad, 1.0])


# ---------------------------------------------------------------------------
# trajectory column layout


def test_trajectory_column_labels():
    assert trajectory_column_labels("grf", 3) == [
        "g_1", "g_2", "g_3", "g_12", "g_13", "g_23", "H_123"]
    gbf = trajectory_column_labels("gbf", 3)
    assert gbf[:3] == ["mu_12_1", "mu_12_2", "mu_12_3"]
    assert gbf[-1] == "H_123"
    assert len(gbf) == 10
    # wide problems switch to underscore-separated index lists
    wide = trajectory_column_labels("grf", 10)
    assert "g_1_2" in wide and "H_1_2_3" in wide
    with pytest.raises(ValidationError):
        trajectory_column_labels("grf", 0)
    with pytest.raises(ValidationError):
        trajectory_column_labels("grf", 11)
    with pytest.raises(ValidationError):
        trajectory_column_labels("spin", 3)


def test_trajectory_round_trip_gbf():
    traj = integrate_gbf("ric-h2", HEIS, _h3_flux(1.0), (0.0, 1.0))
    back = trajectory_from_columns(traj.times, traj.column_labels(), traj.rows)
    assert back.kind == "gbf"
    assert np.array_equal(back.times, traj.times)
    for s1, s2 in zip(back.states, traj.states):
        assert np.array_equal(s1.mu, s2.mu)
        assert np.array_equal(s1.H.coeffs, s2.H.coeffs)
    assert back.accepted == len(traj.times) - 1 and back.rejected == 0


def test_trajectory_round_trip_grf():
    traj = integrate_grf(HEIS, Metric.diagonal([1.0, 1.0, 2.0]), _h3_flux(0.5),
                         (0.0, 1.0))
    back = trajectory_from_columns(traj.times, traj.column_labels(), traj.rows)
    assert back.kind == "grf"
    for s1, s2 in zip(back.states, traj.states):
        assert np.array_equal(s1.g.entries, s2.g.entries)
        assert np.array_equal(s1.H.coeffs, s2.H.coeffs)


def test_trajectory_columns_hold_the_entries_their_labels_name(rng, tmp_path):
    # a full metric, a bracket in a random basis and a generic closed H, so that no
    # entry a label names is zero or equal to its transposes by accident
    n = 5
    mu = oc.random_nilpotent(rng, n).coeffs
    G = Metric(oc.random_spd(rng, n)).entries
    h = _closed_3form(rng, mu)
    grf = integrate_grf(mu, G, h, (0.0, 0.05))
    gbf = integrate_gbf("ric-h2", mu, h, (0.0, 0.05))
    path = tmp_path / "grf.csv"
    emit_trajectory_csv(grf, path)
    back = read_trajectory_csv(path)
    assert np.array_equal(back.rows, grf.rows)
    hd = oc.dense_form(h, n, 3)
    # the first row holds the initial data bitwise
    assert np.array_equal(grf.rows[0], oc.labelled_row(grf.column_labels(), n, g=G, h=hd))
    assert np.array_equal(gbf.rows[0], oc.labelled_row(gbf.column_labels(), n, mu=mu, h=hd))
    for traj in (grf, gbf, back):
        assert len(traj.rows) > 2 and len(traj.states) == len(traj.rows)
        for row, st in zip(traj.rows, traj.states):
            typed = {"g": st.g.entries} if traj.kind == "grf" else {"mu": st.mu}
            want = oc.labelled_row(traj.column_labels(), n,
                                   h=oc.dense_form(st.H.coeffs, n, 3), **typed)
            assert np.array_equal(row, want)


def test_trajectory_from_columns_validation():
    with pytest.raises(ValidationError):
        trajectory_from_columns([0.0], [], np.zeros((1, 1)))  # [] is the 1-dim bracket flow
    with pytest.raises(ValidationError):
        trajectory_from_columns([0.0], ["g_1", "bogus"], np.zeros((1, 2)))
    labels = trajectory_column_labels("grf", 3)
    with pytest.raises(ValidationError):
        trajectory_from_columns([0.0], labels, np.zeros((1, 3)))
    gbf = trajectory_column_labels("gbf", 3)
    row = np.zeros((1, len(gbf)))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            trajectory_from_columns([0.0], gbf, np.where(np.arange(len(gbf)) == 2, bad, row))
        with pytest.raises(ValidationError):
            trajectory_from_columns([bad], gbf, row)


def test_trajectory_validation():
    st = [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]  # g = I, H = 0 on R^3
    with pytest.raises(ValidationError):
        Trajectory(times=np.array([1.0, 0.5]), rows=(st, st), kind="grf")
    with pytest.raises(ValidationError):
        Trajectory(times=np.array([0.0]), rows=(st, st), kind="grf")
    with pytest.raises(ValidationError):
        Trajectory(times=np.array([0.0]), rows=(st,), kind="banana")
    with pytest.raises(ValidationError):
        Trajectory(times=np.array([0.0]), rows=(st,), kind="gbf")
    with pytest.raises(ValidationError):
        Trajectory(times=np.array([]), rows=(), kind="grf")
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError):
            Trajectory(times=np.array([0.0, bad]), rows=(st, st), kind="grf")
        with pytest.raises(ValidationError):
            Trajectory(times=np.array([0.0]), rows=([bad] + st[1:],), kind="grf")
    with pytest.raises(ValidationError):  # g_12 = 2: not positive definite
        Trajectory(times=np.array([0.0]), rows=(st[:3] + [2.0] + st[4:],), kind="grf")
