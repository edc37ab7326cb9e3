"""Bracket-flow and gauge-fixed flow integration, blowup search, sweep."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nilflow import (
    BlowupReport,
    BracketState,
    GrfState,
    IntegratorControls,
    KForm,
    LieBracket,
    Metric,
    NumericalError,
    PhiSpec,
    Trajectory,
    ValidationError,
    blowup_time,
    ce_differential,
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
    ric_orthonormal,
    tmin_sweep,
    trajectory_column_labels,
    trajectory_from_columns,
)

import oracles as oc

HEIS = oc.bracket_from(oc.HEIS3, 3)


def _h3_flux(a):
    return KForm.from_entries(3, 3, [((1, 2, 3), a)])


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


def test_gbf_rhs_is_minus_pi_of_phi(rng):
    mu = oc.random_nilpotent(rng, 4)
    H = ce_differential(KForm(4, 2, rng.standard_normal(6)), mu)
    phi = ric_orthonormal(mu) - 0.25 * h_squared_neutral(H)
    dmu, dH = gbf_rhs("ric-h2", mu, H)
    assert np.allclose(dmu, -pi_mu(phi, mu), atol=1e-12)
    assert dH.allclose(-1.0 * pi_form(phi, H), tol=1e-12)


def test_gbf_rhs_zero_data():
    dmu, dH = gbf_rhs("ric", LieBracket.zero(3), None)
    assert np.max(np.abs(dmu)) == 0.0
    assert dH.norm_inf == 0.0


def test_gbf_rhs_bad_spec():
    with pytest.raises(ValidationError):
        gbf_rhs("newton", HEIS, None)


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
        n3 = math.comb(n, 3)
        d3 = np.column_stack([oc.packed_ce(e, m, 3) for e in np.eye(n3)])
        _, s, vt = np.linalg.svd(d3)
        null = vt[int(np.sum(s > 1e-10 * s[0])):].T  # the closed 3-forms
        closed = null @ rng.standard_normal(null.shape[1])
        for h in (closed, oc.random_form_coeffs(rng, n, 3)):
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
    assert traj.step_stats == (traj.accepted, traj.rejected)
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
        m = y[:n ** 3].reshape(n, n, n)
        dmu, dH = gbf_rhs("ric-h2", m, y[n ** 3:])
        return np.concatenate([dmu.ravel(), dH.coeffs])

    sol = solve_ivp(f, (0.0, 0.5), y0, rtol=1e-11, atol=1e-13,
                    dense_output=False)
    ref_mu = sol.y[:n ** 3, -1].reshape(n, n, n)
    ref_H = sol.y[n ** 3:, -1]
    scale = np.max(np.abs(ref_mu))
    assert np.max(np.abs(traj.final.mu - ref_mu)) <= 1e-7 * scale
    assert np.max(np.abs(traj.final.H.coeffs - ref_H)) <= 1e-7 * max(scale, 1.0)


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


def test_gbf_decay_bound_detects_violation():
    a = 1.0
    frozen = BracketState(mu=HEIS.coeffs, H=_h3_flux(a))
    traj = Trajectory(times=np.array([0.0, 1.0]), states=(frozen, frozen),
                      kind="gbf")
    assert gbf_decay_bound_check(traj, a) is False


def test_gbf_decay_bound_validation():
    grf_traj = integrate_grf(HEIS, Metric.identity(3), _h3_flux(1.0), (0.0, 0.1))
    with pytest.raises(ValidationError):
        gbf_decay_bound_check(grf_traj, 1.0)
    off = np.zeros((4, 4, 4))
    off[0, 1, 2] = 1.0
    off[1, 0, 2] = -1.0
    traj4 = Trajectory(times=np.array([0.0]),
                       states=(BracketState(mu=off, H=KForm(4, 3, np.zeros(4))),),
                       kind="gbf")
    with pytest.raises(ValidationError):
        gbf_decay_bound_check(traj4, 0.0)
    stray = HEIS.coeffs.copy()
    stray[0, 2, 1] = 0.4
    stray[2, 0, 1] = -0.4
    bad = Trajectory(times=np.array([0.0]),
                     states=(BracketState(mu=stray, H=_h3_flux(0.0)),),
                     kind="gbf")
    with pytest.raises(ValidationError):
        gbf_decay_bound_check(bad, 0.0)
    scaled = Trajectory(times=np.array([0.0]),
                        states=(BracketState(mu=2.0 * HEIS.coeffs, H=_h3_flux(0.0)),),
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


def test_integrate_grf_backward_hits_singularity():
    with pytest.raises(NumericalError):
        integrate_grf(HEIS, Metric.identity(3), _h3_flux(0.0), (0.0, 1.0),
                      direction=-1)
    # x = g_1 -> 0 while the state stays bounded: the stall names the metric
    with pytest.raises(NumericalError, match="metric"):
        integrate_grf(HEIS, Metric.identity(3), _h3_flux(1.0), (0.0, 1.0),
                      direction=-1)


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
    back = trajectory_from_columns(traj.times, traj.column_labels(),
                                   traj.column_matrix())
    assert back.kind == "gbf"
    assert np.array_equal(back.times, traj.times)
    for s1, s2 in zip(back.states, traj.states):
        assert np.array_equal(s1.mu, s2.mu)
        assert np.array_equal(s1.H.coeffs, s2.H.coeffs)
    assert back.accepted == len(traj.times) - 1 and back.rejected == 0


def test_trajectory_round_trip_grf():
    traj = integrate_grf(HEIS, Metric.diagonal([1.0, 1.0, 2.0]), _h3_flux(0.5),
                         (0.0, 1.0))
    back = trajectory_from_columns(traj.times, traj.column_labels(),
                                   traj.column_matrix())
    assert back.kind == "grf"
    for s1, s2 in zip(back.states, traj.states):
        assert np.array_equal(s1.g.entries, s2.g.entries)
        assert np.array_equal(s1.H.coeffs, s2.H.coeffs)


def test_trajectory_from_columns_validation():
    with pytest.raises(ValidationError):
        trajectory_from_columns([0.0], [], np.zeros((1, 0)))
    with pytest.raises(ValidationError):
        trajectory_from_columns([0.0], ["g_1", "bogus"], np.zeros((1, 2)))
    labels = trajectory_column_labels("grf", 3)
    with pytest.raises(ValidationError):
        trajectory_from_columns([0.0], labels, np.zeros((1, 3)))


def test_trajectory_validation():
    st = GrfState(Metric.identity(3), KForm.zero(3, 3))
    with pytest.raises(ValidationError):
        Trajectory(times=np.array([1.0, 0.5]), states=(st, st), kind="grf")
    with pytest.raises(ValidationError):
        Trajectory(times=np.array([0.0]), states=(st, st), kind="grf")
    with pytest.raises(ValidationError):
        Trajectory(times=np.array([0.0]), states=(st,), kind="banana")
    with pytest.raises(ValidationError):
        Trajectory(times=np.array([0.0]), states=(st,), kind="gbf")
    with pytest.raises(ValidationError):
        Trajectory(times=np.array([]), states=(), kind="grf")
