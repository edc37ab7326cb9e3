"""Acceptance suite: the numbered quantitative guarantees of the package.

One test per numbered guarantee, asserted at the stated tolerance; the
terminal summary prints one ACCEPTANCE line per test.  Runtime bounds use
the best of several repeats after a warmup call so scheduler noise cannot
produce spurious failures.
"""

import math
from time import perf_counter

import numpy as np
import pytest

from nilflow import (
    IntegratorControls,
    KForm,
    LieBracket,
    Metric,
    blowup_time,
    ce_differential,
    codifferential,
    dorfman_jacobi_residual,
    dorfman_total_skew_residual,
    form_inner,
    gbf_decay_bound_check,
    hodge_star,
    integrate_gbf,
    integrate_grf,
    jacobi_residual,
    ric_orthonormal,
    soliton_fit,
    tmin_sweep,
)

import oracles as oc

HEIS = oc.bracket_from(oc.HEIS3, 3)


def _flux(a):
    return KForm(3, 3, np.array([float(a)]))


def _theta(t3):
    return KForm.from_entries(3, 1, [((3,), t3)])


def _best_time(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def gbf_runs():
    return {a: integrate_gbf("ric-h2", HEIS, _flux(a), (0.0, 10.0))
            for a in (0.0, 0.5, 1.0, 2.0)}


@pytest.fixture(scope="module")
def grf_runs():
    out = {}
    for a in (0.0, 1.0):
        out[a] = integrate_grf(HEIS, Metric.identity(3), _flux(a), (0.0, 10.0))
    for a in (0.5, 2.0):
        out[a] = integrate_grf(HEIS, Metric.identity(3), _flux(a), (0.0, 50.0))
    return out


@pytest.fixture(scope="module")
def sweep_rows():
    return tmin_sweep([0.0, 1.0, -1.0, 4.0, -4.0], t_long=1.0, horizon_back=1.0)


def test_01_heisenberg_ricci_matrix():
    ric = ric_orthonormal(HEIS)
    assert np.max(np.abs(ric - np.diag([-0.5, -0.5, 0.5]))) <= 1e-14
    assert _best_time(lambda: ric_orthonormal(HEIS)) < 1e-3


def test_02_soliton_recovery_grid():
    g = Metric.identity(3)
    soliton_fit(HEIS, g, _flux(1.0), _theta(1.0))  # warm
    for a in (0.0, 0.5, 1.0, 2.0):
        for t3 in (0.0, 1.0, -3.0):
            H, th = _flux(a), _theta(t3)
            sol = soliton_fit(HEIS, g, H, th)
            assert abs(sol.lam - (-(3.0 + a * a) / 2.0)) <= 1e-9
            assert np.max(np.abs(sol.D - np.diag([1.0, 1.0, 2.0]))) <= 1e-9
            assert abs(sol.omega.component((0, 1)) - (-0.5 * t3 * (1.0 + a))) <= 1e-9
            assert sol.residual_norm <= 1e-10
            assert _best_time(lambda: soliton_fit(HEIS, g, H, th), repeats=3) < 1e-2


def test_03_classical_soliton_constant():
    sol = soliton_fit(HEIS, Metric.identity(3), _flux(0.0), _theta(0.0))
    assert abs(sol.lam + 1.5) <= 1e-10


def test_04_bracket_flow_closed_form():
    elapsed = _best_time(
        lambda: integrate_gbf("ric-h2", HEIS, _flux(1.0), (0.0, 10.0)),
        repeats=3)
    traj = integrate_gbf("ric-h2", HEIS, _flux(1.0), (0.0, 10.0))
    exact = (1.0 + 4.0 * traj.times) ** -0.5
    xs = np.array([st.mu[0, 1, 2] for st in traj.states])
    ys = np.array([st.H.coeffs[0] for st in traj.states])
    assert np.max(np.abs(xs - exact) / exact) <= 1e-6
    assert np.max(np.abs(ys - exact) / exact) <= 1e-6
    assert elapsed < 1.0


def test_05_decay_bound(gbf_runs):
    for a, traj in gbf_runs.items():
        assert gbf_decay_bound_check(traj, a) is True


def test_06_grf_closed_forms():
    elapsed0 = _best_time(
        lambda: integrate_grf(HEIS, Metric.identity(3), _flux(0.0), (0.0, 10.0)),
        repeats=3)
    elapsed1 = _best_time(
        lambda: integrate_grf(HEIS, Metric.identity(3), _flux(1.0), (0.0, 10.0)),
        repeats=3)
    traj0 = integrate_grf(HEIS, Metric.identity(3), _flux(0.0), (0.0, 10.0))
    for t, st in zip(traj0.times, traj0.states):
        G = st.g.entries
        g1 = (1.0 + 3.0 * t) ** (1.0 / 3.0)
        g3 = (1.0 + 3.0 * t) ** (-1.0 / 3.0)
        assert abs(G[0, 0] - g1) <= 1e-6 * g1
        assert abs(G[1, 1] - g1) <= 1e-6 * g1
        assert abs(G[2, 2] - g3) <= 1e-6 * g3
    traj1 = integrate_grf(HEIS, Metric.identity(3), _flux(1.0), (0.0, 10.0))
    for t, st in zip(traj1.times, traj1.states):
        G = st.g.entries
        g1 = math.sqrt(1.0 + 4.0 * t)
        assert abs(G[0, 0] - g1) <= 1e-6 * g1
        assert abs(G[1, 1] - g1) <= 1e-6 * g1
        assert abs(G[2, 2] - 1.0) <= 1e-6
    assert elapsed0 < 1.0 and elapsed1 < 1.0


def test_07_blowup_times():
    rep = blowup_time(HEIS, Metric.identity(3), _flux(0.0))
    assert rep.time is not None and abs(rep.time + 1.0 / 3.0) <= 1e-4
    rep = blowup_time(HEIS, Metric.identity(3), _flux(1.0))
    assert rep.time is not None and abs(rep.time + 0.25) <= 1e-4
    for a in (0.0, 1.0, 2.0):
        rep = blowup_time(HEIS, Metric.identity(3), _flux(a), direction=1,
                          horizon=1000.0)
        assert rep.time is None and rep.reason == "horizon"


@pytest.mark.parametrize("a", [0.5, 2.0], ids=["a=0.5", "a=2"])
def test_08_long_run_asymptotics(a, grf_runs):
    # g3 -> a only at rate t**-0.5 (|g3 - a| ~ K/(4 sqrt(a t)), g1 ~ 2 sqrt(a t)),
    # so the run is pinned to the exact solution rather than to its limit.
    traj = grf_runs[a]
    K = abs(1.0 - a * a)
    g1s = np.array([st.g.entries[0, 0] for st in traj.states])
    g3s = np.array([st.g.entries[2, 2] for st in traj.states])
    assert traj.times[-1] == 50.0
    assert g1s[-1] > 10.0
    g1, g3 = oc.heisenberg_grf_exact(a, 50.0)
    assert abs(g1s[-1] - g1) <= 1e-6 * g1
    assert abs(g3s[-1] - g3) <= 1e-6 * g3
    first_integral = g1s * np.abs(g3s ** 2 - a * a)
    assert np.max(np.abs(first_integral - K * g3s) / (K * g3s)) <= 1e-6
    gap = g3s - a
    assert np.all(np.sign(gap) == np.sign(1.0 - a))
    assert np.all(np.diff(np.abs(gap)) < 0.0)


def test_09_tmin_curve_properties(sweep_rows):
    by_a = {row.a: row.t_min for row in sweep_rows}
    assert all(t is not None for t in by_a.values())
    assert abs(by_a[1.0] - by_a[-1.0]) <= 1e-5
    assert abs(by_a[4.0] - by_a[-4.0]) <= 1e-5
    assert by_a[0.0] < by_a[1.0] < 0.0
    assert abs(by_a[4.0]) < abs(by_a[1.0])


def test_10_structure_preservation(gbf_runs, grf_runs):
    for traj in gbf_runs.values():
        for st in traj.states:
            assert jacobi_residual(st.mu) <= 1e-7
            assert ce_differential(st.H, st.mu).norm_inf <= 1e-7
    for traj in grf_runs.values():
        h0 = traj.states[0].H.coeffs
        for st in traj.states:
            assert np.max(np.abs(st.H.coeffs - h0)) <= 1e-12
            G = st.g.entries
            assert abs(G[0, 0] - G[1, 1]) <= 1e-10


def test_11_hodge_suite(rng):
    for n in (3, 4, 5):
        mu = oc.random_nilpotent(rng, n)
        g = Metric(oc.random_spd(rng, n))
        for k in range(n + 1):
            w = KForm(n, k, rng.standard_normal(math.comb(n, k)))
            ww = hodge_star(hodge_star(w, g), g)
            sign = (-1) ** (k * (n - k))
            assert np.max(np.abs(ww.coeffs - sign * w.coeffs)) <= 1e-10
        for k in range(n):
            alpha = KForm(n, k, rng.standard_normal(math.comb(n, k)))
            beta = KForm(n, k + 1, rng.standard_normal(math.comb(n, k + 1)))
            lhs = form_inner(ce_differential(alpha, mu), beta, g)
            rhs = form_inner(alpha, codifferential(beta, mu, g), g)
            assert abs(lhs - rhs) <= 1e-10
    g3 = Metric(oc.random_spd(rng, 3))
    top = KForm(3, 3, rng.standard_normal(1))
    assert codifferential(top, HEIS, g3).norm_inf <= 1e-10


def test_12_dorfman_suite():
    for a in (0.0, 0.5, 1.0, 2.0):
        assert dorfman_total_skew_residual(HEIS, _flux(a)) <= 1e-12
        assert dorfman_jacobi_residual(HEIS, _flux(a)) <= 1e-10
    mu = LieBracket.from_entries(4, [(1, 2, 2, 1.0)])
    H = KForm.from_entries(4, 3, [((2, 3, 4), 1.0)])
    assert dorfman_jacobi_residual(mu, H) > 1e-3


def test_13_integrator_order():
    exact = math.sqrt(41.0)
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        traj = integrate_grf(HEIS, Metric.identity(3), _flux(1.0),
                             (0.0, 10.0),
                             controls=IntegratorControls(fixed_step=h))
        errs.append(abs(traj.final.g.entries[0, 0] - exact))
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.8 <= coarse / fine <= 19.2
