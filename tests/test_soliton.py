"""Derivation spaces and generalized soliton residuals/fitting."""

import numpy as np
import pytest
import scipy.linalg

from nilflow import (
    IntegratorControls,
    KForm,
    LieBracket,
    Metric,
    ValidationError,
    bismut_nabla_theta,
    derivation_space,
    generalized_ricci_plus,
    gl_action,
    gl_action_form,
    h_circ_h,
    integrate_gbf,
    pi_mu,
    rc_metric,
    soliton_fit,
    soliton_residual,
    symmetric_derivations,
    symmetric_part,
)

import oracles as oc

HEIS = oc.bracket_from(oc.HEIS3, 3)


def _h3_flux(a):
    return KForm.from_entries(3, 3, [((1, 2, 3), a)])


def _theta(t3):
    return KForm.from_entries(3, 1, [((3,), t3)])


def _pi_loop(phi, m):
    # independent loop evaluation of pi(phi)mu for the rank oracle
    n = m.shape[0]
    out = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            acc = phi @ m[i, j]
            for l in range(n):
                acc = acc - phi[l, i] * m[l, j] - phi[l, j] * m[i, l]
            out[i, j] = acc
    return out


def _derivation_dim_oracle(m):
    n = m.shape[0]
    cols = []
    for r in range(n):
        for s in range(n):
            E = np.zeros((n, n))
            E[r, s] = 1.0
            cols.append(_pi_loop(E, m).ravel())
    return n * n - np.linalg.matrix_rank(np.stack(cols, axis=1), tol=1e-9)


# ---------------------------------------------------------------------------
# derivation spaces


def test_derivation_space_dimensions():
    assert len(derivation_space(HEIS)) == 6
    assert len(derivation_space(LieBracket.zero(3))) == 9
    for entries, n in ((oc.HEIS3, 3), (oc.FILIFORM4, 4), (oc.HEIS5, 5)):
        mu = oc.bracket_from(entries, n)
        assert len(derivation_space(mu)) == _derivation_dim_oracle(mu.coeffs)


def test_derivation_space_members_are_derivations(rng):
    for n in (3, 4, 5):
        mu = oc.random_nilpotent(rng, n)
        for phi in derivation_space(mu):
            assert np.max(np.abs(pi_mu(phi, mu))) <= 1e-9


def test_known_heisenberg_derivations():
    # the generic derivation keeps e3 = mu(e1, e2) covariant: any phi with
    # upper-left block B, phi(e3) = tr(B) e3, and free (3,1)/(3,2) entries
    for phi in (np.diag([1.0, 1.0, 2.0]),
                np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 2.0, 0.0]])):
        assert np.max(np.abs(pi_mu(phi, HEIS))) == 0.0
    # and e3 cannot map into the generators
    bad = np.zeros((3, 3))
    bad[0, 2] = 1.0
    assert np.max(np.abs(pi_mu(bad, HEIS))) > 0.0


def test_symmetric_derivations_dimensions():
    assert len(symmetric_derivations(HEIS, Metric.identity(3))) == 3
    assert len(symmetric_derivations(HEIS, Metric.diagonal([1.0, 1.0, 4.0]))) == 3
    assert len(symmetric_derivations(LieBracket.zero(3), Metric.identity(3))) == 6
    for phi in symmetric_derivations(HEIS, Metric.identity(3)):
        assert np.max(np.abs(pi_mu(phi, HEIS))) <= 1e-9
        assert np.max(np.abs(phi - phi.T)) <= 1e-9  # g = Id: symmetric matrices
        # pattern: phi(e3) = (phi_11 + phi_22) e3 and no mixing with e1, e2
        assert phi[0, 2] == pytest.approx(0.0, abs=1e-9)
        assert phi[1, 2] == pytest.approx(0.0, abs=1e-9)
        assert phi[2, 2] == pytest.approx(phi[0, 0] + phi[1, 1], abs=1e-9)


def test_symmetric_derivations_scaled_metric_members(rng):
    G = Metric.diagonal([1.0, 1.0, 4.0])
    for phi in symmetric_derivations(HEIS, G):
        assert np.max(np.abs(pi_mu(phi, HEIS))) <= 1e-9
        gphi = G.entries @ phi
        assert np.max(np.abs(gphi - gphi.T)) <= 1e-9


def _projector(basis, n):
    q = np.asarray(basis).reshape(-1, n * n)
    return q.T @ q


def _derivation_cases(rng):
    """(bracket, metric) pairs: random nilpotent and abelian brackets at n = 1..7,
    each with the identity and a random metric, and the reference nilpotent
    brackets in a random basis."""
    cases = []
    for n in range(1, 8):
        for mu in (oc.random_nilpotent(rng, n), LieBracket.zero(n)):
            cases.extend([(mu, np.eye(n)), (mu, oc.random_spd(rng, n))])
    for entries, n in ((oc.HEIS3, 3), (oc.FILIFORM4, 4), (oc.HEIS5, 5)):
        A = oc.random_basis_change(rng, n, spread=0.5)
        cases.append((gl_action(A, oc.bracket_from(entries, n)), oc.random_spd(rng, n)))
    return cases


def test_derivation_spaces_match_scipy_null_space(rng):
    # the projector onto each returned basis is the one onto the null space of
    # the loop-built constraints, so no direction is missing or extra
    for mu, G in _derivation_cases(rng):
        n = mu.dim
        want = scipy.linalg.null_space(oc.derivation_constraints(mu.coeffs))
        assert np.max(np.abs(_projector(derivation_space(mu), n) - want @ want.T)) <= 1e-10
        want = scipy.linalg.null_space(oc.derivation_constraints(mu.coeffs, G))
        got = _projector(symmetric_derivations(mu, Metric(G)), n)
        assert np.max(np.abs(got - want @ want.T)) <= 1e-10


def test_derivation_space_rejects_non_lie(rng):
    raw = oc.random_skew_bracket(rng, 3)
    # functions take LieBracket or raw arrays; a raw non-Lie array must
    # still produce *some* answer only for diagnostics, so the library
    # validates at the LieBracket boundary instead.  Construct the checked
    # type and feed pi residuals by hand here.
    assert np.max(np.abs(_pi_loop(np.eye(3), raw) + raw)) == 0.0


# ---------------------------------------------------------------------------
# soliton residuals


def test_soliton_residual_heisenberg_family_is_zero():
    g = Metric.identity(3)
    for a in (0.0, 0.5, 1.0, 2.0):
        for t3 in (0.0, 1.0, -3.0):
            lam = -(3 + a * a) / 2
            D = np.diag([1.0, 1.0, 2.0])
            omega = KForm.from_entries(3, 2, [((1, 2), -0.5 * t3 * (1 + a))])
            sym, skew = soliton_residual(HEIS, g, _h3_flux(a), _theta(t3),
                                         lam, D, omega)
            assert sym <= 1e-13
            assert skew <= 1e-13


def test_soliton_residual_flat_and_bare_ricci():
    g = Metric.identity(3)
    zero = LieBracket.zero(3)
    sym, skew = soliton_residual(zero, g, KForm.zero(3, 3), KForm.zero(3, 1),
                                 0.0, np.zeros((3, 3)), KForm.zero(3, 2))
    assert sym == 0.0 and skew == 0.0
    # all-zero ansatz on the Heisenberg algebra leaves the Ricci tensor
    sym, skew = soliton_residual(HEIS, g, KForm.zero(3, 3), KForm.zero(3, 1),
                                 0.0, np.zeros((3, 3)), KForm.zero(3, 2))
    assert sym == pytest.approx(0.5, abs=1e-15)
    assert skew == 0.0


def test_soliton_residual_validation():
    g = Metric.identity(3)
    with pytest.raises(ValidationError):
        soliton_residual(HEIS, g, _h3_flux(1.0), _theta(0.0), 0.0,
                         np.zeros((2, 2)), KForm.zero(3, 2))
    with pytest.raises(ValidationError):
        soliton_residual(HEIS, g, _h3_flux(1.0), _theta(0.0), 0.0,
                         np.zeros((3, 3)), KForm.zero(3, 1))
    mu4 = LieBracket.from_entries(4, [(1, 2, 2, 1.0)])
    with pytest.raises(ValidationError):
        soliton_residual(mu4, Metric.identity(4),
                         KForm.from_entries(4, 3, [((2, 3, 4), 1.0)]),
                         KForm.zero(4, 1), 0.0, np.zeros((4, 4)),
                         KForm.zero(4, 2))


# ---------------------------------------------------------------------------
# soliton fitting


def test_soliton_fit_heisenberg_family():
    g = Metric.identity(3)
    for a in (0.0, 0.5, 1.0, 2.0):
        for t3 in (0.0, 1.0, -3.0):
            sol = soliton_fit(HEIS, g, _h3_flux(a), _theta(t3))
            assert sol.lam == pytest.approx(-(3 + a * a) / 2, abs=1e-9)
            assert np.allclose(sol.D, np.diag([1.0, 1.0, 2.0]), atol=1e-9)
            assert sol.omega.component((0, 1)) == pytest.approx(
                -0.5 * t3 * (1 + a), abs=1e-9)
            assert sol.residual_norm <= 1e-10


def test_soliton_fit_classical_case():
    sol = soliton_fit(HEIS, Metric.identity(3), KForm.zero(3, 3), KForm.zero(3, 1))
    assert sol.lam == pytest.approx(-1.5, abs=1e-10)
    assert np.allclose(sol.D, np.diag([1.0, 1.0, 2.0]), atol=1e-10)
    assert sol.omega.norm_inf <= 1e-12
    # classical algebraic soliton equation Ric = lam Id + D
    from nilflow import ric_orthonormal
    assert np.allclose(ric_orthonormal(HEIS), sol.lam * np.eye(3) + sol.D,
                       atol=1e-10)


def test_soliton_fit_flat_data():
    sol = soliton_fit(LieBracket.zero(3), Metric.identity(3),
                      KForm.zero(3, 3), KForm.zero(3, 1))
    assert sol.lam == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(sol.D)) <= 1e-12
    assert sol.omega.norm_inf <= 1e-12
    assert sol.residual_norm <= 1e-12


def test_soliton_fit_reports_consistent_residuals(rng):
    g = Metric.diagonal([1.0, 2.0, 3.0])
    theta = KForm(3, 1, rng.standard_normal(3))
    sol = soliton_fit(HEIS, g, _h3_flux(1.0), theta)
    sym, skew = soliton_residual(HEIS, g, _h3_flux(1.0), theta,
                                 sol.lam, sol.D, sol.omega)
    assert sym == pytest.approx(sol.sym_residual, abs=1e-12)
    assert skew == pytest.approx(sol.skew_residual, abs=1e-12)
    assert sol.residual_norm == pytest.approx(max(sym, skew), abs=1e-15)
    # the fitted D really lies in the admissible space
    assert np.max(np.abs(pi_mu(sol.D, HEIS))) <= 1e-9
    gD = g.entries @ sol.D
    assert np.max(np.abs(gD - gD.T)) <= 1e-9


def test_soliton_fit_evaluates_ricci_once(monkeypatch, rng):
    """The fit and its residuals share one evaluation of the data's terms."""
    calls = [0]

    def counting(mu, g):
        calls[0] += 1
        return rc_metric(mu, g)

    monkeypatch.setattr("nilflow.curvature.rc_metric", counting)
    soliton_fit(HEIS, Metric.diagonal([1.0, 2.0, 3.0]), _h3_flux(1.0),
                KForm(3, 1, rng.standard_normal(3)))
    assert calls[0] == 1


def test_soliton_equations_are_the_parts_of_the_generalized_ricci_tensor(rng):
    """Rc_plus = lam g + g(D ., .) + 1/2 omega: the fit's omega is Rc_plus - Rc_plus^T, and
    its symmetric target Rc_g - 1/4 H.H + 1/2 S(nabla^+ theta) is the symmetric part of
    Rc_plus.  omega reaches theta through d and iota, Rc_plus through the Christoffels."""
    for n in range(3, 8):
        mu = oc.random_nilpotent(rng, n)
        g = Metric(oc.random_spd(rng, n))
        H = KForm(n, 3, oc.random_closed_3form(rng, mu.coeffs))
        theta = KForm(n, 1, rng.standard_normal(n))
        rc_plus = generalized_ricci_plus(mu, g, H, theta)
        bar = 1e-12 * (1.0 + np.max(np.abs(rc_plus)))
        omega = soliton_fit(mu, g, H, theta).omega.unpack()
        assert np.max(np.abs(omega - (rc_plus - rc_plus.T))) <= bar
        target = (rc_metric(mu, g) - 0.25 * h_circ_h(H, g)
                  + 0.5 * symmetric_part(bismut_nabla_theta(mu, g, H, theta)))
        assert np.max(np.abs(target - symmetric_part(rc_plus))) <= bar


def test_soliton_fit_equivariant_under_orthogonal_change(rng):
    # the least-squares minimizer transports by conjugation; the reported
    # residuals are sup norms, so compare the pulled-back fit instead
    theta = KForm(3, 1, np.array([0.7, 0.0, -0.4]))
    H = _h3_flux(1.0)
    base = soliton_fit(HEIS, Metric.identity(3), H, theta)
    Q = oc.random_orthogonal(rng, 3)
    moved = soliton_fit(gl_action(Q, HEIS), Metric.identity(3),
                        gl_action_form(Q, H), gl_action_form(Q, theta))
    assert moved.lam == pytest.approx(base.lam, abs=1e-9)
    assert np.allclose(Q.T @ moved.D @ Q, base.D, atol=1e-9)
    pulled = gl_action_form(Q.T, moved.omega)
    assert pulled.allclose(base.omega, tol=1e-9)
    sym, skew = soliton_residual(HEIS, Metric.identity(3), H, theta,
                                 base.lam, Q.T @ moved.D @ Q, pulled)
    assert sym == pytest.approx(base.sym_residual, abs=1e-9)
    assert skew <= 1e-9


def test_soliton_fit_and_residual_reject_a_bracket_that_is_not_unimodular():
    # the skew target holds d*H, the adjoint of d only for a unimodular bracket
    affine, g = oc.bracket_from(oc.AFFINE, 3), Metric.identity(3)
    with pytest.raises(ValidationError, match="not unimodular"):
        soliton_fit(affine, g, _h3_flux(1.0), _theta(0.5))
    with pytest.raises(ValidationError, match="not unimodular"):
        soliton_residual(affine, g, _h3_flux(1.0), _theta(0.5), 0.0, np.zeros((3, 3)),
                         KForm.zero(3, 2))


def test_soliton_fit_rejects_non_closed():
    mu4 = LieBracket.from_entries(4, [(1, 2, 2, 1.0)])
    with pytest.raises(ValidationError):
        soliton_fit(mu4, Metric.identity(4),
                    KForm.from_entries(4, 3, [((2, 3, 4), 1.0)]),
                    KForm.zero(4, 1))


def test_soliton_fit_takes_the_final_state_of_a_bracket_flow(rng):
    """The bracket flow's end state is fit input as it stands: the flow re-checks its own
    drift by the gate soliton_fit uses, so a state the flow accepts the fit accepts too."""
    mu = oc.random_nilpotent(rng, 6)
    H = KForm(6, 3, oc.random_closed_3form(rng, mu.coeffs))
    final = integrate_gbf("ric", mu, H, (0.0, 50.0), IntegratorControls(rtol=1e-7, atol=1e-8)).final
    soliton_fit(final.mu, np.eye(6), final.H, np.zeros(6))
