"""Ricci tensors, flux terms, Christoffels, and the generalized Ricci tensor."""

import numpy as np
import pytest

from nilflow import (
    KForm,
    LieBracket,
    Metric,
    ValidationError,
    bismut_nabla_theta,
    christoffels,
    generalized_ricci_plus,
    h_circ_h,
    h_squared_neutral,
    rc_metric,
    ric_orthonormal,
    skew_part,
    symmetric_part,
    two_form_matrix,
)

import oracles as oc

HEIS = oc.bracket_from(oc.HEIS3, 3)


def _h3_flux(a):
    return KForm.from_entries(3, 3, [((1, 2, 3), a)])


# ---------------------------------------------------------------------------
# ric_orthonormal


def test_ric_orthonormal_heisenberg_exact():
    got = ric_orthonormal(HEIS)
    assert np.array_equal(got, np.diag([-0.5, -0.5, 0.5]))


def test_ric_orthonormal_zero_and_scaling():
    assert np.max(np.abs(ric_orthonormal(LieBracket.zero(4)))) == 0.0
    c = 1.7
    scaled = ric_orthonormal(LieBracket(c * HEIS.coeffs))
    assert np.allclose(scaled, c * c * ric_orthonormal(HEIS), rtol=1e-14)


def test_ric_orthonormal_symmetric_and_orthogonally_equivariant(rng):
    from nilflow import gl_action
    for n in (3, 4, 5):
        mu = oc.random_nilpotent(rng, n)
        ric = ric_orthonormal(mu)
        assert np.max(np.abs(ric - ric.T)) < 1e-12
        Q = oc.random_orthogonal(rng, n)
        lhs = ric_orthonormal(gl_action(Q, mu))
        rhs = Q @ ric @ Q.T
        assert np.max(np.abs(lhs - rhs)) < 1e-10


# ---------------------------------------------------------------------------
# rc_metric


def test_rc_metric_identity_and_diagonal_closed_form():
    assert np.allclose(rc_metric(HEIS, Metric.identity(3)),
                       np.diag([-0.5, -0.5, 0.5]), atol=1e-14)
    # (1, 1, 1e-24) is a valid metric whose Cholesky factor has condition number 1e12; its
    # Ricci entries are of order 1e-25, which the atol of the first input would pass however
    # wrong, so it is compared relatively
    for (g1, g2, g3), tol in (((2.0, 3.0, 5.0), {"atol": 1e-12}),
                              ((1.0, 1.0, 1e-24), {"rtol": 1e-12, "atol": 0.0})):
        got = rc_metric(HEIS, Metric.diagonal([g1, g2, g3]))
        want = np.diag([-g3 / (2 * g2), -g3 / (2 * g1), g3 * g3 / (2 * g1 * g2)])
        assert np.allclose(got, want, **tol)


def test_rc_metric_scale_invariant_in_g(rng):
    mu = oc.random_nilpotent(rng, 4)
    G = oc.random_spd(rng, 4)
    a = rc_metric(mu, Metric(G))
    b = rc_metric(mu, Metric(7.3 * G))
    assert np.max(np.abs(a - b)) < 1e-10


def test_rc_metric_agrees_with_riemann_trace_oracle(rng):
    for n in (3, 4, 5):
        for _ in range(3):
            mu = oc.random_nilpotent(rng, n)
            G = oc.random_spd(rng, n)
            got = rc_metric(mu, Metric(G))
            want = oc.ricci_riemann(mu.coeffs, G)
            assert np.max(np.abs(got - want)) < 1e-9
            assert np.max(np.abs(got - got.T)) == 0.0


def test_rc_metric_rejects_bad_metric():
    with pytest.raises(ValidationError):
        rc_metric(HEIS, np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValidationError, match="^metric dimension 3 does not match bracket dimension 4$"):
        rc_metric(LieBracket.zero(4), Metric.identity(3))


# ---------------------------------------------------------------------------
# christoffels


def test_christoffels_heisenberg_frozen():
    gam = christoffels(HEIS, Metric.identity(3))
    expect = np.zeros((3, 3, 3))
    expect[0, 1, 2] = 0.5
    expect[1, 0, 2] = -0.5
    expect[0, 2, 1] = -0.5
    expect[2, 0, 1] = -0.5
    expect[1, 2, 0] = 0.5
    expect[2, 1, 0] = 0.5
    assert np.allclose(gam, expect, atol=1e-15)


def test_christoffels_abelian_zero():
    assert np.max(np.abs(christoffels(LieBracket.zero(4), Metric.identity(4)))) == 0.0


def test_christoffels_properties_and_oracle(rng):
    for n in (3, 4):
        mu = oc.random_nilpotent(rng, n)
        G = oc.random_spd(rng, n)
        gam = christoffels(mu, Metric(G))
        # torsion-free: Gamma_ij^k - Gamma_ji^k = mu_ij^k
        assert np.max(np.abs(gam - gam.swapaxes(0, 1) - mu.coeffs)) < 1e-12
        # metric compatibility: g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k) = 0
        comp = np.einsum('ijm,mk->ijk', gam, G) + np.einsum('ikm,mj->ijk', gam, G)
        assert np.max(np.abs(comp)) < 1e-12
        assert np.max(np.abs(gam - oc.koszul_christoffels(mu.coeffs, G))) < 1e-11


# ---------------------------------------------------------------------------
# flux terms


def test_h_circ_h_examples():
    g = Metric.identity(3)
    for a in (0.0, 0.5, 2.0):
        got = h_circ_h(_h3_flux(a), g)
        assert np.allclose(got, 2 * a * a * np.eye(3), atol=1e-14)
    g1, g2, g3 = 2.0, 3.0, 5.0
    a = 1.5
    got = h_circ_h(_h3_flux(a), Metric.diagonal([g1, g2, g3]))
    want = np.diag([2 * a * a / (g2 * g3), 2 * a * a / (g1 * g3), 2 * a * a / (g1 * g2)])
    assert np.allclose(got, want, atol=1e-13)


def test_h_circ_h_psd_and_loop_oracle(rng):
    for n in (3, 4):
        G = oc.random_spd(rng, n)
        g = Metric(G)
        H = KForm(n, 3, oc.random_form_coeffs(rng, n, 3))
        got = h_circ_h(H, g)
        assert np.min(np.linalg.eigvalsh(got)) >= -1e-10
        ginv = np.linalg.inv(G)
        Hd = H.unpack()
        want = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                want[i, j] = np.einsum('rl,st,rs,lt->', ginv, ginv, Hd[i], Hd[j])
        assert np.allclose(got, want, atol=1e-11)


def test_h_squared_neutral_examples(rng):
    for a in (0.5, 2.0):
        got = h_squared_neutral(_h3_flux(a))
        assert np.allclose(got, 2 * a * a * np.eye(3), atol=1e-14)
    assert np.max(np.abs(h_squared_neutral(KForm.zero(4, 3)))) == 0.0
    H = KForm(4, 3, oc.random_form_coeffs(rng, 4, 3))
    assert np.allclose(h_squared_neutral(3.0 * H), 9.0 * h_squared_neutral(H),
                       rtol=1e-13)
    assert np.allclose(h_squared_neutral(H), h_circ_h(H, Metric.identity(4)),
                       atol=1e-13)


def test_flux_terms_reject_mismatched_forms():
    H4 = KForm(4, 3, np.ones(4))
    with pytest.raises(ValidationError):
        h_circ_h(H4, Metric.identity(3))
    with pytest.raises(ValidationError):
        bismut_nabla_theta(np.zeros((3, 3, 3)), Metric.identity(3), H4, np.zeros(3))
    with pytest.raises(ValidationError):
        h_squared_neutral(np.ones((3, 3)))


# ---------------------------------------------------------------------------
# Bismut term


def test_bismut_nabla_theta_heisenberg_family():
    g = Metric.identity(3)
    for a in (0.0, 0.5, 2.0):
        for t3 in (1.0, -3.0):
            theta = KForm.from_entries(3, 1, [((3,), t3)])
            got = bismut_nabla_theta(HEIS, g, _h3_flux(a), theta)
            want = np.zeros((3, 3))
            want[0, 1] = -0.5 * t3 * (1 + a)
            want[1, 0] = 0.5 * t3 * (1 + a)
            assert np.allclose(got, want, atol=1e-14)
            assert np.max(np.abs(symmetric_part(got))) == 0.0


def test_bismut_nabla_theta_zero_theta_and_e1():
    g = Metric.identity(3)
    assert np.max(np.abs(bismut_nabla_theta(HEIS, g, _h3_flux(1.0),
                                            KForm.zero(3, 1)))) == 0.0
    theta1 = KForm.from_entries(3, 1, [((1,), 1.0)])
    got = bismut_nabla_theta(HEIS, g, KForm.zero(3, 3), theta1)
    S = symmetric_part(got)
    want = np.zeros((3, 3))
    want[1, 2] = want[2, 1] = -0.5
    assert np.allclose(S, want, atol=1e-14)
    assert np.allclose(got[0, 2], 0.0) and np.allclose(got[2, 0], 0.0)


# ---------------------------------------------------------------------------
# generalized Ricci tensor


def test_generalized_ricci_plus_examples():
    g = Metric.identity(3)
    zero3 = KForm.zero(3, 3)
    zero1 = KForm.zero(3, 1)
    got = generalized_ricci_plus(HEIS, g, zero3, zero1)
    assert np.allclose(got, np.diag([-0.5, -0.5, 0.5]), atol=1e-14)
    for a in (0.5, 2.0):
        got = generalized_ricci_plus(HEIS, g, _h3_flux(a), zero1)
        want = np.diag([-0.5 - a * a / 2, -0.5 - a * a / 2, 0.5 - a * a / 2])
        assert np.allclose(got, want, atol=1e-13)
    flat = generalized_ricci_plus(LieBracket.zero(3), g, zero3, zero1)
    assert np.max(np.abs(flat)) == 0.0


def test_generalized_ricci_plus_assembles_its_parts(rng):
    from nilflow import codifferential
    n = 3
    mu = oc.random_nilpotent(rng, n)
    G = oc.random_spd(rng, n)
    g = Metric(G)
    H = KForm(n, 3, rng.standard_normal(1))  # top degree, automatically closed
    theta = KForm(n, 1, rng.standard_normal(n))
    full = generalized_ricci_plus(mu, g, H, theta)
    nab = bismut_nabla_theta(mu, g, H, theta)
    dstar = two_form_matrix(codifferential(H, mu, g))
    want_sym = rc_metric(mu, g) - 0.25 * h_circ_h(H, g) + 0.5 * symmetric_part(nab)
    want_skew = -0.5 * dstar + 0.5 * skew_part(nab)
    assert np.allclose(symmetric_part(full), want_sym, atol=1e-12)
    assert np.allclose(skew_part(full), want_skew, atol=1e-12)
    assert np.allclose(symmetric_part(full) + skew_part(full), full, atol=1e-15)


def test_generalized_ricci_plus_rejects_non_closed():
    mu4 = LieBracket.from_entries(4, [(1, 2, 2, 1.0)])
    H = KForm.from_entries(4, 3, [((2, 3, 4), 1.0)])
    with pytest.raises(ValidationError):
        generalized_ricci_plus(mu4, Metric.identity(4), H, KForm.zero(4, 1))


def test_two_form_matrix():
    w = KForm.from_entries(3, 2, [((1, 2), 2.0)])
    m = two_form_matrix(w)
    assert m[0, 1] == 2.0 and m[1, 0] == -2.0
    with pytest.raises(ValidationError):
        two_form_matrix(KForm.zero(3, 1))
