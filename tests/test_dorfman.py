"""Dorfman bracket on the doubled space and its integrability residuals."""

import numpy as np
import pytest

from nilflow import (
    DorfmanBracket,
    GeneralizedVector,
    KForm,
    LieBracket,
    ValidationError,
    ce_differential,
    closedness_residual,
    dorfman_eval,
    dorfman_jacobi_residual,
    dorfman_structure_constants,
    dorfman_total_skew_residual,
    gl_action,
    gl_action_form,
    neutral_pairing,
)

import oracles as oc

HEIS = oc.bracket_from(oc.HEIS3, 3)


def _h3_flux(a):
    return KForm.from_entries(3, 3, [((1, 2, 3), a)])


def _gv(n, vec=(), covec=()):
    v = np.zeros(n)
    c = np.zeros(n)
    for i, x in vec:
        v[i] = x
    for i, x in covec:
        c[i] = x
    return GeneralizedVector(v, c)


# ---------------------------------------------------------------------------
# generalized vectors and the pairing


def test_generalized_vector_basics():
    z = GeneralizedVector.basis(3, 0)
    assert np.array_equal(z.vec, [1.0, 0.0, 0.0])
    assert np.array_equal(z.covec, [0.0, 0.0, 0.0])
    w = GeneralizedVector.basis(3, 5)
    assert np.array_equal(w.vec, [0.0, 0.0, 0.0])
    assert np.array_equal(w.covec, [0.0, 0.0, 1.0])
    assert (2.0 * z + w - z).norm_inf == 1.0
    assert (-z).vec[0] == -1.0
    assert GeneralizedVector.from_vector([1.0, 2.0, 3.0]).covec.sum() == 0.0
    assert GeneralizedVector.from_covector([1.0, 0.0, 0.0]).vec.sum() == 0.0


def test_generalized_vector_validation():
    with pytest.raises(ValidationError):
        GeneralizedVector([1.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        GeneralizedVector([np.nan, 0.0], [0.0, 0.0])
    with pytest.raises(ValidationError):
        GeneralizedVector.basis(3, 6)
    z = GeneralizedVector.basis(3, 0)
    with pytest.raises(ValueError):
        z.vec[0] = 5.0
    w = GeneralizedVector.basis(4, 0)
    with pytest.raises(ValidationError):
        z + w
    with pytest.raises(ValidationError):
        z - w
    with pytest.raises(ValidationError):
        neutral_pairing(z, w)


def test_neutral_pairing_examples():
    e1 = GeneralizedVector.basis(3, 0)
    e1_cov = GeneralizedVector.basis(3, 3)
    e2_cov = GeneralizedVector.basis(3, 4)
    assert neutral_pairing(e1, e1_cov) == 0.5
    assert neutral_pairing(e1_cov, e1) == 0.5
    assert neutral_pairing(e1, e1) == 0.0
    assert neutral_pairing(e1_cov, e2_cov) == 0.0
    assert neutral_pairing(e1 + e1_cov, e1 + e1_cov) == 1.0


def test_neutral_pairing_signature():
    # diagonalizing basis (e_i +- e^i)/sqrt(2) exhibits signature (n, n)
    n = 3
    vals = []
    for i in range(n):
        for s in (1.0, -1.0):
            z = (GeneralizedVector.basis(n, i) + s * GeneralizedVector.basis(n, n + i)) * (1 / np.sqrt(2))
            vals.append(neutral_pairing(z, z))
    assert sorted(vals) == pytest.approx([-0.5, -0.5, -0.5, 0.5, 0.5, 0.5])


# ---------------------------------------------------------------------------
# bracket evaluation


def test_dorfman_eval_vector_vector():
    for a in (0.0, 1.0, -2.5):
        w = dorfman_eval(HEIS, _h3_flux(a),
                         GeneralizedVector.basis(3, 0),
                         GeneralizedVector.basis(3, 1))
        assert np.allclose(w.vec, [0.0, 0.0, 1.0], atol=0)
        assert np.allclose(w.covec, [0.0, 0.0, a], atol=0)


def test_dorfman_eval_covector_covector_vanishes(rng):
    z1 = GeneralizedVector.from_covector(rng.standard_normal(3))
    z2 = GeneralizedVector.from_covector(rng.standard_normal(3))
    w = dorfman_eval(HEIS, _h3_flux(1.0), z1, z2)
    assert w.norm_inf == 0.0


def test_dorfman_eval_vector_covector():
    # the coadjoint term: bracketing e1 against the covector e^3 returns -e^2
    w = dorfman_eval(HEIS, _h3_flux(0.0),
                     GeneralizedVector.basis(3, 0),
                     GeneralizedVector.basis(3, 5))
    assert np.array_equal(w.vec, [0.0, 0.0, 0.0])
    assert np.array_equal(w.covec, [0.0, -1.0, 0.0])
    # reversed slots pick up the other sign route
    w = dorfman_eval(HEIS, _h3_flux(0.0),
                     GeneralizedVector.basis(3, 5),
                     GeneralizedVector.basis(3, 0))
    assert np.array_equal(w.covec, [0.0, 1.0, 0.0])


def test_dorfman_eval_dimension_mismatch():
    with pytest.raises(ValidationError):
        dorfman_eval(HEIS, _h3_flux(0.0),
                     GeneralizedVector.basis(4, 0), GeneralizedVector.basis(4, 1))
    with pytest.raises(ValidationError):
        dorfman_eval(HEIS, KForm.zero(4, 3),
                     GeneralizedVector.basis(3, 0), GeneralizedVector.basis(3, 1))


def test_dorfman_eval_gl_equivariance(rng):
    # block transport A on vectors, inverse transpose on covectors
    A = oc.random_basis_change(rng, 3)
    Ait = np.linalg.inv(A).T
    mu2 = gl_action(A, HEIS)
    H2 = gl_action_form(A, _h3_flux(1.3))
    for _ in range(4):
        z1 = GeneralizedVector(rng.standard_normal(3), rng.standard_normal(3))
        z2 = GeneralizedVector(rng.standard_normal(3), rng.standard_normal(3))
        move = lambda z: GeneralizedVector(A @ z.vec, Ait @ z.covec)
        lhs = dorfman_eval(mu2, H2, move(z1), move(z2))
        rhs = move(dorfman_eval(HEIS, _h3_flux(1.3), z1, z2))
        assert (lhs - rhs).norm_inf <= 1e-10


# ---------------------------------------------------------------------------
# structure constants


def test_structure_constants_blocks():
    a = 0.7
    T = dorfman_structure_constants(HEIS, _h3_flux(a))
    n = 3
    assert T.shape == (6, 6, 6)
    assert np.array_equal(T[:n, :n, :n], _h3_flux(a).unpack())
    assert np.array_equal(T[:n, :n, n:], HEIS.coeffs)
    # two or more covector slots kill the entry
    assert np.max(np.abs(T[n:, n:, :])) == 0.0
    assert np.max(np.abs(T[n:, :, n:])) == 0.0
    assert np.max(np.abs(T[:, n:, n:])) == 0.0


def test_structure_constants_match_pairing():
    T = dorfman_structure_constants(HEIS, _h3_flux(0.7))
    basis = [GeneralizedVector.basis(3, a) for a in range(6)]
    for a in range(6):
        for b in range(6):
            w = dorfman_eval(HEIS, _h3_flux(0.7), basis[a], basis[b])
            for c in range(6):
                assert T[a, b, c] == pytest.approx(
                    2.0 * neutral_pairing(w, basis[c]), abs=1e-14)


def test_structure_constants_totally_skew():
    T = dorfman_structure_constants(HEIS, _h3_flux(1.0))
    for perm, sign in (((0, 2, 1), -1), ((1, 0, 2), -1), ((1, 2, 0), 1),
                       ((2, 0, 1), 1), ((2, 1, 0), -1)):
        assert np.array_equal(np.transpose(T, perm), sign * T)


def test_structure_constants_reconstruct_bracket(rng):
    # also for a raw non-skew bracket with a dense non-alternating flux
    n = 3
    raw = (rng.standard_normal((n, n, n)), rng.standard_normal((n, n, n)))
    basis = [GeneralizedVector.basis(n, a) for a in range(2 * n)]
    for mu, H in ((HEIS, _h3_flux(0.7)), raw):
        T = dorfman_structure_constants(mu, H)
        for a in range(2 * n):
            for b in range(2 * n):
                w = dorfman_eval(mu, H, basis[a], basis[b])
                assert np.allclose(w.vec, T[a, b, n:], atol=1e-14)
                assert np.allclose(w.covec, T[a, b, :n], atol=1e-14)


# ---------------------------------------------------------------------------
# residuals


def test_total_skew_residual_valid_data():
    for a in (0.0, 1.0, 3.0):
        assert dorfman_total_skew_residual(HEIS, _h3_flux(a)) <= 1e-12
    assert dorfman_total_skew_residual(LieBracket.zero(3), KForm.zero(3, 3)) == 0.0


def test_total_skew_residual_detects_corruption():
    # a one-sided structure array (not skew) breaks total skewness
    bad = np.zeros((3, 3, 3))
    bad[0, 1, 2] = 1.0
    assert dorfman_total_skew_residual(bad, KForm.zero(3, 3)) > 1e-3
    # non-skew dense flux too
    badH = np.zeros((3, 3, 3))
    badH[0, 1, 2] = 1.0
    assert dorfman_total_skew_residual(LieBracket.zero(3), badH) > 1e-3


def test_total_skew_holds_for_any_skew_inputs(rng):
    # total skewness needs only skewness of the raw inputs, not Jacobi
    raw = oc.random_skew_bracket(rng, 3)
    H = KForm(3, 3, rng.standard_normal(1))
    assert dorfman_total_skew_residual(raw, H) <= 1e-12


def test_jacobi_residual_valid_pairs():
    for a in (0.0, 1.0):
        assert dorfman_jacobi_residual(HEIS, _h3_flux(a)) <= 1e-10
    assert dorfman_jacobi_residual(LieBracket.zero(4),
                                   KForm.from_entries(4, 3, [((1, 2, 3), 2.0)])) == 0.0


def test_jacobi_residual_non_closed_flux():
    # mu(e1, e2) = e2 on R^4 leaves d e^{234} = -e^{1234}: the defect is order one
    mu = LieBracket.from_entries(4, [(1, 2, 2, 1.0)])
    H = KForm.from_entries(4, 3, [((2, 3, 4), 1.0)])
    assert closedness_residual(mu, H) == pytest.approx(1.0, abs=1e-14)
    assert dorfman_jacobi_residual(mu, H) >= 1e-3


def test_jacobi_residual_non_lie_bracket(rng):
    raw = oc.random_skew_bracket(rng, 3)
    assert dorfman_jacobi_residual(raw, KForm.zero(3, 3)) > 1e-6


def test_jacobi_iff_lie_and_closed(rng):
    # on valid nilpotent data the Leibniz identity tracks closedness exactly
    mu = oc.random_nilpotent(rng, 4)
    open_H = KForm.from_entries(4, 3, [((2, 3, 4), 1.0)])
    closed_H = ce_differential(KForm(4, 2, rng.standard_normal(6)), mu)
    c_open = closedness_residual(mu, open_H)
    c_closed = closedness_residual(mu, closed_H)
    assert c_closed <= 1e-12
    if c_open > 1e-8:
        assert dorfman_jacobi_residual(mu, open_H) > 1e-8
    assert dorfman_jacobi_residual(mu, closed_H) <= 1e-10


def test_residuals_match_loop_oracle(rng):
    # raw non-skew brackets and non-alternating dense fluxes: both residuals
    # are of order one, so the comparison is relative
    for n in range(1, 8):
        m = rng.uniform(-1.0, 1.0, size=(n, n, n))
        Hd = rng.uniform(-1.0, 1.0, size=(n, n, n))
        want_skew, want_leibniz = oc.dorfman_residuals(m, Hd)
        assert min(want_skew, want_leibniz) > 1e-2
        assert dorfman_total_skew_residual(m, Hd) == pytest.approx(want_skew, rel=1e-12, abs=0)
        assert dorfman_jacobi_residual(m, Hd) == pytest.approx(want_leibniz, rel=1e-12, abs=0)


def test_closedness_residual_examples():
    assert closedness_residual(HEIS, _h3_flux(2.0)) == 0.0
    mu = LieBracket.from_entries(4, [(1, 2, 2, 1.0)])
    assert closedness_residual(mu, KForm.zero(4, 3)) == 0.0
    assert closedness_residual(mu, np.zeros((4, 4, 4))) == 0.0


# ---------------------------------------------------------------------------
# validated container


def test_dorfman_bracket_container():
    db = DorfmanBracket(HEIS, _h3_flux(1.0))
    assert db.dim == 3
    assert db.total_skew_residual() <= 1e-12
    assert db.jacobi_residual() <= 1e-10
    T = db.structure_constants()
    assert np.array_equal(T, dorfman_structure_constants(HEIS, _h3_flux(1.0)))
    w = db.eval(GeneralizedVector.basis(3, 0), GeneralizedVector.basis(3, 1))
    assert np.array_equal(w.vec, [0.0, 0.0, 1.0])


def test_dorfman_bracket_validation(rng):
    with pytest.raises(ValidationError):
        DorfmanBracket(oc.random_skew_bracket(rng, 3), KForm.zero(3, 3))
    mu = LieBracket.from_entries(4, [(1, 2, 2, 1.0)])
    with pytest.raises(ValidationError):
        DorfmanBracket(mu, KForm.from_entries(4, 3, [((2, 3, 4), 1.0)]))
    with pytest.raises(ValidationError):
        DorfmanBracket(HEIS, KForm.zero(3, 2))
    with pytest.raises(ValidationError):
        DorfmanBracket(HEIS, KForm.zero(4, 3))
