"""Metric form algebra: inner products, star, codifferential, Laplacian."""

import itertools
import math

import numpy as np
import pytest

from nilflow import (
    KForm,
    Metric,
    ValidationError,
    ce_differential,
    codifferential,
    form_inner,
    hodge_laplacian,
    hodge_star,
    orthonormalize,
    vol_form,
    wedge,
)
from nilflow import hodge

import oracles as oc

HEIS = oc.bracket_from(oc.HEIS3, 3)
# e1, e2 -> e2: a Lie bracket with tr ad e1 = 1, so not unimodular
AFFINE = oc.bracket_from(oc.AFFINE, 3)


def _basis_form(n, idx):
    return KForm.from_entries(n, len(idx), [(tuple(i + 1 for i in idx), 1.0)])


# ---------------------------------------------------------------------------
# Metric


def test_metric_construction_and_accessors(rng):
    G = oc.random_spd(rng, 4)
    g = Metric(G)
    assert np.allclose(g.entries, (G + G.T) / 2, atol=1e-15)
    assert np.allclose(g.entries @ g.inverse, np.eye(4), atol=1e-12)
    h = g.chol_upper
    assert np.allclose(h.T @ h, g.entries, atol=1e-12)
    assert np.allclose(np.triu(h), h)
    assert g.sqrt_det == pytest.approx(np.sqrt(np.linalg.det(g.entries)), rel=1e-12)
    assert g.det == pytest.approx(np.linalg.det(g.entries), rel=1e-12)


def test_metric_inverts_on_first_read_and_keeps_the_inverses_read_only(rng, monkeypatch):
    inverted = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a.shape) or inv(a))
    g = Metric(oc.random_spd(rng, 4))
    assert inverted == []  # construction checks g with its one Cholesky factorization
    for name in ("inverse", "chol_lower_inv"):
        first = getattr(g, name)
        assert getattr(g, name) is first and not first.flags.writeable
    assert inverted == [(4, 4), (4, 4)]
    assert np.allclose(g.chol_lower_inv @ g.chol_upper.T, np.eye(4), atol=1e-12)


def test_metric_validation():
    with pytest.raises(ValidationError):
        Metric(np.diag([1.0, -1.0, 1.0]))  # not positive definite
    bad = np.eye(3)
    bad[0, 1] = 0.5  # asymmetric beyond tolerance
    with pytest.raises(ValidationError):
        Metric(bad)
    with pytest.raises(ValidationError):
        Metric(np.full((3, 3), np.nan))
    with pytest.raises(ValidationError):
        Metric(np.ones((2, 3)))


def test_orthonormalize_examples(rng):
    assert np.allclose(orthonormalize(Metric.identity(3)), np.eye(3))
    assert np.allclose(orthonormalize(Metric.diagonal([4.0, 1.0, 1.0])),
                       np.diag([2.0, 1.0, 1.0]))
    G = oc.random_spd(rng, 5)
    h = orthonormalize(Metric(G))
    assert np.max(np.abs(h.T @ h - Metric(G).entries)) < 1e-12


# ---------------------------------------------------------------------------
# form_inner


def test_form_inner_examples():
    g = Metric.identity(3)
    e12 = _basis_form(3, (0, 1))
    assert form_inner(e12, e12, g) == pytest.approx(1.0)
    g4 = Metric.diagonal([4.0, 1.0, 1.0])
    e1 = _basis_form(3, (0,))
    assert form_inner(e1, e1, g4) == pytest.approx(0.25)
    e2 = _basis_form(3, (1,))
    assert form_inner(e1, e2, Metric.identity(3)) == 0.0


def test_form_inner_matches_dense_oracle_and_is_pd(rng):
    for n in (3, 4, 5):
        G = oc.random_spd(rng, n)
        g = Metric(G)
        for k in range(0, n + 1):
            a = KForm(n, k, oc.random_form_coeffs(rng, n, k))
            b = KForm(n, k, oc.random_form_coeffs(rng, n, k))
            got = form_inner(a, b, g)
            want = oc.dense_inner(a.unpack() if k else float(a.coeffs[0]),
                                  b.unpack() if k else float(b.coeffs[0]), G)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
            assert form_inner(a, b, g) == pytest.approx(form_inner(b, a, g), rel=1e-12)
            if a.norm_inf > 0:
                assert form_inner(a, a, g) > 0.0


def test_form_inner_degree_mismatch():
    with pytest.raises(ValidationError):
        form_inner(_basis_form(3, (0,)), _basis_form(3, (0, 1)), Metric.identity(3))


# ---------------------------------------------------------------------------
# hodge_star


def test_star_table_identity_metric():
    g = Metric.identity(3)
    table = {
        (): ((0, 1, 2), 1.0),
        (0,): ((1, 2), 1.0),
        (1,): ((0, 2), -1.0),
        (2,): ((0, 1), 1.0),
        (0, 1): ((2,), 1.0),
        (0, 2): ((1,), -1.0),
        (1, 2): ((0,), 1.0),
        (0, 1, 2): ((), 1.0),
    }
    for src, (dst, val) in table.items():
        w = _basis_form(3, src) if src else KForm(3, 0, [1.0])
        s = hodge_star(w, g)
        assert s.degree == 3 - len(src)
        expect = _basis_form(3, dst) * val if dst else KForm(3, 0, [val])
        assert s.allclose(expect, tol=1e-14), (src, s.coeffs, expect.coeffs)


def test_star_matches_epsilon_oracle(rng):
    for n in (2, 3, 4, 5, 6, 7):
        G = oc.random_spd(rng, n)
        g = Metric(G)
        for o in (1, -1):
            for k in range(0, n + 1):
                w = KForm(n, k, oc.random_form_coeffs(rng, n, k))
                got = hodge_star(w, g, o)
                dense_in = w.unpack() if k else float(w.coeffs[0])
                want = oc.dense_star(dense_in, G, o)
                got_dense = got.unpack() if got.degree else float(got.coeffs[0])
                assert np.allclose(got_dense, want, atol=1e-10)


def test_star_star_sign(rng):
    for n in (2, 3, 4, 5):
        g = Metric(oc.random_spd(rng, n))
        for k in range(0, n + 1):
            w = KForm(n, k, oc.random_form_coeffs(rng, n, k))
            ss = hodge_star(hodge_star(w, g), g)
            assert ss.allclose((-1.0) ** (k * (n - k)) * w, tol=1e-10)


def test_star_defining_identity(rng):
    # alpha ^ star(beta) = <alpha, beta> vol
    n = 4
    G = oc.random_spd(rng, n)
    g = Metric(G)
    for o in (1, -1):
        vol = vol_form(g, o)
        for k in range(0, n + 1):
            a = KForm(n, k, oc.random_form_coeffs(rng, n, k))
            b = KForm(n, k, oc.random_form_coeffs(rng, n, k))
            lhs = wedge(a, hodge_star(b, g, o))
            rhs = form_inner(a, b, g) * vol
            assert lhs.allclose(rhs, tol=1e-10)


def test_star_top_form_diagonal_metric():
    g1, g3 = 2.0, 5.0
    g = Metric.diagonal([g1, g1, g3])
    top = _basis_form(3, (0, 1, 2))
    s = hodge_star(top, g)
    assert s.degree == 0
    assert s.coeffs[0] == pytest.approx(1.0 / (g1 * np.sqrt(g3)))
    assert vol_form(g).coeffs[0] == pytest.approx(g1 * np.sqrt(g3))
    assert vol_form(g, -1).coeffs[0] == pytest.approx(-g1 * np.sqrt(g3))


def test_star_rejects_bad_orientation_and_degree():
    w = _basis_form(3, (0,))
    with pytest.raises(ValidationError):
        hodge_star(w, Metric.identity(3), 2)
    with pytest.raises(ValidationError):
        hodge_star(KForm.zero(3, 4), Metric.identity(3))


# ---------------------------------------------------------------------------
# codifferential


def test_codifferential_heisenberg_frozen():
    # adjointness fixes the value: <d e^3, e^12> = <-e^12, e^12> = -1, so
    # d*(e^12) must pair with e^3 to -1, i.e. d*(e^12) = -e^3.
    g = Metric.identity(3)
    e12 = _basis_form(3, (0, 1))
    e3 = _basis_form(3, (2,))
    de3 = ce_differential(e3, HEIS)
    assert form_inner(de3, e12, g) == pytest.approx(-1.0)
    got = codifferential(e12, HEIS, g)
    assert got.allclose(-1.0 * e3, tol=1e-14)
    assert form_inner(e3, got, g) == pytest.approx(-1.0)


def test_codifferential_degree_edges():
    g = Metric.identity(3)
    z = codifferential(KForm(3, 0, [2.0]), HEIS, g)
    assert z.degree == 0 and z.norm_inf == 0.0
    over = codifferential(KForm.zero(3, 4), HEIS, g)
    assert over.degree == 3 and over.norm_inf == 0.0
    assert codifferential(KForm.zero(3, 2), HEIS, g).norm_inf == 0.0


def test_codifferential_orientation_free(rng):
    # sign * star d star with the opposite orientation shares no code path with the
    # contraction -(k-1)/2 Alt(g mu^T w^##) that codifferential computes
    brackets = [oc.random_nilpotent(rng, n) for n in (4, 3, 5, 6, 7)]
    for mu in brackets + [oc.bracket_from(oc.SL2, 3)]:  # sl2: unimodular, not nilpotent
        n = mu.dim
        g = Metric(oc.random_spd(rng, n))
        for k in range(1, n + 1):
            w = KForm(n, k, oc.random_form_coeffs(rng, n, k))
            sign = -1.0 if (n * (k + 1) + 1) % 2 else 1.0
            inner = hodge_star(w, g, -1)
            minus = sign * hodge_star(ce_differential(inner, mu), g, -1)
            assert codifferential(w, mu, g).allclose(minus, tol=1e-12 * w.norm_inf), (n, k)


def test_codifferential_null_on_top_forms_dim3(rng):
    # d on (n-1)-forms is +-tr ad, zero for a unimodular bracket: d* of a top form is
    # an exact zero, not round-off, in dimension 3 and in dimensions 4..7 too
    for n in (3, 3, 3, 3, 3, 4, 5, 6, 7):
        mu = oc.random_nilpotent(rng, n)
        g = Metric(oc.random_spd(rng, n))
        w = KForm(n, n, rng.standard_normal(1))
        assert codifferential(w, mu, g).norm_inf == 0.0


def test_codifferential_and_laplacian_reject_a_bracket_that_is_not_unimodular(rng):
    g = Metric(oc.random_spd(rng, 3))
    for k in range(0, 4):
        w = KForm(3, k, oc.random_form_coeffs(rng, 3, k))
        with pytest.raises(ValidationError, match="not unimodular"):
            codifferential(w, AFFINE, g)
        with pytest.raises(ValidationError, match="not unimodular"):
            hodge_laplacian(w, AFFINE, g)


def test_codifferential_and_laplacian_reject_mismatched_dimensions(rng):
    mu4, g4 = oc.random_nilpotent(rng, 4), Metric(oc.random_spd(rng, 4))
    g3 = Metric(oc.random_spd(rng, 3))
    for k in range(0, 4):
        w = KForm(3, k, oc.random_form_coeffs(rng, 3, k))
        for mu, g in ((mu4, g3), (HEIS, g4)):
            with pytest.raises(ValidationError):
                codifferential(w, mu, g)
            with pytest.raises(ValidationError):
                hodge_laplacian(w, mu, g)


def test_codiff_gather_is_the_full_alternation(rng):
    """_codiff against -(k-1)/2 Alt(g Q), the alternation summed over every permutation of
    the (k-1) slots: Q[l, J] holds the entries over increasing (k-2)-tuples J, extended to
    the other orders of J by their sign."""
    for n in range(2, 7):
        g = oc.random_spd(rng, n)
        for k in range(2, n + 1):
            Q = rng.standard_normal((n, math.comb(n, k - 2)))
            T = g @ Q
            col = {J: r for r, J in enumerate(itertools.combinations(range(n), k - 2))}

            def t(idx):  # T at (l,) + J for J in any order, 0 where J repeats an index
                J = idx[1:]
                return 0.0 if len(set(J)) < len(J) else \
                    oc.perm_sign(np.argsort(J)) * T[idx[0], col[tuple(sorted(J))]]

            want = [-(k - 1) / 2 / math.factorial(k - 1) * sum(
                oc.perm_sign(p) * t(tuple(I[i] for i in p))
                for p in itertools.permutations(range(k - 1)))
                for I in itertools.combinations(range(n), k - 1)]
            got = hodge._codiff(Q, g, n, k)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (n, k)
            # and the gather codifferential reads w with: the dense w(e_i, e_j, e_J)
            w = oc.random_form_coeffs(rng, n, k)
            rank, sign = hodge._codiff_tables(n, k)[:2]
            dense = oc.dense_form(w, n, k)
            assert np.array_equal(sign * w[rank], np.stack(
                [dense[(...,) + J] for J in itertools.combinations(range(n), k - 2)], axis=-1))


def test_adjointness_on_nilpotent_brackets(rng):
    for n in (3, 4, 5):
        mu = oc.random_nilpotent(rng, n)
        g = Metric(oc.random_spd(rng, n))
        for k in range(0, n):
            a = KForm(n, k, oc.random_form_coeffs(rng, n, k))
            b = KForm(n, k + 1, oc.random_form_coeffs(rng, n, k + 1))
            lhs = form_inner(ce_differential(a, mu), b, g)
            rhs = form_inner(a, codifferential(b, mu, g), g)
            assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# hodge_laplacian


def test_laplacian_heisenberg_e3():
    g = Metric.identity(3)
    e3 = _basis_form(3, (2,))
    assert hodge_laplacian(e3, HEIS, g).allclose(e3, tol=1e-14)
    # e1, e2 are closed and coclosed here
    assert hodge_laplacian(_basis_form(3, (0,)), HEIS, g).norm_inf == 0.0


def test_laplacian_zero_form_and_top_dim3(rng):
    g = Metric(oc.random_spd(rng, 3))
    mu = oc.random_nilpotent(rng, 3)
    assert hodge_laplacian(KForm(3, 0, [1.5]), mu, g).norm_inf == 0.0
    w = KForm(3, 3, rng.standard_normal(1))
    assert hodge_laplacian(w, mu, g).norm_inf == 0.0


def test_laplacian_symmetric_psd(rng):
    n = 4
    mu = oc.random_nilpotent(rng, n)
    g = Metric(oc.random_spd(rng, n))
    for k in (1, 2, 3):
        a = KForm(n, k, oc.random_form_coeffs(rng, n, k))
        b = KForm(n, k, oc.random_form_coeffs(rng, n, k))
        la = hodge_laplacian(a, mu, g)
        lb = hodge_laplacian(b, mu, g)
        assert form_inner(la, b, g) == pytest.approx(form_inner(a, lb, g), abs=1e-9)
        assert form_inner(la, a, g) >= -1e-10
