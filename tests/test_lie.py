"""Brackets, forms, the exterior differential, and the basis-change action."""

import ast
import inspect
import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from nilflow import (
    KForm,
    LieBracket,
    ValidationError,
    ce_differential,
    christoffels,
    compound_matrix,
    form_dense,
    form_inner,
    generalized_ricci_plus,
    gl_action,
    gl_action_form,
    hodge_star,
    index_tuples,
    jacobi_residual,
    nilpotency_step,
    pi_form,
    pi_mu,
    sort_sign,
    symmetric_derivations,
    wedge,
)
import nilflow
from nilflow import flows, hodge, lie

import oracles as oc

HEIS = oc.bracket_from(oc.HEIS3, 3)


# ---------------------------------------------------------------------------
# index utilities


def test_index_tuples_counts():
    for n in range(1, 7):
        for k in range(0, n + 2):
            assert len(index_tuples(n, k)) == math.comb(n, k)
    assert index_tuples(4, 2)[0] == (0, 1)
    assert index_tuples(4, 2)[-1] == (2, 3)


def test_sort_sign():
    assert sort_sign((0, 1, 2)) == ((0, 1, 2), 1)
    assert sort_sign((1, 0)) == ((0, 1), -1)
    assert sort_sign((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_sign((1, 1)) == ((1, 1), 0)


def test_index_array_and_pack_index_at_degree_zero():
    for n in range(1, 5):
        assert lie._index_array(n, 0).shape == (1, 0)
        index = lie._pack_index(n, 0)
        assert index.shape == (1,) and index.tolist() == [0]
    assert lie._index_array(2, 3).shape == (0, 3)


def test_array_sort_sign_matches_sort_sign_and_tuple_rank():
    # every k-tuple over range(n), repeated indices included
    for n in range(1, 6):
        for k in range(5):
            tuples = list(itertools.product(range(n), repeat=k))
            rank, sign = lie._sort_sign(np.array(tuples, dtype=np.intp).reshape(len(tuples), k), n)
            for t, r, s in zip(tuples, rank, sign):
                key, want = sort_sign(t)
                assert s == want
                assert r == (lie._tuple_rank(n, k)[key] if want else 0)


@pytest.mark.parametrize("n", range(1, 8))
def test_index_tables_equal_the_scalar_rules(n):
    for k in range(n + 1):
        for got, want in ((lie._unpack_tables(n, k), oc.unpack_tables(n, k)),
                          (lie._ce_tables(n, k), oc.ce_tables(n, k)),
                          (hodge._star_tables(n, k), oc.star_tables(n, k))):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b)


def test_wedge_is_bitwise_the_loop_over_index_tuples(rng):
    # zero coefficients, of both signs, are skipped by the loop and summed by wedge
    for n in range(1, 7):
        for k in range(n + 1):
            for l in range(n + 1):
                a, b = oc.random_form_coeffs(rng, n, k), oc.random_form_coeffs(rng, n, l)
                a[rng.random(a.size) < 0.3] = 0.0
                b[rng.random(b.size) < 0.3] = -0.0
                alpha, beta = KForm(n, k, a), KForm(n, l, b)
                assert wedge(alpha, beta).coeffs.tobytes() == oc.wedge_coeffs(alpha, beta).tobytes()


def test_compound_matrix(rng):
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4))
    assert np.allclose(compound_matrix(A, 1), A)
    assert compound_matrix(A, 0) == pytest.approx(1.0)
    assert compound_matrix(A, 4)[0, 0] == pytest.approx(np.linalg.det(A))
    for k in (2, 3):
        lhs = compound_matrix(A @ B, k)
        rhs = compound_matrix(A, k) @ compound_matrix(B, k)
        assert np.allclose(lhs, rhs, atol=1e-10)
    n = 7
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    for k in range(0, n + 2):  # k > n: no index tuples, an empty matrix
        got = compound_matrix(A, k)
        assert got.shape == (math.comb(n, k),) * 2
        assert np.allclose(got, oc.compound(A, k), atol=1e-10)
        assert np.allclose(compound_matrix(A @ B, k), got @ compound_matrix(B, k), atol=1e-10)


# ---------------------------------------------------------------------------
# KForm


def test_kform_from_entries_sign_normalization():
    w = KForm.from_entries(3, 2, [((2, 1), 5.0)])
    assert w.component((0, 1)) == pytest.approx(-5.0)
    assert w.component((1, 0)) == pytest.approx(5.0)
    assert w.component((1, 1)) == 0.0


def test_kform_consistent_and_inconsistent_duplicates():
    w = KForm.from_entries(3, 2, [((1, 2), 1.0), ((2, 1), -1.0)])
    assert w.component((0, 1)) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        KForm.from_entries(3, 2, [((1, 2), 1.0), ((2, 1), 1.0)])
    with pytest.raises(ValidationError):
        KForm.from_entries(3, 2, [((1, 1), 1.0)])
    with pytest.raises(ValidationError):
        KForm.from_entries(3, 2, [((0, 1), 1.0)])  # 1-based input
    with pytest.raises(ValidationError):
        KForm.from_entries(3, 2, [((1, 2, 3), 1.0)])


def test_kform_zero_and_overdegree():
    z = KForm.zero(3, 4)
    assert z.degree == 4 and z.coeffs.size == 0
    assert z.norm_inf == 0.0
    assert (z + z).allclose(z)
    assert KForm.zero(3, 0).coeffs.shape == (1,)


def test_kform_dense_round_trip(rng):
    cases = [(n, k) for n in (3, 4, 5) for k in range(1, n + 1)]
    cases += [(10, k) for k in (1, 2, 3, 4)]  # n = MAX_PROBLEM_DIM
    for n, k in cases:
        w = KForm(n, k, oc.random_form_coeffs(rng, n, k))
        dense = w.unpack()
        assert dense.shape == (n,) * k
        for r, T in enumerate(index_tuples(n, k)):
            perm = list(rng.permutation(k))
            assert dense[tuple(T[i] for i in perm)] == oc.perm_sign(perm) * w.coeffs[r]
        back = KForm.from_dense(dense)
        assert back.allclose(w, tol=1e-13)


def test_kform_from_dense_packs_an_alternating_tensor_to_its_own_entries(rng):
    # exactly, not to round-off: the entries on the increasing tuples are taken as they are
    for n in range(1, 7):
        for k in range(1, min(n, 5) + 1):
            for _ in range(20):
                size = math.comb(n, k)
                coeffs = rng.standard_normal(size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
                coeffs[rng.random(size) < 0.25] = 0.0
                f = KForm(n, k, coeffs)
                assert np.array_equal(KForm.from_dense(f.unpack()).coeffs, f.coeffs)


def test_kform_from_dense_rejects_non_alternating():
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0  # missing the -1 partner
    with pytest.raises(ValidationError):
        KForm.from_dense(bad)


def test_kform_arithmetic_and_validation(rng):
    a = KForm(3, 2, oc.random_form_coeffs(rng, 3, 2))
    b = KForm(3, 2, oc.random_form_coeffs(rng, 3, 2))
    assert (2.0 * a - a).allclose(a, tol=1e-14)
    assert (a + b - b).allclose(a, tol=1e-14)
    assert (-a + a).norm_inf == 0.0
    with pytest.raises(ValidationError):
        a + KForm.zero(3, 1)
    with pytest.raises(ValidationError):
        KForm(3, 2, np.ones(4))
    with pytest.raises(ValidationError):
        KForm(3, 2, [1.0, np.nan, 0.0])


# ---------------------------------------------------------------------------
# LieBracket


def test_bracket_storage_is_bitwise_skew():
    mu = oc.bracket_from(oc.FILIFORM4, 4)
    assert np.all(mu.coeffs + mu.coeffs.swapaxes(0, 1) == 0.0)
    # small symmetric leak is tolerated on input and removed exactly
    noisy = mu.coeffs + 1e-12
    again = LieBracket(noisy)
    assert np.all(again.coeffs + again.coeffs.swapaxes(0, 1) == 0.0)


def test_bracket_entry_validation():
    with pytest.raises(ValidationError):
        LieBracket.from_entries(3, [(1, 1, 2, 1.0)])
    with pytest.raises(ValidationError):
        LieBracket.from_entries(3, [(1, 2, 4, 1.0)])
    with pytest.raises(ValidationError):
        LieBracket.from_entries(3, [(1, 2, 3, 1.0), (2, 1, 3, 1.0)])
    with pytest.raises(ValidationError):
        LieBracket.from_entries(3, [(1, 2, 3)])
    # the skew-completed pair is fine
    mu = LieBracket.from_entries(3, [(1, 2, 3, 1.0), (2, 1, 3, -1.0)])
    assert mu.coeffs[0, 1, 2] == 1.0


def test_bracket_rejects_non_skew_and_nan():
    bad = np.zeros((3, 3, 3))
    bad[0, 1, 2] = 1.0  # missing the (1,0,2) partner
    with pytest.raises(ValidationError):
        LieBracket(bad)
    nanarr = np.zeros((3, 3, 3))
    nanarr[0, 1, 2], nanarr[1, 0, 2] = np.nan, np.nan
    with pytest.raises(ValidationError):
        LieBracket(nanarr)


# ---------------------------------------------------------------------------
# Jacobi and nilpotency


def test_jacobi_residual_examples():
    assert jacobi_residual(HEIS) == 0.0
    assert jacobi_residual(LieBracket.zero(4)) == 0.0
    # mu(e1,e2)=e1, mu(e1,e3)=e3: the Jacobiator on (e1,e2,e3) equals
    # mu(mu(e1,e2),e3) + mu(mu(e2,e3),e1) + mu(mu(e3,e1),e2)
    #   = mu(e1,e3) + 0 + mu(e2,e3)-free term = e3, so the residual is 1
    mu = LieBracket.from_entries(3, [(1, 2, 1, 1.0), (1, 3, 3, 1.0)])
    assert jacobi_residual(mu) == pytest.approx(1.0, abs=1e-15)


def test_jacobi_residual_random_lie_vs_non_lie(rng):
    for n in (3, 4, 5):
        assert jacobi_residual(oc.random_nilpotent(rng, n)) < 1e-12
    assert jacobi_residual(oc.random_skew_bracket(rng, 4)) > 1e-3


def _jacobi_by_loops(m):
    """max |mu(mu(e_i, e_j), e_k) + cyclic| over every index, one term at a time."""
    n, c = m.shape[0], m.tolist()
    worst = 0.0
    for i, j, k, q in itertools.product(range(n), repeat=4):
        total = 0.0
        for l in range(n):
            total += c[i][j][l] * c[l][k][q] + c[j][k][l] * c[l][i][q] + c[k][i][l] * c[l][j][q]
        worst = max(worst, abs(total))
    return worst


@pytest.mark.parametrize("n", range(3, 8))
def test_jacobi_residual_matches_index_loop(rng, n):
    for _ in range(3):
        m = oc.random_nilpotent(rng, n).coeffs + 0.1 * oc.random_skew_bracket(rng, n)
        want = _jacobi_by_loops(m)
        assert want > 0.0
        assert abs(jacobi_residual(m) - want) <= 1e-13 * np.max(np.abs(m)) ** 2


def test_nilpotency_step_examples():
    assert nilpotency_step(HEIS) == 2
    assert nilpotency_step(LieBracket.zero(4)) == 1
    assert nilpotency_step(LieBracket.zero(1)) == 1
    assert nilpotency_step(oc.bracket_from(oc.FILIFORM4, 4)) == 3
    assert nilpotency_step(oc.bracket_from(oc.HEIS5, 5)) == 2
    assert nilpotency_step(oc.bracket_from(oc.SL2, 3)) is None
    assert nilpotency_step(oc.bracket_from(oc.AFFINE, 2)) is None


def test_nilpotency_step_invariant_under_basis_change(rng):
    for n, expected in ((3, 2), (4, 3), (5, 2)):
        mu = oc.random_nilpotent(rng, n)
        assert nilpotency_step(mu) == expected


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg differential


def test_ce_differential_heisenberg_examples():
    e3 = KForm.from_entries(3, 1, [((3,), 1.0)])
    d = ce_differential(e3, HEIS)
    assert d.component((0, 1)) == pytest.approx(-1.0)
    assert abs(d.component((0, 2))) == 0.0 and abs(d.component((1, 2))) == 0.0
    # d e1 = 0: no bracket output lands on e1
    e1 = KForm.from_entries(3, 1, [((1,), 1.0)])
    assert ce_differential(e1, HEIS).norm_inf == 0.0
    # top-degree input maps into the empty degree-(n+1) space
    top = KForm.from_entries(3, 3, [((1, 2, 3), 1.0)])
    dtop = ce_differential(top, HEIS)
    assert dtop.degree == 4 and dtop.coeffs.size == 0 and dtop.norm_inf == 0.0


def test_ce_differential_on_zero_forms():
    c = KForm(3, 0, [2.5])
    assert ce_differential(c, HEIS).norm_inf == 0.0


def test_ce_differential_matches_dense_oracle(rng):
    # every degree up to n = 7, and n = 10 (MAX_PROBLEM_DIM) at the edge degrees;
    # the dense oracle where n^(k+1) is small, the packed one everywhere.  The
    # packed oracle adds in the definition's order, as ce_differential does, so
    # the two agree to the last bit.
    cases = [(n, k) for n in range(2, 8) for k in range(0, n + 1)]
    cases += [(10, k) for k in (0, 1, 2, 9)]
    for n, k in cases:
        mu = oc.random_nilpotent(rng, n)
        raw = oc.random_skew_bracket(rng, n)  # non-Lie; d is still defined
        for m in (mu.coeffs, raw):
            w = KForm(n, k, oc.random_form_coeffs(rng, n, k))
            got = ce_differential(w, m)
            assert got.degree == k + 1 and got.coeffs.shape == (math.comb(n, k + 1),)
            assert np.array_equal(got.coeffs, oc.packed_ce(w.coeffs, m, k))
            if 1 <= k < n and n ** (k + 1) <= 4096:
                want = oc.dense_ce(w.unpack(), m)
                assert np.allclose(got.unpack(), want, atol=1e-12)


@pytest.mark.parametrize("entries, n", [(oc.HEIS3, 3), (oc.FILIFORM4, 4), (oc.HEIS5, 5)],
                         ids=["heis3", "filiform4", "heis5"])
def test_packed_ce_batches_agree_with_single_forms(rng, entries, n):
    """The packed oracle on forms stacked along a trailing axis, as random_closed_3form calls
    it, equals one call per form, also where a row of d vanishes, as on these brackets."""
    m = oc.bracket_from(entries, n).coeffs
    for k in range(n + 1):
        batch = rng.standard_normal((math.comb(n, k), 3))
        got = oc.packed_ce(batch, m, k)
        want = np.stack([oc.packed_ce(col, m, k) for col in batch.T], axis=1)
        assert got.shape == want.shape == (math.comb(n, k + 1), 3)
        assert np.array_equal(got, want)
    h = oc.random_closed_3form(rng, m)
    assert np.abs(oc.packed_ce(h, m, 3)).max(initial=0.0) <= 1e-12 * np.abs(h).max()


@pytest.mark.parametrize("n", range(3, 8))
def test_d_matrix_matches_ce_differential(rng, n):
    """d's matrix form, which the GRF kernel multiplies by, is the gather's d."""
    m = oc.random_nilpotent(rng, n).coeffs + 0.1 * oc.random_skew_bracket(rng, n)
    for k in range(n + 1):
        x = oc.random_form_coeffs(rng, n, k)
        want = ce_differential(KForm(n, k, x), m).coeffs
        got = lie._d_matrix(m, k) @ x
        assert got.shape == want.shape == (math.comb(n, k + 1),)
        assert np.abs(got - want).max(initial=0.0) <= 1e-13 * np.abs(m).max() * np.abs(x).max()


@pytest.mark.parametrize("n", range(1, 6))
def test_pack_inverts_unpack_bitwise(rng, n):
    for k in range(1, n + 2):  # k = n + 1 has no coefficients
        for tail in ((), (2,), (3, 2)):
            x = rng.standard_normal((math.comb(n, k),) + tail)
            if x.size:
                x.flat[0] = -0.0  # keeps its sign: the increasing slot is the identity permutation
            dense = lie._unpack(x, n, k)
            assert dense.shape == (n,) * k + tail
            back = lie._pack(dense, k)
            assert back.shape == x.shape and back.tobytes() == x.tobytes()


@pytest.mark.parametrize("n", range(1, 8))
def test_structure_row_helpers_round_trip(rng, n):
    """_row_bracket reads back the bracket _structure_row wrote, bit for bit, and _row_slots
    places every dense entry of mu and of H on that row."""
    m = oc.random_skew_bracket(rng, n)  # no zero entries off the diagonal: every bit is seen
    h = oc.random_form_coeffs(rng, n, 3)
    y = lie._structure_row(m, h)
    assert y.shape == (math.comb(n, 2) * n + math.comb(n, 3),)
    assert lie._row_bracket(y, n).tobytes() == m.tobytes()
    slot, sign = lie._row_slots(n)
    assert not slot.flags.writeable and not sign.flags.writeable
    dense = sign * np.append(y, 0.0)[slot]  # slot -1, where an index repeats, reads the 0.0
    assert dense.tobytes() == np.array([m, lie._unpack(h, n, 3)]).tobytes()


def test_from_entries_refuses_a_non_integral_index():
    """A fractional or bool index is refused with its entry named, not truncated or read
    as 1; integral floats and numpy integers still index.  A dimension or degree that is
    fractional, a bool or too small is refused before numpy sees it, by the classmethods
    and KForm's own constructor alike."""
    with pytest.raises(ValidationError, match=r"^bracket entry \(1\.5, 2\.9, 3\.2, 1\.0\) has an "
                                              r"index that is not an integer$"):
        LieBracket.from_entries(3, [(1.5, 2.9, 3.2, 1.0)])
    with pytest.raises(ValidationError, match=r"^form entry \(1\.7, 2, 3\) has an index that is "
                                              r"not an integer$"):
        KForm.from_entries(3, 3, [((1.7, 2, 3), 2.0)])
    for bad in ("2", None, math.nan, math.inf):
        with pytest.raises(ValidationError, match="not an integer"):
            LieBracket.from_entries(3, [(1, bad, 3, 1.0)])
        with pytest.raises(ValidationError, match="not an integer"):
            KForm.from_entries(3, 2, [((1, bad), 1.0)])
    for flag in (True, np.True_):  # int(True) == True, but a bool is not an index
        with pytest.raises(ValidationError, match=r"^bracket entry \(.+\) has an index that is "
                                                  r"not an integer$"):
            LieBracket.from_entries(3, [(flag, 2, 3, 1.0)])
        with pytest.raises(ValidationError, match=r"^form entry \(.+\) has an index that is "
                                                  r"not an integer$"):
            KForm.from_entries(3, 3, [((flag, 2, 3), 2.0)])
    mu = LieBracket.from_entries(3, [(1.0, np.int64(2), np.float64(3.0), 1.0)])
    assert np.array_equal(mu.coeffs, HEIS.coeffs)
    w = KForm.from_entries(3, 3, [((np.int32(3), 2.0, 1), 2.0)])
    assert np.array_equal(w.coeffs, [-2.0])
    for dim, degree, what in ((3, -1, "degree"), (3, 1.5, "degree"), (3, False, "degree"),
                              (3.0, 1, "dimension"), (True, 1, "dimension"), (0, 1, "dimension")):
        for build in (lambda: KForm.from_entries(dim, degree, []),
                      lambda: KForm.zero(dim, degree), lambda: KForm(dim, degree, [1.0])):
            with pytest.raises(ValidationError, match=f"^form {what} must be a "):
                build()
    for dim in (2.5, -2, -1, 0, True):
        with pytest.raises(ValidationError, match="^bracket dimension must be a positive int"):
            LieBracket.from_entries(dim, [])
        with pytest.raises(ValidationError, match="^bracket dimension must be a positive int"):
            LieBracket.zero(dim)


def test_dd_equals_jacobiator(rng):
    # d(d xi)(x,y,z) = xi(Jacobiator(x,y,z)) exactly, so the sup over basis
    # 1-forms of |dd e^l| reproduces jacobi_residual; in particular dd = 0
    # on 1-forms iff the bracket is Lie.
    for n in (3, 4):
        raw = oc.random_skew_bracket(rng, n)
        dd_max = 0.0
        for l in range(n):
            el = KForm(n, 1, np.eye(n)[l])
            dd_max = max(dd_max, ce_differential(ce_differential(el, raw), raw).norm_inf)
        assert dd_max == pytest.approx(jacobi_residual(raw), abs=1e-12)
        mu = oc.random_nilpotent(rng, n)
        for l in range(n):
            el = KForm(n, 1, np.eye(n)[l])
            assert ce_differential(ce_differential(el, mu), mu).norm_inf < 1e-12


def test_wedge_basics(rng):
    e1 = KForm.from_entries(3, 1, [((1,), 1.0)])
    e2 = KForm.from_entries(3, 1, [((2,), 1.0)])
    w = wedge(e1, e2)
    assert w.component((0, 1)) == pytest.approx(1.0)
    assert wedge(e2, e1).component((0, 1)) == pytest.approx(-1.0)
    # graded commutativity and associativity on random forms
    n = 4
    a = KForm(n, 1, oc.random_form_coeffs(rng, n, 1))
    b = KForm(n, 2, oc.random_form_coeffs(rng, n, 2))
    c = KForm(n, 1, oc.random_form_coeffs(rng, n, 1))
    assert wedge(a, b).allclose((-1.0) ** (1 * 2) * wedge(b, a), tol=1e-12)
    assert wedge(wedge(a, b), c).allclose(wedge(a, wedge(b, c)), tol=1e-12)


def test_ce_differential_is_a_derivation_for_wedge(rng):
    # d(alpha ^ beta) = d(alpha) ^ beta + (-1)^k alpha ^ d(beta)
    n = 5
    mu = oc.random_nilpotent(rng, n)
    a = KForm(n, 1, oc.random_form_coeffs(rng, n, 1))
    b = KForm(n, 2, oc.random_form_coeffs(rng, n, 2))
    lhs = ce_differential(wedge(a, b), mu)
    rhs = wedge(ce_differential(a, mu), b) + (-1.0) * wedge(a, ce_differential(b, mu))
    assert lhs.allclose(rhs, tol=1e-11)


# ---------------------------------------------------------------------------
# GL_n action and its derivative


def test_gl_action_examples():
    assert np.allclose(gl_action(np.eye(3), HEIS).coeffs, HEIS.coeffs)
    c = 3.0
    scaled = gl_action(c * np.eye(3), HEIS)
    assert np.allclose(scaled.coeffs, HEIS.coeffs / c, atol=1e-15)
    stretched = gl_action(np.diag([1.0, 1.0, 2.0]), HEIS)
    assert stretched.coeffs[0, 1, 2] == pytest.approx(2.0)


def test_gl_action_form_example_and_dense_agreement(rng):
    e3 = KForm.from_entries(3, 1, [((3,), 1.0)])
    half = gl_action_form(np.diag([1.0, 1.0, 2.0]), e3)
    assert half.component((2,)) == pytest.approx(0.5)
    n = 4
    A = oc.random_basis_change(rng, n)
    Ainv = np.linalg.inv(A)
    for k in (1, 2, 3):
        w = KForm(n, k, oc.random_form_coeffs(rng, n, k))
        got = gl_action_form(A, w).unpack()
        want = w.unpack()
        for ax in range(k):
            want = np.moveaxis(np.tensordot(want, Ainv, axes=(ax, 0)), -1, ax)
        assert np.allclose(got, want, atol=1e-10)


def test_gl_action_is_a_left_action(rng):
    for n in (3, 4):
        mu = oc.random_nilpotent(rng, n)
        A = oc.random_basis_change(rng, n)
        B = oc.random_basis_change(rng, n)
        lhs = gl_action(A @ B, mu).coeffs
        rhs = gl_action(A, gl_action(B, mu)).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        w = KForm(n, 2, oc.random_form_coeffs(rng, n, 2))
        assert gl_action_form(A @ B, w).allclose(
            gl_action_form(A, gl_action_form(B, w)), tol=1e-12)


def test_gl_action_preserves_jacobi_and_intertwines_d(rng):
    n = 4
    mu = oc.random_nilpotent(rng, n)
    A = oc.random_basis_change(rng, n)
    moved = gl_action(A, mu)
    assert jacobi_residual(moved) < 1e-12
    w = KForm(n, 2, oc.random_form_coeffs(rng, n, 2))
    lhs = ce_differential(gl_action_form(A, w), moved)
    rhs = gl_action_form(A, ce_differential(w, mu))
    assert lhs.allclose(rhs, tol=1e-11)


def test_raise_pair_is_the_kronecker_square_on_two_slots(rng):
    # B on each of the first two slots, one matmul each, against the (n^2, n^2) factor
    for n in range(1, 11):
        B = rng.standard_normal((n, n))
        for tail in ((), (n,), (2 * n,), (n, 3)):
            x = rng.standard_normal((n, n) + tail)
            want = np.kron(B, B) @ x.reshape(n * n, -1)
            got = lie._raise_pair(B, x)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (n, tail)


def test_gl_action_rejects_singular():
    with pytest.raises(ValidationError):
        gl_action(np.zeros((3, 3)), HEIS)
    with pytest.raises(ValidationError):
        gl_action_form(np.diag([1.0, 1.0, 0.0]),
                       KForm.from_entries(3, 1, [((1,), 1.0)]))
    # a non-square matrix, or one of the wrong size, or a non-finite one
    e1 = KForm(3, 1, [1.0, 0.0, 0.0])
    H = KForm(3, 3, [1.0])
    for call in (lambda: compound_matrix(np.ones((2, 3)), 2),
                 lambda: compound_matrix(np.ones(3), 1),
                 lambda: gl_action(np.eye(2), np.zeros((3, 3, 3))),
                 lambda: gl_action(np.ones((3, 2)), np.zeros((3, 3, 3))),
                 lambda: gl_action(np.full((3, 3), np.nan), HEIS),
                 lambda: gl_action_form(np.eye(2), e1),
                 lambda: gl_action_form(np.eye(4), e1),
                 lambda: pi_form(np.eye(4), e1),
                 lambda: pi_form(np.eye(2), e1),
                 lambda: pi_form(np.ones((3, 2)), e1),
                 lambda: pi_mu(np.eye(4), HEIS),
                 lambda: pi_mu(np.eye(2), HEIS),
                 lambda: pi_mu(np.ones((3, 2)), HEIS),
                 # a metric of another dimension than the bracket or the form
                 lambda: christoffels(HEIS, np.eye(2)),
                 lambda: form_inner(e1, e1, np.eye(2)),
                 lambda: hodge_star(e1, np.eye(4)),
                 lambda: symmetric_derivations(HEIS, np.eye(2)),
                 # theta of the wrong degree, dimension or length
                 lambda: generalized_ricci_plus(HEIS, np.eye(3), H, KForm.zero(3, 2)),
                 lambda: generalized_ricci_plus(HEIS, np.eye(3), H, KForm.zero(4, 1)),
                 lambda: generalized_ricci_plus(HEIS, np.eye(3), H, np.zeros(4)),
                 # forms and brackets of a bad dimension, degree, shape or index
                 lambda: KForm(3.0, 1, [1.0, 0.0, 0.0]),
                 lambda: KForm(0, 0, [1.0]),
                 lambda: KForm(3, -1, []),
                 lambda: KForm.from_dense(np.zeros((3, 2))),
                 lambda: e1.component((3,)),
                 lambda: jacobi_residual(np.zeros((3, 3))),
                 lambda: wedge(e1, KForm.zero(4, 1))):
        with pytest.raises(ValidationError):
            call()


def test_cached_index_tables_are_read_only():
    # the tables are shared by every later call with the same (n, k), or (spec, n)
    tables = (*lie._ce_tables(4, 2), lie._index_array(4, 2), *lie._unpack_tables(4, 2),
              lie._pack_index(4, 2), *hodge._star_tables(4, 2),
              *flows._gbf_tables(flows.PhiSpec.RIC_MINUS_QUARTER_HSQ, 4))
    for table in tables:
        assert table.size
        with pytest.raises(ValueError):
            table[...] = 0
    with pytest.raises(TypeError):
        lie._tuple_rank(4, 2)[(0, 1)] = 5


def test_pi_identity_and_zero_and_derivation():
    assert np.allclose(pi_mu(np.eye(3), HEIS), -HEIS.coeffs)
    assert np.max(np.abs(pi_mu(np.zeros((3, 3)), HEIS))) == 0.0
    for k in (1, 2, 3):
        w = KForm(3, k, np.arange(1.0, 1.0 + math.comb(3, k)))
        assert pi_form(np.eye(3), w).allclose(-float(k) * w, tol=1e-14)
    # diag(1,1,2) is a derivation of the Heisenberg bracket: 1 + 1 - 2 = 0
    assert np.max(np.abs(pi_mu(np.diag([1.0, 1.0, 2.0]), HEIS))) == 0.0


def test_pi_is_the_derivative_of_the_action(rng):
    # forward difference at s in {1e-3, 1e-4}: first-order convergence
    n = 4
    mu = oc.random_nilpotent(rng, n)
    phi = 0.5 * rng.standard_normal((n, n))
    errs = []
    for s in (1e-3, 1e-4):
        As = scipy.linalg.expm(s * phi)
        fd = (gl_action(As, mu).coeffs - mu.coeffs) / s
        errs.append(np.max(np.abs(fd - pi_mu(phi, mu))))
    assert errs[0] < 0.05
    assert errs[1] < errs[0]
    assert 3.0 < errs[0] / errs[1] < 30.0
    # same for forms, via a tighter central difference
    w = KForm(n, 2, oc.random_form_coeffs(rng, n, 2))
    s = 1e-5
    Ap = scipy.linalg.expm(s * phi)
    Am = scipy.linalg.expm(-s * phi)
    fd = (1.0 / (2 * s)) * (gl_action_form(Ap, w) - gl_action_form(Am, w))
    assert fd.allclose(pi_form(phi, w), tol=1e-8)


def test_form_dense_validation(rng):
    w = KForm(3, 2, oc.random_form_coeffs(rng, 3, 2))
    assert np.allclose(form_dense(w, 3, 2), w.unpack())
    with pytest.raises(ValidationError):
        form_dense(w, 3, 3)
    with pytest.raises(ValidationError):
        form_dense(np.zeros((3, 3)), 3, 3)


def test_oracles_import_only_public_nilflow_names():
    """tests/oracles.py, the reference the tests and the benchmark's survey checks read, takes
    from nilflow only public top-level names, and not the basis-change action whose round-off
    would move the oracle's random inputs; so no library internal reaches an oracle."""
    with open(oc.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "nilflow" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nilflow"):
            assert node.module == "nilflow", f"oracles import from {node.module}"
            names += [alias.name for alias in node.names]
    assert names and not {"gl_action", "gl_action_form"} & set(names)
    for name in names:  # a public name of the package, not a module or a private name
        assert not name.startswith("_") and not inspect.ismodule(getattr(nilflow, name)), name
