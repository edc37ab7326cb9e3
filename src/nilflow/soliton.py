"""Derivation spaces and generalized soliton fitting.

A metric g on a Lie algebra (mu, H, theta) is a generalized soliton when
Rc_plus = lam g + g(D ., .) + 1/2 omega for a constant lam, a g-symmetric
derivation D and a 2-form omega.  In the terms of the generalized Ricci
tensor Rc_plus (curvature._generalized_terms) its two parts read

  symmetric part:  Rc_g = lam g + g(D ., .) + 1/4 H.H - 1/2 S(nabla^+ theta)
  skew part:       omega = -d*H + 1/2 d theta - 1/2 iota_{g^-1 theta} H

The fit solves the symmetric equation by linear least squares over lam and
the space of g-symmetric derivations (Frobenius objective, minimum-norm
solution when the decomposition is not unique) and takes omega from the skew
equation, which determines it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RANK_TOL_FACTOR
from .curvature import symmetric_part, _generalized_terms
from .errors import ValidationError
from .hodge import as_metric
from .lie import KForm, ce_differential, _as_bracket, _index_array, _pack

__all__ = [
    "SolitonData", "derivation_space", "soliton_fit", "soliton_residual",
    "symmetric_derivations",
]


@dataclass(frozen=True)
class SolitonData:
    """Result of a soliton fit: the triple (lam, D, omega) and its residuals.

    residual_norm is max(sym_residual, skew_residual), both sup-norms; it is
    what soliton_residual reports back on the fitted data.
    """

    lam: float
    D: np.ndarray
    omega: KForm
    sym_residual: float
    skew_residual: float
    residual_norm: float


def _derivation_constraint_matrix(m):
    # Rows: phi -> pi(phi)mu on its packed i < j entries, (C(n, 2) n, n^2); null space = Der(mu).
    n = m.shape[0]
    eye = np.eye(n)
    i, j = _index_array(n, 2).T
    a1 = np.einsum('kr,ps->pkrs', eye, m[i, j])
    a2 = np.einsum('ps,rpk->pkrs', eye[i], m[:, j])
    a3 = np.einsum('ps,prk->pkrs', eye[j], m[i])
    return (a1 - a2 - a3).reshape(-1, n * n)


def _null_space(mat):
    # with fewer rows than columns (n <= 2) a thin SVD lacks part of the null space
    _, s, vt = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > RANK_TOL_FACTOR * smax)) if smax > 0.0 else 0
    return vt[rank:].copy()


def derivation_space(mu):
    """Orthonormal basis of Der(mu) = {phi : pi(phi)mu = 0}, shape (m, n, n); mu must be skew."""
    m = _as_bracket(mu).coeffs
    n = m.shape[0]
    basis = _null_space(_derivation_constraint_matrix(m))
    return basis.reshape(-1, n, n)


def symmetric_derivations(mu, g):
    """Orthonormal basis of the g-symmetric derivations {phi in Der(mu) : g phi = (g phi)^T}."""
    m = _as_bracket(mu).coeffs
    n = m.shape[0]
    gm = as_metric(g)
    if gm.dim != n:
        raise ValidationError("bracket and metric dimensions differ")
    eye = np.eye(n)
    G = gm.entries
    # (g phi - phi^T g)[i, j] for i < j (it is skew) as a linear map of phi[r, s]
    sym = _pack(np.einsum('ir,js->ijrs', G, eye) - np.einsum('jr,is->ijrs', G, eye), 2)
    stacked = np.vstack([_derivation_constraint_matrix(m), sym.reshape(-1, n * n)])
    return _null_space(stacked).reshape(-1, n, n)


def _soliton_terms(mu, g, H, theta):
    """Validated gm and the data's terms: Rc_g, H.H, S(nabla^+ theta) and the skew target
    -d*H + 1/2 d theta - 1/2 iota_{g^-1 theta} H, as a 2-form."""
    (gm, H, th), (rc, hh, dstar, nab) = _generalized_terms(mu, g, H, theta)
    dth = ce_differential(KForm(gm.dim, 1, th), mu)
    iota = KForm.from_dense(np.einsum('i,ijk->jk', gm.inverse @ th, H.unpack()))
    return gm, rc, hh, symmetric_part(nab), -1.0 * dstar + 0.5 * dth - 0.5 * iota


def _residuals(terms, lam, D, omega):
    gm, rc, hh, nabla, skew = terms
    G = gm.entries
    sym_lhs = rc - lam * G - D.T @ G - 0.25 * hh + 0.5 * nabla
    return float(np.max(np.abs(sym_lhs))), (omega - skew).norm_inf


def soliton_residual(mu, g, H, theta, lam, D, omega):
    """Sup-norm residuals (symmetric, skew) of the soliton equations at given data."""
    terms = _soliton_terms(mu, g, H, theta)
    n = terms[0].dim
    Dm = np.asarray(D, dtype=float)
    if Dm.shape != (n, n):
        raise ValidationError(f"D must be an {n}x{n} matrix")
    if not (isinstance(omega, KForm) and omega.degree == 2 and omega.dim == n):
        raise ValidationError("omega must be a 2-form matching the problem dimension")
    return _residuals(terms, lam, Dm, omega)


def soliton_fit(mu, g, H, theta):
    """Best generalized-soliton data (lam, D, omega) for (mu, g, H, theta).

    lam and D solve the symmetric equation in the Frobenius norm over
    lam g + g(D .,.) with D in the g-symmetric derivations; rank-deficient
    systems take the minimum-norm solution.  omega is read off the skew
    equation exactly.
    """
    terms = _soliton_terms(mu, g, H, theta)
    gm, rc, hh, nabla, omega = terms
    G = gm.entries
    target = rc - 0.25 * hh + 0.5 * nabla

    basis = symmetric_derivations(mu, gm)
    cols = [G.ravel()]
    cols.extend((b.T @ G).ravel() for b in basis)
    design = np.stack(cols, axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, target.ravel(), rcond=None)

    lam = float(coef[0])
    if len(basis):
        Dm = np.einsum('b,bij->ij', coef[1:], basis)
    else:
        Dm = np.zeros_like(G)
    sym_res, skew_res = _residuals(terms, lam, Dm, omega)
    return SolitonData(lam=lam, D=Dm, omega=omega, sym_residual=sym_res,
                       skew_residual=skew_res, residual_norm=max(sym_res, skew_res))
