"""Ricci curvature, flux terms, and the generalized Ricci tensor.

Conventions, all in a fixed basis with bracket coefficients mu[i, j, k]:

  - ric_orthonormal is the Ricci form of a nilpotent bracket seen through the
    identity metric: Ric_ij = -1/2 mu_{ikl} mu_{jkl} + 1/4 mu_{kli} mu_{klj}.
  - rc_metric moves mu to an orthonormal frame of g = L L^T by L^-1 on each of
    its inputs and pulls the result back, so it agrees with the Koszul/curvature
    computation without Christoffels; h_circ_h is X^T X for X = H raised by L^-1
    on two slots, exactly symmetric.  Both share the GRF kernel's arithmetic
    (flows._grf_kernel): lie._raise_pair and ric_orthonormal.
  - The Bismut connection is nabla^g + 1/2 g^{-1} H, with H a 3-form; its
    action on a 1-form theta is returned as the full (non-symmetric) matrix
    (nabla theta)_ij = (nabla_{e_i} theta)(e_j).
  - The generalized Ricci tensor is
    Rc_plus = Rc_g - 1/4 H.H - 1/2 d*H + 1/2 nabla^+ theta,
    with the 2-form d*H embedded as its skew matrix (KForm.unpack);
    generalized solitons solve Rc_plus = lam g + g(D ., .) + 1/2 omega
    (soliton.py).  Both take only mu Lie and H closed for it, checked by
    lie's structure gate (lie._checked_structure_row).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .hodge import as_metric, codifferential
from .lie import KForm, bracket_coeffs, _as_3form, _as_bracket, _checked_structure_row, _raise_pair

__all__ = [
    "ric_orthonormal", "rc_metric", "h_circ_h", "christoffels", "bismut_nabla_theta",
    "generalized_ricci_plus", "symmetric_part",
]


def symmetric_part(mat):
    mat = np.asarray(mat, dtype=float)
    return (mat + mat.T) / 2.0


def ric_orthonormal(mu):
    """Ricci form of (mu, identity metric), exactly symmetric: -1/2 A A^T + 1/4 B^T B
    for mu as the (n, n^2) matrix A and as the (n^2, n) matrix B."""
    m = bracket_coeffs(mu)
    a, b = m.reshape(len(m), -1), m.reshape(-1, len(m))
    return -0.5 * (a @ a.T) + 0.25 * (b.T @ b)


def rc_metric(mu, g):
    """Ricci form of (mu, g) for an arbitrary SPD metric g.

    Uses the isometry h (upper Cholesky factor, g = h^T h) onto an
    orthonormal frame: Rc_g(x, y) = Ric_{h.mu}(h x, h y).
    """
    gm = as_metric(g)
    m = _as_bracket(mu).coeffs
    if gm.dim != m.shape[0]:
        raise ValidationError(
            f"metric dimension {gm.dim} does not match bracket dimension {m.shape[0]}")
    h = gm.chol_upper
    frame = (_raise_pair(gm.chol_lower_inv, m) @ h.T).reshape(m.shape)  # h.mu
    return symmetric_part(h.T @ ric_orthonormal(frame) @ h)  # pulled back by h


def h_circ_h(H, g):
    """Symmetric form (H.H)_ij = g^{rl} g^{st} H_{irs} H_{jlt}, as X^T X for H raised by L^-1
    on two slots (g = L L^T): PSD, and exactly symmetric by numpy's symmetric rank-k update.
    H is a KForm, a packed coefficient vector or a dense alternating tensor."""
    gm = as_metric(g)
    X = _raise_pair(gm.chol_lower_inv, _as_3form(H, gm.dim).unpack())
    return X.T @ X


def christoffels(mu, g):
    """Levi-Civita coefficients Gamma[i, j, k] with nabla_{e_i} e_j = Gamma[i,j,k] e_k.

    Koszul formula for left-invariant fields:
      2 g(nabla_{e_i} e_j, e_k)
        = g(mu(e_i,e_j), e_k) - g(mu(e_j,e_k), e_i) + g(mu(e_k,e_i), e_j).
    """
    m = bracket_coeffs(mu)
    gm = as_metric(g)
    if gm.dim != m.shape[0]:
        raise ValidationError("bracket and metric dimensions differ")
    mg = np.einsum('ijl,lk->ijk', m, gm.entries)  # g(mu(e_i, e_j), e_k)
    K = mg - np.einsum('jki->ijk', mg) + np.einsum('kij->ijk', mg)
    return 0.5 * np.einsum('ijk,km->ijm', K, gm.inverse)


def bismut_nabla_theta(mu, g, H, theta):
    """Matrix of nabla^+ theta for the connection with totally skew torsion H.

    (nabla^+_{e_i} theta)(e_j) = -theta_k (Gamma_{ij}^k + 1/2 g^{kl} H_{ijl}).
    H is a KForm, a packed coefficient vector or a dense alternating tensor.
    """
    gm = as_metric(g)
    n = gm.dim
    Hd = _as_3form(H, n).unpack()
    th = _theta_vector(theta, n)
    gam_plus = christoffels(mu, gm) + 0.5 * np.einsum('ijl,lk->ijk', Hd, gm.inverse)
    return -np.einsum('ijk,k->ij', gam_plus, th)


def _generalized_terms(mu, g, H, theta):
    """Validated (Metric, closed 3-form, theta) and Rc_plus's terms Rc_g, H.H, d*H, nabla^+ theta;
    ValidationError unless mu satisfies Jacobi and H is closed for it."""
    gm = as_metric(g)
    m = _as_bracket(mu).coeffs
    H = _as_3form(H, len(m))
    _checked_structure_row(m, H.coeffs)
    th = _theta_vector(theta, gm.dim)
    return (gm, H, th), (rc_metric(mu, gm), h_circ_h(H, gm), codifferential(H, mu, gm),
                         bismut_nabla_theta(mu, gm, H, th))


def generalized_ricci_plus(mu, g, H, theta):
    """Generalized Ricci tensor Rc_g - 1/4 H.H - 1/2 d*H + 1/2 nabla^+ theta.

    Returns the full matrix M, with d*H as its 2-form's skew matrix (KForm.unpack).
    symmetric_part(M) is the metric-direction component and (M - M^T) / 2 the
    2-form-direction one.
    """
    _, (rc, hh, dstar, nab) = _generalized_terms(mu, g, H, theta)
    return rc - 0.25 * hh - 0.5 * dstar.unpack() + 0.5 * nab


def _theta_vector(theta, n):
    if isinstance(theta, KForm):
        if theta.degree != 1 or theta.dim != n:
            raise ValidationError("theta must be a 1-form matching the metric dimension")
        return theta.coeffs
    arr = np.asarray(theta, dtype=float).reshape(-1)
    if arr.shape != (n,):
        raise ValidationError(f"theta must have {n} components, got {arr.shape[0]}")
    return arr
