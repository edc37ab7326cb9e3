"""Ricci curvature, flux terms, and the generalized Ricci tensor.

Conventions, all in a fixed basis with bracket coefficients mu[i, j, k]:

  - ric_orthonormal is the Ricci form of a nilpotent bracket seen through the
    identity metric: Ric_ij = -1/2 mu_{ikl} mu_{jkl} + 1/4 mu_{kli} mu_{klj}.
  - rc_metric transports a general metric to an orthonormal frame with the
    Cholesky factor of g and pulls the result back, so it agrees with the
    Koszul/curvature-tensor computation without ever forming Christoffels.
    rc_metric and h_circ_h share the arithmetic of the generalized Ricci flow's
    kernel (flows._grf_kernel): lie._frame_change, _pull_back and _h_circ_h.
  - The Bismut connection is nabla^g + 1/2 g^{-1} H, with H a 3-form; its
    action on a 1-form theta is returned as the full (non-symmetric) matrix
    (nabla theta)_ij = (nabla_{e_i} theta)(e_j).
  - The generalized Ricci tensor is
    Rc_plus = Rc_g - 1/4 H.H - 1/2 d*H + 1/2 nabla^+ theta,
    with the 2-form d*H embedded as a skew matrix.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOL
from .errors import ValidationError
from .hodge import as_metric, codifferential
from .lie import (KForm, bracket_coeffs, ce_differential, form_dense, _as_3form, _as_bracket,
                  _frame_change)

__all__ = [
    "ric_orthonormal", "rc_metric", "h_circ_h", "h_squared_neutral",
    "christoffels", "bismut_nabla_theta", "generalized_ricci_plus",
    "require_closed", "symmetric_part", "skew_part", "two_form_matrix",
]


def symmetric_part(mat):
    mat = np.asarray(mat, dtype=float)
    return (mat + mat.T) / 2.0


def skew_part(mat):
    mat = np.asarray(mat, dtype=float)
    return (mat - mat.T) / 2.0


def two_form_matrix(omega):
    """Skew matrix M_ij = omega(e_i, e_j) of a 2-form."""
    if omega.degree != 2:
        raise ValidationError(f"expected a 2-form, got degree {omega.degree}")
    return omega.unpack()


def ric_orthonormal(mu):
    """Ricci form of the metric Lie algebra (mu, identity metric)."""
    m = bracket_coeffs(mu)
    a = np.einsum('ikl,jkl->ij', m, m)
    b = np.einsum('kli,klj->ij', m, m)
    return -0.5 * a + 0.25 * b


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
    h = gm.chol_upper  # triangular with a positive diagonal: invertible, whatever its condition
    return symmetric_part(_pull_back(h, ric_orthonormal(_frame_change(h, np.linalg.inv(h), m))))


def _pull_back(u, form):
    """The bilinear form form(u x, u y) as the matrix u^T form u."""
    return u.T @ form @ u


def h_circ_h(H, g):
    """Symmetric form (H.H)_ij = g^{rl} g^{st} H_{irs} H_{jlt}; PSD for any H.

    H is a KForm, a packed coefficient vector or a dense alternating tensor.
    """
    gm = as_metric(g)
    hh, _ = _h_circ_h(_as_3form(H, gm.dim).unpack(), gm.inverse)
    return symmetric_part(hh)


def _h_circ_h(hd, g_inv):
    """Unsymmetrized H o H of a dense 3-form hd, and hd with g_inv on its last two slots."""
    n = hd.shape[0]
    raised = g_inv @ hd @ g_inv
    return raised.reshape(n, -1) @ hd.reshape(n, -1).T, raised


def h_squared_neutral(H):
    """Orthonormal-frame square (H^2)_ij = H_{ikl} H_{jkl} (no metric, no 1/4)."""
    n = H.dim if isinstance(H, KForm) else len(np.atleast_1d(H))
    Hd = form_dense(H, n, 3)
    out = np.einsum('ikl,jkl->ij', Hd, Hd)
    return symmetric_part(out)


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


def require_closed(mu, H, tol=DEFAULT_TOL):
    """Raise unless |d_mu H| <= tol; the generalized tensors assume closed flux."""
    res = ce_differential(H, mu).norm_inf
    if res > tol:
        raise ValidationError(f"H is not closed: |d_mu H| = {res:g} exceeds {tol:g}")


def generalized_ricci_plus(mu, g, H, theta):
    """Generalized Ricci tensor Rc_g - 1/4 H.H - 1/2 d*H + 1/2 nabla^+ theta.

    Returns the full matrix; symmetric_part / skew_part split it into the
    metric-direction and 2-form-direction components.
    """
    gm = as_metric(g)
    H = _as_3form(H, gm.dim)
    require_closed(mu, H)
    rc = rc_metric(mu, gm)
    hh = h_circ_h(H, gm)
    dstar = two_form_matrix(codifferential(H, mu, gm))
    nab = bismut_nabla_theta(mu, gm, H, theta)
    return rc - 0.25 * hh - 0.5 * dstar + 0.5 * nab


def _theta_vector(theta, n):
    if isinstance(theta, KForm):
        if theta.degree != 1 or theta.dim != n:
            raise ValidationError("theta must be a 1-form matching the metric dimension")
        return theta.coeffs
    arr = np.asarray(theta, dtype=float).reshape(-1)
    if arr.shape != (n,):
        raise ValidationError(f"theta must have {n} components, got {arr.shape[0]}")
    return arr
