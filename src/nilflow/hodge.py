"""Inner products, Hodge star, codifferential, and the form Laplacian.

All operations are algebraic: they act on left-invariant forms through the
structure constants, so "d" below is the Chevalley-Eilenberg differential.
The star is defined by alpha wedge star(beta) = <alpha, beta>_g vol_g with
vol_g = orientation * sqrt(det g) e^{1...n}; the codifferential uses the sign
(-1)^{n(k+1)+1} star d star on k-forms, which is the adjoint of d for the
unimodular (in particular nilpotent) brackets this library targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import METRIC_SYMMETRY_TOL
from .errors import ValidationError
from .lie import (KForm, bracket_coeffs, ce_differential, complement,
                  compound_matrix, index_tuples, shuffle_sign, _tuple_rank)


@dataclass(frozen=True)
class Metric:
    """Symmetric positive definite inner product on R^n.

    Construction symmetrizes exactly after checking the asymmetry is below
    METRIC_SYMMETRY_TOL (relative), and fails if the matrix is not positive
    definite.  The inverse and the upper-triangular Cholesky factor
    (entries = h^T h) are precomputed.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"metric must be a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("metric entries must be finite")
        scale = 1.0 + float(np.max(np.abs(arr)))
        if float(np.max(np.abs(arr - arr.T))) > METRIC_SYMMETRY_TOL * scale:
            raise ValidationError("metric matrix is not symmetric")
        arr = (arr + arr.T) / 2.0
        try:
            lower = np.linalg.cholesky(arr)
        except np.linalg.LinAlgError:
            raise ValidationError("metric matrix is not positive definite") from None
        inv = np.linalg.inv(arr)
        inv = (inv + inv.T) / 2.0
        for a in (arr, inv, lower):
            a.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "_inv", inv)
        object.__setattr__(self, "_chol_lower", lower)
        object.__setattr__(self, "_sqrt_det", float(np.prod(np.diag(lower))))

    @property
    def dim(self):
        return self.entries.shape[0]

    @property
    def inverse(self):
        return self._inv

    @property
    def chol_upper(self):
        """Upper-triangular h with entries = h.T @ h."""
        return self._chol_lower.T

    @property
    def sqrt_det(self):
        return self._sqrt_det

    @property
    def det(self):
        return self._sqrt_det ** 2

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, values):
        return cls(np.diag(np.asarray(values, dtype=float)))


def as_metric(g):
    """Coerce a Metric, a square array, or a 1-D diagonal into a Metric."""
    if isinstance(g, Metric):
        return g
    arr = np.asarray(g, dtype=float)
    if arr.ndim == 1:
        return Metric.diagonal(arr)
    return Metric(arr)


def orthonormalize(g):
    """Upper-triangular h with g = h^T h.

    h is the basis change taking g to the identity metric: pushing a problem
    forward by h (gl_action on the bracket) lands in an orthonormal frame.
    """
    return as_metric(g).chol_upper


def form_inner(alpha, beta, g):
    """Inner product of two k-forms induced by g."""
    if alpha.dim != beta.dim or alpha.degree != beta.degree:
        raise ValidationError("form_inner requires forms of equal dim and degree")
    gm = as_metric(g)
    if gm.dim != alpha.dim:
        raise ValidationError("metric dimension does not match the forms")
    comp = compound_matrix(gm.inverse, alpha.degree)
    return float(alpha.coeffs @ comp @ beta.coeffs)


def vol_form(g, orientation=1):
    """Riemannian volume form orientation * sqrt(det g) e^{1...n}."""
    gm = as_metric(g)
    _check_orientation(orientation)
    return KForm(gm.dim, gm.dim, np.array([orientation * gm.sqrt_det]))


def _check_orientation(orientation):
    if orientation not in (1, -1):
        raise ValidationError(f"orientation must be +1 or -1, got {orientation!r}")


def hodge_star(omega, g, orientation=1):
    """Hodge star: the unique (n-k)-form with alpha wedge star(omega) = <alpha, omega> vol."""
    gm = as_metric(g)
    _check_orientation(orientation)
    n, k = omega.dim, omega.degree
    if gm.dim != n:
        raise ValidationError("metric dimension does not match the form")
    if k > n:
        raise ValidationError(f"cannot star a degree-{k} form on R^{n}")
    comp = compound_matrix(gm.inverse, k)
    inner = comp @ omega.coeffs  # <e^I, omega>_g over increasing I
    scale = orientation * gm.sqrt_det
    ranks_c = _tuple_rank(n, n - k)
    out = np.zeros(math.comb(n, n - k))
    for r, I in enumerate(index_tuples(n, k)):
        Ic = complement(I, n)
        out[ranks_c[Ic]] = shuffle_sign(I, Ic) * scale * inner[r]
    return KForm(n, n - k, out)


def codifferential(omega, mu, g):
    """Codifferential d* = (-1)^{n(k+1)+1} star d star on k-forms; zero on 0-forms.

    The two stars cancel the orientation, so the result is orientation-free.
    """
    gm = as_metric(g)
    n, k = omega.dim, omega.degree
    if k == 0:
        return KForm.zero(n, 0)
    if k > n:
        return KForm.zero(n, k - 1)  # the form itself is identically zero
    sign = -1.0 if (n * (k + 1) + 1) % 2 else 1.0
    inner = hodge_star(omega, gm)
    return sign * hodge_star(ce_differential(inner, mu), gm)


def hodge_laplacian(omega, mu, g):
    """Form Laplacian d d* + d* d for the Chevalley-Eilenberg differential."""
    gm = as_metric(g)
    up = codifferential(ce_differential(omega, mu), mu, gm)
    if omega.degree == 0:
        return up
    down = ce_differential(codifferential(omega, mu, gm), mu)
    return up + down
