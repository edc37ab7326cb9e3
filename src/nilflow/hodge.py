"""Inner products, Hodge star, codifferential, and the form Laplacian.

All operations are algebraic: they act on left-invariant forms through the
structure constants, so "d" below is the Chevalley-Eilenberg differential.
The star is defined by alpha wedge star(beta) = <alpha, beta>_g vol_g with
vol_g = orientation * sqrt(det g) e^{1...n}.  The codifferential d* is the
g-adjoint of d, for unimodular brackets only, and one contraction on k-forms:
d*w = -(k-1)/2 Alt(g mu^T w^##), w raised by g^-1 on two slots (lie._raise_pair)
against mu's inputs, alternated by a gather (_codiff) that the flows' GRF kernel
shares.  Where d on (k-1)-forms vanishes (lie._d_block), d* is an exact zero.

The star is C_k(g^-1) (lie._on_slots, as in form_inner) followed by a signed
permutation of packed slots, built once per (n, k) and cached read-only: the
r-th k-tuple I goes to the slot of its complement Ic, which is the (n-k)-tuple
of rank C(n, k) - 1 - r, with the sign lie._sort_sign gives the tuple I + Ic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import METRIC_SYMMETRY_TOL
from .errors import ValidationError
from .lie import (KForm, bracket_coeffs, ce_differential, _d_block, _frozen, _index_array,
                  _on_slots, _raise_pair, _sort_sign)

__all__ = [
    "Metric", "as_metric", "codifferential", "form_inner", "hodge_laplacian", "hodge_star",
    "orthonormalize", "vol_form",
]


@dataclass(frozen=True)
class Metric:
    """Symmetric positive definite inner product on R^n.

    Construction symmetrizes exactly after checking the asymmetry is below
    METRIC_SYMMETRY_TOL (relative), and fails if the matrix is not positive
    definite; its one Cholesky factorization gives the upper-triangular factor
    (entries = h^T h) and sqrt_det.  The inverse and the inverse of L = h^T are
    computed on first read and kept, read-only, so a Metric built only to check
    its entries pays no inversion.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
            raise ValidationError(f"metric must be a nonempty square matrix, got shape {arr.shape}")
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
        _frozen(arr, lower)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "_chol_lower", lower)
        object.__setattr__(self, "_sqrt_det", float(np.prod(np.diag(lower))))

    @property
    def dim(self):
        return self.entries.shape[0]

    @cached_property
    def inverse(self):
        inv = np.linalg.inv(self.entries)
        return _frozen((inv + inv.T) / 2.0)[0]

    @property
    def chol_upper(self):
        """Upper-triangular h with entries = h.T @ h."""
        return self._chol_lower.T

    @cached_property
    def chol_lower_inv(self):
        """L^-1 for the lower-triangular L = chol_upper.T, entries = L L^T."""
        # positive diagonal: invertible, whatever its condition
        return _frozen(np.linalg.inv(self._chol_lower))[0]

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
    return float(alpha.coeffs @ _on_slots(gm.inverse, beta.coeffs, gm.dim, alpha.degree))


def vol_form(g, orientation=1):
    """Riemannian volume form orientation * sqrt(det g) e^{1...n}."""
    gm = as_metric(g)
    _check_orientation(orientation)
    return KForm(gm.dim, gm.dim, np.array([orientation * gm.sqrt_det]))


def _check_orientation(orientation):
    if orientation not in (1, -1):
        raise ValidationError(f"orientation must be +1 or -1, got {orientation!r}")


@lru_cache(maxsize=None)
def _star_tables(n, k):
    """For each increasing k-tuple I: the rank of its complement Ic among the (n-k)-tuples
    (see the module docstring), and the shuffle sign of (I, Ic)."""
    I = _index_array(n, k)
    dest = np.arange(len(I) - 1, -1, -1, dtype=np.intp)
    _, sign = _sort_sign(np.concatenate([I, _index_array(n, n - k)[dest]], axis=1), n)
    return _frozen(dest, sign.astype(float))


def hodge_star(omega, g, orientation=1):
    """Hodge star: the unique (n-k)-form with alpha wedge star(omega) = <alpha, omega> vol."""
    gm = as_metric(g)
    _check_orientation(orientation)
    n, k = omega.dim, omega.degree
    if gm.dim != n:
        raise ValidationError("metric dimension does not match the form")
    if k > n:
        raise ValidationError(f"cannot star a degree-{k} form on R^{n}")
    inner = _on_slots(gm.inverse, omega.coeffs, n, k)  # <e^I, omega>_g over increasing I
    dest, sign = _star_tables(n, k)
    out = np.zeros(math.comb(n, n - k))
    out[dest] = sign * (orientation * gm.sqrt_det) * inner
    return KForm(n, n - k, out)


@lru_cache(maxsize=None)
def _codiff_tables(n, k):
    """Gathers of d* on k-forms: w(e_i, e_j, e_J) over increasing (k-2)-tuples J is
    sign * w[rank] (_sort_sign of (i, j) + J); and for each increasing (k-1)-tuple I and
    i < k - 1: I's i-th index, the rank of I without it, and -(-1)^i / 2, the alternation
    sign with d*'s factor -1/2 folded in (a power of two, so the product is exact)."""
    J, I = _index_array(n, k - 2), _index_array(n, k - 1)
    tuples = np.empty((n, n, len(J), k), dtype=np.intp)  # (i, j) + J
    tuples[..., 0], tuples[..., 1] = np.arange(n)[:, None, None], np.arange(n)[:, None]
    tuples[..., 2:] = J
    rank, sign = _sort_sign(tuples, n)
    rest, _ = _sort_sign(I[:, _index_array(k - 1, k - 2)[::-1]], n)  # row i drops I[i]
    return _frozen(rank, sign.astype(float), I, rest, -0.5 * (-1.0) ** np.arange(k - 1))


def _codiff(Q, g, n, k):
    """d* on k-forms from Q[l, J] = mu_ij^l w^ij_J (w raised on two slots, J increasing):
    -1/2 sum_i (-1)^i T[I_i, I without I_i] over increasing (k-1)-tuples I, T = g Q, as one
    gather and one product with _codiff_tables' sign column, which holds the -1/2.  The one
    d* of the library: codifferential and the flows' GRF kernel both call it."""
    *_, rows, cols, sign = _codiff_tables(n, k)
    return (g @ Q)[rows, cols] @ sign


def codifferential(omega, mu, g):
    """Codifferential d*, the g-adjoint of d; zero on 0-forms and n-forms, orientation-free.

    ValidationError if mu is not unimodular, or mu or g has another dimension than the form.
    """
    gm, m = as_metric(g), bracket_coeffs(mu)
    n, k = omega.dim, omega.degree
    if gm.dim != n or m.shape[0] != n:
        raise ValidationError("form, bracket and metric dimensions differ")
    if _d_block(m, k) is None:
        return KForm.zero(n, max(k - 1, 0))
    rank, sign = _codiff_tables(n, k)[:2]
    Q = m.reshape(n * n, n).T @ _raise_pair(gm.inverse, sign * omega.coeffs[rank])
    return KForm(n, k - 1, _codiff(Q, gm.entries, n, k))


def hodge_laplacian(omega, mu, g):
    """Form Laplacian d d* + d* d for the Chevalley-Eilenberg differential."""
    gm = as_metric(g)
    up = codifferential(ce_differential(omega, mu), mu, gm)
    if omega.degree == 0:
        return up
    down = ce_differential(codifferential(omega, mu, gm), mu)
    return up + down
