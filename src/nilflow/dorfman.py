"""Left-invariant Dorfman brackets on R^n + (R^n)*.

A pair (mu, H) with mu a bracket and H a 3-form induces the bracket

  muH(X + xi, Y + eta) = mu(X, Y) - eta . ad(X) + xi . ad(Y) + iota_Y iota_X H

on generalized vectors, where (eta . ad(X))(Z) = eta(mu(X, Z)).  It satisfies
the Leibniz/Jacobi identity exactly when mu is Lie and d_mu H = 0 (the gate
DorfmanBracket asks, lie._checked_structure_row), and the
trilinear form <muH(a, b), c> under the neutral pairing is totally skew for
any skew inputs.  Residual functions accept raw arrays so they can quantify
how badly corrupted data fails these identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lie import (KForm, LieBracket, bracket_coeffs, ce_differential, form_dense, _as_3form,
                  _as_bracket, _checked_structure_row)

__all__ = [
    "DorfmanBracket", "GeneralizedVector", "closedness_residual", "dorfman_eval",
    "dorfman_jacobi_residual", "dorfman_structure_constants", "dorfman_total_skew_residual",
    "neutral_pairing",
]


@dataclass(frozen=True)
class GeneralizedVector:
    """Element X + xi of R^n + (R^n)*, stored as the two component vectors."""

    vec: np.ndarray
    covec: np.ndarray

    def __post_init__(self):
        v = np.array(self.vec, dtype=float, copy=True).reshape(-1)
        c = np.array(self.covec, dtype=float, copy=True).reshape(-1)
        if v.shape != c.shape:
            raise ValidationError("vector and covector parts must have equal length")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(c))):
            raise ValidationError("generalized vector components must be finite")
        v.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "vec", v)
        object.__setattr__(self, "covec", c)

    @property
    def dim(self):
        return self.vec.shape[0]

    @classmethod
    def basis(cls, n, alpha):
        """Basis element: e_alpha for alpha < n, the covector e^{alpha-n} otherwise."""
        if not 0 <= alpha < 2 * n:
            raise ValidationError(f"basis index {alpha} out of range for doubled R^{n}")
        v = np.zeros(n)
        c = np.zeros(n)
        if alpha < n:
            v[alpha] = 1.0
        else:
            c[alpha - n] = 1.0
        return cls(v, c)

    @property
    def norm_inf(self):
        vals = [abs(float(x)) for x in (*self.vec, *self.covec)]
        return max(vals) if vals else 0.0

    def _check_compatible(self, other):
        if not isinstance(other, GeneralizedVector) or other.dim != self.dim:
            raise ValidationError("generalized vectors must have matching dimension")

    def __add__(self, other):
        self._check_compatible(other)
        return GeneralizedVector(self.vec + other.vec, self.covec + other.covec)

    def __sub__(self, other):
        self._check_compatible(other)
        return GeneralizedVector(self.vec - other.vec, self.covec - other.covec)

    def __mul__(self, scalar):
        return GeneralizedVector(self.vec * float(scalar), self.covec * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return GeneralizedVector(-self.vec, -self.covec)


def neutral_pairing(z1, z2):
    """Signature-(n, n) pairing <X + xi, Y + eta> = (eta(X) + xi(Y)) / 2."""
    z1._check_compatible(z2)
    return 0.5 * (float(z1.covec @ z2.vec) + float(z2.covec @ z1.vec))


def dorfman_eval(mu, H, z1, z2):
    """The bracket muH(z1, z2) of two generalized vectors, read off the structure table T
    (dorfman_structure_constants): c = T contracted with z1 and z2 stacked as (vec, covec)
    on its first two indices; the vector part is c[n:] and the covector part c[:n]."""
    T = dorfman_structure_constants(mu, H)
    n = T.shape[0] // 2
    if z1.dim != n or z2.dim != n:
        raise ValidationError("generalized vectors do not match the bracket dimension")
    c = np.einsum('abc,a,b->c', T, np.concatenate((z1.vec, z1.covec)),
                  np.concatenate((z2.vec, z2.covec)))
    return GeneralizedVector(c[n:], c[:n])


def dorfman_structure_constants(mu, H):
    """Structure table T[a, b, c] = 2 <muH(E_a, E_b), E_c> over the doubled basis.

    Basis order: vectors e_1..e_n first (indices 0..n-1), covectors e^1..e^n
    second (indices n..2n-1).  Blocks: T[vec,vec,vec] = H, T[vec,vec,cov] = mu,
    and every entry with two or more covector indices vanishes.  For any input,
    raw non-skew brackets and non-alternating dense H included, the expansion
    muH(E_a, E_b) = sum_k T[a,b,n+k] e_k + T[a,b,k] e^k is the bracket, so
    dorfman_eval and the residuals below read their data off T.  T is totally
    skew only when mu is skew and H alternating.
    """
    m = bracket_coeffs(mu)
    n = m.shape[0]
    Hd = form_dense(H, n, 3)
    T = np.zeros((2 * n, 2 * n, 2 * n))
    T[:n, :n, :n] = Hd
    T[:n, :n, n:] = m
    T[:n, n:, :n] = -np.einsum('ikj->ijk', m)  # T[i, n+j, k] = -m[i, k, j]
    T[n:, :n, :n] = np.einsum('jki->ijk', m)   # T[n+i, j, k] = m[j, k, i]
    return T


def dorfman_total_skew_residual(mu, H):
    """Deviation of <muH(E_a, E_b), E_c> from total skewness; ~0 for valid data.

    The alternation of P = T / 2 sums six transposed views of P.
    """
    P = 0.5 * dorfman_structure_constants(mu, H)
    alt = (P - P.transpose(0, 2, 1) - P.transpose(1, 0, 2)
           + P.transpose(2, 0, 1) + P.transpose(1, 2, 0) - P.transpose(2, 1, 0)) / 6.0
    return float(np.max(np.abs(P - alt)))


def dorfman_jacobi_residual(mu, H):
    """Sup-norm Leibniz defect muH(a, muH(b, c)) - muH(muH(a, b), c) - muH(b, muH(a, c))
    over all basis triples of the doubled space.

    With C[a, b, e] the coefficient of E_e in muH(E_a, E_b), every sum over e
    is one of two matrix products of X = C as an (N^2, N) matrix:
      - A = X @ (C[a, e, f] as (e, af)), A[p, q, a, f] = sum_e C[p, q, e] C[a, e, f],
        is the first term as A[b, c, a, f] and the third as A[a, c, b, f];
      - B = X @ (C as (e, cf)), B[a, b, c, f] = sum_e C[a, b, e] C[e, c, f],
        is the middle term.
    """
    T = dorfman_structure_constants(mu, H)
    N = T.shape[0]
    if N == 0:
        return 0.0
    # C[a, b, e]: coefficient of E_e in muH(E_a, E_b), vectors first
    C = np.roll(T, N // 2, axis=2)
    X = C.reshape(N * N, N)
    # A and B share one buffer and B becomes the defect in place: at N = 14 each
    # N^4 block is 300 kB, and two separate ones get their pages faulted in anew on
    # every call once the allocator returns them to the system
    A, defect = (X @ np.stack([C.transpose(1, 0, 2).reshape(N, N * N), C.reshape(N, N * N)])
                 ).reshape(2, N, N, N, N)
    np.subtract(A.transpose(2, 0, 1, 3), defect, out=defect)
    defect -= A.transpose(0, 2, 1, 3)
    return float(np.max(np.abs(defect, out=defect)))


def closedness_residual(mu, H):
    """Sup-norm of d_mu H; zero exactly when the 3-form flux is closed.

    H is a KForm, a packed coefficient vector or a dense alternating tensor.
    """
    m = bracket_coeffs(mu)
    return ce_differential(_as_3form(H, m.shape[0]), m).norm_inf


@dataclass(frozen=True)
class DorfmanBracket:
    """A validated pair (mu, H): mu Lie and H closed for it, so muH satisfies Jacobi.

    mu is a LieBracket or a skew (n, n, n) array; H a KForm, a packed
    coefficient vector or a dense alternating tensor.  The check is the one
    every entry point makes (lie._checked_structure_row).  Use the module
    functions directly to probe unvalidated or corrupted data.
    """

    mu: LieBracket
    H: KForm

    def __post_init__(self):
        object.__setattr__(self, "mu", _as_bracket(self.mu))
        object.__setattr__(self, "H", _as_3form(self.H, self.mu.dim))
        _checked_structure_row(self.mu.coeffs, self.H.coeffs)

    @property
    def dim(self):
        return self.mu.dim

    def eval(self, z1, z2):
        return dorfman_eval(self.mu, self.H, z1, z2)

    def structure_constants(self):
        return dorfman_structure_constants(self.mu, self.H)

    def total_skew_residual(self):
        return dorfman_total_skew_residual(self.mu, self.H)

    def jacobi_residual(self):
        return dorfman_jacobi_residual(self.mu, self.H)
