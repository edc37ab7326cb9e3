"""Left-invariant Dorfman brackets on R^n + (R^n)*.

A pair (mu, H) with mu a bracket and H a 3-form induces the bracket

  muH(X + xi, Y + eta) = mu(X, Y) - eta . ad(X) + xi . ad(Y) + iota_Y iota_X H

on generalized vectors, where (eta . ad(X))(Z) = eta(mu(X, Z)).  It satisfies
the Leibniz/Jacobi identity exactly when mu is Lie and d_mu H = 0, and the
trilinear form <muH(a, b), c> under the neutral pairing is totally skew for
any skew inputs.  Residual functions accept raw arrays so they can quantify
how badly corrupted data fails these identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import ValidationError
from .lie import KForm, LieBracket, bracket_coeffs, ce_differential, form_dense, jacobi_residual


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

    @classmethod
    def from_vector(cls, v):
        v = np.asarray(v, dtype=float)
        return cls(v, np.zeros_like(v))

    @classmethod
    def from_covector(cls, c):
        c = np.asarray(c, dtype=float)
        return cls(np.zeros_like(c), c)

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
    """The bracket muH(z1, z2) of two generalized vectors."""
    m = bracket_coeffs(mu)
    n = m.shape[0]
    Hd = form_dense(H, n, 3)
    if z1.dim != n or z2.dim != n:
        raise ValidationError("generalized vectors do not match the bracket dimension")
    X, xi = z1.vec, z1.covec
    Y, eta = z2.vec, z2.covec
    vec = np.einsum('ijk,i,j->k', m, X, Y)
    cov = (-np.einsum('ikl,i,l->k', m, X, eta)
           + np.einsum('jkl,j,l->k', m, Y, xi)
           + np.einsum('ijk,i,j->k', Hd, X, Y))
    return GeneralizedVector(vec, cov)


def dorfman_structure_constants(mu, H):
    """Structure table T[a, b, c] = 2 <muH(E_a, E_b), E_c> over the doubled basis.

    Basis order: vectors e_1..e_n first (indices 0..n-1), covectors e^1..e^n
    second (indices n..2n-1).  Blocks: T[vec,vec,vec] = H, T[vec,vec,cov] = mu,
    and every entry with two or more covector indices vanishes.  For any input,
    raw non-skew brackets and non-alternating dense H included, the expansion
    muH(E_a, E_b) = sum_k T[a,b,n+k] e_k + T[a,b,k] e^k reproduces dorfman_eval
    on basis pairs, so the residuals below read their data off T.  T is totally
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
    """Deviation of <muH(E_a, E_b), E_c> from total skewness; ~0 for valid data."""
    P = 0.5 * dorfman_structure_constants(mu, H)
    alt = np.zeros_like(P)
    for perm, sign in (('abc', 1), ('acb', -1), ('bac', -1),
                       ('bca', 1), ('cab', 1), ('cba', -1)):
        alt += sign * np.einsum(perm + '->abc', P)
    alt /= 6.0
    return float(np.max(np.abs(P - alt)))


def dorfman_jacobi_residual(mu, H):
    """Sup-norm Leibniz defect muH(a, muH(b, c)) - muH(muH(a, b), c) - muH(b, muH(a, c))
    over all basis triples of the doubled space."""
    T = dorfman_structure_constants(mu, H)
    # C[a, b, e]: coefficient of E_e in muH(E_a, E_b), vectors first
    C = np.roll(T, T.shape[0] // 2, axis=2)
    defect = (np.einsum('bce,aef->abcf', C, C)
              - np.einsum('abe,ecf->abcf', C, C)
              - np.einsum('ace,bef->abcf', C, C))
    return float(np.max(np.abs(defect))) if defect.size else 0.0


def closedness_residual(mu, H):
    """Sup-norm of d_mu H; zero exactly when the 3-form flux is closed."""
    m = bracket_coeffs(mu)
    n = m.shape[0]
    if isinstance(H, KForm):
        form = H
    else:
        form = KForm.from_dense(form_dense(H, n, 3))
    return ce_differential(form, m).norm_inf


@dataclass(frozen=True)
class DorfmanBracket:
    """A validated pair (mu, H): mu Lie and H closed, within tol.

    Use the module functions directly to probe unvalidated or corrupted data.
    """

    mu: LieBracket
    H: KForm
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not isinstance(self.mu, LieBracket):
            object.__setattr__(self, "mu", LieBracket(bracket_coeffs(self.mu)))
        n = self.mu.dim
        if not isinstance(self.H, KForm):
            object.__setattr__(self, "H", KForm.from_dense(form_dense(self.H, n, 3)))
        if self.H.dim != n or self.H.degree != 3:
            raise ValidationError("H must be a 3-form matching the bracket dimension")
        jac = jacobi_residual(self.mu)
        if jac > self.tol:
            raise ValidationError(f"bracket violates the Jacobi identity (residual {jac:.3e})")
        closed = closedness_residual(self.mu, self.H)
        if closed > self.tol:
            raise ValidationError(f"flux form is not closed (residual {closed:.3e})")

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
