"""Structure constants, exterior forms, and the basis-change action.

A bilinear bracket on R^n is stored as the dense array mu[i, j, k] with
mu(e_i, e_j) = sum_k mu[i, j, k] e_k, exactly skew in (i, j).  Left-invariant
k-forms are stored packed: one coefficient per strictly increasing index
tuple, lexicographic order.  All in-memory indices are 0-based; file formats
and printed labels are 1-based.

The GL_n change-of-basis action is (A.mu)(X, Y) = A mu(A^-1 X, A^-1 Y) on
brackets and (A.w)(X_1, ..., X_k) = w(A^-1 X_1, ..., A^-1 X_k) on forms; pi
is its derivative at the identity, so curves A(s) = exp(s phi) satisfy
d/ds A(s).mu = pi(phi) mu at s = 0.

The index bookkeeping of the form calculus does not depend on the bracket,
the metric or the coefficients, only on (n, k), so it lives in integer
tables built once per (n, k) and cached (read-only, shared by every caller).
_index_array serves compound_matrix; _unpack_tables and _pack_index are the
packed layout, scattered by _unpack (KForm.unpack) and gathered by _pack
(KForm.from_dense); _ce_tables is d, gathered by _ce (ce_differential) and
summed into a matrix by _d_matrix.  The flows reach the layout and d only
through these functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .config import RANK_TOL_FACTOR, SKEW_TOL
from .errors import ValidationError


@lru_cache(maxsize=None)
def index_tuples(n, k):
    """All strictly increasing k-tuples drawn from range(n), lexicographic."""
    if k < 0:
        return ()
    return tuple(itertools.combinations(range(n), k))


@lru_cache(maxsize=None)
def _tuple_rank(n, k):
    return MappingProxyType({t: r for r, t in enumerate(index_tuples(n, k))})


def _frozen(*arrays):
    """Mark cached tables read-only, so no caller can corrupt them for later calls."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _index_array(n, k):
    """index_tuples(n, k) as a read-only (C(n, k), k) integer array."""
    (arr,) = _frozen(np.array(index_tuples(n, k), dtype=np.intp).reshape(-1, k))
    return arr


@lru_cache(maxsize=None)
def _pack_index(n, k):
    """Flat positions in the dense (n,) * k tensor of the increasing k-tuples, in packed order."""
    (index,) = _frozen(np.ravel_multi_index(_index_array(n, k).T, (n,) * k))
    return index


def sort_sign(indices):
    """Sort an index tuple; return (sorted tuple, permutation sign).

    The sign is 0 when an index repeats, so the tuple addresses no packed slot.
    """
    arr = list(indices)
    sign = 1
    for i in range(1, len(arr)):  # insertion sort; k is tiny
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(arr, arr[1:]):
        if a == b:
            return tuple(arr), 0
    return tuple(arr), sign


def complement(indices, n):
    """Increasing complement of an index tuple inside range(n)."""
    hit = set(indices)
    return tuple(i for i in range(n) if i not in hit)


def shuffle_sign(first, second):
    """Sign of the permutation (first + second) of range(n), both halves increasing."""
    inversions = sum(1 for a in first for b in second if b < a)
    return -1 if inversions % 2 else 1


def compound_matrix(mat, k):
    """k-th compound of a square matrix: entry (R, C) = det(mat[R rows, C cols]).

    Rows and columns run over index_tuples(n, k); k > n gives an empty matrix.
    For an SPD inverse metric this is the Gram matrix of the induced inner
    product on k-forms: <e^R, e^C>_g = det(g^{r_a c_b}).
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"compound_matrix needs a square matrix, got shape {mat.shape}")
    if k == 0:
        return np.ones((1, 1))
    rows = _index_array(mat.shape[0], k)
    return np.linalg.det(mat[rows[:, None, :, None], rows[None, :, None, :]])


def _alternation(arr):
    """Full antisymmetrization of a dense tensor (average over signed permutations)."""
    k = arr.ndim
    if k <= 1:
        return np.array(arr, dtype=float)
    out = np.zeros_like(arr, dtype=float)
    for perm in itertools.permutations(range(k)):
        _, sign = sort_sign(perm)
        out += sign * np.transpose(arr, perm)
    return out / math.factorial(k)


@lru_cache(maxsize=None)
def _unpack_tables(n, k):
    """Scatter of KForm.unpack: for every permutation of every increasing
    k-tuple, its flat index in the dense (n,) * k tensor, the tuple's rank and
    the permutation sign."""
    flat, src, sign = [], [], []
    for r, base in enumerate(index_tuples(n, k)):
        for perm in itertools.permutations(base):
            pos = 0
            for i in perm:
                pos = pos * n + i
            flat.append(pos)
            src.append(r)
            sign.append(sort_sign(perm)[1])
    return _frozen(np.array(flat, dtype=np.intp), np.array(src, dtype=np.intp),
                   np.array(sign, dtype=float))


def _unpack(x, n, k):
    """Dense (n,) * k alternating tensor of the packed k-form x; x's trailing axes are kept."""
    flat, src, sign = _unpack_tables(n, k)
    tail = x.shape[1:]
    out = np.zeros((n ** k,) + tail)
    out[flat] = sign.reshape((-1,) + (1,) * len(tail)) * x[src]
    return out.reshape((n,) * k + tail)


def _pack(t, k):
    """Packed k-form of the dense alternating tensor t; axes after its first k are kept."""
    n = t.shape[0]
    return t.reshape((n ** k,) + t.shape[k:])[_pack_index(n, k)]


@dataclass(frozen=True)
class KForm:
    """Left-invariant alternating k-form in packed storage.

    coeffs has one entry per strictly increasing index tuple (lexicographic);
    comb(dim, degree) entries total, which is 0 when degree > dim.
    """

    dim: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValidationError(f"form dimension must be a positive int, got {self.dim!r}")
        if not isinstance(self.degree, int) or self.degree < 0:
            raise ValidationError(f"form degree must be a nonnegative int, got {self.degree!r}")
        arr = np.array(self.coeffs, dtype=float, copy=True).reshape(-1)
        want = math.comb(self.dim, self.degree)
        if arr.shape != (want,):
            raise ValidationError(
                f"degree-{self.degree} form on R^{self.dim} needs {want} packed "
                f"coefficients, got {arr.shape[0]}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("form coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def zero(cls, dim, degree):
        return cls(dim, degree, np.zeros(math.comb(dim, max(degree, 0))))

    @classmethod
    def from_entries(cls, dim, degree, entries, one_based=True):
        """Build from (index_tuple, value) pairs; indices in any order, sign handled.

        Listing the same slot twice with inconsistent values is an error;
        consistent repeats are allowed.
        """
        shift = 1 if one_based else 0
        ranks = _tuple_rank(dim, degree)
        coeffs = np.zeros(math.comb(dim, degree))
        seen = {}
        for raw_idx, value in entries:
            idx = tuple(int(i) - shift for i in raw_idx)
            if len(idx) != degree:
                raise ValidationError(f"form entry {raw_idx} has {len(idx)} indices, expected {degree}")
            for i in idx:
                if not 0 <= i < dim:
                    raise ValidationError(f"form index out of range in entry {raw_idx} (dim {dim})")
            key, sign = sort_sign(idx)
            if sign == 0:
                raise ValidationError(f"form entry {raw_idx} repeats an index")
            normalized = sign * float(value)
            if key in seen and seen[key] != normalized:
                raise ValidationError(
                    f"inconsistent duplicate form entries for slot {tuple(k + shift for k in key)}")
            seen[key] = normalized
            coeffs[ranks[key]] = normalized
        return cls(dim, degree, coeffs)

    @classmethod
    def from_dense(cls, arr):
        """Pack a dense alternating tensor, checking alternation up to SKEW_TOL (relative)."""
        arr = np.asarray(arr, dtype=float)
        k = arr.ndim
        if k == 0:
            return cls(1, 0, np.array([float(arr)]))  # degenerate; prefer explicit dim
        n = arr.shape[0]
        if arr.shape != (n,) * k:
            raise ValidationError(f"dense form tensor must be cubical, got shape {arr.shape}")
        alt = _alternation(arr)
        scale = 1.0 + float(np.max(np.abs(arr))) if arr.size else 1.0
        if arr.size and float(np.max(np.abs(arr - alt))) > SKEW_TOL * scale:
            raise ValidationError("dense tensor is not alternating")
        return cls(n, k, _pack(alt, k))

    def unpack(self):
        """Dense fully alternating tensor of shape (dim,) * degree."""
        dense = _unpack(self.coeffs, self.dim, self.degree)
        # + 0.0 turns the -0.0 of a negated zero coefficient into the +0.0 of an unset entry
        dense += 0.0
        return dense

    def component(self, indices):
        """Value on basis vectors e_{i_1}, ..., e_{i_k} (0-based, any order)."""
        key, sign = sort_sign(indices)
        if sign == 0:
            return 0.0
        rank = _tuple_rank(self.dim, self.degree).get(key)
        if rank is None:
            raise ValidationError(f"index tuple {indices} invalid for dim {self.dim}")
        return sign * float(self.coeffs[rank])

    @property
    def norm_inf(self):
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def _check_compatible(self, other):
        if not isinstance(other, KForm) or other.dim != self.dim or other.degree != self.degree:
            raise ValidationError("form arithmetic requires matching dim and degree")

    def __add__(self, other):
        self._check_compatible(other)
        return KForm(self.dim, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_compatible(other)
        return KForm(self.dim, self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return KForm(self.dim, self.degree, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return KForm(self.dim, self.degree, -self.coeffs)

    def allclose(self, other, tol=1e-12):
        self._check_compatible(other)
        if self.coeffs.size == 0:
            return True
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)


@dataclass(frozen=True)
class LieBracket:
    """Skew bilinear bracket in a fixed basis; Jacobi is checked, not enforced.

    Storage is exactly skew: the constructor rejects inputs whose symmetric
    leak exceeds SKEW_TOL (relative) and stores the exact skew part
    (m - m.swapaxes(0, 1)) / 2, which is bitwise skew.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float, copy=True)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise ValidationError(f"bracket coefficients must be (n, n, n), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("bracket coefficients must be finite")
        swapped = arr.swapaxes(0, 1)
        scale = 1.0 + float(np.max(np.abs(arr)))
        if float(np.max(np.abs(arr + swapped))) > SKEW_TOL * scale:
            raise ValidationError("bracket coefficients are not skew in the first two indices")
        arr = (arr - swapped) / 2.0
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self):
        return self.coeffs.shape[0]

    @classmethod
    def zero(cls, dim):
        return cls(np.zeros((dim, dim, dim)))

    @classmethod
    def from_entries(cls, dim, entries, one_based=True):
        """Build from rows (i, j, k, value); only one of (i,j)/(j,i) need be given.

        Skew completion is automatic.  Giving both orders with inconsistent
        values (or repeating a slot with a different value) is an error.
        """
        shift = 1 if one_based else 0
        arr = np.zeros((dim, dim, dim))
        seen = {}
        for row in entries:
            if len(row) != 4:
                raise ValidationError(f"bracket entry {row!r} must be (i, j, k, value)")
            i, j, k = (int(x) - shift for x in row[:3])
            v = float(row[3])
            for x in (i, j, k):
                if not 0 <= x < dim:
                    raise ValidationError(f"bracket index out of range in entry {row!r} (dim {dim})")
            if i == j:
                raise ValidationError(f"bracket entry {row!r} has i == j")
            key, val = ((i, j, k), v) if i < j else ((j, i, k), -v)
            if key in seen and seen[key] != val:
                raise ValidationError(
                    f"inconsistent duplicate bracket entries for slot "
                    f"{(key[0] + shift, key[1] + shift, key[2] + shift)}")
            seen[key] = val
            arr[key] = val
            arr[key[1], key[0], key[2]] = -val
        return cls(arr)

    @property
    def norm_inf(self):
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0


def bracket_coeffs(mu):
    """Dense (n, n, n) coefficient array from a LieBracket or raw array-like.

    Raw arrays pass through without the skewness check so that residual
    diagnostics can be run on corrupted or perturbed data.
    """
    if isinstance(mu, LieBracket):
        return mu.coeffs
    arr = np.asarray(mu, dtype=float)
    if arr.ndim != 3 or len(set(arr.shape)) != 1:
        raise ValidationError(f"bracket coefficients must be (n, n, n), got shape {arr.shape}")
    return arr


def _as_bracket(mu):
    """A LieBracket from a LieBracket or a skew (n, n, n) array-like (ValidationError otherwise)."""
    return mu if isinstance(mu, LieBracket) else LieBracket(mu)


def _as_3form(H, n):
    """A 3-form on R^n from a KForm, a packed coefficient vector or a dense alternating tensor."""
    if isinstance(H, KForm):
        if H.dim != n or H.degree != 3:
            raise ValidationError(
                f"expected a degree-3 form on R^{n}, got degree {H.degree} on R^{H.dim}")
        return H
    arr = np.asarray(H, dtype=float)
    if arr.ndim == 1:
        return KForm(n, 3, arr)
    return KForm.from_dense(form_dense(arr, n, 3))


def form_dense(H, dim, degree):
    """Dense tensor from a KForm or an already-dense array-like."""
    if isinstance(H, KForm):
        if H.dim != dim or H.degree != degree:
            raise ValidationError(
                f"expected a degree-{degree} form on R^{dim}, got degree {H.degree} on R^{H.dim}")
        return H.unpack()
    arr = np.asarray(H, dtype=float)
    if arr.shape != (dim,) * degree:
        raise ValidationError(f"dense form must have shape {(dim,) * degree}, got {arr.shape}")
    return arr


def jacobi_residual(mu):
    """Sup-norm of the Jacobiator mu(mu(.,.),.) + cyclic over all basis triples."""
    m = bracket_coeffs(mu)
    n = m.shape[0]
    # P[i, j, k, m] = sum_l mu_ij^l mu_lk^m; the other two terms are its cyclic transposes.
    P = (m.reshape(n * n, n) @ m.reshape(n, n * n)).reshape((n,) * 4)
    jac = P + P.transpose(2, 0, 1, 3) + P.transpose(1, 2, 0, 3)
    return float(np.abs(jac).max()) if jac.size else 0.0


def nilpotency_step(mu):
    """Nilpotency step of the lower central series, or None if it stabilizes nonzero.

    Ranks are decided by SVD with cutoff RANK_TOL_FACTOR times the largest
    singular value of the stage matrix.
    """
    m = bracket_coeffs(mu)
    n = m.shape[0]
    basis = np.eye(n)
    prev_rank = n
    step = 1
    scale = None  # largest singular value of the first stage; fixes the rank cutoff
    while True:
        img = np.einsum('ijk,ja->kia', m, basis).reshape(n, -1)
        u, s, _ = np.linalg.svd(img, full_matrices=False)
        if scale is None:
            scale = float(s[0]) if s.size else 0.0
        rank = int(np.sum(s > RANK_TOL_FACTOR * scale)) if scale > 0.0 else 0
        if rank == 0:
            return step
        if rank >= prev_rank:
            return None
        basis = u[:, :rank]
        prev_rank = rank
        step += 1


@lru_cache(maxsize=None)
def _ce_tables(n, k):
    """Index tables of d on k-forms of R^n; they do not depend on the bracket.

    For output tuple T = index_tuples(n, k + 1)[r] and its j-th slot pair
    p < q (lexicographic): I[r, j] = T[p] and J[r, j] = T[q], so m[I, J] holds
    the coefficients mu(e_T[p], e_T[q])_l over l; w((l,) + T without p, q) is
    sign[r, j, l] * coeffs[src[r, j, l]], with sign 0 where l repeats an index;
    odd[j] is the parity of p + q.
    """
    outs = index_tuples(n, k + 1)
    pairs = tuple(itertools.combinations(range(k + 1), 2))
    ranks = _tuple_rank(n, k)
    I = np.zeros((len(outs), len(pairs)), dtype=np.intp)
    J = np.zeros_like(I)
    src = np.zeros((len(outs), len(pairs), n), dtype=np.intp)
    sign = np.zeros(src.shape)
    for r, T in enumerate(outs):
        for j, (p, q) in enumerate(pairs):
            I[r, j], J[r, j] = T[p], T[q]
            rest = T[:p] + T[p + 1:q] + T[q + 1:]
            for l in range(n):
                key, s = sort_sign((l,) + rest)
                if s:
                    src[r, j, l], sign[r, j, l] = ranks[key], s
    odd = np.array([(p + q) % 2 == 1 for p, q in pairs], dtype=bool)
    return _frozen(I, J, src, sign, odd)


def _d_matrix(m, k):
    """Matrix of d_mu from packed k-forms to packed (k+1)-forms, summed from _ce_tables."""
    n = m.shape[0]
    I, J, src, sign, odd = _ce_tables(n, k)
    vals = m[I, J] * sign * np.where(odd, -1.0, 1.0)[:, None]
    D = np.zeros((len(I), math.comb(n, k)))
    np.add.at(D, (np.arange(len(I))[:, None, None], src), vals)
    return D


def _ce(m, x, k):
    """Packed d_mu x of the packed k-form x, for the dense (n, n, n) bracket m."""
    I, J, src, sign, odd = _ce_tables(m.shape[0], k)
    out = np.zeros(len(I))
    if not I.size:  # no (k+1)-forms, or no slot pairs
        return out
    terms = m[I, J] * (sign * x[src])
    # Sum over l, then over the pairs (p, q) in order, as the definition reads:
    # any other order (a matrix product, numpy's pairwise sums) moves the last bits.
    inner = np.zeros(I.shape)
    for l in range(m.shape[0]):
        inner += terms[:, :, l]
    for j, is_odd in enumerate(odd):
        if is_odd:
            out -= inner[:, j]
        else:
            out += inner[:, j]
    return out


def ce_differential(omega, mu):
    """Chevalley-Eilenberg differential of a k-form.

    (d w)(X_0, ..., X_k) = sum_{p<q} (-1)^{p+q} w(mu(X_p, X_q), ..no X_p, X_q..),
    evaluated on basis tuples.  Degree n forms map to the empty degree n+1 space.
    """
    m = bracket_coeffs(mu)
    n, k = omega.dim, omega.degree
    if m.shape[0] != n:
        raise ValidationError("form and bracket dimensions differ")
    return KForm(n, k + 1, _ce(m, omega.coeffs, k))


def wedge(alpha, beta):
    """Exterior product, determinant convention: e^I wedge e^J = sign e^{I cup J}."""
    if alpha.dim != beta.dim:
        raise ValidationError("wedge requires forms on the same space")
    n = alpha.dim
    k, l = alpha.degree, beta.degree
    ranks = _tuple_rank(n, k + l)
    out = np.zeros(math.comb(n, k + l))
    for ra, A in enumerate(index_tuples(n, k)):
        va = alpha.coeffs[ra]
        if va == 0.0:
            continue
        for rb, B in enumerate(index_tuples(n, l)):
            vb = beta.coeffs[rb]
            if vb == 0.0:
                continue
            merged, sign = sort_sign(A + B)
            if sign != 0:
                out[ranks[merged]] += sign * va * vb
    return KForm(n, k + l, out)


def _checked_inverse(A, n):
    A = np.asarray(A, dtype=float)
    if A.shape != (n, n):
        raise ValidationError(f"basis change on R^{n} must be an ({n}, {n}) matrix, "
                              f"got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValidationError("basis change entries must be finite")
    try:
        cond = np.linalg.cond(A)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not cond < 1e12:
        raise ValidationError("basis change matrix is singular or near-singular")
    return A, np.linalg.inv(A)


def _frame_change(A, A_inv, m):
    """A.m as a plain array, for a skew (n, n, n) array m and A_inv = A^-1.

    A_inv on both inputs and A on the output by three matmuls, then the
    exact skew part.  gl_action and the generalized Ricci flow's kernel share it.
    """
    n = m.shape[0]
    b = (A_inv.T @ (A_inv.T @ (m @ A.T)).reshape(n, -1)).reshape(n, n, n)
    return (b - b.swapaxes(0, 1)) / 2.0


def gl_action(A, mu):
    """Basis change on brackets: (A.mu)(X, Y) = A mu(A^-1 X, A^-1 Y)."""
    m = _as_bracket(mu).coeffs
    A, Ainv = _checked_inverse(A, m.shape[0])
    return LieBracket(_frame_change(A, Ainv, m))


def gl_action_form(A, omega):
    """Basis change on forms: (A.w)(X_1, ..., X_k) = w(A^-1 X_1, ..., A^-1 X_k)."""
    _, Ainv = _checked_inverse(A, omega.dim)
    comp = compound_matrix(Ainv, omega.degree)
    return KForm(omega.dim, omega.degree, comp.T @ omega.coeffs)


def pi_mu(phi, mu):
    """Derivative of gl_action at the identity, as a dense (n, n, n) array.

    pi(phi)mu = phi mu(.,.) - mu(phi., .) - mu(., phi.), the tangent direction
    of the curve exp(s phi).mu at s = 0.  phi is a matrix acting by phi @ x.
    """
    m = bracket_coeffs(mu)
    P = np.asarray(phi, dtype=float)
    return (np.einsum('kl,ijl->ijk', P, m)
            - np.einsum('li,ljk->ijk', P, m)
            - np.einsum('lj,ilk->ijk', P, m))


def pi_form(phi, omega):
    """Derivative of gl_action_form at the identity: minus phi inserted slotwise."""
    P = np.asarray(phi, dtype=float)
    n, k = omega.dim, omega.degree
    if P.shape != (n, n):
        raise ValidationError(f"pi_form on R^{n} needs an ({n}, {n}) matrix, got shape {P.shape}")
    tups = index_tuples(n, k)
    out = np.zeros(len(tups))
    for r, T in enumerate(tups):
        acc = 0.0
        for t in range(k):
            for l in range(n):
                c = P[l, T[t]]
                if c != 0.0:
                    acc -= c * omega.component(T[:t] + (l,) + T[t + 1:])
        out[r] = acc
    return KForm(n, k, out)
