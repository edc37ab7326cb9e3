"""Structure constants, exterior forms, and the basis-change action.

A bilinear bracket on R^n is stored as the dense array mu[i, j, k] with
mu(e_i, e_j) = sum_k mu[i, j, k] e_k, exactly skew in (i, j).  Left-invariant
k-forms are stored packed: one coefficient per strictly increasing index
tuple, lexicographic order.  All in-memory indices are 0-based; file formats,
the from_entries constructors and printed labels are 1-based.

The GL_n change-of-basis action is (A.mu)(X, Y) = A mu(A^-1 X, A^-1 Y) on
brackets and (A.w)(X_1, ..., X_k) = w(A^-1 X_1, ..., A^-1 X_k) on forms; pi
is its derivative at the identity, so curves A(s) = exp(s phi) satisfy
d/ds A(s).mu = pi(phi) mu at s = 0.

The index bookkeeping of the form calculus does not depend on the bracket,
the metric or the coefficients, only on (n, k), so it lives in integer
tables built once per (n, k) and cached (read-only, shared by every caller).
One vectorized rule builds them, and wedge, from _index_array's tuples:
_sort_sign, the packed slot and sign of every index tuple in an array.
_index_array also serves compound_matrix; _unpack_tables and _pack_index are
the packed layout, scattered by _unpack (KForm.unpack) and gathered by _pack
(KForm.from_dense, which checks alternation against _unpack of what it
gathered); _ce_tables is d, gathered by _ce (ce_differential) and summed into
a matrix by _d_matrix (one bincount over _d_keys), whose blocks for d*
_d_block decides.  The flows reach the layout, d and compounds (_on_slots)
only through these.

(mu, H) is an exact Courant algebroid when mu is Lie and d_mu H = 0.  Only this
module builds (_structure_row), reads (_row_bracket, _row_slots) and checks
(_checked_structure_row, the gate of every entry point) the pair's structure
row; the residuals are d_mu of the forms it holds (_gate_table, _monomials).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .config import BASIS_COND_LIMIT, RANK_TOL_FACTOR, SKEW_TOL, STRUCTURE_TOL
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
    (arr,) = _frozen(np.array(index_tuples(n, k), dtype=np.intp).reshape(math.comb(n, k), k))
    return arr


@lru_cache(maxsize=None)
def _pack_index(n, k):
    """Flat positions in the dense (n,) * k tensor of the increasing k-tuples, in packed order."""
    (index,) = _frozen(_index_array(n, k) @ n ** np.arange(k - 1, -1, -1, dtype=np.intp))
    return index


def _sort_sign(t, n):
    """sort_sign and _tuple_rank at once, over an integer array t[..., k] of tuples in range(n).

    Returns (rank, sign): the sign of the sorting permutation, 0 where an index repeats, and
    the sorted c's rank in index_tuples(n, k) by the combinatorial number system,
    C(n, k) - 1 - sum_i C(n - 1 - c_i, k - i), 0 where the sign is 0.  Inversions are
    counted one slot pair at a time, so no temporary outgrows t."""
    k = t.shape[-1]
    odd, repeat = np.zeros((2,) + t.shape[:-1], dtype=bool)
    for i, j in itertools.combinations(range(k), 2):
        odd ^= t[..., i] > t[..., j]
        repeat |= t[..., i] == t[..., j]
    binom = np.array([math.comb(n - 1 - c, k - i) for c in range(n) for i in range(k)], np.intp)
    rank = math.comb(n, k) - 1 - binom.reshape(n, k)[np.sort(t, axis=-1), np.arange(k)].sum(-1)
    return np.where(repeat, 0, rank), np.where(repeat, 0, np.where(odd, -1, 1))


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


@lru_cache(maxsize=None)
def _unpack_tables(n, k):
    """Scatter of KForm.unpack: for every permutation of every increasing
    k-tuple, its flat index in the dense (n,) * k tensor, the tuple's rank and
    the permutation sign."""
    perms = np.array(list(itertools.permutations(range(k))), np.intp).reshape(math.factorial(k), k)
    tuples = _index_array(n, k)[:, perms]  # by rank, then permutations in itertools order
    flat = (tuples @ n ** np.arange(k - 1, -1, -1, dtype=np.intp)).ravel()
    src = np.repeat(np.arange(len(tuples), dtype=np.intp), len(perms))
    return _frozen(flat, src, np.tile(_sort_sign(perms, k)[1].astype(float), len(tuples)))


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


_BOOL_TYPES = frozenset((bool, np.bool_))  # by exact type, cheaper per index than isinstance


def _entry_indices(raw, kind, entry):
    """The indices raw of a from_entries entry as ints; ValidationError naming the entry
    unless each is integral (int(x) == x) and not a bool, so a fractional index is refused,
    not truncated, and True is not read as 1 (as io._int_index refuses a JSON bool)."""
    try:
        idx = tuple(map(int, raw))
    except (TypeError, ValueError, OverflowError):
        idx = None
    if idx is None or idx != tuple(raw) or not _BOOL_TYPES.isdisjoint(map(type, raw)):
        raise ValidationError(f"{kind} entry {entry!r} has an index that is not an integer")
    return idx


def _checked_count(value, what, least):
    """value if it is an int >= least and not a bool; ValidationError naming what otherwise.
    The constructors call it before numpy sees a dimension or degree, so each refuses alike."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        kind = "positive" if least else "nonnegative"
        raise ValidationError(f"{what} must be a {kind} int, got {value!r}")
    return value


def _on_slots(A, x, n, k):
    """C_k(A) x = compound_matrix(A, k) @ x for a packed k-form x: one matmul per slot of the
    dense form, unless k = 0 or its n^k entries outnumber the compound's C(n, k)^2 a hundredfold."""
    if k == 0 or n ** k > 100 * math.comb(n, k) ** 2:
        return compound_matrix(A, k) @ x
    x = _unpack(x, n, k)
    for _ in range(k):
        x = x.reshape(n, -1).T @ A.T
    return _pack(x.reshape((n,) * k), k)


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
        _checked_count(self.dim, "form dimension", 1)
        _checked_count(self.degree, "form degree", 0)
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
        _checked_count(dim, "form dimension", 1)
        _checked_count(degree, "form degree", 0)
        return cls(dim, degree, np.zeros(math.comb(dim, degree)))

    @classmethod
    def from_entries(cls, dim, degree, entries):
        """Build from (index_tuple, value) pairs; 1-based indices in any order, sign handled.

        Listing the same slot twice with inconsistent values is an error;
        consistent repeats are allowed.
        """
        _checked_count(dim, "form dimension", 1)
        _checked_count(degree, "form degree", 0)
        ranks = _tuple_rank(dim, degree)
        coeffs = np.zeros(math.comb(dim, degree))
        seen = {}
        for raw_idx, value in entries:
            idx = tuple(i - 1 for i in _entry_indices(raw_idx, "form", raw_idx))
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
                    f"inconsistent duplicate form entries for slot {tuple(k + 1 for k in key)}")
            seen[key] = normalized
            coeffs[ranks[key]] = normalized
        return cls(dim, degree, coeffs)

    @classmethod
    def from_dense(cls, arr):
        """Pack a dense alternating tensor: its entries on the increasing index tuples.

        Rejects a tensor farther than SKEW_TOL (1 + max|arr|) from the unpacking of those
        entries.  So an exactly alternating tensor packs to its own entries, and an accepted
        one to within that bound of the average over its signed permutations.
        """
        arr = np.asarray(arr, dtype=float)
        k = arr.ndim
        if k == 0:
            return cls(1, 0, np.array([float(arr)]))  # degenerate; prefer explicit dim
        n = arr.shape[0]
        if arr.shape != (n,) * k:
            raise ValidationError(f"dense form tensor must be cubical, got shape {arr.shape}")
        packed = _pack(arr, k)
        scale = 1.0 + float(np.max(np.abs(arr))) if arr.size else 1.0
        if arr.size and float(np.max(np.abs(arr - _unpack(packed, n, k)))) > SKEW_TOL * scale:
            raise ValidationError("dense tensor is not alternating")
        return cls(n, k, packed)

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
        if arr.ndim != 3 or len(set(arr.shape)) != 1 or not arr.size:
            raise ValidationError(
                f"bracket coefficients must be (n, n, n) with n >= 1, got shape {arr.shape}")
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
        _checked_count(dim, "bracket dimension", 1)
        return cls(np.zeros((dim, dim, dim)))

    @classmethod
    def from_entries(cls, dim, entries):
        """Build from rows (i, j, k, value), 1-based; only one of (i,j)/(j,i) need be given.

        Skew completion is automatic.  Giving both orders with inconsistent
        values (or repeating a slot with a different value) is an error.
        """
        _checked_count(dim, "bracket dimension", 1)
        arr = np.zeros((dim, dim, dim))
        seen = {}
        for row in entries:
            if len(row) != 4:
                raise ValidationError(f"bracket entry {row!r} must be (i, j, k, value)")
            i, j, k = _entry_indices(row[:3], "bracket", row)
            i, j, k = i - 1, j - 1, k - 1
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
                    f"{(key[0] + 1, key[1] + 1, key[2] + 1)}")
            seen[key] = val
            arr[key] = val
            arr[key[1], key[0], key[2]] = -val
        return cls(arr)


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
    outs = _index_array(n, k + 1)
    pairs = _index_array(k + 1, 2)
    I, J = outs[:, pairs[:, 0]], outs[:, pairs[:, 1]]
    tuples = np.empty(I.shape + (n, k), dtype=np.intp)  # (l,) + T without p, q
    tuples[..., :1] = np.arange(n)[:, None]
    if k:  # pair j leaves the j-th (k-1)-subset from the end: complements reverse lex order
        tuples[..., 1:] = outs[:, _index_array(k + 1, k - 1)[::-1]][:, :, None]
    src, sign = _sort_sign(tuples, n)
    return _frozen(I, J, src, sign.astype(float), pairs.sum(axis=1) % 2 == 1)


@lru_cache(maxsize=None)
def _d_keys(n, k):
    """Flat positions row * C(n, k) + src in d's matrix of _ce_tables(n, k)'s entries."""
    I, _, src, _, _ = _ce_tables(n, k)
    (keys,) = _frozen((np.arange(len(I))[:, None, None] * math.comb(n, k) + src).ravel())
    return keys


def _d_matrix(m, k):
    """Matrix of d_mu from packed k-forms to packed (k+1)-forms, summed from _ce_tables by one
    bincount, which adds each entry's terms in table order from 0.0."""
    n = m.shape[0]
    I, J, src, sign, odd = _ce_tables(n, k)
    vals = m[I, J] * sign * np.where(odd, -1.0, 1.0)[:, None]
    cols = math.comb(n, k)
    return np.bincount(_d_keys(n, k), vals.ravel(), minlength=len(I) * cols).reshape(len(I), cols)


def _d_block(m, k):
    """D, the matrix of d_mu on packed (k-1)-forms that d* on k-forms reads; None where D = 0.
    d is 0 on 0-forms and +-tr ad on (n-1)-forms (Milnor, Adv. Math. 1976).  d* is the
    adjoint of d only if tr ad = 0: at any k, ValidationError past STRUCTURE_TOL (1 + |mu|)."""
    trace = float(np.abs(np.einsum('ijj->i', m)).max())  # |d on (n-1)-forms|
    if trace > STRUCTURE_TOL * (1.0 + float(np.abs(m).max())):
        raise ValidationError(f"bracket is not unimodular (|tr ad| = {trace:.3e}); d* needs it")
    D = _d_matrix(m, k - 1) if 1 < k < m.shape[0] else np.zeros(0)  # d on 0, n - 1, n forms
    return D if D.any() else None


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


def _monomials(families):
    """A read-only table of the rows (key, ..., coefficient) of the families (broadcast arrays),
    sorted by key: zero coefficients dropped, rows with equal keys summed, zero sums dropped."""
    families = [np.broadcast_arrays(*family) for family in families]
    keys = np.concatenate([np.stack(f[:-1]).reshape(len(f) - 1, -1) for f in families], axis=1)
    coeffs = np.concatenate([f[-1].ravel() for f in families])
    keys, coeffs = keys[:, coeffs != 0.0], coeffs[coeffs != 0.0]
    # one integer per row, ordered as the rows sort: np.unique on it beats np.unique(axis=1)
    code = np.ravel_multi_index(keys, keys.max(axis=1, initial=0) + 1)
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    keys, coeffs = keys[:, first], np.bincount(inverse, coeffs, minlength=first.size)
    return _frozen(*keys[:, coeffs != 0.0], coeffs[coeffs != 0.0])


def _structure_row(m, h):
    """The structure row of (mu, H) on R^n: _pack(m, 2).ravel() (mu[i, j, :] for i < j, row
    by row), then the packed 3-form h.  It is the bracket flow's "gbf" row."""
    return np.concatenate([_pack(m, 2).ravel(), h])


def _row_bracket(y, n):
    """The dense (n, n, n) bracket of the structure row y on R^n (_structure_row)."""
    return _unpack(y[:math.comb(n, 2) * n].reshape(-1, n), n, 2)


@lru_cache(maxsize=None)
def _row_slots(n):
    """(slot, sign), each (2, n, n, n): the dense entry [s][i, j, k] of mu (s = 0) and of H
    (s = 1) is sign * y[slot] on the structure row y on R^n, sign 0 (and slot -1) where an
    index repeats.  Read off the dense tensors of the row y = 1, 2, 3, ..., which hold
    sign * (slot + 1).  Cached read-only."""
    split = math.comb(n, 2) * n
    code = np.arange(1.0, split + math.comb(n, 3) + 1)
    code = np.array([_row_bracket(code, n), _unpack(code[split:], n, 3)])
    return _frozen(np.abs(code).astype(np.intp) - 1, np.sign(code))


@lru_cache(maxsize=None)
def _gate_table(n):
    """The Jacobi and closedness residuals of a structure row y on R^n as one monomial table.

    y is _structure_row(mu, H).  (K, A, B, C): row r adds C[r] * y[A[r]] * y[B[r]] to
    out[K[r]].  Both residuals are d_mu (_ce_tables) of forms the row holds, whose entries
    _row_slots locates.  out[t * n + l] is d_mu of the 2-form mu^l = mu[., ., l] on the t-th
    increasing triple, minus the e_l part of the Jacobiator; out[C(n, 3) n + q] is d_mu H on
    the q-th increasing 4-tuple.
    """
    split, cut = math.comb(n, 2) * n, math.comb(n, 3) * n
    slot = _row_slots(n)[0][0]  # y[slot[i, j, s]] = mu[i, j, s] for i < j
    families = []
    # d_mu of `width` k-forms: the 2-forms mu^l at y[src * n + l], the 3-form H at y[split + src]
    for k, base, offset, width in ((2, 0, 0, n), (3, split, cut, 1)):
        I, J, src, sign, odd = _ce_tables(n, k)
        l = np.arange(width)
        a = slot[I[..., None], J[..., None], np.arange(n)][..., None]
        b = base + src[..., None] * width + l
        key = offset + np.arange(len(I))[:, None, None, None] * width + l
        c = (sign * np.where(odd, -1.0, 1.0)[:, None])[..., None]
        families.append((key, np.minimum(a, b), np.maximum(a, b), c))
    return _monomials(families)


def _structure_residuals(y, n):
    """(Jacobi residual, closedness residual) of the structure row y on R^n: the max |.| over
    the d_mu mu^l (minus the Jacobiator) and over d_mu H, by one pass over _gate_table(n)."""
    K, A, B, C = _gate_table(n)
    cut = math.comb(n, 3) * n
    res = np.abs(np.bincount(K, C * y[A] * y[B], minlength=cut + math.comb(n, 4)))
    return float(res[:cut].max(initial=0.0)), float(res[cut:].max(initial=0.0))


def _structure_failure(y, n):
    """Why (mu, H), as the structure row y on R^n (_gate_table), is not an exact Courant
    algebroid at STRUCTURE_TOL: mu violates Jacobi or H is not closed for it; else None."""
    jacobi, closed = _structure_residuals(y, n)
    if jacobi > STRUCTURE_TOL:
        return f"bracket violates Jacobi (Jacobi residual {jacobi:.3e} exceeds {STRUCTURE_TOL:.1e})"
    if closed > STRUCTURE_TOL:
        return (f"3-form is not closed for the bracket "
                f"(closedness residual {closed:.3e} exceeds {STRUCTURE_TOL:.1e})")
    return None


def _checked_structure_row(m, h):
    """_structure_row(m, h); ValidationError with _structure_failure's reason if it fails."""
    y = _structure_row(m, h)
    reason = _structure_failure(y, len(m))
    if reason is not None:
        raise ValidationError(reason)
    return y


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
    A, B = _index_array(n, k), _index_array(n, l)
    tuples = np.empty((len(A), len(B), k + l), dtype=np.intp)  # A + B
    tuples[..., :k] = A[:, None, :]
    tuples[..., k:] = B
    rank, sign = _sort_sign(tuples, n)
    hit = sign != 0
    out = np.zeros(math.comb(n, k + l))
    # summed in the order of a loop over A, then over B
    np.add.at(out, rank[hit], (sign * alpha.coeffs[:, None] * beta.coeffs)[hit])
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
    if not cond < BASIS_COND_LIMIT:
        raise ValidationError("basis change matrix is singular or near-singular")
    return A, np.linalg.inv(A)


def _raise_pair(B, x):
    """np.kron(B, B) @ x.reshape(n^2, c) for an (n, n, ...) array x: B on both of its first
    two slots, one matmul each, with no (n^2, n^2) factor.  For a bracket m and B = A^-T,
    _raise_pair(B, m) @ A.T is A.m (gl_action, rc_metric, the GRF kernel), skew in its
    first two indices up to round-off."""
    n = len(B)
    return (B @ (B @ x.reshape(n, -1)).reshape(n, n, -1)).reshape(n * n, -1)


def gl_action(A, mu):
    """Basis change on brackets: (A.mu)(X, Y) = A mu(A^-1 X, A^-1 Y)."""
    m = _as_bracket(mu).coeffs
    A, Ainv = _checked_inverse(A, m.shape[0])
    return LieBracket((_raise_pair(Ainv.T, m) @ A.T).reshape(m.shape))  # keeps the skew part


def gl_action_form(A, omega):
    """Basis change on forms: (A.w)(X_1, ..., X_k) = w(A^-1 X_1, ..., A^-1 X_k)."""
    _, Ainv = _checked_inverse(A, omega.dim)
    # C_k(A^-1)^T = C_k(A^-T)
    return KForm(omega.dim, omega.degree, _on_slots(Ainv.T, omega.coeffs, omega.dim, omega.degree))


def pi_mu(phi, mu):
    """Derivative of gl_action at the identity, as a dense (n, n, n) array.

    pi(phi)mu = phi mu(.,.) - mu(phi., .) - mu(., phi.), the tangent direction
    of the curve exp(s phi).mu at s = 0.  phi is a matrix acting by phi @ x.
    """
    m = bracket_coeffs(mu)
    P = np.asarray(phi, dtype=float)
    n = m.shape[0]
    if P.shape != (n, n):
        raise ValidationError(f"pi_mu on R^{n} needs an ({n}, {n}) matrix, got shape {P.shape}")
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
