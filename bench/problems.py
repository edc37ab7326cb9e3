"""Seeded problem generator and the benchmark's own tensor algebra.

Everything here is independent of nilflow: brackets are dense (n, n, n)
arrays with mu(e_i, e_j) = sum_k mu[i, j, k] e_k, forms are dense fully
alternating arrays, and basis changes are plain einsums.  The benchmark
hands the program only what this module generates (arrays, or the JSON
schema dicts of ``problem_from_dict``), and the reference checks reuse the
same algebra, so no check shares code with the layer it checks.

Generated brackets come from families whose nilpotency step is known:
Heisenberg algebras and h3 + abelian (step 2), standard filiform algebras
(step n - 1), and random two-step algebras (generators times a central
ideal, step 2).  A seeded positive diagonal rescaling keeps the sparse
pattern; the "random basis" copy of a problem is the same problem pushed
through a seeded well-conditioned basis change A, which makes every
structure constant nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

# Singular values of a random basis change are drawn from this range, so the
# dense copy of a problem is conditioned like the sparse one (cond(A) <= 2).
BASIS_SV_RANGE = (0.75, 1.5)
# Eigenvalues of a generated metric (cond(g) <= 2.4).
METRIC_EIG_RANGE = (0.7, 1.7)


# ---------------------------------------------------------------------------
# dense tensor algebra

def bracket_from_rows(n, rows):
    """Dense skew bracket from 0-based rows (i, j, k, value) with i < j."""
    m = np.zeros((n, n, n))
    for i, j, k, v in rows:
        m[i, j, k] = v
        m[j, i, k] = -v
    return m


def alternate(t):
    """Full antisymmetrization of a dense tensor (plain average over permutations)."""
    k = t.ndim
    out = np.zeros_like(t)
    for perm in permutations(range(k)):
        inv = sum(1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b])
        out += (-1) ** inv * np.transpose(t, perm)
    return out / math.factorial(k)


def dense_d(w, m):
    """Chevalley-Eilenberg differential of a dense k-form, k >= 1.

    (d w)(X_0..X_k) = sum_{p<q} (-1)^{p+q} w(mu(X_p, X_q), X_0..^p..^q..X_k).
    """
    k = w.ndim
    out = np.zeros((m.shape[0],) * (k + 1))
    contracted = np.tensordot(m, w, axes=([2], [0]))  # axes: x_p, x_q, rest...
    for p in range(k + 1):
        for q in range(p + 1, k + 1):
            order = [p, q] + [r for r in range(k + 1) if r not in (p, q)]
            out += (-1) ** (p + q) * np.transpose(contracted, np.argsort(order))
    return out


def push_bracket(A, m):
    """(A.mu)(X, Y) = A mu(A^-1 X, A^-1 Y) in components."""
    Ai = np.linalg.inv(A)
    return np.einsum('ai,bj,kc,abc->ijk', Ai, Ai, A, m)


def push_form(A, w):
    """(A.w)(X_1..X_k) = w(A^-1 X_1, .., A^-1 X_k) in components."""
    Ai = np.linalg.inv(A)
    for ax in range(w.ndim):
        w = np.moveaxis(np.tensordot(Ai, w, axes=([0], [ax])), 0, ax)
    return w


def push_metric(A, G):
    """Metric of the pushed frame: g'(X, Y) = g(A^-1 X, A^-1 Y)."""
    Ai = np.linalg.inv(A)
    out = Ai.T @ G @ Ai
    return (out + out.T) / 2.0


def pack(w):
    """Packed coefficients of a dense k-form: increasing index tuples, lexicographic."""
    n, k = w.shape[0], w.ndim
    return np.array([w[t] for t in combinations(range(n), k)])


def unpack(coeffs, n, k):
    """Dense alternating k-tensor from packed coefficients (inverse of pack)."""
    w = np.zeros((n,) * k)
    for c, t in zip(coeffs, combinations(range(n), k)):
        w[t] = c
    return alternate(w) * math.factorial(k)


def jacobiator(m):
    return (np.einsum('ijl,lkm->ijkm', m, m) + np.einsum('jkl,lim->ijkm', m, m)
            + np.einsum('kil,ljm->ijkm', m, m))


# ---------------------------------------------------------------------------
# families with a known nilpotency step

def heisenberg_rows(n):
    """[e_1, e_2] = [e_3, e_4] = ... = e_n for odd n."""
    return [(2 * p, 2 * p + 1, n - 1, 1.0) for p in range((n - 1) // 2)]


def _filiform(n, rng):
    return [(0, i, i + 1, 1.0) for i in range(1, n - 1)], n - 1


def _heis_plus_abelian(n, rng):
    return [(0, 1, 2, 1.0)], 2


def _heisenberg(n, rng):
    return heisenberg_rows(n), 2


def _two_step(n, rng):
    q = int(rng.integers(1, max(2, n - 2)))  # centre dimension, 1 <= q <= n - 3
    p = n - q
    rows = [(i, j, p + c, float(rng.uniform(-1.0, 1.0)))
            for i, j in combinations(range(p), 2) for c in range(q)]
    return rows, 2


def _families(n):
    fams = [_filiform, _heis_plus_abelian]
    if n >= 4:
        fams.append(_two_step)
    if n % 2:
        fams.append(_heisenberg)
    return fams


@dataclass(frozen=True)
class Problem:
    """One generated problem: dense data plus what the generator knows about it."""

    mu: np.ndarray       # (n, n, n)
    g: np.ndarray        # (n, n) SPD
    H: np.ndarray        # dense closed 3-form
    theta: np.ndarray    # (n,)
    step: int            # nilpotency step
    basis: np.ndarray    # the basis change applied to the sparse problem (identity if none)

    @property
    def dim(self):
        return self.mu.shape[0]

    def as_dict(self):
        """The JSON schema dict of ``nilflow.problem_from_dict`` (1-based indices)."""
        n = self.dim
        mu_rows = [[i + 1, j + 1, k + 1, float(self.mu[i, j, k])]
                   for i, j in combinations(range(n), 2) for k in range(n)
                   if self.mu[i, j, k] != 0.0]
        h_rows = [[i + 1, j + 1, k + 1, float(self.H[i, j, k])]
                  for i, j, k in combinations(range(n), 3) if self.H[i, j, k] != 0.0]
        th_rows = [[i + 1, float(v)] for i, v in enumerate(self.theta) if v != 0.0]
        return {"dim": n, "mu": mu_rows, "H": h_rows, "theta": th_rows,
                "g": [[float(v) for v in row] for row in self.g]}


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_spd(rng, n):
    Q = random_orthogonal(rng, n)
    G = (Q * rng.uniform(*METRIC_EIG_RANGE, size=n)) @ Q.T
    return (G + G.T) / 2.0


def random_basis_change(rng, n):
    U, V = random_orthogonal(rng, n), random_orthogonal(rng, n)
    return (U * rng.uniform(*BASIS_SV_RANGE, size=n)) @ V.T


def closed_flux(rng, m, scale):
    """H = d_mu B for a random 2-form B, plus random products of closed 1-forms.

    e^i is closed when no bracket lands on e_i, and a wedge of closed forms is
    closed, so the sum is closed for any Lie bracket mu.  Scaled so that
    max |H_ijk| = scale (zero stays zero).
    """
    n = m.shape[0]
    B = rng.standard_normal((n, n))
    H = dense_d(B - B.T, m)
    closed1 = [i for i in range(n) if not np.any(m[:, :, i])]
    for t in combinations(closed1, 3):
        e = np.zeros((n, n, n))
        e[t] = rng.standard_normal()
        H += alternate(e) * 6.0
    top = float(np.max(np.abs(H))) if H.size else 0.0
    return H * (scale / top) if top > 0.0 else H


def sparse_problem(rng, n, rows, step):
    """Seeded problem on a family bracket: rescaled basis, random metric, flux and theta."""
    scale = np.diag(rng.uniform(0.6, 1.6, size=n))
    m = push_bracket(scale, bracket_from_rows(n, rows))
    theta = 0.5 * rng.standard_normal(n)
    return Problem(mu=m, g=random_spd(rng, n), H=closed_flux(rng, m, 0.5),
                   theta=theta, step=step, basis=np.eye(n))


def in_random_basis(rng, prob):
    """The same problem seen through a seeded basis change A (dense structure constants)."""
    A = random_basis_change(rng, prob.dim)
    Ai = np.linalg.inv(A)
    return Problem(mu=push_bracket(A, prob.mu), g=push_metric(A, prob.g),
                   H=push_form(A, prob.H), theta=Ai.T @ prob.theta,
                   step=prob.step, basis=A)


def survey_problem(rng, n, random_basis, family=0):
    """A seeded problem of dimension n from family number ``family`` (cycled)."""
    families = _families(n)
    rows, step = families[family % len(families)](n, rng)
    prob = sparse_problem(rng, n, rows, step)
    return in_random_basis(rng, prob) if random_basis else prob


def nil7_pair(rng):
    """7-dim Heisenberg problem (theta = 0) and its copy in a random basis."""
    n = 7
    m = bracket_from_rows(n, heisenberg_rows(n))
    prob = Problem(mu=m, g=random_spd(rng, n), H=closed_flux(rng, m, 0.5),
                   theta=np.zeros(n), step=2, basis=np.eye(n))
    return prob, in_random_basis(rng, prob)
