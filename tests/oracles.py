"""Independent reference implementations used to cross-check the library.

The oracle functions in this file deliberately avoid the library's code
paths: the differential is the alternating-sum definition evaluated with
plain loops, the star operator goes through the Levi-Civita symbol, and the
Ricci oracle walks Koszul -> Christoffels -> curvature tensor -> trace.
They are slow and only meant for small dimensions.

The data generators at the bottom may use the library (conjugating a known
nilpotent bracket by a random basis change is generation, not verification).
"""

import itertools
import math

import numpy as np

from nilflow import LieBracket, gl_action


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def levi_civita(n):
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        eps[perm] = perm_sign(perm)
    return eps


def dense_ce(omega_dense, m):
    """Chevalley-Eilenberg differential by the alternating-sum definition.

    omega_dense: dense alternating k-tensor (k >= 1); m: bracket array.
    Returns the dense (k+1)-tensor of d omega.
    """
    omega_dense = np.asarray(omega_dense, dtype=float)
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    k = omega_dense.ndim
    out = np.zeros((n,) * (k + 1))
    for idx in itertools.product(range(n), repeat=k + 1):
        acc = 0.0
        for p in range(k + 1):
            for q in range(p + 1, k + 1):
                rest = tuple(idx[r] for r in range(k + 1) if r != p and r != q)
                inner = 0.0
                for l in range(n):
                    c = m[idx[p], idx[q], l]
                    if c != 0.0:
                        inner += c * omega_dense[(l,) + rest]
                acc += (-1) ** (p + q) * inner
        out[idx] = acc
    return out


def packed_ce(coeffs, m, k):
    """Packed coefficients of d omega, for a k-form given by packed coefficients.

    The same alternating sum as dense_ce, evaluated only on increasing
    (k+1)-tuples, with omega read off its packed slots through perm_sign.  Its
    cost grows like C(n, k+1) rather than n^(k+1), so it reaches n = 10.
    Trailing axes of coeffs index several forms at once, so
    packed_ce(np.eye(C(n, k)), m, k) is the matrix of d on k-forms.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    slots = dict(zip(itertools.combinations(range(n), k), coeffs))

    def omega(idx):
        if len(set(idx)) < len(idx):
            return 0.0
        order = sorted(range(len(idx)), key=lambda r: idx[r])
        return perm_sign(order) * slots[tuple(idx[r] for r in order)]

    out = []
    for T in itertools.combinations(range(n), k + 1):
        acc = 0.0
        for p in range(k + 1):
            for q in range(p + 1, k + 1):
                rest = tuple(T[r] for r in range(k + 1) if r != p and r != q)
                inner = 0.0
                for l in range(n):
                    c = m[T[p], T[q], l]
                    if c != 0.0:
                        inner += c * omega((l,) + rest)
                acc += (-1) ** (p + q) * inner
        out.append(acc)
    return np.array(out).reshape((-1,) + np.shape(coeffs)[1:])


def dense_form(coeffs, n, k):
    """Dense alternating k-tensor of a packed form, entry by entry through perm_sign."""
    out = np.zeros((n,) * k)
    for c, T in zip(coeffs, itertools.combinations(range(n), k)):
        for perm in itertools.permutations(range(k)):
            out[tuple(T[p] for p in perm)] = perm_sign(perm) * c
    return out


def column_entry(label, n, g=None, mu=None, h=None):
    """The entry a trajectory column label names, parsed from the label alone.

    g_i and g_ij name g[i-1, i-1] and g[i-1, j-1], mu_ij_k names
    mu[i-1, j-1, k-1] and H_ijk names h[i-1, j-1, k-1], for dense g, mu and
    h; from n = 10 on the indices are separated by underscores.
    """
    name, *parts = label.split("_")
    idx = [int(p) - 1 for p in (parts if n >= 10 else "".join(parts))]
    if name == "g":
        return g[idx[0], idx[-1]]
    return {"mu": mu, "H": h}[name][tuple(idx)]


def labelled_row(labels, n, **dense):
    """One trajectory row: column_entry of each label, read off the dense g, mu or h."""
    return np.array([column_entry(label, n, **dense) for label in labels])


def compound(mat, k):
    """k-th compound matrix by one determinant per pair of increasing index tuples."""
    mat = np.asarray(mat, dtype=float)
    tups = list(itertools.combinations(range(mat.shape[0]), k))
    out = np.zeros((len(tups), len(tups)))
    for r, rows in enumerate(tups):
        for c, cols in enumerate(tups):
            out[r, c] = np.linalg.det(mat[np.ix_(rows, cols)]) if k else 1.0
    return out


def dense_inner(a_dense, b_dense, G):
    """<a, b>_g = (1/k!) a_{I} b_{J} g^{i1 j1} ... g^{ik jk}."""
    a = np.asarray(a_dense, dtype=float)
    b = np.asarray(b_dense, dtype=float)
    ginv = np.linalg.inv(np.asarray(G, dtype=float))
    k = a.ndim
    raised = a.copy()
    for ax in range(k):
        raised = np.moveaxis(np.tensordot(raised, ginv, axes=(ax, 0)), -1, ax)
    if k == 0:
        return float(raised * b)
    return float(np.tensordot(raised, b, axes=(tuple(range(k)), tuple(range(k))))
                 / math.factorial(k))


def dense_star(omega_dense, G, orientation=1):
    """Hodge star via the Levi-Civita symbol.

    (star w)_J = (1/k!) w^{I} eps_{I J} * orientation * sqrt(det g).
    Returns the dense (n-k)-tensor.
    """
    w = np.asarray(omega_dense, dtype=float)
    G = np.asarray(G, dtype=float)
    n = G.shape[0]
    k = w.ndim
    ginv = np.linalg.inv(G)
    raised = w.copy()
    for ax in range(k):
        raised = np.moveaxis(np.tensordot(raised, ginv, axes=(ax, 0)), -1, ax)
    eps = levi_civita(n)
    scale = orientation * math.sqrt(np.linalg.det(G))
    if k == 0:
        return float(raised) * scale * eps
    out = np.tensordot(raised, eps, axes=(tuple(range(k)), tuple(range(k))))
    return out * (scale / math.factorial(k))


def koszul_christoffels(m, G):
    """Gamma[i, j, k] from the Koszul formula, solved against G with plain loops."""
    m = np.asarray(m, dtype=float)
    G = np.asarray(G, dtype=float)
    n = m.shape[0]
    rhs = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                rhs[i, j, k] = 0.5 * (m[i, j] @ G[:, k]
                                      - m[j, k] @ G[:, i]
                                      + m[k, i] @ G[:, j])
    # rhs[i, j, k] = g(nabla_i e_j, e_k) = Gamma[i, j, l] G[l, k]
    return np.linalg.solve(G.T, rhs.reshape(n * n, n).T).T.reshape(n, n, n)


def ricci_riemann(m, G):
    """Ricci bilinear form via the curvature tensor and a trace.

    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{mu(X,Y)} Z,
    Ric(Y, Z) = trace of X -> R(X, Y)Z.
    """
    m = np.asarray(m, dtype=float)
    G = np.asarray(G, dtype=float)
    n = m.shape[0]
    gam = koszul_christoffels(m, G)
    grad2 = np.einsum('jkm,iml->ijkl', gam, gam)  # nabla_i nabla_j e_k
    R = grad2 - np.einsum('ikm,jml->ijkl', gam, gam) - np.einsum('ijm,mkl->ijkl', m, gam)
    return np.einsum('ijki->jk', R)


def _heisenberg_time_integral(a):
    """K = |1 - a^2| and F, the antiderivative of s^2/(s^2-a^2)^3 (see below)."""
    K = abs(1.0 - a * a)

    def F(s):
        d2 = (s - a) * (s + a)
        return (math.log((s + a) / abs(s - a)) / (16.0 * a ** 3)
                - s * (s * s + a * a) / (8.0 * a * a * d2 * d2))

    return K, F


def heisenberg_grf_exact(a, t):
    """Exact GRF solution on heis3 from g(0) = I, H = a e^123: (g1, g3) at t.

    Domain: a > 0, a != 1, t >= 0 (a = 0 and a = 1 have elementary closed
    forms).  With x = g1 = g2 and z = g3 the flow reduces to
    x' = (z^2 + a^2)/(x z), z' = (a^2 - z^2)/x^2.  Separating dz/dx gives the
    first integral x |z^2 - a^2| = K z with K = |1 - a^2|, and then
    t(z) = K^2 |F(1) - F(z)| with the antiderivative
    F(s) = ln((s+a)/|s-a|)/(16 a^3) - s (s^2+a^2)/(8 a^2 (s^2-a^2)^2)
    of s^2/(s^2-a^2)^3.  t(z) is monotone on the open interval between 1
    and a (0 at z = 1, infinite at z = a), so z is found by bisection to the
    last bit.  As t -> oo: |z - a| ~ K/(4 sqrt(a t)), x ~ 2 sqrt(a t).
    """
    if not (a > 0.0 and a != 1.0 and t >= 0.0):
        raise ValueError("need a > 0, a != 1 and t >= 0")
    K, F = _heisenberg_time_integral(a)

    def elapsed(z):
        return K * K * abs(F(1.0) - F(z))

    near, far = a, 1.0  # elapsed(near) = oo > t >= 0 = elapsed(far)
    while True:
        mid = 0.5 * (near + far)
        if mid in (near, far):
            break
        if elapsed(mid) > t:
            near = mid
        else:
            far = mid
    z = far
    return K * z / abs((z - a) * (z + a)), z


def heisenberg_tmin_exact(a):
    """Backward singular time T_min of the heis3 GRF from g(0) = I, H = a e^123.

    Domain: a > 0, a != 1.  t(z) = K^2 |F(1) - F(z)| of heisenberg_grf_exact
    also holds backward, where z = g3 moves away from a: to infinity for
    a < 1 and to 0 for a > 1, and x = K z / |z^2 - a^2| goes to 0 at both
    ends.  F tends to 0 at both ends, so T_min = -K^2 |F(1)|.
    """
    if not (a > 0.0 and a != 1.0):
        raise ValueError("need a > 0 and a != 1")
    K, F = _heisenberg_time_integral(a)
    return -K * K * abs(F(1.0))


def dorfman_residuals(m, Hd):
    """(total-skew residual, Leibniz residual) of the Dorfman bracket of (m, Hd).

    Evaluates muH(X + xi, Y + eta) = mu(X, Y) - eta . ad(X) + xi . ad(Y)
    + iota_Y iota_X H with matrix products on whole generalized vectors, then
    loops over basis triples: the skew residual alternates the pairing
    <muH(E_a, E_b), E_c> over the six permutations, and the Leibniz residual
    brackets basis vectors against the computed brackets.  Raw (non-skew)
    m and non-alternating Hd are evaluated as given.
    """
    m = np.asarray(m, dtype=float)
    Hd = np.asarray(Hd, dtype=float)
    n = m.shape[0]
    N = 2 * n

    def bracket(z1, z2):
        (X, xi), (Y, eta) = z1, z2
        adX = np.tensordot(X, m, axes=1)  # adX[k, l]: e^l of mu(X, e_k)
        adY = np.tensordot(Y, m, axes=1)
        HX = np.tensordot(X, Hd, axes=1)  # HX[j, k] = H(X, e_j, e_k)
        return Y @ adX, -(adX @ eta) + adY @ xi + Y @ HX

    def basis(a):
        z = np.zeros(N)
        z[a] = 1.0
        return z[:n], z[n:]

    def pairing(z1, z2):
        return 0.5 * (z1[1] @ z2[0] + z2[1] @ z1[0])

    E = [basis(a) for a in range(N)]
    br = [[bracket(E[a], E[b]) for b in range(N)] for a in range(N)]
    perms = (((0, 1, 2), 1), ((0, 2, 1), -1), ((1, 0, 2), -1),
             ((1, 2, 0), 1), ((2, 0, 1), 1), ((2, 1, 0), -1))
    skew = leibniz = 0.0
    for abc in itertools.product(range(N), repeat=3):
        a, b, c = abc
        p = pairing(br[a][b], E[c])
        alt = sum(s * pairing(br[abc[i]][abc[j]], E[abc[k]]) for (i, j, k), s in perms) / 6.0
        skew = max(skew, abs(p - alt))
        lhs = bracket(E[a], br[b][c])
        r1 = bracket(br[a][b], E[c])
        r2 = bracket(E[b], br[a][c])
        for part in range(2):
            leibniz = max(leibniz, float(np.max(np.abs(lhs[part] - r1[part] - r2[part]))))
    return skew, leibniz


# ---------------------------------------------------------------------------
# reference brackets (0-based entry rows (i, j, k, value), i < j)

HEIS3 = ((0, 1, 2, 1.0),)
# filiform: mu(e1,e2)=e3, mu(e1,e3)=e4
FILIFORM4 = ((0, 1, 2, 1.0), (0, 2, 3, 1.0))
# 5-dim Heisenberg: mu(e1,e2)=e5, mu(e3,e4)=e5
HEIS5 = ((0, 1, 4, 1.0), (2, 3, 4, 1.0))
# sl2-type: not nilpotent
SL2 = ((0, 1, 1, 2.0), (0, 2, 2, -2.0), (1, 2, 0, 1.0))
# affine/solvable on R^2 (+ trivial factor): Lie but not nilpotent
AFFINE = ((0, 1, 1, 1.0),)


def bracket_from(entries, dim):
    return LieBracket.from_entries(dim, entries, one_based=False)


_NILPOTENT_SEEDS = {3: HEIS3, 4: FILIFORM4, 5: HEIS5}


def random_basis_change(rng, n, spread=0.3):
    while True:
        A = np.eye(n) + spread * rng.uniform(-1.0, 1.0, size=(n, n))
        if np.linalg.cond(A) < 50.0:
            return A


def random_nilpotent(rng, dim):
    """A Jacobi-exact nilpotent bracket in a random (well-conditioned) basis."""
    seed = _NILPOTENT_SEEDS[min(max(dim, 3), 5)]
    entries = [row for row in seed if max(row[:3]) < dim]
    base = bracket_from(tuple(entries), dim)
    return gl_action(random_basis_change(rng, dim), base)


def random_spd(rng, n, spread=0.8):
    B = rng.uniform(-1.0, 1.0, size=(n, n))
    return spread * (B @ B.T) + np.eye(n) * (0.5 + n * 0.25)


def random_form_coeffs(rng, n, k):
    return rng.standard_normal(math.comb(n, k))


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_skew_bracket(rng, n, scale=1.0):
    """Raw skew (n,n,n) array; generically violates Jacobi."""
    raw = rng.uniform(-1.0, 1.0, size=(n, n, n)) * scale
    return (raw - raw.swapaxes(0, 1)) / 2.0
