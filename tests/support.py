"""Shared helpers for the test suite.

The randomized triples here all live on a fixed algebra with a fixed
symplectic form; only the complex structure moves.  Conjugating a valid
j by any symplectic map S gives another valid structure on the same
underlying data:

    omega(SjS^-1 x, SjS^-1 y) = omega(j S^-1 x, j S^-1 y)
                              = omega(S^-1 x, S^-1 y) = omega(x, y)

and the induced metric is the pullback of the old one by S^-1, hence
still positive definite.  The symplectic group is generated by
transvections v -> v + lam * omega(v, a) * a, so composing a handful of
those with random directions and coefficients samples it broadly while
keeping every entry an exact rational.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import isqrt, lcm

from liesymp import (Matrix, Subspace, SymplecticTriple, Tensor3,
                     build_triple, torsion, validate)
from liesymp.errors import CocycleViolation, JacobiViolation
from liesymp.linalg import _ratio, echelon, int_vector, qof
from liesymp.nspace import build_constraint_rows
from liesymp.symp import first_slots
from liesymp.tensor import combine

_LAMBDAS = [Fraction(1), Fraction(-1), Fraction(1, 2),
            Fraction(-1, 2), Fraction(2), Fraction(-2), Fraction(1, 3)]


def transvection(omega: Matrix, a: list[Fraction], lam: Fraction) -> Matrix:
    """Matrix of v -> v + lam * omega(v, a) * a (always symplectic)."""
    d = omega.nrows
    cols = []
    for i in range(d):
        e = [Fraction(0)] * d
        e[i] = Fraction(1)
        w = omega.apply(e)
        coeff = lam * sum(w[k] * a[k] for k in range(d))
        cols.append([e[r] + coeff * a[r] for r in range(d)])
    return Matrix.from_rows([[cols[c][r] for c in range(d)] for r in range(d)])


def random_symplectic(omega: Matrix, rng: random.Random, steps: int = 5) -> Matrix:
    d = omega.nrows
    s = Matrix.identity(d)
    for _ in range(steps):
        a = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
        if all(x == 0 for x in a):
            a[rng.randrange(d)] = Fraction(1)
        lam = rng.choice(_LAMBDAS)
        s = transvection(omega, a, lam) @ s
    return s


def dense_conjugate(t: SymplecticTriple, rng: random.Random,
                    bits: tuple[int, int] = (20, 30)) -> SymplecticTriple:
    """t with j moved to S j S^-1, S a product of transvections grown
    until the largest numerator or denominator of the new j has bits[0]
    bits; a candidate with a zero entry or more than bits[1] bits is
    redrawn. The same recipe as the benchmark's dense conjugates."""
    d = t.dim
    while True:
        s = s_inv = Matrix.identity(d)
        out = t.j
        while _max_bits(out) < bits[0]:
            a = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
            if not any(a):
                a[rng.randrange(d)] = Fraction(1)
            lam = rng.choice(_LAMBDAS)
            s = transvection(t.omega, a, lam) @ s
            s_inv = s_inv @ transvection(t.omega, a, -lam)
            out = s @ t.j @ s_inv
        if _max_bits(out) <= bits[1] and all(x for r in out.entries
                                             for x in r):
            return build_triple(t.algebra, t.omega, out)


def _max_bits(m: Matrix) -> int:
    return max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for r in m.entries for x in r)


def aff_aff_triple() -> SymplecticTriple:
    """aff(R) + aff(R): [e1,e2] = e2, [e3,e4] = e4, omega = e^12 + e^34,
    J e1 = e2, J e3 = e4.  Kaehler and not flat, unlike every integrable
    catalog entry."""
    alg = validate("aff+aff", ("e1", "e2", "e3", "e4"),
                   {(0, 1): {1: 1}, (2, 3): {3: 1}})
    omega = Matrix.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0],
                              [0, 0, 0, 1], [0, 0, -1, 0]])
    j = Matrix.from_rows([[0, -1, 0, 0], [1, 0, 0, 0],
                          [0, 0, 0, -1], [0, 0, 1, 0]])
    return build_triple(alg, omega, j)


def conjugated_triple(t: SymplecticTriple, rng: random.Random,
                      steps: int = 5) -> SymplecticTriple:
    """A fresh validated triple on t's algebra and form, with j moved by
    a random symplectic conjugation.  Goes back through build_triple so
    every validation layer re-runs on the sample."""
    s = random_symplectic(t.omega, rng, steps=steps)
    j2 = s @ t.j @ s.inverse()
    return build_triple(t.algebra, t.omega, j2)


def transport(t: SymplecticTriple, p: Matrix) -> SymplecticTriple:
    """t in the basis e'_i = P e_i, the columns of an invertible P, under
    the same names: c' = P^-1 c(P., P.), omega' = P^T omega P and
    J' = P^-1 J P, rebuilt through `validate` and `build_triple`."""
    g, p_inv, cols = t.algebra, p.inverse(), p.transpose().entries
    table = {}
    for a, b in combinations(range(t.dim), 2):
        res = p_inv.apply(g.bracket_vec(cols[a], cols[b]))
        if any(res):
            table[(a, b)] = dict(enumerate(res))
    return build_triple(validate(g.name, g.basis_names, table),
                        p.transpose() @ t.omega @ p, p_inv @ t.j @ p)


# -- helpers for matrix and subspace operations the library does not need


def zeros(rows: int, cols: int) -> Matrix:
    """The rows x cols zero matrix."""
    return Matrix.from_rows([[0] * cols for _ in range(rows)])


def diag(values) -> Matrix:
    """Diagonal matrix with the given entries."""
    n = len(values)
    return Matrix.from_rows([[values[i] if i == j else 0 for j in range(n)]
                             for i in range(n)])


def col(m: Matrix, j: int) -> tuple:
    """Column j of m."""
    return tuple(r[j] for r in m.entries)


def solve(m: Matrix, rhs) -> tuple:
    """x with m x = rhs, for square invertible m."""
    return m.inverse().apply(rhs)


def ad(g, u) -> Matrix:
    """Matrix of ad_u = [u, .] in g's basis."""
    basis = [[Fraction(int(a == b)) for a in range(g.dim)]
             for b in range(g.dim)]
    return Matrix.from_rows(list(zip(*(g.bracket_vec(u, e) for e in basis))))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """a + b."""
    return Subspace.span(a.ambient_dim, a.basis.entries + b.basis.entries)


def image_under(s: Subspace, m: Matrix) -> Subspace:
    """m(s)."""
    return Subspace.span(m.nrows, [m.apply(v) for v in s.basis.entries])


# -- membership by pivot subtraction, as an oracle for the annihilator


def pivot_contains(s: Subspace, vec) -> bool:
    """vec in s iff den w = sum of w[p_i] den b_i, w vec's ints and p_i
    the pivot of s's RREF row b_i: `Subspace.contains`'s route before it
    went through the annihilator."""
    w = dict(enumerate(int_vector(vec)[1]))
    acc = {j: x * s.basis.den for j, x in w.items()}
    for row in s.basis.rows:
        c = w.get(row[0][0])
        if c:
            for j, p in row:
                acc[j] = acc.get(j, 0) - c * p
    return not any(acc.values())


# -- the dense reader, as an oracle for `Matrix.from_rows`


def dense_from_rows(rows) -> Matrix:
    """`Matrix.from_rows` as it read before it skipped entries spelled
    "0": every entry parsed into a dense list of (p, q), then the ragged
    check, then the dense ints over the lcm of every q."""
    ratios = [[_ratio(x) for x in r] for r in rows]
    if len({len(r) for r in ratios}) > 1:
        raise ValueError("ragged rows")
    den = lcm(*(q for r in ratios for _, q in r))
    return Matrix.from_ints(den, [[p * (den // q) for p, q in r]
                                  for r in ratios])


# -- the Fraction Gauss-Jordan elimination, as an oracle for the library's
#    fraction-free one


def fraction_rref(m: Matrix) -> tuple[Matrix, int]:
    """RREF and rank of m by Gauss-Jordan elimination on `Fraction`s:
    pivots are the first nonzero entry scanning columns left to right,
    rows top to bottom. `Matrix.rref`'s route before it ran on ints."""
    m, nr, nc = [list(r) for r in m.entries], m.nrows, m.ncols
    rank = 0
    for col in range(nc):
        pivot = None
        for r in range(rank, nr):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        # the pivot row is zero left of col; only its support changes
        # the other rows
        support = [(j, x / pv) for j, x in enumerate(m[rank]) if x]
        for j, x in support:
            m[rank][j] = x
        for r in range(nr):
            f = m[r][col]
            if r != rank and f != 0:
                row = m[r]
                for j, x in support:
                    row[j] -= f * x
        rank += 1
        if rank == nr:
            break
    return Matrix.from_rows(m), rank


# -- dense tensors: a constructor, and an oracle for `Tensor3.endo`


def from_dense(dim: int, vals) -> Tensor3:
    """The tensor with T(e_i, e_j) = vals[i][j], any exact numbers."""
    num = {(i, j): [qof(x) for x in v]
           for i, row in enumerate(vals) for j, v in enumerate(row)}
    den = lcm(*(x.denominator for v in num.values() for x in v))
    return Tensor3.from_ints(dim, den, {
        ij: [x.numerator * (den // x.denominator) for x in v]
        for ij, v in num.items()})


def numerators(t: Tensor3, i: int, j: int) -> list[int]:
    """den * T(e_i, e_j) as a dense list of ints."""
    v = [0] * t.dim
    for k, p in t.rows.get((i, j), ()):
        v[k] = p
    return v


def dense_span(t: Tensor3, pairs) -> Subspace:
    """The span of the T(e_i, e_j), (i, j) in pairs, by `Subspace.span` of
    their dense numerator lists: an oracle for the `Subspace.of_rows` of
    the stored rows that `image_distribution`, `p_pairs_span_q` and
    `derived_subalgebra` take."""
    return Subspace.span(t.dim, [numerators(t, i, j) for i, j in pairs])


def dense_endo(t: Tensor3, i: int) -> Matrix:
    """T(e_i, .) as a matrix (columns are images), from the dense
    numerator lists T(e_i, e_b) * den put side by side as columns."""
    return Matrix.from_ints(t.den, list(zip(
        *(numerators(t, i, b) for b in range(t.dim)))))


# -- parallel forms, as an oracle for `connections._parallel`


def definitional_parallel(conn, form: Matrix) -> bool:
    """nabla form = 0 by its definition: F M_i + M_i^T F == 0 for every
    M_i = Gamma(e_i, .), F the form's matrix, with Matrix @, + and
    transpose; any square F, not only a symmetric or skew one."""
    return all((form @ m + m.transpose() @ form).is_zero()
               for m in map(conn.endo, range(conn.dim)))


# -- the dense curvature route, as an oracle for the library's int route


def dense_curvature(t: SymplecticTriple, lc, chern):
    """(ricci, scalar, chern_ricci, hermitian_scalar) from d^2 dense
    operators R(e_i, e_j) = M_i M_j - M_j M_i - sum_k c^k_ij M_k, formed
    with Matrix @, - and scale, followed by the Ricci and mixed trace
    loops: the route the library took before its curvature ran on ints."""
    d, j = t.dim, t.j
    riem = dense_operators(t, lc)
    ric = Matrix.from_rows([
        [sum((riem[k][x].entry(k, y) for k in range(d)), Fraction(0))
         for y in range(d)] for x in range(d)])
    scalar = (t.metric_inv @ ric).trace()
    riem_c = dense_operators(t, chern)
    p = [[Fraction(0)] * d for _ in range(d)]
    for x in range(d):
        for y in range(x + 1, d):
            val = (j @ riem_c[x][y]).trace()
            p[x][y] = val
            p[y][x] = -val
    p = Matrix.from_rows(p)
    herm = (j @ t.metric_inv @ p).trace() / 2
    return ric, scalar, p, herm


def dense_operators(t: SymplecticTriple, conn) -> list[list[Matrix]]:
    d, g = t.dim, t.algebra
    endos = [conn.endo(i) for i in range(d)]
    out = [[zeros(d, d)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            m = endos[i] @ endos[j] - endos[j] @ endos[i]
            br = bracket_basis(g, i, j)
            if br:
                mbr = zeros(d, d)
                for k, co in br.items():
                    mbr = mbr + endos[k].scale(co)
                m = m - mbr
            out[i][j] = m
            out[j][i] = -m
    return out


# -- the composed Nijenhuis route, as an oracle for the one-pass kernel


def composed_nijenhuis(c: Tensor3, j: Matrix) -> Tensor3:
    """N(x, y) = [Jx, Jy] - J[Jx, y] - J[x, Jy] - [x, y] composed from
    `Tensor3` operations: with A(x, y) = [x, Jy], [Jx, Jy] is A with J
    also put into the first slot, and J[Jx, y] = -J A(y, x). The route
    `nijenhuis_of` took before it became one pass over C's pairs."""
    a = c.map_second(j)
    ja = a.map_values(j)
    both = a.map_first(j)
    return combine([(1, both), (1, ja.swapped()), (-1, ja), (-1, c)])


def definitional_nijenhuis(c: Tensor3, j: Matrix) -> dict:
    """(a, b) -> N(e_a, e_b) for every basis pair, straight from the
    definition with `Tensor3.of_vectors` and `Matrix.apply`. Unlike
    `composed_nijenhuis` it reads [Jx, y] and [x, Jy] each from its own
    slot order, so C need not be antisymmetric."""
    basis = Matrix.identity(c.dim).entries
    out = {}
    for a, x in enumerate(basis):
        jx = j.apply(x)
        for b, y in enumerate(basis):
            jy = j.apply(y)
            terms = (c.of_vectors(jx, jy), j.apply(c.of_vectors(jx, y)),
                     j.apply(c.of_vectors(x, jy)), c.of_vectors(x, y))
            out[(a, b)] = tuple(p - q - r - s for p, q, r, s in zip(*terms))
    return out


# -- the definitional twistor route, as an oracle for the m-projected kernel


def twistor_n(model) -> int:
    """n of the so(1,2n) pair, whose h = u(n) has dimension n^2."""
    return isqrt(model.h_dim)


def definitional_twistor_n(model, sign: str) -> dict:
    """(a, b) -> N(A, B) for every pair of m-coordinates (q then p), by
    the definition on the full so(1,2n): J extended by zero on u(n) as a
    dim x dim Matrix, read off the basis names (QX_ab -> QY_ab -> -QX_ab,
    P_i -> +-P_{n+i} -> -+P_i), N by `definitional_nijenhuis`, then the
    u-components dropped. The route the library took before its
    twistor tensor ran on the shared kernel."""
    g, n = model.algebra, twistor_n(model)
    pos = {nm: i for i, nm in enumerate(g.basis_names)}
    s = 1 if sign == "+" else -1
    rows = [[0] * g.dim for _ in range(g.dim)]
    for nm, k in pos.items():
        if nm.startswith("QX_"):
            rows[pos["QY_" + nm[3:]]][k] = 1
        elif nm.startswith("QY_"):
            rows[pos["QX_" + nm[3:]]][k] = -1
        elif nm.startswith("P_"):
            i = int(nm[2:])
            if i <= n:
                rows[pos[f"P_{n + i}"]][k] = s
            else:
                rows[pos[f"P_{i - n}"]][k] = -s
    j = Matrix.from_rows(rows)
    m_idx = [k for k, nm in enumerate(g.basis_names) if nm[0] == "Q"]
    m_idx += [k for k, nm in enumerate(g.basis_names) if nm[0] == "P"]
    full = definitional_nijenhuis(g.bracket, j)
    return {(ia, ib): tuple(full[(a, b)][k] for k in m_idx)
            for ia, a in enumerate(m_idx) for ib, b in enumerate(m_idx)}


def descent_facts(pair, j: Matrix) -> tuple[bool, bool, bool]:
    """The three facts that let J and omega descend from the reductive pair
    g = h (+) m to G/H: [h, m] in m, phi([h, g]) = 0, and J commuting
    with ad(x) on m for every basis element x of h. One int pass over the
    stored pairs (x, y), x in h: their values give phi([e_x, e_y]) and
    the columns of ad(x) on m, in m-coordinates, over the bracket's
    denominator; [J, ad(x)] = 0 is tested on numerators, both products
    being over that denominator times J's."""
    h = pair.h_dim
    closed = phi_h = True
    ad: list[dict] = [{} for _ in range(h)]  # (k, y) -> [e_x, e_y]_k
    for (x, y), row in pair.algebra.bracket.rows.items():
        if x < h:
            phi_h = phi_h and not sum(p * pair.phi[k] for k, p in row)
            if y >= h:
                closed = closed and all(k >= h for k, _ in row)
                ad[x].update(((k - h, y - h), p) for k, p in row if k >= h)
    jm = {(i, c): p for i, r in enumerate(j.rows) for c, p in r}
    commutes = not any(_mat_commutator(jm, a) for a in ad)
    return closed, phi_h, commutes


# -- the Lorentz-matrix route, as an oracle for the so(1,2n) bracket

Sparse = dict[tuple[int, int], int]  # (row, col) -> value, matrix entries


def lorentz_matrices(n: int) -> list[Sparse]:
    """The twistor basis as (2n+1) x (2n+1) matrices acting on R^{1,2n},
    in `build_twistor_model`'s order, read off the block layouts in the
    twistor module docstring."""
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    mats: list[Sparse] = []
    # u(n): UX_ab = [[E_ab - E_ba, 0], [0, E_ab - E_ba]]
    mats += [{(a, b): 1, (b, a): -1, (n + a, n + b): 1, (n + b, n + a): -1}
             for a, b in pairs]
    # u(n): UY_ab = [[0, E_ab + E_ba], [-(E_ab + E_ba), 0]]  (Y symmetric)
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            if a == b:
                mats.append({(a, n + a): 1, (n + a, a): -1})
            else:
                mats.append({(a, n + b): 1, (b, n + a): 1,
                             (n + a, b): -1, (n + b, a): -1})
    # q: QX_ab = [[E_ab - E_ba, 0], [0, -(E_ab - E_ba)]]
    mats += [{(a, b): 1, (b, a): -1, (n + a, n + b): -1, (n + b, n + a): 1}
             for a, b in pairs]
    # q: QY_ab = [[0, E_ab - E_ba], [E_ab - E_ba, 0]]  (Y skew)
    mats += [{(a, n + b): 1, (b, n + a): -1, (n + a, b): 1, (n + b, a): -1}
             for a, b in pairs]
    # p: P_i = E_{0i} + E_{i0}
    mats += [{(0, i): 1, (i, 0): 1} for i in range(1, 2 * n + 1)]
    return mats


def _mat_commutator(a: Sparse, b: Sparse) -> Sparse:
    out: Sparse = {}
    for x, y, s in ((a, b, 1), (b, a, -1)):
        for (r, c), v in x.items():
            for (c2, c3), w in y.items():
                if c2 == c:
                    out[(r, c3)] = out.get((r, c3), 0) + s * v * w
    return {k: v for k, v in out.items() if v}


def _expand_in_basis(m: Sparse, n: int, pos: dict[str, int]) -> dict[int, int]:
    """Twice the coordinates of a Lorentz-algebra matrix in the twistor
    basis, keyed by basis index (`pos` maps names to indices): the p part
    is read off row 0, the so(2n) block decomposes by symmetry type. The
    expansion is exact only for matrices in the algebra."""
    twice: dict[int, int] = {}

    def put(nm: str, v: int) -> None:
        k = pos[nm]
        twice[k] = twice.get(k, 0) + v

    for (r, c), v in m.items():
        if r == 0:
            if c:
                put(f"P_{c}", 2 * v)
        elif c == 0:
            continue
        elif r <= n < c:                    # Y-type, top-right
            a, b = r, c - n
            if a == b:
                put(f"UY_{a}_{a}", 2 * v)
            elif a < b:
                put(f"UY_{a}_{b}", v)
                put(f"QY_{a}_{b}", v)
            else:
                put(f"UY_{b}_{a}", v)
                put(f"QY_{b}_{a}", -v)
        elif (r <= n) == (c <= n):          # X-type, diagonal blocks
            top = r <= n
            a, b = (r, c) if top else (r - n, c - n)
            if a < b:
                put(f"UX_{a}_{b}", v)
                put(f"QX_{a}_{b}", v if top else -v)
    return {k: v for k, v in twice.items() if v}


def matrix_twistor_algebra(model):
    """`model`'s so(1,2n) rebuilt from the hand-written matrices of
    `lorentz_matrices` and the hand-written expansion `_expand_in_basis`,
    neither of which reads `twistor._basis` or `homogeneous.matrix_bracket`'s
    inverse: every bracket a commutator, expanded back into the basis,
    checked by reconstruction, then `validate`d."""
    g, n = model.algebra, twistor_n(model)
    mats = lorentz_matrices(n)
    pos = {nm: i for i, nm in enumerate(g.basis_names)}
    table = {}
    for x, y in combinations(range(g.dim), 2):
        br = _mat_commutator(mats[x], mats[y])
        twice = _expand_in_basis(br, n, pos)
        recon: Sparse = {}
        for k, c in twice.items():
            for key, v in mats[k].items():
                recon[key] = recon.get(key, 0) + c * v
        assert ({k: v for k, v in recon.items() if v}
                == {k: 2 * v for k, v in br.items()}), (x, y)
        if twice:
            table[(x, y)] = {k: Fraction(c, 2) for k, c in twice.items()}
    return validate(g.name, g.basis_names, table)


# -- the definitional identity routes, as oracles for the int contractions


def definitional_tensor_identities(t: SymplecticTriple, n) -> dict:
    """`check_tensor_identities` by its definitions on every basis pair
    and triple, with `of_vectors`, `Matrix.apply` and `omega_of`: the
    route the library took before the checks were int contractions."""
    d, j = t.dim, t.j
    basis = Matrix.identity(d).entries
    anti = all(n.of_basis(a, b) == tuple(-x for x in n.of_basis(b, a))
               for a in range(d) for b in range(d))
    lin = all(n.of_vectors(j.apply(basis[a]), basis[b])
              == n.of_vectors(basis[a], j.apply(basis[b]))
              == tuple(-x for x in j.apply(n.of_basis(a, b)))
              for a in range(d) for b in range(d))
    cyc = all(omega_of(t, n.of_basis(a, b), basis[c])
              + omega_of(t, n.of_basis(b, c), basis[a])
              + omega_of(t, n.of_basis(c, a), basis[b]) == 0
              for a in range(d) for b in range(a + 1, d)
              for c in range(b + 1, d))
    return {"antisymmetry": anti, "anti_linearity": lin, "cyclic_omega": cyc}


def definitional_nabla_j_checks(t: SymplecticTriple, nj, n) -> dict:
    """`nabla_j_checks` by its definitions on every basis triple."""
    d, j = t.dim, t.j
    basis = Matrix.identity(d).entries
    pairing = all(2 * omega_of(t, nj.of_basis(a, b), basis[c])
                  == omega_of(t, n.of_basis(b, c), j.apply(basis[a]))
                  for a in range(d) for b in range(d) for c in range(d))
    anticomm = all(nj.of_vectors(j.apply(basis[a]), basis[b])
                   == tuple(-x for x in j.apply(nj.of_basis(a, b)))
                   for a in range(d) for b in range(d))
    return {"nabla_j_pairing": pairing,
            "nabla_j_anticommutation": anticomm}


def slab_norm_sq(n, t: SymplecticTriple) -> Fraction:
    """|N|^2 = sum_{k,l} G_kl <G^-1 N^k G^-1, N^l>_Frobenius over the d
    dense slabs (N^k)_ij = N(e_i, e_j)_k."""
    ginv, d = t.metric_inv, n.dim
    slabs = [Matrix.from_rows([[n.of_basis(i, j)[k] for j in range(d)]
                               for i in range(d)]) for k in range(d)]
    ys = [ginv @ s @ ginv for s in slabs]
    return sum((t.metric.entry(k, l)
                * sum(a * b for ya, na in zip(ys[k].entries, slabs[l].entries)
                      for a, b in zip(ya, na))
                for k in range(d) for l in range(d)), Fraction(0))


# -- the full dim^3 constraint system, with antisymmetry as rows, as an
#    oracle for the rows of `nspace` in antisymmetric coordinates


def _idx(dim: int, i: int, j: int, k: int) -> int:
    return (i * dim + j) * dim + k


def full_constraint_rows(dim: int, omega: Matrix, j: Matrix):
    """All constraint rows over the dim^3 unknowns t[i][j][k] (k-th
    coordinate of t(e_i, e_j)) in the flat order (i*dim + j)*dim + k,
    with int coefficients: J and omega enter scaled by the lcm of their
    own denominators. `nspace.build_constraint_rows` before it imposed
    antisymmetry by coordinates."""
    pairs = [(i, i) for i in range(dim)] + list(combinations(range(dim), 2))
    return full_rows(dim, omega, j, pairs, product(range(dim), repeat=3),
                     combinations(range(dim), 3))


def full_rows(dim: int, omega: Matrix, j: Matrix, pairs, linear, triples):
    """The constraint rows of the unordered pairs (i, jj), i <= jj, the
    anti-linearity keys (i, jj, k) and the triples i < jj < k given."""
    j_rows, j_cols = j.rows, j.transpose().rows
    om_cols = omega.transpose().rows
    # antisymmetry (and vanishing on the diagonal, where both keys agree)
    for i, jj in pairs:
        for k in range(dim):
            yield {_idx(dim, i, jj, k): 1, _idx(dim, jj, i, k): 1}
    # anti-linearity in the first slot: t(Je_i, e_j) = -J t(e_i, e_j);
    # the second slot follows from antisymmetry and this one.
    for i, jj, k in linear:
        row = {}
        for a, c in j_cols[i]:
            col = _idx(dim, a, jj, k)
            row[col] = row.get(col, 0) + c
        for b, c in j_rows[k]:
            col = _idx(dim, i, jj, b)
            row[col] = row.get(col, 0) + c
        row = {c: v for c, v in row.items() if v}
        if row:
            yield row
    # cyclic coupling against omega
    for i, jj, k in triples:
        row = {}
        for (a, b, c) in ((i, jj, k), (jj, k, i), (k, i, jj)):
            for m, w in om_cols[c]:
                col = _idx(dim, a, b, m)
                row[col] = row.get(col, 0) + w
        row = {c: v for c, v in row.items() if v}
        if row:
            yield row


def full_row_contains_tensor(t: SymplecticTriple, tensor) -> bool:
    """`contains_tensor` against every row of `full_constraint_rows`."""
    d = t.dim
    scaled = {_idx(d, i, j, k): p
              for (i, j), row in tensor.rows.items() for k, p in row}
    return all(sum(v * scaled.get(c, 0) for c, v in row.items()) == 0
               for row in full_constraint_rows(d, t.omega, t.j))


def rows_vanish_at_u(t: SymplecticTriple, tensor) -> bool:
    """`nspace.cyclic_rows_vanish` by every row of
    `build_constraint_rows`, evaluated in ints at the tensor's
    u_ab = t(e_a, e_b), a < b in F, column p * dim + k for coordinate k
    of the p-th pair: the route membership took before it took
    `Tensor3.cyclic_sums`."""
    dim, first, values = t.dim, t.first_slots, tensor.rows
    u = {p * dim + k: v for p, ab in enumerate(combinations(first, 2))
         for k, v in values.get(ab, ())}
    return not any(sum(v * u.get(c, 0) for c, v in row.items())
                   for row in build_constraint_rows(t.omega, t.j))


def _pair_bases(dim: int) -> list[list[int]]:
    """base[a][b] = p * dim for the p-th pair {a, b} of
    `combinations(range(dim), 2)`: column base[a][b] + k of `pair_rows`
    holds coordinate k of t(e_min, e_max). Unused where a == b."""
    base = [[0] * dim for _ in range(dim)]
    for p, (a, b) in enumerate(combinations(range(dim), 2)):
        base[a][b] = base[b][a] = p * dim
    return base


def pair_rows(dim: int, omega: Matrix, j: Matrix, linear, triples):
    """The constraint rows of the anti-linearity keys (i, jj, k) and the
    triples i < jj < k given, in the pair coordinates of `_pair_bases`
    (antisymmetry solved by the unknowns): a term of t(e_a, e_b) is
    dropped where a == b and negated where a > b. `nspace` evaluated
    these rows before it tested anti-linearity on the whole tensor."""
    base = _pair_bases(dim)
    j_rows, j_cols = j.rows, j.transpose().rows
    om_cols = omega.transpose().rows
    # anti-linearity in the first slot: B(e_i, e_j) = 0 for
    # B(x, y) = t(Jx, y) + J t(x, y)
    for i, jj, k in linear:
        row = {}
        for a, c in j_cols[i]:
            if a != jj:
                col = base[a][jj] + k
                row[col] = row.get(col, 0) + (c if a < jj else -c)
        if i != jj:
            b0 = base[i][jj]
            for b, c in j_rows[k]:
                col = b0 + b
                row[col] = row.get(col, 0) + (c if i < jj else -c)
        row = {c: v for c, v in row.items() if v}
        if row:
            yield row
    # cyclic coupling against omega; t(e_k, e_i) = -t(e_i, e_k)
    for i, jj, k in triples:
        row = {}
        for a, b, c, s in ((i, jj, k, 1), (jj, k, i, 1), (i, k, jj, -1)):
            b0 = base[a][b]
            for m, w in om_cols[c]:
                col = b0 + m
                row[col] = row.get(col, 0) + s * w
        row = {c: v for c, v in row.items() if v}
        if row:
            yield row


def pair_constraint_rows(dim: int, omega: Matrix, j: Matrix):
    """The anti-linearity rows at `first_slots` and every cyclic row, in
    the pair coordinates of `pair_rows` (antisymmetry solved by the
    unknowns, anti-linearity and the cyclic identity as rows): the system
    `nspace.build_constraint_rows` built before it solved anti-linearity
    in its unknowns too."""
    return pair_rows(dim, omega, j,
                     product(first_slots(j), range(dim), range(dim)),
                     combinations(range(dim), 3))


def pair_corank(dim: int, omega: Matrix, j: Matrix) -> int:
    """Corank of `pair_constraint_rows` over the dim * C(dim, 2) pair
    coordinates."""
    return (dim * (dim * (dim - 1) // 2)
            - len(echelon(pair_constraint_rows(dim, omega, j))))


# -- the per-triple identity scans, as oracles for the one-sweep checks


def touched_triples(g):
    """Each basis triple i < j < k with a stored bracket among its pairs,
    once, in order of first touch: stored pairs sorted, then the third
    index ascending."""
    seen = set()
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            if not bracket_basis(g, a, b):
                continue
            for c in range(g.dim):
                tri = tuple(sorted((a, b, c)))
                if c != a and c != b and tri not in seen:
                    seen.add(tri)
                    yield tri


def jacobi_residuals(g):
    """(triple, residual) for each touched triple in order, the residual
    [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] as {basis name:
    str} over its nonzero coordinates, summed in `Fraction`s from
    `bracket_basis`."""
    for i, j, k in touched_triples(g):
        acc: dict[int, Fraction] = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in bracket_basis(g, y, z).items():
                for r, q in bracket_basis(g, x, m).items():
                    acc[r] = acc.get(r, Fraction(0)) + c * q
        yield (i, j, k), {g.basis_names[r]: str(v)
                          for r, v in sorted(acc.items()) if v}


def definitional_jacobi(g) -> None:
    """Raise `JacobiViolation` on the first touched triple with a nonzero
    residual: the scan `validate` ran before its check became one sweep
    over the stored brackets."""
    for (i, j, k), resid in jacobi_residuals(g):
        if resid:
            raise JacobiViolation(i, j, k, resid, names=g.basis_names)


def cocycle_values(g, omega: Matrix):
    """(triple, d(omega)(e_i, e_j, e_k)) for each touched triple in order,
    -omega([e_i,e_j],e_k) + omega([e_i,e_k],e_j) - omega([e_j,e_k],e_i)
    in `Fraction`s from `bracket_basis` and the entries of omega."""
    def om(a, b, c):
        return sum((v * omega.entry(m, c)
                    for m, v in bracket_basis(g, a, b).items()), Fraction(0))

    for i, j, k in touched_triples(g):
        yield (i, j, k), -om(i, j, k) + om(i, k, j) - om(j, k, i)


def definitional_cocycle(g, omega: Matrix) -> None:
    """Raise `CocycleViolation` on the first touched triple where
    d(omega) is nonzero: the scan `build_triple` ran before."""
    for (i, j, k), val in cocycle_values(g, omega):
        if val:
            raise CocycleViolation(i, j, k, str(val), names=g.basis_names)


# -- the pairwise involutivity test, as an oracle for the int-table route


def pairwise_is_involutive(s: Subspace, g) -> bool:
    """[u, v] in s for every ordered pair of basis vectors of s, by
    `bracket_vec` and `pivot_contains`: `is_involutive`'s route before
    it bracketed the subspace on the int table."""
    return all(pivot_contains(s, g.bracket_vec(u, v))
               for u in s.basis.entries for v in s.basis.entries)


# -- the pointwise connection checks, as oracles for the whole-tensor ones


def pointwise_parallelism(t: SymplecticTriple, lc, n, rep):
    """(nabla N = 0, im N parallel, complement parallel) by the loops
    `covariant_derivative_n` ran before its checks were int combinations:
    (nabla N)(e_i; e_b, e_c) on every basis triple b < c with
    `of_vectors`, and Gamma(e_i, v) in s for every basis vector v of s
    by `pivot_contains`."""
    d = t.dim
    basis = Matrix.identity(d).entries

    def nabla_n_zero(i: int, b: int, c: int) -> bool:
        v = lc.of_vectors(basis[i], n.of_basis(b, c))
        w1 = n.of_vectors(lc.of_basis(i, b), basis[c])
        w2 = n.of_vectors(basis[b], lc.of_basis(i, c))
        return not any(x - y - z for x, y, z in zip(v, w1, w2))

    def parallel(s: Subspace) -> bool:
        return all(pivot_contains(s, lc.of_vectors(basis[i], v))
                   for i in range(d) for v in s.basis.entries)

    return (all(nabla_n_zero(i, b, c) for i in range(d) for b in range(d)
                for c in range(b + 1, d)),
            parallel(rep.image), parallel(rep.perp))


def pointwise_torsion_recovers_nijenhuis(t: SymplecticTriple, conn,
                                         n) -> bool:
    """T(Jx, Jy) - J T(Jx, y) - J T(x, Jy) - T(x, y) = -N(x, y) on every
    basis pair x < y, T the connection's torsion, by `of_vectors` and
    `Matrix.apply`: the loop `torsion_recovers_nijenhuis` ran before."""
    d, tor = t.dim, torsion(t, conn)
    basis = Matrix.identity(d).entries
    jb = [t.j.apply(e) for e in basis]
    for x in range(d):
        for y in range(x + 1, d):
            mixed = [p + q for p, q in zip(tor.of_vectors(jb[x], basis[y]),
                                           tor.of_vectors(basis[x], jb[y]))]
            lhs = [a - b - c for a, b, c in zip(tor.of_vectors(jb[x], jb[y]),
                                                t.j.apply(mixed),
                                                tor.of_basis(x, y))]
            if any(a != -b for a, b in zip(lhs, n.of_basis(x, y))):
                return False
    return True


# -- the nested-Fraction bracket table, as an oracle for the bracket tensor


class FractionTable:
    """Structure constants as {(i, j): {k: Fraction}} for i < j, nonzero
    coefficients only, read with `Fraction`'s own parser: the form
    `LieAlgebra` kept before its bracket tensor, and its evaluations."""

    def __init__(self, dim: int, brackets) -> None:
        self.dim = dim
        self.table = {}
        for ij, res in brackets.items():
            res = {k: Fraction(c) for k, c in res.items() if Fraction(c)}
            if res:
                self.table[ij] = res

    def bracket_vec(self, u, v) -> tuple:
        u, v = [Fraction(x) for x in u], [Fraction(x) for x in v]
        out = [Fraction(0)] * self.dim
        for (i, j), res in self.table.items():
            c = u[i] * v[j] - u[j] * v[i]
            for k, coeff in res.items():
                out[k] += c * coeff
        return tuple(out)

    def bracket_of_subspaces(self, a: Subspace, b: Subspace) -> Subspace:
        return Subspace.span(self.dim, [self.bracket_vec(u, v)
                                        for u in a.basis.entries
                                        for v in b.basis.entries])

    def derived_subalgebra(self) -> Subspace:
        vecs = []
        for res in self.table.values():
            v = [Fraction(0)] * self.dim
            for k, c in res.items():
                v[k] = c
            vecs.append(v)
        return Subspace.span(self.dim, vecs)

    def to_dict(self, name: str, basis) -> dict:
        """The algebra payload, brackets sorted by (i, j) and k."""
        return {"name": name, "dim": self.dim, "basis": list(basis),
                "brackets": [{"i": i, "j": j,
                              "coeffs": {str(k): str(c)
                                         for k, c in sorted(res.items())}}
                             for (i, j), res in sorted(self.table.items())]}


# -- API that only the tests call: pairings, bracket listings and the
#    closed-form twistor elements


def pair(u, w) -> Fraction:
    """sum_i u_i w_i over the terms with both factors nonzero; entries of
    u that are not exactly `Fraction` are coerced through `qof`."""
    u = (x if type(x) is Fraction else qof(x) for x in u)
    return sum((a * b for a, b in zip(u, w) if a and b), Fraction(0))


def omega_of(t: SymplecticTriple, u, v) -> Fraction:
    return pair(u, t.omega.apply(v))


def inner(t: SymplecticTriple, u, v) -> Fraction:
    return pair(u, t.metric.apply(v))


def j_apply(t: SymplecticTriple, v) -> tuple:
    return t.j.apply(v)


def vec_sub(u, v) -> tuple:
    return tuple(qof(a) - qof(b) for a, b in zip(u, v))


def bracket_basis(g, i: int, j: int) -> dict[int, Fraction]:
    """[e_i, e_j] as a sparse coordinate dict of `Fraction`s."""
    den = g.bracket.den
    return {k: Fraction(p, den) for k, p in g.bracket.rows.get((i, j), ())}


def name_of_vector(g, vec) -> str:
    """A coordinate vector as a combination of g's basis names: each
    entry read as `qof` reads it (`int_vector`), then `name_of_row`."""
    den, w = int_vector(vec)
    return g.name_of_row([(k, p) for k, p in enumerate(w) if p], den)


def nonzero_brackets(g) -> list:
    return [(i, j, bracket_basis(g, i, j)) for i, j in g.pairs()]


def omega_basis(model, x: int, y: int) -> Fraction:
    """The twistor model's orbit form omega(e_x, e_y) = phi([e_x, e_y])."""
    return sum((c * model.phi[k]
                for k, c in bracket_basis(model.algebra, x, y).items()),
               Fraction(0))


def p_element(model, u) -> tuple:
    """P(u) = sum u_i P_i in m-coordinates (u has length 2n)."""
    u = [qof(x) for x in u]
    n = twistor_n(model)
    if len(u) != 2 * n:
        raise ValueError("boost vector has wrong length")
    return (Fraction(0),) * (n * n - n) + tuple(u)


def q_element(model, d2n: Matrix) -> tuple:
    """m-coordinates of a q-matrix given as its 2n x 2n spacelike block
    [[X, Y], [Y, -X]] with X, Y skew; raises if the matrix is not in q."""
    m = {(r + 1, c + 1): p for r, row in enumerate(d2n.rows) for c, p in row}
    pos = {nm: i for i, nm in enumerate(model.algebra.basis_names)}
    n = twistor_n(model)
    twice = _expand_in_basis(m, n, pos)
    nu, nq = n * n, n * n - n
    if any(not nu <= k < nu + nq for k in twice):
        raise ValueError("matrix is not in the j0-anticommuting part")
    v = [Fraction(0)] * model.m_dim
    for k, c in twice.items():
        v[k - nu] = Fraction(c, 2 * d2n.den)
    return tuple(v)


def j0_matrix(n: int) -> Matrix:
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[n + i][i] = 1
        rows[i][n + i] = -1
    return Matrix.from_rows(rows)


def q_block_matrix(model, coords) -> Matrix:
    """The 2n x 2n spacelike block of a q-element given in m-coordinates."""
    n = twistor_n(model)
    mats = lorentz_matrices(n)
    rows = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for k, c in zip(model.m_indices, coords):
        if not c:
            continue
        for (r, col), v in mats[k].items():
            if r == 0 or col == 0:
                raise ValueError("element has a boost component")
            rows[r - 1][col - 1] += c * v
    return Matrix.from_rows(rows)
