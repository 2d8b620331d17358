"""The hyperbolic twistor model: so(1, 2n) with its two canonical almost
complex structures on the tangent space of SO(1,2n)/U(n).

Matrices act on R^{1,2n} with the Lorentz form G = diag(-1, I_2n); the
algebra is {A : A^t G + G A = 0}. With j0 the standard complex structure
on the spacelike R^{2n}, the algebra splits as

    so(1,2n) = u(n) (+) q (+) p

where u(n) is the centralizer of j'0 = diag(0, j0) inside so(2n), q the
j0-anticommuting part of so(2n), and p the boosts E_{0i} + E_{i0}. The
reductive tangent space is m = q (+) p. Basis order (m-coordinates,
which everything on m here uses, list q then p in the same order):

    u: UX_ab (a<b), UY_ab (a<=b)   with X skew / Y symmetric in
                                   [[X, Y], [-Y, X]]
    q: QX_ab (a<b), QY_ab (a<b)    with X, Y skew in [[X, Y], [Y, -X]]
    p: P_1 .. P_2n                 with P_i = E_{0i} + E_{i0}

The structure constants come from a closed form, with no matrix
product. With eta = G and M_ab = eta_b E_ab - eta_a E_ba, the basis above
is P_i = M_0i, UX/QX_ab = M_ab +- M_{n+a,n+b}, UY_ab = M_{a,n+b} +
M_{b,n+a} (UY_aa = M_{a,n+a}) and QY_ab = M_{a,n+b} - M_{b,n+a}, and

    [M_ab, M_cd] = eta_bc M_ad - eta_ac M_bd - eta_bd M_ac + eta_ad M_bc

is taken back through the inverse change of basis. The second route is
the matrices themselves: `_check_representation` checks in ints that
the basis matrices are linearly independent and that the table is their
commutator, so the basis -> matrix map is an injective homomorphism.
That implies Jacobi and pins the constants as so(1,2n)'s, with neither
the closed form nor the change of basis.

The invariant structures on m: both signs rotate the fibre directions the
same way (QX_ab -> QY_ab -> -QX_ab = half the adjoint action of j'0),
and differ on the horizontal part: J^{+-} P_i = +-P_{n+i}, i <= n.

The orbit 2-form is omega(A, B) = -Tr(j'0 [A, B]); its potential
phi = -Tr(j'0 . ) vanishes on q and p, so omega kills u(n) and restricts
to an invariant symplectic form on m (block diagonal across q and p).

The integrability tensor of either J is N(A, B) = [JA, JB] - J[JA, B]
- J[A, JB] - [A, B] with J extended by zero on u(n) and the values
projected back to m. For A, B in m this is the plain Nijenhuis formula
for J on m applied to the m-projected bracket [A, B]_m: J kills the
u-part of every bracket it is applied to, and maps m into m, so
projecting J[., .] to m changes nothing, and projecting [JA, JB] and
[A, B] gives [JA, JB]_m and [A, B]_m. So `twistor_nijenhuis` is the
shared `nijenhuis_of` on the model's m-projected bracket tensor, in
m-coordinates. The plus structure is integrable; the minus one has image
all of m once n >= 2, with its p x p values filling the fibre
directions q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Any, Literal, Optional

from .errors import InternalInvariantViolation
from .lie import LieAlgebra
from .linalg import IntRow, Matrix, Subspace, _canon, echelon
from .nijenhuis import Tensor3, image_distribution, nijenhuis_of
from .record import Record

Sign = Literal["+", "-"]


class TwistorModel(Record):
    """so(1, 2n) in the basis order above, with phi = -Tr(j'0 .) on it.
    Indices 0 .. n^2 - 1 are u, and m = q (+) p is the rest: n^2 - n
    fibre directions q, then the 2n boosts p. m-coordinate i is basis
    index n^2 + i."""
    n: int
    algebra: LieAlgebra
    phi: tuple[int, ...]

    @property
    def m_indices(self) -> range:
        return range(self.n * self.n, self.algebra.dim)

    @property
    def m_dim(self) -> int:
        return self.n * self.n + self.n

    @cached_property
    def kks_m(self) -> Matrix:
        """omega on m, in m-coordinates: D omega(e_x, e_y) = D phi([e_x,
        e_y]) summed over each stored m x m row, D the bracket's
        denominator."""
        big, table = self.algebra.bracket.den, self.algebra.bracket.rows
        nu = self.n * self.n
        rows: list[list[tuple[int, int]]] = [[] for _ in self.m_indices]
        for (x, y), row in table.items():
            if x >= nu and y >= nu:
                v = sum(p * self.phi[k] for k, p in row)
                if v:
                    rows[x - nu].append((y - nu, v))
        return _canon(big, tuple(tuple(sorted(r)) for r in rows), len(rows))

    @cached_property
    def bracket_m(self) -> Tensor3:
        """(A, B) -> [A, B]_m on m, in m-coordinates: the stored rows with
        their u-components dropped, over the least denominator left."""
        big, table = self.algebra.bracket.den, self.algebra.bracket.rows
        nu = self.n * self.n
        rows = {}
        for (a, b), row in table.items():
            if a >= nu and b >= nu:
                r = tuple([(k - nu, p) for k, p in row if k >= nu])
                if r:
                    rows[(a - nu, b - nu)] = r
        g = gcd(big, *(p for r in rows.values() for _, p in r))
        if g > 1:
            rows = {ab: tuple([(k, p // g) for k, p in r])
                    for ab, r in rows.items()}
        return Tensor3(self.m_dim, big // g, rows)

    @cached_property
    def j_m(self) -> dict[Sign, Matrix]:
        """J^{+-} on m, in m-coordinates: QX_ab -> QY_ab -> -QX_ab and
        P_i -> +-P_{n+i} -> -P_i, i <= n; one entry per row."""
        n, d, nq = self.n, self.m_dim, self.n * self.n - self.n
        half = nq // 2
        out = {}
        for sign, s in (("+", 1), ("-", -1)):
            rows: list[IntRow] = [()] * d
            for t in range(half):
                rows[t] = ((half + t, -1),)
                rows[half + t] = ((t, 1),)
            for i in range(nq, nq + n):
                rows[i] = ((i + n, -s),)
                rows[i + n] = ((i, s),)
            out[sign] = Matrix(1, tuple(rows), d)
        return out


Terms = list[tuple[int, int, int]]  # (c, d, s), c < d: the sum of s M_cd


def _basis(n: int) -> list[tuple[str, Terms]]:
    """The basis in the order above, each element as its terms in the
    Lorentz generators M_cd, indices 0..2n with 0 timelike."""
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    out = [(f"UX_{a}_{b}", [(a, b, 1), (n + a, n + b, 1)]) for a, b in pairs]
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            out.append((f"UY_{a}_{b}", [(a, n + a, 1)] if a == b else
                        [(a, n + b, 1), (b, n + a, 1)]))
    out += [(f"QX_{a}_{b}", [(a, b, 1), (n + a, n + b, -1)]) for a, b in pairs]
    out += [(f"QY_{a}_{b}", [(a, n + b, 1), (b, n + a, -1)]) for a, b in pairs]
    out += [(f"P_{i}", [(0, i, 1)]) for i in range(1, 2 * n + 1)]
    return out


def _add(acc: dict[tuple[int, int], int], c: int, d: int, v: int) -> None:
    """acc += v M_cd, with M_dc = -M_cd and M_cc = 0."""
    if c < d:
        acc[(c, d)] = acc.get((c, d), 0) + v
    elif c > d:
        acc[(d, c)] = acc.get((d, c), 0) - v


def _closed_form_bracket(n: int, basis: list[tuple[str, Terms]]) -> Tensor3:
    """so(1, 2n)'s bracket tensor on `basis`, from the closed form for
    [M_ab, M_cd] (module docstring) taken back through the inverse change
    of basis. Each M_cd lies in one basis element (P_i, UY_aa) or in two
    whose 2 x 2 block [[1, 1], [1, -1]] is orthogonal with square norm 2,
    so twice the inverse is 2 / (their number) times the transpose, and
    the values are ints over 2. Only elements that share a Lorentz index
    are bracketed; the others commute."""
    eta = [-1] + [1] * (2 * n)
    users: dict[tuple[int, int], list[tuple[int, int]]] = {}
    near: list[set[int]] = [set() for _ in eta]  # index -> elements on it
    for x, (_, terms) in enumerate(basis):
        for c, d, s in terms:
            users.setdefault((c, d), []).append((x, s))
            near[c].add(x)
            near[d].add(x)
    twice = {cd: [(x, 2 * s // len(us)) for x, s in us]
             for cd, us in users.items()}
    rows = {}
    for x, (_, xs) in enumerate(basis):
        for y in sorted({y for a, b, _ in xs for y in near[a] | near[b]
                         if y > x}):
            acc: dict[tuple[int, int], int] = {}
            for a, b, s in xs:
                for c, d, t in basis[y][1]:
                    st = s * t
                    if b == c:
                        _add(acc, a, d, eta[b] * st)
                    if a == c:
                        _add(acc, b, d, -eta[a] * st)
                    if b == d:
                        _add(acc, a, c, -eta[b] * st)
                    if a == d:
                        _add(acc, b, c, eta[a] * st)
            out: dict[int, int] = {}
            for cd, v in acc.items():
                if v:
                    for k, w in twice[cd]:
                        out[k] = out.get(k, 0) + v * w
            row = tuple(sorted((k, v) for k, v in out.items() if v))
            if row:
                rows[(x, y)] = row
                rows[(y, x)] = tuple((k, -v) for k, v in row)
    if any(v % 2 for row in rows.values() for _, v in row):
        return Tensor3(len(basis), 2, rows)
    return Tensor3(len(basis), 1, {ij: tuple((k, v // 2) for k, v in row)
                                   for ij, row in rows.items()})


def _check_representation(g: LieAlgebra, n: int,
                          basis: list[tuple[str, Terms]]) -> None:
    """Check in ints that g's bracket is the commutator of its Lorentz
    matrices rho(e_x) = sum of s M_cd over the terms of e_x: the rho(e_x)
    are linearly independent (`echelon` rank = dim), the table is
    antisymmetric, and D [rho(e_x), rho(e_y)] = sum of p rho(e_k) over the
    stored (k, p) of (x, y) for every x < y that share a Lorentz index or
    are stored (elements that share none commute), in (x, y) order, each
    residual summed only at the entries it touches. So rho is an injective
    homomorphism: the bracket satisfies Jacobi, and its constants are
    so(1, 2n)'s in this basis. A failure names the basis pair and the
    residual: [e_x, e_y] + [e_y, e_x] in the basis, or the commutator
    equation's over D in the M_cd."""
    t, names, dim = g.bracket, g.basis_names, g.dim
    table, big = t.rows, t.den
    eta = [-1] + [1] * (2 * n)
    size = len(eta)
    rho: list[dict[int, list[tuple[int, int]]]] = []  # i -> (j, entry)
    for _, terms in basis:
        rows: dict[int, list[tuple[int, int]]] = {}
        for c, d, s in terms:
            rows.setdefault(c, []).append((d, s * eta[d]))
            rows.setdefault(d, []).append((c, -s * eta[c]))
        rho.append(rows)
    rank = len(echelon({i * size + j: v for i, r in m.items() for j, v in r}
                       for m in rho))
    if rank != dim:
        raise InternalInvariantViolation(
            f"{g.name} basis matrices are linearly dependent: rank {rank} "
            f"for dim {dim}")
    flip = (-t.swapped()).rows
    if table != flip:
        x, y = min(tuple(sorted(xy)) for xy in table.keys() | flip.keys()
                   if table.get(xy) != flip.get(xy))
        acc: dict[int, int] = {}
        for k, p in table.get((x, y), ()) + table.get((y, x), ()):
            acc[k] = acc.get(k, 0) + p
        resid = {names[k]: str(Fraction(v, big))
                 for k, v in sorted(acc.items()) if v}
        raise InternalInvariantViolation(
            f"{g.name} bracket is not antisymmetric on basis pair "
            f"({names[x]}, {names[y]}): residual {resid}")
    near: list[set[int]] = [set() for _ in eta]  # index -> elements on it
    for x, m in enumerate(rho):
        for i in m:
            near[i].add(x)
    pairs = {(x, y) for x, m in enumerate(rho) for i in m for y in near[i]
             if x < y}
    pairs.update(xy for xy in table if xy[0] < xy[1])
    for x, y in sorted(pairs):
        res: dict[int, int] = {}  # entry (i, j) at i * size + j
        for a, b, f in ((x, y, big), (y, x, -big)):
            right = rho[b]
            for i, r in rho[a].items():
                for j, v in r:
                    for k, w in right.get(j, ()):
                        ik = i * size + k
                        res[ik] = res.get(ik, 0) + f * v * w
        for k, p in table.get((x, y), ()):
            for i, r in rho[k].items():
                for j, v in r:
                    ij = i * size + j
                    res[ij] = res.get(ij, 0) - p * v
        if any(res.values()):
            resid = {f"M_{c}_{d}": str(Fraction(res[c * size + d] * eta[d],
                                                big))
                     for c in range(size) for d in range(c + 1, size)
                     if res.get(c * size + d)}
            raise InternalInvariantViolation(
                f"{g.name} bracket is not the commutator of its Lorentz "
                f"matrices on basis pair ({names[x]}, {names[y]}): "
                f"residual {resid}")


def build_twistor_model(n: int) -> TwistorModel:
    """Construct so(1, 2n) with its orbit potential phi. The structure
    constants come from the closed form (`_closed_form_bracket`); the
    second route to them is the bracket of so(1, 2n)'s own matrices
    (`_check_representation`), which implies Jacobi."""
    if n < 1:
        raise ValueError("n >= 1 required")
    basis = _basis(n)
    names = tuple(nm for nm, _ in basis)
    dim = len(names)
    assert dim == n * (2 * n + 1)  # (2n+1)(2n)/2
    g = LieAlgebra(f"so(1,{2*n})", names, _closed_form_bracket(n, basis))
    _check_representation(g, n, basis)
    # phi(e_x) = -Tr(j'0 rho(e_x)), where Tr(j'0 M_cd) = 2 if d = n + c
    # with 1 <= c <= n, and 0 otherwise: only the UY diagonal has phi
    phi = tuple(-2 * sum(s for c, d, s in terms if 1 <= c <= n and d == n + c)
                for _, terms in basis)
    return TwistorModel(n, g, phi)


# -- the integrability tensor on m --------------------------------------


def twistor_nijenhuis(model: TwistorModel, sign: Sign) -> Tensor3:
    """N of J^{+-} on m, in m-coordinates (see the module docstring)."""
    return nijenhuis_of(model.bracket_m, model.j_m[sign])


def p_pairs_span_q(model: TwistorModel, n: Tensor3) -> bool:
    """Do the p x p values of N (as `twistor_nijenhuis` returned it) fill
    the fibre directions q exactly? Every such value must lie in the
    first nq coordinates, and together they must span nq dimensions."""
    nq = model.n * model.n - model.n
    vecs = []
    for (a, b), row in n.rows.items():
        if nq <= a < b:
            if any(k >= nq for k, _ in row):
                return False  # a p x p value escaping q refutes the claim
            vecs.append(n.numerators(a, b))
    return Subspace.span(model.m_dim, vecs).dim == nq


def kks_j_invariant(model: TwistorModel, sign: Sign) -> bool:
    """omega(J A, J B) = omega(A, B) on all m-basis pairs, that is
    J^T W J = W for the m-block W of omega."""
    jm, w = model.j_m[sign], model.kks_m
    return jm.transpose() @ w @ jm == w


def positivity_report(model: TwistorModel
                      ) -> tuple[bool, bool, Optional[list[str]]]:
    """Definiteness of g_{+-}(A, B) = omega(A, J_{+-} B) on m, as
    (minus_positive, plus_positive, plus_witness).

    The minus form is checked positive definite by Sylvester minors. For
    the plus form, which is not, the witness is [name, value] for the
    first m-basis vector with a non-positive diagonal entry, the value as
    rational text. The two forms agree on q and differ by sign on p, so
    for every n the witness is a boost (P_1)."""
    kks = model.kks_m
    grams = {}
    for sign in ("+", "-"):
        gram = kks @ model.j_m[sign]
        if not gram.is_symmetric():
            raise InternalInvariantViolation(
                f"omega(., J{sign} .) not symmetric on m")
        grams[sign] = gram
    ok_minus, _, _ = grams["-"].leading_minors_positive()
    ok_plus, _, _ = grams["+"].leading_minors_positive()
    witness = None
    if not ok_plus:
        for i, k in enumerate(model.m_indices):
            v = grams["+"].entry(i, i)
            if v <= 0:
                witness = [model.algebra.basis_names[k], str(v)]
                break
    return ok_minus, ok_plus, witness


# -- claim bundle --------------------------------------------------------


def twistor_claims(n: int) -> dict[str, Any]:
    """The `twistor --report json` entry for n, without `checks_pass`:
    each so(1, 2n) claim once, under the key that output prints."""
    model = build_twistor_model(n)
    nplus = twistor_nijenhuis(model, "+")
    nminus = twistor_nijenhuis(model, "-")
    img = image_distribution(nminus)
    minus_positive, plus_positive, witness = positivity_report(model)
    return {
        "n": n,
        "dim": model.algebra.dim,
        "m_dim": model.m_dim,
        "plus_integrable": nplus.is_zero(),
        "minus_image_dim": img.dim,
        "p_pairs_fill_q": p_pairs_span_q(model, nminus),
        "kks_invariant_plus": kks_j_invariant(model, "+"),
        "kks_invariant_minus": kks_j_invariant(model, "-"),
        "minus_positive": minus_positive,
        "plus_positive": plus_positive,
        "plus_witness": witness,
    }
