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

The structure constants are read off the matrices, certified by
reconstruction. With eta = G and M_ab = eta_b E_ab - eta_a E_ba, the
basis above is P_i = M_0i, UX/QX_ab = M_ab +- M_{n+a,n+b}, UY_ab =
M_{a,n+b} + M_{b,n+a} (UY_aa = M_{a,n+a}) and QY_ab = M_{a,n+b} -
M_{b,n+a}. `_lorentz_bracket` takes each commutator of two basis
matrices in ints, reads it in the M_cd off its entries above the
diagonal (the entry at (c, d) is eta_d times the M_cd coefficient), and
takes that back through the inverse change of basis; the result must
give back the commutator at every entry. With the basis matrices
linearly independent, the basis -> matrix map is an injective
homomorphism: that implies Jacobi and pins the constants as so(1,2n)'s.

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
from typing import Any, Literal, Optional

from .errors import InternalInvariantViolation
from .lie import LieAlgebra, antisymmetric
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
        ratios = {}
        for (a, b), row in table.items():
            if nu <= a < b:
                r = [(k - nu, (p, big)) for k, p in row if k >= nu]
                if r:
                    ratios[(a - nu, b - nu)] = r
        return antisymmetric(self.m_dim, ratios)

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


def _lorentz_bracket(name: str, n: int, basis: list[tuple[str, Terms]],
                     names: tuple[str, ...]) -> Tensor3:
    """so(1, 2n)'s bracket tensor on `basis`, read off the Lorentz
    matrices rho(e_x) = sum of s M_cd over the terms of e_x and certified
    in the same pass, in ints. The rho(e_x) must be linearly independent
    (`echelon` rank = dim). For every x < y that share a Lorentz index, in
    (x, y) order (elements that share none commute), C = [rho(e_x),
    rho(e_y)] is expanded through `twice`, the inverse change of basis,
    and the result must give back 2C as a sum of the rho(e_k) at every
    entry. So rho is an injective homomorphism onto so(1, 2n): the table
    holds its structure constants and satisfies Jacobi. A failure names
    the basis pair and the residual, 2C minus its expansion over 2, in the
    M_cd."""
    eta = [-1] + [1] * (2 * n)
    size, dim = len(eta), len(basis)
    rho: list[dict[int, list[tuple[int, int]]]] = []  # i -> (j, entry)
    users: dict[tuple[int, int], list[tuple[int, int]]] = {}
    near: list[set[int]] = [set() for _ in eta]  # index -> elements on it
    for x, (_, terms) in enumerate(basis):
        rows: dict[int, list[tuple[int, int]]] = {}
        for c, d, s in terms:
            rows.setdefault(c, []).append((d, s * eta[d]))
            rows.setdefault(d, []).append((c, -s * eta[c]))
            users.setdefault((c, d), []).append((x, s))
            near[c].add(x)
            near[d].add(x)
        rho.append(rows)
    rank = len(echelon({i * size + j: v for i, r in m.items() for j, v in r}
                       for m in rho))
    if rank != dim:
        raise InternalInvariantViolation(
            f"{name} basis matrices are linearly dependent: rank {rank} "
            f"for dim {dim}")
    # M_cd lies in one basis element (P_i, UY_aa) or in two whose 2 x 2
    # block [[1, 1], [1, -1]] is orthogonal with square norm 2, so twice
    # the inverse is 2 / (their number) times the transpose, in ints
    twice = {cd: [(x, 2 * s // len(us)) for x, s in us]
             for cd, us in users.items()}
    ratios = {}
    for x, left in enumerate(rho):
        for y in sorted({y for i in left for y in near[i] if y > x}):
            com: dict[int, int] = {}  # C at entry (i, j) = i * size + j
            for a, b, f in ((left, rho[y], 1), (rho[y], left, -1)):
                for i, r in a.items():
                    for j, v in r:
                        for k, w in b.get(j, ()):
                            ik = i * size + k
                            com[ik] = com.get(ik, 0) + f * v * w
            out: dict[int, int] = {}  # twice C in the basis
            for ij, v in com.items():
                c, d = divmod(ij, size)
                if c < d and v:
                    for k, w in twice.get((c, d), ()):
                        out[k] = out.get(k, 0) + v * eta[d] * w
            res = {ij: 2 * v for ij, v in com.items()}
            for k, p in out.items():
                for i, r in rho[k].items():
                    for j, v in r:
                        ij = i * size + j
                        res[ij] = res.get(ij, 0) - p * v
            if any(res.values()):
                resid = {f"M_{c}_{d}": str(Fraction(res[c * size + d]
                                                    * eta[d], 2))
                         for c in range(size) for d in range(c + 1, size)
                         if res.get(c * size + d)}
                raise InternalInvariantViolation(
                    f"{name} bracket is not the commutator of its Lorentz "
                    f"matrices on basis pair ({names[x]}, {names[y]}): "
                    f"residual {resid}")
            row = [(k, (p, 2)) for k, p in out.items() if p]
            if row:
                ratios[(x, y)] = row
    return antisymmetric(dim, ratios)


def build_twistor_model(n: int) -> TwistorModel:
    """Construct so(1, 2n) with its orbit potential phi. The structure
    constants are read off so(1, 2n)'s own matrices and certified in the
    same pass (`_lorentz_bracket`)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    basis = _basis(n)
    names = tuple(nm for nm, _ in basis)
    dim = len(names)
    assert dim == n * (2 * n + 1)  # (2n+1)(2n)/2
    name = f"so(1,{2*n})"
    g = LieAlgebra(name, names, _lorentz_bracket(name, n, basis, names))
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
