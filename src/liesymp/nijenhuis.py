"""The Nijenhuis tensor of an invariant almost complex structure and the
distributions it generates.

For left invariant J on a Lie group, everything reduces to the algebra:

    N(x, y) = [Jx, Jy] - J[Jx, y] - J[x, Jy] - [x, y].

N vanishes iff J is integrable (a complex structure). When it does not
vanish, its image and kernel cut out J-stable distributions whose
involutivity / dimensions classify the geometry. `classify` computes the
full report and cross-checks every identity the tensor must satisfy;
any mismatch raises InternalInvariantViolation rather than returning a
silently wrong answer.

`Tensor3` stores a vector valued 2-tensor as Python ints over one common
denominator and lists only the nonzero coordinates of each nonzero
T(e_i, e_j), like `Matrix` and `LieAlgebra`'s int bracket table. N,
the connections, their torsion, nabla J and the curvature operators
are built on it: products with J or a form, slot swaps and
rational combinations sum ints over the nonzeros, and a value becomes a
`Fraction` only where it is read (`of_basis`, `of_vectors`).

The identity checks and |N|^2 are int contractions of whole tensors, not
loops over basis pairs and triples. With omega(u, v) = u^T omega v,
omega(T(x, y), e_z) is the z-th value of
`T.map_values(omega^T)`, and T(Jx, y) is `T.map_first(J)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from .errors import InternalInvariantViolation
from .lie import LieAlgebra
from .linalg import (Matrix, Subspace, complement, int_vector, nullspace_of,
                     qof)
from .symp import SymplecticTriple


IntRows = dict[tuple[int, int], tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class Tensor3:
    """Vector valued 2-tensor on the basis, stored sparsely in ints:
    T(e_i, e_j) = sum of p / den e_k over the (k, p) in rows[(i, j)].
    Only nonzero values are listed, in ascending k, and den is the least
    common denominator of all of them, so equal tensors are equal
    objects. A connection is a labelled instance, Gamma(e_i, e_j) =
    T(e_i, e_j)."""

    dim: int
    den: int
    rows: IntRows
    label: str = ""

    @staticmethod
    def from_ints(dim: int, den: int, num: dict[tuple[int, int], list[int]],
                  label: str = "") -> "Tensor3":
        """The tensor with T(e_i, e_j)_k = num[(i, j)][k] / den (den > 0);
        zero values and any factor common to den and every numerator
        are dropped."""
        g = den
        for v in num.values():
            g = gcd(g, *v)
        rows = {}
        for ij, v in num.items():
            row = tuple((k, p // g) for k, p in enumerate(v) if p)
            if row:
                rows[ij] = row
        return Tensor3(dim, den // g if rows else 1, rows, label)

    @staticmethod
    def from_dense(dim: int, vals: Sequence[Sequence[Sequence]],
                   label: str = "") -> "Tensor3":
        """The tensor with T(e_i, e_j) = vals[i][j], any exact numbers."""
        num = {(i, j): [qof(x) for x in v]
               for i, row in enumerate(vals) for j, v in enumerate(row)}
        den = lcm(*(x.denominator for v in num.values() for x in v))
        return Tensor3.from_ints(dim, den, {
            ij: [x.numerator * (den // x.denominator) for x in v]
            for ij, v in num.items()}, label)

    @cached_property
    def _values(self) -> dict[tuple[int, int], tuple[Fraction, ...]]:
        out = {}
        for ij, row in self.rows.items():
            v = [Fraction(0)] * self.dim
            for k, p in row:
                v[k] = Fraction(p, self.den)
            out[ij] = tuple(v)
        return out

    def numerators(self, i: int, j: int) -> list[int]:
        """den * T(e_i, e_j) as a dense list of ints."""
        v = [0] * self.dim
        for k, p in self.rows.get((i, j), ()):
            v[k] = p
        return v

    def of_basis(self, i: int, j: int) -> tuple[Fraction, ...]:
        v = self._values.get((i, j))
        return v if v is not None else (Fraction(0),) * self.dim

    def of_vectors(self, u: Sequence, v: Sequence) -> tuple[Fraction, ...]:
        du, us = int_vector(u)
        dv, vs = int_vector(v)
        vs = [(j, b) for j, b in enumerate(vs) if b]
        acc = [0] * self.dim
        for i, a in enumerate(us):
            if not a:
                continue
            for j, b in vs:
                row = self.rows.get((i, j))
                if row:
                    c = a * b
                    for k, p in row:
                        acc[k] += c * p
        den = self.den * du * dv
        z = Fraction(0)
        return tuple([Fraction(x, den) if x else z for x in acc])

    # a connection's covariant derivative of invariant fields
    nabla = of_vectors

    def is_zero(self) -> bool:
        return not self.rows

    def endo(self, i: int) -> Matrix:
        """T(e_i, .) as a matrix (columns are images)."""
        return Matrix.from_ints(self.den, list(zip(
            *(self.numerators(i, b) for b in range(self.dim)))))

    def swapped(self) -> "Tensor3":
        """(x, y) -> T(y, x)."""
        return Tensor3(self.dim, self.den,
                       {(j, i): r for (i, j), r in self.rows.items()},
                       self.label)

    def map_values(self, m: Matrix) -> "Tensor3":
        """(x, y) -> m T(x, y)."""
        cols = m.transpose().rows
        num = {}
        for ij, row in self.rows.items():
            v = num[ij] = [0] * self.dim
            for k, p in row:
                for r, q in cols[k]:
                    v[r] += q * p
        return Tensor3.from_ints(self.dim, self.den * m.den, num, self.label)

    def map_second(self, m: Matrix) -> "Tensor3":
        """(x, y) -> T(x, m y)."""
        num: dict[tuple[int, int], list[int]] = {}
        for (i, l), row in self.rows.items():
            for j, q in m.rows[l]:
                v = num.setdefault((i, j), [0] * self.dim)
                for k, p in row:
                    v[k] += q * p
        return Tensor3.from_ints(self.dim, self.den * m.den, num, self.label)

    def map_first(self, m: Matrix) -> "Tensor3":
        """(x, y) -> T(m x, y)."""
        return self.swapped().map_second(m).swapped()


def combine(terms: Sequence[tuple[object, Tensor3]],
            label: str = "") -> Tensor3:
    """The sum of c * T over the (c, T) in terms, c any exact number."""
    dim = terms[0][1].dim
    terms = [(qof(c), t) for c, t in terms]
    den = lcm(*(c.denominator * t.den for c, t in terms))
    num: dict[tuple[int, int], list[int]] = {}
    for c, t in terms:
        f = c.numerator * (den // (c.denominator * t.den))
        for ij, row in t.rows.items():
            v = num.setdefault(ij, [0] * dim)
            for k, p in row:
                v[k] += f * p
    return Tensor3.from_ints(dim, den, num, label)


def brackets(g: LieAlgebra) -> Tensor3:
    """(x, y) -> [x, y], read from the algebra's int table."""
    big, table = g._int_table
    return Tensor3(g.dim, big,
                   {ij: tuple(sorted(r)) for ij, r in table.items()})


def nijenhuis_tensor(t: SymplecticTriple) -> Tensor3:
    """N of the triple's j, from the algebra's bracket tensor."""
    return nijenhuis_of(brackets(t.algebra), t.j)


def nijenhuis_of(c: Tensor3, j: Matrix) -> Tensor3:
    """N(x, y) = [Jx, Jy] - J[Jx, y] - J[x, Jy] - [x, y] for the bracket
    tensor C and J = j: with A(x, y) = [x, Jy], [Jx, Jy] is A with J
    also put into the first slot, and J[Jx, y] = -J A(y, x)."""
    a = c.map_second(j)
    ja = a.map_values(j)
    both = a.map_first(j)
    return combine([(1, both), (1, ja.swapped()), (-1, ja), (-1, c)])


def image_distribution(n: Tensor3) -> Subspace:
    """Span of the nonzero values N(e_i, e_j), i < j."""
    return Subspace.span(n.dim, [n.numerators(i, j) for i, j in n.rows
                                 if i < j])


def kernel_distribution(n: Tensor3) -> Subspace:
    """{x : N(x, .) = 0}: the kernel of the rows (j, k) with entries
    N(e_i, e_j)_k in column i, read straight off N's int values."""
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for (i, j), row in n.rows.items():
        for k, p in row:
            rows.setdefault((j, k), {})[i] = p
    return Subspace.span(n.dim, nullspace_of(rows.values(), n.dim))


def is_involutive(s: Subspace, g) -> bool:
    """[s, s] lies in s, with [s, s] summed on g's int table."""
    return s.contains_subspace(g.bracket_of_subspaces(s, s))


def norm_sq(n: Tensor3, t: SymplecticTriple) -> Fraction:
    """|N|^2 = sum over basis of G^{ia} G^{jb} G_{kc} N^k_{ij} N^c_{ab},
    i.e. the full metric contraction over ordered index pairs.

    Summed in ints as sum_{a,b} <R(e_a, e_b), G N(e_a, e_b)>, with R = N
    with G^-1 put into both slots; one `Fraction` is made at the end.
    """
    ginv = t.metric_inv
    r = n.map_second(ginv).map_first(ginv)
    gn = n.map_values(t.metric)
    total = 0
    for ab, row in gn.rows.items():
        other = dict(r.rows.get(ab, ()))
        total += sum(p * other.get(k, 0) for k, p in row)
    return Fraction(total, r.den * gn.den)


@dataclass(frozen=True)
class DistributionReport:
    integrable: bool
    norm_sq: Fraction
    image: Subspace
    image_involutive: bool
    perp: Subspace
    perp_involutive: bool
    kernel: Subspace


def _j_stable(s: Subspace, j: Matrix) -> bool:
    return all(s.contains(j.apply(v)) for v in s.vectors())


def classify(t: SymplecticTriple, n: Tensor3) -> DistributionReport:
    """Full image/kernel analysis of the Nijenhuis tensor, with built in
    consistency checks (raise InternalInvariantViolation on any failure):

      * orthogonal complement w.r.t. the metric and symplectic complement
        w.r.t. omega agree (the image is J-stable);
      * image and perp are J-stable and even dimensional;
      * the kernel sits inside the metric complement of the image (a
        consequence of the cyclic omega identity);
      * integrable <=> |N|^2 = 0 <=> image = 0.

    n is `nijenhuis_tensor(t)`.
    """
    g = t.algebra
    im = image_distribution(n)
    ker = kernel_distribution(n)
    perp_g = complement(im, t.metric)
    perp_om = complement(im, t.omega)
    if perp_g != perp_om:
        raise InternalInvariantViolation(
            "metric and symplectic complements of im N disagree")
    if not _j_stable(im, t.j) or not _j_stable(perp_g, t.j):
        raise InternalInvariantViolation("im N or its complement not J-stable")
    if im.dim % 2 or perp_g.dim % 2:
        raise InternalInvariantViolation("odd dimensional N-distribution")
    if not perp_g.contains_subspace(ker):
        raise InternalInvariantViolation(
            "ker N not inside the metric complement of im N")
    nsq = norm_sq(n, t)
    zero = n.is_zero()
    if zero != (nsq == 0) or zero != (im.dim == 0):
        raise InternalInvariantViolation(
            "integrability, |N|^2 and im N disagree")
    if t.dim == 4 and im.dim not in (0, 2):
        raise InternalInvariantViolation(
            f"dim-4 image dimension {im.dim} out of range")
    return DistributionReport(
        integrable=zero,
        norm_sq=nsq,
        image=im,
        image_involutive=is_involutive(im, g),
        perp=perp_g,
        perp_involutive=is_involutive(perp_g, g),
        kernel=ker,
    )


def check_tensor_identities(t: SymplecticTriple,
                            n: Tensor3) -> dict[str, bool]:
    """Pointwise identities of the Nijenhuis tensor, verified on all basis
    pairs/triples. Returns {identity name: bool}; callers assert all true.

      antisymmetry      N(x, y) = -N(y, x)
      anti_linearity    N(Jx, y) = -J N(x, y)  (and the y slot likewise)
      cyclic_omega      sum_cyc omega(N(x, y), z) = 0

    Each is a whole-tensor identity in ints; omega(N(x, y), e_z) is the
    z-th value of N lowered by omega^T (omega(u, v) = u^T omega v).
    """
    j = t.j
    jn = n.map_values(j)
    anti = combine([(1, n), (1, n.swapped())]).is_zero()
    lin = (combine([(1, n.map_first(j)), (1, jn)]).is_zero()
           and combine([(1, n.map_second(j)), (1, jn)]).is_zero())
    # add each lowered value L(x, y)_z into the x < y < z triple of which
    # (x, y, z) is a cyclic rotation
    sums: dict[tuple[int, int, int], int] = {}
    for (x, y), row in n.map_values(t.omega.transpose()).rows.items():
        for z, p in row:
            if x < y < z or y < z < x or z < x < y:
                key = tuple(sorted((x, y, z)))
                sums[key] = sums.get(key, 0) + p
    cyc = not any(sums.values())
    return {"antisymmetry": anti, "anti_linearity": lin, "cyclic_omega": cyc}
