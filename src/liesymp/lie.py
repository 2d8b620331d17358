"""Finite dimensional Lie algebras over Q, given by structure constants.

A `LieAlgebra` holds its structure constants in one form, the bracket
tensor `bracket` (a `Tensor3`): [e_i, e_j] lists the nonzero (k, p) with
coefficient p / D of e_k, D the least common denominator of all of them,
for i < j and i > j alike; [e_i, e_i] is never stored. The tensor is
canonical, so `==` and `hash` compare the constants, and tables read over
different denominators ("2/4" and "1/2") give equal algebras. `validate`
reads each coefficient straight into ints and `antisymmetric` builds the
tensor, also for the catalog's extensions; a `Fraction` is made only
where a value is read out (`bracket_vec`, a residual); serialization and
`name_of_row` write the ints.

The identity checks add each nonzero term into the sum of its basis
triple, so their cost follows the nonzero terms, not the triples: the
Jacobi check here sweeps the stored pairs i < j once, and the 2-cocycle
check in `symp` is `Tensor3.cyclic_sums` of the bracket tensor. No
dimension limit is enforced; the linalg module docstring gives measured
full-report times, up to dim 20.

Conventions:
  * bases are 0-indexed internally; names are whatever the caller says.
  * brackets are given for i < j only; [e_j, e_i] = -[e_i, e_j] is implied.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import BracketOrder, DimensionMismatch, JacobiViolation
from .linalg import Subspace, _ratio
from .record import Record
from .tensor import Tensor3


class LieAlgebra(Record):
    name: str
    basis_names: tuple[str, ...]
    bracket: Tensor3

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    @staticmethod
    def from_brackets(name: str, dim: int, basis_names: Sequence[str],
                      brackets: Mapping[tuple[int, int], Mapping[int, object]],
                      ) -> "LieAlgebra":
        """The algebra with [e_i, e_j] = sum of c e_k over brackets[(i, j)],
        i < j, any exact numbers; indices and order are checked, the
        Jacobi identity is not (`validate` adds it)."""
        names = tuple(basis_names)
        if len(names) != dim:
            raise DimensionMismatch(f"{len(names)} basis names for dim {dim}")
        ratios = {}
        for (i, j), res in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise DimensionMismatch(
                    f"bracket index ({i}, {j}) out of range")
            if i >= j:
                raise BracketOrder(
                    f"store brackets with i < j only, got ({i}, {j})")
            row = [(k, r) for k, v in res.items() if (r := _ratio(v))[0]]
            for k, _ in row:
                if not 0 <= k < dim:
                    raise DimensionMismatch(
                        f"bracket result index {k} out of range")
            if row:
                ratios[(i, j)] = row
        return LieAlgebra(name, names, antisymmetric(dim, ratios))

    def pairs(self) -> list[tuple[int, int]]:
        """The pairs i < j with [e_i, e_j] != 0, ascending."""
        return sorted(ij for ij in self.bracket.rows if ij[0] < ij[1])

    # -- bracket evaluation ---------------------------------------------

    def _first_touched(self, triples: Iterable[tuple]) -> tuple[int, ...]:
        """The triple of `triples` that a walk over the stored pairs in
        sorted order, each with its third index ascending, meets first."""
        def first_touch(tri):
            i, j, k = tri
            for pair, c in (((i, j), k), ((i, k), j), ((j, k), i)):
                if pair in self.bracket.rows:
                    return pair, c
        return min(triples, key=first_touch)

    def bracket_vec(self, u: Sequence, v: Sequence) -> tuple[Fraction, ...]:
        """[u, v] for dense coordinate vectors."""
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("vector length != algebra dimension")
        return self.bracket.of_vectors(u, v)

    # -- structure ------------------------------------------------------

    def derived_subalgebra(self) -> Subspace:
        """Span of the stored brackets, as their int rows."""
        return Subspace.span(self.dim, [self.bracket.numerators(i, j)
                                        for i, j in self.pairs()])

    def bracket_of_subspaces(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of [u, v] over the basis vectors u of a and v of b, each
        summed in ints on the bracket tensor from the bases' int rows. A
        nonzero multiple spans the same line, so only the nonzero int
        results are passed to the span; with no stored bracket, the span
        is the zero subspace at once."""
        table = self.bracket.rows
        if not table:
            return Subspace.zero(self.dim)
        vecs, dim = [], self.dim
        for us in a.basis.rows:
            for vs in b.basis.rows:
                acc = [0] * dim
                for i, p in us:
                    for j, q in vs:
                        for k, c in table.get((i, j), ()):
                            acc[k] += p * q * c
                if any(acc):
                    vecs.append(acc)
        return Subspace.span(self.dim, vecs)

    def lower_central_series(self) -> list[Subspace]:
        """g = g^1 >= g^2 = [g, g^1] >= ... until stable; g^2 is the
        derived subalgebra, spanned from the stored brackets."""
        series = [Subspace.full(self.dim)]
        nxt = self.derived_subalgebra()
        while nxt.dim != series[-1].dim:
            series.append(nxt)
            if nxt.dim == 0:
                break
            nxt = self.bracket_of_subspaces(series[0], nxt)
        return series

    def is_nilpotent(self) -> tuple[bool, list[int]]:
        series = self.lower_central_series()
        return series[-1].dim == 0, [s.dim for s in series]

    def is_abelian(self) -> bool:
        return self.bracket.is_zero()

    def characters(self) -> list[tuple[Fraction, ...]]:
        """Basis of the space of linear functionals vanishing on [g, g].

        Returned as coordinate rows in the dual basis: the `nullspace_of`
        vectors of [g, g]'s basis, one per free column in ascending
        order, each over its last nonzero entry, so the "first character"
        is deterministic. For abelian g they are the identity rows.
        """
        return self.derived_subalgebra().basis.nullspace()

    # -- naming helpers ---------------------------------------------------

    def name_of_row(self, row: Iterable[tuple[int, int]], den: int) -> str:
        """The combination of basis names sum p / den e_k over the sparse
        int row ((k, p), ...), p nonzero and k ascending; "0" if empty."""
        terms = []
        for k, p in row:
            q = den
            if q != 1:
                g = gcd(p, q)
                p, q = p // g, q // g
            sign, p = ("-", -p) if p < 0 else ("+", p)
            coef = f"{p}/{q}*" if q != 1 else f"{p}*" if p != 1 else ""
            terms.append((sign, coef + self.basis_names[k]))
        if not terms:
            return "0"
        sign, first = terms[0]
        out = (("-" if sign == "-" else "") + first)
        for sign, t in terms[1:]:
            out += f" {sign} {t}"
        return out


def antisymmetric(dim: int, ratios: Mapping) -> Tensor3:
    """The bracket tensor with [e_i, e_j] = -[e_j, e_i] = sum of p / q e_k
    over the (k, (p, q)) of ratios[(i, j)], i < j, p != 0, in ints over
    the lcm of the q in lowest terms, pairs stored in ascending order."""
    den = lcm(*(q // gcd(p, q)
                for row in ratios.values() for _, (p, q) in row))
    rows = {}
    for (i, j), row in sorted(ratios.items()):
        row = tuple(sorted([(k, p * den // q) for k, (p, q) in row]))
        rows[(i, j)], rows[(j, i)] = row, tuple([(k, -p) for k, p in row])
    return Tensor3(dim, den, rows)


def validate(name: str, dim: int, basis_names: Sequence[str],
             brackets: Mapping[tuple[int, int], Mapping[int, object]],
             ) -> LieAlgebra:
    """Build a LieAlgebra after checking indices, antisymmetry bookkeeping
    and the full Jacobi identity on all basis triples."""
    g = LieAlgebra.from_brackets(name, dim, basis_names, brackets)
    _check_jacobi(g)
    return g


def _check_jacobi(g: LieAlgebra) -> None:
    """[e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] = 0 for i<j<k.

    One sweep over the stored pairs y < z: each (m, p) of [e_y, e_z] and
    stored [e_x, e_m], x not y or z, adds +-p [e_x, e_m] to the triple
    sorted(x, y, z), - when y < x < z (the [e_j,[e_k,e_i]] term), in ints
    on the bracket tensor; the reported residual divides D^2 back out.
    """
    big, table = g.bracket.den, g.bracket.rows
    cols = [[] for _ in range(g.dim)]  # cols[m]: (x, [e_x, e_m]) stored
    for (x, m), row in table.items():
        cols[m].append((x, row))
    acc: dict[tuple[int, int, int, int], int] = {}  # (i, j, k, r): sum
    for y, z in g.pairs():
        for m, p in table[(y, z)]:
            for x, row in cols[m]:
                if x < y:
                    for r, q in row:
                        key = (x, y, z, r)
                        acc[key] = acc.get(key, 0) + p * q
                elif x > z:
                    for r, q in row:
                        key = (y, z, x, r)
                        acc[key] = acc.get(key, 0) + p * q
                elif x != y and x != z:
                    for r, q in row:
                        key = (y, x, z, r)
                        acc[key] = acc.get(key, 0) - p * q
    bad = {key[:3] for key, v in acc.items() if v}
    if bad:
        i, j, k = tri = g._first_touched(bad)
        resid = {g.basis_names[key[3]]: str(Fraction(v, big * big))
                 for key, v in sorted(acc.items()) if key[:3] == tri and v}
        raise JacobiViolation(i, j, k, resid, names=g.basis_names)
