"""Finite dimensional Lie algebras over Q, given by structure constants.

Storage is sparse: only brackets [e_i, e_j] with i < j and a nonzero
result are kept, as {(i, j): {k: coefficient}}. The identity checks
(Jacobi here, the 2-cocycle check in `symp`) sweep the stored brackets
once, adding each nonzero term into the sum of its basis triple, so
their cost follows the nonzero terms, not the triples. They run on a
second form of the table, cached once per algebra: every coefficient as
a Python int over one common denominator D (the lcm of all of them),
with both bracket orders stored, so a lookup neither copies a dict nor
negates `Fraction`s. A residual becomes a `Fraction` only when it is
reported. No dimension limit is enforced; the linalg module docstring
gives measured full-report times, up to dim 20.

Conventions:
  * bases are 0-indexed internally; names are whatever the caller says.
  * [e_i, e_i] = 0 and [e_j, e_i] = -[e_i, e_j] are implied, never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import BracketOrder, DimensionMismatch, JacobiViolation
from .linalg import Matrix, Subspace, qof

BracketTable = dict[tuple[int, int], dict[int, Fraction]]
# [e_i, e_j] = sum p / D e_k over the listed (k, p), for i != j both ways
IntTable = dict[tuple[int, int], tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class LieAlgebra:
    name: str
    dim: int
    basis_names: tuple[str, ...]
    _table: BracketTable = field(repr=False)

    # -- bracket evaluation ---------------------------------------------

    @cached_property
    def _int_table(self) -> tuple[int, IntTable]:
        """(D, table): D is the lcm of every structure constant's
        denominator and table[(i, j)] lists [e_i, e_j] as (k, p) pairs
        with coefficient p / D, for i < j and i > j alike."""
        big = lcm(*(c.denominator for res in self._table.values()
                    for c in res.values()))
        table: IntTable = {}
        for (i, j), res in self._table.items():
            row = tuple((k, c.numerator * (big // c.denominator))
                        for k, c in res.items())
            table[(i, j)] = row
            table[(j, i)] = tuple((k, -p) for k, p in row)
        return big, table

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as a sparse coordinate dict."""
        if i == j:
            return {}
        if i < j:
            return dict(self._table.get((i, j), {}))
        return {k: -v for k, v in self._table.get((j, i), {}).items()}

    def _first_touched(self, triples: Iterable[tuple]) -> tuple[int, ...]:
        """The triple of `triples` that a walk over the stored pairs in
        sorted order, each with its third index ascending, meets first."""
        def first_touch(tri):
            i, j, k = tri
            for pair, c in (((i, j), k), ((i, k), j), ((j, k), i)):
                if pair in self._table:
                    return pair, c
        return min(triples, key=first_touch)

    def bracket_vec(self, u: Sequence, v: Sequence) -> tuple[Fraction, ...]:
        """[u, v] for dense coordinate vectors."""
        u = [qof(x) for x in u]
        v = [qof(x) for x in v]
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("vector length != algebra dimension")
        out = [Fraction(0)] * self.dim
        for (i, j), res in self._table.items():
            c = u[i] * v[j] - u[j] * v[i]
            if c == 0:
                continue
            for k, coeff in res.items():
                out[k] += c * coeff
        return tuple(out)

    # -- structure ------------------------------------------------------

    def derived_subalgebra(self) -> Subspace:
        """Span of the stored brackets, as their int rows."""
        _, table = self._int_table
        vecs = []
        for ij in self._table:
            v = [0] * self.dim
            for k, p in table[ij]:
                v[k] = p
            vecs.append(v)
        return Subspace.span(self.dim, vecs)

    def bracket_of_subspaces(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of [u, v] over the basis vectors u of a and v of b, each
        summed in ints on the int table from the bases' int rows. A nonzero
        multiple spans the same line, so only the nonzero int results are
        passed to the span."""
        _, table = self._int_table
        vecs = []
        for us in a.basis.rows:
            for vs in b.basis.rows:
                acc = [0] * self.dim
                for i, p in us:
                    for j, q in vs:
                        for k, c in table.get((i, j), ()):
                            acc[k] += p * q * c
                if any(acc):
                    vecs.append(acc)
        return Subspace.span(self.dim, vecs)

    def lower_central_series(self) -> list[Subspace]:
        """g = g^1 >= g^2 = [g, g^1] >= ... until stable."""
        series = [Subspace.full(self.dim)]
        whole = series[0]
        while True:
            nxt = self.bracket_of_subspaces(whole, series[-1])
            if nxt.dim == series[-1].dim:
                break
            series.append(nxt)
            if nxt.dim == 0:
                break
        return series

    def is_nilpotent(self) -> tuple[bool, list[int]]:
        series = self.lower_central_series()
        return series[-1].dim == 0, [s.dim for s in series]

    def is_abelian(self) -> bool:
        return not self._table

    def characters(self) -> list[tuple[Fraction, ...]]:
        """Basis of the space of linear functionals vanishing on [g, g].

        Returned as coordinate rows in the dual basis, in canonical RREF
        order, so the "first character" is deterministic.
        """
        der = self.derived_subalgebra()
        if der.dim == 0:
            return [tuple(r) for r in Matrix.identity(self.dim).entries]
        return der.basis.nullspace()

    # -- naming helpers ---------------------------------------------------

    def name_of_vector(self, vec: Sequence) -> str:
        """Render a coordinate vector as a combination of basis names."""
        terms = []
        for c, nm in zip((qof(x) for x in vec), self.basis_names):
            if c == 0:
                continue
            if c == 1:
                terms.append(("+", nm))
            elif c == -1:
                terms.append(("-", nm))
            elif c > 0:
                terms.append(("+", f"{c}*{nm}"))
            else:
                terms.append(("-", f"{-c}*{nm}"))
        if not terms:
            return "0"
        sign, first = terms[0]
        out = (("-" if sign == "-" else "") + first)
        for sign, t in terms[1:]:
            out += f" {sign} {t}"
        return out


def validate(name: str, dim: int, basis_names: Sequence[str],
             brackets: Mapping[tuple[int, int], Mapping[int, object]],
             ) -> LieAlgebra:
    """Build a LieAlgebra after checking indices, antisymmetry bookkeeping
    and the full Jacobi identity on all basis triples."""
    names = tuple(basis_names)
    if len(names) != dim:
        raise DimensionMismatch(f"{len(names)} basis names for dim {dim}")
    table: BracketTable = {}
    for (i, j), res in brackets.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise DimensionMismatch(f"bracket index ({i}, {j}) out of range")
        if i >= j:
            raise BracketOrder(f"store brackets with i < j only, got ({i}, {j})")
        coeffs = {k: c for k, v in res.items() if (c := qof(v)) != 0}
        for k in coeffs:
            if not 0 <= k < dim:
                raise DimensionMismatch(f"bracket result index {k} out of range")
        if coeffs:
            table[(i, j)] = coeffs
    g = LieAlgebra(name, dim, names, table)
    _check_jacobi(g)
    return g


def _check_jacobi(g: LieAlgebra) -> None:
    """[e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] = 0 for i<j<k.

    One sweep over the stored pairs y < z: each (m, p) of [e_y, e_z] and
    stored [e_x, e_m], x not y or z, adds +-p [e_x, e_m] to the triple
    sorted(x, y, z), - when y < x < z (the [e_j,[e_k,e_i]] term), in ints
    on the int table; the reported residual divides D^2 back out.
    """
    big, table = g._int_table
    cols = [[] for _ in range(g.dim)]  # cols[m]: (x, [e_x, e_m]) stored
    for (x, m), row in table.items():
        cols[m].append((x, row))
    acc: dict[tuple[int, int, int, int], int] = {}  # (i, j, k, r): sum
    for y, z in g._table:
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
