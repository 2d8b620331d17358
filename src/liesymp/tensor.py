"""Vector valued 2-tensors on a basis, stored sparsely in ints.

`Tensor3` stores T(e_i, e_j) as Python ints over one common denominator
and lists only the nonzero coordinates of each nonzero T(e_i, e_j), like
`Matrix`. It is the one form of the structure constants
(`LieAlgebra.bracket`), of N, of the connections, their torsion and
nabla J: products with J or a form, slot swaps and rational combinations
sum ints over the nonzeros, and a value becomes a `Fraction` only where
it is read (`of_basis`, `of_vectors`); `int_value` sums T(u, v) in ints.
A tensor is its values: the state is canonical, so `==` and `hash`
compare values, and an identity A + B = 0 is checked as `A == -B`, with
no sum built. `cyclic_sums` is the one cyclic sum over a 2-form, behind
the 2-cocycle check, N's cyclic omega identity and membership's sums
against omega and G (`nspace.cyclic_rows_vanish`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Sequence

from .linalg import Matrix, _canon, int_vector, qof
from .record import Record, _set


IntRows = dict[tuple[int, int], tuple[tuple[int, int], ...]]


class Tensor3(Record):
    """Vector valued 2-tensor on the basis, stored sparsely in ints:
    T(e_i, e_j) = sum of p / den e_k over the (k, p) in rows[(i, j)].
    Only nonzero values are listed, in ascending k, and den is the least
    common denominator of all of them, so tensors with equal values are
    equal objects. A connection is an instance, Gamma(e_i, e_j) =
    T(e_i, e_j)."""

    dim: int
    den: int
    rows: IntRows

    def __init__(self, dim: int, den: int, rows: IntRows):
        # positional only, as Matrix's
        _set(self, "dim", dim)
        _set(self, "den", den)
        _set(self, "rows", rows)

    def __hash__(self) -> int:
        # the record hash cannot take the rows dict
        return hash((self.dim, self.den, frozenset(self.rows.items())))

    @staticmethod
    def from_ints(dim: int, den: int, num: dict) -> "Tensor3":
        """The tensor with T(e_i, e_j)_k = num[(i, j)][k] / den (den > 0),
        every num[(i, j)] a list of dim ints, or every one a {k: int}
        dict; zero values and any factor common to den and every
        numerator are dropped."""
        g, dicts = den, isinstance(next(iter(num.values()), None), dict)
        for v in num.values():
            if g == 1:
                break
            g = gcd(g, *(v.values() if dicts else v))
        rows = {}
        for ij, v in num.items():
            kp = sorted(v.items()) if dicts else enumerate(v)
            row = (tuple(filter(itemgetter(1), kp)) if g == 1
                   else tuple([(k, p // g) for k, p in kp if p]))
            if row:
                rows[ij] = row
        return Tensor3(dim, den // g if rows else 1, rows)

    @cached_property
    def _values(self) -> dict[tuple[int, int], tuple[Fraction, ...]]:
        out = {}
        for ij, row in self.rows.items():
            v = [Fraction(0)] * self.dim
            for k, p in row:
                v[k] = Fraction(p, self.den)
            out[ij] = tuple(v)
        return out

    def of_basis(self, i: int, j: int) -> tuple[Fraction, ...]:
        v = self._values.get((i, j))
        return v if v is not None else (Fraction(0),) * self.dim

    def of_vectors(self, u: Sequence, v: Sequence) -> tuple[Fraction, ...]:
        du, us = int_vector(u)
        dv, vs = int_vector(v)
        acc = self.int_value([(i, a) for i, a in enumerate(us) if a],
                             [(j, b) for j, b in enumerate(vs) if b])
        den = self.den * du * dv
        z = Fraction(0)
        return tuple([Fraction(x, den) if x else z for x in acc])

    def int_value(self, us: Sequence[tuple[int, int]],
                  vs: Sequence[tuple[int, int]]) -> list[int]:
        """den T(u, v), u and v given by their nonzero (index, int)
        coordinates, as dense ints."""
        acc, rows = [0] * self.dim, self.rows
        for i, a in us:
            for j, b in vs:
                row = rows.get((i, j))
                if row:
                    c = a * b
                    for k, p in row:
                        acc[k] += c * p
        return acc

    def is_zero(self) -> bool:
        return not self.rows

    def __neg__(self) -> "Tensor3":
        """-T: negated numerators keep den and their common factor."""
        return Tensor3(self.dim, self.den,
                       {ij: tuple([(k, -p) for k, p in row])
                        for ij, row in self.rows.items()})

    def endo(self, i: int) -> Matrix:
        """T(e_i, .) as a matrix (columns are images): row b of its
        transpose is T(e_i, e_b), the stored row of (i, b), so the matrix
        is those rows over den in canonical form, transposed."""
        return _canon(self.den, tuple([self.rows.get((i, b), ())
                                       for b in range(self.dim)]),
                      self.dim).transpose()

    def swapped(self) -> "Tensor3":
        """(x, y) -> T(y, x)."""
        return Tensor3(self.dim, self.den,
                       {(j, i): r for (i, j), r in self.rows.items()})

    def map_values(self, m: Matrix) -> "Tensor3":
        """(x, y) -> m T(x, y)."""
        cols = m.transpose().rows
        num = {}
        for ij, row in self.rows.items():
            v = num[ij] = [0] * self.dim
            for k, p in row:
                for r, q in cols[k]:
                    v[r] += q * p
        return Tensor3.from_ints(self.dim, self.den * m.den, num)

    def map_second(self, m: Matrix) -> "Tensor3":
        """(x, y) -> T(x, m y)."""
        num: dict[tuple[int, int], list[int]] = {}
        for (i, l), row in self.rows.items():
            for j, q in m.rows[l]:
                v = num.get((i, j))
                if v is None:
                    v = num[(i, j)] = [0] * self.dim
                for k, p in row:
                    v[k] += q * p
        return Tensor3.from_ints(self.dim, self.den * m.den, num)

    def map_first(self, m: Matrix) -> "Tensor3":
        """(x, y) -> T(m x, y), as `map_second` of the swapped tensor."""
        return self.swapped().map_second(m).swapped()

    def anti_linear(self, j: Matrix, slots: Sequence[int]) -> bool:
        """Whether B(x, y) = T(Jx, y) + J T(x, y) vanishes at (e_a, e_b)
        for every a in slots and every b, in ints over den * j.den, up to
        the first nonzero. J^2 = -1 gives B(Jx, y) = J B(x, y), so slots
        whose e_a and J e_a span (`symp.first_slots`) decide
        T(Jx, y) = -J T(x, y) on every pair. Only the b that are the
        second slot of a stored pair are visited: T(., e_b) = 0 at any
        other b, and so is B(., e_b)."""
        cols, dim, rows = j.transpose().rows, self.dim, self.rows
        seconds = sorted({b for _, b in rows})
        for a in slots:
            ja = cols[a]
            for b in seconds:
                acc = [0] * dim
                for l, q in ja:
                    for k, p in rows.get((l, b), ()):
                        acc[k] += q * p
                for k, p in rows.get((a, b), ()):
                    for r, q in cols[k]:
                        acc[r] += q * p
                if any(acc):
                    return False
        return True

    def cyclic_sums(self, form: Matrix) -> tuple[dict, int]:
        """The nonzero sums form(T(a, b), c) + form(T(b, c), a) +
        form(T(c, a), b) over a < b < c, form(u, v) = u^T form v, as
        ints over the returned denominator. Each T(x, y) is read from
        its own key, so T need not be antisymmetric."""
        sums: dict[tuple[int, int, int], int] = {}
        for (x, y), row in self.rows.items():
            low: dict[int, int] = {}  # form(T(x, y), e_z)
            for m, p in row:
                for z, f in form.rows[m]:
                    low[z] = low.get(z, 0) + p * f
            for z, v in low.items():
                # (x, y, z) is a cyclic rotation of its sorted triple
                if x < y < z or y < z < x or z < x < y:
                    key = tuple(sorted((x, y, z)))
                    sums[key] = sums.get(key, 0) + v
        return {k: v for k, v in sums.items() if v}, self.den * form.den


def combine(terms: Sequence[tuple[object, Tensor3]]) -> Tensor3:
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
    return Tensor3.from_ints(dim, den, num)
