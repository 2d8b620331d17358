"""Exact linear algebra over the rationals.

Everything here works with `fractions.Fraction` entries and is fully
deterministic: the same input always produces the same reduced row echelon
form, the same pivot choices, the same basis. That determinism is load
bearing, because canonical RREF bases are compared verbatim in golden
outputs.

Matrices are immutable; all operations return new objects. `entries` is
the dense tuple of rows callers read. Products and `apply` run on a second
form, cached once per matrix: each row as Python ints over a common
denominator (the lcm of the row's denominators), listing only its nonzero
(column, numerator) pairs. A product row is summed in ints, each left
factor lifted to the lcm of the right operand's row denominators, and
becomes one `Fraction` per nonzero entry at the end. `Fraction` reduces
that to lowest terms, so the result is the same value, and prints the
same bytes, as a sum of `Fraction` products. Zeros are skipped, so a
product of the mostly-zero structure constants, forms and connection
endomorphisms costs about its number of nonzero terms; on dense matrices
with 20-30 bit entries an int multiply-add replaces a gcd-normalising
`Fraction` multiply and add per term. `det` and the Sylvester check
run integer Bareiss: the matrix is scaled by the lcm D of all its
denominators, every step divides exactly with `//`, and the k-th pivot,
D^k times the k-th leading minor, becomes a `Fraction` only when it is
returned. Every other elimination is `echelon`, on sparse int rows: a
row is reduced at its smallest column, fraction-free, and divided by its
content. `rref` (under `inverse`, `Subspace.span`, `intersect` and
`complement`) and `nullspace_of` back-substitute its rows in ints and
make one `Fraction` per nonzero entry; `nspace` ranks with it, and
`Subspace.contains` subtracts the RREF basis rows at their pivots.

No size limit is enforced; cost follows the nonzero count and the
coefficients' bit length. Measured full reports (`build_report(...,
full=True)` on `build_rank_example(n, k, False, True)`, Python 3.11, one
core of a shared 2-vCPU x86-64 VM, median of 3): dim 12 (k = 2) 0.008 s,
dim 14 (k = 3) 0.010 s, dim 20 (k = 4) 0.020 s. Larger dimensions are
untested.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import BadNumber, SingularGram

Scalar = Fraction
Row = dict[int, int]   # a sparse int row {column: value}


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def brief(x) -> str:
    """repr of a value for an error message; a string longer than 32
    characters is cut to its first 16 plus its digit count, so that a
    rejected number of thousands of digits is not echoed whole."""
    if not isinstance(x, str) or len(x) <= 32:
        return repr(x)
    return f"{x[:16]!r}... ({sum(c.isdigit() for c in x)} digits)"


def qof(x) -> Fraction:
    """Coerce an int / Fraction / "p/q" string to Fraction.

    Floats are refused on purpose: a float that has survived this far is
    already a rounding bug, and Fraction(0.1) would silently bless it.
    Bools are refused too: a JSON `true` is not the number 1. Strings
    must be an integer or p/q (BadNumber otherwise): "0.5", "1e3",
    "1_000" and " 1 " are refused, so that no decimal slips in and a few
    bytes of exponent cannot ask for a huge integer. A numerator or
    denominator longer than the interpreter converts from a string
    (`sys.get_int_max_str_digits`, 4300 digits by default) is BadNumber.
    """
    if isinstance(x, float):
        raise TypeError(f"refusing to coerce float {x!r} to an exact rational")
    if isinstance(x, bool):
        raise TypeError(f"refusing to read the boolean {x!r} as a number")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):
            raise BadNumber(f"{brief(x)} is not an integer or p/q")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise BadNumber(f"{brief(x)} has a zero denominator") from None
        except ValueError:
            raise BadNumber(f"{brief(x)} exceeds the interpreter's digit "
                            "limit for integers") from None
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact rational")


def _freeze(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(x if type(x) is Fraction else qof(x) for x in row)
                 for row in rows)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of Fractions."""

    entries: tuple[tuple[Fraction, ...], ...]

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        frozen = _freeze(rows)
        if frozen:
            w = len(frozen[0])
            if any(len(r) != w for r in frozen):
                raise ValueError("ragged rows")
        return Matrix(frozen)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n))
            for i in range(n)))

    # -- shape / access ------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @cached_property
    def _int_rows(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """Each row as (d, ((j, p), ...)): d is the lcm of the row's
        denominators, a_ij = p / d, and only nonzero entries are listed.
        Computed once per matrix; `@` and `apply` run over these only."""
        out = []
        for r in self.entries:
            nz = [(j, a.as_integer_ratio()) for j, a in enumerate(r) if a]
            d = lcm(*(q for _, (_, q) in nz))
            out.append((d, tuple((j, p * (d // q)) for j, (p, q) in nz)))
        return tuple(out)

    def _scaled(self) -> tuple[int, list[list[int]]]:
        """(D, rows): D is the lcm of every denominator in the matrix and
        a_ij = rows[i][j] / D, as a fresh dense list of int rows."""
        irows = self._int_rows
        big = lcm(*(d for d, _ in irows))
        out = []
        for d, row in irows:
            r, f = [0] * self.ncols, big // d
            for j, p in row:
                r[j] = p * f
            out.append(r)
        return big, out

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(tuple(-a for a in r) for r in self.entries))

    def scale(self, c) -> "Matrix":
        c = qof(c)
        return Matrix(tuple(tuple(c * a for a in r) for r in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ "
                             f"{other.nrows}x{other.ncols}")
        # row i of the product is (1 / (d_i * big)) * sum_k p_ik * (big /
        # f_k) * q_kj, where row k of other is q_k / f_k and big is the lcm
        # of the f_k: the sum runs in ints over the nonzero factors only
        brows, width = other._int_rows, other.ncols
        big = lcm(*(f for f, _ in brows))
        lift = [big // f for f, _ in brows]
        z = Fraction(0)
        zero_row = (z,) * width
        out = []
        for d, row in self._int_rows:
            acc = [0] * width
            for k, p in row:
                a = p * lift[k]
                for j, q in brows[k][1]:
                    acc[j] += a * q
            if any(acc):
                den = d * big
                out.append(tuple([Fraction(x, den) if x else z for x in acc]))
            else:
                out.append(zero_row)
        return Matrix(tuple(out))

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        """Matrix times column vector."""
        v = [x if type(x) is Fraction else qof(x) for x in vec]
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        ratios = [x.as_integer_ratio() for x in v]
        dv = lcm(*(q for _, q in ratios))
        w = [p * (dv // q) for p, q in ratios]
        z = Fraction(0)
        out = []
        for d, row in self._int_rows:
            acc = 0
            for j, p in row:
                acc += p * w[j]
            out.append(Fraction(acc, d * dv) if acc else z)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries)) if self.entries else ())

    def trace(self) -> Fraction:
        return sum((self.entries[i][i] for i in range(self.nrows)),
                   Fraction(0))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_skew(self) -> bool:
        return self == -self.transpose()

    # -- elimination ---------------------------------------------------

    def rref(self) -> tuple["Matrix", int]:
        """Reduced row echelon form and rank: the rank pivot rows in
        ascending pivot column, then zero rows, in lowest terms. The RREF
        of a matrix is unique, so it does not depend on pivot order."""
        z, nc = Fraction(0), self.ncols
        out = []
        for c, row in _reduced(dict(r) for _, r in self._int_rows):
            r, a = [z] * nc, row[c]
            for j, p in row.items():
                r[j] = Fraction(p, a)
            out.append(tuple(r))
        zero = ((z,) * nc,) * (self.nrows - len(out))
        return Matrix(tuple(out) + zero), len(out)

    def rank(self) -> int:
        return self.rref()[1]

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        """Basis of the right kernel, in deterministic RREF-derived form."""
        return nullspace_of((dict(r) for _, r in self._int_rows), self.ncols)

    def det(self) -> Fraction:
        """Determinant by fraction-free Bareiss elimination in ints."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return Fraction(1)
        big, m = self._scaled()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
                if swap is None:
                    return Fraction(0)
                m[k], m[swap] = m[swap], m[k]
                sign = -sign
            prev = _bareiss_step(m, k, prev)
        return Fraction(sign * m[n - 1][n - 1], big ** n)

    def inverse(self) -> "Matrix":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        aug = Matrix.from_rows([
            list(self.entries[i]) + [Fraction(1 if i == j else 0)
                                     for j in range(n)]
            for i in range(n)])
        red, rank = aug.rref()
        # the identity block keeps the augmented rank at n even when the
        # left block is singular, so test the left block itself
        for i in range(n):
            for j in range(n):
                if red.entries[i][j] != (1 if i == j else 0):
                    raise ValueError("matrix is singular")
        return Matrix(tuple(r[n:] for r in red.entries))

    def leading_minors_positive(self) -> tuple[bool, int, Fraction]:
        """Sylvester's criterion for symmetric matrices.

        Returns (ok, k, minor): on failure, k is the size of the first
        non-positive leading principal minor and minor its value.

        One integer Bareiss pass without pivoting on the lcm-scaled
        matrix: its k-th pivot is D^k times the k-th leading principal
        minor, and every earlier pivot is positive when it is reached, so
        no division by zero can occur.
        """
        n = self.nrows
        if n != self.ncols:
            raise ValueError("leading minors of a non-square matrix")
        big, m = self._scaled()
        prev = 1
        for k in range(n):
            p = m[k][k]
            if p <= 0:
                return False, k + 1, Fraction(p, big ** (k + 1))
            prev = _bareiss_step(m, k, prev)
        return True, 0, Fraction(1)

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(a) for a in r) + "]"
                         for r in self.entries)


def _bareiss_step(m: list[list[int]], k: int, prev: int) -> int:
    """Eliminate column k below row k in place, fraction-free: each
    update divides exactly by the previous pivot. Returns the new pivot."""
    p = m[k][k]
    tail = m[k][k + 1:]
    for i in range(k + 1, len(m)):
        ri = m[i]
        f = ri[k]
        ri[k] = 0
        ri[k + 1:] = [(x * p - f * y) // prev
                      for x, y in zip(ri[k + 1:], tail)]
    return p


def echelon(rows: Iterable[Row]) -> dict[int, Row]:
    """Sparse fraction-free echelon form: a row is reduced by the stored
    row of its smallest column (`_eliminate`) until it is empty or that
    column is new, then stored as given. Its size is the rank."""
    pivots: dict[int, Row] = {}
    for row in rows:
        while row:
            p = min(row)
            piv = pivots.get(p)
            if piv is None:
                pivots[p] = row
                break
            row = _eliminate(row, piv, p)
    return pivots


def _eliminate(row: Row, piv: Row, c: int) -> Row:
    """row * a - f * piv, a = piv[c] and f = row[c] over their gcd, so
    column c cancels, divided by its content."""
    a, f = piv[c], row[c]
    g = gcd(a, f)
    a, f = a // g, f // g
    new = {j: v * a for j, v in row.items()}
    for j, v in piv.items():
        nv = new.get(j, 0) - f * v
        if nv:
            new[j] = nv
        else:
            new.pop(j, None)
    g = gcd(*new.values())
    return {j: v // g for j, v in new.items()} if g > 1 else new


def _reduced(rows: Iterable[Row]) -> list[tuple[int, Row]]:
    """(pivot column, row), ascending: the `echelon` rows back-substituted
    in ints, last pivot first, so each is 0 at every other pivot."""
    piv = echelon(rows)
    for c in sorted(piv, reverse=True):
        for k in [k for k in piv[c] if k != c and k in piv]:
            piv[c] = _eliminate(piv[c], piv[k], k)
    return sorted(piv.items())


def nullspace_of(rows: Iterable[Row], ncols: int,
                 ) -> list[tuple[Fraction, ...]]:
    """Basis of {x : row . x = 0 for every int row}: one vector per free
    column fc, 1 at fc and minus the reduced entry at each pivot."""
    red = _reduced(rows)
    z, pivots = Fraction(0), {c for c, _ in red}
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [z] * ncols
            v[fc] = Fraction(1)
            for c, row in red:
                if fc in row:
                    v[c] = Fraction(-row[fc], row[c])
            basis.append(tuple(v))
    return basis


def vec_sub(u: Sequence, v: Sequence) -> tuple[Fraction, ...]:
    return tuple((a if type(a) is Fraction else qof(a))
                 - (b if type(b) is Fraction else qof(b))
                 for a, b in zip(u, v))


def vec_is_zero(v: Sequence) -> bool:
    return all(not (a if type(a) is Fraction else qof(a)) for a in v)


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n in canonical form: basis rows are the RREF of any
    spanning set, so two equal subspaces compare equal as dataclasses."""

    ambient_dim: int
    basis: Matrix  # RREF, one row per basis vector, no zero rows

    @staticmethod
    def span(ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        vecs = [tuple(x if type(x) is Fraction else qof(x) for x in v)
                for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
        if not vecs:
            return Subspace(ambient_dim, Matrix(()))
        red, rank = Matrix.from_rows(vecs).rref()
        return Subspace(ambient_dim, Matrix(red.entries[:rank]))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix(()))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def vectors(self) -> list[tuple[Fraction, ...]]:
        return [tuple(r) for r in self.basis.entries]

    def contains(self, vec: Sequence) -> bool:
        """vec is in the span iff vec - sum of vec[p_i] b_i is 0, p_i the
        pivot of RREF row b_i; summed in ints over the lcm denominator."""
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length != ambient dimension")
        ratios = [(x if type(x) is Fraction else qof(x)).as_integer_ratio()
                  for x in vec]
        dv = lcm(*(q for _, q in ratios))
        w = [p * (dv // q) for p, q in ratios]
        brows = self.basis._int_rows
        big = lcm(*(d for d, _ in brows))
        acc = [x * big for x in w]
        for d, row in brows:
            c = w[row[0][0]] * (big // d)
            for j, p in row:
                acc[j] -= c * p
        return not any(acc)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.vectors())

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked coefficient map."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        # columns: coefficients on self.basis then other.basis;
        # rows: ambient coordinates of (sum self - sum other)
        a = self.basis.transpose()
        b = other.basis.transpose()
        stacked = Matrix.from_rows([
            list(a.entries[i]) + [-x for x in b.entries[i]]
            for i in range(self.ambient_dim)])
        vecs = []
        for ker in stacked.nullspace():
            coeffs = ker[:self.dim]
            vecs.append(tuple(
                sum(c * bv for c, bv in zip(coeffs, col))
                for col in zip(*self.basis.entries)))
        return Subspace.span(self.ambient_dim, vecs)


def complement(s: Subspace, gram: Matrix) -> Subspace:
    """Orthogonal complement of `s` with respect to a bilinear form.

    `gram` is the form's matrix in ambient coordinates; a vector v is in
    the complement iff (basis of s) @ gram @ v = 0. The form must be
    nondegenerate on s (dim complement must come out right), otherwise
    SingularGram.
    """
    if s.dim == 0:
        return Subspace.full(s.ambient_dim)
    constraints = s.basis @ gram
    kernel = constraints.nullspace()
    comp = Subspace.span(s.ambient_dim, kernel)
    if comp.dim != s.ambient_dim - s.dim:
        raise SingularGram(
            f"form degenerate on subspace: complement dim {comp.dim}, "
            f"expected {s.ambient_dim - s.dim}")
    # right dimension is not enough: a degenerate restriction leaves a
    # radical, which shows up as a nonzero intersection with s
    rad = s.intersect(comp)
    if rad.dim != 0:
        raise SingularGram(
            f"form degenerate on subspace: radical has dim {rad.dim}")
    return comp
