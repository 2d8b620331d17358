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
returned. `rref` and `inverse` stay on `Fraction`.

No size limit is enforced; cost follows the nonzero count and the
coefficients' bit length. Measured full reports (`build_report(...,
full=True)` on `build_rank_example(n, k, False, True)`, Python 3.11, one
core of a shared 2-vCPU x86-64 VM, median of 3): dim 12 (k = 2) 0.016 s,
dim 14 (k = 3) 0.035 s, dim 20 (k = 4) 0.071 s. Larger dimensions are
untested.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from .errors import BadNumber, SingularGram

Scalar = Fraction


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
        """Reduced row echelon form and rank.

        Deterministic: pivots are always the first nonzero entry scanning
        columns left to right, rows top to bottom. No pivoting heuristics,
        so equal inputs give byte-equal outputs.
        """
        m = [list(r) for r in self.entries]
        nr, nc = self.nrows, self.ncols
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
        return Matrix(tuple(tuple(r) for r in m)), rank

    def rank(self) -> int:
        return self.rref()[1]

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        """Basis of the right kernel, in deterministic RREF-derived form."""
        red, rank = self.rref()
        nc = self.ncols
        pivots = []
        for r in range(rank):
            for c in range(nc):
                if red.entries[r][c] != 0:
                    pivots.append(c)
                    break
        free = [c for c in range(nc) if c not in pivots]
        basis = []
        for fc in free:
            v = [Fraction(0)] * nc
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red.entries[r][fc]
            basis.append(tuple(v))
        return basis

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
        v = tuple(x if type(x) is Fraction else qof(x) for x in vec)
        if vec_is_zero(v):
            return True
        stacked = Matrix.from_rows(list(self.basis.entries) + [v])
        return stacked.rank() == self.dim

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
