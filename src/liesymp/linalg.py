"""Exact linear algebra over the rationals.

Everything here is fully deterministic: the same input always produces
the same reduced row echelon form, the same pivot choices, the same
basis. That determinism is load bearing, because canonical RREF bases
are compared verbatim in golden outputs.

A `Matrix` is immutable and holds one exact form: Python ints over one
common denominator, entry (i, j) = p / den for the (j, p) listed in
row i. Only nonzero entries are listed, in ascending column, and the
state is canonical (den > 0, and no factor is common to den and every
numerator), so `==` and `hash` compare the state, and equal matrices
built over different denominators compare equal. Arithmetic, `apply`,
the transpose, the trace and the predicates run in ints on that state,
over the nonzero factors only, and a result is brought to lowest terms
by one gcd pass that stops at 1. `entries` (dense `Fraction` rows) is
only a cached view; output is written from the ints. `from_rows` reads
an entry with one match of `qof`'s grammar, "p" or "p/q", into ints, in
row order and before the row lengths, and skips one spelled "0" unread.

Every elimination is `echelon`, fraction-free on sparse int rows: each
row is reduced at its smallest column and divided by its content, and
given the column count it stops at full rank. `det` and the Sylvester
check read its Gaussian pivots in row order (`_pivots`), multiplied in
ints and made a `Fraction` only when returned.
`rref` back-substitutes its rows in ints and puts each over its pivot,
straight into the canonical state; `nullspace_of` reads int kernel
vectors off the same rows, and `Matrix.nullspace` is their `Fraction`
view. A `Subspace` answers membership through its annihilator A, the
`nullspace_of` its basis B: v is in it iff A v = 0, it holds another
subspace iff A kills that basis, it is invariant under m iff
A m B^T = 0, and two subspaces meet in the kernel of both A stacked.

No size limit is enforced; cost follows the nonzero count and the
coefficients' bit length, except N's [Ja, Jb] term: d^5 on a dense
bracket with a dense J (`nijenhuis_of`). Measured full reports
(`build_report(..., full=True)` on `build_rank_example(n, k, False,
True)`, Python 3.11, one core of a shared 2-vCPU x86-64 VM, median of
3): dim 12 (k = 2) 0.008 s, dim 14 (k = 3) 0.010 s, dim 20 (k = 4)
0.020 s. Larger dimensions are untested.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .errors import BadNumber, SingularGram
from .record import Record, _set

Row = dict[int, int]   # a sparse int row {column: value}
IntRow = tuple[tuple[int, int], ...]   # ((column, value), ...), ascending


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def brief(x) -> str:
    """repr of a value for an error message; a string longer than 32
    characters is cut to its first 16 plus its digit count, so that a
    rejected number of thousands of digits is not echoed whole."""
    if not isinstance(x, str) or len(x) <= 32:
        return repr(x)
    return f"{x[:16]!r}... ({sum(c.isdigit() for c in x)} digits)"


def _ratio(x) -> tuple[int, int]:
    """(p, q), q > 0 and x = p / q not always reduced, as `qof` reads x."""
    if type(x) is int:
        return x, 1
    if isinstance(x, str):
        m = _RATIONAL.fullmatch(x)
        if not m:
            raise BadNumber(f"{brief(x)} is not an integer or p/q")
        try:
            p, q = int(m[1]), int(m[2] or 1)
        except ValueError:
            raise BadNumber(f"{brief(x)} exceeds the interpreter's digit "
                            "limit for integers") from None
        if not q:
            raise BadNumber(f"{brief(x)} has a zero denominator")
        return p, q
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, float):
        raise TypeError(f"refusing to coerce float {x!r} to an exact rational")
    if isinstance(x, bool):
        raise TypeError(f"refusing to read the boolean {x!r} as a number")
    if isinstance(x, int):
        return int(x), 1
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact rational")


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
    if isinstance(x, Fraction):
        return x
    p, q = _ratio(x)
    return Fraction(p, q) if q != 1 else Fraction(p)


def int_vector(vec: Sequence) -> tuple[int, list[int]]:
    """(D, w): vec_i = w[i] / D, D the lcm of the entries' denominators;
    every entry is read as `qof` reads it."""
    if all(type(x) is int for x in vec):
        return 1, list(vec)
    ratios = [_ratio(x) for x in vec]
    den = lcm(*(q for _, q in ratios))
    return den, [p * (den // q) for p, q in ratios]


def _canon(den: int, rows: tuple[IntRow, ...], ncols: int) -> "Matrix":
    """The Matrix of rows over den (den > 0), with the factor common to
    den and every numerator divided out."""
    g = den
    for r in rows:
        if g == 1:
            break
        if r:
            g = gcd(g, *(p for _, p in r))
    if g == 1:
        return Matrix(den, rows, ncols)
    return Matrix(den // g, tuple(tuple((j, p // g) for j, p in r)
                                  for r in rows), ncols)


class Matrix(Record):
    """Immutable rational matrix: entry (i, j) is p / den for the (j, p)
    in rows[i], and 0 where row i lists no j. Canonical (see the module
    docstring); build one with `from_rows`, `from_ints` or `identity`."""

    den: int
    rows: tuple[IntRow, ...]
    ncols: int

    def __init__(self, den: int, rows: tuple[IntRow, ...], ncols: int):
        # positional only: Record's generic __init__ takes twice as long
        _set(self, "den", den)
        _set(self, "rows", rows)
        _set(self, "ncols", ncols)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        """The matrix of any exact numbers, each read as `qof` reads it."""
        ratios = [[(j, pq) for j, x in enumerate(r)
                   if x != "0" and (pq := _ratio(x))[0]] for r in rows]
        if len({len(r) for r in rows}) > 1:
            raise ValueError("ragged rows")
        den = lcm(*(q for r in ratios for _, (_, q) in r))
        return _canon(den, tuple(tuple((j, p * (den // q)) for j, (p, q) in r)
                                 for r in ratios), len(rows[0]) if rows else 0)

    @staticmethod
    def from_ints(den: int, rows: Sequence[Sequence[int]]) -> "Matrix":
        """The matrix with entries rows[i][j] / den, den > 0."""
        return _canon(den, tuple(tuple((j, p) for j, p in enumerate(r) if p)
                                 for r in rows),
                      len(rows[0]) if rows else 0)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(1, tuple(((i, 1),) for i in range(n)), n)

    # -- shape / access ------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense rows as `Fraction`s in lowest terms."""
        z, den, out = Fraction(0), self.den, []
        for r in self.rows:
            e = [z] * self.ncols
            for j, p in r:
                e[j] = Fraction(p, den)
            out.append(tuple(e))
        return tuple(out)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(dict(self.rows[i]).get(j, 0), self.den)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other, summed over the lcm of the denominators."""
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} + "
                             f"{other.nrows}x{other.ncols}")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = []
        for ra, rb in zip(self.rows, other.rows):
            acc = {j: p * fa for j, p in ra}
            for j, q in rb:
                acc[j] = acc.get(j, 0) + q * fb
            out.append(tuple(sorted((j, v) for j, v in acc.items() if v)))
        return _canon(den, tuple(out), self.ncols)

    def __neg__(self) -> "Matrix":
        return Matrix(self.den, tuple(tuple((j, -p) for j, p in r)
                                      for r in self.rows), self.ncols)

    def scale(self, c) -> "Matrix":
        p, q = _ratio(c)
        rows = (tuple(tuple((j, p * v) for j, v in r) for r in self.rows)
                if p else ((),) * self.nrows)
        return _canon(self.den * q, rows, self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ "
                             f"{other.nrows}x{other.ncols}")
        brows, width = other.rows, other.ncols
        out = []
        # when other stores every entry, each nonzero row of self makes
        # products in every column, so a list accumulates; otherwise a
        # dict does, so a wide sparse product never walks empty columns
        if sum(map(len, brows)) == len(brows) * width:
            for row in self.rows:
                acc = [0] * width
                for k, p in row:
                    for j, q in brows[k]:
                        acc[j] += p * q
                out.append(tuple([(j, x) for j, x in enumerate(acc) if x]))
        else:
            for row in self.rows:
                sparse: dict[int, int] = {}
                for k, p in row:
                    for j, q in brows[k]:
                        sparse[j] = sparse.get(j, 0) + p * q
                out.append(tuple(sorted([(j, x) for j, x in sparse.items()
                                         if x])))
        return _canon(self.den * other.den, tuple(out), width)

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        """Matrix times column vector."""
        dv, w = int_vector(vec)
        if len(w) != self.ncols:
            raise ValueError("vector length mismatch")
        den, z = self.den * dv, Fraction(0)
        out = []
        for row in self.rows:
            acc = 0
            for j, p in row:
                acc += p * w[j]
            out.append(Fraction(acc, den) if acc else z)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return self._transposed

    @cached_property
    def _transposed(self) -> "Matrix":
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for j, p in r:
                cols[j].append((i, p))
        return Matrix(self.den, tuple(map(tuple, cols)), self.nrows)

    def trace(self) -> Fraction:
        return Fraction(sum(p for i, r in enumerate(self.rows)
                            for j, p in r if j == i), self.den)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.rows)

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_skew(self) -> bool:
        return self == -self.transpose()

    # -- elimination ---------------------------------------------------

    def rref(self) -> tuple["Matrix", int]:
        """Reduced row echelon form and rank: the rank pivot rows in
        ascending pivot column, then zero rows. The RREF of a matrix is
        unique, so it does not depend on pivot order. Each reduced row,
        divided by its content and put over its pivot, is in lowest terms,
        so the lcm of those pivots is the canonical denominator (a
        negative pivot's quotient carries the sign)."""
        over = []
        for c, row in _reduced((dict(r) for r in self.rows), self.ncols):
            g = gcd(*row.values())
            over.append((row[c] // g,
                         sorted((j, p // g) for j, p in row.items())))
        den = lcm(*(a for a, _ in over))
        out = tuple(tuple((j, p * (den // a)) for j, p in r) for a, r in over)
        return (Matrix(den, out + ((),) * (self.nrows - len(out)), self.ncols),
                len(out))

    def rank(self) -> int:
        return self.rref()[1]

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        """Basis of the right kernel, in deterministic RREF-derived form:
        each `nullspace_of` vector over its last nonzero entry."""
        out = []
        for v in nullspace_of((dict(r) for r in self.rows), self.ncols):
            d = next(x for x in reversed(v) if x)
            out.append(tuple(Fraction(x, d) for x in v))
        return out

    def det(self) -> Fraction:
        """Determinant: the product of the `_pivots`, signed by the parity
        of their columns in row order, over den^n; 0 once a row keeps no
        entry in the matrix's columns."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        num, dn, cols = 1, self.den ** n, []
        for c, p, s in _pivots(self.rows):
            if c >= n:
                return Fraction(0)
            num, dn = num * p, dn * s
            cols.append(c)
        for i in range(n):   # sort cols by swaps; each flips the sign
            while (c := cols[i]) != i:
                cols[i], cols[c], num = cols[c], c, -num
        return Fraction(num, dn)

    def inverse(self) -> "Matrix":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        d = self.den
        red, _ = Matrix(d, tuple(r + ((n + i, d),)
                                 for i, r in enumerate(self.rows)),
                        2 * n).rref()
        # the identity block keeps the augmented rank at n even when the
        # left block is singular; the left block is I iff row i pivots
        # at column i
        if any(r[0][0] != i for i, r in enumerate(red.rows)):
            raise ValueError("matrix is singular")
        return _canon(red.den, tuple(tuple((j - n, p) for j, p in r[1:])
                                     for r in red.rows), n)

    def leading_minors_positive(self) -> tuple[bool, int, Fraction]:
        """Sylvester's criterion for symmetric matrices.

        Returns (ok, k, minor): on failure, k is the size of the first
        non-positive leading principal minor and minor its value.

        While row i's pivot (`_pivots`) sits in column i, the k-th leading
        minor is the product of the first k pivots; every earlier one is
        positive, so it fails at the first negative pivot. A pivot right
        of its row's column leaves a zero minor.
        """
        if self.nrows != self.ncols:
            raise ValueError("leading minors of a non-square matrix")
        num = dn = 1
        for k, (c, p, s) in enumerate(_pivots(self.rows), 1):
            if c != k - 1:
                return False, k, Fraction(0)
            num, dn = num * p, dn * s
            if (p < 0) != (s < 0):
                return False, k, Fraction(num, dn * self.den ** k)
        return True, 0, Fraction(1)


def _pivots(rows: Sequence[IntRow]) -> Iterator[tuple[int, int, int]]:
    """(c, p, s) per row in order: `echelon` stores row i, given a 1 at
    column n + i, at its pivot column c with p there. That 1 has become
    s, the factor the row was scaled by, so p / s is the Gaussian pivot
    of the rows as given; c >= n when the row reduced to zero. The entry
    is popped, so later rows pick up no fill from it."""
    n, piv = len(rows), {}
    for i, r in enumerate(rows):
        echelon((dict(r + ((n + i, 1),)),), piv)
        c = next(reversed(piv))
        s = piv[c].pop(n + i)
        yield c, piv[c].get(c, 0), s


def echelon(rows: Iterable[Row], pivots: dict[int, Row] | None = None,
            width: int | None = None) -> dict[int, Row]:
    """Sparse fraction-free echelon form: a row is reduced by the stored
    row of its smallest column (`_eliminate`) until it is empty or that
    column is new, then stored as given. Its size is the rank. `pivots`,
    the echelon form of other rows, is extended in place. It returns once
    it holds `width` pivots, one per column: every later row would
    reduce to zero."""
    if pivots is None:
        pivots = {}
    for row in rows:
        if len(pivots) == width:
            break
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


def _reduced(rows: Iterable[Row], width: int) -> list[tuple[int, Row]]:
    """(pivot column, row), ascending: the `echelon` rows (of `width`
    columns) back-substituted in ints, last pivot first, so each is 0 at
    every other pivot."""
    piv = echelon(rows, width=width)
    for c in sorted(piv, reverse=True):
        for k in [k for k in piv[c] if k != c and k in piv]:
            piv[c] = _eliminate(piv[c], piv[k], k)
    return sorted(piv.items())


def nullspace_of(rows: Iterable[Row], ncols: int) -> list[list[int]]:
    """Basis of {x : row . x = 0 for every int row}: per free column fc,
    d > 0 at fc (its last nonzero) and -d r_fc / r_c at each pivot c < fc,
    r the reduced row of c, d the least such that all are ints."""
    red = _reduced(rows, ncols)
    basis = []
    for fc in sorted(set(range(ncols)) - {c for c, _ in red}):
        hits = [(c, row) for c, row in red if fc in row]
        v = [0] * ncols
        v[fc] = d = lcm(*(row[c] for c, row in hits))
        for c, row in hits:
            v[c] = -row[fc] * (d // row[c])
        basis.append(v)
    return basis


class Subspace(Record):
    """Subspace of Q^n in canonical form: basis rows are the RREF of any
    spanning set, so two equal subspaces compare equal as records."""

    basis: Matrix  # RREF, one row per basis vector, no zero rows

    @staticmethod
    def span(ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        """Each vector enters as its ints over its own denominator: a
        row's scale changes neither the span nor the RREF."""
        rows = []
        for v in vectors:
            w = int_vector(v)[1]
            if len(w) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
            rows.append(tuple((j, p) for j, p in enumerate(w) if p))
        return Subspace.of_rows(ambient_dim, rows)

    @staticmethod
    def of_rows(ambient_dim: int, rows: Sequence[IntRow]) -> "Subspace":
        """The span of sparse int rows as a `Matrix` or a `Tensor3` stores
        them, ((column, value), ...), read as they are."""
        if not rows:
            return Subspace.zero(ambient_dim)
        red, rank = Matrix(1, tuple(rows), ambient_dim).rref()
        return Subspace(Matrix(red.den, red.rows[:rank], ambient_dim))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(Matrix(1, (), ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(Matrix.identity(ambient_dim))

    @property
    def ambient_dim(self) -> int:
        return self.basis.ncols

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @cached_property
    def annihilator(self) -> Matrix:
        """Int rows spanning {a : a . b = 0 for every b in the subspace}:
        the `nullspace_of` the basis rows, d - k of them. v is in the
        subspace iff every row kills it."""
        return Matrix(1, tuple(tuple((j, p) for j, p in enumerate(v) if p)
                               for v in nullspace_of(
                                   map(dict, self.basis.rows),
                                   self.ambient_dim)),
                      self.ambient_dim)

    def contains(self, vec: Sequence) -> bool:
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length != ambient dimension")
        return not any(self.annihilator.apply(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        if not other.dim:
            return True
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("vector length != ambient dimension")
        return (other.basis @ self.annihilator.transpose()).is_zero()

    def invariant_under(self, m: Matrix) -> bool:
        """m maps the subspace into itself: A m B^T = 0, A the annihilator
        and B the basis, one product of d - k rows."""
        return (self.basis @ (self.annihilator @ m).transpose()).is_zero()

    def intersect(self, other: "Subspace") -> "Subspace":
        """The vectors both annihilators kill."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.span(self.ambient_dim, nullspace_of(
            map(dict, self.annihilator.rows + other.annihilator.rows),
            self.ambient_dim))


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
    comp = Subspace.span(s.ambient_dim, nullspace_of(
        (dict(r) for r in constraints.rows), constraints.ncols))
    if comp.dim != s.ambient_dim - s.dim:
        raise SingularGram(
            f"form degenerate on subspace: complement dim {comp.dim}, "
            f"expected {s.ambient_dim - s.dim}")
    # right dimension is not enough: a degenerate restriction leaves a
    # radical, the intersection with s, of dim d - rank of s and comp
    # stacked
    d = s.ambient_dim
    rank = len(echelon((dict(r) for r in s.basis.rows + comp.basis.rows),
                       width=d))
    if rank < d:
        raise SingularGram(
            f"form degenerate on subspace: radical has dim {d - rank}")
    return comp
