"""`echelon` returns once it holds as many pivots as the system has
columns. `nullspace_of`, `Matrix.rref` and `kernel_distribution` are held
to sympy on the two kinds of input where the stop matters: full-rank
systems followed by many redundant rows, and rank-deficient systems.
Each has a redundant or zero row before its rank is reached, so a stop
one pivot early, or at the first row that reduces to zero, gives a
different answer.

sympy is an independent exact implementation; it is used here only, never
by the library.
"""

import random
from fractions import Fraction

import pytest
import sympy

from liesymp import Matrix, Subspace
from liesymp.linalg import nullspace_of
from liesymp.nijenhuis import kernel_distribution
from support import from_dense

F = Fraction


def _row(rng, ncols):
    return [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ncols)]


def _combination(rng, rows):
    out = [F(0)] * len(rows[0])
    for r in rows:
        c = rng.randint(-3, 3)
        out = [x + c * y for x, y in zip(out, r)]
    return out


def _system(rng, ncols, rank, extra):
    """`rank` independent rows (with probability 1) of `ncols` columns: a
    zero row and a multiple of the first come before the second, a
    combination of the first two before the third; then `extra`
    combinations of them all."""
    basis = [_row(rng, ncols) for _ in range(rank)]
    rows = [basis[0], [F(0)] * ncols, [2 * x for x in basis[0]]]
    for i in range(1, rank):
        rows.append(basis[i])
        rows.append(_combination(rng, basis[:i + 1]))
    rows += [_combination(rng, basis) for _ in range(extra)]
    return rows


def _cases():
    rng = random.Random(20261022)
    out = []
    for ncols in (2, 5, 8):
        out.append((f"full{ncols}", _system(rng, ncols, ncols, 8 * ncols)))
        for rank in (1, ncols - 1):
            out.append((f"rank{rank}of{ncols}",
                        _system(rng, ncols, rank, 4 * ncols)))
    return out


CASES = _cases()
IDS = [name for name, _ in CASES]


def _sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in r] for r in rows])


def _fractions(s):
    return [[F(int(x.p), int(x.q)) for x in s.row(i)] for i in range(s.rows)]


@pytest.mark.parametrize("name,rows", CASES, ids=IDS)
def test_rref_and_nullspace_equal_sympy(name, rows):
    m = Matrix.from_rows(rows)
    s = _sympy(rows)
    s_red, pivots = s.rref()
    red, rank = m.rref()
    assert [list(r) for r in red.entries] == _fractions(s_red)
    assert rank == len(pivots) == m.rank()
    if name.startswith("full"):
        assert rank == m.ncols
    else:
        assert rank < m.ncols
    # nullspace_of puts each vector over its last nonzero entry, at its
    # free column, where sympy has 1
    want = [tuple(F(int(x.p), int(x.q)) for x in k) for k in s.nullspace()]
    ints = nullspace_of((dict(r) for r in m.rows), m.ncols)
    assert [tuple(F(x, next(y for y in reversed(v) if y)) for x in v)
            for v in ints] == want
    assert m.nullspace() == want


def _tensor(rng, dim, rank):
    """T(x, y) = S(P x, y), P a random map of rank `rank` and S random,
    with T(e_i, e_0) = c_i (e_0 + e_1): the first two rows of
    `kernel_distribution`'s system, (j, k) = (0, 0) and (0, 1), are
    equal. Rebuilt from its values so that its pairs are stored in
    ascending order, which puts those two rows first."""
    p = (Matrix.from_rows([_row(rng, rank) for _ in range(dim)])
         @ Matrix.from_rows([_row(rng, dim) for _ in range(rank)]))
    vals = [[[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim)]
             for _ in range(dim)] for _ in range(dim)]
    c = _row(rng, dim)
    for i in range(dim):
        vals[i][0] = [c[i], c[i]] + [F(0)] * (dim - 2)
    t = from_dense(dim, vals).map_first(p)
    return from_dense(dim, [[t.of_basis(i, j) for j in range(dim)]
                            for i in range(dim)])


@pytest.mark.parametrize("dim,rank", [(4, 4), (4, 2), (6, 6), (6, 3),
                                      (8, 8), (8, 7)])
def test_kernel_distribution_equals_sympy(dim, rank):
    rng = random.Random(f"kernel:{dim}:{rank}")
    n = _tensor(rng, dim, rank)
    # rows (j, k) of N(e_i, e_j)_k in column i, as kernel_distribution
    # reads them
    s = _sympy([[n.of_basis(i, j)[k] for i in range(dim)]
                for j in range(dim) for k in range(dim)])
    want = Subspace.span(dim, [[F(int(x.p), int(x.q)) for x in v]
                               for v in s.nullspace()])
    got = kernel_distribution(n)
    assert got == want
    assert got.dim == dim - s.rank() == dim - rank
