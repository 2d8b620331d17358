"""Every `Matrix` operation against a plain nested-`Fraction` reference.

`Matrix` keeps ints over one denominator; the reference here keeps a
list of `Fraction` rows and does the textbook thing. Each result must
equal the reference entry for entry and be in the canonical state
(den > 0, rows listing nonzero entries in ascending column, no factor
common to den and every numerator). Inputs: mostly-zero matrices, dense
ones with 20-30 bit numerators and denominators, the 0x0, 0xn and nx0
shapes, entries given as ints, `Fraction`s and unreduced "p/q" strings.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from liesymp import Matrix
from support import fraction_rref

F = Fraction

_SPARSE = st.one_of(*[st.just(F(0))] * 4, st.integers(-3, 3).map(F),
                    st.builds(F, st.integers(-9, 9), st.integers(1, 9)))
_DENSE = st.builds(F, st.integers(2**20, 2**30) | st.integers(-2**30, -2**20),
                   st.integers(2**20, 2**30))


def _as_given(draw, x: Fraction):
    """x as an int, a `Fraction` or an unreduced "p/q" string."""
    kind = draw(st.sampled_from(("fraction", "int", "string")))
    if kind == "int" and x.denominator == 1:
        return int(x)
    if kind == "string":
        m = draw(st.integers(1, 6))
        return f"{x.numerator * m}/{x.denominator * m}"
    return x


@st.composite
def _ref(draw, nrows, ncols):
    """A reference matrix: its `Fraction` rows and the same matrix built
    by `from_rows` from entries in mixed forms."""
    entries = draw(st.sampled_from((_SPARSE, _DENSE)))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows == 0:   # from_rows([]) is 0x0; 0xn is an nx0 transposed
        return rows, Matrix.from_rows([[]] * ncols).transpose()
    return rows, Matrix.from_rows([[_as_given(draw, x) for x in r]
                                   for r in rows])


def _canonical(m: Matrix) -> None:
    assert m.den > 0 and len(m.rows) == m.nrows
    nums = [p for r in m.rows for _, p in r]
    assert gcd(m.den, *nums) == 1
    for r in m.rows:
        cols = [j for j, _ in r]
        assert cols == sorted(set(cols)) and all(0 <= j < m.ncols
                                                 for j in cols)
        assert all(p for _, p in r)


def _same(m: Matrix, rows: list, ncols: int) -> None:
    _canonical(m)
    assert m.ncols == ncols and m.nrows == len(rows)
    assert m.entries == tuple(tuple(r) for r in rows)
    assert all(type(x) is F for r in m.entries for x in r)
    if rows:
        assert m == Matrix.from_rows(rows)


def _matmul(a, b, k):
    return [[sum((x * b[t][j] for t, x in enumerate(r)), F(0))
             for j in range(k)] for r in a]


def _det(rows):
    m, n, det = [list(r) for r in rows], len(rows), F(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return F(0)
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _inverse(rows):
    n = len(rows)
    if _det(rows) == 0:
        return None
    aug = Matrix.from_rows([list(r) + [int(i == j) for j in range(n)]
                            for i, r in enumerate(rows)])
    red, _ = fraction_rref(aug)
    return [list(r[n:]) for r in red.entries]


@st.composite
def _problem(draw):
    n, m, k = (draw(st.integers(0, 5)) for _ in range(3))
    a_rows, a = draw(_ref(n, m))
    b_rows, b = draw(_ref(n, m))
    c_rows, c = draw(_ref(m, k))
    v = [draw(_SPARSE | _DENSE) for _ in range(m)]
    s = draw(_SPARSE | _DENSE)
    return (a_rows, a), (b_rows, b), (c_rows, c), v, s, (n, m, k)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_problem())
def test_every_operation_matches_the_fraction_reference(problem):
    (ar, a), (br, b), (cr, c), v, s, (n, m, k) = problem
    _same(a, ar, m)
    _same(b, br, m)
    _same(a + b, [[x + y for x, y in zip(p, q)] for p, q in zip(ar, br)], m)
    _same(a - b, [[x - y for x, y in zip(p, q)] for p, q in zip(ar, br)], m)
    _same(-a, [[-x for x in r] for r in ar], m)
    _same(a.scale(s), [[s * x for x in r] for r in ar], m)
    _same(a.scale(str(s)), [[s * x for x in r] for r in ar], m)
    _same(a @ c, _matmul(ar, cr, k), k)
    assert a.apply(v) == tuple(sum((x * y for x, y in zip(r, v)), F(0))
                               for r in ar)
    assert a.apply([str(x) for x in v]) == a.apply(v)
    at = [[ar[i][j] for i in range(n)] for j in range(m)]
    _same(a.transpose(), at, n)
    assert (a == b) == (ar == br) and (a != b) == (ar != br)
    assert a.is_zero() == (not any(x for r in ar for x in r))
    assert all(a.entry(i, j) == ar[i][j] for i in range(n) for j in range(m))
    red, rank = a.rref()
    want, want_rank = fraction_rref(Matrix.from_rows(ar)
                                    if n else Matrix.from_rows([]))
    assert rank == want_rank and red.entries[:rank] == want.entries[:rank]
    assert not any(red.rows[rank:])
    _canonical(red)
    for vec in a.nullspace():
        assert a.apply(vec) == (F(0),) * n
    assert len(a.nullspace()) == m - rank
    if n != m:
        return
    assert a.trace() == sum((ar[i][i] for i in range(n)), F(0))
    assert a.is_symmetric() == (ar == at)
    assert a.is_skew() == (ar == [[-x for x in r] for r in at])
    sym, skew = a + a.transpose(), a - a.transpose()
    assert sym.is_symmetric() and skew.is_skew()
    assert skew.is_symmetric() == skew.is_zero()
    assert sym.is_skew() == sym.is_zero()
    assert a.det() == _det(ar)
    ok, size, minor = sym.leading_minors_positive()
    symr = sym.entries
    minors = [_det([r[:t] for r in symr[:t]]) for t in range(1, n + 1)]
    bad = next((t for t, d in enumerate(minors, 1) if d <= 0), None)
    assert (ok, size, minor) == ((True, 0, F(1)) if bad is None
                                 else (False, bad, minors[bad - 1]))
    inv = _inverse(ar)
    if inv is None:
        with pytest.raises(ValueError, match="singular"):
            a.inverse()
    else:
        _same(a.inverse(), inv, n)
        assert a @ a.inverse() == Matrix.identity(n)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_identity_and_empty_shapes(n):
    _same(Matrix.identity(n), [[F(int(i == j)) for j in range(n)]
                               for i in range(n)], n)
    no_cols = Matrix.from_rows([[]] * n)
    no_rows = no_cols.transpose()
    assert (no_cols.nrows, no_cols.ncols) == (n, 0)
    assert (no_rows.nrows, no_rows.ncols) == (0, n)
    assert no_cols.entries == ((),) * n and no_rows.entries == ()
    assert (no_cols @ no_rows).entries == ((F(0),) * n,) * n
    assert (no_rows @ no_cols).entries == ()
    assert no_rows.nullspace() == [tuple(F(int(i == j)) for j in range(n))
                                   for i in range(n)]
    assert no_cols.rref() == (no_cols, 0) and no_rows.rref() == (no_rows, 0)
    assert Matrix.from_rows([]).det() == 1


def test_equal_matrices_over_different_denominators_are_equal():
    half = Matrix.from_rows([["2/4", 0], [0, "1/2"]])
    assert half == Matrix.from_rows([["1/2", 0], [0, F(1, 2)]])
    assert hash(half) == hash(Matrix.identity(2).scale(F(1, 2)))
    assert (half.den, half.rows) == (2, (((0, 1),), ((1, 1),)))
    three = Matrix.from_rows([["6/2", "-9/3"]])
    assert three == Matrix.from_rows([[3, -3]]) and three.den == 1
    assert (half + half) == Matrix.identity(2)
    assert (half @ Matrix.identity(2).scale(2)).den == 1
    assert half - half == Matrix.from_rows([[0, 0], [0, 0]])
    assert (half - half).den == 1


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: _ref(n, n)),
       st.integers(1, 2**30), st.integers(1, 2**30))
def test_the_same_matrix_from_any_denominator_has_one_state(ref, p, q):
    rows, m = ref
    other = Matrix.from_rows([[f"{x.numerator * p}/{x.denominator * p}"
                               for x in r] for r in rows]) if rows else m
    assert other == m and hash(other) == hash(m)
    assert (other.den, other.rows) == (m.den, m.rows)
    round_trip = m.scale(F(p, q)).scale(F(q, p))
    assert round_trip == m and hash(round_trip) == hash(m)
