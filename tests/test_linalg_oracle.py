"""The exact kernel against sympy on seeded random rational matrices,
the common-denominator products on chosen denominators and against a naive
Fraction triple sum, the one-pass Sylvester check against the per-k
det route, and a subspace's annihilator route against sympy and against
membership by pivot subtraction (`support.pivot_contains`).

sympy is an independent exact implementation; it is used here only, never
by the library.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from liesymp import Matrix, Subspace
from support import col, diag as diag_matrix, image_under, pivot_contains

F = Fraction


def _random_matrix(rng, nrows, ncols, density):
    return Matrix.from_rows([
        [F(rng.randint(-6, 6), rng.randint(1, 5))
         if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)])


def _rat(x):
    return sympy.Rational(x.numerator, x.denominator)


def _to_sympy(m):
    return sympy.Matrix(m.nrows, m.ncols,
                        [_rat(x) for r in m.entries for x in r])


def _from_sympy(s):
    return tuple(tuple(F(int(s[i, j].p), int(s[i, j].q))
                       for j in range(s.cols)) for i in range(s.rows))


def _cases():
    """(name, matrix): mostly zero, dense, singular, with a zero row or a
    zero column, the empty matrix and a matrix with rows but no columns."""
    rng = random.Random(20261018)
    out = [("empty", Matrix.from_rows([])), ("no_columns", Matrix.from_rows([[]] * 3))]
    for t in range(12):
        n = rng.randint(1, 7)
        c = rng.randint(1, 7)
        out.append((f"sparse{t}", _random_matrix(rng, n, c, 0.15)))
        out.append((f"dense{t}", _random_matrix(rng, n, c, 1.0)))
    for t in range(4):
        n = rng.randint(2, 6)
        a = _random_matrix(rng, n, 2, 0.8)
        b = _random_matrix(rng, 2, n, 0.8)
        out.append((f"singular{t}", a @ b))  # rank <= 2 < n for n > 2
        m = [list(r) for r in _random_matrix(rng, n, n, 0.7).entries]
        m[rng.randrange(n)] = [F(0)] * n
        out.append((f"zero_row{t}", Matrix.from_rows(m)))
        m = [list(r) for r in _random_matrix(rng, n, n, 0.7).entries]
        j = rng.randrange(n)
        for r in m:
            r[j] = F(0)
        out.append((f"zero_col{t}", Matrix.from_rows(m)))
    return out


CASES = _cases()
IDS = [name for name, _ in CASES]


@pytest.mark.parametrize("name,m", CASES, ids=IDS)
def test_matmul_and_apply_match_sympy(name, m):
    rng = random.Random(name)
    if m.nrows == 0:
        assert (m @ m) == m
        assert m.apply([]) == ()
        return
    for density in (0.2, 1.0):
        other = _random_matrix(rng, m.ncols, rng.randint(1, 6), density)
        assert (m @ other).entries == _from_sympy(
            _to_sympy(m) * _to_sympy(other))
        v = [F(rng.randint(-4, 4), rng.randint(1, 3))
             if rng.random() < density else F(0) for _ in range(m.ncols)]
        expected = _to_sympy(m) * sympy.Matrix(len(v), 1, [_rat(x) for x in v])
        assert m.apply(v) == tuple(r[0] for r in _from_sympy(expected))


def _assert_canonical(entries):
    for x in entries:
        assert type(x) is Fraction
        assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


def _check_products(a, b):
    """a @ b and a.apply(each column of b) against sympy, entries canonical."""
    expected = _from_sympy(_to_sympy(a) * _to_sympy(b))
    got = a @ b
    assert got.entries == expected
    _assert_canonical(x for r in got.entries for x in r)
    for j in range(b.ncols):
        got_col = a.apply(col(b, j))
        assert got_col == tuple(r[j] for r in expected)
        _assert_canonical(got_col)


# primes just below and above 2^30: pairwise coprime denominators whose
# lcm over a row or a column runs to 60-120 bits
_P = [int(sympy.prevprime(2**30 - 2 * i)) for i in range(3)] + [
    int(sympy.nextprime(2**30 + 2 * i)) for i in range(3)]


def test_common_denominator_products_on_coprime_denominators_near_2_30():
    rng = random.Random(30)
    for _ in range(6):
        a = Matrix.from_rows([[F(rng.randint(-2**31, 2**31), rng.choice(_P))
                               for _ in range(4)] for _ in range(3)])
        b = Matrix.from_rows([[F(rng.randint(-2**31, 2**31), rng.choice(_P))
                               if rng.random() < 0.7 else 0
                               for _ in range(5)] for _ in range(4)])
        _check_products(a, b)


def test_common_denominator_products_on_mixed_integer_and_fractional_rows():
    # rows of integers (row lcm 1) beside rows of fractions, in both
    # operands, so the left row lcm and the right operand's lcm differ
    a = Matrix.from_rows([[3, -2, 0, 7],
                          ["1/2", 5, "-3/7", 0],
                          [0, 0, 0, 0],
                          ["9/11", "-4/13", "1/77", 2]])
    b = Matrix.from_rows([[1, 0, -4],
                          ["2/3", "-5/9", 0],
                          [6, 1, -1],
                          [0, "1/26", "7/5"]])
    _check_products(a, b)
    _check_products(b.transpose(), a.transpose())
    # integer left operand against a fractional right one and back
    ints = Matrix.from_rows([[2, -1, 4, 0], [0, 3, 0, 1]])
    _check_products(ints, b)
    _check_products(b.transpose(), ints.transpose())


def test_common_denominator_products_cancel_to_zero_and_reduce():
    # row (1/2, 1/3) against (2/3, -1/2)^T sums to 1/3 - 1/6 = 1/6; against
    # (2, -3)^T it cancels to 0; against (3/5, 9/10) it gives 3/10 + 3/10,
    # whose common-denominator sum reduces to 3/5
    a = Matrix.from_rows([["1/2", "1/3"], ["1/4", "-1/6"]])
    b = Matrix.from_rows([["2/3", 2, "3/5"], ["-1/2", -3, "9/10"]])
    assert (a @ b).entries == ((F(1, 6), F(0), F(3, 5)),
                               (F(1, 4), F(1), F(0)))
    _check_products(a, b)
    # the off-diagonal sums of J @ J cancel to 0 and the diagonal ones,
    # 9/49 - 58/49 over a common denominator, reduce to -1
    j = Matrix.from_rows([["3/7", "-116/343"], ["7/2", "-3/7"]])
    assert j @ j == Matrix.identity(2).scale(-1)
    _check_products(j, j)
    assert j.apply(j.apply(["-2/5", "4/15"])) == (F(2, 5), F(-4, 15))


def _naive_matmul(a, b):
    return tuple(tuple(sum((a.entries[i][k] * b.entries[k][j]
                            for k in range(a.ncols)), F(0))
                       for j in range(b.ncols)) for i in range(a.nrows))


_ENTRIES = st.one_of(
    st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**6)),
    st.builds(F, st.integers(-50, 50), st.sampled_from(_P)))


@st.composite
def _operands(draw):
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))

    def matrix(rows, cols):
        return Matrix.from_rows(draw(st.lists(
            st.lists(_ENTRIES, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))

    return matrix(n, k), matrix(k, m), draw(
        st.lists(_ENTRIES, min_size=k, max_size=k))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_operands())
def test_matmul_and_apply_match_naive_fraction_sums(ops):
    a, b, v = ops
    got = a @ b
    assert got.entries == _naive_matmul(a, b)
    _assert_canonical(x for r in got.entries for x in r)
    got = a.apply(v)
    assert got == tuple(sum((x * y for x, y in zip(r, v)), F(0))
                        for r in a.entries)
    _assert_canonical(got)


@pytest.mark.parametrize("name,m", CASES, ids=IDS)
def test_rref_rank_and_nullspace_match_sympy(name, m):
    red, rank = m.rref()
    assert m.rank() == rank
    if m.nrows == 0:
        assert red == m and rank == 0 and m.nullspace() == []
        return
    s = _to_sympy(m)
    s_red, pivots = s.rref()
    assert red.entries == _from_sympy(s_red)
    assert rank == len(pivots)
    # both give, per free column, the vector with 1 there and minus the
    # RREF column in the pivot positions
    assert m.nullspace() == [tuple(r[0] for r in _from_sympy(k))
                             for k in s.nullspace()]


@pytest.mark.parametrize("name,m", CASES, ids=IDS)
def test_det_inverse_and_minors_match_sympy(name, m):
    if m.nrows != m.ncols:
        with pytest.raises(ValueError):
            m.det()
        return
    s = _to_sympy(m)
    d = m.det()
    assert d == F(int(s.det().p), int(s.det().q))
    if d == 0:
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
    else:
        assert m.inverse().entries == _from_sympy(s.inv())
    minors = [s[:k, :k].det() for k in range(1, m.nrows + 1)]
    first_bad = next((k for k, x in enumerate(minors, 1) if x <= 0), None)
    ok, k, minor = m.leading_minors_positive()
    if first_bad is None:
        assert (ok, k, minor) == (True, 0, 1)
    else:
        x = minors[first_bad - 1]
        assert (ok, k, minor) == (False, first_bad, F(int(x.p), int(x.q)))


def _minors_by_det(m):
    """The per-k route: d separate determinants of the leading blocks."""
    for k in range(1, m.nrows + 1):
        d = Matrix.from_rows([r[:k] for r in m.entries[:k]]).det()
        if d <= 0:
            return False, k, d
    return True, 0, Fraction(1)


def _ldlt(rng, diag, density):
    """L D L^T with L unit lower triangular: its k-th leading minor is
    d_1 * ... * d_k, so the signs of `diag` place the first failure."""
    n = len(diag)
    low = Matrix.from_rows([
        [1 if i == j else
         (F(rng.randint(-3, 3), rng.randint(1, 3))
          if j < i and rng.random() < density else 0)
         for j in range(n)] for i in range(n)])
    return low @ diag_matrix(diag) @ low.transpose()


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
@pytest.mark.parametrize("where", ["first", "middle", "last", "none"])
@pytest.mark.parametrize("bad", [F(0), F(-7, 3)])
def test_one_pass_sylvester_matches_per_k_det(dim, where, bad):
    rng = random.Random(f"{dim}-{where}-{bad}")
    k = {"first": 1, "middle": (dim + 1) // 2, "last": dim,
         "none": None}[where]
    for density in (0.3, 1.0):
        diag = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(dim)]
        if k is not None:
            diag[k - 1] = bad
        m = _ldlt(rng, diag, density)
        got = m.leading_minors_positive()
        assert got == _minors_by_det(m)
        if k is None:
            assert got == (True, 0, 1)
        else:
            expected = F(1)
            for x in diag[:k]:
                expected *= x
            assert got == (False, k, expected)


def test_one_pass_sylvester_on_random_symmetric_matrices():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = _random_matrix(rng, n, n, rng.choice([0.3, 1.0]))
        m = a + a.transpose() + Matrix.identity(n).scale(rng.randint(-2, 6))
        assert m.leading_minors_positive() == _minors_by_det(m)


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_det_and_minors_on_coprime_row_denominators_near_2_30(n):
    # row i has denominator _P[i], so the lcm D of the matrix has 30n
    # bits and the k-th leading minor of the int rows carries D^k; the
    # diagonal shift makes the matrix diagonally dominant, so every
    # leading minor is positive and the pass runs to the end
    rng = random.Random(f"bareiss-{n}")
    for shift in (0, 2**35):
        m = Matrix.from_rows([
            [F(rng.randint(-2**31, 2**31) + (shift if i == j else 0), _P[i])
             for j in range(n)] for i in range(n)])
        s = _to_sympy(m)
        assert m.det() == F(int(s.det().p), int(s.det().q))
        minors = [s[:k, :k].det() for k in range(1, n + 1)]
        first_bad = next((k for k, x in enumerate(minors, 1) if x <= 0), None)
        if shift:
            assert first_bad is None
            assert m.leading_minors_positive() == (True, 0, 1)
        elif first_bad is not None:
            x = minors[first_bad - 1]
            assert m.leading_minors_positive() == (
                False, first_bad, F(int(x.p), int(x.q)))
    # det of a first row that pivots right of its own column, over
    # coprime denominators
    m = Matrix.from_rows([[0, F(3, _P[0]), F(-1, _P[0])],
                          [F(5, _P[1]), F(2, _P[1]), F(7, _P[1])],
                          [F(-4, _P[2]), F(1, _P[2]), F(9, _P[2])]])
    assert m.det() == F(int(_to_sympy(m).det().p), int(_to_sympy(m).det().q))


def _subspaces():
    """(d, S, T) for d = 1..8: S and T spanned by 0 to d + 1 random
    vectors (dependent ones included), with zero and full subspaces."""
    rng = random.Random("annihilator")
    out = []
    for d in range(1, 9):
        spaces = [Subspace.zero(d), Subspace.full(d)]
        for _ in range(6):
            r = rng.randint(0, d + 1)
            spaces.append(Subspace.span(d, _random_matrix(
                rng, r, d, rng.choice([0.3, 1.0])).entries))
        for s in spaces:
            out.append((d, s, rng.choice(spaces)))
    return out


@pytest.mark.parametrize("d,s,t", _subspaces())
def test_annihilator_routes_match_sympy_and_pivot_subtraction(d, s, t):
    rng = random.Random(f"{s}{t}")
    a, k = s.annihilator, s.dim
    # d - k independent rows that kill every basis row
    assert a.ncols == d and a.nrows == d - k
    sa = _to_sympy(a)
    assert sa.rank() == d - k
    assert all(x == 0 for x in sa * _to_sympy(s.basis).T)
    # contains: basis combinations, random vectors, the zero vector
    vecs = [[0] * d] + [_random_matrix(rng, 1, d, 0.6).entries[0]
                        for _ in range(4)]
    if k:
        vecs += list((_random_matrix(rng, 3, k, 0.8) @ s.basis).entries)
    for v in vecs:
        assert s.contains(v) == pivot_contains(s, v), (s, v)
    # contains_subspace: t, and subspaces of s
    subs = [t, Subspace.zero(d)]
    if k:
        subs.append(Subspace.span(d, (_random_matrix(
            rng, rng.randint(1, k), k, 0.8) @ s.basis).entries))
    for o in subs:
        assert s.contains_subspace(o) == all(
            pivot_contains(s, v) for v in o.basis.entries), (s, o)
    # invariant_under: random maps, and B^T W + C A, which maps s into
    # s without mapping everything into s; A here comes from sympy
    maps = [_random_matrix(rng, d, d, 0.6), Matrix.identity(d),
            Matrix.from_rows([[0] * d] * d)]
    kernel = [[F(int(x.p), int(x.q)) for x in c]
              for c in _to_sympy(s.basis).nullspace()]
    into = (s.basis.transpose() @ _random_matrix(rng, k, d, 0.8)
            if k else Matrix.from_rows([[0] * d] * d))
    if kernel:
        into = into + (_random_matrix(rng, d, len(kernel), 0.8)
                       @ Matrix.from_rows(kernel))
    maps.append(into)
    for m in maps:
        assert s.invariant_under(m) == all(
            pivot_contains(s, v) for v in image_under(s, m).basis.entries), (s, m)
    assert s.invariant_under(into)
    # intersect: dim S + dim T - rank [S; T], inside both
    meet = s.intersect(t)
    rank = sympy.Matrix.vstack(_to_sympy(s.basis), _to_sympy(t.basis)).rank()
    assert meet.dim == k + t.dim - rank
    assert all(pivot_contains(s, v) and pivot_contains(t, v)
               for v in meet.basis.entries)
