"""The fraction-free elimination behind `rref`, `rank`, `nullspace`,
`inverse` and `Subspace.span` against the `Fraction` Gauss-Jordan route in
`support.fraction_rref`, entry for entry, and `Subspace.contains` against
the rank of the basis stacked with the vector.

Inputs are seeded: mostly zero, dense with 20-30 bit numerators and
denominators, singular, with a zero row or a zero column, the empty
matrix and a matrix with rows but no columns; a hypothesis property
draws more.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from liesymp import Matrix, Subspace
from support import fraction_rref

F = Fraction


def _entry(rng, density, bits):
    if rng.random() >= density:
        return F(0)
    lo, hi = bits
    num = rng.getrandbits(rng.randint(lo, hi)) or 1
    den = rng.getrandbits(rng.randint(lo, hi)) or 1
    return F(rng.choice((-1, 1)) * num, den)


def _random(rng, nrows, ncols, density, bits=(1, 3)):
    return Matrix.from_rows([[_entry(rng, density, bits)
                              for _ in range(ncols)] for _ in range(nrows)])


def _cases():
    rng = random.Random(20261019)
    out = [("empty", Matrix.from_rows([])), ("no_columns", Matrix.from_rows([[]] * 3)),
           ("zero_3x4", Matrix.from_rows([[0] * 4] * 3))]
    for t in range(8):
        n, c = rng.randint(1, 9), rng.randint(1, 9)
        out.append((f"sparse{t}", _random(rng, n, c, 0.15)))
        out.append((f"dense{t}", _random(rng, n, c, 1.0, (20, 30))))
        out.append((f"square_dense{t}", _random(rng, n, n, 1.0, (20, 30))))
    for t in range(4):
        n = rng.randint(3, 7)
        a = _random(rng, n, 2, 0.8, (20, 30))
        b = _random(rng, 2, n + t % 2, 0.8, (20, 30))
        out.append((f"singular{t}", a @ b))  # rank <= 2 < n
        rows = [list(r) for r in _random(rng, n, n, 0.7, (20, 30)).entries]
        rows[rng.randrange(n)] = [F(0)] * n
        out.append((f"zero_row{t}", Matrix.from_rows(rows)))
        rows = [list(r) for r in _random(rng, n, n, 0.7, (20, 30)).entries]
        j = rng.randrange(n)
        for r in rows:
            r[j] = F(0)
        out.append((f"zero_col{t}", Matrix.from_rows(rows)))
    return out


CASES = _cases()
IDS = [name for name, _ in CASES]


def _oracle_nullspace(m):
    """Per free column of the Fraction RREF: 1 there, minus the RREF
    column at each pivot."""
    red, rank = fraction_rref(m)
    pivots = [next(c for c, x in enumerate(red.entries[r]) if x)
              for r in range(rank)]
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        v = [F(0)] * m.ncols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.entries[r][fc]
        basis.append(tuple(v))
    return basis


def _oracle_inverse(m):
    """The right block of the Fraction RREF of [m | I], or None when the
    left block is not the identity."""
    n = m.nrows
    red, _ = fraction_rref(Matrix.from_rows(
        [list(m.entries[i]) + [int(i == j) for j in range(n)]
         for i in range(n)]))
    if any(red.entries[i][j] != (i == j) for i in range(n) for j in range(n)):
        return None
    return tuple(r[n:] for r in red.entries)


def _assert_canonical(entries):
    for x in entries:
        assert type(x) is Fraction
        assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


def _check_elimination(m):
    red, rank = m.rref()
    want, want_rank = fraction_rref(m)
    assert red.entries == want.entries and rank == want_rank
    _assert_canonical(x for r in red.entries for x in r)
    assert all(not any(r) for r in red.entries[rank:])
    assert m.rank() == want_rank
    assert m.nullspace() == _oracle_nullspace(m)
    s = Subspace.span(m.ncols, m.entries)
    assert s.basis.entries == want.entries[:want_rank]


@pytest.mark.parametrize("name,m", CASES, ids=IDS)
def test_rref_rank_nullspace_and_span_match_fraction_elimination(name, m):
    _check_elimination(m)


@pytest.mark.parametrize("name,m", CASES, ids=IDS)
def test_inverse_matches_fraction_elimination(name, m):
    if m.nrows != m.ncols:
        with pytest.raises(ValueError, match="non-square"):
            m.inverse()
        return
    want = _oracle_inverse(m)
    if want is None:
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
    else:
        assert m.inverse().entries == want


def test_the_cases_cover_full_and_deficient_rank():
    ranks = {name: fraction_rref(m)[1] for name, m in CASES}
    square = [(n, m) for n, m in CASES if m.nrows == m.ncols > 0]
    assert any(ranks[n] == m.nrows for n, m in square)
    assert any(ranks[n] < m.nrows for n, m in square)
    assert all(ranks[n] < m.nrows for n, m in CASES
               if n.startswith(("singular", "zero_row", "zero_col")))


def _stacked_rank_contains(s, v):
    """v is in s iff stacking it under the basis keeps the rank."""
    if not any(v):
        return True
    return fraction_rref(Matrix.from_rows(
        list(s.basis.entries) + [list(v)]))[1] == s.dim


@pytest.mark.parametrize("name,m", CASES, ids=IDS)
def test_contains_matches_stacked_rank(name, m):
    rng = random.Random(name)
    s = Subspace.span(m.ncols, m.entries)
    if m.ncols == 0:
        assert s.contains(()) and s.dim == 0
        return
    for _ in range(4):
        coeffs = [_entry(rng, 0.8, (1, 25)) for _ in range(m.nrows)]
        v = [sum((c * r[k] for c, r in zip(coeffs, m.entries)), F(0))
             for k in range(m.ncols)]
        assert s.contains(v) and _stacked_rank_contains(s, v)
        k = rng.randrange(m.ncols)
        off = v[:k] + [v[k] + F(rng.randint(1, 9), rng.randint(1, 9))] \
            + v[k + 1:]
        assert s.contains(off) == _stacked_rank_contains(s, off)


def test_contains_rejects_one_coordinate_off_a_proper_subspace():
    m = dict(CASES)["singular0"]
    s = Subspace.span(m.ncols, m.entries)
    assert 0 < s.dim < m.ncols
    missed = 0
    for k in range(m.ncols):
        v = list(s.basis.entries[0])
        v[k] += 1
        assert s.contains(v) == _stacked_rank_contains(s, v)
        missed += not s.contains(v)
    assert missed > 0


_ENTRIES = st.one_of(
    st.just(F(0)), st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.builds(F, st.integers(-2**30, 2**30), st.integers(1, 2**30)))


@st.composite
def _matrices(draw):
    n, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return Matrix.from_rows(draw(st.lists(
        st.lists(_ENTRIES, min_size=c, max_size=c),
        min_size=n, max_size=n))) if n else Matrix.from_rows([])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_matrices())
def test_elimination_matches_fraction_route_on_drawn_matrices(m):
    _check_elimination(m)
    if m.nrows == m.ncols:
        want = _oracle_inverse(m)
        if want is None:
            with pytest.raises(ValueError, match="singular"):
                m.inverse()
        else:
            assert m.inverse().entries == want
