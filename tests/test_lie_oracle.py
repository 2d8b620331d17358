"""`LieAlgebra` holds its structure constants as one int bracket tensor.
Here it is held to `support.FractionTable`, the nested-`Fraction` table it
replaced, on drawn bracket tables: coefficients as ints, `Fraction`s and
unreduced "p/q" strings over coprime denominators, zero coefficients,
empty tables and dims 0 to 4. The tables need not satisfy Jacobi, so
they are built with the unchecked `LieAlgebra.from_brackets`."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from liesymp import Subspace, validate
from liesymp.errors import JacobiViolation
from liesymp.lie import LieAlgebra
from liesymp.serialization import algebra_from_dict, algebra_to_dict
from support import FractionTable

F = Fraction

_DENS = [1, 2, 3, 5, 7, 9]
_NUM = (st.integers(-3, 3)
        | st.builds(F, st.integers(-4, 4), st.sampled_from(_DENS))
        # unreduced: "p m / q m"
        | st.builds(lambda p, q, m: f"{p * m}/{q * m}", st.integers(-4, 4),
                    st.sampled_from(_DENS), st.sampled_from([1, 2, 6])))


@st.composite
def _tables(draw):
    """(dim, basis names, table). With `central`, every bracket lands on
    the last basis vector and never involves it, so Jacobi holds."""
    dim = draw(st.integers(0, 4))
    central = dim >= 3 and draw(st.booleans())
    top = dim - 1 if central else dim
    pairs = [(i, j) for i in range(top) for j in range(i + 1, top)]
    chosen = (draw(st.lists(st.sampled_from(pairs), unique=True))
              if pairs else [])
    targets = st.just(dim - 1) if central else st.integers(0, max(dim - 1, 0))
    table = {ij: draw(st.dictionaries(targets, _NUM, max_size=3))
             for ij in chosen}
    return dim, tuple(f"e{i}" for i in range(dim)), table


def _vectors(dim: int):
    return st.lists(_NUM, min_size=dim, max_size=dim)


def _subspaces(dim: int):
    return st.lists(_vectors(dim), max_size=3).map(
        lambda vs: Subspace.span(dim, vs))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_evaluations_match_the_fraction_table(data):
    dim, names, table = data.draw(_tables())
    g = LieAlgebra.from_brackets("g", dim, names, table)
    ref = FractionTable(dim, table)
    for _ in range(3):
        u, v = data.draw(_vectors(dim)), data.draw(_vectors(dim))
        got = g.bracket_vec(u, v)
        assert got == ref.bracket_vec(u, v)
        assert all(type(x) is F for x in got)
    a, b = data.draw(_subspaces(dim)), data.draw(_subspaces(dim))
    assert g.bracket_of_subspaces(a, b) == ref.bracket_of_subspaces(a, b)
    assert g.derived_subalgebra() == ref.derived_subalgebra()
    assert g.is_abelian() == (not ref.table)
    assert algebra_to_dict(g) == ref.to_dict("g", names)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_tables(), st.sampled_from([2, 3, 10]))
def test_equal_constants_give_equal_algebras(drawn, m):
    # the same table with every coefficient written over m times its
    # denominator is the same algebra, with the same hash
    dim, names, table = drawn
    scaled = {ij: {k: f"{F(c).numerator * m}/{F(c).denominator * m}"
                   for k, c in res.items()} for ij, res in table.items()}
    g = LieAlgebra.from_brackets("g", dim, names, table)
    h = LieAlgebra.from_brackets("g", dim, names, scaled)
    assert g == h and hash(g) == hash(h)
    assert g.bracket.rows == h.bracket.rows and g.bracket.den == h.bracket.den


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_tables())
def test_dump_load_round_trip(drawn):
    # a table that validates loads back from its dump as the same
    # algebra; one that fails Jacobi fails it again, with the same message
    dim, names, table = drawn
    payload = algebra_to_dict(LieAlgebra.from_brackets("g", dim, names,
                                                       table))
    try:
        g = validate("g", dim, names, table)
    except JacobiViolation as e:
        try:
            algebra_from_dict(payload)
        except JacobiViolation as e2:
            assert str(e2) == str(e)
        else:
            raise AssertionError("the dump passed Jacobi, the table did not")
        return
    back = algebra_from_dict(payload)
    assert back == g and hash(back) == hash(g)
    assert algebra_to_dict(back) == payload


def test_equality_across_denominators_and_orders():
    half = LieAlgebra.from_brackets("h", 3, "xyz", {(0, 1): {2: "1/2"}})
    assert half == LieAlgebra.from_brackets("h", 3, "xyz",
                                            {(0, 1): {2: "2/4"}})
    assert hash(half) == hash(LieAlgebra.from_brackets(
        "h", 3, "xyz", {(0, 1): {2: F(3, 6)}}))
    assert half != LieAlgebra.from_brackets("h", 3, "xyz",
                                            {(0, 1): {2: "-1/2"}})
    # both orders are stored, the reversed one negated
    assert half.bracket.rows == {(0, 1): ((2, 1),), (1, 0): ((2, -1),)}
    assert half.bracket.den == 2
    assert half.bracket_vec([0, 1, 0], [1, 0, 0]) == (0, 0, F(-1, 2))
    # coprime denominators: 1/3 and 2/5 over 15, in lowest terms
    g = LieAlgebra.from_brackets("g", 3, "xyz", {(0, 1): {2: "2/6"},
                                                  (0, 2): {1: F(2, 5)}})
    assert g.bracket.den == 15
    assert g.bracket.rows[(0, 1)] == ((2, 5),)
    assert g.bracket.rows[(2, 0)] == ((1, -6),)
    assert g.pairs() == [(0, 1), (0, 2)]
    # zero coefficients and empty results are not stored
    z = LieAlgebra.from_brackets("z", 2, "xy", {(0, 1): {0: "0/3", 1: 0}})
    assert z.bracket.rows == {} and z.bracket.den == 1 and z.is_abelian()
    assert z == LieAlgebra.from_brackets("z", 2, "xy", {})
