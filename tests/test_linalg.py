import random
from fractions import Fraction

import pytest

from liesymp import Matrix, Subspace, complement, qof
from liesymp.errors import BadNumber, SingularGram, ValidationError
from support import (diag, image_under, solve, subspace_sum, vec_sub,
                     zeros)

F = Fraction


def test_qof_accepts_exact_types():
    assert qof(3) == F(3)
    assert qof("2/7") == F(2, 7)
    assert qof(F(-1, 3)) == F(-1, 3)
    assert qof("-4") == F(-4)


def test_qof_refuses_floats():
    with pytest.raises(TypeError):
        qof(0.5)
    with pytest.raises(TypeError):
        Matrix.from_rows([[0.1, 0], [0, 1]])


def test_qof_string_grammar_is_integer_or_p_over_q():
    for good, value in (("0", 0), ("-0", 0), ("17", 17), ("-4", -4),
                        ("2/7", F(2, 7)), ("-6/4", F(-3, 2)), ("007", 7)):
        assert qof(good) == value
    for bad in ("0.5", "1.", ".5", "1e0", "1E3", "1_000", " 1", "1 ",
                "+1", "--1", "1/-2", "-1/-2", "1/2/3", "1 /2", "", "-", "/",
                "1/", "/2", "inf", "nan", "\u0663", "1\n"):
        with pytest.raises(BadNumber):
            qof(bad)
    with pytest.raises(BadNumber, match="zero denominator"):
        qof("3/0")
    # a named validation error that old ValueError handlers still catch
    assert issubclass(BadNumber, ValidationError)
    assert issubclass(BadNumber, ValueError)


def test_apply_coerces_only_what_is_not_a_fraction():
    m = Matrix.from_rows([[1, "1/2"], [0, -3]])
    assert m.apply([2, F(4, 3)]) == (F(8, 3), F(-4))
    assert m.apply(["2", "-2/3"]) == (F(5, 3), F(2))
    for bad, error in ((0.5, TypeError), (True, TypeError),
                       ("0.5", BadNumber), (" 1", BadNumber)):
        with pytest.raises(error):
            m.apply([1, bad])


def test_matrix_arithmetic_round_trip():
    a = Matrix.from_rows([[1, 2], [3, "5/2"]])
    b = Matrix.from_rows([["1/2", 0], [-1, 4]])
    assert (a + b) - b == a
    assert (-a) + a == zeros(2, 2)
    assert a.scale("2") == a + a
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_det_known_values():
    assert Matrix.identity(4).det() == 1
    m = Matrix.from_rows([[2, 0, 1], [1, 3, -1], [0, 1, 4]])
    # cofactor expansion by hand: 2*(12+1) - 0 + 1*(1-0)
    assert m.det() == 27
    singular = Matrix.from_rows([[1, 2], [2, 4]])
    assert singular.det() == 0


def test_det_matches_permutation_expansion_on_random_matrices():
    from itertools import permutations
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        m = Matrix.from_rows([[F(rng.randint(-3, 3), rng.choice([1, 1, 2]))
                               for _ in range(n)] for _ in range(n)])
        expected = F(0)
        for perm in permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = F(1)
            for i in range(n):
                term *= m.entry(i, perm[i])
            expected += sign * term
        assert m.det() == expected


def test_rref_is_idempotent_and_deterministic():
    m = Matrix.from_rows([[2, 4, 1], [1, 2, 3], [3, 6, 4]])
    r1, rank1 = m.rref()
    r2, rank2 = r1.rref()
    assert r1 == r2 and rank1 == rank2 == 2
    # pivots normalized to 1, pivot columns cleared
    assert r1.entry(0, 0) == 1 and r1.entry(1, 2) == 1
    assert r1.entry(0, 2) == 0


def test_nullspace_vectors_are_killed():
    m = Matrix.from_rows([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]])
    null = m.nullspace()
    assert len(null) == 4 - m.rank()
    for v in null:
        assert all(x == 0 for x in m.apply(v))


def test_inverse_and_solve():
    m = Matrix.from_rows([[1, 2], [3, "7"]])
    assert m @ m.inverse() == Matrix.identity(2)
    x = solve(m, [1, 0])
    assert m.apply(x) == (F(1), F(0))
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 1], [1, 1]]).inverse()


def test_leading_minors_positive():
    ok, k, minor = diag([1, "1/2", 3]).leading_minors_positive()
    assert ok and k == 0
    ok, k, minor = diag([1, -2, 3]).leading_minors_positive()
    assert not ok and k == 2 and minor == -2


def test_subspace_membership_and_lattice_ops():
    e1 = [1, 0, 0]
    plane_a = Subspace.span(3, [e1, [0, 1, 0]])
    plane_b = Subspace.span(3, [[0, 1, 0], [0, 0, 1]])
    assert plane_a.contains([2, "-1/2", 0])
    assert not plane_a.contains([0, 0, 1])
    line = plane_a.intersect(plane_b)
    assert line.dim == 1 and line.contains([0, 1, 0])
    total = subspace_sum(plane_a, plane_b)
    assert total.dim == 3
    assert total.contains_subspace(plane_a)
    assert not plane_a.contains_subspace(total)


def test_contains_refuses_a_nonzero_vector_of_the_wrong_length_on_zero():
    with pytest.raises(ValueError, match="vector length != ambient dimension"):
        Subspace.zero(3).contains((1, 0))


def test_contains_refuses_a_zero_vector_of_the_wrong_length():
    for s in (Subspace.zero(3), Subspace.span(3, [[1, 2, 0]])):
        for vec in ((0, 0), (0, 0, 0, 0), ()):
            with pytest.raises(ValueError,
                               match="vector length != ambient dimension"):
                s.contains(vec)


def test_contains_refuses_a_vector_of_the_wrong_length():
    plane = Subspace.span(3, [[1, 0, 0], [0, 1, "1/2"]])
    for vec in ((1, 0), (1, 0, 0, 0), (0, 1, "1/2", 0)):
        with pytest.raises(ValueError,
                           match="vector length != ambient dimension"):
            plane.contains(vec)


def test_contains_subspace_refuses_a_subspace_of_another_ambient():
    # it reads the other basis's int rows, which carry no length; a
    # nonzero subspace of another ambient space is refused as a vector
    # of the wrong length was, and a zero one is contained
    plane = Subspace.span(3, [[1, 0, 0], [0, 1, "1/2"]])
    for other in (Subspace.full(2), Subspace.span(4, [[1, 0, 0, 0]])):
        with pytest.raises(ValueError,
                           match="vector length != ambient dimension"):
            plane.contains_subspace(other)
    assert plane.contains_subspace(Subspace.zero(5))
    assert plane.contains_subspace(Subspace.span(3, [[2, 2, 1]]))
    assert not plane.contains_subspace(Subspace.span(3, [[0, 0, 1]]))


def test_subspace_canonical_form_is_basis_independent():
    s1 = Subspace.span(3, [[1, 1, 0], [0, 2, 0]])
    s2 = Subspace.span(3, [["1/3", 0, 0], [5, 7, 0]])
    assert s1 == s2


def test_image_under_map():
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    line = Subspace.span(2, [[1, 0]])
    assert image_under(line, swap).contains([0, 1])


def test_complement_decomposes_ambient():
    gram = diag([1, 2, 3, "1/5"])
    s = Subspace.span(4, [[1, 1, 0, 0], [0, 0, 1, 0]])
    c = complement(s, gram)
    assert c.dim == 2
    assert subspace_sum(s, c).dim == 4
    assert s.intersect(c).dim == 0
    # gram-orthogonality of the two factors
    for v in s.basis.entries:
        for w in c.basis.entries:
            assert sum(gram.apply(v)[k] * w[k] for k in range(4)) == 0


_OMEGA4 = Matrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1],
                            [-1, 0, 0, 0], [0, -1, 0, 0]])


def test_complement_rejects_degenerate_restriction():
    # the restriction of a symplectic form to an isotropic plane is zero
    iso = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(SingularGram, match=r"^form degenerate on subspace: "
                       r"radical has dim 2$"):
        complement(iso, _OMEGA4)


def test_complement_radical_of_a_coisotropic_subspace():
    # span(e1, e2, e3) has the right complement dimension, 1, but that
    # complement, span(e2), lies inside it: a radical of dim 1, not of
    # the subspace's dim
    s = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(SingularGram, match=r"^form degenerate on subspace: "
                       r"radical has dim 1$"):
        complement(s, _OMEGA4)


def test_complement_rejects_a_form_of_low_rank():
    # rank 1 < 4: the constraints of a plane leave a 3-dim kernel
    s = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(SingularGram, match=r"^form degenerate on subspace: "
                       r"complement dim 3, expected 2$"):
        complement(s, diag([1, 0, 0, 0]))


# entries already `Fraction` skip the coercion; everything else still goes
# through qof, so the accepted and refused inputs are those of qof
_ALIKE = [(3, F(3)), ("-7/4", F(-7, 4)), ("4/6", F(2, 3)), (F(2, 6), F(1, 3))]
_REFUSED = [(0.5, TypeError), (True, TypeError), ("0.5", BadNumber),
            (" 1", BadNumber)]


@pytest.mark.parametrize("x, want", _ALIKE)
def test_entries_coerce_alike_beside_zeros(x, want):
    m = Matrix.from_rows([[0, x], [x, F(0)]])
    assert m.entries == ((0, want), (want, 0))
    assert all(type(v) is Fraction for r in m.entries for v in r)
    assert Subspace.span(3, [[1, 0, x]]).basis.entries == ((1, 0, want),)
    assert Subspace.span(3, [[1, 0, want]]).contains([1, 0, x])
    assert vec_sub([x, 0], [F(0), x]) == (want, -want)


@pytest.mark.parametrize("x, err", _REFUSED)
def test_entries_refused_beside_zeros(x, err):
    for rows in ([[F(0), x]], [[x, 0]], [[0, 0], [F(1), x]]):
        with pytest.raises(err):
            Matrix.from_rows(rows)
    for vec in ([0, x], [F(1), x]):
        with pytest.raises(err):
            Subspace.span(2, [vec])
        with pytest.raises(err):
            Subspace.span(2, [[1, 0]]).contains(vec)
        with pytest.raises(err):
            vec_sub(vec, [0, 0])


@pytest.mark.parametrize("d", [0, 1, 3])
def test_ambient_dim_is_the_basis_width(d):
    spanned = Subspace.span(d, [[1] * d, [2] * d] if d else [])
    for s in (Subspace.zero(d), Subspace.full(d), spanned):
        assert s.ambient_dim == s.basis.ncols == d
    assert (Subspace.zero(d).dim, Subspace.full(d).dim,
            spanned.dim) == (0, d, min(d, 1))
