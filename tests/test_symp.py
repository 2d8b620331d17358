import random
from fractions import Fraction

import pytest
import sympy

from liesymp import (Matrix, build_rank_example, build_triple, standard_j,
                     standard_omega, validate as build_algebra)
from liesymp.errors import (CocycleViolation, DegenerateForm,
                            DimensionMismatch, NotAlmostComplex,
                            NotCompatible, NotPositive, NotSkewSymmetric)
from liesymp.linalg import echelon
from support import dense_conjugate, inner, j_apply, omega_of

F = Fraction


def _flat4():
    return build_algebra("flat4", ["X1", "X2", "Y1", "Y2"], {})


def test_standard_forms_shape():
    om = standard_omega(4)
    j = standard_j(4)
    assert om.is_skew() and om.det() == 1
    assert (j @ j) == Matrix.identity(4).scale(-1)
    # pairing convention: om(X_i, Y_i) = 1, j X_i = Y_i
    assert om.entry(0, 2) == 1 and om.entry(1, 3) == 1
    assert j.entry(2, 0) == 1 and j.entry(0, 2) == -1


def test_metric_is_omega_compose_j(catalog):
    for name, t in catalog.items():
        assert t.metric == t.omega @ t.j
        assert t.metric.is_symmetric()
        ok, _, _ = t.metric.leading_minors_positive()
        assert ok


def test_metric_inv_is_the_inverse_of_the_metric(extended_catalog):
    # G^-1 = -J omega^-1, as G = omega J and J^2 = -Id, against the
    # Gauss-Jordan inverse of G it replaced; on the dense conjugates J
    # and omega^-1 do not commute, so omega^-1 J or a lost sign is caught
    triples = dict(extended_catalog)
    for n, k, flags in ((2, 1, (True, False)), (3, 2, (False, True)),
                        (4, 2, (True, False))):
        t = dense_conjugate(build_rank_example(n, k, *flags),
                            random.Random(f"dense:{n}:{k}"))
        assert t.j @ t.omega_inv != t.omega_inv @ t.j
        triples[f"dense-d{2 * n}"] = t
    for name, t in triples.items():
        assert t.metric_inv == t.metric.inverse(), name
        assert t.metric_inv is t.metric_inv, name


def test_accessors(catalog):
    t = catalog["ex2"]
    x1 = [F(1), F(0), F(0), F(0)]
    y1 = [F(0), F(0), F(1), F(0)]
    assert omega_of(t, x1, y1) == 1
    assert inner(t, x1, x1) == 1
    assert list(j_apply(t, x1)) == [F(0), F(0), F(1), F(0)]


def test_dimension_mismatch_first():
    g = _flat4()
    with pytest.raises(DimensionMismatch):
        build_triple(g, standard_omega(6), standard_j(6))


def test_not_skew_symmetric():
    g = _flat4()
    rows = [list(r) for r in standard_omega(4).entries]
    rows[0][0] = F(1)
    with pytest.raises(NotSkewSymmetric):
        build_triple(g, Matrix.from_rows(rows), standard_j(4))


def _flat(d):
    return build_algebra(f"flat{d}", [f"e{i}" for i in range(d)], {})


def _wedges(d, pairs):
    """The skew int rows of the sum of u ^ v = u v^T - v u^T."""
    rows = [[0] * d for _ in range(d)]
    for u, v in pairs:
        for i in range(d):
            for k in range(d):
                rows[i][k] += u[i] * v[k] - v[i] * u[k]
    return rows


def test_degenerate_form():
    g = _flat4()
    rows = [list(r) for r in standard_omega(4).entries]
    for k in range(4):
        rows[0][k] = F(0)
        rows[k][0] = F(0)
    with pytest.raises(DegenerateForm):
        build_triple(g, Matrix.from_rows(rows), standard_j(4))
    # odd dimension: a skew form has even rank, so at most d - 1, and the
    # degeneracy is reported before the J^2 check, which this J fails
    for d, rows in [(3, [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]),
                    (5, _wedges(5, [((1, 2, 0, -1, 3), (0, 1, 1, 2, -1)),
                                    ((2, 0, 1, 1, 1), (1, 1, -2, 0, 1))]))]:
        omega = Matrix.from_ints(1, rows)
        assert omega.is_skew() and omega.rank() == d - 1
        with pytest.raises(DegenerateForm, match="omega is degenerate"):
            build_triple(_flat(d), omega, Matrix.identity(d))
    # rank d - 2 with no zero row: a kernel vector with no zero
    # coordinate; the compatibility check would fail next
    for d, pairs, ker in [
            (4, [((1, 2, 3, 4), (2, -1, 1, 3))], (-3, -2, 1, 1)),
            (6, [((1, 2, 0, -1, 3, 1), (0, 1, 1, 2, -1, 1)),
                 ((2, 0, 1, 1, 1, -3), (1, 1, -2, 0, 1, 1))],
             (6, -24, 4, 10, 13, 13))]:
        omega = Matrix.from_ints(1, _wedges(d, pairs))
        assert omega.is_skew() and omega.rank() == d - 2
        assert all(ker) and not any(omega.apply(ker))
        with pytest.raises(DegenerateForm, match="omega is degenerate"):
            build_triple(_flat(d), omega, standard_j(d))


def test_skew_rank_agrees_with_det_and_sympy():
    # seeded skew int forms, sums of k random wedges (rank <= 2k) in odd
    # and even dimension: echelon rank, det != 0, sympy's rank and
    # build_triple's verdict on a flat algebra agree
    rng = random.Random("skew-rank")
    seen = set()
    for _ in range(120):
        d = rng.randint(1, 9)
        pairs = [tuple(tuple(rng.choice([0, 0, 1, -1, 2, -3, 7])
                             for _ in range(d)) for _ in "uv")
                 for _ in range(rng.randint(0, d // 2 + 1))]
        rows = _wedges(d, pairs)
        omega = Matrix.from_ints(1, rows)
        rank = len(echelon(dict(r) for r in omega.rows))
        assert rank == sympy.Matrix(rows).rank()
        assert (omega.det() != 0) == (rank == d)
        with pytest.raises(NotAlmostComplex if rank == d else DegenerateForm):
            build_triple(_flat(d), omega, Matrix.identity(d))
        seen.add((d % 2, rank == d))
    assert seen == {(0, False), (0, True), (1, False)}


def test_cocycle_violation_names_basis_elements():
    # [X1,X2] = X1 pairs nontrivially with omega(X1, Y1)
    g = build_algebra("nonclosed", ["X1", "X2", "Y1", "Y2"],
                      {(0, 1): {0: F(1)}})
    with pytest.raises(CocycleViolation) as exc:
        build_triple(g, standard_omega(4), standard_j(4))
    assert "X1" in str(exc.value)


def test_not_almost_complex():
    with pytest.raises(NotAlmostComplex):
        build_triple(_flat4(), standard_omega(4), Matrix.identity(4))


def test_not_compatible():
    # square root of -1 that mixes the two symplectic planes with
    # mismatched weights: omega(j X1, j Y1) = 1/2 != omega(X1, Y1)
    j = Matrix.from_rows([
        [0, 0, 0, -1],
        [0, 0, "-1/2", 0],
        [0, 2, 0, 0],
        [1, 0, 0, 0]])
    assert (j @ j) == Matrix.identity(4).scale(-1)
    with pytest.raises(NotCompatible):
        build_triple(_flat4(), standard_omega(4), j)


def test_not_positive_reports_failing_minor():
    with pytest.raises(NotPositive) as exc:
        build_triple(_flat4(), standard_omega(4), standard_j(4).scale(-1))
    err = exc.value
    assert err.minor_index == 1 and err.minor_value == -1


def test_validation_order_skewness_before_degeneracy():
    # zeroing only a row breaks skewness and degeneracy at once;
    # the skewness report must win
    g = _flat4()
    rows = [list(r) for r in standard_omega(4).entries]
    for k in range(4):
        rows[0][k] = F(0)
    with pytest.raises(NotSkewSymmetric):
        build_triple(g, Matrix.from_rows(rows), standard_j(4))


@pytest.mark.parametrize("name", ["ex1", "dim6", "thurston(1/2)"])
def test_pairing_reads_every_number_type_as_before(catalog, name):
    # omega_of and inner take Fractions as they are and coerce everything
    # else through qof: ints and numeric strings are read, floats, bools
    # and strings outside the grammar are refused, even where the other
    # factor is zero
    from liesymp.errors import BadNumber
    t = catalog[name]
    d = t.dim
    u = [F(0) if i % 3 == 1 else F(i - 2, 1 + i % 2) for i in range(d)]
    v = [F(1 + i, 2) for i in range(d)]
    want_om, want_g = omega_of(t, u, v), inner(t, u, v)
    as_ints = [int(x) if x.denominator == 1 else x for x in u]
    as_strs = [str(x) for x in u]
    for same in (as_ints, as_strs, [str(x) if i % 2 else x
                                    for i, x in enumerate(u)]):
        for got, want in ((omega_of(t, same, v), want_om),
                          (inner(t, same, v), want_g)):
            assert got == want and type(got) is F
    om_v = t.omega.apply(v)
    for i in (0, next((i for i in range(d) if om_v[i] == 0), d - 1)):
        for bad, err in ((1.0, TypeError), (True, TypeError),
                         (False, TypeError), ("0.5", BadNumber),
                         (" 1", BadNumber)):
            w = list(u)
            w[i] = bad
            with pytest.raises(err):
                omega_of(t, w, v)
            with pytest.raises(err):
                inner(t, w, v)


def test_metric_is_omega_j_and_a_triple_is_its_three_fields(extended_catalog):
    # G is derived once from (omega, J), and rebuilding a triple from its
    # three fields through every check gives an equal triple
    rng = random.Random("metric")
    triples = dict(extended_catalog)
    for name in ("ex1", "ex3", "dim6", "char(ex4)"):
        triples[f"dense({name})"] = dense_conjugate(triples[name], rng)
    for name, t in triples.items():
        assert t.metric == t.omega @ t.j, name
        assert t.metric is t.metric, name
        assert t == build_triple(t.algebra, t.omega, t.j), name
