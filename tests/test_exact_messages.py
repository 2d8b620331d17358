"""Exact messages of the validation errors whose values are scaled back
from ints.

The Jacobi scan sums over the structure constants' common denominator D
(each term carries D^2), the cocycle scan over D times omega's own
denominator, and the Sylvester check over the metric's denominator D
(the product of the first k pivots is D^k times the k-th minor). Every
case below uses coprime denominators (2, 3, 5, 7, 11, ...), so a
residual that is not divided back, or a pivot that is not divided by
its row's scale, prints a different string. The expected strings were recorded on the Fraction
implementation these scans replaced. The two cases whose triple is
touched only through its (j, k) pair were recorded on the per-triple
scan that the one-sweep checks replaced: they pin which of several
failing triples is reported.
"""

from fractions import Fraction as F

import pytest

from liesymp import (LieAlgebra, Matrix, build_triple, standard_omega,
                     validate)
from liesymp.errors import CocycleViolation, JacobiViolation, NotPositive

ABCD = ["a", "b", "c", "d"]


@pytest.mark.parametrize("dim, names, brackets, triple, residual, message", [
    # the first touched triple (a, b, c) holds; (a, b, d) fails
    (4, ABCD,
     {(0, 1): {1: "1/2"}, (0, 2): {2: "1/3"}, (1, 3): {2: "2/5", 0: "3/7"}},
     (0, 1, 3), {"a": "-3/14", "c": "-1/15"},
     "Jacobi identity fails on basis triple (a, b, d): "
     "residual {'a': '-3/14', 'c': '-1/15'}"),
    (4, ABCD,
     {(0, 1): {3: "1/2"}, (0, 2): {3: "1/3"}, (1, 2): {3: "1/5"},
      (2, 3): {1: "3/7", 3: "5/11"}},
     (0, 1, 2), {"b": "3/14", "d": "5/22"},
     "Jacobi identity fails on basis triple (a, b, c): "
     "residual {'b': '3/14', 'd': '5/22'}"),
    (3, ["a", "b", "c"], {(0, 1): {0: "1/2", 2: "3/7"}, (1, 2): {1: "5/3"}},
     (0, 1, 2), {"a": "5/6", "c": "5/7"},
     "Jacobi identity fails on basis triple (a, b, c): "
     "residual {'a': '5/6', 'c': '5/7'}"),
    (5, ["e1", "e2", "e3", "e4", "e5"],
     {(0, 1): {2: "2/3"}, (0, 2): {3: "3/5"}, (1, 3): {4: "1/2"},
      (2, 3): {4: "7/11"}},
     (0, 1, 2), {"e5": "-3/10"},
     "Jacobi identity fails on basis triple (e1, e2, e3): "
     "residual {'e5': '-3/10'}"),
    # (b, c, d) is touched only through its pair (c, d); (a, d, e) fails
    # too and is smaller as a triple, but is touched later, through (d, e)
    (5, ["a", "b", "c", "d", "e"],
     {(0, 1): {0: "-1/7"}, (2, 3): {0: "2/11"}, (3, 4): {1: "2/3"}},
     (1, 2, 3), {"a": "2/77"},
     "Jacobi identity fails on basis triple (b, c, d): "
     "residual {'a': '2/77'}"),
])
def test_jacobi_violation_message(dim, names, brackets, triple, residual,
                                  message):
    # the dimension is counted from the names; only the Jacobi check fails
    assert LieAlgebra.from_brackets("bad", names, brackets).dim == dim
    with pytest.raises(JacobiViolation) as exc:
        validate("bad", names, brackets)
    assert exc.value.triple == triple
    assert exc.value.residual == residual
    assert str(exc.value) == message


def _skew(dim, upper):
    rows = [[F(0)] * dim for _ in range(dim)]
    for (i, j), v in upper.items():
        rows[i][j], rows[j][i] = F(v), -F(v)
    return Matrix.from_rows(rows)


@pytest.mark.parametrize("names, brackets, omega, triple, value", [
    (ABCD, {(0, 1): {2: "2/3", 3: "1/2"}},
     {(0, 1): "1/7", (0, 2): "3/5", (0, 3): "2/11", (1, 2): "1/3",
      (1, 3): "5/2", (2, 3): "4/9"},
     (0, 1, 2), "2/9"),
    # the first touched triple (x, y, z) holds; (x, y, w) fails
    (["x", "y", "z", "w"], {(0, 1): {2: "3/4"}, (0, 3): {2: "5/6"}},
     {(0, 1): "2/7", (0, 2): "1/5", (1, 2): "3/10", (1, 3): "7/3"},
     (0, 1, 3), "-1/4"),
    # (y, z, w) is touched only through its pair (z, w); (x, w, v) fails
    # too and is smaller as a triple, but is touched later, through (w, v)
    (["x", "y", "z", "w", "u", "v"], {(2, 3): {0: "-1/5"}, (3, 5): {1: "2/3"}},
     {(0, 1): "-1/5", (0, 3): "3", (1, 2): "1", (1, 4): "-1", (1, 5): "-1",
      (2, 3): "3/5", (3, 5): "3", (4, 5): "3/11"},
     (1, 2, 3), "-1/25"),
])
def test_cocycle_violation_message(names, brackets, omega, triple, value):
    d = len(names)
    g = validate("g", names, brackets)
    with pytest.raises(CocycleViolation) as exc:
        build_triple(g, _skew(d, omega), Matrix.identity(d))
    assert exc.value.triple == triple
    assert exc.value.value == value
    shown = ", ".join(names[i] for i in triple)
    assert str(exc.value) == (f"2-cocycle condition fails on basis triple "
                              f"({shown}): d-omega value {value}")


def _upper(dim, diag, extra):
    rows = [[F(0)] * dim for _ in range(dim)]
    for i, v in enumerate(diag):
        rows[i][i] = F(v)
    for (i, j), v in extra.items():
        rows[i][j] = F(v)
    return Matrix.from_rows(rows)


def _signed_j(n, signs):
    """J X_i = s_i Y_i, J Y_i = -s_i X_i: compatible with the standard
    omega, with metric diag(s, s) on (X, Y)."""
    rows = [[F(0)] * (2 * n) for _ in range(2 * n)]
    for i, s in enumerate(signs):
        rows[n + i][i], rows[i][n + i] = F(s), F(-s)
    return Matrix.from_rows(rows)


@pytest.mark.parametrize("n, signs, diag, extra, k, minor", [
    (2, (1, -1), ("2/3", "5/7", "1/11", "3"),
     {(0, 1): "1/2", (1, 3): "4/13", (0, 2): "2/5"}, 2, F(-100, 441)),
    (3, (1, 1, -1), ("2/3", "5/7", "3/11", "1", "7/5", "2"),
     {(0, 1): "1/2", (1, 2): "1/3", (0, 2): "2/5", (2, 4): "3/7",
      (3, 5): "1/13"}, 3, F(-100, 5929)),
])
def test_not_positive_message(n, signs, diag, extra, k, minor):
    # omega = U^T omega_std U and J = U^-1 J' U, so the metric is
    # U^T diag(s, s) U and, U being upper triangular, its k-th leading
    # minor is det(U_k)^2 times the product of the first k signs
    d = 2 * n
    u = _upper(d, diag, extra)
    omega = u.transpose() @ standard_omega(d) @ u
    j = u.inverse() @ _signed_j(n, signs) @ u
    g = validate("abelian", [f"e{i}" for i in range(d)], {})
    with pytest.raises(NotPositive) as exc:
        build_triple(g, omega, j)
    assert (exc.value.minor_index, exc.value.minor_value) == (k, minor)
    assert str(exc.value) == (f"induced metric not positive definite: "
                              f"leading {k}x{k} minor = {minor}")
    assert (omega @ j).leading_minors_positive() == (False, k, minor)


def test_leading_minors_on_coprime_row_denominators():
    # U^T diag(1, 1, 1, -1, 1) U: minors 1-3 positive, the 4th is
    # -(2/3 * 5/7 * 3/11 * 7/13)^2
    u = _upper(5, ("2/3", "5/7", "3/11", "7/13", "1/17"),
               {(0, 1): "1/2", (1, 2): "1/3", (2, 3): "1/5", (0, 4): "1/19"})
    s = Matrix.from_rows([[F(int(i == j) * (-1 if i == 3 else 1))
                           for j in range(5)] for i in range(5)])
    metric = u.transpose() @ s @ u
    want = -(F(2, 3) * F(5, 7) * F(3, 11) * F(7, 13)) ** 2
    assert metric.leading_minors_positive() == (False, 4, want)
    assert str(NotPositive(4, want)) == (
        "induced metric not positive definite: leading 4x4 minor = "
        "-100/20449")
