"""Symplectic Lie algebras with a compatible invariant almost complex
structure.

A triple bundles:
  * a Lie algebra g,
  * a 2-form omega (matrix of omega(e_i, e_j)) that is skew, nondegenerate
    and a Chevalley-Eilenberg 2-cocycle,
  * an endomorphism J with J^2 = -Id, omega(J., J.) = omega(., .), and
    omega(., J.) positive definite.

The induced inner product is g(u, v) = omega(u, Jv); its matrix in the
basis is  G = omega_mat @ J_mat  (G_uv = sum_k omega_uk J_kv). A triple
stores only (g, omega, J); G is derived once, on first use (`t.metric`).
Validation is all-or-nothing: `build_triple` either returns a fully
checked triple or raises the first failing axiom, in a fixed order so
error reporting is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import (CocycleViolation, DegenerateForm, DimensionMismatch,
                     NotAlmostComplex, NotCompatible, NotPositive,
                     NotSkewSymmetric)
from .lie import LieAlgebra
from .linalg import Matrix, Row, echelon
from .record import Record


class SymplecticTriple(Record):
    algebra: LieAlgebra
    omega: Matrix
    j: Matrix

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def metric(self) -> Matrix:
        return self.omega @ self.j

    @cached_property
    def omega_inv(self) -> Matrix:
        return self.omega.inverse()

    @cached_property
    def metric_inv(self) -> Matrix:
        """G^-1 = (omega J)^-1 = -J omega^-1, as J^2 = -Id: omega, not
        the dense G, is inverted."""
        return -(self.j @ self.omega_inv)

    @cached_property
    def first_slots(self) -> list[int]:
        return first_slots(self.j)


def first_slots(j: Matrix) -> list[int]:
    """Indices F with {e_a, J e_a : a in F} a basis, taken greedily: the
    span W of those kept is J-invariant, so an e_i outside W adds e_i and
    J e_i both (J e_i = w + c e_i would put (1 + c^2) e_i in W), until
    they span."""
    pivots: dict[int, Row] = {}
    keep = []
    for i, col in enumerate(j.transpose().rows):
        rank = len(pivots)
        if len(echelon(({i: 1}, dict(col)), pivots, j.ncols)) > rank:
            keep.append(i)
    return keep


def _check_cocycle(g: LieAlgebra, omega: Matrix) -> None:
    """d(omega)(x,y,z) = -omega([x,y],z) + omega([x,z],y) - omega([y,z],x).

    The bracket is antisymmetric, so d(omega)(x, y, z) is minus the
    cyclic sum of omega([x, y], z): `Tensor3.cyclic_sums` of the bracket
    tensor against omega, in ints (brackets over D, omega over the lcm
    D_omega of its denominators); the reported value divides
    D * D_omega back out.
    """
    sums, den = g.bracket.cyclic_sums(omega)
    if sums:
        i, j, k = tri = g._first_touched(sums)
        raise CocycleViolation(i, j, k, str(Fraction(-sums[tri], den)),
                               names=g.basis_names)


def check_j(omega: Matrix, j: Matrix) -> None:
    """J^2 = -Id, then omega(J., J.) = omega, i.e. J^T omega J = omega."""
    if j @ j != -Matrix.identity(j.nrows):
        raise NotAlmostComplex("J^2 != -Id")
    if j.transpose() @ omega @ j != omega:
        raise NotCompatible("omega(J., J.) != omega(., .)")


def build_triple(g: LieAlgebra, omega: Matrix, j: Matrix) -> SymplecticTriple:
    n = g.dim
    if n == 0:
        raise DimensionMismatch("a triple needs a positive dimension")
    if omega.nrows != n or omega.ncols != n:
        raise DimensionMismatch("omega shape != algebra dimension")
    if j.nrows != n or j.ncols != n:
        raise DimensionMismatch("J shape != algebra dimension")
    if not omega.is_skew():
        raise NotSkewSymmetric("omega is not skew symmetric")
    if len(echelon(dict(r) for r in omega.rows)) < n:
        raise DegenerateForm("omega is degenerate")
    _check_cocycle(g, omega)
    check_j(omega, j)
    t = SymplecticTriple(g, omega, j)
    if not t.metric.is_symmetric():
        # cannot happen once compatibility holds, but belt and braces
        raise NotCompatible("induced form is not symmetric")
    ok, k, minor = t.metric.leading_minors_positive()
    if not ok:
        raise NotPositive(k, minor)
    return t


def standard_omega(n2: int) -> Matrix:
    """Standard form on basis (X_1..X_n, Y_1..Y_n): omega(X_i, Y_i) = 1."""
    if n2 % 2:
        raise DimensionMismatch("standard omega needs even dimension")
    n = n2 // 2
    return Matrix(1, tuple(((n + i, 1),) for i in range(n))
                  + tuple(((i, -1),) for i in range(n)), n2)


def standard_j(n2: int) -> Matrix:
    """J X_i = Y_i, J Y_i = -X_i on basis (X_1..X_n, Y_1..Y_n)."""
    if n2 % 2:
        raise DimensionMismatch("standard J needs even dimension")
    n = n2 // 2
    # column i is J X_i = Y_i, column n+i is J Y_i = -X_i
    return Matrix(1, tuple(((n + i, -1),) for i in range(n))
                  + tuple(((i, 1),) for i in range(n)), n2)
