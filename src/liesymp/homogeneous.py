"""Reductive pairs g = h (+) m: what a homogeneous space G/H reads off
its Lie algebra on the tangent space m.

In a `ReductivePair` the first h_dim basis elements span h and the rest
span m; m-coordinate i is basis index h_dim + i, which everything on m
here uses. A linear form phi on g gives the orbit 2-form omega(A, B) =
phi([A, B]). An almost complex structure J on m is a Matrix passed
beside the pair, so the structures on one pair share its m-bracket and
omega. With h_dim = 0 the pair is the Lie algebra itself. J and omega
descend to G/H when [h, m] lies in m, phi([h, g]) = 0 and J commutes
with ad(h) on m: the pair's builder certifies that, nothing here does.

N(A, B) = [JA, JB] - J[JA, B] - J[A, JB] - [A, B], with J extended by
zero on h and the values projected to m, is for A, B in m the plain
Nijenhuis formula for J on m applied to the m-projected bracket
[A, B]_m: J kills the h-part of every bracket it is applied to and maps
m into m, so projecting J[., .] to m changes nothing, and projecting
[JA, JB] and [A, B] gives [JA, JB]_m and [A, B]_m. So `m_nijenhuis` is
the shared `nijenhuis_of` on the m-projected bracket tensor.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .errors import InternalInvariantViolation
from .lie import LieAlgebra, antisymmetric
from .linalg import Matrix, _canon
from .nijenhuis import Tensor3, nijenhuis_of
from .record import Record


class ReductivePair(Record):
    """g = h (+) m with h the first h_dim basis elements of `algebra`, and
    phi as one int per basis element."""
    algebra: LieAlgebra
    h_dim: int
    phi: tuple[int, ...]

    @property
    def m_indices(self) -> range:
        return range(self.h_dim, self.algebra.dim)

    @property
    def m_dim(self) -> int:
        return self.algebra.dim - self.h_dim

    @cached_property
    def kks_m(self) -> Matrix:
        """omega on m: D omega(e_x, e_y) = D phi([e_x, e_y]) summed over
        each stored m x m row, D the bracket's denominator."""
        c, h = self.algebra.bracket, self.h_dim
        rows: list[list[tuple[int, int]]] = [[] for _ in self.m_indices]
        for (x, y), row in c.rows.items():
            if x >= h and y >= h:
                v = sum(p * self.phi[k] for k, p in row)
                if v:
                    rows[x - h].append((y - h, v))
        return _canon(c.den, tuple(tuple(sorted(r)) for r in rows), len(rows))

    @cached_property
    def bracket_m(self) -> Tensor3:
        """(A, B) -> [A, B]_m on m: the stored rows with their h-components
        dropped, over the least denominator left."""
        c, h = self.algebra.bracket, self.h_dim
        ratios = {}
        for (a, b), row in c.rows.items():
            if h <= a < b:
                r = [(k - h, (p, c.den)) for k, p in row if k >= h]
                if r:
                    ratios[(a - h, b - h)] = r
        return antisymmetric(self.m_dim, ratios)


def m_nijenhuis(pair: ReductivePair, j: Matrix) -> Tensor3:
    """N of J on m (see the module docstring)."""
    return nijenhuis_of(pair.bracket_m, j)


def omega_j_invariant(pair: ReductivePair, j: Matrix) -> bool:
    """omega(J A, J B) = omega(A, B) on all m-basis pairs, that is
    J^T W J = W for omega's matrix W on m."""
    w = pair.kks_m
    return j.transpose() @ w @ j == w


def positivity(pair: ReductivePair, j: Matrix
               ) -> tuple[bool, Optional[list[str]]]:
    """Is g_J(A, B) = omega(A, J B) positive definite on m (Sylvester)? If
    not, also [name, value] for the first m-basis vector with g_J(e, e)
    <= 0, the value as rational text, or None if there is none."""
    gram = pair.kks_m @ j
    if not gram.is_symmetric():
        raise InternalInvariantViolation("omega(., J .) not symmetric on m")
    if gram.leading_minors_positive()[0]:
        return True, None
    for i, k in enumerate(pair.m_indices):
        v = gram.entry(i, i)
        if v <= 0:
            return False, [pair.algebra.basis_names[k], str(v)]
    return False, None
