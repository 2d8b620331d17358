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

`matrix_bracket` reads the constants of an algebra given as int
matrices off their commutators, through one inverse of the basis on the
entries where `echelon` pivots. A complex one, such as su(n), enters
realified: a + ib -> [[a, -b], [b, a]].
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import InternalInvariantViolation
from .lie import LieAlgebra, antisymmetric
from .linalg import IntRow, Matrix, _canon, echelon
from .nijenhuis import Tensor3, nijenhuis_of
from .record import Record


def matrix_bracket(name: str, names: Sequence[str],
                   mats: Sequence[Sequence[IntRow]]) -> Tensor3:
    """The bracket tensor of the basis rho(e_x) = mats[x], int square
    matrices as `Matrix.rows` holds them, certified in the same pass.
    The rho(e_x) must be linearly independent (`echelon` rank = dim), so
    they are invertible on the entries where `echelon` pivots; that
    `Matrix.inverse`, over its denominator D, reads coordinates. For
    every x < y whose matrices share an index, in (x, y) order (others
    commute), C = [rho(e_x), rho(e_y)] is read through it and must come
    back as the sum of the rho(e_k) at every entry. So rho is an
    injective homomorphism: the table holds its structure constants and
    satisfies Jacobi. A failure names the pair and the residual, C minus
    its expansion, by entry (i, j). Entries are keyed i * size + j."""
    size, dim = len(mats[0]), len(mats)
    rho = [{i: r for i, r in enumerate(m) if r} for m in mats]
    ents = [[(i * size, j, v) for i, r in m.items() for j, v in r]
            for m in rho]
    flat = [[(i + j, v) for i, j, v in e] for e in ents]
    piv = sorted(echelon(map(dict, flat)))
    if len(piv) != dim:
        raise InternalInvariantViolation(
            f"{name} basis matrices are linearly dependent: rank "
            f"{len(piv)} for dim {dim}")
    pos = {ij: t for t, ij in enumerate(piv)}
    inv = Matrix(1, tuple(tuple((pos[ij], v) for ij, v in f if ij in pos)
                          for f in flat), dim).inverse()
    d, through = inv.den, dict(zip(piv, inv.rows))  # e -> [(x, w)]
    touch = [set(m).union(j for r in m.values() for j, _ in r) for m in rho]
    near = [[x for x, t in enumerate(touch) if i in t] for i in range(size)]
    ratios = {}
    for x, left in enumerate(ents):
        for y in sorted({y for i in touch[x] for y in near[i] if y > x}):
            res: dict[int, int] = {}  # D C
            for a, b, f in ((left, rho[y], d), (ents[y], rho[x], -d)):
                for i, j, v in a:
                    for k, w in b.get(j, ()):
                        ik = i + k
                        res[ik] = res.get(ik, 0) + f * v * w
            out: dict[int, int] = {}  # D^2 c_x, the sum of w D C_e
            for ij, v in res.items():
                for k, w in through.get(ij, ()):
                    out[k] = out.get(k, 0) + v * w
            for k, p in out.items():  # D C minus its expansion, in place
                p //= d
                for ij, v in flat[k]:
                    res[ij] = res.get(ij, 0) - p * v
            if any(res.values()):
                resid = {divmod(ij, size): str(Fraction(v, d))
                         for ij, v in sorted(res.items()) if v}
                raise InternalInvariantViolation(
                    f"{name} bracket is not the commutator of its basis "
                    f"matrices on basis pair ({names[x]}, {names[y]}): "
                    f"residual {resid}")
            row = [(k, (p, d * d)) for k, p in out.items() if p]
            if row:
                ratios[(x, y)] = row
    return antisymmetric(dim, ratios)


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
