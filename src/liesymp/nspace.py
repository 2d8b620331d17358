"""Dimension of the space of "algebraic Nijenhuis tensors".

Fix a symplectic vector space with a compatible J. The vector valued
2-tensors t with the pointwise identities of an actual Nijenhuis tensor,
antisymmetry, anti-linearity t(Jx, y) = -J t(x, y) and the cyclic
identity c(x, y, z) = sum_cyc omega(t(x, y), z) = 0, form a subspace of
(R^{2n})* ^ (R^{2n})* (x) R^{2n} of dimension 2n(n^2 - 1)/3. `nullity`
is the corank of c = 0 in unknowns that solve the other two: for
F = `_first_slots(J)`, u_ab = t(e_a, e_b), a < b in F, coordinate k of
the p-th pair of `combinations(F, 2)` in column p * dim + k. Setting
t(Je_a, e_b) = t(e_a, Je_b) = -J u_ab, t(Je_a, Je_b) = -u_ab and
t(e_a, Je_a) = 0 maps u one to one onto the antisymmetric t anti-linear
in the first slot (so in both). As omega(J., J.) = omega gives
omega(Jv, w) = -omega(v, Jw), c alternates and c(Jx, y, z) =
c(x, Jy, z) = c(x, y, Jz) = sum_cyc omega(t(x, y), Jz). So
c(e_a, Je_a, .) = 0, and c = 0 iff c vanishes at (e_a, e_b, e_c) and
(Je_a, e_b, e_c) for a < b < c in F. With t(e_c, e_a) = -u_ac these are
2 C(n, 3) rows, in omega and in g(v, w) = omega(v, Jw):

    omega(u_ab, e_c) + omega(u_bc, e_a) - omega(u_ac, e_b) = 0, and for g.

`linalg.echelon` ranks them fraction-free: `nspace-dim --n 3,4,5,6,7,8`
ranks 252 rows in 3 ms as `--timings` reads it (Python 3.11, one core of
a shared 2-vCPU x86-64 VM). `contains_tensor` tests a concrete tensor in
the pair coordinates of `_rows`, with anti-linearity as rows.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator

from .linalg import Matrix, Row, echelon
from .nijenhuis import Tensor3
from .symp import SymplecticTriple, check_j, standard_j, standard_omega


def _bases(dim: int) -> list[list[int]]:
    """base[a][b] = p * dim for the p-th pair {a, b} of
    `combinations(range(dim), 2)`: column base[a][b] + k of `_rows` holds
    coordinate k of t(e_min, e_max). Unused where a == b."""
    base = [[0] * dim for _ in range(dim)]
    for p, (a, b) in enumerate(combinations(range(dim), 2)):
        base[a][b] = base[b][a] = p * dim
    return base


def _first_slots(j: Matrix) -> list[int]:
    """Indices I with {e_i, J e_i : i in I} a basis, taken greedily: the
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


def build_constraint_rows(dim: int, omega: Matrix, j: Matrix) -> Iterator[Row]:
    """The rows of the module docstring, from the columns of omega and of
    G = omega J in ints. A row's three pairs differ: no column repeats."""
    first = _first_slots(j)
    base = {ab: p * dim for p, ab in enumerate(combinations(first, 2))}
    forms = omega.transpose().rows, (omega @ j).transpose().rows
    for (a, b, c), cols in product(combinations(first, 3), forms):
        yield {base[x, y] + m: s * w for x, y, z, s in
               ((a, b, c, 1), (b, c, a, 1), (a, c, b, -1))
               for m, w in cols[z]}


def _rows(dim: int, omega: Matrix, j: Matrix, linear,
          triples) -> Iterator[Row]:
    """The constraint rows of the anti-linearity keys (i, jj, k) and the
    triples i < jj < k given, in the pair coordinates: a term of
    t(e_a, e_b) is dropped where a == b and negated where a > b."""
    base = _bases(dim)
    j_rows, j_cols = j.rows, j.transpose().rows
    om_cols = omega.transpose().rows
    # anti-linearity in the first slot: B(e_i, e_j) = 0 for
    # B(x, y) = t(Jx, y) + J t(x, y). As B(Jx, y) = J B(x, y), the keys
    # with i in `_first_slots` imply the rest, and the second slot
    # follows from antisymmetry.
    for i, jj, k in linear:
        row: Row = {}
        for a, c in j_cols[i]:
            if a != jj:
                col = base[a][jj] + k
                row[col] = row.get(col, 0) + (c if a < jj else -c)
        if i != jj:
            b0 = base[i][jj]
            for b, c in j_rows[k]:
                col = b0 + b
                row[col] = row.get(col, 0) + (c if i < jj else -c)
        row = {c: v for c, v in row.items() if v}
        if row:
            yield row
    # cyclic coupling against omega; t(e_k, e_i) = -t(e_i, e_k)
    for i, jj, k in triples:
        row = {}
        for a, b, c, s in ((i, jj, k, 1), (jj, k, i, 1), (i, k, jj, -1)):
            b0 = base[a][b]
            for m, w in om_cols[c]:
                col = b0 + m
                row[col] = row.get(col, 0) + s * w
        row = {c: v for c, v in row.items() if v}
        if row:
            yield row


def nullity(dim: int, omega: Matrix, j: Matrix) -> int:
    """Corank of the rows, after `check_j`: their derivation needs it."""
    check_j(omega, j)
    return (dim * (dim // 2) * (dim // 2 - 1) // 2
            - len(echelon(build_constraint_rows(dim, omega, j))))


def nijenhuis_space_dim(n: int) -> int:
    """`nullity` for the standard structures on R^{2n}."""
    return nullity(2 * n, standard_omega(2 * n), standard_j(2 * n))


def expected_dimension(n: int) -> int:
    """Closed form 2n(n^2 - 1)/3 (always an integer: three consecutive
    integers contain a multiple of 3)."""
    num = 2 * n * (n * n - 1)
    assert num % 3 == 0
    return num // 3


def contains_tensor(t: SymplecticTriple, tensor: Tensor3) -> bool:
    """Membership of a concrete tensor in the constraint space built from
    the triple's own (omega, J); an independent route to the pointwise
    identity checks. Antisymmetry is one comparison of canonical tensors,
    tensor == -tensor.swapped(); then each row of `_support_rows` is
    checked in ints against the tensor's pair coordinates over its
    common denominator; every other row evaluates to 0."""
    if tensor != -tensor.swapped():
        return False
    base = _bases(t.dim)
    scaled = {base[i][jj] + k: p for (i, jj), row in tensor.rows.items()
              if i < jj for k, p in row}
    return not any(sum(v * scaled.get(c, 0) for c, v in row.items())
                   for row in _support_rows(t, tensor))


def _support_rows(t: SymplecticTriple, tensor: Tensor3) -> Iterator[Row]:
    """The constraint rows with a column in the tensor's pair coordinates,
    its values t(e_a, e_b) with a < b (see `_support_keys`)."""
    return _rows(t.dim, t.omega, t.j, *_support_keys(t, tensor))


def _support_keys(t: SymplecticTriple, tensor: Tensor3) -> tuple[set, set]:
    """(anti-linearity keys, triples) of `_support_rows`: the rows of the
    triples containing one of those pairs, and the anti-linearity rows of
    those columns. Column {a, b}, k lies in the rows (i, y, k) with
    J_xi != 0 and (x, y, k') with J_k'k != 0, for (x, y) = (a, b) and
    (b, a), of those whose first index is in `_first_slots`."""
    dim = t.dim
    upper = {ab: row for ab, row in tensor.rows.items() if ab[0] < ab[1]}
    first = set(_first_slots(t.j))
    slots = [[i for i, _ in r if i in first] for r in t.j.rows]
    cols = [{kk for kk, _ in c} for c in t.j.transpose().rows]
    linear = set()
    for (a, b), row in upper.items():
        ks = [k for k, _ in row]
        hit = set().union(*(cols[k] for k in ks))
        for x, y in ((a, b), (b, a)):
            linear.update(product(slots[x], (y,), ks))
            if x in first:
                linear.update(product((x,), (y,), hit))
    triples = {tuple(sorted((a, b, k))) for a, b in upper
               for k in range(dim) if k != a and k != b}
    return linear, triples
