"""Dimension of the space of "algebraic Nijenhuis tensors".

Fix a symplectic vector space with a compatible J. The vector valued
2-tensors t with the pointwise identities of an actual Nijenhuis tensor,
antisymmetry, anti-linearity t(Jx, y) = -J t(x, y) and the cyclic
identity c(x, y, z) = sum_cyc omega(t(x, y), z) = 0, form a subspace of
(R^{2n})* ^ (R^{2n})* (x) R^{2n} of dimension 2n(n^2 - 1)/3. `nullity`
is the corank of c = 0 in unknowns that solve the other two: for
F = `symp.first_slots(J)`, u_ab = t(e_a, e_b), a < b in F, coordinate k of
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
a shared 2-vCPU x86-64 VM); `nullity` is their one reader.
`contains_tensor` tests a concrete tensor after the same `check_j`:
antisymmetry and first-slot anti-linearity (`Tensor3.anti_linear` at F)
as whole-tensor checks, then the same equations at its own values
(`cyclic_rows_vanish`): `Tensor3.cyclic_sums` of its values on F x F
against omega and against G, which walks its stored pairs and builds no
row. A report already holds the first three: `build_triple` ran
`check_j`, and `check_tensor_identities` tested N's antisymmetry and
anti-linearity; so its membership flag takes only the two sums.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator

from .linalg import Matrix, Row, echelon
from .nijenhuis import Tensor3
from .symp import (SymplecticTriple, check_j, first_slots, standard_j,
                   standard_omega)


def build_constraint_rows(dim: int, omega: Matrix, j: Matrix) -> Iterator[Row]:
    """The rows of the module docstring for F = `first_slots(j)`, from
    the columns of omega and of G = omega J in ints. A row's three pairs
    differ: no column repeats."""
    first = first_slots(j)
    base = {ab: p * dim for p, ab in enumerate(combinations(first, 2))}
    forms = omega.transpose().rows, (omega @ j).transpose().rows
    for (a, b, c), cols in product(combinations(first, 3), forms):
        yield {base[x, y] + m: s * w for x, y, z, s in
               ((a, b, c, 1), (b, c, a, 1), (a, c, b, -1))
               for m, w in cols[z]}


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


def cyclic_rows_vanish(t: SymplecticTriple, tensor: Tensor3) -> bool:
    """Whether the rows vanish at the tensor's u_ab = t(e_a, e_b), a < b
    in F = `t.first_slots`: the rows at (e_a, e_b, e_c) are
    `Tensor3.cyclic_sums` of its values on F x F against omega, and those
    at (Je_a, e_b, e_c) the sums against the triple's cached metric G,
    as g(v, w) = omega(v, Jw), each form with its columns in F only; both
    must be zero at every a < b < c in F.
    A sum reads t(e_c, e_a) = -u_ac, so this decides the cyclic identity
    only for an antisymmetric tensor anti-linear in its first slot, and a
    compatible J; `contains_tensor` checks all three first."""
    f = set(t.first_slots)
    # only which sums vanish is read, so no den need be the least one;
    # with T's pairs and the forms' columns in F, every sum is at abc in F
    on_f = Tensor3(t.dim, tensor.den,
                   {ab: row for ab, row in tensor.rows.items()
                    if ab[0] in f and ab[1] in f})
    forms = (Matrix(form.den, tuple(tuple((z, w) for z, w in r if z in f)
                                    for r in form.rows), t.dim)
             for form in (t.omega, t.metric))
    return not any(on_f.cyclic_sums(form)[0] for form in forms)


def contains_tensor(t: SymplecticTriple, tensor: Tensor3) -> bool:
    """Membership of a concrete tensor in the constraint space of the
    triple's own (omega, J); an independent route to the pointwise
    identity checks. `check_j` first, as for `nullity`: the rows need
    omega(J., J.) = omega. Antisymmetry is one comparison of canonical
    tensors, tensor == -tensor.swapped(), and anti-linearity is
    `Tensor3.anti_linear` at F = `t.first_slots`; then
    `cyclic_rows_vanish`."""
    check_j(t.omega, t.j)
    return (tensor == -tensor.swapped()
            and tensor.anti_linear(t.j, t.first_slots)
            and cyclic_rows_vanish(t, tensor))
