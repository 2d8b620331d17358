"""The second routes (`check_tensor_identities`, `nabla_j_checks`,
`contains_tensor`) and `norm_sq` run as int contractions over `Tensor3`.
Here they are held to the definitional loops they replaced
(`support.definitional_tensor_identities`, `definitional_nabla_j_checks`,
`slab_norm_sq`, `full_row_contains_tensor`), on valid triples and on
broken inputs, and each flag is shown to turn False on a broken input:
a route that always returned True would pass every test on valid
triples."""

import dataclasses
import random
from itertools import combinations, product

import pytest

from liesymp import (Analysis, Matrix, Tensor3, build_rank_example,
                     check_tensor_identities, contains_tensor, dim6, ex1,
                     nabla_j_checks, norm_sq)
from liesymp.linalg import nullspace_of
from liesymp.nspace import _first_slots, _rows
from liesymp.tensor import combine
from support import (definitional_nabla_j_checks,
                     definitional_tensor_identities, dense_conjugate,
                     from_dense, full_row_contains_tensor, slab_norm_sq)


def _flags(t, nj, n):
    """Every check a report runs, by the library routes, after asserting
    that each equals its definitional oracle."""
    ident = check_tensor_identities(t, n)
    assert ident == definitional_tensor_identities(t, n)
    nabla = nabla_j_checks(t, nj, n)
    assert nabla == definitional_nabla_j_checks(t, nj, n)
    member = contains_tensor(t, n)
    assert member == full_row_contains_tensor(t, n)
    return {**ident, **nabla, "constraint_membership": member}


def _dense(n, k, flags):
    base = build_rank_example(n, k, *flags)
    return dense_conjugate(base, random.Random(f"dense:{n}:{k}"))


def test_routes_match_oracles_on_extended_catalog(extended_catalog):
    for name, t in extended_catalog.items():
        a = Analysis(t)
        assert all(_flags(t, a.nabla_j, a.n).values()), name
        assert norm_sq(a.n, t) == slab_norm_sq(a.n, t), name


@pytest.mark.parametrize("n, k, flags", [(2, 1, (True, False)),
                                         (3, 2, (False, True))])
def test_routes_match_oracles_on_dense_conjugates(n, k, flags):
    t = _dense(n, k, flags)
    a = Analysis(t)
    assert all(_flags(t, a.nabla_j, a.n).values())
    assert norm_sq(a.n, t) == slab_norm_sq(a.n, t)


def _bumped(tensor: Tensor3) -> Tensor3:
    """tensor with its first stored value raised by 1."""
    d = tensor.dim
    vals = [[list(tensor.of_basis(i, j)) for j in range(d)]
            for i in range(d)]
    i, j = min(tensor.rows)
    vals[i][j][tensor.rows[(i, j)][0][0]] += 1
    return from_dense(d, vals)


def _omega_row0_negated(t):
    om = t.omega.entries
    return dataclasses.replace(
        t, omega=Matrix.from_rows([[-x for x in om[0]], *om[1:]]))


_TRIPLES = {"ex1": ex1, "dim6": dim6,
            "dense-d6": lambda: _dense(3, 2, (False, True))}

# which flags each broken input turns False, as the definitional loops
# give them; the Omega mutation breaks the cyclic rows of the constraint
# space as well as the two omega pairings
_RED = {
    "n": {"antisymmetry", "anti_linearity", "cyclic_omega",
          "nabla_j_pairing", "constraint_membership"},
    "nabla_j": {"nabla_j_pairing", "nabla_j_anticommutation"},
    "omega": {"cyclic_omega", "nabla_j_pairing", "constraint_membership"},
}


@pytest.mark.parametrize("broken", sorted(_RED))
@pytest.mark.parametrize("name", sorted(_TRIPLES))
def test_each_flag_turns_false_on_a_broken_input(name, broken):
    t = _TRIPLES[name]()
    a = Analysis(t)
    n, nj = a.n, a.nabla_j
    if broken == "n":
        n = _bumped(n)
        assert norm_sq(n, t) == slab_norm_sq(n, t)
    elif broken == "nabla_j":
        nj = _bumped(nj)
    else:
        t = _omega_row0_negated(t)
    flags = _flags(t, nj, n)
    assert {f for f, ok in flags.items() if not ok} == _RED[broken]


def test_a_single_value_is_never_a_member(catalog):
    # it breaks the antisymmetry rows of its pair and anti-linearity rows
    # of its second slot; a route that chose its rows from the support
    # with that pair left out would build none of them and accept it
    t = catalog["ex1"]
    d = t.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                one = Tensor3.from_ints(d, 1, {(i, j): [int(m == k)
                                                        for m in range(d)]})
                assert not contains_tensor(t, one), (i, j, k)


def _first_slot_only(t):
    """T(x, y) = phi(y) K x with K = A + J A J, so KJ = -JK and
    T(Jx, y) = -J T(x, y), while T(x, Jy) = phi(Jy) K x is in general
    not -J T(x, y): J-anti-linear in its first slot only."""
    d, j = t.dim, t.j
    rng = random.Random(f"first-slot:{d}")
    a = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(d)]
                          for _ in range(d)])
    k = a + j @ a @ j
    assert k @ j == -(j @ k) and not k.is_zero()
    phi = [rng.randint(-2, 2) for _ in range(d)]
    ke = k.entries
    return from_dense(d, [[[phi[y] * ke[r][x] for r in range(d)]
                           for y in range(d)] for x in range(d)])


@pytest.mark.parametrize("slot", ["first", "second"])
@pytest.mark.parametrize("name", sorted(_TRIPLES))
def test_anti_linearity_checks_both_slots(name, slot):
    # a check that compared only one slot's N(Jx, y) or N(x, Jy) with
    # -J N(x, y) would pass one of these tensors: T, anti-linear in its
    # first slot only, and its swap T(y, x), in its second slot only
    t = _TRIPLES[name]()
    tensor = _first_slot_only(t)
    if slot == "second":
        tensor = tensor.swapped()
    minus_jt = -tensor.map_values(t.j)
    first = tensor.map_first(t.j) == minus_jt
    second = tensor.map_second(t.j) == minus_jt
    assert (first, second) == ((True, False) if slot == "first"
                               else (False, True))
    ident = check_tensor_identities(t, tensor)
    assert ident == definitional_tensor_identities(t, tensor)
    assert ident["anti_linearity"] is False


@pytest.mark.parametrize("name", sorted(_TRIPLES))
def test_negation_is_canonical(name):
    # the identity checks compare A with -B, so -B must be in the one
    # canonical state that equal tensors share
    t = _TRIPLES[name]()
    a = Analysis(t)
    for tensor in (a.n, a.nabla_j, _first_slot_only(t)):
        neg = -tensor
        assert neg == combine([(-1, tensor)])
        assert neg.den == tensor.den
        assert -neg == tensor
        assert (neg == tensor) == tensor.is_zero()
        assert hash(-neg) == hash(tensor)


def _antisymmetric_first_slot_anti_linear(t, count):
    """count random tensors from the kernel of the anti-linearity rows of
    `nspace` alone, no cyclic row, in its pair coordinates: each is
    antisymmetric by construction and anti-linear in its first slot."""
    d = t.dim
    pairs = list(combinations(range(d), 2))
    rows = _rows(d, t.omega, t.j,
                 product(_first_slots(t.j), range(d), range(d)), ())
    kernel = nullspace_of(rows, d * len(pairs))
    rng = random.Random(f"first-slot-kernel:{t.algebra.name}:{d}")
    out = []
    for _ in range(count):
        x = [0] * (d * len(pairs))
        for v in kernel:
            c = rng.randint(-3, 3)
            x = [a + c * b for a, b in zip(x, v)]
        vals = [[[0] * d for _ in range(d)] for _ in range(d)]
        for p, (i, j) in enumerate(pairs):
            vals[i][j] = x[p * d:(p + 1) * d]
            vals[j][i] = [-c for c in vals[i][j]]
        out.append(from_dense(d, vals))
    return out


def _second_slot_follows(t, tensor):
    """The implication `check_tensor_identities` relies on: antisymmetry
    and first-slot anti-linearity give the second slot."""
    minus_jt = -tensor.map_values(t.j)
    assert tensor == -tensor.swapped()
    assert tensor.map_first(t.j) == minus_jt
    assert tensor.map_second(t.j) == minus_jt


def test_second_slot_follows_on_n_and_random_tensors(extended_catalog):
    for name, t in extended_catalog.items():
        _second_slot_follows(t, Analysis(t).n)
        tensors = _antisymmetric_first_slot_anti_linear(t, 3)
        # in dim 2 the space is 0: t(Jx, x) = -J t(x, x) = 0 with Jx, x
        # a basis
        assert t.dim == 2 or any(not x.is_zero() for x in tensors), name
        for tensor in tensors:
            _second_slot_follows(t, tensor)


@pytest.mark.parametrize("n, k, flags", [(2, 1, (True, False)),
                                         (3, 2, (False, True)),
                                         (4, 2, (True, False))])
def test_second_slot_follows_on_dense_conjugates(n, k, flags):
    t = _dense(n, k, flags)
    _second_slot_follows(t, Analysis(t).n)
    if t.dim <= 6:
        # the dim-8 kernel takes seconds to eliminate
        tensors = _antisymmetric_first_slot_anti_linear(t, 3)
        assert any(not x.is_zero() for x in tensors)
        for tensor in tensors:
            _second_slot_follows(t, tensor)


@pytest.mark.parametrize("name", sorted(_TRIPLES))
def test_an_antisymmetric_tensor_that_is_not_anti_linear(name):
    # the second slot is compared only when antisymmetry fails, so an
    # antisymmetric tensor must still fail in its first slot
    t = _TRIPLES[name]()
    d = t.dim
    rng = random.Random(f"antisymmetric:{name}")
    vals = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i, j in combinations(range(d), 2):
        vals[i][j] = [rng.randint(-3, 3) for _ in range(d)]
        vals[j][i] = [-c for c in vals[i][j]]
    tensor = from_dense(d, vals)
    ident = check_tensor_identities(t, tensor)
    assert ident == definitional_tensor_identities(t, tensor)
    assert ident["antisymmetry"] is True
    assert ident["anti_linearity"] is False


@pytest.mark.parametrize("name", sorted(_TRIPLES))
def test_norm_sq_matches_slabs_on_non_antisymmetric_tensors(name):
    # one slot is raised and the other read off G N, so neither slot may
    # be taken for the other
    t = _TRIPLES[name]()
    tensor = _first_slot_only(t)
    for x in (tensor, tensor.swapped(), _bumped(Analysis(t).n)):
        assert x != -x.swapped()
        assert norm_sq(x, t) == slab_norm_sq(x, t)
        assert norm_sq(x, t, x.map_values(t.metric)) == slab_norm_sq(x, t)
