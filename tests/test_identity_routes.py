"""The second routes (`check_tensor_identities`, `nabla_j_checks`,
`contains_tensor`) and `norm_sq` run as int contractions over `Tensor3`.
Here they are held to the definitional loops they replaced
(`support.definitional_tensor_identities`, `definitional_nabla_j_checks`,
`slab_norm_sq`, `full_row_contains_tensor`, `rows_vanish_at_u`), on
valid triples and on broken inputs, and each flag is shown to turn False
on a broken input: a route that always returned True would pass every
test on valid triples."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from liesymp import (Analysis, Matrix, SymplecticTriple, Tensor3, abelian,
                     build_rank_example, build_report,
                     check_tensor_identities, contains_tensor, dim6, ex1,
                     nabla_j_checks, norm_sq, nspace)
from liesymp.errors import NotCompatible
from liesymp.linalg import nullspace_of
from liesymp.nspace import cyclic_rows_vanish
from liesymp.report import _membership
from liesymp.symp import first_slots
from liesymp.tensor import combine
from support import (cocycle_values, definitional_nabla_j_checks,
                     definitional_tensor_identities, dense_conjugate,
                     from_dense, full_row_contains_tensor, pair_rows,
                     rows_vanish_at_u, slab_norm_sq)


def _flags(t, nj, n, member=True):
    """Every check a report runs, by the library routes, after asserting
    that each equals its definitional oracle; membership only if
    `member`."""
    ident = check_tensor_identities(t, n)
    assert ident == definitional_tensor_identities(t, n)
    nabla = nabla_j_checks(t, nj, n)
    assert nabla == definitional_nabla_j_checks(t, nj, n)
    if not member:
        return {**ident, **nabla}
    member = contains_tensor(t, n)
    assert member == full_row_contains_tensor(t, n)
    assert _membership(t, n, ident) == member
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
    """Omega with row 0 negated: no longer compatible with J."""
    om = t.omega.entries
    omega = Matrix.from_rows([[-x for x in om[0]], *om[1:]])
    assert t.j.transpose() @ omega @ t.j != omega
    bad = SymplecticTriple(t.algebra, omega, t.j)
    bad.__dict__["metric"] = t.metric   # the old metric, not omega J
    return bad


def _omega_opened(t):
    """omega' = omega + S/10 with S = K + J^T K J, K a random skew
    matrix: S(J., J.) = S as J^2 = -1, so omega' is compatible with J
    and G' = omega' J is the metric it pairs with; S is not closed, so
    neither is omega'."""
    d, j = t.dim, t.j
    rng = random.Random(f"open:{t.algebra.name}:{d}")
    k = [[0] * d for _ in range(d)]
    for a, b in combinations(range(d), 2):
        k[a][b] = rng.randint(-3, 3)
        k[b][a] = -k[a][b]
    k = Matrix.from_rows(k)
    omega = t.omega + (k + j.transpose() @ k @ j).scale(Fraction(1, 10))
    assert omega.is_skew() and j.transpose() @ omega @ j == omega
    assert any(v for _, v in cocycle_values(t.algebra, omega))
    return SymplecticTriple(t.algebra, omega, j)


_TRIPLES = {"ex1": ex1, "dim6": dim6,
            "dense-d6": lambda: _dense(3, 2, (False, True))}

# which flags each broken input turns False, as the definitional loops
# give them; a compatible omega that is not closed breaks the cyclic
# rows of the constraint space as well as the two omega pairings, and an
# incompatible one the two pairings, while membership, whose rows need
# compatibility, raises `NotCompatible`. In dim 4 there is no cyclic row
# (2 C(2, 3) = 0): every antisymmetric anti-linear tensor is cyclic for
# every compatible omega, so there omega' breaks the pairing alone
_RED = {
    "n": {"antisymmetry", "anti_linearity", "cyclic_omega",
          "nabla_j_pairing", "constraint_membership"},
    "nabla_j": {"nabla_j_pairing", "nabla_j_anticommutation"},
    "omega": {"cyclic_omega", "nabla_j_pairing"},
    "omega-open": {"cyclic_omega", "nabla_j_pairing",
                   "constraint_membership"},
}


@pytest.mark.parametrize("broken", sorted(_RED))
@pytest.mark.parametrize("name", sorted(_TRIPLES))
def test_each_flag_turns_false_on_a_broken_input(name, broken):
    t = _TRIPLES[name]()
    a = Analysis(t)
    n, nj, member = a.n, a.nabla_j, True
    if broken == "n":
        n = _bumped(n)
        assert norm_sq(n, t) == slab_norm_sq(n, t)
    elif broken == "nabla_j":
        nj = _bumped(nj)
    elif broken == "omega-open":
        t = _omega_opened(t)
    else:
        t = _omega_row0_negated(t)
        with pytest.raises(NotCompatible):
            contains_tensor(t, n)
        member = False
    flags = _flags(t, nj, n, member)
    red = ({"nabla_j_pairing"} if broken == "omega-open" and t.dim == 4
           else _RED[broken])
    assert {f for f, ok in flags.items() if not ok} == red


def test_a_single_value_is_never_a_member(catalog):
    # t(e_i, e_j) = e_k alone breaks antisymmetry, on the diagonal too
    # (t(e_i, e_i) = -t(e_i, e_i) forces 0), so membership must reject
    # it before any cyclic row is evaluated
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
    `support.pair_rows` alone, no cyclic row, in its pair coordinates:
    each is antisymmetric by construction and anti-linear in its first
    slot."""
    d = t.dim
    pairs = list(combinations(range(d), 2))
    rows = pair_rows(d, t.omega, t.j,
                     product(first_slots(t.j), range(d), range(d)), ())
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


# -- `Tensor3.anti_linear` at the first slots F against the two-tensor
#    comparison T(Jx, y) == -J T(x, y) it replaced


def _by_maps(t, tensor):
    return tensor.map_first(t.j) == -tensor.map_values(t.j)


def _random_tensors(t, rng):
    """A random tensor, an antisymmetric one, and the first-slot
    anti-linear part (T + J T(J., .)) / 2 of each."""
    d, j = t.dim, t.j
    plain = [[[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
             for _ in range(d)]
    anti = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a, b in combinations(range(d), 2):
        anti[a][b] = plain[a][b]
        anti[b][a] = [-c for c in plain[a][b]]
    out = []
    for vals in (plain, anti):
        x = from_dense(d, vals)
        out += [x, combine([(Fraction(1, 2), x),
                            (Fraction(1, 2), x.map_first(j).map_values(j))])]
    return out


def test_first_slot_test_equals_the_two_tensor_comparison(extended_catalog):
    # B(x, y) = T(Jx, y) + J T(x, y) has B(Jx, y) = J B(x, y) for every
    # T, so B vanishes once it does at e_a, a in F: the verdicts agree on
    # N, nabla J, random tensors and tensors anti-linear in one slot only
    triples = dict(extended_catalog)
    for n, k, flags in ((2, 1, (True, False)), (3, 2, (False, True)),
                        (4, 2, (True, False))):
        triples[f"dense-d{2 * n}"] = _dense(n, k, flags)
    rng = random.Random(20261019)
    verdicts = set()
    for name, t in sorted(triples.items()):
        a = Analysis(t)
        tensors = [a.n, a.nabla_j, *_random_tensors(t, rng)]
        if t.dim > 2:
            one = _first_slot_only(t)
            tensors += [one, one.swapped()]
        for tensor in tensors:
            got = tensor.anti_linear(t.j, t.first_slots)
            assert got == _by_maps(t, tensor), name
            verdicts.add(got)
    assert verdicts == {True, False}


def _defect_at(t, a0):
    """T(x, y) = lam(x) psi(y) w with lam vanishing on e_a and J e_a for
    every first slot a but a0: B(x, y) = psi(y) (lam(Jx) w + lam(x) Jw)
    vanishes at those e_a, and, w and Jw being independent, not at
    e_a0, where lam or lam o J is nonzero."""
    d, j = t.dim, t.j
    cols = j.transpose().entries
    kept = [v for a in t.first_slots if a != a0
            for v in ([int(r == a) for r in range(d)], cols[a])]
    lam = Matrix.from_rows(kept).nullspace()[0]
    psi = [1] * d
    w = [int(r == 0) for r in range(d)]
    return from_dense(d, [[[lam[x] * psi[y] * c for c in w]
                           for y in range(d)] for x in range(d)])


@pytest.mark.parametrize("name", sorted(_TRIPLES))
def test_a_slot_set_short_of_first_slots_misses_a_defect(name):
    # F must span together with J F: leave one index out and a tensor
    # whose defect sits only at that index passes the test
    t = _TRIPLES[name]()
    first = t.first_slots
    assert len(first) == t.dim // 2
    for a0 in first:
        tensor = _defect_at(t, a0)
        short = [a for a in first if a != a0]
        assert tensor.anti_linear(t.j, short), a0
        assert not tensor.anti_linear(t.j, first), a0
        assert not _by_maps(t, tensor), a0


def _first_slot_by_definition(t, tensor):
    """T(Je_a, e_b) == -J T(e_a, e_b) on every basis pair, by
    `of_vectors` and `Matrix.apply`."""
    d, j = t.dim, t.j
    basis = Matrix.identity(d).entries
    return all(tensor.of_vectors(j.apply(basis[a]), basis[b])
               == tuple(-x for x in j.apply(tensor.of_basis(a, b)))
               for a in range(d) for b in range(d))


@pytest.mark.parametrize("name", ["dim6", "dense-d6"])
def test_anti_linear_on_every_single_value_tensor(name):
    # T(e_i, e_j) = e_k, i != j, has one stored pair, whose slots differ:
    # B(e_a, e_b) can be nonzero only at b = j, which a test that took
    # its b from the first slots of stored pairs would never visit. Each
    # tensor's first-slot anti-linear part (T + J T(J., .)) / 2 too
    t = _TRIPLES[name]()
    d, j = t.dim, t.j
    half = Fraction(1, 2)
    verdicts = set()
    for i, jj, k in product(range(d), repeat=3):
        if i == jj:
            continue
        one = Tensor3.from_ints(d, 1, {(i, jj): [int(m == k)
                                                 for m in range(d)]})
        part = combine([(half, one), (half, one.map_first(j).map_values(j))])
        for tensor in (one, part):
            got = tensor.anti_linear(j, t.first_slots)
            assert got == _first_slot_by_definition(t, tensor), (i, jj, k)
            verdicts.add(got)
    assert verdicts == {True, False}


def _symmetric_anti_linear(t, rng):
    """(A + J A(x, Jy) + J A(Jx, y) - A(Jx, Jy)) / 4 for a random
    symmetric A: symmetric and anti-linear in both slots, so only the
    antisymmetry test rejects it where no cyclic row exists (dim 4)."""
    d, j = t.dim, t.j
    vals = [[None] * d for _ in range(d)]
    for a in range(d):
        for b in range(a, d):
            vals[a][b] = vals[b][a] = [rng.randint(-3, 3) for _ in range(d)]
    x = from_dense(d, vals)
    jx = x.map_first(j)
    quarter = Fraction(1, 4)
    return combine([(quarter, x), (quarter, x.map_second(j).map_values(j)),
                    (quarter, jx.map_values(j)),
                    (-quarter, jx.map_second(j))])


def test_report_membership_equals_contains_tensor(extended_catalog):
    # a report reads antisymmetry and anti-linearity off
    # check_tensor_identities and evaluates only the cyclic rows: its
    # verdict is contains_tensor's on N, on a bumped N, on random and
    # symmetric anti-linear tensors, and on antisymmetric first-slot
    # anti-linear tensors, where the cyclic rows alone decide
    triples = dict(extended_catalog)
    for n, k, flags in ((2, 1, (True, False)), (3, 2, (False, True)),
                        (4, 2, (True, False))):
        triples[f"dense-d{2 * n}"] = _dense(n, k, flags)
    rng = random.Random(20261020)
    verdicts = set()
    for name, t in sorted(triples.items()):
        n = Analysis(t).n
        flags = build_report(t)["identities"]
        assert flags["constraint_membership"] is contains_tensor(t, n), name
        assert flags["constraint_membership"] is True, name
        tensors = [*_random_tensors(t, rng), _symmetric_anti_linear(t, rng)]
        if not n.is_zero():
            tensors.append(_bumped(n))
        if name != "dense-d8":
            # the dim-8 dense kernel takes seconds to eliminate
            tensors += _antisymmetric_first_slot_anti_linear(t, 2)
        for tensor in tensors:
            got = _membership(t, tensor, check_tensor_identities(t, tensor))
            assert got is contains_tensor(t, tensor), name
            verdicts.add(got)
    assert verdicts == {True, False}


def test_cyclic_sums_equal_the_rows_at_u(extended_catalog):
    # membership's sums against omega and G on F x F against every row
    # of `build_constraint_rows` at u, on antisymmetric tensors, where
    # both read t(e_c, e_a) as -u_ac: N, random antisymmetric tensors
    # and antisymmetric first-slot anti-linear ones
    triples = dict(extended_catalog)
    for n, k, flags in ((2, 1, (True, False)), (3, 2, (False, True)),
                        (4, 2, (True, False))):
        triples[f"dense-d{2 * n}"] = _dense(n, k, flags)
    rng = random.Random(20261021)
    verdicts = set()
    for name, t in sorted(triples.items()):
        tensors = [Analysis(t).n, *_random_tensors(t, rng)]
        if name != "dense-d8":
            # the dim-8 dense kernel takes seconds to eliminate
            tensors += _antisymmetric_first_slot_anti_linear(t, 2)
        for tensor in tensors:
            if tensor != -tensor.swapped():
                continue
            got = cyclic_rows_vanish(t, tensor)
            assert got == rows_vanish_at_u(t, tensor), name
            verdicts.add(got)
    assert verdicts == {True, False}


def test_a_report_on_abelian_forms_no_endomorphism_and_no_row(monkeypatch):
    # abelian(20), dim 40: N = 0 and Gamma = 0, so covariant_derivative_n
    # forms no Gamma(e_i, .), no constraint row is built, and every
    # tensor handed to cyclic_sums, membership's two included, has no
    # stored pair. Operations are counted, not timed
    t = abelian(20)
    endo, sums = Tensor3.endo, Tensor3.cyclic_sums
    rows = nspace.build_constraint_rows
    calls = {"endo": 0, "rows": 0}
    handed = []

    def counted_endo(self, i):
        calls["endo"] += 1
        return endo(self, i)

    def counted_rows(*args):
        calls["rows"] += 1
        return rows(*args)

    def recorded_sums(self, form):
        handed.append(len(self.rows))
        return sums(self, form)

    monkeypatch.setattr(Tensor3, "endo", counted_endo)
    monkeypatch.setattr(Tensor3, "cyclic_sums", recorded_sums)
    monkeypatch.setattr(nspace, "build_constraint_rows", counted_rows)
    assert build_report(t)["identities"]["constraint_membership"] is True
    assert calls == {"endo": 0, "rows": 0}
    assert handed == [0, 0, 0]


def test_first_slots_are_cached_on_the_triple(catalog):
    for name, t in catalog.items():
        assert t.first_slots == first_slots(t.j), name
        assert t.first_slots is t.first_slots
