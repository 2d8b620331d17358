from fractions import Fraction
from itertools import combinations
from math import comb

from liesymp import (Tensor3, contains_tensor, expected_dimension,
                     nijenhuis_space_dim, nijenhuis_tensor)
from liesymp.nspace import build_constraint_rows, nullity
from liesymp.symp import first_slots
from support import (fraction_rref, from_dense, full_constraint_rows,
                     pair_constraint_rows, pair_corank)

F = Fraction


def test_closed_form_dimension():
    assert [expected_dimension(n) for n in range(1, 6)] == [0, 4, 16, 40, 80]


def test_nullity_matches_closed_form():
    for n in range(1, 6):
        assert nijenhuis_space_dim(n) == expected_dimension(n)


def _full_corank(dim, omega, j):
    """Corank of the full dim^3 system (antisymmetry as rows) by a dense
    Fraction rank computation, not Matrix.rank, which shares nullity's
    elimination routine."""
    from liesymp import Matrix
    ncols = dim ** 3
    dense = Matrix.from_rows([[r.get(c, F(0)) for c in range(ncols)]
                              for r in full_constraint_rows(dim, omega, j)])
    return ncols - fraction_rref(dense)[1]


def test_nullity_against_dense_elimination():
    # re-run the n = 2 system through a dense Fraction rank computation
    from liesymp import standard_j, standard_omega
    dim = 4
    omega, j = standard_omega(dim), standard_j(dim)
    assert _full_corank(dim, omega, j) == nullity(omega, j) == 4


def test_nullity_equals_the_corank_of_the_full_system():
    # antisymmetry as coordinates, and anti-linearity only at the first
    # slots, against every row of the dim^3 system
    from liesymp import standard_j, standard_omega
    for n in (1, 2, 3):
        dim = 2 * n
        omega, j = standard_omega(dim), standard_j(dim)
        assert first_slots(j) == list(range(n))
        assert (nullity(omega, j) == _full_corank(dim, omega, j)
                == expected_dimension(n)), n


def test_first_slots_of_an_interleaved_basis():
    # basis (X1, Y1, X2, Y2): e_0 and J e_0 = e_1 span a J-plane, so the
    # greedy choice skips e_1 and takes e_2
    from liesymp import Matrix
    omega = Matrix.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0],
                              [0, 0, 0, 1], [0, 0, -1, 0]])
    j = Matrix.from_rows([[0, -1, 0, 0], [1, 0, 0, 0],
                          [0, 0, 0, -1], [0, 0, 1, 0]])
    assert first_slots(j) == [0, 2]
    assert nullity(omega, j) == _full_corank(4, omega, j) == 4


def test_catalog_tensors_satisfy_their_own_constraints(catalog):
    for name in ("ex1", "ex2", "ex3", "ex4", "dim6", "thurston(2)"):
        t = catalog[name]
        assert contains_tensor(t, nijenhuis_tensor(t)), name


def _tensor(dim, vals):
    return from_dense(dim, vals)


def test_zero_tensor_is_always_a_member(catalog):
    t = catalog["ex1"]
    zero = _tensor(t.dim, [[[F(0)] * t.dim for _ in range(t.dim)]
                           for _ in range(t.dim)])
    assert contains_tensor(t, zero)


def test_membership_rejects_offside_tensors(catalog):
    t = catalog["ex1"]
    n = nijenhuis_tensor(t)
    # breaking antisymmetry in one slot must leave the solution space
    vals = [[list(n.of_basis(b, c)) for c in range(t.dim)]
            for b in range(t.dim)]
    vals[0][1][0] += F(1)
    bad = _tensor(t.dim, vals)
    assert not contains_tensor(t, bad)
    # scaling is fine (the space is linear)
    scaled = _tensor(t.dim, [
        [[x * 3 for x in n.of_basis(b, c)] for c in range(t.dim)]
        for b in range(t.dim)])
    assert contains_tensor(t, scaled)


def test_membership_uses_the_triples_own_structures(catalog):
    # ex1's tensor need not satisfy the constraints cut out by another
    # triple's (omega, j) pair unless it happens to coincide; here the
    # structures agree (both standard) so membership transfers
    t1, t2 = catalog["ex1"], catalog["ex2"]
    n1 = nijenhuis_tensor(t1)
    assert t1.omega == t2.omega and t1.j == t2.j
    assert contains_tensor(t2, n1)


def _dense_structures(n, seed, steps):
    """A non-standard compatible (omega, J) on R^{2n} with fractional
    entries: J is conjugated by a product S of `steps` symplectic
    transvections v -> v + lam * omega(v, a) * a, as the benchmark's
    dense inputs are, and then both are moved by a rational upper triangular P
    (omega -> P^T omega P, J -> P^-1 J P), which keeps them compatible."""
    import random
    from liesymp import Matrix, standard_j, standard_omega
    rng = random.Random(seed)
    dim = 2 * n
    omega, j = standard_omega(dim), standard_j(dim)

    def transvection(a, lam):
        w = omega.apply(a)
        return Matrix.from_rows([[int(r == c) + lam * w[c] * a[r]
                                  for c in range(dim)] for r in range(dim)])

    s = s_inv = Matrix.identity(dim)
    for _ in range(steps):
        a = [F(rng.randint(-2, 2)) for _ in range(dim)]
        a[rng.randrange(dim)] = F(1)
        lam = rng.choice([F(1, 2), F(-1, 3), F(2, 5), F(-3, 7)])
        s = transvection(a, lam) @ s
        s_inv = s_inv @ transvection(a, -lam)
    assert s @ s_inv == Matrix.identity(dim)
    j = s @ j @ s_inv
    p = Matrix.from_rows([[F(rng.randint(1, 9), rng.choice([2, 3, 5, 7]))
                           if c >= r else 0 for c in range(dim)]
                          for r in range(dim)])
    omega, j = p.transpose() @ omega @ p, p.inverse() @ j @ p
    assert sum(1 for r in j.entries for x in r if x.denominator > 1) > dim
    assert omega.is_skew() and j @ j == Matrix.identity(dim).scale(-1)
    assert j.transpose() @ omega @ j == omega
    return omega, j


def test_nullity_on_dense_structures_against_dense_elimination():
    # the fraction-free sparse elimination over lcm-scaled rows in
    # antisymmetric coordinates against a dense Fraction Gauss-Jordan
    # rank of the full dim^3 system, on non-standard (omega, J)
    # (one transvection leaves zeros in J; two make every entry nonzero)
    for n, seed, steps in ((2, 41, 4), (3, 43, 2)):
        dim = 2 * n
        omega, j = _dense_structures(n, seed, steps)
        got = nullity(omega, j)
        assert got == _full_corank(dim, omega, j) == expected_dimension(n)


def _kernel_tensor(dim, rows, rng):
    """A random small-int combination of the kernel of `rows`."""
    from liesymp.linalg import nullspace_of
    vec = [F(0)] * dim ** 3
    for b in nullspace_of(rows, dim ** 3):
        c = rng.randint(-2, 2)
        vec = [x + c * y for x, y in zip(vec, b)]
    return _tensor(dim, [[vec[(i * dim + j) * dim:(i * dim + j + 1) * dim]
                          for j in range(dim)] for i in range(dim)])


def test_membership_equals_the_full_constraint_system(extended_catalog):
    # contains_tensor tests antisymmetry and first-slot anti-linearity on
    # the whole tensor and evaluates only the 2 C(n, 3) cyclic rows at
    # u; its verdict must be that of every row of the full dim^3 system.
    # The tensors: N; N plus a member of the space; N plus a tensor that
    # is antisymmetric and cyclic but in general not anti-linear (the
    # kernel of all rows but the anti-linearity ones); N with one value
    # bumped. Triples: the extended catalog and two with a dense J.
    import random
    from itertools import combinations
    from liesymp.tensor import combine
    from support import (dense_conjugate, full_row_contains_tensor,
                         full_rows)
    rng = random.Random(20261020)
    triples = dict(extended_catalog)
    for name in ("ex3", "dim6"):
        triples[f"dense({name})"] = dense_conjugate(triples[name], rng)
    verdicts = set()
    for name, t in sorted(triples.items()):
        d = t.dim
        n = nijenhuis_tensor(t)
        pairs = [(i, i) for i in range(d)] + list(combinations(range(d), 2))
        unanchored = full_rows(d, t.omega, t.j, pairs, (),
                               combinations(range(d), 3))
        member = _kernel_tensor(d, full_constraint_rows(d, t.omega, t.j),
                                rng)
        loose = _kernel_tensor(d, unanchored, rng)
        i, jj, k = rng.randrange(d), rng.randrange(d), rng.randrange(d)
        bump = _tensor(d, [[[F(int((a, b, c) == (i, jj, k)))
                             for c in range(d)] for b in range(d)]
                           for a in range(d)])
        for tensor in (n, combine([(1, n), (1, member)]),
                       combine([(1, n), (1, loose)]),
                       combine([(1, n), (1, bump)])):
            got = contains_tensor(t, tensor)
            assert got == full_row_contains_tensor(t, tensor), name
            verdicts.add(got)
    assert verdicts == {True, False}


def test_membership_rejects_a_diagonal_value(catalog):
    # N plus t(e_i, e_i) = e_k alone: no pair coordinate moves, so only
    # the antisymmetry check on the stored values can see it
    from liesymp.tensor import combine
    from support import full_row_contains_tensor
    for name in ("ex1", "dim6"):
        t = catalog[name]
        n = nijenhuis_tensor(t)
        assert contains_tensor(t, n)
        d = t.dim
        for i, k in ((0, 0), (d - 1, 1)):
            diag = Tensor3.from_ints(d, 1, {(i, i): [int(c == k)
                                                     for c in range(d)]})
            bad = combine([(1, n), (1, diag)])
            assert not contains_tensor(t, bad), (name, i, k)
            assert not full_row_contains_tensor(t, bad), (name, i, k)


def test_membership_rejects_a_lone_change_below_the_diagonal(catalog):
    # t(e_j, e_i), j > i, changed while t(e_i, e_j) stays: the pair
    # coordinates are those of N, so only antisymmetry can see it
    from support import full_row_contains_tensor
    for name in ("ex1", "dim6"):
        t = catalog[name]
        n = nijenhuis_tensor(t)
        d = t.dim
        for jj, i, k in ((1, 0, 0), (d - 1, 0, d - 1), (d - 1, d - 2, 2)):
            vals = [[list(n.of_basis(a, b)) for b in range(d)]
                    for a in range(d)]
            vals[jj][i][k] += F(1, 2)
            bad = _tensor(d, vals)
            assert bad.of_basis(i, jj) == n.of_basis(i, jj)
            assert not contains_tensor(t, bad), (name, jj, i, k)
            assert not full_row_contains_tensor(t, bad), (name, jj, i, k)


# -- the unknowns u_ab = t(e_a, e_b), a < b in `first_slots`, and the
#    2 C(n, 3) cyclic rows `build_constraint_rows` ranks over them


def _structures(catalog):
    """(name, omega, J): standard on ex1 (n = 2) and dim6 (n = 3), and
    dense rational ones for n = 2, 3, 4."""
    out = [(name, catalog[name].omega, catalog[name].j)
           for name in ("ex1", "dim6")]
    for n, seed, steps in ((2, 41, 4), (3, 43, 2), (4, 7, 3)):
        out.append((f"dense{n}", *_dense_structures(n, seed, steps)))
    return out


def _u_tensor(j, u):
    """t[i][k] = t(e_i, e_k) over Fractions for the t that u spans:
    t(e_a, e_b) = u[(a, b)], t(Je_a, e_b) = t(e_a, Je_b) = -J t(e_a, e_b)
    and t(Je_a, Je_b) = -t(e_a, e_b) on the basis {e_a, Je_a : a in
    `first_slots`}, moved to the standard basis. Asserts on the way that
    this t is antisymmetric and anti-linear in its first slot."""
    from liesymp import Matrix
    dim = j.nrows
    first = first_slots(j)
    n, zero = len(first), (F(0),) * dim

    def neg(v):
        return tuple(-x for x in v)

    def t_first(a, b):
        return u[a, b] if a < b else neg(u[b, a]) if a > b else zero

    tb = {}
    for p, a in enumerate(first):
        for q, b in enumerate(first):
            v = t_first(a, b)
            tb[p, q], tb[n + p, n + q] = v, neg(v)
            tb[n + p, q] = tb[p, n + q] = neg(j.apply(v))
    cols = [tuple(F(int(r == a)) for r in range(dim)) for a in first]
    cols += [j.apply(c) for c in cols]
    inv = Matrix.from_rows([list(r) for r in zip(*cols)]).inverse().entries
    # e_i = sum_p inv[p][i] b_p
    t = [[tuple(sum((inv[p][i] * inv[q][k] * tb[p, q][m]
                     for p in range(dim) for q in range(dim)), F(0))
                for m in range(dim)) for k in range(dim)]
         for i in range(dim)]
    je = j.entries
    for i in range(dim):
        for k in range(dim):
            assert t[k][i] == neg(t[i][k])
            jt = tuple(sum((je[m][i] * t[m][k][r] for m in range(dim)), F(0))
                       for r in range(dim))
            assert jt == neg(j.apply(t[i][k]))
    return t


def _cyclic_form(omega, j, u):
    """C[i][k][l] = c(e_i, e_k, e_l), c(x, y, z) = sum_cyc omega(t(x, y), z),
    over Fractions, for t = `_u_tensor(j, u)`."""
    dim, t = j.nrows, _u_tensor(j, u)
    om = omega.entries
    w = [[[sum((t[i][k][m] * om[m][l] for m in range(dim)), F(0))
           for l in range(dim)] for k in range(dim)] for i in range(dim)]
    return [[[w[i][k][l] + w[k][l][i] + w[l][i][k] for l in range(dim)]
             for k in range(dim)] for i in range(dim)]


def _moved_j(c, je, dim):
    """(c(Je_i, e_k, e_l), c(e_i, Je_k, e_l), c(e_i, e_k, Je_l)) for
    every basis triple."""
    r = range(dim)
    return [(sum(je[m][i] * c[m][k][l] for m in r),
             sum(je[m][k] * c[i][m][l] for m in r),
             sum(je[m][l] * c[i][k][m] for m in r))
            for i in r for k in r for l in r]


def test_cyclic_identity_reduces_to_the_first_slot_rows(catalog):
    # the module docstring's lemma, over Fractions: c takes J into any
    # slot, and c vanishes on every triple iff every row of
    # build_constraint_rows vanishes at u. The u: random; in the kernel
    # of every row; in the kernel of the omega rows alone, which the
    # metric rows must still see
    import random
    from liesymp.linalg import nullspace_of
    rng = random.Random(20261019)
    verdicts = set()
    for name, omega, j in _structures(catalog):
        dim = j.nrows
        pairs = list(combinations(first_slots(j), 2))
        rows = list(build_constraint_rows(omega, j))
        assert len(rows) == 2 * comb(dim // 2, 3)
        ncols = dim * len(pairs)

        def draw(basis):
            x = [F(0)] * ncols
            for b in basis:
                c = rng.randint(-2, 2)
                x = [p + c * q for p, q in zip(x, b)]
            return x

        # rows alternate: omega's, then the metric's, per triple
        us = [[F(rng.randint(-3, 3), rng.randint(1, 3))
               for _ in range(ncols)],
              draw(nullspace_of(rows, ncols)),
              draw(nullspace_of(rows[0::2], ncols))]
        for x in us:
            u = {ab: tuple(x[p * dim:(p + 1) * dim])
                 for p, ab in enumerate(pairs)}
            c = _cyclic_form(omega, j, u)
            for got in _moved_j(c, j.entries, dim):
                assert got[0] == got[1] == got[2], name
            flat = all(v == 0 for a in c for b in a for v in b)
            quiet = not any(sum(v * x[k] for k, v in row.items())
                            for row in rows)
            assert flat == quiet, name
            verdicts.add((len(rows) > 0, flat))
    assert verdicts == {(False, True), (True, True), (True, False)}


def test_membership_sees_the_metric_rows(catalog):
    # u in the kernel of the omega rows alone, not of the metric rows:
    # its t is antisymmetric and anti-linear in its first slot, and its
    # cyclic sums against omega vanish at every a < b < c in F, so only
    # the rows at (Je_a, e_b, e_c), the sums against G, can reject it
    import random
    from liesymp import build_rank_example
    from liesymp.linalg import nullspace_of
    from support import (dense_conjugate, full_row_contains_tensor,
                         rows_vanish_at_u)
    rng = random.Random(20261021)
    rank = build_rank_example(4, 2, True, False)
    triples = {"dim6": catalog["dim6"], "rank(4, 2)": rank,
               "dense(dim6)": dense_conjugate(catalog["dim6"], rng),
               "dense(rank(4, 2))": dense_conjugate(rank, rng)}
    for name, t in triples.items():
        dim = t.dim
        pairs = list(combinations(t.first_slots, 2))
        rows = list(build_constraint_rows(t.omega, t.j))
        # rows alternate: omega's, then the metric's, per triple
        seen = 0
        for x in nullspace_of(rows[0::2], dim * len(pairs)):
            if not any(sum(v * x[c] for c, v in row.items())
                       for row in rows[1::2]):
                continue
            u = {ab: tuple(x[p * dim:(p + 1) * dim])
                 for p, ab in enumerate(pairs)}
            tensor = from_dense(dim, _u_tensor(t.j, u))
            assert not contains_tensor(t, tensor), name
            assert not full_row_contains_tensor(t, tensor), name
            assert not rows_vanish_at_u(t, tensor), name
            seen += 1
            if seen == 3:
                break
        assert seen == 3, name


def _standard(n):
    from liesymp import standard_j, standard_omega
    return standard_omega(2 * n), standard_j(2 * n)


def test_nullity_equals_the_pair_coordinate_corank():
    # the rows of the cyclic identity alone against the pair-coordinate
    # system that also carries anti-linearity as rows
    for n in range(1, 7):
        assert nullity(*_standard(n)) == pair_corank(
            2 * n, *_standard(n)) == expected_dimension(n), n
    for n, seed, steps in ((2, 41, 4), (3, 43, 2), (4, 7, 1)):
        omega, j = _dense_structures(n, seed, steps)
        assert (nullity(omega, j) == pair_corank(2 * n, omega, j)
                == expected_dimension(n)), n


def test_nullity_on_dense_structures_up_to_dim_12():
    for n, seed, steps in ((2, 5, 3), (3, 6, 3), (4, 7, 3), (5, 8, 3),
                           (6, 9, 3)):
        omega, j = _dense_structures(n, seed, steps)
        assert nullity(omega, j) == expected_dimension(n), n


def test_standard_rows_are_independent():
    # on the standard structures no row reduces to zero: 2 C(n, 3) rows
    # of rank 2 C(n, 3), 252 for n = 3..8 where the pair-coordinate
    # system of `pair_constraint_rows` had 6,488
    from liesymp.linalg import echelon
    built = old = 0
    for n in range(3, 9):
        rows = list(build_constraint_rows(*_standard(n)))
        assert len(rows) == len(echelon(rows)) == 2 * comb(n, 3), n
        built += len(rows)
        old += sum(1 for _ in pair_constraint_rows(2 * n, *_standard(n)))
    assert (built, old) == (252, 6488)


def test_nullity_checks_its_structures():
    import pytest
    from liesymp import Matrix
    from liesymp.errors import NotAlmostComplex, NotCompatible
    omega, j = _standard(2)
    with pytest.raises(NotAlmostComplex):
        nullity(omega, j.scale(2))
    with pytest.raises(NotAlmostComplex):
        nullity(omega, Matrix.identity(4))
    # P^-1 J P is a complex structure; P e_0 = e_0 + e_1 shears across
    # the two symplectic planes, so omega(J., J.) != omega
    p = Matrix.from_rows([[int(r == c or (r, c) == (1, 0))
                           for c in range(4)] for r in range(4)])
    bent = p.inverse() @ j @ p
    assert bent @ bent == Matrix.identity(4).scale(-1)
    assert bent.transpose() @ omega @ bent != omega
    with pytest.raises(NotCompatible):
        nullity(omega, bent)
