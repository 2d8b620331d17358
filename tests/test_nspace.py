from fractions import Fraction

from liesymp import (Tensor3, contains_tensor, expected_dimension,
                     nijenhuis_space_dim, nijenhuis_tensor)
from liesymp.nspace import build_constraint_rows, nullity
from support import fraction_rref

F = Fraction


def test_closed_form_dimension():
    assert [expected_dimension(n) for n in range(1, 6)] == [0, 4, 16, 40, 80]


def test_nullity_matches_closed_form():
    for n in range(1, 6):
        assert nijenhuis_space_dim(n) == expected_dimension(n)


def test_nullity_against_dense_elimination():
    # re-run the n = 2 system through a dense Fraction rank computation,
    # not Matrix.rank, which shares nullity's elimination routine
    from liesymp import Matrix, standard_j, standard_omega
    dim = 4
    rows = build_constraint_rows(dim, standard_omega(dim), standard_j(dim))
    ncols = dim ** 3
    dense = Matrix.from_rows([
        [r.get(c, F(0)) for c in range(ncols)] for r in rows])
    assert ncols - fraction_rref(dense)[1] == 4


def test_catalog_tensors_satisfy_their_own_constraints(catalog):
    for name in ("ex1", "ex2", "ex3", "ex4", "dim6", "thurston(2)"):
        t = catalog[name]
        assert contains_tensor(t, nijenhuis_tensor(t)), name


def _tensor(dim, vals):
    return Tensor3.from_dense(dim, vals)


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
    # the fraction-free sparse elimination over lcm-scaled rows against
    # a dense Fraction Gauss-Jordan rank of the same rows, on non-standard
    # (omega, J)
    from liesymp import Matrix
    # (one transvection leaves zeros in J; two make every entry nonzero)
    for n, seed, steps in ((2, 41, 4), (3, 43, 2)):
        dim = 2 * n
        omega, j = _dense_structures(n, seed, steps)
        got = nullity(dim, omega, j)
        rows = list(build_constraint_rows(dim, omega, j))
        ncols = dim ** 3
        dense = Matrix.from_rows([
            [r.get(c, 0) for c in range(ncols)] for r in rows])
        assert got == ncols - fraction_rref(dense)[1] == expected_dimension(n)


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
    # contains_tensor builds only the rows that meet the tensor's support;
    # its verdict must be that of every row of build_constraint_rows, and
    # every row that does not vanish on the tensor must be built. The
    # tensors: N; N plus a member of the space; N plus a tensor that is
    # antisymmetric and cyclic but in general not anti-linear (the
    # kernel of all rows but the anti-linearity ones); N with one value
    # bumped. Triples: the extended catalog and two with a dense J.
    import random
    from itertools import combinations
    from liesymp.nijenhuis import combine
    from liesymp.nspace import _rows, _support_rows
    from support import dense_conjugate, full_row_contains_tensor
    rng = random.Random(20261020)
    triples = dict(extended_catalog)
    for name in ("ex3", "dim6"):
        triples[f"dense({name})"] = dense_conjugate(triples[name], rng)
    verdicts = set()
    for name, t in sorted(triples.items()):
        d = t.dim
        n = nijenhuis_tensor(t)
        pairs = [(i, i) for i in range(d)] + list(combinations(range(d), 2))
        unanchored = _rows(d, t.omega, t.j, pairs, (),
                           combinations(range(d), 3))
        member = _kernel_tensor(d, build_constraint_rows(d, t.omega, t.j),
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
            # and row by row: each row that does not vanish is built
            built = {frozenset(r.items()) for r in _support_rows(t, tensor)}
            scaled = {(a * d + b) * d + c: p
                      for (a, b), row in tensor.rows.items() for c, p in row}
            for row in build_constraint_rows(d, t.omega, t.j):
                if sum(v * scaled.get(c, 0) for c, v in row.items()):
                    assert frozenset(row.items()) in built, name
    assert verdicts == {True, False}
