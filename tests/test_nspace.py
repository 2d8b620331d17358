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
