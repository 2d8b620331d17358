"""`covariant_derivative_n`, `classify`'s J-stability check,
`torsion_recovers_nijenhuis` and the parallel-form check `_parallel` run
as int checks on whole tensors and subspaces. Here they are held to the
pointwise loops they replaced (`support.pointwise_parallelism`,
`pointwise_torsion_recovers_nijenhuis`), to the Matrix definition
F M_i + M_i^T F = 0 (`support.definitional_parallel`), and
`Subspace.invariant_under` to the image of a subspace under a map, tested
by pivot subtraction (`support.pivot_contains`), on inputs where both
answers occur. `Tensor3.endo`, read off the stored rows, is held to the
dense numerator route (`support.dense_endo`)."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from liesymp import (Analysis, DistributionReport, Matrix, Subspace,
                     Tensor3, abelian, build_rank_example,
                     covariant_derivative_n, symplectic_connection,
                     torsion_recovers_nijenhuis)
from liesymp.connections import _parallel
from liesymp.errors import InternalInvariantViolation, Unsatisfiable
from liesymp.tensor import combine
from support import (col, definitional_parallel, dense_conjugate,
                     dense_endo, from_dense, image_under, pivot_contains,
                     pointwise_parallelism,
                     pointwise_torsion_recovers_nijenhuis)

F = Fraction


def _with_image_perp(rep, image, perp):
    """rep with its image and perp replaced"""
    return DistributionReport(rep.integrable, rep.norm_sq, image,
                              rep.image_involutive, perp,
                              rep.perp_involutive, rep.kernel)
_FLAGS = (True, False)


def _admissible(n):
    """Every triple `build_rank_example(n, k, ...)` builds."""
    out = {}
    for k in range(n + 1):
        for flags in product(_FLAGS, repeat=2):
            try:
                out[f"rank({n}, {k}, {flags})"] = build_rank_example(
                    n, k, *flags)
            except Unsatisfiable:
                pass
    return out


def _check(t, seen):
    """Assert that the library routes equal the pointwise oracles on t
    and record the answers in seen: the parallel-form answers under
    "<connection> metric" and "<connection> omega"."""
    a = Analysis(t)
    par = a.parallelism
    got = (par.nabla_n_zero, par.image_parallel, par.perp_parallel)
    assert got == pointwise_parallelism(t, a.lc, a.n, a.distributions)
    seen.setdefault("parallelism", set()).add(got)
    for cname, conn in (("levi_civita", a.lc), ("chern", a.chern),
                        ("symplectic", symplectic_connection(t, a.lc))):
        ok = torsion_recovers_nijenhuis(t, conn, a.n)
        assert ok == pointwise_torsion_recovers_nijenhuis(t, conn, a.n)
        seen.setdefault(cname, set()).add(ok)
        for form, fname in ((t.metric, "metric"), (t.omega, "omega")):
            par = _parallel(conn, form)
            assert par == definitional_parallel(conn, form)
            seen.setdefault(f"{cname} {fname}", set()).add(par)


def _assert_parallel_forms(seen):
    """The connections' own axioms: LC keeps the metric, Chern both forms,
    the symplectic connection omega."""
    for key in ("levi_civita metric", "chern metric", "chern omega",
                "symplectic omega"):
        assert seen[key] == {True}, key


def test_routes_match_oracles_on_extended_catalog(extended_catalog):
    seen = {}
    for name, t in extended_catalog.items():
        _check(t, seen)
    for n in range(1, 5):
        _check(abelian(n), seen)
    # nabla N = 0 only with N = 0; a whole-algebra image is parallel
    assert seen["parallelism"] == {(True, True, True), (False, True, True),
                                   (False, False, False)}
    assert seen["chern"] == {True}
    assert seen["levi_civita"] == seen["symplectic"] == {True, False}
    _assert_parallel_forms(seen)
    # omega is parallel for LC, and the metric for the symplectic
    # connection, exactly on the Kaehler triples
    assert seen["levi_civita omega"] == {True, False}
    assert seen["symplectic metric"] == {True, False}


@pytest.mark.parametrize("name", ["ex1", "ex3", "ex4"])
def test_parallel_is_false_for_omega_under_levi_civita(catalog, name):
    t = catalog[name]
    lc = Analysis(t).lc
    assert not _parallel(lc, t.omega)
    assert not definitional_parallel(lc, t.omega)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_routes_match_oracles_on_rank_examples(n):
    triples = _admissible(n)
    assert len(triples) == {2: 5, 3: 10, 4: 14, 5: 18}[n]
    seen = {}
    for t in triples.values():
        _check(t, seen)
    assert seen["chern"] == {True}
    _assert_parallel_forms(seen)


@pytest.mark.parametrize("n, k, flags", [
    (2, 0, (True, True)), (2, 1, (True, False)), (2, 1, (False, True)),
    (3, 1, (True, True)), (3, 2, (False, False)), (3, 3, (True, True)),
    (4, 2, (False, True)), (4, 3, (True, False))])
def test_routes_match_oracles_on_dense_conjugates(n, k, flags):
    base = build_rank_example(n, k, *flags)
    t = dense_conjugate(base, random.Random(f"parallel:{n}:{k}:{flags}"))
    seen = {}
    _check(t, seen)
    assert seen["chern"] == {True}
    _assert_parallel_forms(seen)


@pytest.mark.parametrize("name", ["ex1", "ex4", "dim6"])
def test_nabla_of_the_bracket_under_ad_is_jacobi(catalog, name):
    # Gamma(A, B) = [A, B] acts by derivations, so it kills the bracket:
    # [A, [B, C]] - [[A, B], C] - [B, [A, C]] = 0. No triple here has
    # nabla N = 0 with N != 0, so this case holds each term's sign; the
    # bracket with one value raised is not parallel. Zero and full
    # distributions keep the derivative from being skipped.
    t = catalog[name]
    g = t.algebra.bracket
    rep = _with_image_perp(Analysis(t).distributions,
                           Subspace.zero(t.dim), Subspace.full(t.dim))
    d = t.dim
    bumped = combine([(1, g), (1, Tensor3.from_ints(d, 1, {
        min(g.rows): [int(k == 0) for k in range(d)]}))])
    for tensor, zero in ((g, True), (bumped, False)):
        assert covariant_derivative_n(t, g, tensor, rep).nabla_n_zero == zero
        assert pointwise_parallelism(t, g, tensor, rep)[0] == zero


@pytest.mark.parametrize("name", ["ex1", "ex3", "dim6"])
def test_parallelism_forms_gamma_only_at_stored_first_slots(catalog, name):
    # Gamma(e_0, .) = M = G^-1 (E_pq - E_qp), skew for the metric, and
    # Gamma(e_i, .) = 0 for i != 0: e_p and e_q have a zero row and a
    # nonzero column, so a check that took its i from Gamma's second
    # slots would form the zero M_p and M_q and never M_0
    t = catalog[name]
    a = Analysis(t)
    d = t.dim
    seen = set()
    for p, q in combinations(range(1, d), 2):
        skew = Matrix.from_rows([[int((r, c) == (p, q))
                                  - int((r, c) == (q, p)) for c in range(d)]
                                 for r in range(d)])
        m = t.metric_inv @ skew
        gamma = from_dense(d, [[col(m, b) if i == 0 else [0] * d
                                for b in range(d)] for i in range(d)])
        assert {i for i, _ in gamma.rows} == {0}
        assert {b for _, b in gamma.rows} == {p, q}
        par = covariant_derivative_n(t, gamma, a.n, a.distributions)
        got = (par.nabla_n_zero, par.image_parallel, par.perp_parallel)
        assert got == pointwise_parallelism(t, gamma, a.n,
                                            a.distributions), (p, q)
        seen.add(got)
    assert seen - {(True, True, True)}


def test_torsion_identity_needs_a_j_parallel_connection(catalog):
    # the Chern connection is J-parallel and recovers N; the Levi-Civita
    # connection of a non-Kaehler triple is not, and does not
    a = Analysis(catalog["ex1"])
    assert torsion_recovers_nijenhuis(a.t, a.chern, a.n)
    assert not torsion_recovers_nijenhuis(a.t, a.lc, a.n)


def test_parallel_check_trips_on_a_complement_that_is_not_one(catalog):
    # im N of ex1 is not parallel; the full space, passed as its
    # complement, is
    a = Analysis(catalog["ex1"])
    rep = _with_image_perp(a.distributions, a.distributions.image,
                           Subspace.full(a.t.dim))
    with pytest.raises(InternalInvariantViolation,
                       match="^im N parallel but its orthogonal complement "
                             "is not$"):
        covariant_derivative_n(a.t, a.lc, a.n, rep)


def _random_matrix(rng, rows, cols):
    return Matrix.from_rows([[F(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                              for _ in range(cols)] for _ in range(rows)])


def _holds_image(s, m):
    """m(s) in s, by pivot subtraction."""
    return all(pivot_contains(s, v) for v in image_under(s, m).basis.entries)


def test_invariant_under_matches_the_image(catalog):
    rng = random.Random("invariant")
    answers = set()
    for d in (2, 3, 4, 6):
        subspaces = [Subspace.zero(d), Subspace.full(d)]
        for _ in range(6):
            subspaces.append(Subspace.span(d, _random_matrix(
                rng, rng.randint(1, d - 1), d).entries))
        for s in subspaces:
            maps = [_random_matrix(rng, d, d), Matrix.identity(d),
                    Matrix.from_rows([[0] * d] * d)]
            if s.dim:
                # basis^T @ W maps everything into s
                maps.append(s.basis.transpose()
                            @ _random_matrix(rng, s.dim, d))
            for m in maps:
                got = s.invariant_under(m)
                assert got == _holds_image(s, m), (s, m)
                answers.add(got)
    # the J-stable distributions of every catalog triple
    for name, t in catalog.items():
        rep = Analysis(t).distributions
        for s in (rep.image, rep.perp):
            assert s.invariant_under(t.j), name
            assert _holds_image(s, t.j), name
    assert answers == {True, False}


def _assert_endo_is_dense_endo(tensor, name):
    for i in range(tensor.dim):
        m, oracle = tensor.endo(i), dense_endo(tensor, i)
        assert m == oracle and hash(m) == hash(oracle), (name, i)


def test_endo_matches_the_dense_route(extended_catalog):
    triples = dict(extended_catalog)
    for n, k, flags in ((2, 1, (True, False)), (3, 2, (False, True)),
                        (4, 2, (True, False))):
        triples[f"dense rank({n}, {k})"] = dense_conjugate(
            build_rank_example(n, k, *flags), random.Random(f"endo:{n}:{k}"))
    for name, t in triples.items():
        a = Analysis(t)
        for tname, tensor in (("lc", a.lc), ("nabla_j", a.nabla_j),
                              ("n", a.n)):
            _assert_endo_is_dense_endo(tensor, f"{name} {tname}")
    # den 4, and e_0's slice holds only the even numerators 2 and 6, so
    # its matrix is over 2 in canonical form; e_1's slice is zero
    tensor = Tensor3.from_ints(3, 4, {(0, 0): [2, 0, 6], (0, 2): [0, 2, 0],
                                      (2, 1): [1, 0, 0]})
    assert tensor.den == 4 and tensor.endo(0).den == 2
    _assert_endo_is_dense_endo(tensor, "shared factor")
