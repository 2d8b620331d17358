"""The curvature summary (Ricci by its trace formula, the mixed trace
form P(x, y) = -sum_k c^k_xy Tr(J M_k) by the trace identity) against
the dense Matrix route (`support.dense_curvature`), which forms every
curvature operator and takes Tr(J R^c(e_x, e_y)) itself; and the dense
constructor of the sparse tensor type.

Both routes read the same Levi-Civita and Chern connections, so this
pins the Ricci formula, the trace identity, its scales and the Hermitian
scalar; the connections themselves are pinned by their axiom tests. The
dense conjugates have every J entry nonzero, the sparse dim-12 triple
has pairs with no curvature at all.
"""

import random

import pytest

from liesymp import Analysis, build_rank_example, thurston
from support import (dense_conjugate, dense_curvature, dense_operators,
                     from_dense)


def _assert_routes_agree(t, name):
    a = Analysis(t)
    cs = a.curvature
    ricci, scalar, chern_ricci, herm = dense_curvature(t, a.lc, a.chern)
    assert cs.ricci == ricci, name
    assert cs.scalar == scalar, name
    assert cs.chern_ricci == chern_ricci, name
    assert cs.hermitian_scalar == herm, name


def test_curvature_matches_dense_route_on_extended_catalog(extended_catalog):
    for name, t in extended_catalog.items():
        _assert_routes_agree(t, name)


@pytest.mark.parametrize("alpha", ["1/2", "2/3", "1", "5/3", "3", "9/4"])
def test_curvature_matches_dense_route_on_thurston_family(alpha):
    _assert_routes_agree(thurston(alpha), alpha)


@pytest.mark.parametrize("n, k, flags", [
    (2, 1, (True, True)), (2, 1, (False, False)), (3, 1, (True, False)),
    (3, 3, (True, True)), (4, 2, (False, True)), (4, 4, (True, True)),
    (5, 2, (True, False)), (5, 4, (False, True))])
def test_curvature_matches_dense_route_on_rank_examples(n, k, flags):
    _assert_routes_agree(build_rank_example(n, k, *flags), f"rank({n}, {k})")


@pytest.mark.parametrize("n, k, flags, seed", [
    (2, 1, (True, False), ""), (2, 1, (False, True), ":b"),
    (3, 2, (False, True), ""), (3, 1, (True, True), ":b"),
    (4, 2, (True, False), ""), (4, 3, (False, False), ":b")])
def test_curvature_matches_dense_route_on_dense_conjugates(n, k, flags,
                                                           seed):
    base = build_rank_example(n, k, *flags)
    t = dense_conjugate(base, random.Random(f"dense:{n}:{k}{seed}"))
    assert all(x != 0 for r in t.j.entries for x in r)
    _assert_routes_agree(t, f"dense dim {2 * n}")


def test_curvature_matches_dense_route_on_a_sparse_dim_12_triple():
    # some pairs i < j have no nonzero curvature column at all
    t = build_rank_example(6, 3, True, True)
    a = Analysis(t)
    ops = dense_operators(t, a.chern)
    assert any(ops[i][j].is_zero() for i in range(12) for j in range(i))
    assert any(not ops[i][j].is_zero() for i in range(12) for j in range(i))
    _assert_routes_agree(t, "rank(6, 3)")


def test_from_dense_round_trips_n(extended_catalog):
    for name, t in extended_catalog.items():
        n = Analysis(t).n
        d = t.dim
        vals = [[n.of_basis(i, j) for j in range(d)] for i in range(d)]
        back = from_dense(d, vals)
        assert back == n, name
        assert all(back.of_basis(i, j) == vals[i][j]
                   for i in range(d) for j in range(d)), name
