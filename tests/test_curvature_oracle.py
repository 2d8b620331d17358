"""The curvature summary, summed in ints over the nonzero curvature
values, against the dense Matrix route it replaced
(`support.dense_curvature`), and the dense constructor of the sparse
tensor type.

Both routes read the same Levi-Civita and Chern connections, so this
pins the curvature operators, the Ricci and mixed trace contractions and
their scales; the connections themselves are pinned by their axiom tests.
"""

import random

import pytest

from liesymp import Analysis, Tensor3, build_rank_example, thurston
from support import dense_conjugate, dense_curvature


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


@pytest.mark.parametrize("n, k, flags", [(2, 1, (True, False)),
                                         (3, 2, (False, True))])
def test_curvature_matches_dense_route_on_dense_conjugates(n, k, flags):
    base = build_rank_example(n, k, *flags)
    t = dense_conjugate(base, random.Random(f"dense:{n}:{k}"))
    assert all(x != 0 for r in t.j.entries for x in r)
    _assert_routes_agree(t, f"dense dim {2 * n}")


def test_from_dense_round_trips_n(extended_catalog):
    for name, t in extended_catalog.items():
        n = Analysis(t).n
        d = t.dim
        vals = [[n.of_basis(i, j) for j in range(d)] for i in range(d)]
        back = Tensor3.from_dense(d, vals)
        assert back == n, name
        assert all(back.of_basis(i, j) == vals[i][j]
                   for i in range(d) for j in range(d)), name
