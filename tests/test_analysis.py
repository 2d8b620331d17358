"""One analysis pass per triple, and the Hermitian scalar against an
independent determinant route.

The call counts patch each function in every liesymp module namespace
that holds it, so a call through any `from .x import f` is counted.

The oracle computes s_C from its definition, d/dt Pf(W + tP)|_0 / Pf(W),
squared into determinants: with Pf^2 = det, the ratio is
1/2 [t^1] det(W + tP) / det(W), expanded by sympy. sympy is used here
only, never by the library.
"""

import random
import sys
from fractions import Fraction

import pytest
import sympy

from liesymp import (Analysis, build_rank_example, build_report, builtin,
                     golden_rows)
from liesymp.connections import (chern_connection, curvature_summary,
                                  levi_civita, nabla_of)
from liesymp.linalg import Matrix
from liesymp.nijenhuis import classify, nijenhuis_tensor
from liesymp.report import subspace_payload
from liesymp.serialization import pretty_json
from liesymp.tensor import Tensor3
from liesymp.twistor import twistor_nijenhuis
from support import aff_aff_triple, dense_conjugate, name_of_vector


def _count(monkeypatch, fn) -> list:
    """Record the arguments of every call to fn, through any module."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "liesymp" and getattr(
                mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


def test_build_report_computes_each_quantity_once(monkeypatch):
    t = build_rank_example(3, 1, True, True)
    n = nijenhuis_tensor(t)
    fns = (nijenhuis_tensor, classify, levi_civita,
           chern_connection, curvature_summary)
    calls = {fn.__name__: _count(monkeypatch, fn) for fn in fns}
    nablas = _count(monkeypatch, nabla_of)
    lowered_by_metric = []
    map_values = Tensor3.map_values

    def recorded(self, m):
        if m is t.metric:
            lowered_by_metric.append(self)
        return map_values(self, m)

    monkeypatch.setattr(Tensor3, "map_values", recorded)
    build_report(t, full=True)
    # the curvature summary reads the Chern trace form off the
    # Levi-Civita map, so a report never builds the Chern connection
    # and never checks nabla^c J = 0
    assert {k: len(v) for k, v in calls.items()} == {
        fn.__name__: int(fn is not chern_connection) for fn in fns}
    # the metric lowers the bracket tensor, for the Koszul sums, and N
    # once, for |N|^2 and the nabla J pairing both; Levi-Civita is
    # checked on the Koszul ints, so Gamma is never lowered
    assert len(lowered_by_metric) == 2
    assert t.algebra.bracket in lowered_by_metric and n in lowered_by_metric
    assert nablas == [(levi_civita(t), t.j)]


def test_golden_rows_classify_each_entry_once(monkeypatch):
    classified = _count(monkeypatch, classify)
    tensors = _count(monkeypatch, twistor_nijenhuis)
    cherns = _count(monkeypatch, chern_connection)
    nablas = _count(monkeypatch, nabla_of)
    rows = golden_rows()
    assert len(rows) == 48 and all(r.ok for r in rows)
    assert len(classified) == 8
    assert cherns == [] and nablas == []
    for sign in "+-":
        assert sorted(m.h_dim for m, s in tensors if s == sign) == [1, 4, 9]


def _tensor_block_by_of_basis(t, n) -> list:
    """The `tensor` block of a full report from `of_basis`: every pair
    i < j with a nonzero value, in order."""
    g, d, out = t.algebra, t.dim, []
    for i in range(d):
        for j in range(i + 1, d):
            v = n.of_basis(i, j)
            if any(x != 0 for x in v):
                out.append({
                    "pair": f"{g.basis_names[i]},{g.basis_names[j]}",
                    "coords": [str(x) for x in v],
                    "combo": name_of_vector(g, v),
                })
    return out


@pytest.mark.parametrize("n, k, flags", [(2, 1, (True, False)),
                                         (3, 2, (False, True)),
                                         (4, 2, (True, False))])
def test_full_tensor_block_matches_of_basis(n, k, flags):
    t = dense_conjugate(build_rank_example(n, k, *flags),
                        random.Random(f"dense:{n}:{k}"))
    block = build_report(t, full=True)["tensor"]
    assert block and block == _tensor_block_by_of_basis(t, Analysis(t).n)


def test_subspace_payload_matches_its_fraction_vectors(catalog):
    for name, t in catalog.items():
        rep, g = Analysis(t).distributions, t.algebra
        for s in (rep.image, rep.perp, rep.kernel):
            assert subspace_payload(s, g)["basis"] == [{
                "coords": [str(x) for x in v],
                "combo": name_of_vector(g, v),
            } for v in s.basis.entries], name


def test_full_report_reads_no_fraction_entries(monkeypatch):
    t = builtin("abelian(20)")
    reads = []
    entries = Matrix.entries.func

    def counted(m):
        reads.append(m)
        return entries(m)

    monkeypatch.setattr(Matrix, "entries", property(counted))
    pretty_json(build_report(t, full=True))
    assert reads == []
    Matrix.identity(2).entries
    assert len(reads) == 1


def test_analysis_caches_on_the_object():
    a = Analysis(builtin("ex3"))
    assert a.distributions is a.distributions
    assert a.parallelism is a.parallelism
    assert Analysis(a.t).n is not a.n


def _rat(x: Fraction) -> sympy.Rational:
    return sympy.Rational(x.numerator, x.denominator)


def _pfaffian_ratio(omega, p) -> Fraction:
    s = sympy.Symbol("s")
    d = omega.nrows
    w = sympy.Matrix(d, d, [_rat(x) for r in omega.entries for x in r])
    pm = sympy.Matrix(d, d, [_rat(x) for r in p.entries for x in r])
    poly = sympy.Poly((w + s * pm).det(method="berkowitz"), s)
    val = poly.coeff_monomial(s) / (2 * w.det(method="berkowitz"))
    return Fraction(int(val.p), int(val.q))


_ORACLE = {
    "ex1": lambda: builtin("ex1"),
    "ex2": lambda: builtin("ex2"),
    "ex3": lambda: builtin("ex3"),
    "ex4": lambda: builtin("ex4"),
    "dim6": lambda: builtin("dim6"),
    "thurston(2/3)": lambda: builtin("thurston(2/3)"),
    "rank(5,2)": lambda: build_rank_example(5, 2, True, True),
    "aff+aff": aff_aff_triple,
}


@pytest.mark.parametrize("name", list(_ORACLE))
def test_hermitian_scalar_matches_pfaffian_derivative(name):
    t = _ORACLE[name]()
    cs = Analysis(t).curvature
    assert cs.hermitian_scalar == _pfaffian_ratio(t.omega, cs.chern_ricci)
    if name == "aff+aff":
        assert not cs.chern_ricci.is_zero()
