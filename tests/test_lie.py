from fractions import Fraction

import pytest

from liesymp import (Analysis, Subspace, abelian, build_report,
                     validate as build_algebra)
from liesymp.errors import BadNumber, DimensionMismatch, JacobiViolation
from liesymp.catalog import _xy_names
from liesymp.twistor import build_twistor_model
from support import ad, name_of_vector, nonzero_brackets

F = Fraction


def test_catalog_algebras_revalidate(catalog):
    # every builtin table round-trips through the validating constructor
    for name, t in catalog.items():
        g = t.algebra
        brackets = {(i, j): res for i, j, res in nonzero_brackets(g)}
        g2 = build_algebra(g.name, g.basis_names, brackets)
        assert nonzero_brackets(g2) == nonzero_brackets(g)


def test_jacobi_violation_reports_offending_basis_triple():
    # a bracket table that fails Jacobi on (X1, X2, Y2): take the
    # two-step nilpotent table [X1,X2]=Y2, [X1,Y2]=Y1 and graft on
    # [X2,Y2] = X2, which breaks the cyclic sum
    with pytest.raises(JacobiViolation) as exc:
        build_algebra(
            "bad", ["X1", "X2", "Y1", "Y2"],
            {(0, 1): {3: F(1)}, (0, 3): {2: F(1)}, (1, 3): {1: F(1)}})
    msg = str(exc.value)
    assert "X1" in msg and "X2" in msg and "Y2" in msg


def test_basis_names_are_distinct():
    # the dimension is the number of names, so each must name its own
    # basis vector; an abelian table is refused as well
    for names in (["x", "y", "x"], ["x", "x"]):
        with pytest.raises(DimensionMismatch) as exc:
            build_algebra("g", names, {})
        assert str(exc.value) == "basis name 'x' repeats"
    assert build_algebra("g", ["x", "y"], {(0, 1): {1: 1}}).dim == 2


def test_bracket_bilinearity(catalog):
    g = catalog["ex3"].algebra
    u = [F(1), F(2), F(0), F(-1)]
    v = [F(0), F(1, 2), F(3), F(0)]
    w = [F(1), F(0), F(0), F(1)]
    left = g.bracket_vec([a + b for a, b in zip(u, v)], w)
    split = [a + b for a, b in zip(g.bracket_vec(u, w), g.bracket_vec(v, w))]
    assert list(left) == split


def test_bracket_antisymmetry_via_ad(catalog):
    g = catalog["ex4"].algebra
    for i in range(g.dim):
        for j in range(g.dim):
            ei = [F(1) if k == i else F(0) for k in range(g.dim)]
            ej = [F(1) if k == j else F(0) for k in range(g.dim)]
            assert list(ad(g, ei).apply(ej)) == [
                -x for x in ad(g, ej).apply(ei)]


def test_lower_central_series_dims(catalog):
    nilp, dims = catalog["thurston(1)"].algebra.is_nilpotent()
    assert nilp and dims == [4, 1, 0]
    nilp, dims = catalog["dim6"].algebra.is_nilpotent()
    assert nilp
    assert dims[0] == 6 and dims[-1] == 0
    nilp, dims = catalog["ex4"].algebra.is_nilpotent()
    assert not nilp


def test_lower_central_series_brackets_g_with_each_term(extended_catalog):
    # the series starts from [g, g] spanned off the stored brackets and
    # stops at a term that g brackets back onto itself; so(1, 2n) is
    # perfect, so its series is g alone
    algebras = [t.algebra for t in extended_catalog.values()]
    algebras += [build_twistor_model(n).algebra for n in (1, 2)]
    for g in algebras:
        series = g.lower_central_series()
        assert series[0] == Subspace.full(g.dim), g.name
        assert [g.bracket_of_subspaces(series[0], s) for s in series] == (
            series[1:] + series[-1:]), g.name
        assert (len(series) == 1) == g.name.startswith("so(1,"), g.name


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_abelian_series_and_involutivity(n):
    # with no stored bracket, [a, b] is the zero subspace at once: the
    # series is g, 0 and both distributions of the report are involutive
    t = abelian(n)
    g, d = t.algebra, t.dim
    some = Subspace.span(d, [[1] + [2] * (d - 1), [0] * (d - 1) + [1]])
    for s in (Subspace.full(d), some, Subspace.zero(d)):
        assert g.bracket_of_subspaces(s, s) == Subspace.zero(d)
    assert g.lower_central_series() == [Subspace.full(d), Subspace.zero(d)]
    assert g.is_nilpotent() == (True, [d, 0])
    rep = Analysis(t).distributions
    assert rep.image_involutive and rep.perp_involutive
    assert (rep.image.dim, rep.perp.dim) == (0, d)


def test_abelian_flags(catalog):
    assert catalog["abelian(2)"].algebra.is_abelian()
    assert not catalog["ex1"].algebra.is_abelian()


def test_characters_annihilate_derived_subalgebra(catalog):
    for name, t in catalog.items():
        g = t.algebra
        derived = g.derived_subalgebra()
        for xi in g.characters():
            for v in derived.basis.entries:
                assert sum(a * b for a, b in zip(xi, v)) == 0


def test_character_space_dims(catalog):
    assert len(catalog["abelian(2)"].algebra.characters()) == 4
    # ex2 has a single bracket with a 1-dim image
    assert len(catalog["ex2"].algebra.characters()) == 3
    # ex4 is almost perfect: derived algebra is 3-dimensional
    assert len(catalog["ex4"].algebra.characters()) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_abelian_characters_are_the_identity_rows(catalog, n):
    # [g, g] = 0, so every functional is a character: the nullspace of
    # the zero subspace's empty basis, one identity row per column
    chars = catalog[f"abelian({n})"].algebra.characters()
    assert chars == [tuple(F(int(i == j)) for j in range(2 * n))
                     for i in range(2 * n)]
    assert all(type(x) is F for r in chars for x in r)


def test_rational_basis_and_lattice_criterion(catalog):
    for name, t in catalog.items():
        g = t.algebra
        nilp, _ = g.is_nilpotent()
        assert build_report(t)["flags"]["lattice_criterion"] == nilp


def test_vector_naming():
    names = _xy_names(2)
    assert names == ["X1", "X2", "Y1", "Y2"]
    g = build_algebra("a", names, {})
    assert name_of_vector(g, [F(1), F(0), F(0), F(-1)]) == "X1 - Y2"
    assert name_of_vector(g, [F(1, 2), F(0), F(2), F(0)]) == "1/2*X1 + 2*Y1"
    assert name_of_vector(g, [F(0)] * 4) == "0"
    # a leading -1, negative non-units, a unit written over 2
    assert name_of_vector(g, [F(-1), F(0), F(1), F(0)]) == "-X1 + Y1"
    assert name_of_vector(g, [F(0), F(-3, 2), F(0), F(-2)]) == "-3/2*X2 - 2*Y2"
    assert name_of_vector(g, [F(2, 2), F(0), F(-4, 2), F(0)]) == "X1 - 2*Y1"
    # ints and "p/q" strings, read as qof reads them, in lowest terms
    assert name_of_vector(g, [0, -1, 3, 1]) == "-X2 + 3*Y1 + Y2"
    assert name_of_vector(g, ["2/2", "-2/4", "0/7", "-6/3"]) == (
        "X1 - 1/2*X2 - 2*Y2")
    assert name_of_vector(g, ["-1", "0", "5", "1/1"]) == "-X1 + 5*Y1 + Y2"
    with pytest.raises(TypeError):
        name_of_vector(g, [0.5, 0, 0, 0])
    with pytest.raises(BadNumber):
        name_of_vector(g, ["1/0", 0, 0, 0])


def test_dim_is_the_number_of_basis_names(catalog):
    algebras = [t.algebra for t in catalog.values()]
    algebras += [build_twistor_model(n).algebra for n in (1, 2, 3)]
    assert [g.dim for g in algebras[-3:]] == [3, 10, 21]
    for g in algebras:
        assert g.dim == g.bracket.dim == len(g.basis_names), g.name
