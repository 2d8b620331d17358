import random
from fractions import Fraction

import pytest

from liesymp import (Analysis, Matrix, Subspace, build_rank_example,
                     build_triple, builtin, catalog, character_extension,
                     nijenhuis_tensor, product_extension)
from liesymp.catalog import _block2, catalog_names
from liesymp.errors import (BadNumber, NotACharacter, PerfectAlgebra,
                            Unsatisfiable, ZeroCharacter)
from support import bracket_basis, diag, nonzero_brackets

F = Fraction


def test_builtin_lookup_and_parametrized_names():
    assert builtin("ex2").algebra.name == "ex2"
    assert builtin("thurston(1/2)").algebra.name == "thurston(1/2)"
    assert builtin("thurston(3)").algebra.name == "thurston(3)"
    assert builtin("abelian(4)").dim == 8
    with pytest.raises(KeyError):
        builtin("nosuch")
    for name in catalog_names():
        assert isinstance(name, str)


def test_abelian_parameter_follows_the_number_grammar():
    assert builtin("abelian").dim == 4
    assert builtin("abelian(3)").algebra.name == "abelian(3)"
    assert builtin("abelian(4/2)").algebra.name == "abelian(2)"
    # int() read "1_0" as 10 and raised a bare ValueError on the others
    for param in ("x", "3/2", "1_0", "0.5", "1/0"):
        with pytest.raises(BadNumber):
            builtin(f"abelian({param})")
    with pytest.raises(BadNumber, match="needs an integer n, got '3/2'"):
        builtin("abelian(3/2)")
    for param in ("0", "-1"):
        with pytest.raises(Unsatisfiable, match="abelian factor needs n >= 1"):
            builtin(f"abelian({param})")


def test_product_extension_preserves_image_and_grows_complement(catalog):
    for base in ("ex1", "ex2", "ex3", "ex4", "dim6"):
        t = catalog[base]
        rep = Analysis(t).distributions
        t2 = product_extension(t)
        rep2 = Analysis(t2).distributions
        assert t2.dim == t.dim + 2
        # old image, embedded by zero padding, is the whole new image
        padded = [list(v) + [F(0), F(0)] for v in rep.image.basis.entries]
        assert rep2.image == Subspace.span(t2.dim, padded)
        assert rep2.perp.dim == rep.perp.dim + 2
        assert rep2.image_involutive == rep.image_involutive
        assert rep2.norm_sq == rep.norm_sq


def test_product_extension_names_and_brackets(catalog):
    t2 = product_extension(catalog["ex2"])
    assert t2.algebra.basis_names[-2:] == ("p1", "q1")
    assert t2.algebra.name.endswith("_xR2")
    # the added plane is central: no bracket touches it
    for i, j, res in nonzero_brackets(t2.algebra):
        assert i < 4 and j < 4


def test_character_extension_grows_image_by_new_plane(catalog):
    for base in ("ex1", "ex2", "ex3", "ex4"):
        t = catalog[base]
        rep = Analysis(t).distributions
        t2 = character_extension(t)
        rep2 = Analysis(t2).distributions
        d2 = t2.dim
        assert d2 == t.dim + 2
        assert t2.algebra.basis_names[-2:] == ("c1", "d1")
        padded = [list(v) + [F(0), F(0)] for v in rep.image.basis.entries]
        new_plane = [[F(0)] * t.dim + [F(1), F(0)],
                     [F(0)] * t.dim + [F(0), F(1)]]
        expected = Subspace.span(d2, padded + new_plane)
        assert rep2.image == expected
        assert rep2.image.dim == rep.image.dim + 2


def test_extensions_preserve_nilpotency(catalog):
    for base in ("ex1", "ex2", "dim6"):
        t = catalog[base]
        assert t.algebra.is_nilpotent()[0]
        assert product_extension(t).algebra.is_nilpotent()[0]
        assert character_extension(t).algebra.is_nilpotent()[0]
    # and non-nilpotent inputs stay non-nilpotent under products
    t4 = product_extension(catalog["ex4"])
    assert not t4.algebra.is_nilpotent()[0]


def test_repeated_extensions_get_fresh_names(catalog):
    t = product_extension(product_extension(catalog["ex2"]))
    assert t.algebra.basis_names[-4:] == ("p1", "q1", "p2", "q2")
    t = character_extension(character_extension(catalog["ex3"]))
    assert t.algebra.basis_names[-4:] == ("c1", "d1", "c2", "d2")


def test_character_extension_rejects_bad_characters(catalog):
    t = catalog["ex2"]
    with pytest.raises(ZeroCharacter):
        character_extension(t, xi=[F(0)] * 4)
    # must kill the derived subalgebra; ex2 has [Y1,Y2] = X2
    with pytest.raises(NotACharacter):
        character_extension(t, xi=[F(0), F(1), F(0), F(0)])


def test_character_is_tested_on_every_stored_bracket(catalog):
    # ex3: [X1,X2] = (X2 + Y2)/2, [X1,Y1] = Y1, [X1,Y2] = Y2/2, [X2,Y2] = Y1.
    # xi = (1/7, 1/3, 0, -1/3) vanishes on [X1,X2] only because its
    # coprime-denominator terms cancel, and fails on [X1,Y2] alone
    t = catalog["ex3"]
    xi = [F(1, 7), F(1, 3), F(0), F(-1, 3)]
    brackets = nonzero_brackets(t.algebra)
    failing = [(i, j) for i, j, res in brackets
               if sum(xi[k] * c for k, c in res.items())]
    assert failing == [(0, 3)] and len(brackets) == 4
    with pytest.raises(NotACharacter) as exc:
        character_extension(t, xi=xi)
    assert str(exc.value) == "functional does not vanish on [g, g]"
    with pytest.raises(ZeroCharacter) as exc:
        character_extension(t, xi=["0/3", 0, F(0), "0"])
    assert str(exc.value) == "character must be nonzero"
    with pytest.raises(ValueError) as exc:
        character_extension(t, xi=[F(1, 7)] * 3)
    assert str(exc.value) == "character has wrong length"
    # a multiple of the first character passes: [X1, c] = -(2/7) d
    t2 = character_extension(t, xi=["4/14", 0, 0, 0])
    assert bracket_basis(t2.algebra, 0, 4) == {5: F(-2, 7)}
    assert len(nonzero_brackets(t2.algebra)) == 5


def test_character_check_matches_the_derived_algebra(catalog):
    # xi passes iff it vanishes on the basis of [g, g]
    rng = random.Random("characters")
    seen = set()
    for name in ("ex1", "ex3", "ex4", "dim6"):
        t = catalog[name]
        der = t.algebra.derived_subalgebra().basis.entries
        for _ in range(40):
            xi = [F(rng.randint(-2, 2), rng.choice([1, 3, 5]))
                  if rng.random() < 0.5 else F(0) for _ in range(t.dim)]
            if not any(xi):
                continue
            kills = all(sum(a * b for a, b in zip(xi, v)) == 0 for v in der)
            seen.add(kills)
            try:
                character_extension(t, xi=xi)
            except NotACharacter:
                assert not kills, (name, xi)
            else:
                assert kills, (name, xi)
    assert seen == {True, False}


def test_build_rank_example_full_sweep():
    patterns = [(True, True), (True, False), (False, True), (False, False)]
    for n in range(2, 6):
        for k in range(0, n + 1):
            if (n, k) == (2, 2):
                with pytest.raises(Unsatisfiable):
                    build_rank_example(n, k)
                continue
            if 0 < k < n:
                for inv_im, inv_perp in patterns:
                    t = build_rank_example(n, k, inv_im, inv_perp)
                    rep = Analysis(t).distributions
                    assert t.dim == 2 * n
                    assert rep.image.dim == 2 * k
                    assert rep.image_involutive == inv_im
                    assert rep.perp_involutive == inv_perp
            else:
                t = build_rank_example(n, k)
                rep = Analysis(t).distributions
                assert t.dim == 2 * n
                assert rep.image.dim == 2 * k


def test_extensions_equal_their_fully_checked_triples(monkeypatch):
    # an extension step runs only Jacobi and the 2-cocycle check and
    # builds the metric as diag(metric, I); build_triple, which runs
    # every check, must give the same triple for every extension made
    from liesymp import build_triple, catalog
    made = []
    extended = catalog._extended

    def recording(*args):
        made.append(extended(*args))
        return made[-1]

    monkeypatch.setattr(catalog, "_extended", recording)
    patterns = [(True, True), (True, False), (False, True), (False, False)]
    for n in range(2, 6):
        for k in range(1, n + 1):
            for flags in (patterns if k < n else [(True, True)]):
                if (n, k) != (2, 2):
                    build_rank_example(n, k, *flags)
    build_rank_example(10, 4, False, True)
    # a fractional J and metric
    character_extension(product_extension(builtin("thurston(1/3)")))
    assert len(made) > 60
    for t in made:
        assert build_triple(t.algebra, t.omega, t.j) == t, t.algebra.name


def test_build_rank_example_rejects_impossible_flags():
    with pytest.raises(Unsatisfiable):
        build_rank_example(3, 0, False, True)
    with pytest.raises(Unsatisfiable):
        build_rank_example(3, 3, True, False)
    with pytest.raises(Unsatisfiable):
        build_rank_example(1, 1)
    with pytest.raises(Unsatisfiable):
        build_rank_example(2, 3)


def test_thurston_metric_profile(catalog):
    t = catalog["thurston(2)"]
    assert t.metric == diag([2, 1, "1/2", 1])


def test_each_rank_extension_is_a_checked_triple_with_the_block_metric(
        monkeypatch):
    # `_extended` validates only what the new brackets can break, and
    # its metric is derived as omega J; both must agree with a full
    # `build_triple` and with diag(parent metric, I) on every extension
    # the synthesizer makes
    made = []
    real = catalog._extended

    def spy(t, *args):
        made.append((t, real(t, *args)))
        return made[-1][1]

    monkeypatch.setattr(catalog, "_extended", spy)
    for n in range(2, 6):
        for k in range(n + 1):
            for flags in ((True, True), (True, False), (False, True),
                          (False, False)):
                try:
                    build_rank_example(n, k, *flags)
                except Unsatisfiable:
                    pass
    # n - 2 per signature with 0 < k < n, four signatures each; n - 3 at k = n
    assert len(made) == 8 + 25 + 50
    plane = Matrix.identity(2)
    for parent, t in made:
        name = t.algebra.name
        assert t.metric == _block2(parent.metric, plane), name
        assert t.metric == t.omega @ t.j, name
        assert t == build_triple(t.algebra, t.omega, t.j), name
