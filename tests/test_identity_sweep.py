"""The Jacobi and 2-cocycle checks are one sweep over the stored
brackets. Here they are held to the per-triple scans they replaced
(`support.definitional_jacobi`, `definitional_cocycle`) on perturbed
bracket tables and forms: both routes pass, or both raise the same
exception class on the same triple with the same message."""

import random
from fractions import Fraction
from functools import cache

from hypothesis import given, settings, strategies as st

from liesymp import (Matrix, build_rank_example, build_twistor_model, dim6,
                     ex1, ex2, ex3, ex4, validate)
from liesymp.errors import ValidationError
from liesymp.lie import LieAlgebra
from liesymp.symp import _check_cocycle
from support import (cocycle_values, definitional_cocycle,
                     definitional_jacobi, jacobi_residuals, nonzero_brackets,
                     omega_basis)

F = Fraction


@cache
def _bases() -> dict:
    """name -> (algebra, a 2-cocycle on it)."""
    out = {}
    for make in (ex1, ex2, ex3, ex4, dim6):
        t = make()
        out[t.algebra.name] = (t.algebra, t.omega)
    for args in ((4, 2, False, True), (5, 3, True, False), (4, 4)):
        t = build_rank_example(*args)
        out[f"rank{args}"] = (t.algebra, t.omega)
    for n in (1, 2, 3):
        m = build_twistor_model(n)
        g = m.algebra
        # the orbit form phi([., .]) is a coboundary, so a cocycle
        omega = Matrix.from_rows([[omega_basis(m, x, y)
                                   for y in range(g.dim)]
                                  for x in range(g.dim)])
        out[g.name] = (g, omega)
    return out


def _outcome(check, *args):
    try:
        check(*args)
    except ValidationError as e:
        return type(e), e.triple, str(e)
    return None


def _jacobi_outcomes(g: LieAlgebra, edits) -> tuple:
    """Both routes on g's table with [e_a, e_b]_k set to c for each
    (a, b, k, c) in edits (c = 0 removes the term)."""
    table = {(i, j): res for i, j, res in nonzero_brackets(g)}
    for a, b, k, c in edits:
        table.setdefault((a, b), {})[k] = c
    table = {pair: {k: c for k, c in res.items() if c}
             for pair, res in table.items()}
    unchecked = LieAlgebra.from_brackets("p", g.dim, g.basis_names, table)
    return (_outcome(validate, "p", g.dim, g.basis_names, table),
            _outcome(definitional_jacobi, unchecked))


def _edit(omega: Matrix, edits) -> Matrix:
    """omega with omega(e_a, e_b) = -omega(e_b, e_a) set to c for each
    (a, b, c) in edits."""
    rows = [list(r) for r in omega.entries]
    for a, b, c in edits:
        rows[a][b], rows[b][a] = c, -c
    return Matrix.from_rows(rows)


def _cocycle_outcomes(g: LieAlgebra, omega: Matrix, edits) -> tuple:
    """Both routes on omega edited by `_edit`."""
    om = _edit(omega, edits)
    return (_outcome(_check_cocycle, g, om),
            _outcome(definitional_cocycle, g, om))


def _pairs(g: LieAlgebra) -> list:
    return [(a, b) for a in range(g.dim) for b in range(a + 1, g.dim)]


_COEFFS = [F(1), F(-1), F(2), F(1, 2), F(-2, 3), F(3, 5), F(5, 7), F(0)]


def test_sweeps_match_per_triple_scans_on_seeded_perturbations():
    rng = random.Random("identity-sweep")
    seen = {"jacobi": set(), "cocycle": set()}
    for name, (g, omega) in _bases().items():
        assert _jacobi_outcomes(g, ()) == (None, None), name
        assert _cocycle_outcomes(g, omega, ()) == (None, None), name
        stored = g.pairs()
        for _ in range(12):
            edits = []
            for _ in range(rng.randint(1, 3)):
                # half the edits land on a stored bracket
                a, b = rng.choice(stored if stored and rng.random() < 0.5
                                  else _pairs(g))
                edits.append((a, b, rng.randrange(g.dim),
                              rng.choice(_COEFFS)))
            new, old = _jacobi_outcomes(g, edits)
            assert new == old, (name, edits)
            seen["jacobi"].add(new is None)
            edits = [(*rng.choice(_pairs(g)), rng.choice(_COEFFS))
                     for _ in range(rng.randint(1, 2))]
            new, old = _cocycle_outcomes(g, omega, edits)
            assert new == old, (name, edits)
            seen["cocycle"].add(new is None)
    # each route both passed and failed somewhere
    assert seen == {"jacobi": {True, False}, "cocycle": {True, False}}


_coeff = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5, 7]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_sweeps_match_per_triple_scans_on_drawn_perturbations(data):
    g, omega = _bases()[data.draw(st.sampled_from(sorted(_bases())))]
    pair = st.sampled_from(_pairs(g))
    index = st.integers(0, g.dim - 1)
    edits = data.draw(st.lists(st.tuples(pair, index, _coeff),
                               min_size=1, max_size=3))
    new, old = _jacobi_outcomes(g, [(a, b, k, c) for (a, b), k, c in edits])
    assert new == old
    edits = data.draw(st.lists(st.tuples(pair, _coeff),
                               min_size=1, max_size=3))
    new, old = _cocycle_outcomes(g, omega, [(a, b, c) for (a, b), c in edits])
    assert new == old


def test_reported_triple_is_the_first_touched_not_the_smallest():
    # (b, c, d) and (y, z, w) are touched only through their (j, k)
    # pair; the smaller failing triples (a, d, e) and (x, w, v) are
    # touched later, through (d, e) and (w, v)
    g = LieAlgebra.from_brackets("j", 5, tuple("abcde"), {
        (0, 1): {0: F(-1, 7)}, (2, 3): {0: F(2, 11)}, (3, 4): {1: F(2, 3)}})
    failing = [tri for tri, resid in jacobi_residuals(g) if resid]
    assert failing == [(1, 2, 3), (0, 3, 4)]
    new, old = _jacobi_outcomes(g, ())
    assert new == old and new[1] == (1, 2, 3)

    h = validate("c", 6, tuple("xyzwuv"), {(2, 3): {0: F(-1, 5)},
                                            (3, 5): {1: F(2, 3)}})
    omega = Matrix.from_rows([[0] * 6] * 6)
    edits = [(0, 1, F(-1, 5)), (0, 3, F(3)), (1, 2, F(1)), (1, 4, F(-1)),
             (1, 5, F(-1)), (2, 3, F(3, 5)), (3, 5, F(3)), (4, 5, F(3, 11))]
    failing = [tri for tri, v in cocycle_values(h, _edit(omega, edits)) if v]
    assert failing[0] == (1, 2, 3) and min(failing) == (0, 3, 5)
    new, old = _cocycle_outcomes(h, omega, edits)
    assert new == old and new[1] == (1, 2, 3)
