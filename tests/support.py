"""Shared helpers for the test suite.

The randomized triples here all live on a fixed algebra with a fixed
symplectic form; only the complex structure moves.  Conjugating a valid
j by any symplectic map S gives another valid structure on the same
underlying data:

    omega(SjS^-1 x, SjS^-1 y) = omega(j S^-1 x, j S^-1 y)
                              = omega(S^-1 x, S^-1 y) = omega(x, y)

and the induced metric is the pullback of the old one by S^-1, hence
still positive definite.  The symplectic group is generated by
transvections v -> v + lam * omega(v, a) * a, so composing a handful of
those with random directions and coefficients samples it broadly while
keeping every entry an exact rational.
"""

from __future__ import annotations

import random
from fractions import Fraction

from liesymp import Matrix, SymplecticTriple, build_triple, validate

_LAMBDAS = [Fraction(1), Fraction(-1), Fraction(1, 2),
            Fraction(-1, 2), Fraction(2), Fraction(-2), Fraction(1, 3)]


def transvection(omega: Matrix, a: list[Fraction], lam: Fraction) -> Matrix:
    """Matrix of v -> v + lam * omega(v, a) * a (always symplectic)."""
    d = omega.nrows
    cols = []
    for i in range(d):
        e = [Fraction(0)] * d
        e[i] = Fraction(1)
        w = omega.apply(e)
        coeff = lam * sum(w[k] * a[k] for k in range(d))
        cols.append([e[r] + coeff * a[r] for r in range(d)])
    return Matrix.from_rows([[cols[c][r] for c in range(d)] for r in range(d)])


def random_symplectic(omega: Matrix, rng: random.Random, steps: int = 5) -> Matrix:
    d = omega.nrows
    s = Matrix.identity(d)
    for _ in range(steps):
        a = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
        if all(x == 0 for x in a):
            a[rng.randrange(d)] = Fraction(1)
        lam = rng.choice(_LAMBDAS)
        s = transvection(omega, a, lam) @ s
    return s


def aff_aff_triple() -> SymplecticTriple:
    """aff(R) + aff(R): [e1,e2] = e2, [e3,e4] = e4, omega = e^12 + e^34,
    J e1 = e2, J e3 = e4.  Kaehler and not flat, unlike every integrable
    catalog entry."""
    alg = validate("aff+aff", 4, ("e1", "e2", "e3", "e4"),
                   {(0, 1): {1: 1}, (2, 3): {3: 1}})
    omega = Matrix.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0],
                              [0, 0, 0, 1], [0, 0, -1, 0]])
    j = Matrix.from_rows([[0, -1, 0, 0], [1, 0, 0, 0],
                          [0, 0, 0, -1], [0, 0, 1, 0]])
    return build_triple(alg, omega, j)


def conjugated_triple(t: SymplecticTriple, rng: random.Random,
                      steps: int = 5) -> SymplecticTriple:
    """A fresh validated triple on t's algebra and form, with j moved by
    a random symplectic conjugation.  Goes back through build_triple so
    every validation layer re-runs on the sample."""
    s = random_symplectic(t.omega, rng, steps=steps)
    j2 = s @ t.j @ s.inverse()
    return build_triple(t.algebra, t.omega, j2)
