"""Built-in catalog of symplectic Lie algebras with compatible J, plus the
two constructions (trivial product extension, central character extension)
and a synthesizer that hits any admissible (dimension, image-dimension,
involutivity) signature.

Basis conventions for the dim-4 and abelian entries: (X_1..X_n, Y_1..Y_n)
with omega(X_i, Y_i) = 1 and J X_i = Y_i. The four dim-4 entries realize
the four involutivity patterns of (im N, im N^perp):

    ex1  both non-involutive        ex2  both involutive
    ex3  only the complement        ex4  only the image

`thurston(a)` is the classical dim-4 nilpotent example carrying a one
parameter family of compatible J (a > 0); `dim6` is nilpotent with im N
equal to the whole algebra, the smallest dimension where that happens.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count

from .errors import (BadNumber, NotACharacter, PerfectAlgebra, Unsatisfiable,
                     ZeroCharacter)
from .lie import LieAlgebra, _check_jacobi, antisymmetric, validate
from .linalg import Matrix, brief, int_vector, nullspace_of, qof
from .symp import (SymplecticTriple, _check_cocycle, build_triple,
                   standard_j, standard_omega)


def _xy_names(n: int) -> list[str]:
    return [f"X{i+1}" for i in range(n)] + [f"Y{i+1}" for i in range(n)]


def abelian(n: int) -> SymplecticTriple:
    """R^{2n} with the standard structures; Kaehler, N = 0."""
    if n < 1:
        raise Unsatisfiable("abelian factor needs n >= 1")
    g = validate(f"abelian({n})", _xy_names(n), {})
    return build_triple(g, standard_omega(2 * n), standard_j(2 * n))


def ex1() -> SymplecticTriple:
    # [X1, X2] = Y2, [X1, Y2] = Y1; nilpotent, neither distribution involutive
    g = validate("ex1", _xy_names(2), {(0, 1): {3: 1}, (0, 3): {2: 1}})
    return build_triple(g, standard_omega(4), standard_j(4))


def ex2() -> SymplecticTriple:
    # [Y1, Y2] = X2; nilpotent, both distributions involutive
    g = validate("ex2", _xy_names(2), {(2, 3): {1: 1}})
    return build_triple(g, standard_omega(4), standard_j(4))


def ex3() -> SymplecticTriple:
    # [X1,X2] = (X2+Y2)/2, [X1,Y1] = Y1, [X1,Y2] = Y2/2, [X2,Y2] = Y1
    # solvable not nilpotent; only the complement of im N is involutive
    h = Fraction(1, 2)
    g = validate("ex3", _xy_names(2), {
        (0, 1): {1: h, 3: h},
        (0, 2): {2: 1},
        (0, 3): {3: h},
        (1, 3): {2: 1},
    })
    return build_triple(g, standard_omega(4), standard_j(4))


def ex4() -> SymplecticTriple:
    # [X1,X2] = -X2+2Y1+4Y2, [X1,Y1] = -Y1, [X1,Y2] = Y1+Y2
    # not nilpotent; only im N is involutive
    g = validate("ex4", _xy_names(2), {
        (0, 1): {1: -1, 2: 2, 3: 4},
        (0, 2): {2: -1},
        (0, 3): {2: 1, 3: 1},
    })
    return build_triple(g, standard_omega(4), standard_j(4))


def dim6() -> SymplecticTriple:
    # 6-dimensional nilpotent with im N = the whole algebra
    g = validate("dim6", _xy_names(3), {
        (0, 1): {1: 1, 2: 1},
        (0, 2): {1: -1, 2: -1, 4: 1},
        (0, 4): {4: -1, 5: 1},
        (0, 5): {4: -1, 5: 1},
        (1, 2): {3: 1},
    })
    return build_triple(g, standard_omega(6), standard_j(6))


def thurston(alpha=1) -> SymplecticTriple:
    """Kodaira-Thurston algebra [E3, E4] = E2 with the compatible family
    J E1 = a E3, J E2 = E4 (a > 0). |N|^2 = 8a, both distributions
    involutive, never integrable."""
    a = qof(alpha)
    if a <= 0:
        raise Unsatisfiable("parameter must be positive")
    g = validate(f"thurston({a})", ("E1", "E2", "E3", "E4"), {(2, 3): {1: 1}})
    omega = Matrix.from_rows([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
        [0, -1, 0, 0],
    ])
    j = Matrix.from_rows([
        [0, 0, -1 / a, 0],
        [0, 0, 0, -1],
        [a, 0, 0, 0],
        [0, 1, 0, 0],
    ])
    return build_triple(g, omega, j)


_PLAIN = {"ex1": ex1, "ex2": ex2, "ex3": ex3, "ex4": ex4, "dim6": dim6}

# each entry's one-line description, in listing order
DESCRIPTIONS = {
    "ex1": "dim 4, nilpotent, neither distribution involutive",
    "ex2": "dim 4, nilpotent, both distributions involutive",
    "ex3": "dim 4, solvable, only the complement involutive",
    "ex4": "dim 4, not nilpotent, only the image involutive",
    "dim6": "dim 6, nilpotent, im N is the whole algebra",
    "thurston(a)": "dim 4 family, |N|^2 = 8a (a > 0 rational)",
    "abelian(n)": "dim 2n abelian, Kaehler (N = 0)",
}


def catalog_names() -> list[str]:
    return list(DESCRIPTIONS)


def builtin(name: str) -> SymplecticTriple:
    """Look up a catalog entry by name.

    Accepts "ex1".."ex4", "dim6", "thurston", "thurston(1/2)", "abelian(3)".
    """
    m = re.fullmatch(r"(\w+)\(([^)]+)\)", name)
    name, param = m.groups() if m else (name, None)
    if name in _PLAIN:
        if param is not None:
            raise KeyError(f"{name} takes no parameter")
        return _PLAIN[name]()
    if name == "thurston":
        return thurston(param if param is not None else 1)
    if name == "abelian":
        n = qof(param) if param is not None else 2
        if n.denominator != 1:
            raise BadNumber(f"abelian(n) needs an integer n, got "
                            f"{brief(param)}")
        return abelian(int(n))
    raise KeyError(f"unknown catalog entry {name!r}; known: "
                   + ", ".join(catalog_names()))


# -- constructions -----------------------------------------------------


def _fresh_pair(names: tuple[str, ...], stem1: str, stem2: str) -> tuple[str, str]:
    """(stem1 m, stem2 m) for the least m >= 1 with both names unused."""
    m = next(m for m in count(1)
             if f"{stem1}{m}" not in names and f"{stem2}{m}" not in names)
    return f"{stem1}{m}", f"{stem2}{m}"


def product_extension(t: SymplecticTriple) -> SymplecticTriple:
    """Direct sum with the standard plane: dim grows by 2, N is unchanged
    on the old part and zero on the new, so im N is preserved and its
    complement gains the new plane."""
    g = t.algebra
    pair = _fresh_pair(g.basis_names, "p", "q")
    return _extended(t, f"{g.name}_xR2", pair, {})


def character_extension(t: SymplecticTriple, xi=None) -> SymplecticTriple:
    """Central extension by a character xi of the algebra: two new basis
    vectors c, d with [u, c] = -xi(u) d, omega(c, d) = 1, J c = d.

    Both new directions land in im N (N(u, c) = -xi(Ju) c + xi(u) d), so
    this bumps dim and dim im N by 2 each and keeps the involutivity
    pattern. With xi omitted, `g.characters()[0]` is used, read in ints:
    [g, g]'s first `nullspace_of` vector over its last nonzero entry (> 0).
    """
    g = t.algebra
    n = g.dim
    if xi is None:
        chars = nullspace_of(map(dict, g.derived_subalgebra().basis.rows), n)
        if not chars:
            raise PerfectAlgebra(f"{g.name} has no nonzero characters")
        xs = chars[0]
        dx = next(x for x in reversed(xs) if x)
    else:
        dx, xs = int_vector(xi)
    if len(xs) != n:
        raise ValueError("character has wrong length")
    if not any(xs):
        raise ZeroCharacter("character must be nonzero")
    # [g, g] is spanned by the stored brackets
    rows = g.bracket.rows
    if any(sum(xs[k] * p for k, p in rows[ij]) for ij in g.pairs()):
        raise NotACharacter("functional does not vanish on [g, g]")
    pair = _fresh_pair(g.basis_names, "c", "d")
    return _extended(t, f"{g.name}_ext", pair, {
        (i, n): [(n + 1, (-x, dx))] for i, x in enumerate(xs) if x})


def _extended(t: SymplecticTriple, name: str, pair: tuple[str, str],
              extra: dict) -> SymplecticTriple:
    """t with two basis vectors `pair` added, omega = 1 and J a rotation
    on their plane, and the `antisymmetric` rows `extra` added to g's
    stored ints. Only the checks the new brackets can break run: Jacobi
    and the 2-cocycle. Skewness, det != 0, J^2 = -1, compatibility and
    positivity of diag(A, plane) follow from those of A."""
    g, den = t.algebra, t.algebra.bracket.den
    table = {ij: [(k, (p, den)) for k, p in r]
             for ij, r in g.bracket.rows.items() if ij[0] < ij[1]}
    g2 = LieAlgebra(name, g.basis_names + pair,
                    antisymmetric(g.dim + 2, {**table, **extra}))
    _check_jacobi(g2)
    plane = Matrix.from_rows([[0, 1], [-1, 0]])
    omega = _block2(t.omega, plane)
    _check_cocycle(g2, omega)
    return SymplecticTriple(g2, omega, _block2(t.j, -plane))


def _block2(a: Matrix, b: Matrix) -> Matrix:
    """diag(a, b) for an integral b, over a's denominator: a's rows are
    reused as they are; canonical, as a and b are."""
    n = a.ncols
    rows = tuple(tuple((n + j, p * a.den) for j, p in r) for r in b.rows)
    return Matrix(a.den, a.rows + rows, n + b.ncols)


# -- synthesis ---------------------------------------------------------

_SEEDS = {
    (False, False): ex1,
    (True, True): ex2,
    (False, True): ex3,
    (True, False): ex4,
}


def build_rank_example(n: int, k: int, inv_image: bool = True,
                       inv_perp: bool = True) -> SymplecticTriple:
    """A triple of dimension 2n with dim im N = 2k and the requested
    involutivity flags for im N and its orthogonal complement.

    Admissible signatures:
      k = 0           : only the trivially-involutive flags (N = 0);
      0 < k < n       : every flag combination;
      k = n and n >= 3: only the trivially-involutive flags;
      k = n < 3       : nothing (impossible: a nonzero N on dim 2 cannot
                        exist and on dim 4 its image is at most half).
    """
    if n < 1 or k < 0 or k > n:
        raise Unsatisfiable(f"no model with half-dim {n}, half-image {k}")
    if k == 0:
        if not (inv_image and inv_perp):
            raise Unsatisfiable(
                "N = 0: the empty image and full complement are involutive")
        return abelian(n)
    if k == n:
        if n < 3:
            raise Unsatisfiable(
                f"im N cannot be all of a {2*n}-dimensional algebra")
        if not (inv_image and inv_perp):
            raise Unsatisfiable(
                "im N = g is a subalgebra and its complement is zero")
        t = dim6()
        for _ in range(n - 3):
            t = character_extension(t)
        return t
    t = _SEEDS[inv_image, inv_perp]()
    for _ in range(k - 1):
        t = character_extension(t)
    for _ in range(n - k - 1):
        t = product_extension(t)
    return t
