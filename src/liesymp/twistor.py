"""The hyperbolic twistor model: so(1, 2n) with its two canonical almost
complex structures on the tangent space of SO(1,2n)/U(n).

Matrices act on R^{1,2n} with the Lorentz form G = diag(-1, I_2n); the
algebra is {A : A^t G + G A = 0}. With j0 the standard complex structure
on the spacelike R^{2n}, the algebra splits as

    so(1,2n) = u(n) (+) q (+) p

where u(n) is the centralizer of j'0 = diag(0, j0) inside so(2n), q the
j0-anticommuting part of so(2n), and p the boosts E_{0i} + E_{i0}. The
model is the `homogeneous.ReductivePair` with h = u(n), h_dim = n^2, and
m = q (+) p. Basis order (m-coordinates list q then p in the same order):

    u: UX_ab (a<b), UY_ab (a<=b)   with X skew / Y symmetric in
                                   [[X, Y], [-Y, X]]
    q: QX_ab (a<b), QY_ab (a<b)    with X, Y skew in [[X, Y], [Y, -X]]
    p: P_1 .. P_2n                 with P_i = E_{0i} + E_{i0}

With eta = G and M_ab = eta_b E_ab - eta_a E_ba, this is P_i = M_0i,
UX/QX_ab = M_ab +- M_{n+a,n+b}, UY_ab = M_{a,n+b} + M_{b,n+a} (UY_aa =
M_{a,n+a}) and QY_ab = M_{a,n+b} - M_{b,n+a}. These matrices (`_rho`)
are all the model gives `homogeneous.matrix_bracket` for its constants.

The invariant structures on m: both signs rotate the fibre directions the
same way (QX_ab -> QY_ab -> -QX_ab = half the adjoint action of j'0),
and differ on the horizontal part: J^{+-} P_i = +-P_{n+i}, i <= n. The
orbit 2-form is omega(A, B) = phi([A, B]) with phi = -Tr(j'0 .), which
vanishes on q and p, so omega kills u(n) and restricts to an invariant
symplectic form on m (block diagonal across q and p). The plus structure
is integrable; the minus one has image all of m once n >= 2, with its
p x p values filling the fibre directions q.
"""

from __future__ import annotations

from math import isqrt
from typing import Any, Literal, Optional

from .homogeneous import (ReductivePair, m_nijenhuis, matrix_bracket,
                          omega_j_invariant, positivity)
from .lie import LieAlgebra
from .linalg import IntRow, Matrix, Subspace
from .nijenhuis import Tensor3, image_distribution

Sign = Literal["+", "-"]
Terms = list[tuple[int, int, int]]  # (c, d, s), c < d: the sum of s M_cd


def _basis(n: int) -> list[tuple[str, Terms]]:
    """The basis in the order above, each element as its terms in the
    Lorentz generators M_cd, indices 0..2n with 0 timelike."""
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    out = [(f"UX_{a}_{b}", [(a, b, 1), (n + a, n + b, 1)]) for a, b in pairs]
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            out.append((f"UY_{a}_{b}", [(a, n + a, 1)] if a == b else
                        [(a, n + b, 1), (b, n + a, 1)]))
    out += [(f"QX_{a}_{b}", [(a, b, 1), (n + a, n + b, -1)]) for a, b in pairs]
    out += [(f"QY_{a}_{b}", [(a, n + b, 1), (b, n + a, -1)]) for a, b in pairs]
    out += [(f"P_{i}", [(0, i, 1)]) for i in range(1, 2 * n + 1)]
    return out


def _rho(eta: list[int], terms: Terms) -> tuple[IntRow, ...]:
    """The Lorentz matrix of the sum of s M_cd, M_cd = eta_d E_cd - eta_c
    E_dc with eta = G, as `Matrix.rows` holds it (no M_cd twice)."""
    rows: list[list[tuple[int, int]]] = [[] for _ in eta]
    for c, d, s in terms:
        rows[c].append((d, s * eta[d]))
        rows[d].append((c, -s * eta[c]))
    return tuple(tuple(sorted(r)) if r else () for r in rows)


def build_twistor_model(n: int) -> ReductivePair:
    """Construct so(1, 2n) with its orbit potential phi, as the pair with
    h = u(n). The structure constants are read off so(1, 2n)'s own
    matrices and certified in the same pass (`matrix_bracket`)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    basis = _basis(n)
    names = tuple(nm for nm, _ in basis)
    assert len(names) == n * (2 * n + 1)  # (2n+1)(2n)/2
    name = f"so(1,{2*n})"
    eta = [-1] + [1] * (2 * n)
    g = LieAlgebra(name, names, matrix_bracket(
        name, names, [_rho(eta, terms) for _, terms in basis]))
    # phi(e_x) = -Tr(j'0 rho(e_x)), where Tr(j'0 M_cd) = 2 if d = n + c
    # with 1 <= c <= n, and 0 otherwise: only the UY diagonal has phi
    phi = tuple(-2 * sum(s for c, d, s in terms if 1 <= c <= n and d == n + c)
                for _, terms in basis)
    return ReductivePair(g, n * n, phi)


def twistor_j(model: ReductivePair, sign: Sign) -> Matrix:
    """J^{+-} on m: QX_ab -> QY_ab -> -QX_ab and P_i -> +-P_{n+i} -> -P_i,
    i <= n; one entry per row."""
    n, d = isqrt(model.h_dim), model.m_dim
    half, s = d // 2 - n, 1 if sign == "+" else -1
    return Matrix(1, tuple([((half + t, -1),) for t in range(half)]
                           + [((t, 1),) for t in range(half)]
                           + [((d - n + i, -s),) for i in range(n)]
                           + [((d - 2 * n + i, s),) for i in range(n)]), d)


def twistor_nijenhuis(model: ReductivePair, sign: Sign) -> Tensor3:
    """N of J^{+-} on m (see `homogeneous`)."""
    return m_nijenhuis(model, twistor_j(model, sign))


def p_pairs_span_q(model: ReductivePair, n: Tensor3) -> bool:
    """Do the p x p values of N (as `twistor_nijenhuis` returned it) fill
    the fibre directions q exactly? Every such value must lie in the
    first nq coordinates, and together they must span nq dimensions."""
    nq = model.h_dim - isqrt(model.h_dim)
    pp = [ab for ab in n.rows if nq <= ab[0] < ab[1]]
    return (all(k < nq for ab in pp for k, _ in n.rows[ab]) and
            Subspace.of_rows(model.m_dim,
                             [n.rows[ab] for ab in pp]).dim == nq)


def positivity_report(model: ReductivePair
                      ) -> tuple[bool, bool, Optional[list[str]]]:
    """(minus_positive, plus_positive, plus_witness) for the forms
    g_{+-}(A, B) = omega(A, J_{+-} B) on m, by `homogeneous.positivity`.
    The two forms agree on q and differ by sign on p, so for every n the
    plus form is not positive and its witness is a boost (P_1)."""
    minus_positive, _ = positivity(model, twistor_j(model, "-"))
    plus_positive, witness = positivity(model, twistor_j(model, "+"))
    return minus_positive, plus_positive, witness


def twistor_claims(n: int) -> dict[str, Any]:
    """The `twistor --report json` entry for n, without `checks_pass`:
    each so(1, 2n) claim once, under the key that output prints."""
    model = build_twistor_model(n)
    nplus = twistor_nijenhuis(model, "+")
    nminus = twistor_nijenhuis(model, "-")
    minus_positive, plus_positive, witness = positivity_report(model)
    return {
        "n": n,
        "dim": model.algebra.dim,
        "m_dim": model.m_dim,
        "plus_integrable": nplus.is_zero(),
        "minus_image_dim": image_distribution(nminus).dim,
        "p_pairs_fill_q": p_pairs_span_q(model, nminus),
        "kks_invariant_plus": omega_j_invariant(model, twistor_j(model, "+")),
        "kks_invariant_minus": omega_j_invariant(model, twistor_j(model, "-")),
        "minus_positive": minus_positive,
        "plus_positive": plus_positive,
        "plus_witness": witness,
    }
