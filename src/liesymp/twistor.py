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
M_{a,n+a}) and QY_ab = M_{a,n+b} - M_{b,n+a}. `_lorentz_bracket` reads
the structure constants off the commutators of these matrices and
certifies them by reconstruction.

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

from fractions import Fraction
from math import isqrt
from typing import Any, Literal, Optional

from .errors import InternalInvariantViolation
from .homogeneous import (ReductivePair, m_nijenhuis, omega_j_invariant,
                          positivity)
from .lie import LieAlgebra, antisymmetric
from .linalg import Matrix, Subspace, echelon
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


def _lorentz_bracket(name: str, n: int, basis: list[tuple[str, Terms]],
                     names: tuple[str, ...]) -> Tensor3:
    """so(1, 2n)'s bracket tensor on `basis`, read off the Lorentz
    matrices rho(e_x) = sum of s M_cd over the terms of e_x and certified
    in the same pass, in ints. The rho(e_x) must be linearly independent
    (`echelon` rank = dim). For every x < y that share a Lorentz index, in
    (x, y) order (elements that share none commute), C = [rho(e_x),
    rho(e_y)] is read in the M_cd off its entries above the diagonal (the
    entry at (c, d) is eta_d times the M_cd coefficient), taken through
    `twice`, the inverse change of basis, and the result must give back
    2C as a sum of the rho(e_k) at every entry. So rho is an injective
    homomorphism onto so(1, 2n): the table holds its structure constants
    and satisfies Jacobi. A failure names the basis pair and the
    residual, 2C minus its expansion over 2, in the M_cd. Each rho(e_x)
    is listed once as its entries, keyed i * size + j, and `twice` is
    keyed by the entry it reads; the expansion is subtracted from 2C in
    place, so a pair that passes builds no second dict."""
    eta = [-1] + [1] * (2 * n)
    size, dim = len(eta), len(basis)
    rho: list[dict[int, list[tuple[int, int]]]] = []  # i -> (j, entry)
    ents: list[list[tuple[int, int, int]]] = []  # (i * size, j, entry)
    users: dict[tuple[int, int], list[tuple[int, int]]] = {}
    near: list[set[int]] = [set() for _ in eta]  # index -> elements on it
    for x, (_, terms) in enumerate(basis):
        rows: dict[int, list[tuple[int, int]]] = {}
        for c, d, s in terms:
            rows.setdefault(c, []).append((d, s * eta[d]))
            rows.setdefault(d, []).append((c, -s * eta[c]))
            users.setdefault((c, d), []).append((x, s))
            near[c].add(x)
            near[d].add(x)
        rho.append(rows)
        ents.append([(i * size, j, v) for i, r in rows.items() for j, v in r])
    flat = [[(i + j, v) for i, j, v in e] for e in ents]
    rank = len(echelon(map(dict, flat)))
    if rank != dim:
        raise InternalInvariantViolation(
            f"{name} basis matrices are linearly dependent: rank {rank} "
            f"for dim {dim}")
    # M_cd lies in one basis element (P_i, UY_aa) or in two whose 2 x 2
    # block [[1, 1], [1, -1]] is orthogonal with square norm 2, so twice
    # the inverse is 2 / (their number) times the transpose, in ints; the
    # entry at (c, d), c < d, is eta_d times the M_cd coefficient
    twice = {c * size + d: [(x, 2 * s // len(us) * eta[d]) for x, s in us]
             for (c, d), us in users.items()}
    ratios = {}
    for x, left in enumerate(ents):
        for y in sorted({y for i in rho[x] for y in near[i] if y > x}):
            res: dict[int, int] = {}  # 2C at entry (i, j) = i * size + j
            for a, b, f in ((left, rho[y], 2), (ents[y], rho[x], -2)):
                for i, j, v in a:
                    for k, w in b.get(j, ()):
                        ik = i + k
                        res[ik] = res.get(ik, 0) + f * v * w
            out: dict[int, int] = {}  # 4C in the basis, so all even
            for ij, v in res.items():
                for k, w in twice.get(ij, ()):
                    out[k] = out.get(k, 0) + v * w
            for k, p in out.items():  # 2C minus its expansion, in place
                for ij, v in flat[k]:
                    res[ij] = res.get(ij, 0) - (p >> 1) * v
            if any(res.values()):
                resid = {f"M_{c}_{d}": str(Fraction(res[c * size + d]
                                                    * eta[d], 2))
                         for c in range(size) for d in range(c + 1, size)
                         if res.get(c * size + d)}
                raise InternalInvariantViolation(
                    f"{name} bracket is not the commutator of its Lorentz "
                    f"matrices on basis pair ({names[x]}, {names[y]}): "
                    f"residual {resid}")
            row = [(k, (p, 4)) for k, p in out.items() if p]
            if row:
                ratios[(x, y)] = row
    return antisymmetric(dim, ratios)


def build_twistor_model(n: int) -> ReductivePair:
    """Construct so(1, 2n) with its orbit potential phi, as the pair with
    h = u(n). The structure constants are read off so(1, 2n)'s own
    matrices and certified in the same pass (`_lorentz_bracket`)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    basis = _basis(n)
    names = tuple(nm for nm, _ in basis)
    assert len(names) == n * (2 * n + 1)  # (2n+1)(2n)/2
    name = f"so(1,{2*n})"
    g = LieAlgebra(name, names, _lorentz_bracket(name, n, basis, names))
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
