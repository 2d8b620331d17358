"""The hyperbolic twistor model: so(1, 2n) with its two canonical almost
complex structures on the tangent space of SO(1,2n)/U(n).

Matrices act on R^{1,2n} with the Lorentz form G = diag(-1, I_2n); the
algebra is {A : A^t G + G A = 0}. With j0 the standard complex structure
on the spacelike R^{2n}, the algebra splits as

    so(1,2n) = u(n) (+) q (+) p

where u(n) is the centralizer of j'0 = diag(0, j0) inside so(2n), q the
j0-anticommuting part of so(2n), and p the boosts E_{0i} + E_{i0}. The
reductive tangent space is m = q (+) p. Basis order (and the coordinate
order of everything this module returns):

    u: UX_ab (a<b), UY_ab (a<=b)   with X skew / Y symmetric in
                                   [[X, Y], [-Y, X]]
    q: QX_ab (a<b), QY_ab (a<b)    with X, Y skew in [[X, Y], [Y, -X]]
    p: P_1 .. P_2n                 with P_i = E_{0i} + E_{i0}

The invariant structures on m: both signs rotate the fibre directions the
same way (QX_ab -> QY_ab -> -QX_ab = half the adjoint action of j'0),
and differ on the horizontal part: J^{+-} P_i = +-P_{n+i}, i <= n.

The orbit 2-form is omega(A, B) = -Tr(j'0 [A, B]); its potential
phi = -Tr(j'0 . ) vanishes on q and p, so omega kills u(n) and restricts
to an invariant symplectic form on m (block diagonal across q and p).

The integrability tensor of either J is computed definitionally from the
structure constants, extending J by zero on u(n) and projecting values
back to m. The plus structure is integrable; the minus one has image all
of m once n >= 2, with its p x p values filling the fibre directions q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Literal, Optional, Sequence

from .errors import InternalInvariantViolation
from .lie import LieAlgebra, validate
from .linalg import Matrix, Subspace, qof

Sign = Literal["+", "-"]

Sparse = dict[tuple[int, int], int]  # (row, col) -> value, matrix entries
# (a, b) -> N(e_a, e_b) projected to m, as {basis index: value}; a < b, N != 0
TwistorValues = dict[tuple[int, int], dict[int, Fraction]]


def _mat_mul(a: Sparse, b: Sparse) -> Sparse:
    by_row: dict[int, list[tuple[int, int]]] = {}
    for (r, c), v in b.items():
        by_row.setdefault(r, []).append((c, v))
    out: Sparse = {}
    for (r, c), v in a.items():
        for c2, v2 in by_row.get(c, ()):
            key = (r, c2)
            out[key] = out.get(key, 0) + v * v2
    return {k: v for k, v in out.items() if v}


def _mat_sub(a: Sparse, b: Sparse) -> Sparse:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v}


@dataclass(frozen=True)
class TwistorModel:
    n: int
    algebra: LieAlgebra
    u_indices: tuple[int, ...]
    q_indices: tuple[int, ...]
    p_indices: tuple[int, ...]
    mats: tuple[Sparse, ...] = field(repr=False)  # basis as Lorentz matrices
    phi: tuple[Fraction, ...] = field(repr=False)

    @property
    def m_indices(self) -> tuple[int, ...]:
        return self.q_indices + self.p_indices

    @property
    def m_dim(self) -> int:
        return len(self.q_indices) + len(self.p_indices)

    def omega_basis(self, x: int, y: int) -> Fraction:
        """omega(e_x, e_y) = phi([e_x, e_y])."""
        out = Fraction(0)
        for k, c in self.algebra.bracket_basis(x, y).items():
            if self.phi[k] != 0:
                out += c * self.phi[k]
        return out

    @cached_property
    def kks_m(self) -> Matrix:
        """omega on m, in m-coordinates, evaluated once per model."""
        m_idx = self.m_indices
        return Matrix.from_rows([
            [self.omega_basis(x, y) for y in m_idx] for x in m_idx])

    def j_perm(self, sign: Sign) -> dict[int, tuple[int, Fraction]]:
        """J as a signed permutation of the m-part basis indices."""
        n = self.n
        nq = len(self.q_indices)
        half = nq // 2
        perm: dict[int, tuple[int, Fraction]] = {}
        for t in range(half):  # QX_ab -> QY_ab -> -QX_ab
            qx = self.q_indices[t]
            qy = self.q_indices[half + t]
            perm[qx] = (qy, Fraction(1))
            perm[qy] = (qx, Fraction(-1))
        s = Fraction(1 if sign == "+" else -1)
        for i in range(n):  # P_i -> +-P_{n+i}, P_{n+i} -> -+P_i
            pi = self.p_indices[i]
            pni = self.p_indices[n + i]
            perm[pi] = (pni, s)
            perm[pni] = (pi, -s)
        return perm


def _names_and_mats(n: int) -> tuple[list[str], list[Sparse],
                                     list[int], list[int], list[int]]:
    names: list[str] = []
    mats: list[Sparse] = []
    u_idx: list[int] = []
    q_idx: list[int] = []
    p_idx: list[int] = []

    def add(name: str, m: Sparse, bucket: list[int]) -> None:
        bucket.append(len(names))
        names.append(name)
        mats.append(m)

    # u(n): UX_ab = [[E_ab - E_ba, 0], [0, E_ab - E_ba]]
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            add(f"UX_{a}_{b}", {(a, b): 1, (b, a): -1,
                                (n + a, n + b): 1, (n + b, n + a): -1},
                u_idx)
    # u(n): UY_ab = [[0, E_ab + E_ba], [-(E_ab + E_ba), 0]]  (Y symmetric)
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            if a == b:
                m = {(a, n + a): 1, (n + a, a): -1}
            else:
                m = {(a, n + b): 1, (b, n + a): 1,
                     (n + a, b): -1, (n + b, a): -1}
            add(f"UY_{a}_{b}", m, u_idx)
    # q: QX_ab = [[E_ab - E_ba, 0], [0, -(E_ab - E_ba)]]
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            add(f"QX_{a}_{b}", {(a, b): 1, (b, a): -1,
                                (n + a, n + b): -1, (n + b, n + a): 1},
                q_idx)
    # q: QY_ab = [[0, E_ab - E_ba], [E_ab - E_ba, 0]]  (Y skew)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            add(f"QY_{a}_{b}", {(a, n + b): 1, (b, n + a): -1,
                                (n + a, b): 1, (n + b, a): -1},
                q_idx)
    # p: P_i = E_{0i} + E_{i0}
    for i in range(1, 2 * n + 1):
        add(f"P_{i}", {(0, i): 1, (i, 0): 1}, p_idx)
    return names, mats, u_idx, q_idx, p_idx


def _expand_in_basis(m: Sparse, n: int, pos: dict[str, int]) -> dict[int, int]:
    """Twice the coordinates of a Lorentz-algebra matrix in the basis
    above, keyed by basis index (`pos` maps names to indices).

    Uses the entry layout directly and reads only the nonzero entries:
    the p part is read off row 0, the so(2n) block decomposes by
    symmetry type, which halves some coordinates; doubling keeps them
    ints. The expansion is exact only for matrices in the algebra, which
    the caller checks by reconstruction."""
    twice: dict[int, int] = {}

    def put(nm: str, v: int) -> None:
        k = pos[nm]
        twice[k] = twice.get(k, 0) + v

    for (r, c), v in m.items():
        if r == 0:
            if c:
                put(f"P_{c}", 2 * v)
        elif c == 0:
            continue
        elif r <= n < c:                    # Y-type, top-right
            a, b = r, c - n
            if a == b:
                put(f"UY_{a}_{a}", 2 * v)
            elif a < b:
                put(f"UY_{a}_{b}", v)
                put(f"QY_{a}_{b}", v)
            else:
                put(f"UY_{b}_{a}", v)
                put(f"QY_{b}_{a}", -v)
        elif (r <= n) == (c <= n):          # X-type, diagonal blocks
            top = r <= n
            a, b = (r, c) if top else (r - n, c - n)
            if a < b:
                put(f"UX_{a}_{b}", v)
                put(f"QX_{a}_{b}", v if top else -v)
    return {k: v for k, v in twice.items() if v}


def build_twistor_model(n: int) -> TwistorModel:
    """Construct so(1, 2n) with validated structure constants and the
    split bookkeeping. The basis expansion of every bracket is verified
    by exact reconstruction before the algebra is assembled."""
    if n < 1:
        raise ValueError("n >= 1 required")
    names, mats, u_idx, q_idx, p_idx = _names_and_mats(n)
    dim = len(names)
    assert dim == n * (2 * n + 1)  # (2n+1)(2n)/2
    name_pos = {nm: i for i, nm in enumerate(names)}
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for x in range(dim):
        for y in range(x + 1, dim):
            br = _mat_sub(_mat_mul(mats[x], mats[y]),
                          _mat_mul(mats[y], mats[x]))
            if not br:
                continue
            twice = _expand_in_basis(br, n, name_pos)
            recon: Sparse = {}
            for k, c in twice.items():
                for key, v in mats[k].items():
                    recon[key] = recon.get(key, 0) + c * v
            if ({k: v for k, v in recon.items() if v}
                    != {k: 2 * v for k, v in br.items()}):
                raise InternalInvariantViolation(
                    f"bracket of {names[x]}, {names[y]} leaves the span")
            if twice:
                table[(x, y)] = {k: Fraction(c, 2) for k, c in twice.items()}
    g = validate(f"so(1,{2*n})", dim, names, table)
    # phi(A) = -Tr(j'0 A): supported on the UY diagonal only
    phi = [Fraction(0)] * dim
    for a in range(1, n + 1):
        phi[name_pos[f"UY_{a}_{a}"]] = Fraction(-2)
    return TwistorModel(n, g, tuple(u_idx), tuple(q_idx), tuple(p_idx),
                        tuple(mats), tuple(phi))


# -- the integrability tensor on m --------------------------------------


def twistor_nijenhuis(model: TwistorModel, sign: Sign) -> TwistorValues:
    """N(e_a, e_b) for all m-basis pairs a < b, values projected to m.

    Definitional formula with J extended by zero on u(n):
    N(A, B) = [JA, JB] - J[JA, B] - J[A, JB] - [A, B], then drop the
    u-components of the value."""
    g = model.algebra
    perm = model.j_perm(sign)
    uset = set(model.u_indices)

    def j_apply(d: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for k, c in d.items():
            hit = perm.get(k)
            if hit is None:
                continue  # u-component: J extends by zero
            t, s = hit
            nv = out.get(t, Fraction(0)) + s * c
            if nv:
                out[t] = nv
            else:
                out.pop(t, None)
        return out

    out: dict[tuple[int, int], dict[int, Fraction]] = {}
    m_idx = model.m_indices
    for ia, a in enumerate(m_idx):
        sa_idx, sa = perm[a]
        for b in m_idx[ia + 1:]:
            sb_idx, sb = perm[b]
            acc: dict[int, Fraction] = {}

            def add(d: dict[int, Fraction], c: Fraction) -> None:
                for k, v in d.items():
                    nv = acc.get(k, Fraction(0)) + c * v
                    if nv:
                        acc[k] = nv
                    else:
                        acc.pop(k, None)

            add(g.bracket_basis(sa_idx, sb_idx), sa * sb)
            add(j_apply(g.bracket_basis(sa_idx, b)), -sa)
            add(j_apply(g.bracket_basis(a, sb_idx)), -sb)
            add(g.bracket_basis(a, b), Fraction(-1))
            proj = {k: v for k, v in acc.items() if k not in uset}
            if proj:
                out[(a, b)] = proj
    return out


def _m_coords(model: TwistorModel, d: dict[int, Fraction],
              ) -> tuple[Fraction, ...]:
    pos = {k: i for i, k in enumerate(model.m_indices)}
    v = [Fraction(0)] * model.m_dim
    for k, c in d.items():
        v[pos[k]] = c
    return tuple(v)


def nijenhuis_image(model: TwistorModel, nvals: TwistorValues) -> Subspace:
    """Span of the values `twistor_nijenhuis` returned, as a subspace of
    m (coordinates ordered q then p)."""
    return Subspace.span(model.m_dim,
                         [_m_coords(model, d) for d in nvals.values()])


def p_pairs_span_q(model: TwistorModel, nvals: TwistorValues) -> bool:
    """Do the p x p values of N (as `twistor_nijenhuis` returned them)
    fill the fibre directions q exactly?"""
    qset = set(model.q_indices)
    vecs = []
    for (a, b), d in nvals.items():
        if a in qset or b in qset:
            continue
        if any(k not in qset for k in d):
            return False  # a p x p value escaping q would refute the claim
        vecs.append(_m_coords(model, d))
    pstart = len(model.q_indices)
    span = Subspace.span(model.m_dim, vecs)
    want = Subspace.span(model.m_dim, [
        tuple(Fraction(1 if i == t else 0) for i in range(model.m_dim))
        for t in range(pstart)])
    return span == want


def kks_matrix_m(model: TwistorModel) -> Matrix:
    """omega restricted to m, in m-coordinates."""
    return model.kks_m


def _j_matrix_m(model: TwistorModel, sign: Sign) -> Matrix:
    """J on m, in m-coordinates (a signed permutation matrix)."""
    perm = model.j_perm(sign)
    pos = {k: i for i, k in enumerate(model.m_indices)}
    cols = []
    for b in model.m_indices:
        jb, sb = perm[b]
        col = [Fraction(0)] * model.m_dim
        col[pos[jb]] = sb
        cols.append(col)
    return Matrix.from_rows(list(zip(*cols)))


def kks_j_invariant(model: TwistorModel, sign: Sign) -> bool:
    """omega(J A, J B) = omega(A, B) on all m-basis pairs, that is
    J^T W J = W for the m-block W of omega."""
    jm, w = _j_matrix_m(model, sign), kks_matrix_m(model)
    return jm.transpose() @ w @ jm == w


@dataclass(frozen=True)
class PositivityReport:
    minus_positive: bool
    plus_positive: bool
    plus_witness: Optional[tuple[str, Fraction]]
    q_diag: Fraction
    p_diag_minus: Fraction


def positivity_report(model: TwistorModel) -> PositivityReport:
    """Definiteness of g_{+-}(A, B) = omega(A, J_{+-} B) on m.

    The minus form is checked positive definite by Sylvester minors; for
    the plus form a concrete non-positive direction is exhibited (the
    first boost, unless q is empty in which case the form on q would be
    the only difference and there is none for n = 1 ... the witness is
    always found on p)."""
    kks = kks_matrix_m(model)
    grams = {}
    for sign in ("+", "-"):
        gram = kks @ _j_matrix_m(model, sign)
        if not gram.is_symmetric():
            raise InternalInvariantViolation(
                f"omega(., J{sign} .) not symmetric on m")
        grams[sign] = gram
    ok_minus, _, _ = grams["-"].leading_minors_positive()
    ok_plus, _, _ = grams["+"].leading_minors_positive()
    witness = None
    if not ok_plus:
        for i, k in enumerate(model.m_indices):
            v = grams["+"].entry(i, i)
            if v <= 0:
                witness = (model.algebra.basis_names[k], v)
                break
    nq = len(model.q_indices)
    q_diag = grams["-"].entry(0, 0) if nq else Fraction(0)
    p_diag = grams["-"].entry(nq, nq)
    return PositivityReport(ok_minus, ok_plus, witness, q_diag, p_diag)


# -- closed-form helpers (used by tests and the CLI claims) -------------


def p_element(model: TwistorModel, u: Sequence) -> dict[int, Fraction]:
    """P(u) = sum u_i P_i as basis coordinates (u has length 2n)."""
    u = [qof(x) for x in u]
    if len(u) != 2 * model.n:
        raise ValueError("boost vector has wrong length")
    return {model.p_indices[i]: u[i] for i in range(2 * model.n) if u[i]}


def q_element(model: TwistorModel, d2n: Matrix) -> dict[int, Fraction]:
    """Coordinates of a q-matrix given as its 2n x 2n spacelike block
    [[X, Y], [Y, -X]] with X, Y skew; raises if the matrix is not in q."""
    n = model.n
    big, rows = d2n._scaled()
    m: Sparse = {(r + 1, c + 1): rows[r][c] for r in range(2 * n)
                 for c in range(2 * n) if rows[r][c]}
    pos = {nm: i for i, nm in enumerate(model.algebra.basis_names)}
    twice = _expand_in_basis(m, n, pos)
    qset = set(model.q_indices)
    if any(k not in qset for k in twice):
        raise ValueError("matrix is not in the j0-anticommuting part")
    return {k: Fraction(c, 2 * big) for k, c in twice.items()}


def j0_matrix(n: int) -> Matrix:
    rows = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[n + i][i] = Fraction(1)
        rows[i][n + i] = Fraction(-1)
    return Matrix.from_rows(rows)


def q_block_matrix(model: TwistorModel, coords: dict[int, Fraction]) -> Matrix:
    """The 2n x 2n spacelike block of a q-element given by coordinates."""
    n = model.n
    rows = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for k, c in coords.items():
        for (r, col), v in model.mats[k].items():
            if r == 0 or col == 0:
                raise ValueError("element has a boost component")
            rows[r - 1][col - 1] += c * v
    return Matrix.from_rows(rows)


# -- claim bundle --------------------------------------------------------


@dataclass(frozen=True)
class TwistorClaims:
    n: int
    plus_integrable: bool
    minus_image_dim: int
    m_dim: int
    p_pairs_fill_q: bool
    kks_invariant_plus: bool
    kks_invariant_minus: bool
    minus_positive: bool
    plus_positive: bool
    plus_witness: Optional[tuple[str, Fraction]]


def twistor_claims(n: int, model: Optional[TwistorModel] = None,
                   ) -> TwistorClaims:
    if model is None:
        model = build_twistor_model(n)
    nplus = twistor_nijenhuis(model, "+")
    nminus = twistor_nijenhuis(model, "-")
    img = nijenhuis_image(model, nminus)
    pos = positivity_report(model)
    return TwistorClaims(
        n=n,
        plus_integrable=(not nplus),
        minus_image_dim=img.dim,
        m_dim=model.m_dim,
        p_pairs_fill_q=p_pairs_span_q(model, nminus),
        kks_invariant_plus=kks_j_invariant(model, "+"),
        kks_invariant_minus=kks_j_invariant(model, "-"),
        minus_positive=pos.minus_positive,
        plus_positive=pos.plus_positive,
        plus_witness=pos.plus_witness,
    )
