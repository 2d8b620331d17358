"""The hyperbolic twistor model: so(1, 2n) with its two canonical almost
complex structures on the tangent space of SO(1,2n)/U(n).

Matrices act on R^{1,2n} with the Lorentz form G = diag(-1, I_2n); the
algebra is {A : A^t G + G A = 0}. With j0 the standard complex structure
on the spacelike R^{2n}, the algebra splits as

    so(1,2n) = u(n) (+) q (+) p

where u(n) is the centralizer of j'0 = diag(0, j0) inside so(2n), q the
j0-anticommuting part of so(2n), and p the boosts E_{0i} + E_{i0}. The
reductive tangent space is m = q (+) p. Basis order (m-coordinates,
which everything on m here uses, list q then p in the same order):

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

The integrability tensor of either J is N(A, B) = [JA, JB] - J[JA, B]
- J[A, JB] - [A, B] with J extended by zero on u(n) and the values
projected back to m. For A, B in m this is the plain Nijenhuis formula
for J on m applied to the m-projected bracket [A, B]_m: J kills the
u-part of every bracket it is applied to, and maps m into m, so
projecting J[., .] to m changes nothing, and projecting [JA, JB] and
[A, B] gives [JA, JB]_m and [A, B]_m. So `twistor_nijenhuis` is the
shared `nijenhuis_of` on the model's m-projected bracket tensor, in
m-coordinates. The plus structure is integrable; the minus one has image
all of m once n >= 2, with its p x p values filling the fibre
directions q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Literal, Optional

from .errors import InternalInvariantViolation
from .lie import LieAlgebra, validate
from .linalg import Matrix, Subspace
from .nijenhuis import Tensor3, image_distribution, nijenhuis_of

Sign = Literal["+", "-"]

Sparse = dict[tuple[int, int], int]  # (row, col) -> value, matrix entries
ByRow = dict[int, list[tuple[int, int]]]  # row -> [(col, value)]


def _by_row(m: Sparse) -> ByRow:
    rows: ByRow = {}
    for (r, c), v in m.items():
        rows.setdefault(r, []).append((c, v))
    return rows


def _mat_mul(a: Sparse, b: ByRow) -> Sparse:
    """a @ b, with b indexed by row (`_by_row`)."""
    out: Sparse = {}
    for (r, c), v in a.items():
        for c2, v2 in b.get(c, ()):
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
    phi: tuple[int, ...] = field(repr=False)

    @property
    def m_indices(self) -> tuple[int, ...]:
        return self.q_indices + self.p_indices

    @property
    def m_dim(self) -> int:
        return len(self.q_indices) + len(self.p_indices)

    def _omega_num(self, x: int, y: int) -> int:
        """D omega(e_x, e_y) = D phi([e_x, e_y]), D the bracket's
        denominator."""
        return sum(p * self.phi[k]
                   for k, p in self.algebra.bracket.rows.get((x, y), ()))

    def omega_basis(self, x: int, y: int) -> Fraction:
        """omega(e_x, e_y) = phi([e_x, e_y])."""
        return Fraction(self._omega_num(x, y), self.algebra.bracket.den)

    @cached_property
    def kks_m(self) -> Matrix:
        """omega on m, in m-coordinates, evaluated once per model."""
        m_idx = self.m_indices
        return Matrix.from_ints(self.algebra.bracket.den, [
            [self._omega_num(x, y) for y in m_idx] for x in m_idx])

    @cached_property
    def bracket_m(self) -> Tensor3:
        """(A, B) -> [A, B]_m on m, in m-coordinates: the bracket with its
        u-components dropped."""
        big, table = self.algebra.bracket.den, self.algebra.bracket.rows
        d = self.m_dim
        pos = {k: i for i, k in enumerate(self.m_indices)}
        num = {}
        for (a, b), row in table.items():
            if a in pos and b in pos:
                v = num[(pos[a], pos[b])] = [0] * d
                for k, p in row:
                    if k in pos:
                        v[pos[k]] = p
        return Tensor3.from_ints(d, big, num)

    @cached_property
    def j_m(self) -> dict[Sign, Matrix]:
        """J^{+-} on m, in m-coordinates: QX_ab -> QY_ab -> -QX_ab and
        P_i -> +-P_{n+i} -> -P_i, i <= n."""
        n, d, nq = self.n, self.m_dim, len(self.q_indices)
        half = nq // 2
        out = {}
        for sign, s in (("+", 1), ("-", -1)):
            rows = [[0] * d for _ in range(d)]
            for t in range(half):
                rows[half + t][t] = 1
                rows[t][half + t] = -1
            for i in range(nq, nq + n):
                rows[i + n][i] = s
                rows[i][i + n] = -s
            out[sign] = Matrix.from_rows(rows)
        return out


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
    rows = [_by_row(m) for m in mats]
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for x in range(dim):
        for y in range(x + 1, dim):
            br = _mat_sub(_mat_mul(mats[x], rows[y]),
                          _mat_mul(mats[y], rows[x]))
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
    phi = [0] * dim
    for a in range(1, n + 1):
        phi[name_pos[f"UY_{a}_{a}"]] = -2
    return TwistorModel(n, g, tuple(u_idx), tuple(q_idx), tuple(p_idx),
                        tuple(mats), tuple(phi))


# -- the integrability tensor on m --------------------------------------


def twistor_nijenhuis(model: TwistorModel, sign: Sign) -> Tensor3:
    """N of J^{+-} on m, in m-coordinates (see the module docstring)."""
    return nijenhuis_of(model.bracket_m, model.j_m[sign])


def p_pairs_span_q(model: TwistorModel, n: Tensor3) -> bool:
    """Do the p x p values of N (as `twistor_nijenhuis` returned it) fill
    the fibre directions q exactly? Every such value must lie in the
    first nq coordinates, and together they must span nq dimensions."""
    nq = len(model.q_indices)
    vecs = []
    for (a, b), row in n.rows.items():
        if nq <= a < b:
            if any(k >= nq for k, _ in row):
                return False  # a p x p value escaping q refutes the claim
            vecs.append(n.numerators(a, b))
    return Subspace.span(model.m_dim, vecs).dim == nq


def kks_j_invariant(model: TwistorModel, sign: Sign) -> bool:
    """omega(J A, J B) = omega(A, B) on all m-basis pairs, that is
    J^T W J = W for the m-block W of omega."""
    jm, w = model.j_m[sign], model.kks_m
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

    The minus form is checked positive definite by Sylvester minors. For
    the plus form, which is not, the first m-basis vector with a
    non-positive diagonal entry is returned as the witness. The two forms
    agree on q and differ by sign on p, so for every n the witness is a
    boost (P_1)."""
    kks = model.kks_m
    grams = {}
    for sign in ("+", "-"):
        gram = kks @ model.j_m[sign]
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
    img = image_distribution(nminus)
    pos = positivity_report(model)
    return TwistorClaims(
        n=n,
        plus_integrable=nplus.is_zero(),
        minus_image_dim=img.dim,
        m_dim=model.m_dim,
        p_pairs_fill_q=p_pairs_span_q(model, nminus),
        kks_invariant_plus=kks_j_invariant(model, "+"),
        kks_invariant_minus=kks_j_invariant(model, "-"),
        minus_positive=pos.minus_positive,
        plus_positive=pos.plus_positive,
        plus_witness=pos.plus_witness,
    )
