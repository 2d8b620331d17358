"""Invariant connections, curvature and scalar invariants.

All connections are left invariant, i.e. determined by a bilinear map
Gamma: g x g -> g on the algebra. The Levi-Civita map comes from the
Koszul formula specialised to left invariant vector fields, where the
three derivative terms drop (inner products of invariant fields are
constant) and only the bracket terms survive:

    2 g(Gamma(A, B), C) = g([A,B], C) - g([B,C], A) - g([A,C], B).

Sign sanity: metric compatibility  g(Gamma(A,B), C) + g(B, Gamma(A,C)) = 0
and zero torsion  Gamma(A,B) - Gamma(B,A) = [A,B]  are asserted at
construction, so a convention slip cannot survive silently.

From the Levi-Civita map two canonical almost Hermitian connections are
derived:

  * the Chern-type connection  Gamma^c(A,B) = (Gamma(A,B) - J Gamma(A, JB))/2,
    which is complex (nabla J = 0) and symplectic (nabla omega = 0) but
    carries torsion equal to N/4;
  * the torsion-free symplectic connection
    Gamma^s(A,B) = Gamma(A,B) - (J (nabla_A J) B + J (nabla_B J) A)/3.

Curvature of an invariant connection with multiplication operators
M_A = Gamma(A, .):

    R(A,B) = M_A M_B - M_B M_A - M_{[A,B]},

Ricci(A,B) = trace of Z -> R(Z,A)B, scalar = trace of Ginv @ Ricci.
The mixed trace form  P(A,B) = Tr(J R^c(A,B))  is a closed 2-form whose
top wedge against omega recovers the Hermitian scalar curvature,
s^c = d/dt Pf(W + t P) |_{t=0} / Pf(W), with W, P the matrices of omega
and of the mixed trace form (the polarization identity
beta ^ alpha^{n-1} = (n-1)! dPf(A + tB)/dt|_0 on top degree makes the two
factorials cancel).  Jacobi's formula for the Pfaffian,

    d/dt Pf(W + t P) |_{t=0} = 1/2 Pf(W) tr(W^-1 P),

turns this into a trace, and W^-1 = J Ginv because G = W J:

    s^c = 1/2 tr(J Ginv P).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalInvariantViolation
from .linalg import Matrix, Subspace, vec_is_zero
from .nijenhuis import DistributionReport, Tensor3
from .symp import SymplecticTriple


@dataclass(frozen=True)
class Connection:
    """Left invariant connection given by its basis table
    table[i][j] = Gamma(e_i, e_j) as a coordinate tuple."""

    label: str
    dim: int
    table: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def gamma(self, i: int, j: int) -> tuple[Fraction, ...]:
        return self.table[i][j]

    def nabla(self, u: Sequence, v: Sequence) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.dim
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j, b in enumerate(v):
                c = a * b
                if c == 0:
                    continue
                for k, w in enumerate(self.table[i][j]):
                    if w != 0:
                        out[k] += c * w
        return tuple(out)

    def endo(self, i: int) -> Matrix:
        """M_{e_i} = Gamma(e_i, .) as a matrix (columns are images)."""
        return Matrix.from_rows(list(zip(*self.table[i])))


def _basis(d: int) -> list[tuple[Fraction, ...]]:
    return [tuple(Fraction(1 if a == b else 0) for a in range(d))
            for b in range(d)]


def levi_civita(t: SymplecticTriple) -> Connection:
    g, metric = t.algebra, t.metric
    d = t.dim
    ginv = t.metric_inv
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            br_ij = g.bracket_basis(i, j)
            w = []
            for c in range(d):
                val = Fraction(0)
                for m, co in br_ij.items():
                    val += co * metric.entry(m, c)
                for m, co in g.bracket_basis(j, c).items():
                    val -= co * metric.entry(m, i)
                for m, co in g.bracket_basis(i, c).items():
                    val -= co * metric.entry(m, j)
                w.append(val)
            row.append(tuple(x / 2 for x in ginv.apply(w)))
        rows.append(tuple(row))
    conn = Connection("levi_civita", d, tuple(rows))
    # axioms; cheap and they catch convention slips immediately
    for i in range(d):
        mi = conn.endo(i)
        if not (metric @ mi + mi.transpose() @ metric).is_zero():
            raise InternalInvariantViolation("Levi-Civita not metric")
    for i in range(d):
        for j in range(i + 1, d):
            tor = list(conn.table[i][j])
            for k, x in enumerate(conn.table[j][i]):
                tor[k] -= x
            for k, co in g.bracket_basis(i, j).items():
                tor[k] -= co
            if not vec_is_zero(tor):
                raise InternalInvariantViolation("Levi-Civita has torsion")
    return conn


def chern_connection(t: SymplecticTriple, lc: Connection) -> Connection:
    d, j = t.dim, t.j
    basis = _basis(d)
    jb = [j.apply(e) for e in basis]
    rows = []
    for i in range(d):
        row = []
        for b in range(d):
            g1 = lc.table[i][b]
            g2 = j.apply(lc.nabla(basis[i], jb[b]))
            row.append(tuple((x - y) / 2 for x, y in zip(g1, g2)))
        rows.append(tuple(row))
    conn = Connection("chern", d, tuple(rows))
    for i in range(d):
        mi = conn.endo(i)
        if mi @ j != j @ mi:
            raise InternalInvariantViolation("Chern connection: nabla J != 0")
        if not (t.omega @ mi + mi.transpose() @ t.omega).is_zero():
            raise InternalInvariantViolation(
                "Chern connection: nabla omega != 0")
    return conn


def symplectic_connection(t: SymplecticTriple, lc: Connection) -> Connection:
    d, j = t.dim, t.j
    basis = _basis(d)
    nj = nabla_j_endos(t, lc)  # (nabla_{e_i} J) as matrices
    rows = []
    for i in range(d):
        row = []
        for b in range(d):
            base = list(lc.table[i][b])
            corr1 = j.apply(nj[i].apply(basis[b]))
            corr2 = j.apply(nj[b].apply(basis[i]))
            row.append(tuple(
                x - (c1 + c2) / 3
                for x, c1, c2 in zip(base, corr1, corr2)))
        rows.append(tuple(row))
    conn = Connection("symplectic", d, tuple(rows))
    for i in range(d):
        mi = conn.endo(i)
        if not (t.omega @ mi + mi.transpose() @ t.omega).is_zero():
            raise InternalInvariantViolation(
                "symplectic connection: nabla omega != 0")
    for i in range(d):
        for b in range(i + 1, d):
            tor = list(conn.table[i][b])
            for k, x in enumerate(conn.table[b][i]):
                tor[k] -= x
            for k, co in t.algebra.bracket_basis(i, b).items():
                tor[k] -= co
            if not vec_is_zero(tor):
                raise InternalInvariantViolation(
                    "symplectic connection has torsion")
    return conn


def nabla_j_endos(t: SymplecticTriple, lc: Connection) -> list[Matrix]:
    """(nabla_{e_i} J) for each basis direction, as matrices:
    (nabla_A J) B = Gamma(A, JB) - J Gamma(A, B)."""
    d, j = t.dim, t.j
    basis = _basis(d)
    out = []
    for i in range(d):
        cols = []
        for b in range(d):
            v1 = lc.nabla(basis[i], j.apply(basis[b]))
            v2 = j.apply(lc.table[i][b])
            cols.append(tuple(x - y for x, y in zip(v1, v2)))
        out.append(Matrix.from_rows(list(zip(*cols))))
    return out


def torsion(t: SymplecticTriple, conn: Connection) -> Tensor3:
    g = t.algebra
    d = t.dim
    vals = [[tuple([Fraction(0)] * d) for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = list(conn.table[i][j])
            for k, x in enumerate(conn.table[j][i]):
                v[k] -= x
            for k, co in g.bracket_basis(i, j).items():
                v[k] -= co
            vals[i][j] = tuple(v)
            vals[j][i] = tuple(-x for x in v)
    return Tensor3(d, tuple(tuple(r) for r in vals))


def torsion_recovers_nijenhuis(t: SymplecticTriple, conn: Connection,
                               n: Tensor3) -> bool:
    """For a J-parallel connection the torsion alone already knows the
    integrability obstruction:

        T(jx, jy) - j T(jx, y) - j T(x, jy) - T(x, y) = -N(x, y)

    on all basis pairs.  Returns False on the first defect."""
    d = t.dim
    tor = torsion(t, conn)
    basis = _basis(d)
    jb = [t.j.apply(e) for e in basis]
    for x in range(d):
        for y in range(x + 1, d):
            lhs = list(tor.of_vectors(jb[x], jb[y]))
            for k, v in enumerate(t.j.apply(tor.of_vectors(jb[x], basis[y]))):
                lhs[k] -= v
            for k, v in enumerate(t.j.apply(tor.of_vectors(basis[x], jb[y]))):
                lhs[k] -= v
            for k, v in enumerate(tor.of_basis(x, y)):
                lhs[k] -= v
            if any(a != -b for a, b in zip(lhs, n.of_basis(x, y))):
                return False
    return True


def nabla_j_checks(t: SymplecticTriple, nj: Sequence[Matrix],
                   n: Tensor3) -> dict[str, bool]:
    """Structural identities tying nabla J to the Nijenhuis tensor:

      nabla_j_pairing          2 omega((nabla_A J) B, C) = omega(N(B,C), JA)
      nabla_j_anticommutation  (nabla_{JA} J) = -J (nabla_A J) J ... stated
                               equivalently as nabla_{JA} J = -J nabla_A J
                               composed with nothing: the endomorphism
                               identity (nabla_{JA} J) = -J (nabla_A J).

    nj is `nabla_j_endos(t, lc)` and n the Nijenhuis tensor of t.
    """
    d, j = t.dim, t.j
    basis = _basis(d)
    pairing = True
    for a in range(d):
        ja = j.apply(basis[a])
        for b in range(d):
            njb = nj[a].apply(basis[b])
            for c in range(d):
                lhs = 2 * t.omega_of(njb, basis[c])
                rhs = t.omega_of(n.of_basis(b, c), ja)
                if lhs != rhs:
                    pairing = False
    anticomm = True
    for a in range(d):
        ja = j.apply(basis[a])
        lhs = Matrix.zeros(d, d)
        for i, co in enumerate(ja):
            if co != 0:
                lhs = lhs + nj[i].scale(co)
        if lhs != -(j @ nj[a]):
            anticomm = False
    return {"nabla_j_pairing": pairing,
            "nabla_j_anticommutation": anticomm}


# -- curvature ---------------------------------------------------------


def curvature_operators(t: SymplecticTriple, conn: Connection,
                        ) -> list[list[Matrix]]:
    """R(e_i, e_j) as matrices, for all i, j."""
    d = t.dim
    g = t.algebra
    endos = [conn.endo(i) for i in range(d)]
    out = [[Matrix.zeros(d, d)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            m = endos[i] @ endos[j] - endos[j] @ endos[i]
            br = g.bracket_basis(i, j)
            if br:
                mbr = Matrix.zeros(d, d)
                for k, co in br.items():
                    mbr = mbr + endos[k].scale(co)
                m = m - mbr
            out[i][j] = m
            out[j][i] = -m
    return out


@dataclass(frozen=True)
class CurvatureSummary:
    connection: str
    ricci: Matrix
    scalar: Fraction
    ricci_j_invariant: bool
    chern_ricci: Matrix
    hermitian_scalar: Fraction


def curvature_summary(t: SymplecticTriple, lc: Connection,
                      chern: Connection) -> CurvatureSummary:
    """Riemannian Ricci/scalar of the Levi-Civita map plus the mixed trace
    form and Hermitian scalar of the Chern-type connection.

    Cross-checks (InternalInvariantViolation on failure): every Chern
    curvature operator commutes with J and is omega-skew with zero real
    trace."""
    d, j = t.dim, t.j
    riem = curvature_operators(t, lc)
    ric_rows = []
    for x in range(d):
        row = []
        for y in range(d):
            val = Fraction(0)
            for k in range(d):
                val += riem[k][x].entry(k, y)
            row.append(val)
        ric_rows.append(row)
    ric = Matrix.from_rows(ric_rows)
    if not ric.is_symmetric():
        raise InternalInvariantViolation("Ricci form not symmetric")
    scalar = (t.metric_inv @ ric).trace()
    ricci_j = (j.transpose() @ ric @ j) == ric

    riem_c = curvature_operators(t, chern)
    p_rows = [[Fraction(0)] * d for _ in range(d)]
    for x in range(d):
        for y in range(x + 1, d):
            m = riem_c[x][y]
            if m @ j != j @ m:
                raise InternalInvariantViolation(
                    "Chern curvature does not commute with J")
            if m.trace() != 0:
                raise InternalInvariantViolation(
                    "Chern curvature has nonzero real trace")
            val = (j @ m).trace()
            p_rows[x][y] = val
            p_rows[y][x] = -val
    p = Matrix.from_rows(p_rows)
    # Jacobi's formula, see the module docstring
    herm = (j @ t.metric_inv @ p).trace() / 2
    return CurvatureSummary(
        connection=lc.label,
        ricci=ric,
        scalar=scalar,
        ricci_j_invariant=ricci_j,
        chern_ricci=p,
        hermitian_scalar=herm,
    )


# -- parallelism of N --------------------------------------------------


@dataclass(frozen=True)
class ParallelismReport:
    nabla_n_zero: bool
    image_parallel: bool
    perp_parallel: bool

    @property
    def local_product(self) -> bool:
        return self.image_parallel and self.perp_parallel


def covariant_derivative_n(t: SymplecticTriple, lc: Connection,
                           n: Tensor3,
                           rep: DistributionReport) -> ParallelismReport:
    """(nabla N)(A; B, C) = Gamma(A, N(B,C)) - N(Gamma(A,B), C)
                            - N(B, Gamma(A,C)) on all basis triples,
    plus parallelism of im N and of its orthogonal complement under the
    Levi-Civita map; rep is `classify(t, n)`. The two distribution flags
    must agree (the metric is parallel, so a distribution is parallel iff
    its complement is); a mismatch raises InternalInvariantViolation."""
    d = t.dim
    basis = _basis(d)
    all_zero = True
    for i in range(d):
        for b in range(d):
            for c in range(b + 1, d):
                v = list(lc.nabla(basis[i], n.of_basis(b, c)))
                w1 = n.of_vectors(lc.table[i][b], basis[c])
                w2 = n.of_vectors(basis[b], lc.table[i][c])
                for k in range(d):
                    v[k] -= w1[k] + w2[k]
                if not vec_is_zero(v):
                    all_zero = False
                    break
            if not all_zero:
                break
        if not all_zero:
            break

    def parallel(s: Subspace) -> bool:
        if s.dim in (0, d):
            return True
        for i in range(d):
            for v in s.vectors():
                if not s.contains(lc.nabla(basis[i], v)):
                    return False
        return True

    img_par = parallel(rep.image)
    perp_par = parallel(rep.perp)
    if img_par != perp_par:
        raise InternalInvariantViolation(
            "im N parallel but its orthogonal complement is not")
    return ParallelismReport(all_zero, img_par, perp_par)
