"""Invariant connections, curvature and scalar invariants.

All connections are left invariant, i.e. determined by a bilinear map
Gamma: g x g -> g on the algebra. The Levi-Civita map comes from the
Koszul formula specialised to left invariant vector fields, where the
three derivative terms drop (inner products of invariant fields are
constant) and only the bracket terms survive:

    2 g(Gamma(A, B), C) = g([A,B], C) - g([B,C], A) - g([A,C], B).

A connection is a `Tensor3` (see `nijenhuis`): Gamma(e_i, e_j) as ints
over one common denominator, nonzero coordinates only, and two
connections with equal values compare equal. Every map
below is composed from its int operations. Curvature is not: Ricci and
the mixed trace form P are trace formulas in the Levi-Civita map's
ints, and no curvature operator is formed (see `curvature_summary`). Every
runtime check compares ints, on whole tensors and subspaces: nabla N is
a `combine` of N with Gamma(e_i, .) put into its slots and values, the
torsion identity is N's kernel `nijenhuis_of` applied to the torsion,
and a distribution is parallel iff every Gamma(e_i, .) maps it into
itself.

Sign sanity: metric compatibility  g(Gamma(A,B), C) + g(B, Gamma(A,C)) = 0
and zero torsion  Gamma(A,B) - Gamma(B,A) = [A,B]  are asserted at
construction, so a convention slip cannot survive silently. Since
G Gamma is the Koszul tensor K / 2, metric compatibility is asserted
before Gamma is formed, as K skew in its last two slots (on K's ints,
which catches a Koszul sign slip) and G G^-1 = I (which catches a wrong
inverse); torsion is asserted on Gamma.

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
The mixed trace form  P(A,B) = Tr(J R^c(A,B))  needs neither a
curvature operator nor the Chern connection. With M_k = Gamma(e_k, .)
the Levi-Civita map, M^c_k = Gamma^c(e_k, .) = (M_k - J M_k J)/2, and
J^2 = -1 alone gives J M^c_k = (J M_k + M_k J)/2 = M^c_k J and
Tr(J M^c_k) = Tr(J M_k). So Tr(J M^c_y M^c_x) = Tr(M^c_x J M^c_y) =
Tr(J M^c_x M^c_y), the commutator term of
R^c(e_x, e_y) = [M^c_x, M^c_y] - sum_k c^k_xy M^c_k drops out of the
trace, and

    P(e_x, e_y) = -sum_k c^k_xy Tr(J M_k).

In the same way Tr R^c(e_x, e_y) = -sum_k c^k_xy Tr M_k = 0, since every
M_k is skew for the metric (`levi_civita` checks it). P is a closed
2-form whose top wedge against omega recovers the Hermitian scalar
curvature, s^c = d/dt Pf(W + t P) |_{t=0} / Pf(W), with W, P the
matrices of omega and of the mixed trace form (the polarization identity
beta ^ alpha^{n-1} = (n-1)! dPf(A + tB)/dt|_0 on top degree makes the two
factorials cancel).  Jacobi's formula for the Pfaffian,

    d/dt Pf(W + t P) |_{t=0} = 1/2 Pf(W) tr(W^-1 P),

turns this into a trace, with W^-1 the triple's cached omega^-1
(`SymplecticTriple.omega_inv`, equal to J Ginv because G = W J):

    s^c = 1/2 tr(W^-1 P).

Both scalars, s_g = tr(Ginv Ric) and s^c, are summed in ints as
sum_{i,k} A_ik B_ki over the nonzeros of A = Ginv or W^-1; no product
matrix is formed.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalInvariantViolation
from .linalg import Matrix
from .nijenhuis import DistributionReport, nijenhuis_of
from .record import Record
from .symp import SymplecticTriple
from .tensor import Tensor3, combine

# a connection is the tensor (x, y) -> Gamma(x, y)
Connection = Tensor3


def _skew(lo: Tensor3, s: int) -> bool:
    """lo(i, b)_c + s lo(i, c)_b = 0 for every i, b, c, compared on the
    stored ints."""
    return ({(i, b, c): p for (i, b), row in lo.rows.items() for c, p in row}
            == {(i, b, c): -s * p
                for (i, c), row in lo.rows.items() for b, p in row})


def _parallel(conn: Connection, form: Matrix) -> bool:
    """F M_i + M_i^T F = 0 for every i, F the form's matrix: with
    lo(i, b)_c = (F Gamma(e_i, e_b))_c = (F M_i)_cb, that is lo(i, b)_c +
    (F^T Gamma(e_i, e_c))_b = 0. F is the metric or omega, symmetric or
    skew (`build_triple` checks both), so F^T = s F and the second term
    is s lo(i, c)_b."""
    return _skew(conn.map_values(form), 1 if form.is_symmetric() else -1)


def levi_civita(t: SymplecticTriple) -> Connection:
    """The Koszul sums 2 g(Gamma(e_i, e_j), e_c) = L(i, j)_c - L(j, c)_i
    - L(i, c)_j in ints, L(a, b)_c = g(e_c, [e_a, e_b]) read off the
    bracket tensor lowered by the metric, then Gamma = G^-1 of them / 2,
    checked metric on those sums (see "Sign sanity" above)."""
    d = t.dim
    low = t.algebra.bracket.map_values(t.metric)
    num: dict[tuple[int, int], list[int]] = {}
    for (a, b), row in low.rows.items():
        for k, p in row:
            # L(a, b)_k is L(i, j)_c, L(j, c)_i and L(i, c)_j in turn
            num.setdefault((a, b), [0] * d)[k] += p
            num.setdefault((k, a), [0] * d)[b] -= p
            num.setdefault((a, k), [0] * d)[b] -= p
    koszul = Tensor3.from_ints(d, 2 * low.den, num)
    # axioms; cheap and they catch convention slips immediately
    if not (_skew(koszul, 1)
            and t.metric @ t.metric_inv == Matrix.identity(d)):
        raise InternalInvariantViolation("Levi-Civita not metric")
    conn = koszul.map_values(t.metric_inv)
    if not torsion(t, conn).is_zero():
        raise InternalInvariantViolation("Levi-Civita has torsion")
    return conn


def nabla_of(conn: Connection, m: Matrix) -> Tensor3:
    """(x, y) -> (nabla_x m) y = Gamma(x, m y) - m Gamma(x, y); with m = J
    its endo(i) is the matrix of nabla_{e_i} J."""
    return combine([(1, conn.map_second(m)), (-1, conn.map_values(m))])


def chern_connection(t: SymplecticTriple, lc: Connection) -> Connection:
    j = t.j
    conn = combine([(Fraction(1, 2), lc),
                    (Fraction(-1, 2), lc.map_second(j).map_values(j))])
    if not nabla_of(conn, j).is_zero():
        raise InternalInvariantViolation("Chern connection: nabla J != 0")
    if not _parallel(conn, t.omega):
        raise InternalInvariantViolation("Chern connection: nabla omega != 0")
    return conn


def symplectic_connection(t: SymplecticTriple, lc: Connection) -> Connection:
    jnj = nabla_of(lc, t.j).map_values(t.j)  # J (nabla_{e_i} J) e_b
    third = Fraction(-1, 3)
    conn = combine([(1, lc), (third, jnj), (third, jnj.swapped())])
    if not _parallel(conn, t.omega):
        raise InternalInvariantViolation(
            "symplectic connection: nabla omega != 0")
    if not torsion(t, conn).is_zero():
        raise InternalInvariantViolation("symplectic connection has torsion")
    return conn


def torsion(t: SymplecticTriple, conn: Connection) -> Tensor3:
    """T(x, y) = Gamma(x, y) - Gamma(y, x) - [x, y]."""
    return combine([(1, conn), (-1, conn.swapped()),
                    (-1, t.algebra.bracket)])


def torsion_recovers_nijenhuis(t: SymplecticTriple, conn: Connection,
                               n: Tensor3) -> bool:
    """For a J-parallel connection the torsion alone already knows the
    integrability obstruction:

        T(Jx, Jy) - J T(Jx, y) - J T(x, Jy) - T(x, y) = -N(x, y),

    the Nijenhuis expression with the torsion T in place of the bracket.
    So the left side is N's own kernel, `nijenhuis_of(T, J)`, which uses
    neither J^2 = -1 nor the antisymmetry of its tensor; that kernel is
    checked against `composed_nijenhuis` and `definitional_nijenhuis` in
    tests/support.py."""
    return nijenhuis_of(torsion(t, conn), t.j) == -n


def nabla_j_checks(t: SymplecticTriple, nj: Tensor3,
                   gn: Tensor3) -> dict[str, bool]:
    """Structural identities tying nabla J to the Nijenhuis tensor:

      nabla_j_pairing          2 omega((nabla_A J) B, C) = omega(N(B,C), JA)
      nabla_j_anticommutation  (nabla_{JA} J) = -J (nabla_A J), checked on
                               every basis vector B.

    nj is `nabla_of(lc, t.j)` and gn is G N, `n.map_values(t.metric)`
    for the Nijenhuis tensor n of t, the one a report built for |N|^2
    (`nijenhuis.norm_sq`). Both are whole-tensor identities in ints:
    with omega(u, v) = u^T omega v, the left side of the pairing at
    (a, b, c) is 2 (omega^T nj(a, b))_c and the right side
    ((omega J)^T N(b, c))_a = (G N(b, c))_a, G = omega J the (symmetric)
    metric, each scaled by the other side's denominator before the
    nonzero values are compared; the anticommutation is
    `Tensor3.anti_linear` of nj at the triple's first slots.
    """
    low = nj.map_values(t.omega.transpose())
    lhs = {(a, b, c): 2 * p * gn.den
           for (a, b), row in low.rows.items() for c, p in row}
    pairing = lhs == {(a, b, c): p * low.den
                      for (b, c), row in gn.rows.items() for a, p in row}
    anticomm = nj.anti_linear(t.j, t.first_slots)
    return {"nabla_j_pairing": pairing,
            "nabla_j_anticommutation": anticomm}


# -- curvature ---------------------------------------------------------


def _trace_of_product(m: Matrix, num: list[list[int]], den: int) -> Fraction:
    """tr(m B) for B = num / den: sum of m_ik B_ki over m's nonzeros."""
    return Fraction(sum(p * num[k][i] for i, row in enumerate(m.rows)
                        for k, p in row), m.den * den)


class CurvatureSummary(Record):
    ricci: Matrix
    scalar: Fraction
    ricci_j_invariant: bool
    chern_ricci: Matrix
    hermitian_scalar: Fraction


def curvature_summary(t: SymplecticTriple,
                      lc: Connection) -> CurvatureSummary:
    """Riemannian Ricci/scalar of the Levi-Civita map plus the mixed trace
    form and Hermitian scalar of the Chern-type connection, in ints; no
    curvature operator and no Chern connection is formed.

    Ricci(x, y) = sum_k (R(e_k, e_x) e_y)_k comes from the trace formula
    (Gamma the Levi-Civita map, over den^2 D_c with den its denominator
    and D_c the structure constants'):

        Ric(x, y) = sum_m Gamma(x, y)_m tau_m
                    - sum_{k,m} Gamma(k, y)_m (Gamma(x, m)_k + c^k_mx),

    tau_m = sum_k Gamma(k, m)_k. The Chern trace form is read off the
    same map (see the module docstring), M_k = Gamma(e_k, .):

        P(x, y) = -sum_k c^k_xy Tr(J M_k),

    summed in ints over D_c, den and J's for every stored bracket pair.
    Cross-check (InternalInvariantViolation on failure): Ricci is
    symmetric."""
    d, j, dc, gam, gden = t.dim, t.j, t.algebra.bracket.den, lc.rows, lc.den
    tau = [0] * d
    for (x, m), row in gam.items():
        tau[m] += dict(row).get(x, 0)
    # terms[(m, k)]: the (x, D_c Gamma(x, m)_k) and (x, den c^k_mx)
    terms: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for f, tensor in ((dc, lc), (gden, t.algebra.bracket.swapped())):
        for (x, m), row in tensor.rows.items():
            for k, s in row:
                terms.setdefault((m, k), []).append((x, f * s))
    ric = [[0] * d for _ in range(d)]
    for (k, y), row in gam.items():
        ric[k][y] += dc * sum(s * tau[m] for m, s in row)
        for m, s in row:
            for x, q in terms.get((m, k), ()):
                ric[x][y] -= s * q
    if any(ric[x][y] != ric[y][x] for x in range(d) for y in range(x)):
        raise InternalInvariantViolation("Ricci form not symmetric")
    ricci = Matrix.from_ints(gden * gden * dc, ric)
    scalar = _trace_of_product(t.metric_inv, ric, gden * gden * dc)
    # J^T Ric J = Ric iff Ric J is skew: Ric is symmetric and J^2 = -1
    ricci_j = (ricci @ j).is_skew()

    # psi[k] = den J.den Tr(J M_k), Tr(J M_k) = sum_b (J M_k e_b)_b
    psi, jrows = [0] * d, [dict(r) for r in j.rows]
    for (k, b), row in gam.items():
        jb = jrows[b]
        psi[k] += sum(jb.get(m, 0) * s for m, s in row)
    p = [[0] * d for _ in range(d)]
    for (x, y), row in t.algebra.bracket.rows.items():
        p[x][y] = -sum(c * psi[k] for k, c in row)
    chern_ricci = Matrix.from_ints(dc * gden * j.den, p)
    # Jacobi's formula, see the module docstring
    herm = _trace_of_product(t.omega_inv, p, dc * gden * j.den) / 2
    return CurvatureSummary(
        ricci=ricci,
        scalar=scalar,
        ricci_j_invariant=ricci_j,
        chern_ricci=chern_ricci,
        hermitian_scalar=herm,
    )


# -- parallelism of N --------------------------------------------------


class ParallelismReport(Record):
    nabla_n_zero: bool
    image_parallel: bool
    perp_parallel: bool

    @property
    def local_product(self) -> bool:
        return self.image_parallel and self.perp_parallel


def covariant_derivative_n(t: SymplecticTriple, lc: Connection,
                           n: Tensor3,
                           rep: DistributionReport) -> ParallelismReport:
    """Is nabla N = 0 under the Levi-Civita map, and are im N and its
    orthogonal complement parallel; rep is `classify(t, n, gn)`. With
    M_i = Gamma(e_i, .), a distribution is parallel iff every M_i maps it
    into itself (`Subspace.invariant_under`), and

        nabla_i N = M_i N(., .) - N(M_i ., .) - N(., M_i .)

    is one int combination of whole tensors. M_i is formed only for the
    i with a stored pair (i, .): a zero M_i maps every subspace into
    itself and adds 0 to nabla_i N. The two distribution flags must agree
    (the metric is parallel, so a distribution is parallel iff its
    complement is); a mismatch raises InternalInvariantViolation."""
    endos = [lc.endo(i) for i in sorted({i for i, _ in lc.rows})]
    img_par = all(rep.image.invariant_under(m) for m in endos)
    perp_par = all(rep.perp.invariant_under(m) for m in endos)
    if img_par != perp_par:
        raise InternalInvariantViolation(
            "im N parallel but its orthogonal complement is not")
    # nabla N = 0 puts nabla_A N(B, C) = N(nabla_A B, C) + N(B, nabla_A C)
    # in im N, so a non-parallel image already answers False
    zero = img_par and all(
        combine([(1, n.map_values(m)), (-1, n.map_first(m)),
                 (-1, n.map_second(m))]).is_zero() for m in endos)
    return ParallelismReport(zero, img_par, perp_par)
