"""The Nijenhuis tensor of an invariant almost complex structure and the
distributions it generates.

For left invariant J on a Lie group, everything reduces to the algebra:

    N(x, y) = [Jx, Jy] - J[Jx, y] - J[x, Jy] - [x, y].

N vanishes iff J is integrable (a complex structure). When it does not
vanish, its image and kernel cut out J-stable distributions whose
involutivity / dimensions classify the geometry. `classify` computes the
full report and cross-checks every identity the tensor must satisfy;
any mismatch raises InternalInvariantViolation rather than returning a
silently wrong answer.

N is a `Tensor3` (module `tensor`, re-exported here), built by
`nijenhuis_of` in one pass over the bracket's stored pairs: each pair
adds its four terms in ints over c.den D^2, J = Q / D, and one
`Tensor3.from_ints` reduces the sums. Two tensors with equal values
compare equal.

The identity checks and |N|^2 are int contractions of whole tensors, not
loops over basis pairs and triples. T(Jx, y) = -J T(x, y) is
`T.anti_linear(J, t.first_slots)`, and the cyclic omega identity is
`N.cyclic_sums(omega)`, the same sum over omega that checks the
2-cocycle condition on the bracket tensor (omega is closed, so N
inherits it). |N|^2 raises one slot of N with G^-1 and pairs it with
G N, N lowered by the metric; the report builds G N once and passes it
to both `norm_sq` (through `classify`) and the nabla J pairing
(`connections.nabla_j_checks`).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from .errors import InternalInvariantViolation
from .linalg import Matrix, Subspace, complement, nullspace_of
from .record import Record
from .symp import SymplecticTriple
from .tensor import IntRows, Tensor3  # IntRows only re-exported


def nijenhuis_tensor(t: SymplecticTriple) -> Tensor3:
    """N of the triple's j, from the algebra's bracket tensor."""
    return nijenhuis_of(t.algebra.bracket, t.j)


def nijenhuis_of(c: Tensor3, j: Matrix) -> Tensor3:
    """N(x, y) = [Jx, Jy] - J[Jx, y] - J[x, Jy] - [x, y] for the bracket
    tensor C and J = Q / D, in one pass over C's stored pairs. A stored
    [e_a, e_b] = r / c.den with Jr = Qr / D feeds, over c.den D^2,

        Q_ai Q_bj r  at (i, j)  for Q_ai in J's row a, Q_bj in its row b
        -Q_ai Qr     at (i, b)  (J[Je_i, e_b] holds Q_ai J[e_a, e_b])
        -Q_bj Qr     at (a, j)
        -D^2 r       at (a, b),

    and one `Tensor3.from_ints` reduces the sums. Neither J^2 = -1 nor
    the antisymmetry of C is used."""
    dim, d2 = c.dim, j.den * j.den
    jrows, cols = j.rows, j.transpose().rows
    num: dict[tuple[int, int], list[int]] = defaultdict(lambda: [0] * dim)
    for (a, b), r in c.rows.items():
        qr = [0] * dim
        for m, p in r:
            for k, q in cols[m]:
                qr[k] += q * p
        qr = [(k, p) for k, p in enumerate(qr) if p]
        jb = jrows[b]
        for i, qa in jrows[a]:
            for jj, qb in jb:
                v, f = num[(i, jj)], qa * qb
                for k, p in r:
                    v[k] += f * p
            v = num[(i, b)]
            for k, p in qr:
                v[k] -= qa * p
        for jj, qb in jb:
            v = num[(a, jj)]
            for k, p in qr:
                v[k] -= qb * p
        v = num[(a, b)]
        for k, p in r:
            v[k] -= d2 * p
    return Tensor3.from_ints(dim, c.den * d2, num)


def image_distribution(n: Tensor3) -> Subspace:
    """Span of the nonzero values N(e_i, e_j), i < j."""
    return Subspace.span(n.dim, [n.numerators(i, j) for i, j in n.rows
                                 if i < j])


def kernel_distribution(n: Tensor3) -> Subspace:
    """{x : N(x, .) = 0}: the kernel of the rows (j, k) with entries
    N(e_i, e_j)_k in column i, read straight off N's int values."""
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for (i, j), row in n.rows.items():
        for k, p in row:
            rows.setdefault((j, k), {})[i] = p
    return Subspace.span(n.dim, nullspace_of(rows.values(), n.dim))


def is_involutive(s: Subspace, g) -> bool:
    """[s, s] lies in s, with [s, s] summed on g's bracket tensor."""
    return s.contains_subspace(g.bracket_of_subspaces(s, s))


def norm_sq(n: Tensor3, t: SymplecticTriple,
            gn: Tensor3 | None = None) -> Fraction:
    """|N|^2 = sum over basis of G^{ia} G^{jb} G_{kc} N^k_{ij} N^c_{ab},
    i.e. the full metric contraction over ordered index pairs.

    Only the second slot is raised: with r = N(., G^-1 .), so that
    r(e_i, e_b) = sum_j G^{jb} N(e_i, e_j),

        |N|^2 = sum_{i,a,b} G^{ia} <r(e_i, e_b), (G N)(e_a, e_b)>,

    summed in ints, for each stored (a, b) of G N, as
    <sum_i G^{ia} r(e_i, e_b), (G N)(e_a, e_b)>; one `Fraction` is made
    at the end.

    gn is G N, `n.map_values(t.metric)`. A report passes the one it
    builds for the nabla J pairing too; it stays optional, built here
    when omitted, so `norm_sq(n, t)` keeps working for other callers.
    """
    ginv = t.metric_inv
    if gn is None:
        gn = n.map_values(t.metric)
    r = n.map_second(ginv)
    rows, cols = r.rows, ginv.transpose().rows
    total = 0
    for (a, b), row in gn.rows.items():
        u = [0] * n.dim
        for i, g in cols[a]:
            for k, p in rows.get((i, b), ()):
                u[k] += g * p
        total += sum([p * u[k] for k, p in row])
    return Fraction(total, ginv.den * r.den * gn.den)


class DistributionReport(Record):
    integrable: bool
    norm_sq: Fraction
    image: Subspace
    image_involutive: bool
    perp: Subspace
    perp_involutive: bool
    kernel: Subspace


def classify(t: SymplecticTriple, n: Tensor3,
             gn: Tensor3 | None = None) -> DistributionReport:
    """Full image/kernel analysis of the Nijenhuis tensor, with built in
    consistency checks (raise InternalInvariantViolation on any failure):

      * orthogonal complement w.r.t. the metric and symplectic complement
        w.r.t. omega agree (the image is J-stable), checked as
        omega(im, perp_g) = 0;
      * image and perp are J-stable and even dimensional;
      * the kernel sits inside the metric complement of the image (a
        consequence of the cyclic omega identity);
      * integrable <=> |N|^2 = 0 <=> image = 0.

    n is `nijenhuis_tensor(t)`; gn, G N, is optional as in `norm_sq`.
    """
    g = t.algebra
    im = image_distribution(n)
    ker = kernel_distribution(n)
    perp_g = complement(im, t.metric)
    # omega is nondegenerate, so the symplectic complement has perp_g's
    # dimension too: the two agree iff omega(im, perp_g) = 0
    if not (im.basis @ t.omega @ perp_g.basis.transpose()).is_zero():
        raise InternalInvariantViolation(
            "metric and symplectic complements of im N disagree")
    if not im.invariant_under(t.j) or not perp_g.invariant_under(t.j):
        raise InternalInvariantViolation("im N or its complement not J-stable")
    if im.dim % 2 or perp_g.dim % 2:
        raise InternalInvariantViolation("odd dimensional N-distribution")
    if not perp_g.contains_subspace(ker):
        raise InternalInvariantViolation(
            "ker N not inside the metric complement of im N")
    nsq = norm_sq(n, t, gn)
    zero = n.is_zero()
    if zero != (nsq == 0) or zero != (im.dim == 0):
        raise InternalInvariantViolation(
            "integrability, |N|^2 and im N disagree")
    if t.dim == 4 and im.dim not in (0, 2):
        raise InternalInvariantViolation(
            f"dim-4 image dimension {im.dim} out of range")
    return DistributionReport(
        integrable=zero,
        norm_sq=nsq,
        image=im,
        image_involutive=is_involutive(im, g),
        perp=perp_g,
        perp_involutive=is_involutive(perp_g, g),
        kernel=ker,
    )


def check_tensor_identities(t: SymplecticTriple,
                            n: Tensor3) -> dict[str, bool]:
    """Pointwise identities of the Nijenhuis tensor, verified on all basis
    pairs/triples. Returns {identity name: bool}; callers assert all true.

      antisymmetry      N(x, y) = -N(y, x)
      anti_linearity    N(Jx, y) = -J N(x, y)  (and the y slot likewise)
      cyclic_omega      sum_cyc omega(N(x, y), z) = 0

    Each is a whole-tensor identity in ints: antisymmetry is one
    comparison of canonical tensors, N == -N.swapped(); anti-linearity in
    x is `Tensor3.anti_linear` at the triple's first slots; the cyclic
    sums are `Tensor3.cyclic_sums` of N against omega.
    The y slot is checked, as the x slot of N.swapped(), only when
    antisymmetry fails: an antisymmetric N anti-linear in x has
    N(x, Jy) = -N(Jy, x) = J N(y, x) = -J N(x, y).
    """
    j, first = t.j, t.first_slots
    anti = n == -n.swapped()
    lin = (n.anti_linear(j, first)
           and (anti or n.swapped().anti_linear(j, first)))
    cyc = not n.cyclic_sums(t.omega)[0]
    return {"antisymmetry": anti, "anti_linearity": lin, "cyclic_omega": cyc}
