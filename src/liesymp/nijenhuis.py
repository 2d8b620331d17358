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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalInvariantViolation
from .linalg import Matrix, Subspace, complement, vec_is_zero, vec_sub
from .symp import SymplecticTriple


@dataclass(frozen=True)
class Tensor3:
    """Antisymmetric (in the first two slots) vector valued 2-tensor,
    stored densely as vals[i][j] = T(e_i, e_j) coordinate tuples."""

    dim: int
    vals: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def of_basis(self, i: int, j: int) -> tuple[Fraction, ...]:
        return self.vals[i][j]

    def of_vectors(self, u: Sequence, v: Sequence) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.dim
        for i, a in enumerate(u):
            if a == 0:
                continue
            row = self.vals[i]
            for j, b in enumerate(v):
                c = a * b
                if c == 0:
                    continue
                for k, w in enumerate(row[j]):
                    if w != 0:
                        out[k] += c * w
        return tuple(out)

    def is_zero(self) -> bool:
        return all(vec_is_zero(self.vals[i][j])
                   for i in range(self.dim) for j in range(self.dim))


def nijenhuis_tensor(t: SymplecticTriple) -> Tensor3:
    g, j = t.algebra, t.j
    n = g.dim
    basis = [tuple(Fraction(1 if a == b else 0) for a in range(n))
             for b in range(n)]
    jbasis = [j.apply(e) for e in basis]
    vals = [[tuple([Fraction(0)] * n) for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            term = list(g.bracket_vec(jbasis[a], jbasis[b]))
            for k, c in zip(range(n), j.apply(g.bracket_vec(jbasis[a], basis[b]))):
                term[k] -= c
            for k, c in zip(range(n), j.apply(g.bracket_vec(basis[a], jbasis[b]))):
                term[k] -= c
            br = g.bracket_basis(a, b)
            for k, c in br.items():
                term[k] -= c
            v = tuple(term)
            vals[a][b] = v
            vals[b][a] = tuple(-x for x in v)
    return Tensor3(n, tuple(tuple(row) for row in vals))


def image_distribution(n: Tensor3) -> Subspace:
    vecs = [n.vals[i][j] for i in range(n.dim) for j in range(i + 1, n.dim)]
    return Subspace.span(n.dim, vecs)


def kernel_distribution(n: Tensor3) -> Subspace:
    """{x : N(x, .) = 0}, computed as the kernel of the stacked slices."""
    rows = []
    for j in range(n.dim):
        for k in range(n.dim):
            rows.append(tuple(n.vals[i][j][k] for i in range(n.dim)))
    return Subspace.span(n.dim, Matrix.from_rows(rows).nullspace())


def is_involutive(s: Subspace, g) -> bool:
    for u in s.vectors():
        for v in s.vectors():
            if not s.contains(g.bracket_vec(u, v)):
                return False
    return True


def norm_sq(n: Tensor3, t: SymplecticTriple) -> Fraction:
    """|N|^2 = sum over basis of G^{ia} G^{jb} G_{kc} N^k_{ij} N^c_{ab},
    i.e. the full metric contraction over ordered index pairs.

    Implemented as sum_{k,l} G_kl * <Y^k, N^l>_Frobenius with
    Y^k = Ginv @ N^k @ Ginv, where (N^k)_{ij} = k-th coordinate of
    N(e_i, e_j). Cost O(dim^4).
    """
    ginv = t.metric_inv
    d = n.dim
    slabs = [Matrix.from_rows([[n.vals[i][j][k] for j in range(d)]
                               for i in range(d)]) for k in range(d)]
    ys = [ginv @ s @ ginv for s in slabs]
    total = Fraction(0)
    for k in range(d):
        for l in range(d):
            gkl = t.metric.entry(k, l)
            if gkl == 0:
                continue
            acc = Fraction(0)
            yk, nl = ys[k].entries, slabs[l].entries
            for i in range(d):
                acc += sum(a * b for a, b in zip(yk[i], nl[i]))
            total += gkl * acc
    return total


@dataclass(frozen=True)
class DistributionReport:
    integrable: bool
    norm_sq: Fraction
    image: Subspace
    image_involutive: bool
    perp: Subspace
    perp_involutive: bool
    kernel: Subspace

    @property
    def image_dim(self) -> int:
        return self.image.dim

    @property
    def perp_dim(self) -> int:
        return self.perp.dim


def _j_stable(s: Subspace, j: Matrix) -> bool:
    return all(s.contains(j.apply(v)) for v in s.vectors())


def classify(t: SymplecticTriple, n: Tensor3) -> DistributionReport:
    """Full image/kernel analysis of the Nijenhuis tensor, with built in
    consistency checks (raise InternalInvariantViolation on any failure):

      * orthogonal complement w.r.t. the metric and symplectic complement
        w.r.t. omega agree (the image is J-stable);
      * image and perp are J-stable and even dimensional;
      * the kernel sits inside the metric complement of the image (a
        consequence of the cyclic omega identity);
      * integrable <=> |N|^2 = 0 <=> image = 0.

    n is `nijenhuis_tensor(t)`.
    """
    g = t.algebra
    im = image_distribution(n)
    ker = kernel_distribution(n)
    perp_g = complement(im, t.metric)
    perp_om = complement(im, t.omega)
    if perp_g != perp_om:
        raise InternalInvariantViolation(
            "metric and symplectic complements of im N disagree")
    if not _j_stable(im, t.j) or not _j_stable(perp_g, t.j):
        raise InternalInvariantViolation("im N or its complement not J-stable")
    if im.dim % 2 or perp_g.dim % 2:
        raise InternalInvariantViolation("odd dimensional N-distribution")
    if not perp_g.contains_subspace(ker):
        raise InternalInvariantViolation(
            "ker N not inside the metric complement of im N")
    nsq = norm_sq(n, t)
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
    """
    d, j = t.dim, t.j
    basis = [tuple(Fraction(1 if a == b else 0) for a in range(d))
             for b in range(d)]
    anti = all(vec_is_zero(vec_sub(n.vals[a][b], tuple(-x for x in n.vals[b][a])))
               for a in range(d) for b in range(d))
    lin = True
    for a in range(d):
        ja = j.apply(basis[a])
        for b in range(d):
            lhs1 = n.of_vectors(ja, basis[b])
            rhs1 = tuple(-x for x in j.apply(n.vals[a][b]))
            jb = j.apply(basis[b])
            lhs2 = n.of_vectors(basis[a], jb)
            if lhs1 != rhs1 or lhs2 != rhs1:
                lin = False
                break
        if not lin:
            break
    cyc = True
    for a in range(d):
        for b in range(a + 1, d):
            for c in range(b + 1, d):
                s = (t.omega_of(n.vals[a][b], basis[c])
                     + t.omega_of(n.vals[b][c], basis[a])
                     + t.omega_of(n.vals[c][a], basis[b]))
                if s != 0:
                    cyc = False
    return {"antisymmetry": anti, "anti_linearity": lin, "cyclic_omega": cyc}
