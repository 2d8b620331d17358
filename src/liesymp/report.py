"""Analysis reports and the golden-claim runner.

`Analysis(t)` computes each quantity of one triple at most once, on first
use, in dependency order: N, then G N (N lowered by the metric, read by
|N|^2 and the nabla J pairing) and the distributions; the Levi-Civita map,
then nabla J, the curvature summary and the parallelism of N. The Chern
connection is built only on request (`Analysis.chern`): the curvature
summary reads its trace form off the Levi-Civita map, so a report never
builds it. The cache lives as long as the object.

`build_report` aggregates everything the library can say about one
triple into a plain JSON-ready dict: validation outcomes, the image and
kernel distributions with involutivity flags, curvature scalars, the
predicate flags, and (on request) the raw tensor values. All numbers are
rational strings; re-running on the same input yields byte-identical
JSON. Wall-clock timings are therefore opt-in: they are the one field
that would break determinism, so they only appear when explicitly
requested.

`run_goldens` replays the frozen expected values for the whole catalog
(spans, flags, norms, nilpotency, twistor claims) and reports PASS/FAIL
per claim.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import Any, Optional

from . import catalog
from .connections import (Connection, CurvatureSummary, ParallelismReport,
                          chern_connection, covariant_derivative_n,
                          curvature_summary, levi_civita, nabla_j_checks,
                          nabla_of)
from .lie import LieAlgebra
from .linalg import Matrix, Subspace
from .nijenhuis import (DistributionReport, Tensor3, check_tensor_identities,
                        classify, nijenhuis_tensor)
from .nspace import cyclic_rows_vanish
from .record import Record
from .serialization import matrix_to_rows, row_texts, triple_hash
from .symp import SymplecticTriple
from .twistor import twistor_claims


class Analysis:
    """The derived quantities of one triple, each computed once."""

    def __init__(self, t: SymplecticTriple):
        self.t = t

    @cached_property
    def n(self) -> Tensor3:
        return nijenhuis_tensor(self.t)

    @cached_property
    def gn(self) -> Tensor3:
        """G N, read by |N|^2 and the nabla J pairing."""
        return self.n.map_values(self.t.metric)

    @cached_property
    def distributions(self) -> DistributionReport:
        return classify(self.t, self.n, self.gn)

    @cached_property
    def lc(self) -> Connection:
        return levi_civita(self.t)

    @cached_property
    def chern(self) -> Connection:
        return chern_connection(self.t, self.lc)

    @cached_property
    def nabla_j(self) -> Tensor3:
        return nabla_of(self.lc, self.t.j)

    @cached_property
    def curvature(self) -> CurvatureSummary:
        return curvature_summary(self.t, self.lc)

    @cached_property
    def parallelism(self) -> ParallelismReport:
        return covariant_derivative_n(self.t, self.lc, self.n,
                                      self.distributions)


def subspace_payload(s: Subspace, g: LieAlgebra) -> dict:
    b = s.basis
    return {
        "dim": s.dim,
        "basis": [{
            "coords": row_texts(r, b.den, b.ncols),
            "combo": g.name_of_row(r, b.den),
        } for r in b.rows],
    }


def _proportional_to(m: Matrix, ref: Matrix) -> tuple[bool, str]:
    """Is m = c * ref for a single rational c? ref is nonzero; c is read
    at its first nonzero entry."""
    i, (j, p) = next((i, r[0]) for i, r in enumerate(ref.rows) if r)
    c = m.entry(i, j) * ref.den / p
    return m == ref.scale(c), str(c)


def _membership(t: SymplecticTriple, n: Tensor3,
                ident: dict[str, bool]) -> bool:
    """`nspace.contains_tensor(t, n)` from what a report already holds:
    `build_triple` ran its `check_j`, and ident, from
    `check_tensor_identities`, has N's antisymmetry and anti-linearity;
    only the cyclic sums (`cyclic_rows_vanish`) are left."""
    return (ident["antisymmetry"] and ident["anti_linearity"]
            and cyclic_rows_vanish(t, n))


def build_report(t: SymplecticTriple, full: bool = False,
                 timings: bool = False) -> dict:
    t0 = time.monotonic()
    g = t.algebra
    a = Analysis(t)
    n, rep = a.n, a.distributions
    cs = a.curvature
    par = a.parallelism
    ident = dict(check_tensor_identities(t, n))
    ident.update(nabla_j_checks(t, a.nabla_j, a.gn))
    ident["constraint_membership"] = _membership(t, n, ident)
    nil, lcs_dims = g.is_nilpotent()
    # lcs_dims[1] is dim [g, g]; a perfect g has no second term
    derived_dim = lcs_dims[1] if len(lcs_dims) > 1 else t.dim
    prop, factor = _proportional_to(cs.chern_ricci, t.omega)
    gap = cs.hermitian_scalar - cs.scalar

    out: dict[str, Any] = {
        "name": g.name,
        "dim": t.dim,
        "hash": triple_hash(t),
        "validation": {
            # build_triple re-raises on any failure, so reaching this
            # point certifies every axiom below
            "jacobi": True,
            "omega_skew": True,
            "omega_nondegenerate": True,
            "omega_cocycle": True,
            "j_squares_to_minus_id": True,
            "j_compatible": True,
            "metric_positive": True,
        },
        "algebra": {
            "abelian": g.is_abelian(),
            "nilpotent": nil,
            "lower_central_dims": lcs_dims,
            "derived_dim": derived_dim,
            # the characters are the annihilator of [g, g]
            "character_space_dim": t.dim - derived_dim,
        },
        "nijenhuis": {
            "integrable": rep.integrable,
            "norm_sq": str(rep.norm_sq),
            "image": subspace_payload(rep.image, g),
            "image_involutive": rep.image_involutive,
            "perp": subspace_payload(rep.perp, g),
            "perp_involutive": rep.perp_involutive,
            "kernel": subspace_payload(rep.kernel, g),
        },
        "identities": {k: bool(v) for k, v in sorted(ident.items())},
        "flags": {
            "kahler": rep.integrable,
            "maximally_non_integrable": rep.image.dim == t.dim,
            "ricci_j_invariant": cs.ricci_j_invariant,
            "chern_ricci_proportional_to_omega": prop,
            # a cocompact lattice exists iff g is nilpotent with rational
            # structure constants; they are rational by construction
            "lattice_criterion": nil,
        },
        "curvature": {
            "scalar": str(cs.scalar),
            "hermitian_scalar": str(cs.hermitian_scalar),
            "scalar_gap": str(gap),
            "norm_sq_over_16": str(rep.norm_sq / 16),
            "ricci": matrix_to_rows(cs.ricci),
            "chern_ricci": matrix_to_rows(cs.chern_ricci),
            "chern_ricci_factor": factor if prop else None,
        },
        "parallelism": {
            "nabla_n_zero": par.nabla_n_zero,
            "image_parallel": par.image_parallel,
            "perp_parallel": par.perp_parallel,
            "local_product": par.local_product,
        },
    }
    if full:
        # the stored values of the pairs i < j, in order
        names = g.basis_names
        out["tensor"] = [{
            "pair": f"{names[i]},{names[j]}",
            "coords": row_texts(n.rows[(i, j)], n.den, t.dim),
            "combo": g.name_of_row(n.rows[(i, j)], n.den),
        } for i, j in sorted(ij for ij in n.rows if ij[0] < ij[1])]
    if timings:
        out["timings"] = {"total_ms": int((time.monotonic() - t0) * 1000)}
    return out


def render_text(report: dict) -> str:
    """Human-oriented rendering of a report."""
    lines = []
    lines.append(f"{report['name']}  (dim {report['dim']}, "
                 f"hash {report['hash'][:12]})")
    alg = report["algebra"]
    lines.append(f"  algebra: nilpotent={alg['nilpotent']} "
                 f"lower_central_dims={alg['lower_central_dims']} "
                 f"abelian={alg['abelian']}")
    nj = report["nijenhuis"]
    lines.append(f"  |N|^2 = {nj['norm_sq']}   integrable={nj['integrable']}")

    def span_lines(tag: str, sub: dict, inv: bool) -> None:
        combos = ", ".join(b["combo"] for b in sub["basis"]) or "0"
        lines.append(f"  {tag}: dim {sub['dim']}, involutive={inv}")
        lines.append(f"      span: {combos}")
        for b in sub["basis"]:
            lines.append(f"      [{', '.join(b['coords'])}]")

    span_lines("im N", nj["image"], nj["image_involutive"])
    span_lines("im N^perp", nj["perp"], nj["perp_involutive"])
    lines.append(f"  ker N: dim {nj['kernel']['dim']}")
    fl = report["flags"]
    lines.append("  flags: " + ", ".join(f"{k}={v}" for k, v in fl.items()))
    cur = report["curvature"]
    lines.append(f"  scalar = {cur['scalar']}   "
                 f"hermitian scalar = {cur['hermitian_scalar']}   "
                 f"gap = {cur['scalar_gap']} (|N|^2/16 = "
                 f"{cur['norm_sq_over_16']})")
    par = report["parallelism"]
    lines.append("  parallelism: " + ", ".join(
        f"{k}={v}" for k, v in par.items()))
    idents = report["identities"]
    bad = [k for k, v in idents.items() if not v]
    lines.append("  identities: all hold" if not bad
                 else f"  identities FAILING: {', '.join(bad)}")
    if "tensor" in report:
        lines.append("  N values:")
        for ent in report["tensor"]:
            lines.append(f"      N({ent['pair']}) = {ent['combo']}")
    if "timings" in report:
        lines.append(f"  timings: {report['timings']['total_ms']} ms")
    return "\n".join(lines)


# -- goldens -------------------------------------------------------------


class GoldenRow(Record):
    name: str
    claim: str
    expected: Any
    actual: Any

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


# frozen expected values for the catalog table; spans are canonical RREF
# rows in the entry's own basis order
_TABLE_EXPECT: dict[str, dict[str, Any]] = {
    "ex1": {
        "image_span": [["1", "0", "0", "-1"], ["0", "1", "1", "0"]],
        "perp_span": [["1", "0", "0", "1"], ["0", "1", "-1", "0"]],
        "image_involutive": False,
        "perp_involutive": False,
        "norm_sq": "16",
        "nilpotent": True,
    },
    "ex2": {
        "image_span": [["0", "1", "0", "0"], ["0", "0", "0", "1"]],
        "perp_span": [["1", "0", "0", "0"], ["0", "0", "1", "0"]],
        "image_involutive": True,
        "perp_involutive": True,
        "norm_sq": "8",
        "nilpotent": True,
    },
    "ex3": {
        "image_span": [["0", "1", "0", "0"], ["0", "0", "0", "1"]],
        "perp_span": [["1", "0", "0", "0"], ["0", "0", "1", "0"]],
        "image_involutive": False,
        "perp_involutive": True,
        "norm_sq": "2",
        "nilpotent": False,
    },
    "ex4": {
        "image_span": [["1", "2", "0", "0"], ["0", "0", "1", "2"]],
        "perp_span": [["1", "-1/2", "0", "0"], ["0", "0", "1", "-1/2"]],
        "image_involutive": True,
        "perp_involutive": False,
        "norm_sq": "200",
        "nilpotent": False,
    },
    "dim6": {
        "image_dim": 6,
        "maximally_non_integrable": True,
        "norm_sq": "80",
        "nilpotent": True,
    },
    "thurston(1)": {"norm_sq": "8", "image_involutive": True,
                    "perp_involutive": True},
    "thurston(2)": {"norm_sq": "16", "image_involutive": True,
                    "perp_involutive": True},
    "abelian(2)": {"norm_sq": "0", "integrable": True},
}

_TWISTOR_EXPECT: dict[int, dict[str, Any]] = {
    1: {"plus_integrable": True, "minus_image_dim": 0,
        "minus_form_positive": True, "plus_form_positive": False},
    2: {"plus_integrable": True, "minus_image_dim": 6,
        "minus_form_positive": True, "plus_form_positive": False},
    3: {"plus_integrable": True, "minus_image_dim": 12,
        "minus_form_positive": True, "plus_form_positive": False},
}


# how each catalog claim is read off the entry and its distributions
_CATALOG_READERS = {
    "image_span": lambda t, rep: matrix_to_rows(rep.image.basis),
    "perp_span": lambda t, rep: matrix_to_rows(rep.perp.basis),
    "image_involutive": lambda t, rep: rep.image_involutive,
    "perp_involutive": lambda t, rep: rep.perp_involutive,
    "norm_sq": lambda t, rep: str(rep.norm_sq),
    "nilpotent": lambda t, rep: t.algebra.is_nilpotent()[0],
    "image_dim": lambda t, rep: rep.image.dim,
    "maximally_non_integrable": lambda t, rep: rep.image.dim == t.dim,
    "integrable": lambda t, rep: rep.integrable,
}

# the `twistor_claims` key each twistor claim reads
_TWISTOR_FIELDS = {
    "plus_integrable": "plus_integrable",
    "minus_image_dim": "minus_image_dim",
    "minus_form_positive": "minus_positive",
    "plus_form_positive": "plus_positive",
}


def golden_rows(filter_substr: Optional[str] = None) -> list[GoldenRow]:
    rows: list[GoldenRow] = []
    for name, claims in _TABLE_EXPECT.items():
        if filter_substr and filter_substr not in name:
            continue
        t = catalog.builtin(name)
        rep = Analysis(t).distributions
        rows += [GoldenRow(name, claim, expected,
                           _CATALOG_READERS[claim](t, rep))
                 for claim, expected in claims.items()]
    for n, claims in _TWISTOR_EXPECT.items():
        name = f"twistor(n={n})"
        if filter_substr and filter_substr not in name:
            continue
        tc = twistor_claims(n)
        rows += [GoldenRow(name, claim, expected,
                           tc[_TWISTOR_FIELDS[claim]])
                 for claim, expected in claims.items()]
    return rows


def run_goldens(filter_substr: Optional[str] = None) -> tuple[list[str], bool]:
    rows = golden_rows(filter_substr)
    lines = [f"PASS  {r.name} :: {r.claim}" if r.ok else
             f"FAIL  {r.name} :: {r.claim} "
             f"(expected {r.expected!r}, got {r.actual!r})" for r in rows]
    n_fail = sum(not r.ok for r in rows)
    lines.append(f"{len(rows) - n_fail}/{len(rows)} golden claims hold")
    return lines, not n_fail
