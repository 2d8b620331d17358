import random
from fractions import Fraction

import pytest

from liesymp import (Analysis, Matrix, SymplecticTriple, build_rank_example,
                     chern_connection, curvature_summary, levi_civita,
                     nabla_j_checks, nijenhuis_tensor, norm_sq,
                     symplectic_connection, torsion,
                     torsion_recovers_nijenhuis)
from liesymp.errors import InternalInvariantViolation, Unsatisfiable
from liesymp.tensor import combine
from support import (aff_aff_triple, bracket_basis, conjugated_triple,
                     definitional_parallel, dense_conjugate, diag,
                     from_dense)

F = Fraction


def test_levi_civita_axioms(extended_catalog):
    for name, t in extended_catalog.items():
        lc = levi_civita(t)
        assert definitional_parallel(lc, t.metric), name
        assert torsion(t, lc).is_zero(), name


def test_a_wrong_metric_inverse_is_not_metric(catalog):
    # G G^-1 = I is checked before Gamma is formed, so a wrong inverse
    # is caught even where Gamma = 0 (abelian) and G^-1 of it would be too
    for name, t in catalog.items():
        ginv = [list(r) for r in t.metric_inv.entries]
        ginv[-1] = [2 * x for x in ginv[-1]]
        bad = SymplecticTriple(t.algebra, t.omega, t.j)
        bad.__dict__["metric_inv"] = Matrix.from_rows(ginv)
        assert bad.metric_inv != t.metric_inv, name
        with pytest.raises(InternalInvariantViolation,
                           match="^Levi-Civita not metric$"):
            levi_civita(bad)


def test_connections_compare_by_value(extended_catalog):
    # a tensor is its values: the Levi-Civita map rebuilt by a sum or
    # from its dense values is the same object, and so is its summary
    for name, t in extended_catalog.items():
        a, d = Analysis(t), t.dim
        summed = combine([(1, a.lc)])
        assert summed == a.lc and hash(summed) == hash(a.lc), name
        vals = [[a.lc.of_basis(i, j) for j in range(d)] for i in range(d)]
        assert from_dense(d, vals) == a.lc, name
        assert curvature_summary(t, summed) == a.curvature, name


def test_wrong_sign_convention_loses_metric_compatibility(catalog):
    # same structure solved with all plus signs on the right-hand side:
    # still torsion free, no longer metric compatible. Pins down why the
    # two minus signs in the invariant formula matter.
    t = catalog["thurston(1)"]
    d, g = t.dim, t.metric
    ginv = t.metric_inv
    basis = [[F(1) if a == b else F(0) for a in range(d)] for b in range(d)]

    def ip(u, v):
        w = g.apply(u)
        return sum(w[k] * v[k] for k in range(d))

    rows = []
    for i in range(d):
        row = []
        for b in range(d):
            rhs = []
            for c in range(d):
                val = (ip(t.algebra.bracket_vec(basis[i], basis[b]), basis[c])
                       + ip(t.algebra.bracket_vec(basis[b], basis[c]), basis[i])
                       + ip(t.algebra.bracket_vec(basis[i], basis[c]), basis[b]))
                rhs.append(val / 2)
            row.append(ginv.apply(rhs))
        rows.append(tuple(row))
    variant = from_dense(d, rows)
    assert torsion(t, variant).is_zero()
    assert not definitional_parallel(variant, t.metric)


def test_symplectic_connection_axioms(extended_catalog):
    for name, t in extended_catalog.items():
        sc = symplectic_connection(t, levi_civita(t))
        assert definitional_parallel(sc, t.omega), name
        assert torsion(t, sc).is_zero(), name


def test_chern_connection_axioms(extended_catalog):
    for name, t in extended_catalog.items():
        ch = chern_connection(t, levi_civita(t))
        assert definitional_parallel(ch, t.omega), name
        # J parallel: each endomorphism commutes with J
        for i in range(t.dim):
            m = ch.endo(i)
            assert m @ t.j == t.j @ m, name


def test_chern_torsion_is_quarter_nijenhuis(extended_catalog):
    for name, t in extended_catalog.items():
        n = nijenhuis_tensor(t)
        tor = torsion(t, Analysis(t).chern)
        for b in range(t.dim):
            for c in range(b + 1, t.dim):
                quarter = [x / 4 for x in n.of_basis(b, c)]
                assert list(tor.of_basis(b, c)) == quarter, name


def test_torsion_of_j_parallel_connection_recovers_n(extended_catalog):
    for name, t in extended_catalog.items():
        a = Analysis(t)
        assert torsion_recovers_nijenhuis(t, a.chern, a.n), name


def test_torsion_identity_rejects_the_wrong_connection_or_n(catalog):
    # on every non-Kaehler catalog triple the Levi-Civita map has torsion
    # 0 while N != 0, and the Chern connection's torsion recovers N, not 2N
    checked = 0
    for name, t in catalog.items():
        a = Analysis(t)
        if a.n.is_zero():
            continue
        checked += 1
        assert not torsion_recovers_nijenhuis(t, a.lc, a.n), name
        assert not torsion_recovers_nijenhuis(t, a.chern,
                                              combine([(2, a.n)])), name
    assert checked == 9


def test_nabla_j_identities(extended_catalog):
    for name, t in extended_catalog.items():
        a = Analysis(t)
        checks = nabla_j_checks(t, a.nabla_j, a.n)
        assert all(checks.values()), (name, checks)


def test_nabla_j_anticommutes_with_j_pointwise(catalog):
    t = catalog["ex3"]
    nj = Analysis(t).nabla_j
    for m in (nj.endo(i) for i in range(t.dim)):
        assert (t.j @ m) == (m @ t.j).scale(-1)


_SCALARS = {
    # name -> (riemannian scalar, hermitian scalar)
    "ex1": (F(-1), F(0)),
    "ex2": (F(-1, 2), F(0)),
    "ex3": (F(-49, 8), F(-6)),
    "ex4": (F(-29, 2), F(-2)),
    "dim6": (F(-5), F(0)),
}


def test_frozen_scalar_curvatures(catalog):
    for name, (sg, sc) in _SCALARS.items():
        summary = Analysis(catalog[name]).curvature
        assert summary.scalar == sg, name
        assert summary.hermitian_scalar == sc, name


def _milnor_nilpotent_scalar(t):
    """s = -1/4 sum G^{ia} G^{jb} G_{kc} c_{ij}^k c_{ab}^c (Milnor 1976),
    from the structure constants and the metric alone; valid on nilpotent
    algebras."""
    d, g, ginv = t.dim, t.metric, t.metric_inv
    c = [[bracket_basis(t.algebra, i, j) for j in range(d)] for i in range(d)]
    total = F(0)
    for i in range(d):
        for j in range(d):
            for a in range(d):
                for b in range(d):
                    w = ginv.entry(i, a) * ginv.entry(j, b)
                    if w == 0:
                        continue
                    for k, x in c[i][j].items():
                        for l, y in c[a][b].items():
                            total += w * g.entry(k, l) * x * y
    return -total / 4


def test_thurston_curvature_profile(catalog):
    # s_C = 0 (zero Chern-Ricci form) and s_g = -a/2 by Milnor's formula,
    # so the scalar gap is a/2 = |N|^2/16 with |N|^2 = 8a: the coefficient
    # 1/16 is forced without reading it off the computed gap
    for alpha in ("1/2", "1", "2", "3"):
        t = catalog[f"thurston({alpha})"]
        assert t.algebra.is_nilpotent()[0]
        summary = Analysis(t).curvature
        a = F(alpha)
        assert _milnor_nilpotent_scalar(t) == summary.scalar == -a / 2
        assert summary.hermitian_scalar == 0
        assert summary.chern_ricci.is_zero()
        assert not summary.ricci_j_invariant
        assert norm_sq(nijenhuis_tensor(t), t) / 16 == a / 2
    s1 = Analysis(catalog["thurston(1)"]).curvature
    assert s1.ricci == diag([0, F(1, 2), F(-1, 2), F(-1, 2)])


def test_abelian_curvature_vanishes(catalog):
    summary = Analysis(catalog["abelian(2)"]).curvature
    assert summary.scalar == 0 and summary.hermitian_scalar == 0
    assert summary.ricci.is_zero() and summary.chern_ricci.is_zero()
    assert summary.ricci_j_invariant


# The curvature cross-check, tripped by a connection that breaks its
# premise: the Ricci form of a connection with torsion need not be
# symmetric.

def test_ricci_symmetry_check_trips_on_a_connection_with_torsion(catalog):
    a = Analysis(catalog["ex1"])
    with pytest.raises(InternalInvariantViolation,
                       match="^Ricci form not symmetric$"):
        curvature_summary(a.t, a.chern)


def test_character_shift_passes_and_keeps_the_mixed_trace_form(
        extended_catalog):
    # alpha vanishing on [g, g]: M_k gains alpha(k) Id, so every
    # R(e_x, e_y) gains -alpha([x, y]) Id = 0 and Ricci is unchanged, and
    # Tr(J M_k) gains alpha(k) Tr J = 0, so P is unchanged. The whole
    # summary read off the shifted map equals the Levi-Civita one.
    for name, t in extended_catalog.items():
        a, d = Analysis(t), t.dim
        derived = [t.algebra.bracket.numerators(i, j)
                   for i, j in t.algebra.pairs()]
        alphas = Matrix.from_rows(derived or [[0] * d]).nullspace()
        assert alphas, name  # no catalog algebra is perfect
        for alpha in alphas:
            shift = from_dense(d, [[[alpha[i] if k == b else 0
                                     for k in range(d)]
                                    for b in range(d)]
                                   for i in range(d)])
            cs = curvature_summary(t, combine([(1, a.lc), (1, shift)]))
            assert cs == a.curvature, name


def _trace_identity_triples(extended_catalog):
    out = dict(extended_catalog)
    for n in range(2, 6):
        for k in range(n + 1):
            try:
                out[f"rank({n}, {k})"] = build_rank_example(n, k, True, True)
            except Unsatisfiable:
                pass
    for n, k, flags in ((2, 1, (True, False)), (3, 2, (False, True)),
                        (4, 2, (True, False))):
        out[f"dense({n}, {k})"] = dense_conjugate(
            build_rank_example(n, k, *flags),
            random.Random(f"trace:{n}:{k}"))
    return out


def test_chern_generators_share_the_levi_civita_traces(extended_catalog):
    # curvature_summary reads P off the Levi-Civita map: with M_k =
    # Gamma(e_k, .), the Chern generator (M_k - J M_k J)/2 commutes with
    # J and has the traces Tr(J M_k) and Tr M_k = 0 (see `connections`)
    for name, t in _trace_identity_triples(extended_catalog).items():
        a, j = Analysis(t), t.j
        for k in range(t.dim):
            mc, m = a.chern.endo(k), a.lc.endo(k)
            assert mc == (m - j @ m @ j).scale(F(1, 2)), (name, k)
            assert mc @ j == j @ mc, (name, k)
            assert (j @ mc).trace() == (j @ m).trace(), (name, k)
            assert mc.trace() == m.trace() == 0, (name, k)


def test_ricci_j_invariance_tracks_integrability(catalog):
    for name, t in catalog.items():
        summary = Analysis(t).curvature
        integrable = nijenhuis_tensor(t).is_zero()
        if integrable:
            assert summary.ricci_j_invariant, name
        else:
            assert not summary.ricci_j_invariant, name


def test_ricci_j_invariance_is_the_two_product_form(extended_catalog):
    # ricci_j_invariant is `(Ric J).is_skew()`, held to J^T Ric J == Ric.
    # aff(R) + aff(R) is Kaehler and not flat, so its Ric J is skew and
    # nonzero, hence not symmetric: a symmetry test in place of the skew
    # one reads False there
    triples = _trace_identity_triples(extended_catalog)
    triples["aff+aff"] = aff_aff_triple()
    seen = {}
    for name, t in triples.items():
        cs, j = Analysis(t).curvature, t.j
        assert cs.ricci_j_invariant == (
            j.transpose() @ cs.ricci @ j == cs.ricci), name
        seen[name] = cs.ricci_j_invariant
    assert seen["abelian(2)"] and seen["aff+aff"]
    assert not any(v for name, v in seen.items()
                   if name in ("ex1", "ex2", "ex3", "ex4", "dim6")
                   or name.startswith("thurston"))


def test_scalar_gap_is_sixteenth_of_norm(extended_catalog):
    # measured exact law across every triple in the suite: the defect of
    # the hermitian scalar against the riemannian one is |N|^2 / 16
    for name, t in extended_catalog.items():
        summary = Analysis(t).curvature
        nsq = norm_sq(nijenhuis_tensor(t), t)
        assert summary.hermitian_scalar - summary.scalar == nsq / 16, name


def test_scalar_gap_law_survives_symplectic_conjugation(catalog):
    rng = random.Random(20250819)
    for base in ("ex1", "ex2", "ex4", "thurston(2)"):
        t = conjugated_triple(catalog[base], rng)
        summary = Analysis(t).curvature
        nsq = norm_sq(nijenhuis_tensor(t), t)
        assert summary.hermitian_scalar - summary.scalar == nsq / 16, base


def test_kahler_scalars_agree_on_curved_algebra():
    # aff(R) + aff(R) is integrable and not flat, so s_C = s_g here fixes
    # the normalisation of the hermitian scalar, which the catalog cannot:
    # its integrable entries are all flat.
    t = aff_aff_triple()
    assert nijenhuis_tensor(t).is_zero()
    summary = Analysis(t).curvature
    assert summary.hermitian_scalar == summary.scalar == -4


_PARALLELISM = {
    # nabla N under the metric connection: zero iff N itself vanishes
    "ex1": (False, False),
    "ex2": (False, False),
    "dim6": (False, True),   # whole-algebra image is trivially parallel
    "thurston(1)": (False, False),
    "abelian(2)": (True, True),
}


def test_covariant_derivative_of_n(catalog):
    for name, (nz, im_par) in _PARALLELISM.items():
        rep = Analysis(catalog[name]).parallelism
        assert rep.nabla_n_zero == nz, name
        assert rep.image_parallel == im_par, name
        assert rep.local_product == (rep.image_parallel and rep.perp_parallel)


def test_nonvanishing_n_is_never_parallel(extended_catalog):
    for name, t in extended_catalog.items():
        a = Analysis(t)
        assert a.parallelism.nabla_n_zero == a.n.is_zero(), name
