"""Acceptance gate: the twelve frozen claims this package must reproduce.

Every equality is exact (rational arithmetic, zero tolerance).  Each
criterion is a single test that prints its own verdict line, so a -v run
reads as a twelve-row scoreboard.  Nothing here is weakened to force a
pass: a red row means the claim, as stated, does not hold of the
structures as defined, and the failure message carries the measured
values.
"""

import random
from fractions import Fraction

import pytest

from liesymp import (Analysis, Subspace, abelian, build_rank_example,
                     builtin, character_extension, chern_connection,
                     check_tensor_identities, dim6, ex1, ex2, ex3, ex4,
                     expected_dimension, levi_civita, nabla_j_checks,
                     nijenhuis_space_dim, nijenhuis_tensor, norm_sq,
                     product_extension, symplectic_connection, thurston,
                     torsion, torsion_recovers_nijenhuis, twistor_claims)
from support import conjugated_triple

F = Fraction


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}")


def _full_catalog():
    entries = [("ex1", ex1()), ("ex2", ex2()), ("ex3", ex3()), ("ex4", ex4()),
               ("dim6", dim6()), ("abelian(1)", abelian(1)),
               ("abelian(2)", abelian(2)), ("abelian(3)", abelian(3))]
    for a in ("1/2", "1", "2", "3"):
        entries.append((f"thurston({a})", thurston(a)))
    return entries


@pytest.fixture(scope="module")
def full_catalog():
    return _full_catalog()


@pytest.fixture(scope="module")
def random_dim4_triples():
    """>= 100 validated 4-dim triples: seeded symplectic conjugates of
    every 4-dim catalog entry."""
    rng = random.Random(1906)
    bases = [ex1(), ex2(), ex3(), ex4(),
             thurston("1/2"), thurston(1), thurston(2), thurston(3)]
    out = []
    for t in bases:
        for _ in range(13):
            out.append(conjugated_triple(t, rng))
    assert len(out) >= 100
    return out


_GOLDEN_SPANS = {
    "ex1": ([["1", "0", "0", "-1"], ["0", "1", "1", "0"]], False,
            [["1", "0", "0", "1"], ["0", "1", "-1", "0"]], False),
    "ex2": ([["0", "1", "0", "0"], ["0", "0", "0", "1"]], True,
            [["1", "0", "0", "0"], ["0", "0", "1", "0"]], True),
    "ex3": ([["0", "1", "0", "0"], ["0", "0", "0", "1"]], False,
            [["1", "0", "0", "0"], ["0", "0", "1", "0"]], True),
    "ex4": ([["1", "2", "0", "0"], ["0", "0", "1", "2"]], True,
            [["1", "-1/2", "0", "0"], ["0", "0", "1", "-1/2"]], False),
}


def test_criterion_01_golden_table_spans_and_flags():
    builders = {"ex1": ex1, "ex2": ex2, "ex3": ex3, "ex4": ex4}
    ok = True
    details = []
    for name, (im, im_inv, perp, perp_inv) in _GOLDEN_SPANS.items():
        rep = Analysis(builders[name]()).distributions
        claims = [
            rep.image == Subspace.span(4, im),
            rep.perp == Subspace.span(4, perp),
            rep.image_involutive == im_inv,
            rep.perp_involutive == perp_inv,
        ]
        if not all(claims):
            details.append((name, claims))
        ok = ok and all(claims)
    _verdict(1, "four named examples: image/complement spans and "
                "involutivity flags (8 + 8 claims)", ok)
    assert ok, details


def test_criterion_02_dim6_maximally_non_integrable():
    rep = Analysis(dim6()).distributions
    ok = rep.image == Subspace.full(6)
    _verdict(2, "six-dimensional example: image of N is the whole algebra",
             ok)
    assert ok, rep.image


def test_criterion_03_family_norm_is_8_alpha():
    results = {}
    for a in ("1/2", "1", "2", "3"):
        t = thurston(a)
        n = nijenhuis_tensor(t)
        results[a] = norm_sq(n, t, n.map_values(t.metric))
    ok = all(results[a] == 8 * F(a) for a in results)
    _verdict(3, "parametric family: |N|^2 = 8a for a in {1/2, 1, 2, 3}", ok)
    assert ok, results


def test_criterion_04_dimension_4_bound(random_dim4_triples):
    named = [ex1(), ex2(), ex3(), ex4()]
    ok = True
    count = 0
    for t in named + random_dim4_triples:
        rep = Analysis(t).distributions
        count += 1
        if rep.image.dim not in (0, 2):
            ok = False
            break
        # dim Im = 2 iff dim Ker = dim - 4 (here: 0); dim Im = 0 forces
        # the kernel to be everything
        want_ker = 0 if rep.image.dim == 2 else 4
        if rep.kernel.dim != want_ker:
            ok = False
            break
    _verdict(4, f"dim-4 bound: image rank in {{0, 2}} and the image/kernel "
                f"equivalence on {count} validated triples", ok)
    assert ok and count >= 104


def test_criterion_05_tensor_identities(full_catalog, random_dim4_triples):
    ok = True
    for name, t in full_catalog:
        checks = check_tensor_identities(t, nijenhuis_tensor(t))
        ok = ok and all(checks.values())
    for t in random_dim4_triples:
        checks = check_tensor_identities(t, nijenhuis_tensor(t))
        ok = ok and all(checks.values())
    _verdict(5, "antisymmetry, anti-linearity and the cyclic pairing "
                "identity on every catalog and randomized triple", ok)
    assert ok


def test_criterion_06_connection_axioms(full_catalog):
    ok = True
    for name, t in full_catalog:
        lc = levi_civita(t)
        sc = symplectic_connection(t, lc)
        ch = chern_connection(t, lc)
        n = nijenhuis_tensor(t)
        # LC: metric parallel + torsion free
        for i in range(t.dim):
            m = lc.endo(i)
            ok = ok and (t.metric @ m + m.transpose() @ t.metric).is_zero()
        ok = ok and torsion(t, lc).is_zero()
        # symplectic: form parallel + torsion free
        for i in range(t.dim):
            m = sc.endo(i)
            ok = ok and (t.omega @ m + m.transpose() @ t.omega).is_zero()
        ok = ok and torsion(t, sc).is_zero()
        # Chern: form and J parallel, torsion = N/4, torsion identity
        for i in range(t.dim):
            m = ch.endo(i)
            ok = ok and (t.omega @ m + m.transpose() @ t.omega).is_zero()
            ok = ok and (m @ t.j == t.j @ m)
        tor = torsion(t, ch)
        for b in range(t.dim):
            for c in range(b + 1, t.dim):
                ok = ok and list(tor.of_basis(b, c)) == [
                    x / 4 for x in n.of_basis(b, c)]
        ok = ok and torsion_recovers_nijenhuis(t, ch, n)
        if not ok:
            break
    _verdict(6, "metric/symplectic/hermitian connection axioms and the "
                "torsion identity on the full catalog", ok)
    assert ok


def test_criterion_07_nabla_j_identities(full_catalog):
    ok = True
    for name, t in full_catalog:
        a = Analysis(t)
        checks = nabla_j_checks(t, a.nabla_j, a.gn)
        ok = ok and all(checks.values())
    _verdict(7, "covariant-derivative-of-J pairing and anticommutation "
                "identities on the full catalog", ok)
    assert ok


def _grad_j_norm_sq(t, nj) -> Fraction:
    """|nabla J|^2 = sum of G^{ia} G^{jb} G_{kc} (nabla_i J)^k_j (nabla_a J)^c_b,
    the full metric contraction of the Levi-Civita derivative of J."""
    endos = [nj.endo(i) for i in range(t.dim)]
    g, ginv = t.metric, t.metric_inv
    total = F(0)
    for i in range(t.dim):
        for a in range(t.dim):
            if ginv.entry(i, a) != 0:
                total += ginv.entry(i, a) * (
                    endos[i].transpose() @ g @ endos[a] @ ginv).trace()
    return total


def test_criterion_08_scalar_identity_with_coefficient_two(full_catalog):
    """s_C = s_g + |N|^2 / 16, exactly, on the full catalog.

    The id records the claim as first stated, s_C = s_g + 2 |N|^2.  With
    |N|^2 = norm_sq, the full metric contraction over ordered index pairs
    that criterion 3 pins (|N|^2 = 8a on thurston(a)), the coefficient
    cannot be 2: on thurston(a) the Chern-Ricci form vanishes, so s_C = 0,
    while s_g = -a/2 (Milnor's formula for nilpotent algebras), which
    forces the coefficient 1/16.  The "2" is the same law in the norm of
    the Chern torsion T = N/4 summed over unordered pairs i < j:
    2 |T|^2_{i<j} = |N|^2 / 16.

    Second route: the gap is also |nabla J|^2 / 4 (the almost-Kaehler
    identity between the Hermitian and Riemannian scalar curvatures),
    with nabla J from the Levi-Civita connection; criterion 7 checks the
    pairing identity that ties nabla J to N.
    """
    mismatches = []
    for name, t in full_catalog:
        a = Analysis(t)
        summary = a.curvature
        nsq = norm_sq(a.n, t, a.gn)
        djsq = _grad_j_norm_sq(t, a.nabla_j)
        gap = summary.hermitian_scalar - summary.scalar
        if gap != F(1, 16) * nsq or gap != djsq / 4:
            mismatches.append((name, f"s_g={summary.scalar}",
                               f"s_C={summary.hermitian_scalar}",
                               f"|N|^2={nsq}", f"|nabla J|^2={djsq}"))
    ok = not mismatches
    _verdict(8, "scalar curvature identity s_C = s_g + |N|^2/16 "
                "= s_g + |nabla J|^2/4 on the full catalog", ok)
    assert ok, f"s_C - s_g != |N|^2/16 or != |nabla J|^2/4: {mismatches}"


def test_criterion_09_parallel_n_forces_integrability(full_catalog):
    ok = True
    for name, t in full_catalog:
        a = Analysis(t)
        ok = ok and (a.parallelism.nabla_n_zero == a.n.is_zero())
    _verdict(9, "metric-connection derivative of N vanishes exactly on "
                "the integrable entries", ok)
    assert ok


def test_criterion_10_constructions():
    ok = True
    # product extension: image unchanged (embedded), complement grows by 2
    for builder in (ex1, ex2, ex3, ex4, dim6):
        t = builder()
        rep = Analysis(t).distributions
        rep2 = Analysis(product_extension(t)).distributions
        padded = [list(v) + [F(0), F(0)] for v in rep.image.basis.entries]
        ok = ok and rep2.image == Subspace.span(t.dim + 2, padded)
        ok = ok and rep2.perp.dim == rep.perp.dim + 2
    # character extension: image grows by exactly the new plane
    for builder in (ex1, ex2, ex3, ex4):
        t = builder()
        rep = Analysis(t).distributions
        rep2 = Analysis(character_extension(t)).distributions
        d2 = t.dim + 2
        padded = [list(v) + [F(0), F(0)] for v in rep.image.basis.entries]
        plane = [[F(0)] * t.dim + [F(1), F(0)],
                 [F(0)] * t.dim + [F(0), F(1)]]
        ok = ok and rep2.image == Subspace.span(d2, padded + plane)
    # nilpotency preserved
    for builder in (ex1, ex2, dim6):
        t = builder()
        ok = ok and product_extension(t).algebra.is_nilpotent()[0]
        ok = ok and character_extension(t).algebra.is_nilpotent()[0]
    # full parameter sweep with all four flag patterns in the open range
    patterns = [(True, True), (True, False), (False, True), (False, False)]
    for n in range(2, 6):
        for k in range(0, n + 1):
            if (n, k) == (2, 2):
                continue
            requested = patterns if 0 < k < n else [(True, True)]
            for inv_im, inv_perp in requested:
                t = build_rank_example(n, k, inv_im, inv_perp)
                rep = Analysis(t).distributions
                ok = ok and t.dim == 2 * n and rep.image.dim == 2 * k
                ok = ok and rep.image_involutive == inv_im
                ok = ok and rep.perp_involutive == inv_perp
    _verdict(10, "extension constructions and the synthesized-rank sweep "
                 "(2 <= n <= 5, all admissible signatures)", ok)
    assert ok


def test_criterion_11_constraint_space_dimension():
    got = [nijenhuis_space_dim(n) for n in range(1, 6)]
    want = [expected_dimension(n) for n in range(1, 6)]
    ok = got == want == [0, 4, 16, 40, 80]
    _verdict(11, "tensor-constraint nullity equals 2n(n^2-1)/3 for "
                 "n = 1..5 (0, 4, 16, 40, 80)", ok)
    assert ok, got


def test_criterion_12_twistor_model():
    ok = True
    for n in range(1, 5):
        c = twistor_claims(n)
        ok = ok and c["plus_integrable"]
        if n >= 2:
            ok = ok and c["minus_image_dim"] == c["m_dim"] == n * n + n
            ok = ok and c["p_pairs_fill_q"]
        else:
            ok = ok and c["minus_image_dim"] == 0
        ok = ok and c["kks_invariant_plus"] and c["kks_invariant_minus"]
        ok = ok and c["minus_positive"] and not c["plus_positive"]
        ok = ok and c["plus_witness"] is not None
    _verdict(12, "twistor model n = 1..4: one integrable structure, one "
                 "maximally non-integrable with positive metric", ok)
    assert ok
