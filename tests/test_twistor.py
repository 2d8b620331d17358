from fractions import Fraction

import pytest

from liesymp import Matrix, build_twistor_model, twistor, twistor_claims
from liesymp.errors import JacobiViolation
from liesymp.nijenhuis import image_distribution
from liesymp.tensor import Tensor3
from liesymp.twistor import (p_pairs_span_q, positivity_report,
                             twistor_nijenhuis)
from support import (bracket_basis, definitional_twistor_n, j0_matrix,
                     matrix_twistor_algebra, omega_basis, p_element,
                     q_block_matrix, q_element)

F = Fraction


@pytest.fixture(scope="module")
def models():
    return {n: build_twistor_model(n) for n in (1, 2, 3)}


def test_model_dimensions(models):
    for n, model in models.items():
        assert model.algebra.dim == n * (2 * n + 1)
        assert len(model.u_indices) == n * n
        assert len(model.q_indices) == n * n - n
        assert len(model.p_indices) == 2 * n
        assert model.m_dim == n * n + n


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_closed_form_matches_matrix_commutators(n):
    model = build_twistor_model(n)
    assert model.algebra == matrix_twistor_algebra(model)


def test_so_1_2_by_hand():
    # n = 1: so(1,2) on (UY_1_1, P_1, P_2), m = p; every constant an int
    model = build_twistor_model(1)
    g = model.algebra
    assert g.basis_names == ("UY_1_1", "P_1", "P_2")
    assert g.bracket.den == 1
    assert bracket_basis(g, 0, 1) == {2: -1}  # [UY_1_1, P_1] = -P_2
    assert bracket_basis(g, 0, 2) == {1: 1}   # [UY_1_1, P_2] = P_1
    assert bracket_basis(g, 1, 2) == {0: 1}   # [P_1, P_2] = UY_1_1
    assert omega_basis(model, 1, 2) == -2


def test_jacobi_check_trips_on_a_flipped_constant(monkeypatch):
    # the Jacobi check is the runtime second route to the closed form:
    # in so(1,4), [P_1, P_2] = M_12 = (UX_1_2 + QX_1_2) / 2; flip the sign
    # of its QX_1_2 coefficient and the check fails
    closed_form = twistor._closed_form_bracket

    def flipped(n, basis):
        t = closed_form(n, basis)
        rows = dict(t.rows)
        for xy, s in (((6, 7), 1), ((7, 6), -1)):  # (P_1, P_2)
            assert rows[xy] == ((0, s), (4, s))
            rows[xy] = ((0, s), (4, -s))
        return Tensor3(t.dim, t.den, rows)

    monkeypatch.setattr(twistor, "_closed_form_bracket", flipped)
    with pytest.raises(JacobiViolation) as exc:
        build_twistor_model(2)
    # the residual is [UY_1_1, -QX_1_2] = [M_13, M_34 - M_12] = QY_1_2
    assert str(exc.value) == ("Jacobi identity fails on basis triple "
                              "(UY_1_1, P_1, P_2): residual {'QY_1_2': '1'}")


def test_orbit_form_skew_and_nondegenerate(models):
    for n, model in models.items():
        kks = model.kks_m
        assert kks.is_skew()
        assert kks.det() != 0


def test_plus_structure_is_integrable(models):
    for n, model in models.items():
        nplus = twistor_nijenhuis(model, "+")
        assert nplus.is_zero()
        assert image_distribution(nplus).dim == 0


def test_minus_structure_fills_m(models):
    def image(n):
        return image_distribution(twistor_nijenhuis(models[n], "-"))

    assert image(1).dim == 0
    for n in (2, 3):
        im = image(n)
        assert im.dim == models[n].m_dim


def test_p_pairs_fill_fibre_directions(models):
    for n in (2, 3):
        model = models[n]
        assert p_pairs_span_q(model, twistor_nijenhuis(model, "-"))


def test_orbit_form_invariant_under_both_structures(models):
    from liesymp.twistor import kks_j_invariant
    for n, model in models.items():
        assert kks_j_invariant(model, "+")
        assert kks_j_invariant(model, "-")


def test_positivity_split(models):
    for n, model in models.items():
        rep = positivity_report(model)
        assert rep.minus_positive
        assert not rep.plus_positive
        assert rep.plus_witness == ("P_1", F(-2))
        assert rep.q_diag == 8 or n == 1  # no q directions at n = 1
        assert rep.p_diag_minus == 2


def test_closed_form_on_boost_pairs(models):
    # N(P(u), P(v)) lands in the fibre directions as the matrix
    # -2 (u wedge v - j0 u wedge j0 v), where (a wedge b) = a b^T - b a^T
    for n in (2, 3):
        model = models[n]
        nminus = twistor_nijenhuis(model, "-")
        j0 = j0_matrix(n)
        samples = [
            ([1, 0, 0, 0] + [0] * (2 * n - 4), [0, 1, 0, 0] + [0] * (2 * n - 4)),
            ([1, 2, 0, 1] + [0] * (2 * n - 4), [0, "1/2", 1, 0] + [0] * (2 * n - 4)),
        ]
        for u_raw, v_raw in samples:
            u = [F(x) if not isinstance(x, str) else F(x) for x in map(str, u_raw)]
            v = [F(x) for x in map(str, v_raw)]
            uc = Matrix.from_rows([[x] for x in u])
            vc = Matrix.from_rows([[x] for x in v])
            j0u = Matrix.from_rows([[x] for x in j0.apply(u)])
            j0v = Matrix.from_rows([[x] for x in j0.apply(v)])

            def wedge(a, b):
                return a @ b.transpose() - b @ a.transpose()

            block = (wedge(uc, vc) - wedge(j0u, j0v)).scale(-2)
            expected = q_element(model, block)
            actual = nminus.of_vectors(p_element(model, u),
                                       p_element(model, v))
            assert actual == expected


def test_closed_form_on_boost_fibre_pairs(models):
    # N(P(u), Q(B)) = 4 P(B u)
    for n in (2, 3):
        model = models[n]
        # build a valid fibre element from a p x p value
        u0 = [F(1)] + [F(0)] * (2 * n - 1)
        v0 = [F(0), F(1)] + [F(0)] * (2 * n - 2)
        nminus = twistor_nijenhuis(model, "-")
        qcoords = nminus.of_vectors(p_element(model, u0),
                                    p_element(model, v0))
        b = q_block_matrix(model, qcoords)
        for u in ([1, 1, 0, 0] + [0] * (2 * n - 4),
                  [0, "2/3", 0, 1] + [0] * (2 * n - 4)):
            uq = [F(str(x)) for x in u]
            actual = nminus.of_vectors(p_element(model, uq), qcoords)
            bu = b.apply(uq)
            expected = p_element(model, [4 * x for x in bu])
            assert actual == expected


def test_fibre_pairs_project_to_zero(models):
    for n in (2, 3):
        model = models[n]
        nminus = twistor_nijenhuis(model, "-")
        nq = len(model.q_indices)
        for a in range(nq):
            for b in range(nq):
                assert not any(nminus.of_basis(a, b))


@pytest.mark.parametrize("sign", "+-")
@pytest.mark.parametrize("n", (2, 3))
def test_nijenhuis_matches_definitional_route(models, n, sign):
    # the full so(1,2n) with J extended by zero, u-components dropped
    model = models[n]
    want = definitional_twistor_n(model, sign)
    got = twistor_nijenhuis(model, sign)
    d = model.m_dim
    assert {(a, b): got.of_basis(a, b)
            for a in range(d) for b in range(d)} == want


def test_claims_bundle(models):
    tc = twistor_claims(2, models[2])
    assert tc.plus_integrable
    assert tc.minus_image_dim == 6 == tc.m_dim
    assert tc.p_pairs_fill_q
    assert tc.kks_invariant_plus and tc.kks_invariant_minus
    assert tc.minus_positive and not tc.plus_positive
    assert tc.plus_witness == ("P_1", F(-2))
    tc1 = twistor_claims(1, models[1])
    assert tc1.minus_image_dim == 0


def test_claims_bundle_at_n5():
    # the largest n the benchmark runs: so(1,10), dim 55, with the
    # closed-form brackets, the int Jacobi scan and the int Sylvester check
    model = build_twistor_model(5)
    assert model.algebra.dim == 55 and model.m_dim == 30
    tc = twistor_claims(5, model)
    assert tc.plus_integrable
    assert tc.minus_image_dim == 30 == tc.m_dim
    assert tc.p_pairs_fill_q
    assert tc.kks_invariant_plus and tc.kks_invariant_minus
    assert tc.minus_positive and not tc.plus_positive
    assert tc.plus_witness == ("P_1", F(-2))
    rep = positivity_report(model)
    assert (rep.q_diag, rep.p_diag_minus) == (8, 2)
