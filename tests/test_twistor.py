import hashlib
import json
from fractions import Fraction

import pytest

from liesymp import Matrix, build_twistor_model, twistor, twistor_claims
from liesymp.cli import main
from liesymp.errors import InternalInvariantViolation
from liesymp.homogeneous import omega_j_invariant
from liesymp.lie import _check_jacobi
from liesymp.nijenhuis import image_distribution
from liesymp.serialization import pretty_json
from liesymp.twistor import (p_pairs_span_q, positivity_report, twistor_j,
                             twistor_nijenhuis)
from support import (bracket_basis, definitional_twistor_n, dense_span,
                     j0_matrix, lorentz_matrices, matrix_twistor_algebra,
                     omega_basis, p_element, q_block_matrix, q_element,
                     twistor_n)

F = Fraction


@pytest.fixture(scope="module")
def models():
    return {n: build_twistor_model(n) for n in (1, 2, 3)}


def test_model_dimensions(models):
    # u is the first n^2 basis indices, then q (n^2 - n), then p (2n)
    for n, model in models.items():
        dim = model.algebra.dim
        assert dim == n * (2 * n + 1)
        assert [nm[0] for nm in model.algebra.basis_names] == (
            ["U"] * (n * n) + ["Q"] * (n * n - n) + ["P"] * (2 * n))
        assert model.h_dim == n * n
        assert model.m_indices == range(n * n, dim)
        assert model.m_dim == n * n + n == len(model.m_indices)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_phi_is_minus_trace_with_j0(n):
    # phi(e_x) = -Tr(j'0 rho(e_x)), j'0 = diag(0, j0), from the matrices
    model = build_twistor_model(n)
    j0 = {(r + 1, c + 1): p for r, row in enumerate(j0_matrix(n).rows)
          for c, p in row}
    want = tuple(-sum(p * mat.get((c, r), 0) for (r, c), p in j0.items())
                 for mat in lorentz_matrices(n))
    assert model.phi == want
    assert sum(x != 0 for x in want) == n  # the UY diagonal
    d, nu = model.m_dim, n * n
    assert [[model.kks_m.entry(i, j) for j in range(d)] for i in range(d)] \
        == [[omega_basis(model, nu + i, nu + j) for j in range(d)]
            for i in range(d)]


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_closed_form_matches_matrix_commutators(n):
    # the second route to the constants: hand-written Lorentz matrices and
    # expansion in `support`, independent of `_basis` and of
    # `matrix_bracket`'s inverse; the opposite algebra (-t) fails here
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


def _edited_basis(monkeypatch, name, terms):
    """Give basis element `name` the Lorentz terms `terms` in every
    `_basis(n)` that `build_twistor_model` reads."""
    basis = twistor._basis

    def edited(n):
        out = basis(n)
        x = [nm for nm, _ in out].index(name)
        out[x] = (name, terms(out))
        return out

    monkeypatch.setattr(twistor, "_basis", edited)


def test_representation_check_accepts_another_basis_of_the_algebra(
        monkeypatch):
    # QX_1_2 = M_12 - 2 M_34 = -UX_1_2 / 2 + 3 QX_1_2 / 2: dim-many
    # independent elements of so(1,4) still span all of it, so the reader
    # accepts them; the table obeys Jacobi and is the original one
    # transported by the change of basis P, c'(e_i, e_j) = P^-1 c(P e_i,
    # P e_j), with column k of P the old coordinates of the new e_k
    old = build_twistor_model(2).algebra
    _edited_basis(monkeypatch, "QX_1_2", lambda b: [(1, 2, 1), (3, 4, -2)])
    new = build_twistor_model(2).algebra
    assert new.basis_names == old.basis_names
    assert new.bracket != old.bracket
    _check_jacobi(new)
    ux, qx = old.basis_names.index("UX_1_2"), old.basis_names.index("QX_1_2")
    cols = [[F(int(i == k)) for i in range(old.dim)] for k in range(old.dim)]
    cols[qx][ux], cols[qx][qx] = F(-1, 2), F(3, 2)
    pinv = Matrix.from_rows([list(r) for r in zip(*cols)]).inverse()
    for i in range(old.dim):
        for j in range(old.dim):
            assert new.bracket.of_basis(i, j) == pinv.apply(
                old.bracket_vec(cols[i], cols[j])), (i, j)


def test_representation_check_refuses_dependent_basis_matrices(monkeypatch):
    # give UY_1_1 the terms of P_1: the map to matrices is not injective
    _edited_basis(monkeypatch, "UY_1_1", lambda b: b[1][1])
    with pytest.raises(InternalInvariantViolation) as exc:
        build_twistor_model(1)
    assert str(exc.value) == (
        "so(1,2) basis matrices are linearly dependent: rank 2 for dim 3")


# sha256 of repr((den, list(rows.items()))) of the bracket tensor and of
# bracket_m, recorded from the closed-form construction the matrix route
# replaced: the same constants, den, rows and insertion order
DIGESTS = {
    1: ("3b830afba72f1b6416941242970245dbc082a939e2aada6f1121eeea67bb825f",
        "670ea7b5868fc4324facfdc38e973026489ef21665f19cb5ff5391e3310ed53c"),
    2: ("dd34b40692c27381d79dfbba040006400e7e48881158ea03809cf9361a0f9dd7",
        "69ed1626c8a0db62bd2eda8f330e0eeafef6403abf2dad4a012e4fae4ac3b48c"),
    3: ("67c290676b26db0a6f2e4dd0ab96050b65b87e38ff0f020bedf8fb22b1b67cc4",
        "1171d156dbcb9c466a50ca09183806d090efd4849b5c64d75c5d9a854f53fa50"),
    4: ("3c2bc57671b349722c75e12771297440fb3444276408a2c6842284b928ff2b30",
        "25891b4b589f64fbb1fd86dc4ea051482c10389e5c7928c9d00ab93ee43f1303"),
    5: ("4d17884d3a461ba814121b7dfbcf5589c8627b34189c457b5ee16e71f7c3e520",
        "9b7106efa120b76d1071fe36f336ac0b2764e92ae42b031690e3a0c0b1bc40a8"),
    6: ("2890092aa3f84922abab32b7260166cbfc1fbc68d48a7e11b0aabb1f8e743691",
        "95fcf123c8b19bfea6777a0147eba4506d617e17111dc307136c5478361eb003"),
    7: ("02b7b3e1234f4b349d3955e674a4ea2fd60e19e6aa2060f562ab46f994c3f0ad",
        "1724960eb979f62ca22b05e56d8ea352cdc7ca6c77cc2b2f1a970092db28ef7c"),
}


@pytest.mark.parametrize("n", sorted(DIGESTS))
def test_bracket_tensors_are_pinned(n):
    model = build_twistor_model(n)
    assert tuple(hashlib.sha256(repr((t.den, list(t.rows.items())))
                                .encode()).hexdigest()
                 for t in (model.algebra.bracket, model.bracket_m)) \
        == DIGESTS[n]


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_closed_form_satisfies_jacobi(n):
    _check_jacobi(build_twistor_model(n).algebra)


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


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_minus_spans_match_the_dense_route(n):
    # the image and the p x p span read N-'s stored rows (Subspace.of_rows);
    # the oracle spans their dense numerator lists
    model = build_twistor_model(n)
    nminus = twistor_nijenhuis(model, "-")
    upper = [ab for ab in nminus.rows if ab[0] < ab[1]]
    assert image_distribution(nminus) == dense_span(nminus, upper)
    nq = n * n - n
    pp = [ab for ab in nminus.rows if nq <= ab[0] < ab[1]]
    fill = (all(k < nq for ab in pp for k, _ in nminus.rows[ab])
            and dense_span(nminus, pp).dim == nq)
    assert fill  # q = 0 at n = 1
    assert p_pairs_span_q(model, nminus)


def test_orbit_form_invariant_under_both_structures(models):
    for n, model in models.items():
        assert omega_j_invariant(model, twistor_j(model, "+"))
        assert omega_j_invariant(model, twistor_j(model, "-"))


def minus_diagonals(model):
    """The minus form's Gram matrix kks_m J- on its first q and first p
    diagonal entries (None for q at n = 1, which has no q directions)."""
    gram = model.kks_m @ twistor_j(model, "-")
    nq = model.h_dim - twistor_n(model)
    return (gram.entry(0, 0) if nq else None), gram.entry(nq, nq)


def test_positivity_split(models):
    for n, model in models.items():
        assert positivity_report(model) == (True, False, ["P_1", "-2"])
        assert minus_diagonals(model) == ((8 if n > 1 else None), 2)


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
        nq = n * n - n
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


def test_claims_bundle():
    tc = twistor_claims(2)
    assert tc["plus_integrable"]
    assert tc["minus_image_dim"] == 6 == tc["m_dim"]
    assert tc["p_pairs_fill_q"]
    assert tc["kks_invariant_plus"] and tc["kks_invariant_minus"]
    assert tc["minus_positive"] and not tc["plus_positive"]
    assert tc["plus_witness"] == ["P_1", "-2"]
    assert twistor_claims(1)["minus_image_dim"] == 0


def test_claims_bundle_at_n5():
    # the largest n the benchmark runs: so(1,10), dim 55, with the
    # brackets read off its Lorentz matrices and the int Sylvester check
    model = build_twistor_model(5)
    assert model.algebra.dim == 55 and model.m_dim == 30
    tc = twistor_claims(5)
    assert tc["dim"] == 55
    assert tc["plus_integrable"]
    assert tc["minus_image_dim"] == 30 == tc["m_dim"]
    assert tc["p_pairs_fill_q"]
    assert tc["kks_invariant_plus"] and tc["kks_invariant_minus"]
    assert tc["minus_positive"] and not tc["plus_positive"]
    assert tc["plus_witness"] == ["P_1", "-2"]
    assert minus_diagonals(model) == (8, 2)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_claims_are_the_json_entry(n, capsys):
    # `twistor --report json` prints {**twistor_claims(n), "checks_pass"}
    claims = twistor_claims(n)
    pretty_json(claims)
    assert main(["twistor", "--n", str(n), "--report", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {**claims, "checks_pass": True}]
