"""The reductive-pair engine: so(1,2n)'s descent facts, the Lie-group case
h = 0, and how often a pair builds what it shares between structures."""

from functools import cached_property
from itertools import product

import pytest

from liesymp import (Analysis, Matrix, ReductivePair, abelian,
                     build_rank_example, build_twistor_model, dim6, ex1,
                     ex2, ex3, ex4, image_distribution, nijenhuis_tensor,
                     thurston, twistor_claims)
from liesymp.errors import InternalInvariantViolation, Unsatisfiable
from liesymp.homogeneous import m_nijenhuis, positivity
from liesymp.twistor import twistor_j
from support import descent_facts, twistor_n


@pytest.mark.parametrize("sign", "+-")
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_twistor_descent_facts_hold(n, sign):
    model = build_twistor_model(n)
    assert descent_facts(model, twistor_j(model, sign)) == (True, True, True)


def _mixed_j(model) -> Matrix:
    """J+ on the P_1 plane (P_1, P_{n+1}) and J- everywhere else."""
    n, plus = twistor_n(model), twistor_j(model, "+")
    rows = list(twistor_j(model, "-").rows)
    p1 = model.h_dim - n  # the m-coordinate of P_1, after the nq of q
    for i in (p1, p1 + n):
        rows[i] = plus.rows[i]
    return Matrix(1, tuple(rows), model.m_dim)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_j_mixed_on_one_boost_plane_does_not_commute_with_u(n):
    # u(1) acts on p as one rotation, which commutes with any J that
    # rotates the P_1 plane; for n >= 2, u(n) mixes P_1 with the other
    # boosts, which the mixed J rotates the other way
    model = build_twistor_model(n)
    assert descent_facts(model, _mixed_j(model)) == (True, True, n == 1)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_phi_on_a_fibre_direction_is_not_u_invariant(n):
    model = build_twistor_model(n)
    phi = list(model.phi)
    phi[model.algebra.basis_names.index("QX_1_2")] = 1
    pair = ReductivePair(model.algebra, model.h_dim, tuple(phi))
    assert descent_facts(pair, twistor_j(model, "-")) == (True, False, True)


def test_positivity_needs_a_symmetric_form_and_may_find_no_witness():
    # so(1,2): m = (P_1, P_2) with omega = [[0, -2], [2, 0]]
    model = build_twistor_model(1)
    with pytest.raises(InternalInvariantViolation) as exc:
        positivity(model, Matrix.identity(2))
    assert str(exc.value) == "omega(., J .) not symmetric on m"
    # omega(., J .) = [[1, 2], [2, 1]]: indefinite, positive diagonal
    j = Matrix.from_rows([[1, "1/2"], ["-1/2", -1]])
    assert positivity(model, j) == (False, None)


def _lie_group_triples() -> dict:
    """Catalog triples and every rank example up to dim 12."""
    out = {f.__name__: f() for f in (ex1, ex2, ex3, ex4, dim6)}
    out["thurston(1)"], out["abelian(2)"] = thurston(1), abelian(2)
    for n in range(2, 7):
        for k in range(n + 1):
            for flags in product((True, False), repeat=2):
                try:
                    out[f"rank({n}, {k}, {flags})"] = build_rank_example(
                        n, k, *flags)
                except Unsatisfiable:
                    pass
    return out


@pytest.mark.parametrize("name, t", sorted(_lie_group_triples().items()))
def test_pair_with_h_zero_is_the_lie_group_case(name, t):
    # omega from phi is not compared: a catalog omega need not be
    # phi([., .]) for any phi
    pair = ReductivePair(t.algebra, 0, (0,) * t.dim)
    assert pair.bracket_m == t.algebra.bracket
    n = m_nijenhuis(pair, t.j)
    assert n == nijenhuis_tensor(t)
    assert image_distribution(n) == Analysis(t).distributions.image


def test_claims_build_the_m_bracket_and_omega_once(monkeypatch):
    # both structures, both N and both forms share one pair's m-bracket
    # and omega on m
    calls = dict.fromkeys(("bracket_m", "kks_m"), 0)
    for name in calls:
        def counted(self, build=getattr(ReductivePair, name).func,
                    name=name):
            calls[name] += 1
            return build(self)
        prop = cached_property(counted)
        prop.__set_name__(ReductivePair, name)
        monkeypatch.setattr(ReductivePair, name, prop)
    for n in (1, 2, 3, 4, 5):
        calls.update(dict.fromkeys(calls, 0))
        twistor_claims(n)
        assert calls == {"bracket_m": 1, "kks_m": 1}, n
