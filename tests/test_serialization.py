import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liesymp import (algebra_from_dict, algebra_to_dict, build_rank_example,
                     build_report, triple_from_dict, triple_hash,
                     triple_to_dict)
from liesymp import cli
from liesymp.errors import SerializationError
from liesymp.serialization import (canonical_json, is_triple_payload,
                                   loads_json, pretty_json, rational_text)
from support import nonzero_brackets


def test_algebra_round_trip(catalog):
    for name, t in catalog.items():
        d = algebra_to_dict(t.algebra)
        g2 = algebra_from_dict(d)
        assert nonzero_brackets(g2) == nonzero_brackets(t.algebra)
        assert g2.basis_names == t.algebra.basis_names
        assert g2.name == t.algebra.name


def test_triple_round_trip(catalog):
    for name in ("ex2", "thurston(1/2)", "dim6"):
        t = catalog[name]
        d = triple_to_dict(t)
        t2 = triple_from_dict(d)
        assert t2.omega == t.omega
        assert t2.j == t.j
        assert t2.metric == t.metric
        assert nonzero_brackets(t2.algebra) == nonzero_brackets(t.algebra)


def test_triple_round_trip_through_text(catalog):
    t = catalog["ex4"]
    text = pretty_json(triple_to_dict(t))
    t2 = triple_from_dict(loads_json(text))
    assert t2.j == t.j


def test_rationals_serialized_as_strings(catalog):
    d = triple_to_dict(catalog["thurston(1/2)"])
    flat = json.dumps(d)
    assert "0.5" not in flat
    assert '"1/2"' in flat or '"-1/2"' in flat


def test_floats_refused_on_parse():
    with pytest.raises(SerializationError):
        loads_json('{"omega": [[0.5]]}')
    with pytest.raises(SerializationError):
        loads_json('{"x": NaN}')


def test_malformed_json_reports_position():
    with pytest.raises(SerializationError) as exc:
        loads_json('{"a": [1, }')
    assert "line" in str(exc.value)


def test_payload_kind_detection(catalog):
    t = catalog["ex1"]
    assert is_triple_payload(triple_to_dict(t))
    assert not is_triple_payload(algebra_to_dict(t.algebra))


def test_canonical_json_is_stable(catalog):
    d = triple_to_dict(catalog["ex3"])
    assert canonical_json(d) == canonical_json(json.loads(json.dumps(d)))


def test_hash_distinguishes_structures(catalog):
    h = {name: triple_hash(t) for name, t in catalog.items()}
    assert len(set(h.values())) == len(h)
    assert triple_hash(catalog["ex1"]) == triple_hash(catalog["ex1"])


def test_dict_validation_errors():
    with pytest.raises(SerializationError):
        algebra_from_dict({"name": "x", "dim": 2})  # missing fields
    with pytest.raises(SerializationError):
        algebra_from_dict({"name": "x", "dim": 2, "basis": ["a", "b"],
                           "brackets": [{"i": 0, "j": 1, "coeffs": {"0": "1"}},
                                        {"i": 0, "j": 1, "coeffs": {"0": "2"}}]})


def test_serialization_error_is_a_validation_error():
    # every rejection of bad input, malformed payloads included, is a
    # ValidationError, which the CLI maps to exit code 2
    from liesymp.errors import ValidationError
    assert issubclass(SerializationError, ValidationError)


# -- the indent-2 writer against json.dumps ---------------------------------


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("full", [False, True])
def test_pretty_json_matches_json_dumps_on_reports(catalog, full):
    for name, t in catalog.items():
        rep = build_report(t, full=full)
        assert pretty_json(rep) == _dumps(rep), name


def test_pretty_json_matches_json_dumps_on_triple_payloads(catalog):
    synthesized = [build_rank_example(n, k, a, b)
                   for n, k in ((2, 1), (3, 1), (4, 2), (5, 2))
                   for a in (True, False) for b in (True, False)]
    for t in list(catalog.values()) + synthesized:
        d = triple_to_dict(t)
        assert pretty_json(d) == _dumps(d), t.algebra.name


def test_pretty_json_matches_json_dumps_on_twistor_payload(monkeypatch,
                                                           capsys):
    written = []

    def recording(obj):
        written.append(obj)
        return pretty_json(obj)

    monkeypatch.setattr(cli, "pretty_json", recording)
    assert cli.main(["twistor", "--n", "1,2,3", "--report", "json"]) == 0
    [payload] = written
    assert len(payload) == 3
    assert capsys.readouterr().out == _dumps(payload) + "\n"


_ODD_CHARS = st.sampled_from(
    ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9",
     "\u2028", "\ud800", "\U0001f600"])
_TEXT = st.lists(_ODD_CHARS | st.characters(), max_size=6).map("".join)
_LEAVES = (_TEXT | st.integers() | st.integers(-2 ** 200, 2 ** 200)
           | st.booleans() | st.none() | st.just([]) | st.just(())
           | st.just({}))
_NESTED = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(obj=_NESTED)
def test_pretty_json_matches_json_dumps_on_nested_values(obj):
    assert pretty_json(obj) == _dumps(obj)


@pytest.mark.parametrize("obj", [0.5, {"a": [1, 2.0]}, Fraction(1, 2),
                                 [Fraction(3)], {1: "x"}, {"a": {None: 1}}])
def test_pretty_json_refuses_other_types(obj):
    with pytest.raises(TypeError):
        pretty_json(obj)


def test_rational_text_matches_fraction_str():
    big = [2 ** 64 + 1, 2 ** 70, 3 ** 50, 6 ** 40]
    nums = [0, 1, 2, 3, 4, 6, 7, 12, 35, *big]
    for p in nums + [-x for x in nums]:
        for den in [1, 2, 3, 4, 6, 7, 12, 35, *big]:
            assert rational_text(p, den) == str(Fraction(p, den)), (p, den)
