import json

import pytest

from liesymp import (algebra_from_dict, algebra_to_dict, triple_from_dict,
                     triple_hash, triple_to_dict)
from liesymp.errors import SerializationError
from liesymp.serialization import (canonical_json, is_triple_payload,
                                   loads_json, pretty_json)
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
