"""Fuzz the load boundary: mutated ex1/ex3 payloads either load or raise a
named input error, never anything else.

Each example applies a few mutations to a valid payload: a value anywhere
in the tree replaced by an arbitrary JSON value, a key deleted, a list
element dropped or duplicated, or an integer moved by a small step. The
search is derandomized and bounded, so the test is deterministic.
"""

import copy

from hypothesis import given, settings, strategies as st

from liesymp import ex1, ex3, triple_to_dict
from liesymp.errors import SerializationError, ValidationError
from liesymp.serialization import algebra_from_dict, triple_from_dict

_BASES = {"ex1": triple_to_dict(ex1()), "ex3": triple_to_dict(ex3())}

_SCALARS = (st.none() | st.booleans() | st.integers(-3, 6)
            | st.sampled_from(["0", "1", "-1/2", "1/0", "0.5", "x", ""])
            | st.text(max_size=3))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.sampled_from(
                       ["0", "1", "3", "i", "j", "coeffs", "x"]),
                       inner, max_size=3)),
    max_leaves=10)


def _mutate(data, payload) -> None:
    """Walk to a random container in payload and change one slot of it."""
    node = payload
    while True:
        keys = (list(node) if isinstance(node, dict)
                else list(range(len(node))))
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(
                st.booleans()):
            node = child
            continue
        break
    action = data.draw(st.sampled_from(
        ["replace", "delete", "duplicate", "step"]))
    if action == "replace":
        node[key] = data.draw(_JSON)
    elif action == "delete":
        del node[key]
    elif action == "duplicate" and isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    elif action == "step" and isinstance(child, int):
        node[key] = child + data.draw(st.integers(-2, 2))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data(), base=st.sampled_from(sorted(_BASES)))
def test_mutated_payloads_load_or_raise_named_errors(data, base):
    payload = copy.deepcopy(_BASES[base])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, payload)
    for load in (algebra_from_dict, triple_from_dict):
        try:
            load(payload)
        except (ValidationError, SerializationError):
            pass
