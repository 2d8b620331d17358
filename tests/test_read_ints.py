"""Triples are read and built in ints.

`Matrix.from_rows` skips an entry spelled "0" and reads every other one
with one match of the number grammar; a file's bracket coefficients go
to `validate` as read; the catalog's extensions add their brackets to
the stored ints. Each test here pins one of those against the route it
replaced: the dense reader (`support.dense_from_rows`), the messages a
payload read value by value in file order gave, and `characters()` for
the default character.
"""

import json
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from liesymp import Matrix, build_rank_example, linalg, lie
from liesymp import catalog as catalog_module
from liesymp.catalog import character_extension
from liesymp.cli import main
from liesymp.errors import DimensionMismatch, SerializationError
from liesymp.linalg import brief
from liesymp.serialization import (algebra_from_dict, load_json_file,
                                   matrix_from_rows, triple_from_dict,
                                   triple_to_dict)
from support import dense_from_rows

_ZEROS = ["0", "-0", "00", "0/7", "-0/3", 0]
_VALUES = _ZEROS + ["1", "-2", "3/4", "-6/8", "10/5", "12345678901234567",
                    "-1/3", 5]
_LONG = "1" * 5000  # over the interpreter's default digit limit
# refused entries: those of test_linalg's _REFUSED, a zero denominator
# (spelled with and without a zero numerator) and the digit limit
_REFUSED = [0.5, True, "0.5", " 1", "1/0", "0/0", _LONG]


def _error(call):
    try:
        call()
    except Exception as e:  # the type and message are what is compared
        return type(e), str(e)
    return None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(0, 4).flatmap(lambda w: st.lists(
    st.lists(st.sampled_from(_VALUES), min_size=w, max_size=w),
    max_size=4)))
def test_from_rows_matches_the_dense_reader(rows):
    m, want = Matrix.from_rows(rows), dense_from_rows(rows)
    assert (m.den, m.rows, m.ncols) == (want.den, want.rows, want.ncols)


@pytest.mark.parametrize("x", _REFUSED, ids=lambda x: brief(x)[:24])
def test_refused_entry_after_zeros_raises_as_before(x):
    for rows in ([["0", "0", x]], [["0", "1"], ["0", x]],
                 [["0", "0", "0"], ["0", x]], [["0", "1"], ["0", x, "0"]]):
        want = _error(lambda: dense_from_rows(rows))
        assert want is not None and want[1] != "ragged rows"
        assert _error(lambda: Matrix.from_rows(rows)) == want
    _, want_msg = _error(lambda: dense_from_rows([[x]]))
    assert _error(lambda: matrix_from_rows([["0", "0"], ["0", x]], "J")) == (
        SerializationError, f"bad rational value {brief(x)}: {want_msg}")
    assert _error(lambda: matrix_from_rows([["0", "0"], ["0", x, "0"]],
                                           "J")) == (
        SerializationError, "J must be a list of equal-length rows")


@pytest.mark.parametrize("x", [x for x in _REFUSED if x != 0.5],
                         ids=lambda x: brief(x)[:24])
def test_validate_exits_2_on_a_refused_entry(tmp_path, capsys, x):
    # a float is refused by the JSON parser before any entry is read
    _, msg = _error(lambda: dense_from_rows([[x]]))
    d = triple_to_dict(build_rank_example(3, 1, True, True))
    d["omega"][0] = ["0", "0", x] + d["omega"][0][3:]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().err == (
        f"INVALID (SerializationError): bad rational value {brief(x)}: "
        f"{msg}\n")
    d["omega"][0] = ["0", "0", x]
    p.write_text(json.dumps(d))
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().err == (
        "INVALID (SerializationError): omega must be a list of "
        "equal-length rows\n")


def _algebra(*brackets, basis=("a", "b", "c")):
    return {"name": "g", "dim": 3, "basis": list(basis),
            "brackets": list(brackets)}


# each payload holds a refused coefficient and another fault; the
# message is the one met first reading the entries in file order, each
# coefficient after its key, and every coefficient before the indices
# and the Jacobi identity are checked
@pytest.mark.parametrize("payload, message", [
    (_algebra({"i": 0, "j": 1, "coeffs": {"2": "1/0"}}, "x"),
     "bad rational value '1/0': '1/0' has a zero denominator"),
    (_algebra({"i": 0, "j": 1, "coeffs": {"2": "1"}}, "x",
              {"i": 0, "j": 2, "coeffs": {"1": "x"}}),
     "each bracket must be an object"),
    (_algebra({"i": 0, "j": 9, "coeffs": {"2": "1"}},
              {"i": 0, "j": 1, "coeffs": {"2": "x"}}),
     "bad rational value 'x': 'x' is not an integer or p/q"),
    (_algebra({"i": 1, "j": 0, "coeffs": {"2": "1"}},
              {"i": 0, "j": 2, "coeffs": {"1": True}}),
     "bad rational value True: refusing to read the boolean True as a "
     "number"),
    (_algebra({"i": 0, "j": 1, "coeffs": {"2": "x", "02": "1"}}),
     "bad rational value 'x': 'x' is not an integer or p/q"),
    (_algebra({"i": 0, "j": 1, "coeffs": {"02": "x", "2": "1"}}),
     "bracket coefficient key '02' is not an index"),
    (_algebra({"i": 0, "j": 1, "coeffs": {"2": "1"}},
              {"i": 0, "j": 1, "coeffs": {"2": " 1"}}),
     "bad rational value ' 1': ' 1' is not an integer or p/q"),
    (_algebra({"i": 0, "j": 1, "coeffs": {"2": "1", "7": "1/2"}},
              {"i": 0, "j": 2, "coeffs": {"1": _LONG}}),
     f"bad rational value {brief(_LONG)}: {brief(_LONG)} exceeds the "
     "interpreter's digit limit for integers"),
    (_algebra({"i": 0, "j": 1, "coeffs": {"2": "1/0"}}, basis=("a", "b")),
     "bad rational value '1/0': '1/0' has a zero denominator"),
])
def test_algebra_errors_keep_their_file_order(payload, message):
    assert _error(lambda: algebra_from_dict(payload)) == (
        SerializationError, message)


def test_index_error_passes_through_when_every_coefficient_reads():
    payload = _algebra({"i": 0, "j": 1, "coeffs": {"2": "1"}},
                       {"i": 0, "j": 2, "coeffs": {"5": "1/2"}})
    with pytest.raises(DimensionMismatch,
                       match=r"^bracket result index 5 out of range$"):
        algebra_from_dict(payload)


class _CountingPattern:
    """The number grammar, counting its matches."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def fullmatch(self, s):
        self.calls += 1
        return self.pattern.fullmatch(s)


def test_loading_matches_the_grammar_once_per_entry_not_zero(tmp_path,
                                                             monkeypatch):
    d = triple_to_dict(build_rank_example(10, 4, False, True))
    p = tmp_path / "d20.json"
    p.write_text(json.dumps(d))
    entries = [x for key in ("omega", "J") for r in d[key] for x in r]
    coeffs = [x for b in d["brackets"] for x in b["coeffs"].values()]
    assert len(entries) == 800 and "0" in entries
    counter = _CountingPattern(linalg._RATIONAL)
    monkeypatch.setattr(linalg, "_RATIONAL", counter)
    triple_from_dict(load_json_file(str(p)))
    assert counter.calls == (sum(x != "0" for x in entries) + len(coeffs))


def test_synthesis_builds_no_fraction_kernel_and_validates_only_its_seed(
        monkeypatch):
    calls = {"nullspace": 0, "validate": []}
    nullspace, validate = Matrix.nullspace, catalog_module.validate

    def counted_nullspace(self):
        calls["nullspace"] += 1
        return nullspace(self)

    def counted_validate(name, *args):
        calls["validate"].append(name)
        return validate(name, *args)

    monkeypatch.setattr(Matrix, "nullspace", counted_nullspace)
    monkeypatch.setattr(catalog_module, "validate", counted_validate)
    monkeypatch.setattr(lie, "validate", counted_validate)
    t = build_rank_example(9, 7, False, False)
    assert t.dim == 18
    # the dim-4 seed is built by `validate`; the six character and one
    # product extension run only the checks their new brackets can break
    assert calls == {"nullspace": 0, "validate": ["ex1"]}


def _rank_examples(max_n):
    for n in range(1, max_n + 1):
        yield build_rank_example(n, 0)
        for k, flags in product(range(1, n), product((True, False),
                                                     repeat=2)):
            yield build_rank_example(n, k, *flags)
        if n >= 3:
            yield build_rank_example(n, n)


def test_default_character_is_the_first_character(catalog):
    triples = list(catalog.values()) + list(_rank_examples(6))
    assert len(triples) > 50 and max(t.dim for t in triples) == 12
    for t in triples:
        assert character_extension(t) == character_extension(
            t, t.algebra.characters()[0])
