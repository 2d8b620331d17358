"""JSON schemas and exact round-tripping.

Every number is serialized as the string str(Fraction) produces ("3",
"-1/2") and read back in `qof`'s grammar into ints, one match per value
and none for a matrix entry spelled "0"; a refused value is reported
where reading the payload in file order first meets it. Floats are
rejected at the JSON layer (parse_float hook) and at the coercion layer,
so a rounding artifact cannot enter silently from any direction.

Algebra payload:
    {"name": str, "dim": int, "basis": [str, ...],
     "brackets": [{"i": int, "j": int, "coeffs": {"k": "p/q", ...}}, ...]}
with 0-based indices and i < j (the antisymmetric partner is implied).

Triple payload: the algebra fields plus row-major "omega" and "J"
matrices of rational strings.

`triple_hash` is the sha256 of the canonical (sorted-key, no-whitespace)
triple JSON; it identifies inputs in reports.

Every rational is written from its stored ints: `rational_text(p, den)`
is str(Fraction(p, den)) with no `Fraction` made, and `row_texts` puts
one sparse int row (`Matrix.rows`, `Tensor3.rows`) into dense strings.

`pretty_json` writes exactly the bytes of json.dumps(obj,
sort_keys=True, indent=2) for what liesymp emits: dicts with str keys,
lists and tuples, str (escaped by json's own
`encode_basestring_ascii`), int, bool and None; anything else, a float
or a `Fraction` included, is a TypeError. It is written out because on
Python 3.11 any `indent` turns json's C encoder off, and the pure-Python
encoder took 2-3 times as long as this writer on a full report (one
core of a shared 2-vCPU VM: 0.51 against 0.25 ms at dim 10, 49 against
17 ms for `abelian(80)`).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Any, Iterable

from .errors import LiesympError, SerializationError
from .lie import LieAlgebra, validate
from .linalg import Matrix, brief, qof
from .symp import SymplecticTriple, build_triple


def _num(x: Any) -> Fraction:
    try:
        return qof(x)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise SerializationError(
            f"bad rational value {brief(x)}: {e}") from None


def _int_literal(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise SerializationError(
            f"integer literal {brief(s)} exceeds the interpreter's digit "
            "limit for integers") from None


def _index_key(k: str) -> int:
    """A bracket coefficient key: a canonical decimal index ("0", "3",
    "12"); "03", "+3", " 3 " and "0_3" are refused."""
    try:
        ki = int(k)
    except ValueError:
        ki = None
    if ki is None or not k.isdigit() or str(ki) != k:
        raise SerializationError(
            f"bracket coefficient key {brief(k)} is not an index")
    return ki


def _refuse_float(s: str) -> None:
    raise SerializationError(
        f"float literal {s!r} in input; use rational strings like \"1/3\"")


def loads_json(text: str) -> Any:
    try:
        return json.loads(text, parse_float=_refuse_float,
                          parse_int=_int_literal,
                          parse_constant=_refuse_float)
    except json.JSONDecodeError as e:
        raise SerializationError(
            f"JSON parse error at line {e.lineno}, column {e.colno}: "
            f"{e.msg}") from None


def load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads_json(fh.read())
    except OSError as e:
        raise SerializationError(f"cannot read {path}: {e}") from None


def rational_text(p: int, den: int) -> str:
    """str(Fraction(p, den)) for den > 0, with no `Fraction` made."""
    if den == 1:
        return str(p)
    g = gcd(p, den)
    if g == den:
        return str(p // g)
    return f"{p // g}/{den // g}"


def row_texts(row: Iterable[tuple[int, int]], den: int,
              width: int) -> list[str]:
    """The dense strings of the sparse int row ((k, p), ...) over den."""
    out = ["0"] * width
    for k, p in row:
        out[k] = rational_text(p, den)
    return out


def matrix_to_rows(m: Matrix) -> list[list[str]]:
    return [row_texts(r, m.den, m.ncols) for r in m.rows]


def matrix_from_rows(rows: Any, what: str) -> Matrix:
    if (not isinstance(rows, list)
            or not all(isinstance(r, list) for r in rows)
            or len({len(r) for r in rows}) > 1):
        raise SerializationError(f"{what} must be a list of equal-length rows")
    try:
        return Matrix.from_rows(rows)
    except (TypeError, ValueError):
        # report the first refused entry in `_num`'s words
        for row in rows:
            for x in row:
                _num(x)
        raise


def algebra_to_dict(g: LieAlgebra) -> dict:
    den, rows = g.bracket.den, g.bracket.rows
    brackets = []
    for i, j in g.pairs():
        brackets.append({
            "i": i, "j": j,
            "coeffs": {str(k): rational_text(p, den)
                       for k, p in rows[(i, j)]},
        })
    return {"name": g.name, "dim": g.dim, "basis": list(g.basis_names),
            "brackets": brackets}


def _field(d: dict, key: str) -> Any:
    if key not in d:
        raise SerializationError(f"missing field {key!r}")
    return d[key]


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def algebra_from_dict(d: dict) -> LieAlgebra:
    if not isinstance(d, dict):
        raise SerializationError("algebra payload must be an object")
    name = _field(d, "name")
    dim = _field(d, "dim")
    basis = _field(d, "basis")
    if not _is_int(dim):
        raise SerializationError("dim must be an integer")
    if not isinstance(basis, list) or not all(isinstance(x, str) for x in basis):
        raise SerializationError("basis must be a list of names")
    brackets = _field(d, "brackets")
    if not isinstance(brackets, list):
        raise SerializationError("brackets must be a list")
    table: dict[tuple[int, int], dict[int, Any]] = {}
    seen = []  # each entry's coeffs object, once the entry's shape passed
    try:
        for ent in brackets:
            if not isinstance(ent, dict):
                raise SerializationError("each bracket must be an object")
            i, j = _field(ent, "i"), _field(ent, "j")
            if not _is_int(i) or not _is_int(j):
                raise SerializationError("bracket indices must be integers")
            raw = _field(ent, "coeffs")
            if not isinstance(raw, dict):
                raise SerializationError("bracket coeffs must be an object")
            seen.append(raw)
            coeffs = {_index_key(k): v for k, v in raw.items()}
            key = (i, j)
            if key in table:
                raise SerializationError(f"duplicate bracket entry ({i}, {j})")
            table[key] = coeffs
        return validate(name, dim, basis, table)
    except (LiesympError, TypeError, ValueError):
        # a refused coefficient the checks above met is reported first,
        # in `_num`'s words, each read after its key in file order
        for raw in seen:
            for k, v in raw.items():
                _index_key(k)
                _num(v)
        raise


def triple_to_dict(t: SymplecticTriple) -> dict:
    d = algebra_to_dict(t.algebra)
    d["omega"] = matrix_to_rows(t.omega)
    d["J"] = matrix_to_rows(t.j)
    return d


def triple_from_dict(d: dict) -> SymplecticTriple:
    g = algebra_from_dict(d)
    omega = matrix_from_rows(_field(d, "omega"), "omega")
    j = matrix_from_rows(_field(d, "J"), "J")
    return build_triple(g, omega, j)


def is_triple_payload(d: Any) -> bool:
    return isinstance(d, dict) and "omega" in d


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pretty_json(obj: Any) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), for the types above."""
    return _json_text(obj, "\n")


def _json_text(x: Any, nl: str) -> str:
    """x as JSON, nl the newline and indent of the line it starts on; a
    str item or value is quoted in place, without a recursive call."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = nl + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        items = [encode_basestring_ascii(v) if type(v) is str
                 else _json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = []
        for k in sorted(x):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            v = x[k]
            items.append(encode_basestring_ascii(k) + ": " + (
                encode_basestring_ascii(v) if type(v) is str
                else _json_text(v, inner)))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"cannot write {type(x).__name__} as JSON")


def triple_hash(t: SymplecticTriple) -> str:
    return hashlib.sha256(
        canonical_json(triple_to_dict(t)).encode("utf-8")).hexdigest()
