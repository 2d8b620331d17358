"""`record.Record`, the base of liesymp's value classes: value equality
within one class, a field-tuple hash, no assignment, `cached_property`
on the instance, positional and keyword construction. And the import of
the CLI, which must not load `dataclasses` or `inspect`."""

import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import liesymp
from liesymp import Matrix, Tensor3
from liesymp.record import Record


class Pair(Record):
    left: int
    right: tuple

    @cached_property
    def total(self):
        Pair.computed += 1
        return self.left + sum(self.right)


Pair.computed = 0


class Other(Record):
    left: int
    right: tuple


def test_equal_fields_make_equal_records_with_equal_hashes():
    a, b = Pair(1, (2, 3)), Pair(1, (2, 3))
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash((1, (2, 3)))
    assert a != Pair(1, (2, 4))
    assert len({a, b, Pair(0, ())}) == 2


def test_another_class_with_equal_fields_is_not_equal():
    assert Pair(1, (2,)) != Other(1, (2,))
    assert Other(1, (2,)) != Pair(1, (2,))
    assert Pair(1, (2,)) != (1, (2,))


def test_fields_cannot_be_assigned_or_deleted():
    a = Pair(1, ())
    with pytest.raises(AttributeError):
        a.left = 2
    with pytest.raises(AttributeError):
        a.extra = 2
    with pytest.raises(AttributeError):
        del a.left
    assert a.left == 1


def test_cached_property_is_computed_once():
    a = Pair(1, (2, 3))
    before = Pair.computed
    assert a.total == a.total == 6
    assert Pair.computed == before + 1


def test_positional_and_keyword_construction_agree():
    a = Pair(1, (2,))
    assert Pair(left=1, right=(2,)) == a
    assert Pair(right=(2,), left=1) == a
    assert Pair(1, right=(2,)) == a
    assert Pair._fields == ("left", "right")
    assert repr(a) == "Pair(left=1, right=(2,))"


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),
    ((1,), {}),
    ((1, 2, 3), {}),
    ((1,), {"left": 1}),
    ((1,), {"rigth": 2}),
    ((1, 2), {"right": 2}),
    ((), {"right": 2}),
])
def test_wrong_fields_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)


def test_matrix_and_tensor_keep_their_own_init_and_hash():
    m = Matrix(1, (((0, 1),),), 1)
    assert (m.den, m.rows, m.ncols) == (1, (((0, 1),),), 1)
    assert m == Matrix.identity(1) and hash(m) == hash(Matrix.identity(1))
    with pytest.raises(TypeError):
        Matrix(1, ())
    with pytest.raises(AttributeError):
        m.den = 2
    t = Tensor3(2, 1, {(0, 1): ((0, 1),)})
    assert t == Tensor3(2, 1, {(0, 1): ((0, 1),)})
    assert hash(t) == hash(Tensor3(2, 1, {(0, 1): ((0, 1),)}))
    assert t != Tensor3(2, 1, {})


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # counts the modules the import adds, in a fresh interpreter; times
    # nothing
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; before = set(sys.modules); import liesymp.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=env).stdout.split()
    assert "liesymp.cli" in out
    assert "dataclasses" not in out and "inspect" not in out


def test_each_value_class_stores_only_what_it_cannot_derive():
    # a triple's metric is omega J, a subspace's ambient dimension its
    # basis width and an algebra's dimension its number of basis names:
    # each is a property, so no constructor can make it disagree
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    fields = {cls.__name__: cls._fields for cls in subclasses(Record)
              if cls.__module__.startswith(liesymp.__name__ + ".")}
    assert fields == {
        "Matrix": ("den", "rows", "ncols"),
        "Subspace": ("basis",),
        "Tensor3": ("dim", "den", "rows"),
        "LieAlgebra": ("name", "basis_names", "bracket"),
        "SymplecticTriple": ("algebra", "omega", "j"),
        "DistributionReport": ("integrable", "norm_sq", "image",
                               "image_involutive", "perp",
                               "perp_involutive", "kernel"),
        "CurvatureSummary": ("ricci", "scalar", "ricci_j_invariant",
                             "chern_ricci", "hermitian_scalar"),
        "ParallelismReport": ("nabla_n_zero", "image_parallel",
                              "perp_parallel"),
        "ReductivePair": ("algebra", "h_dim", "phi"),
        "GoldenRow": ("name", "claim", "expected", "actual"),
    }
