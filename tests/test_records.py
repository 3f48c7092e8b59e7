"""Every exported value and result class is a frozen record: its repr,
equality and hash are those ``dataclasses.dataclass(frozen=True)`` gives
the same fields, its fields cannot be assigned or deleted, it takes
keyword arguments and defaults, runs ``__post_init__`` and supports
``match`` and ``cached_property``."""

import dataclasses

import pytest

import lattact
from lattact import InputError, Lattice, Signature, Sublattice, Wall
from lattact import linalg as la
from lattact._record import FrozenInstanceError, fields
from lattact.lattice import _trusted

RECORDS = [
    cls
    for cls in (getattr(lattact, name) for name in lattact.__all__)
    if isinstance(cls, type) and "__match_args__" in vars(cls)
]


def _samples(cls, offset=0):
    # the generated methods never look at a field's type, so each field
    # gets a small distinct int (a few fields would refuse them in
    # __post_init__, which _trusted skips)
    return tuple(offset + i for i in range(len(fields(cls))))


def _reference(cls):
    """The dataclass ``dataclasses`` makes of the same fields."""
    ref = dataclasses.make_dataclass(cls.__name__, fields(cls), frozen=True)
    ref.__qualname__ = cls.__qualname__
    return ref


def test_every_exported_value_class_is_a_record():
    assert len(RECORDS) == 26
    for cls in RECORDS:
        assert fields(cls) == tuple(cls.__annotations__), cls


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestEveryRecord:
    def test_repr_and_hash_are_those_of_a_dataclass(self, cls):
        values = _samples(cls)
        obj, ref = _trusted(cls, *values), _reference(cls)(*values)
        assert repr(obj) == repr(ref)
        assert hash(obj) == hash(ref)

    def test_equal_records_have_equal_hashes(self, cls):
        a, b = _trusted(cls, *_samples(cls)), _trusted(cls, *_samples(cls))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != _trusted(cls, *_samples(cls, 1))

    def test_records_of_different_classes_never_compare_equal(self, cls):
        values = _samples(cls)
        for other in RECORDS:
            if other is not cls and len(fields(other)) == len(values):
                assert _trusted(cls, *values) != _trusted(other, *values)
        assert _trusted(cls, *values) != _reference(cls)(*values)
        assert _trusted(cls, *values) != values

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        obj = _trusted(cls, *_samples(cls))
        for name in fields(cls):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(obj, name)
        with pytest.raises(FrozenInstanceError):
            obj.not_a_field = None
        assert _trusted(cls, *_samples(cls)) == obj

    def test_match_args_are_the_fields(self, cls):
        assert cls.__match_args__ == fields(cls)


def test_pinned_reprs():
    l = Lattice(((-2, 1), (1, -2)))
    assert repr(Signature(1, 2, 0)) == "Signature(plus=1, minus=2, null=0)"
    assert repr(l) == "Lattice(gram=((-2, 1), (1, -2)))"
    assert repr(Sublattice(l, ((2, 4),))) == (
        "Sublattice(ambient=Lattice(gram=((-2, 1), (1, -2))), basis=((2, 4),), index=None)"
    )
    hull = lattact.primitive_hull(l, Sublattice(l, ((2, 4),)))
    assert repr(hull) == (
        "Sublattice(ambient=Lattice(gram=((-2, 1), (1, -2))), basis=((1, 2),), index=2)"
    )
    assert repr(Wall((1, 0), (0,), (1,))) == "Wall(root=(1, 0), v_plus=(0,), v_minus=(1,), direction=None)"


def test_keyword_and_positional_construction_agree():
    assert Signature(plus=1, minus=2, null=0) == Signature(1, null=0, minus=2) == Signature(1, 2, 0)
    l = Lattice(gram=((2,),))
    assert l == Lattice(((2,),))
    assert Sublattice(l, ((3,),)).index is None
    assert Sublattice(l, ((3,),), index=3) == Sublattice(ambient=l, basis=((3,),), index=3)
    assert Wall((1,), (0,), (1,), direction=(2,)).direction == (2,)
    assert Wall((1,), (0,), (1,)).direction is None


@pytest.mark.parametrize(
    "args, kwargs",
    [((1, 2), {}), ((1, 2, 3, 4), {}), ((1, 2, 3), {"plus": 1}), ((1, 2), {"nul": 0}), ((), {})],
    ids=["missing", "too-many", "twice", "unknown", "none"],
)
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError, match="Signature"):
        Signature(*args, **kwargs)


def test_post_init_checks_and_canonicalizes():
    with pytest.raises(InputError, match="symmetric"):
        Lattice(((0, 1), (2, 0)))
    with pytest.raises(InputError, match="symmetric"):
        Lattice(gram=((0, 1), (2, 0)))
    action = lattact.fixture("d3_S").action
    with pytest.raises(InputError, match="origin"):
        lattact.Fixture("f", action, {"a": 1}, {"b": "claimed"})
    # lists in, frozen HNF tuples out
    s = Sublattice(Lattice([[2, 0], [0, 2]]), [[2, 2], [0, 1]])
    assert s.basis == ((2, 0), (0, 1)) and s.ambient.gram == ((2, 0), (0, 2))


def test_match_binds_fields_by_position():
    match Signature(3, 19, 0):
        case Signature(plus, minus, null):
            assert (plus, minus, null) == (3, 19, 0)
        case _:
            pytest.fail("Signature did not match its own class pattern")


def test_cached_property_is_computed_once(monkeypatch):
    calls = []
    original = la._jacobi_elimination

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(la, "_jacobi_elimination", counting)
    l = Lattice(((-2, 1), (1, -2)))
    assert l.det() == l.det() == 3
    assert lattact.signature(l) == Signature(0, 2, 0)
    assert len(calls) == 1
    # the cached value lives in the instance dict, outside the fields
    assert "_jacobi" in vars(l) and l == Lattice(((-2, 1), (1, -2)))
