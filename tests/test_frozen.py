"""Value semantics of the slotted Frozen classes: the value types, whose
constructors normalise, and the records, which Frozen builds by position or
by name."""

import pytest

from k3lat import root_systems
from k3lat.exact_arith import IntMatrix
from k3lat.frozen import Frozen
from k3lat.lattice_core import DualVector, Lattice, class_of, lattice_D4
from k3lat.configuration import L_LABELS
from k3lat.ns_glue import (
    Summand,
    build_lambda,
    build_overlattice,
    halfline_class,
)
from k3lat.root_systems import bounded_class_minimizers
from rational_oracles import enumerate_roots


def _twice(build):
    a, b = build(), build()
    assert a is not b
    return a, b


def _values():
    gram = [[-2, 1], [1, -2]]
    yield _twice(lambda: IntMatrix(gram))
    yield _twice(lambda: Lattice(IntMatrix(gram)))
    # the same vector over two different denominators before reduction
    lat = Lattice(IntMatrix(gram))
    yield DualVector(lat, [2, -4], 6), DualVector(Lattice(IntMatrix(gram)), [1, -2], 3)


@pytest.mark.parametrize(
    "pair", list(_values()), ids=["IntMatrix", "Lattice", "DualVector"]
)
def test_values_built_twice_compare_and_hash_equal(pair):
    a, b = pair
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert repr(a) == repr(b)


def test_caches_take_no_part_in_equality():
    gram = IntMatrix([[-2, 1], [1, -2]])
    a, b = Lattice(gram), Lattice(gram)
    a.inertia(), a.dual_basis_vector(0)
    assert a == b and hash(a) == hash(b)
    u, v = DualVector(a, [1, 1]), DualVector(b, [1, 1])
    u.pairing_numerators()
    assert u == v and hash(u) == hash(v)
    assert DualVector(a, [1, 0]) != u
    assert Lattice(IntMatrix([[-2, 0], [0, -2]])) != a  # the Gram is the one field


def test_a_matrix_keeps_its_hash_outside_its_fields():
    # IntMatrix keeps the hash of its entries in the _hash slot, first use on
    gram = [[-2, 1], [1, -2]]
    a, b = IntMatrix(gram), IntMatrix(gram)
    assert getattr(a, "_hash", None) is None
    assert hash(a) == hash(b) == hash(a) == hash((a.entries,))
    assert a._hash == hash(a) and a == b
    # a cached hash takes no part in equality, repr or the fields
    assert getattr(b, "_hash") == a._hash and a._key() == (a.entries,)
    assert repr(a) == "IntMatrix(entries=((-2, 1), (1, -2)))"
    assert IntMatrix([[-2, 0], [0, -2]]) != a
    # nor do records built on it: equal lattices hash equal whichever was hashed first
    first, second = Lattice(a), Lattice(IntMatrix(gram))
    assert hash(first) == hash(second) and first == second
    assert len({first, second, Lattice(b)}) == 1
    with pytest.raises(AttributeError):
        a._hash = 0


def test_values_of_other_types_or_plain_tuples_are_not_equal():
    m = IntMatrix([[1, 2]])
    assert m != ((1, 2),)

    class Entries(Frozen):  # another slotted type with the same field and value
        __slots__ = ("entries",)

    assert m != Entries(((1, 2),))
    lat = Lattice(IntMatrix([[-2]]))
    assert DualVector(lat, [1]) != (lat, (1,), 1)


def test_records_built_by_position_or_by_name_are_equal():
    d4 = lattice_D4()
    by_position = Summand("P(00)", d4, 1)
    builds = [
        Summand(name="P(00)", lattice=d4, offset=1),
        Summand(offset=1, lattice=d4, name="P(00)"),
        Summand("P(00)", d4, offset=1),
    ]
    for record in builds:
        assert record == by_position and hash(record) == hash(by_position)
        assert repr(record) == f"Summand(name='P(00)', lattice={d4!r}, offset=1)"
        assert record.rank == 4
    assert Summand("P(00)", d4, offset=2) != by_position


def test_a_record_leaves_its_cache_for_first_use():
    d4 = lattice_D4()
    v = d4.dual_basis_vector(0)
    rebuilt = DualVector(*v._key())
    for record in (v, rebuilt):
        assert getattr(record, "_gnum", None) is None
    gnum = v.pairing_numerators()
    assert v._gnum == gnum == d4.gram.mul_vec(v.num)
    # the cache is not a field: equality, hashing and the constructor ignore it
    assert v._key() == (d4, v.num, v.den)
    assert rebuilt == v and hash(rebuilt) == hash(v)
    assert getattr(rebuilt, "_gnum", None) is None
    assert rebuilt.pairing_numerators() == gnum
    with pytest.raises(TypeError):
        DualVector(*v._key(), v._gnum)


@pytest.mark.parametrize(
    "args, named, message",
    [
        (("P(00)", lattice_D4()), {"ofset": 1}, "missing field 'offset'"),
        (("P(00)", lattice_D4(), 1), {"ofset": 1}, r"unexpected or repeated fields \['ofset'\]"),
        (("P(00)", lattice_D4(), 1), {"name": "P(01)"}, r"unexpected or repeated fields \['name'\]"),
        (("P(00)",), {"offset": 1}, "missing field 'lattice'"),
        (("P(00)", lattice_D4(), 1, 4), {}, "takes 3 fields, not 4"),
    ],
    ids=["unknown-and-missing", "unknown", "repeated", "missing", "too-many"],
)
def test_records_reject_an_unknown_missing_or_repeated_field(args, named, message):
    with pytest.raises(TypeError, match=message):
        Summand(*args, **named)


def test_fields_cannot_be_assigned_or_deleted():
    gram = IntMatrix([[-2, 1], [1, -2]])
    lat = Lattice(gram)
    values = [
        (gram, "entries"),
        (lat, "gram"),
        (lat, "_det"),
        (DualVector(lat, [1, 0]), "num"),
        (DualVector(lat, [1, 0]), "_gnum"),
    ]
    for value, name in values:
        before = getattr(value, name, None)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.undeclared = 1
        assert getattr(value, name, None) == before
    record = Summand("P(00)", lat, 1)
    with pytest.raises(AttributeError):
        record.offset = 0
    assert record.offset == 1
    # the memoized class search is a tuple of tuples: a caller cannot change it
    found = bounded_class_minimizers(lat, class_of(lat.zero()), -5)
    with pytest.raises(TypeError):
        found[0] = (0, ())
    assert [norm2 for norm2, _ in found[:2]] == [0, -4]


def test_records_whose_tuple_behaviour_would_leak_are_not_tuples():
    ls = build_lambda()
    ns = build_overlattice(ls, tuple(halfline_class(ls, lam) for lam in L_LABELS))
    assert not isinstance(ns, tuple)
    assert ns.index == 32
    roots = enumerate_roots(lattice_D4())
    assert not isinstance(roots, tuple)
    assert len(roots) == 24
    cls = class_of(lattice_D4().zero())
    assert not isinstance(cls, tuple)
    # Frozen's equality: a rebuilt lattice, and the integral center dual vector
    same = class_of(Lattice(lattice_D4().gram).dual_basis_vector(2))
    assert cls == same and hash(cls) == hash(same)


def test_rebuilt_lattice_hits_the_class_search_memo(monkeypatch):
    scans = []
    real = root_systems.short_vectors

    def counting(gram, bound, coset):
        scans.append(gram.entries)
        return real(gram, bound, coset)

    monkeypatch.setattr(root_systems, "short_vectors", counting)
    root_systems._class_search.cache_clear()
    root_systems.coset_points.cache_clear()
    first, second = Lattice(lattice_D4().gram), Lattice(lattice_D4().gram)
    a = bounded_class_minimizers(first, class_of(first.zero()), -5)
    b = bounded_class_minimizers(second, class_of(second.zero()), -5)
    assert a is b
    assert len(scans) == 1
