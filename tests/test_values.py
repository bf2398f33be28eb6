"""The value classes: equality, hashing, immutability, keywords, pickling and copying."""
import copy
import pickle
import sys

import pytest

from arcdiag import (
    Arc,
    ArcSet,
    CheckResult,
    CountTable,
    Diagram,
    DiagramClass,
    InversionSet,
    Permutation,
    VerifyReport,
    all_permutations,
    arc_offsets,
    diagram_from_permutation,
    enumerate_diagrams,
    make_arc,
    named_congruence,
    parse_diagram,
)
from arcdiag.arcs import _grown, side_string

CHECK = CheckResult("catalan", 3, 5, 5, True)

# (instance, its field names) for every value class
VALUES = [
    (Permutation((2, 5, 3, 1, 4)), ("entries",)),
    (InversionSet(3, frozenset({(3, 1), (2, 1)})), ("n", "pairs")),
    (make_arc(9, 4, 8, {6}), ("n", "a", "b", "mask")),
    (ArcSet(4, frozenset({make_arc(4, 1, 4, {2}), make_arc(4, 2, 3)})), ("n", "_keys")),
    (DiagramClass(True, False), ("is_matching", "is_perfect_matching")),
    (CountTable(3, (1, 4, 1)), ("n", "counts")),
    (CHECK, ("name", "n", "expected", "observed", "passed")),
    (VerifyReport(3, (CHECK,)), ("n_max", "results")),
]
IDS = [type(value).__name__ for value, _ in VALUES]
# an ArcSet stores its arcs as keys but is built from the arcs themselves
ARGUMENTS = {ArcSet: ("n", "arcs")}


def fields_of(value, names):
    return tuple(getattr(value, name) for name in names)


def arguments_of(value, names):
    """The constructor's argument names and values: the fields, unless `ARGUMENTS` names others."""
    names = ARGUMENTS.get(type(value), names)
    return names, fields_of(value, names)


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_equal_and_hashed_as_the_field_tuple(value, names):
    fields = fields_of(value, names)
    twin = type(value)(*arguments_of(value, names)[1])
    assert twin == value and twin is not value
    assert hash(value) == hash(fields)
    # a plain tuple of the same fields is not the value
    assert value != fields and fields != value


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_equality_defers_to_other_classes(value, names):
    class Lookalike:  # the same fields on another class
        pass

    other = Lookalike()
    other.__dict__.update(zip(names, fields_of(value, names)))
    assert value.__eq__(other) is NotImplemented and value.__eq__(fields_of(value, names)) is NotImplemented
    assert value != other


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_built_from_keywords(value, names):
    assert type(value)(**dict(zip(*arguments_of(value, names)))) == value


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(value, names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(value, names):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)
        assert repr(copied) == repr(value)


def _drawn(arcset):
    try:
        return arc_offsets(arcset)
    except ValueError as exc:
        return str(exc)


def test_round_trips_after_the_caches_fill():
    # an ArcSet caches `subarc_closed`, its `arcs` view and its forcing masks; a copy is equal and answers the same
    for arcs, closed in [(ArcSet(4, frozenset({make_arc(4, 1, 4, {2}), make_arc(4, 2, 3)})), False),
                         (ArcSet(4, frozenset({make_arc(4, 1, 3, {2}), make_arc(4, 1, 4, {2, 3})})), False),
                         (parse_diagram("n=8\n1-3:R;2-5:LL;3-7:LRL"), False),
                         (named_congruence(5, "tamari"), True)]:
        fresh = ArcSet(arcs.n, arcs.arcs)
        assert arcs.subarc_closed is closed and arcs.arcs and arcs._forcing
        drawn = _drawn(arcs)
        for copied in (pickle.loads(pickle.dumps(arcs)), copy.deepcopy(arcs), copy.copy(arcs), fresh):
            assert set(copied.__dict__) == {"n", "_keys"}  # a copy starts with every cache empty
            assert copied == arcs and hash(copied) == hash(arcs) and copied.subarc_closed is closed
            assert copied.arcs == arcs.arcs
            assert str(copied) == str(arcs) and copied.sorted_arcs() == arcs.sorted_arcs()
            assert _drawn(copied) == drawn


def test_sizes_past_sys_maxsize_are_refused():
    # the inverse and the renders list the points, and no list is longer than sys.maxsize
    for n in (sys.maxsize + 1, 10**30):
        with pytest.raises(ValueError, match=f"n must be at most {sys.maxsize}, got {n}$"):
            ArcSet(n, ())
        with pytest.raises(ValueError, match=f"n must be at most {sys.maxsize}, got {n}$"):
            Diagram(n, frozenset())
    with pytest.raises(ValueError, match=r"got 10000000000000000000\.\.\.0000000000$"):
        ArcSet(10**60, ())
    assert ArcSet(sys.maxsize, ()).n == sys.maxsize
    assert ArcSet._trusted(sys.maxsize + 1, frozenset()).n == sys.maxsize + 1  # keys known to fit are not checked


def test_arc_repr_spells_its_sides():
    alpha = Arc(9, 4, 8, 2)
    assert side_string(alpha) == "LRL"
    assert alpha == Arc(9, 4, 8, 2) and hash(alpha) == hash((9, 4, 8, 2))
    assert repr(alpha) == "Arc(9, '4-8:LRL')"


def test_named_hash_contracts():
    e = (2, 5, 3, 1, 4)
    assert hash(Permutation(e)) == hash((e,))
    assert Permutation(entries=[2, 5, 3, 1, 4]).entries == e
    assert hash(Arc(9, 4, 8, 2)) == hash((9, 4, 8, 2))
    table = CountTable(n=3, counts=(1, 4, 1))
    assert table.total == 6


def test_record_reprs_name_their_fields():
    assert repr(CountTable(3, (1, 4, 1))) == "CountTable(n=3, counts=(1, 4, 1))"
    assert repr(InversionSet(2, frozenset({(2, 1)}))) == "InversionSet(n=2, pairs=frozenset({(2, 1)}))"
    assert repr(CHECK) == "CheckResult(name='catalan', n=3, expected=5, observed=5, passed=True)"


def test_inversion_pairs_are_checked():
    with pytest.raises(ValueError, match=r"bad inversion pair \(1, 2\) for n=2"):
        InversionSet(n=2, pairs={(1, 2)})


def test_sets_built_from_keys_match_the_public_constructor():
    # the grower, the forward map and the listing build their sets from keys, without arcs
    built = [
        _grown(5, lambda key: True)[0],
        _grown(5, lambda key: key[1] - key[0] < 3)[0],
        named_congruence(6, "tamari"),
        *(diagram_from_permutation(x) for x in all_permutations(5)),
        *enumerate_diagrams(5),
    ]
    for arcset in built:
        public = ArcSet(arcset.n, frozenset(arcset.arcs))
        assert arcset == public and public == arcset and hash(arcset) == hash(public)
        assert str(arcset) == str(public) and arcset.sorted_arcs() == public.sorted_arcs()
        for copied in (pickle.loads(pickle.dumps(arcset)), copy.deepcopy(arcset), copy.copy(arcset)):
            assert type(copied) is ArcSet
            assert copied == public and hash(copied) == hash(public) and repr(copied) == repr(public)
            assert copied.arcs == public.arcs and copied.subarc_closed == public.subarc_closed
    assert len({*built}) == len({ArcSet(s.n, s.arcs) for s in built})
