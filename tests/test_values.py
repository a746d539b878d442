"""Value semantics of the result and record classes.

Each of the nine classes is an immutable value: equal and hashed by its
fields in order, printed as ``Name(field=value, ...)``, closed to
assignment and deletion, built by position or by keyword, and round-tripped
by pickle and copy.
"""

import copy
import pickle

import pytest

from wavelab import (
    Classification,
    Coloring,
    ColoringResult,
    DensityResult,
    ExtractionTrace,
    IntSet,
    Permutation,
    Record,
    WaveWitness,
    classify,
    extract_wave_main,
)

PI = Permutation((2, 1))
SET = IntSet((1, 2, 3, 5), 8)
COLORING = Coloring((1, 1, 1, 2, 2, 2, 1, 2), 2)
WITNESS = WaveWitness(PI, (1, 3, 4), "strict")
_TRACE = extract_wave_main(IntSet(tuple(range(1, 31)), 30), PI)[1]

# (class, field names in order, one value per field)
CASES = [
    (Permutation, ("values",), ((2, 1),)),
    (IntSet, ("elements", "universe"), ((1, 2, 3, 5), 8)),
    (WaveWitness, ("pattern", "points", "mode"), (PI, (1, 3, 4), "strict")),
    (Coloring, ("assignment", "palette"), ((1, 1, 1, 2, 2, 2, 1, 2), 2)),
    (DensityResult, ("pattern", "n", "mode", "value", "witness", "status", "nodes"),
     (PI, 8, "strict", 4, SET, "exact", 25)),
    (ColoringResult, ("pattern", "r", "mode", "value", "extremal", "status", "nodes"),
     (PI, 2, "strict", 9, COLORING, "exact", 124)),
    (Classification, ("pattern", "peaks", "layered", "layers", "nonfinal_big_layers",
                      "exponent_lb", "exponent_ub"),
     (PI, (), True, ((1, 1, 1), (2, 2, 1)), 0, 1, 1)),
    (Record, ("kind", "pattern", "parameter", "mode", "value", "status", "witness"),
     ("g", PI, 8, "strict", 4, "exact", SET)),
    (ExtractionTrace, ("variant", "reflected", "universe", "bin_index", "bins", "thinned",
                       "residue_class", "residue_members", "inner_wave", "lifted",
                       "inserted", "final"),
     tuple(getattr(_TRACE, name) for name in (
         "variant", "reflected", "universe", "bin_index", "bins", "thinned",
         "residue_class", "residue_members", "inner_wave", "lifted", "inserted", "final"))),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, names, values", CASES, ids=IDS)
class TestEveryClass:
    def test_positional_and_keyword_construction_agree(self, cls, names, values):
        pos = cls(*values)
        kw = cls(**dict(zip(names, values)))
        assert pos == kw
        assert tuple(getattr(pos, name) for name in names) == values

    def test_equality_and_hash_by_fields(self, cls, names, values):
        a, b = cls(*values), cls(*values)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != values and a != object()

    def test_assignment_and_deletion_raise(self, cls, names, values):
        obj = cls(*values)
        with pytest.raises(AttributeError):
            setattr(obj, names[0], values[0])
        with pytest.raises(AttributeError):
            delattr(obj, names[0])
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert getattr(obj, names[0]) == values[0]

    def test_unknown_or_missing_field_raises(self, cls, names, values):
        with pytest.raises(TypeError):
            cls(*values, bogus=1)
        with pytest.raises(TypeError):
            cls(**dict(zip(names, values)), bogus=1)
        # the first field has no default in any class
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], values[1:])))
        with pytest.raises(TypeError):
            cls()

    def test_pickle_and_copy_round_trip(self, cls, names, values):
        obj = cls(*values)
        for back in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(back) is cls and back == obj and hash(back) == hash(obj)
            assert repr(back) == repr(obj)


def test_unequal_when_one_field_differs():
    assert IntSet((1, 2), 8) != IntSet((1, 2), 9)
    assert DensityResult(PI, 8, "strict", 4, SET, "exact", 25) != \
        DensityResult(PI, 8, "strict", 4, SET, "exact", 26)
    # equal fields in a different class are not equal
    assert IntSet((1, 2), 2) != Coloring((1, 2), 2)


def test_wave_witness_default_mode_is_strict():
    assert WaveWitness(PI, (1, 3, 4)).mode == "strict"
    assert WaveWitness(pattern=PI, points=[1, 3, 4]) == WITNESS


def test_density_result_repr():
    res = DensityResult(PI, 8, "strict", 4, SET, "exact", 25)
    assert repr(res) == (
        "DensityResult(pattern=Permutation(values=(2, 1)), n=8, mode='strict', value=4, "
        "witness=IntSet(elements=(1, 2, 3, 5), universe=8), status='exact', nodes=25)"
    )


def test_coloring_result_repr():
    res = ColoringResult(PI, 2, "strict", 9, COLORING, "exact", 124)
    assert repr(res) == (
        "ColoringResult(pattern=Permutation(values=(2, 1)), r=2, mode='strict', value=9, "
        "extremal=Coloring(assignment=(1, 1, 1, 2, 2, 2, 1, 2), palette=2), "
        "status='exact', nodes=124)"
    )


def test_classification_repr():
    assert repr(classify(Permutation((4, 3, 1, 2)))) == (
        "Classification(pattern=Permutation(values=(4, 3, 1, 2)), peaks=(), layered=True, "
        "layers=((1, 1, 1), (2, 2, 1), (3, 4, 2)), nonfinal_big_layers=0, exponent_lb=3, "
        "exponent_ub=3)"
    )


def test_sequence_fields_are_stored_as_tuples():
    assert Permutation([2, 1]).values == (2, 1)
    assert IntSet([1, 2], 2).elements == (1, 2)
    assert WaveWitness(PI, [1, 3, 4]).points == (1, 3, 4)
    assert Coloring([1, 2], 2).assignment == (1, 2)
