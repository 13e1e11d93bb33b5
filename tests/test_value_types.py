"""The value types are NamedTuples: field order, repr, hash, immutability and
validation, in the constructor and in ``_replace`` alike."""

from fractions import Fraction

import pytest

from powersum_forge.cubic import BinaryQuadraticForm, CubicQuadruple, FormQuadruple, sandor_generate
from powersum_forge.quadratic import PythagoreanQuadruple, SquareFormQuadruple
from powersum_forge.relations import ComboQuadruple, FMode, PolyIdentity, QMode
from powersum_forge.search import SearchConfig, SearchStats, SolutionRecord

SEED = CubicQuadruple(1, 6, 8, 9)
CONFIG = SearchConfig(seeds=(SEED,), u_range=(0, 1), v_range=(0, 1))

FIELDS = {
    BinaryQuadraticForm: ("alpha", "beta", "gamma"),
    CubicQuadruple: ("a", "b", "c", "d"),
    FormQuadruple: ("q1", "q2", "q3", "q4", "seed"),
    PythagoreanQuadruple: ("a", "b", "c", "d"),
    SquareFormQuadruple: ("q1", "q2", "q3", "q4", "seed"),
    QMode: ("k", "m"),
    FMode: ("k",),
    ComboQuadruple: ("combos", "common_factor", "forms", "mode"),
    PolyIdentity: ("polys", "scale"),
    SolutionRecord: ("seed", "uv", "raw", "reduced", "content", "ratio", "taxicab"),
    SearchConfig: ("seeds", "u_range", "v_range", "modes", "dedupe", "output", "force"),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_keep_their_names_and_order(cls):
    assert cls._fields == FIELDS[cls]


@pytest.mark.parametrize(
    "value",
    [SEED, QMode(1, 2), FMode(3), CONFIG, sandor_generate(SEED)],
    ids=lambda v: type(v).__name__,
)
def test_immutable_and_hashable(value):
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        setattr(value, type(value)._fields[0], 0)
    assert hash(value) == hash(type(value)(*value))


def test_repr_names_the_class_and_fields():
    assert repr(SEED) == "CubicQuadruple(a=1, b=6, c=8, d=9)"
    assert repr(QMode(1, 2)) == "QMode(k=1, m=2)"
    assert repr(SearchStats()) == "SearchStats(evaluated=0, degenerate=0, duplicates=0, emitted=0)"


@pytest.mark.parametrize(
    "value, change",
    [
        (SEED, {"d": 10}),
        (PythagoreanQuadruple(1, 2, 2, 3), {"a": 0}),
        (QMode(1, 2), {"m": 0}),
        (FMode(3), {"k": 0}),
        (CONFIG, {"u_range": (1, 0)}),
        (CONFIG, {"output": 5}),
    ],
    ids=lambda x: type(x).__name__ if not isinstance(x, dict) else str(x),
)
def test_replace_validates_like_the_constructor(value, change):
    with pytest.raises(ValueError):
        value._replace(**change)
    with pytest.raises(ValueError):
        type(value)(**{**value._asdict(), **change})


def test_replace_keeps_the_class():
    assert CONFIG._replace(force=True) == SearchConfig((SEED,), (0, 1), (0, 1), force=True)
    assert type(CONFIG._replace(force=True)) is SearchConfig


def test_search_stats_is_a_mutable_record():
    stats = SearchStats()
    stats.emitted += 2
    assert stats == SearchStats(emitted=2)
    assert stats != SearchStats()
    with pytest.raises(TypeError):
        hash(stats)
    with pytest.raises(AttributeError):
        stats.extra = 1


def test_solution_record_compares_as_a_tuple():
    record = SolutionRecord(SEED, (1, 0), (1, 6, 8, 9), (1, 6, 8, 9), 1, Fraction(3, 1), None)
    assert record == tuple(record)
    assert record.seed is SEED
