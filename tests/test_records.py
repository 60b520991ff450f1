"""The contract of the series layer's three records, ``KBesselParams``,
``SeriesConfig`` and ``EvalResult``: what a frozen dataclass would give
them, without importing ``dataclasses``.  The two parameter records are
tuples of their fields; ``EvalResult`` is not a tuple."""

import copy
import pickle

import pytest

from kbessel import (EvalResult, KBesselError, KBesselParams, SeriesConfig,
                     eval_w)
from kbessel.kbessel import _series

# each record: an instance, its repr, its fields as keywords
RECORDS = [
    (KBesselParams(1.0, 0.5, 1.0), "KBesselParams(k=1.0, nu=0.5, c=1.0)",
     {"k": 1.0, "nu": 0.5, "c": 1.0}),
    (SeriesConfig(), "SeriesConfig(rel_tol=1e-14, max_terms=500)",
     {"rel_tol": 1e-14, "max_terms": 500}),
    (EvalResult(1.0, 1, 0.0), "EvalResult(value=1.0, terms_used=1, est_error=0.0)",
     {"value": 1.0, "terms_used": 1, "est_error": 0.0}),
]
# a valid record of each class that differs from the one above in one field
OTHERS = [KBesselParams(1.0, 0.5, -1.0), SeriesConfig(1e-14, 499),
          EvalResult(1.0, 2, 0.0)]
IDS = ["KBesselParams", "SeriesConfig", "EvalResult"]


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_repr_names_each_field(record, text, fields):
    assert repr(record) == text
    assert str(record) == text


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_keyword_construction_gives_the_same_record(record, text, fields):
    cls = type(record)
    assert cls(**fields) == record
    assert cls(*fields.values()) == record
    assert [getattr(record, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_equal_and_hashed_by_fields(record, text, fields):
    cls = type(record)
    values = tuple(fields.values())
    twin = cls(*values)
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(values)
    assert len({record, twin}) == 1
    other = OTHERS[IDS.index(cls.__name__)]
    assert other != record and not other == record
    # a parameter record is the tuple of its fields; EvalResult is not
    assert (record == values) is isinstance(record, tuple)


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
@pytest.mark.parametrize("name", ["first", "new"])
def test_assignment_and_del_raise_attribute_error(record, text, fields, name):
    attr = next(iter(fields)) if name == "first" else "unknown"
    with pytest.raises(AttributeError):
        setattr(record, attr, 2.0)
    with pytest.raises(AttributeError):
        delattr(record, attr)
    assert repr(record) == text


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trip(record, text, fields):
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record and repr(twin) == text


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_match_args_name_the_fields_in_order(record, text, fields):
    assert type(record).__match_args__ == tuple(fields)


def test_a_positional_pattern_binds_an_eval_result():
    match EvalResult(1.0, 1, 0.0):
        case EvalResult(value, terms, error):
            assert (value, terms, error) == (1.0, 1, 0.0)
        case _:
            pytest.fail("EvalResult(value, terms, error) did not match")


def test_eval_result_is_not_a_tuple():
    # perfbench's tracer tells (EvalResult, d1, d2) from a bare result so
    assert not isinstance(EvalResult(1.0, 1, 0.0), tuple)


@pytest.mark.parametrize("record, change, error", [
    (KBesselParams(1.0, 0.5, 1.0), {"nu": -2.0}, "nu must exceed -k"),
    (SeriesConfig(), {"max_terms": 0}, "max_terms must be in"),
], ids=IDS[:2])
def test_replace_and_make_check_the_fields(record, change, error):
    with pytest.raises(KBesselError, match=error):
        record._replace(**change)
    with pytest.raises(KBesselError, match=error):
        type(record)._make({**record._asdict(), **change}.values())


def test_series_config_defaults():
    assert SeriesConfig() == SeriesConfig(1e-14, 500)
    assert SeriesConfig(max_terms=40) == SeriesConfig(1e-14, 40)


def test_an_equal_series_config_hits_the_series_memo():
    p = KBesselParams(1.0, 0.3125, 1.0)
    x = 1.8671875
    first = eval_w(p, x, SeriesConfig(1e-14, 500))
    hits = _series.cache_info().hits
    second = eval_w(p, x, SeriesConfig(rel_tol=1e-14, max_terms=500))
    assert _series.cache_info().hits == hits + 1
    assert second is first
