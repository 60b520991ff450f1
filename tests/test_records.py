"""The contract of the library's records: the series layer's
``KBesselParams``, ``SeriesConfig`` and ``EvalResult``, the sweeps'
``QuadConfig``, ``IntegralRepParams``, ``GridSpec`` and ``VerifyReport``,
and the quadrature's private cache keys.  Each has what a frozen dataclass
would give it, without importing ``dataclasses``.  The parameter records,
``VerifyReport`` and the integrand keys are tuples of their fields;
``EvalResult`` and the level key ``_Level`` are not tuples."""

import copy
import math
import pickle
import re

import pytest

from kbessel import (EvalResult, GridSpec, IntegralRepParams, KBesselError,
                     KBesselParams, QuadConfig, SeriesConfig, VerifyReport,
                     default_grid, eval_w, integral)
from kbessel.kbessel import _Record, _series

GRID = {"k_values": (1.0,), "nu_values": (0.5,), "c_values": (1.0,),
        "alpha_values": (1.0,), "x_values": (1.0, 2.0), "a_values": (0.25,),
        "cvx_weights": (0.0, 1.0)}

# each record: an instance, its repr, its fields as keywords
RECORDS = [
    (KBesselParams(1.0, 0.5, 1.0), "KBesselParams(k=1.0, nu=0.5, c=1.0)",
     {"k": 1.0, "nu": 0.5, "c": 1.0}),
    (SeriesConfig(), "SeriesConfig(rel_tol=1e-14, max_terms=500)",
     {"rel_tol": 1e-14, "max_terms": 500}),
    (EvalResult(1.0, 1, 0.0), "EvalResult(value=1.0, terms_used=1, est_error=0.0)",
     {"value": 1.0, "terms_used": 1, "est_error": 0.0}),
    (QuadConfig(), "QuadConfig(nodes=128, abs_tol=1e-12, max_refinements=8)",
     {"nodes": 128, "abs_tol": 1e-12, "max_refinements": 8}),
    (IntegralRepParams(1.0, 0.5, 2.0, 3.0),
     "IntegralRepParams(k=1.0, nu=0.5, alpha=2.0, x=3.0)",
     {"k": 1.0, "nu": 0.5, "alpha": 2.0, "x": 3.0}),
    (GridSpec(**GRID), "GridSpec(k_values=(1.0,), nu_values=(0.5,), "
     "c_values=(1.0,), alpha_values=(1.0,), x_values=(1.0, 2.0), "
     "a_values=(0.25,), cvx_weights=(0.0, 1.0))", GRID),
]
# a valid record of each class that differs from the one above in one field
OTHERS = [KBesselParams(1.0, 0.5, -1.0), SeriesConfig(1e-14, 499),
          EvalResult(1.0, 2, 0.0), QuadConfig(abs_tol=1e-13),
          IntegralRepParams(1.0, 0.5, 2.0, 4.0),
          GridSpec(**{**GRID, "x_values": (1.0,)})]
IDS = ["KBesselParams", "SeriesConfig", "EvalResult", "QuadConfig",
       "IntegralRepParams", "GridSpec"]


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
    (QuadConfig(), {"nodes": 1}, "nodes must be an integer >= 2"),
    (QuadConfig(), {"max_refinements": 14},
     re.escape("nodes * 2**max_refinements must be at most 2**20")),
    (IntegralRepParams(1.0, 0.5, 2.0, 3.0), {"alpha": 0.0},
     "alpha must be positive"),
    (GridSpec(**GRID), {"x_values": (1.0, -2.0)}, "x_values must be positive"),
], ids=IDS[:2] + ["QuadConfig", "QuadConfig-last-level", "IntegralRepParams",
                  "GridSpec"])
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


def test_quad_config_defaults_and_keywords():
    assert QuadConfig() == QuadConfig(128, 1e-12, 8)
    assert QuadConfig(max_refinements=2) == QuadConfig(128, 1e-12, 2)
    assert QuadConfig(nodes=64, abs_tol=1e-9) == QuadConfig(64, 1e-9, 8)


def test_grid_spec_replace_keeps_the_other_fields_and_drops_repeats():
    spec = default_grid()._replace(k_values=[2, 2.0, 1])
    assert spec.k_values == (2.0, 1.0)
    assert spec.nu_values == default_grid().nu_values
    assert GridSpec._fields == tuple(GRID)
    assert vars(GridSpec(**GRID)) == GRID


REPORT = VerifyReport("ode", {"k": 1.0}, -0.5, True)
REPORT_TEXT = ("VerifyReport(check_name='ode', grid_point={'k': 1.0}, "
               "margin=-0.5, passed=True, skipped=False, notes='')")
REPORT_FIELDS = {"check_name": "ode", "grid_point": {"k": 1.0},
                 "margin": -0.5, "passed": True, "skipped": False,
                 "notes": ""}


def test_verify_report_repr_construction_and_defaults():
    assert repr(REPORT) == str(REPORT) == REPORT_TEXT
    assert VerifyReport(**REPORT_FIELDS) == REPORT
    assert VerifyReport(*REPORT_FIELDS.values()) == REPORT
    assert [getattr(REPORT, name) for name in REPORT_FIELDS] == list(
        REPORT_FIELDS.values())
    assert VerifyReport.__match_args__ == tuple(REPORT_FIELDS)
    assert isinstance(REPORT, tuple) and VerifyReport.__slots__ == ()
    with pytest.raises(TypeError):
        VerifyReport("ode", {"k": 1.0}, -0.5)  # passed has no default


def test_verify_report_equal_by_fields_and_unhashable_as_its_point_is():
    assert VerifyReport(**REPORT_FIELDS) == REPORT
    for name, value in (("margin", -0.25), ("notes", "x"), ("skipped", True),
                        ("grid_point", {"k": 2.0})):
        other = VerifyReport(**{**REPORT_FIELDS, name: value})
        assert other != REPORT and not other == REPORT
    assert REPORT == tuple(REPORT_FIELDS.values())
    # a tuple hashes its fields, as a frozen dataclass does: a dict refuses
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(REPORT)


@pytest.mark.parametrize("name", ["margin", "unknown"])
def test_verify_report_refuses_assignment_and_del(name):
    with pytest.raises(AttributeError):
        setattr(REPORT, name, 2.0)
    with pytest.raises(AttributeError):
        delattr(REPORT, name)
    assert repr(REPORT) == REPORT_TEXT


def test_verify_report_copy_and_pickle_round_trip():
    for twin in (copy.copy(REPORT), copy.deepcopy(REPORT),
                 pickle.loads(pickle.dumps(REPORT))):
        assert type(twin) is VerifyReport and twin == REPORT


def test_integrands_are_tuples_and_the_level_the_only_private_record():
    for integrand in (integral._TrigIntegrand, integral._KernelIntegrand):
        assert issubclass(integrand, tuple) and integrand.__slots__ == ()
    assert set(_Record.__subclasses__()) == {EvalResult, integral._Level}


def test_levels_compare_by_extra_and_n_and_share_a_node_transform():
    nodes = integral.legendre_nodes(128)
    copied = tuple(list(part) for part in nodes)  # equal, not the same
    first, second = integral._Level(0, 128, nodes), integral._Level(0, 128, copied)
    assert first == second and hash(first) == hash((0, 128))
    assert repr(first) == "_Level(extra=0, n=128)"
    assert first != integral._Level(1, 128, nodes)
    assert first != (0, 128)
    integral._node_transform.cache_clear()
    got = integral._node_transform(1.0, first)
    assert integral._node_transform(1.0, second) is got
    info = integral._node_transform.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    with pytest.raises(AttributeError):
        first.n = 256


def test_integrands_of_one_level_keep_apart_entries():
    omega = 2.0
    cos = integral._TrigIntegrand(math.cos, omega)
    cosh = integral._TrigIntegrand(math.cosh, omega)
    kernel = integral._KernelIntegrand(omega, 1.0)
    assert cos == integral._TrigIntegrand(math.cos, omega)
    assert repr(cos) == "_TrigIntegrand(fn=<built-in function cos>, omega=2.0)"
    assert len({cos, cosh, kernel}) == 3
    level = integral._Level(0, 128, integral.legendre_nodes(128))
    ts, _ = integral._node_transform(1.0, level)
    integral._level_values.cache_clear()
    values = [integral._level_values(h, level) for h in (cos, cosh, kernel)]
    info = integral._level_values.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 3, 3)
    assert values == [h.values(ts) for h in (cos, cosh, kernel)]
    assert values[0] != values[1] != values[2]
