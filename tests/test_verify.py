"""Tests for the grid-driven certification module.

Margin conventions are exercised at their structural boundary cases (where
exact floating-point zeros are guaranteed), inequality margins are compared
against independently derived high-precision values frozen below, and the
grid runner's determinism / skip / failure-isolation contracts are checked
directly.
"""

import json
import math
import random

import pytest
from click.testing import CliRunner

from kbessel import integral, kbessel, verify
from kbessel import (
    CHECK_NAMES,
    GridSpec,
    InvalidParameter,
    KBesselParams,
    NonConvergence,
    Overflow,
    QuadratureFailure,
    SeriesConfig,
    VerifyReport,
    check_chebyshev_products,
    check_coefficient_facts,
    check_integral_agreement,
    check_multisection,
    check_nu_decreasing_logconvex,
    check_ode,
    check_order_ratio_monotone,
    check_ratio_x_monotone,
    check_recurrences,
    check_sin_relation,
    check_sinh_relation,
    check_turan,
    default_grid,
    eval_w,
    run_grid,
)
from kbessel.cli import main
from kbessel.errors import OutsideDomain
from kbessel.integral import IntegralRepParams, eval_w_bessel_kernel, eval_w_cos

try:
    import numpy
except ImportError:  # a test extra; the cases that need it are skipped
    numpy = None

# Frozen from an independent high-precision route (40-digit arithmetic,
# normalized values built from the classical modified Bessel function as
# Gamma(nu+1) (2/x)^nu I_nu(x) at k = 1).
TURAN_MARGIN_K1_NU1_A05_X1 = 0.01937782384272694
ORDER_RATIO_MARGIN_K1_MU0_NU1_X1 = 0.09730469010880667


def small_grid(**overrides) -> GridSpec:
    base = dict(
        k_values=(1.0,),
        nu_values=(0.5,),
        c_values=(1.0,),
        alpha_values=(1.0,),
        x_values=(1.0,),
        a_values=(0.25,),
        cvx_weights=(0.5,),
    )
    base.update(overrides)
    return GridSpec(**base)


# ---------------------------------------------------------------------------
# differential equation


def test_ode_classical_oscillatory_point():
    report = check_ode(KBesselParams(1.0, 0.0, 1.0), 1.0)
    assert report.passed and not report.skipped
    assert -1e-12 <= report.margin <= 0.0


def test_ode_classical_modified_point():
    report = check_ode(KBesselParams(1.0, 1.0, -1.0), 2.0)
    assert report.passed
    assert report.margin >= -1e-12


def test_ode_constant_solution_residual_is_exactly_zero():
    report = check_ode(KBesselParams(2.0, 0.0, 0.0), 1.0)
    assert report.margin == 0.0
    assert report.passed


def test_ode_rejects_nonpositive_x():
    with pytest.raises(InvalidParameter):
        check_ode(KBesselParams(1.0, 0.5, 1.0), 0.0)


def test_ode_point_recorded_in_report():
    report = check_ode(KBesselParams(2.0, 1.5, -1.0), 0.7)
    assert report.grid_point == {"k": 2.0, "nu": 1.5, "c": -1.0, "x": 0.7}
    assert report.check_name == "ode"


# ---------------------------------------------------------------------------
# recurrence bundle


def test_recurrences_pass_at_classical_point():
    report = check_recurrences(KBesselParams(1.0, 1.0, 1.0), 1.0)
    assert report.passed
    assert -1.0 <= report.margin <= 0.0


@pytest.mark.parametrize("k,nu,c,x", [
    (0.5, 3.0, -1.0, 3.0),
    (2.0, 0.25, 2.0, 0.25),
    (1.5, 1.6, -2.0, 1.0),
])
def test_recurrences_pass_across_parameter_mix(k, nu, c, x):
    assert check_recurrences(KBesselParams(k, nu, c), x).passed


def test_recurrences_identity_count_without_lowered_order():
    report = check_recurrences(KBesselParams(1.0, -0.5, 1.0), 1.0)
    assert report.passed
    assert "2 identities" in report.notes


def test_recurrences_identity_count_full_ladder():
    report = check_recurrences(KBesselParams(1.0, 3.0, 1.0), 1.0)
    assert report.passed
    assert "8 identities" in report.notes


# ---------------------------------------------------------------------------
# multisection


def test_multisection_matches_lowered_order():
    report = check_multisection(KBesselParams(2.0, 1.5, 1.0), 0.5)
    assert report.passed
    assert report.margin >= -1e-10


def test_multisection_nonunit_k_and_c():
    report = check_multisection(KBesselParams(0.7, 0.9, -1.3), 0.8)
    assert report.passed


def test_multisection_skips_beyond_unit_interval():
    report = check_multisection(KBesselParams(1.0, 1.0, 1.0), 2.0)
    assert report.skipped
    assert report.margin is None
    assert "x <= 1" in report.notes


def test_multisection_requires_positive_order():
    with pytest.raises(InvalidParameter):
        check_multisection(KBesselParams(1.0, 0.0, 1.0), 0.5)


# ---------------------------------------------------------------------------
# monotonicity in x


def test_ratio_x_equal_orders_margin_exactly_zero():
    report = check_ratio_x_monotone(1.0, 0.7, 0.7, [0.5, 1.0, 2.0])
    assert report.margin == 0.0
    assert report.passed


def test_ratio_x_classical_pair_increases():
    xs = [0.1 + 4.9 * i / 24 for i in range(25)]
    report = check_ratio_x_monotone(1.0, 0.0, 1.0, xs)
    assert report.passed
    assert report.margin > 0.0


def test_ratio_x_negative_order_pair():
    xs = [0.1 + 4.9 * i / 24 for i in range(25)]
    report = check_ratio_x_monotone(2.0, -0.5, 1.5, xs)
    assert report.passed
    assert report.margin > 0.0


def test_ratio_x_rejects_bad_order_pair():
    with pytest.raises(InvalidParameter):
        check_ratio_x_monotone(1.0, 1.0, 0.0, [0.5, 1.0])


def test_ratio_x_rejects_non_increasing_grid():
    with pytest.raises(InvalidParameter):
        check_ratio_x_monotone(1.0, 0.0, 1.0, [1.0, 0.5])
    with pytest.raises(InvalidParameter):
        check_ratio_x_monotone(1.0, 0.0, 1.0, [1.0])


# ---------------------------------------------------------------------------
# cross-order product inequality


def test_order_ratio_equal_orders_margin_exactly_zero():
    report = check_order_ratio_monotone(2.0, 1.5, 1.5, 3.0)
    assert report.margin == 0.0
    assert report.passed


def test_order_ratio_classical_margin_matches_frozen_value():
    report = check_order_ratio_monotone(1.0, 0.0, 1.0, 1.0)
    assert report.passed
    assert report.margin == pytest.approx(
        ORDER_RATIO_MARGIN_K1_MU0_NU1_X1, rel=1e-12)


def test_order_ratio_fractional_k():
    report = check_order_ratio_monotone(0.5, -0.2, 2.0, 3.0)
    assert report.passed
    assert report.margin > 0.0


def test_order_ratio_rejects_bad_pair():
    with pytest.raises(InvalidParameter):
        check_order_ratio_monotone(1.0, -1.5, 1.0, 1.0)


# ---------------------------------------------------------------------------
# decrease and log-convexity in the order


def test_logconvex_endpoint_weights_margin_exactly_zero():
    for weight in (0.0, 1.0):
        report = check_nu_decreasing_logconvex(1.0, (0.0, 2.0), weight, 1.0)
        assert report.passed
        assert report.margin == 0.0


def test_logconvex_equal_orders_margin_negligible():
    report = check_nu_decreasing_logconvex(1.0, (0.7, 0.7), 0.5, 1.0)
    assert report.passed
    assert abs(report.margin) <= 1e-12


def test_logconvex_interior_point_passes_with_positive_margins():
    report = check_nu_decreasing_logconvex(1.0, (0.0, 2.0), 0.5, 1.0)
    assert report.passed
    assert report.margin > 0.0
    assert "decreasing margin" in report.notes
    assert "log-convexity margin" in report.notes


def test_logconvex_rejects_weight_outside_unit_interval():
    with pytest.raises(InvalidParameter):
        check_nu_decreasing_logconvex(1.0, (0.0, 2.0), 1.5, 1.0)


def test_logconvex_rejects_order_at_or_below_minus_k():
    with pytest.raises(InvalidParameter):
        check_nu_decreasing_logconvex(1.0, (-1.0, 2.0), 0.5, 1.0)


# ---------------------------------------------------------------------------
# product-vs-square inequality


def test_turan_zero_shift_margin_exactly_zero():
    report = check_turan(1.0, 1.0, 0.0, 1.0)
    assert report.margin == 0.0
    assert report.passed


def test_turan_classical_margin_matches_frozen_value():
    report = check_turan(1.0, 1.0, 0.5, 1.0)
    assert report.passed
    assert report.margin == pytest.approx(TURAN_MARGIN_K1_NU1_A05_X1,
                                          rel=1e-12)


def test_turan_large_k_point():
    report = check_turan(3.0, 2.0, 1.0, 4.0)
    assert report.passed
    assert report.margin > 0.0


def test_turan_rejects_order_below_shift_window():
    with pytest.raises(InvalidParameter):
        check_turan(1.0, -0.8, 0.5, 1.0)


# ---------------------------------------------------------------------------
# the level-value memo under check_chebyshev_products


@pytest.mark.parametrize("seed", [11, 12])
def test_chebyshev_reports_equal_reports_with_the_level_memo_cleared(seed):
    # nu/k = 1 and 2.5 put all four weight exponents at extra = 0; at
    # nu/k = 0.3 and a drawn nu/k they spread over other extras
    rng = random.Random(seed)
    points = [(k, beta * k, x, variant)
              for k in (1.0, round(rng.uniform(0.5, 2.0), 3))
              for beta in (1.0, 2.5, 0.3, round(rng.uniform(-0.45, 3.0), 3))
              for x in (round(rng.uniform(0.1, 1.0), 3),
                        round(rng.uniform(1.0, 6.0), 3))
              for variant in ("cos", "cosh")]
    integral._level_values.cache_clear()
    shared = [check_chebyshev_products(*point) for point in points]
    hits = integral._level_values.cache_info().hits
    cleared = []
    for point in points:
        integral._level_values.cache_clear()
        cleared.append(check_chebyshev_products(*point))
    assert hits > 0
    assert sum(not report.skipped for report in shared) >= len(points) // 2
    # repr tells -0.0 from 0.0 in margins and notes
    assert list(map(repr, shared)) == list(map(repr, cleared))


# ---------------------------------------------------------------------------
# product-of-integrals comparison


def test_chebyshev_boundary_order_margin_exactly_zero():
    assert check_chebyshev_products(1.0, 0.5, 1.0, "cos").margin == 0.0
    assert check_chebyshev_products(2.0, 1.0, 1.0, "cosh").margin == 0.0
    assert check_chebyshev_products(0.5, 0.25, 0.25, "cos").margin == 0.0


def test_chebyshev_with_an_infinite_weight_fails_at_the_first_level(
        monkeypatch):
    # cosh(inf t) makes the level sum NaN; node doubling would run on to
    # 32768 nodes before refusing
    levels = []
    nodes = integral.legendre_nodes

    def spy(n):
        levels.append(n)
        return nodes(n)

    monkeypatch.setattr(integral, "legendre_nodes", spy)
    with pytest.raises(QuadratureFailure, match="over 128 nodes"):
        check_chebyshev_products(1.0, 1.0, math.inf, "cosh")
    assert levels == [128]


def test_chebyshev_same_sense_regime_holds():
    report = check_chebyshev_products(1.0, 1.0, 1.0, "cosh")
    assert report.passed
    assert report.margin > 0.0
    assert report.notes.startswith("same-sense")


def test_chebyshev_reversed_regime_holds():
    report = check_chebyshev_products(1.0, 0.0, 1.0, "cos")
    assert report.passed
    assert report.margin > 0.0
    assert report.notes.startswith("opposite-sense")


def test_chebyshev_divergent_band_is_skipped():
    # one divergence rule: a direct call is refused, run_grid skips the point
    # with the refusal's reason
    with pytest.raises(OutsideDomain) as refusal:
        check_chebyshev_products(1.0, -0.6, 1.0, "cosh")
    assert refusal.value.reason == ("weighted integrals diverge for "
                                    "nu <= -k/2 (weight exponent <= -1)")
    reports = run_grid(small_grid(nu_values=(-0.6,)), ["chebyshev"])
    assert [r.grid_point for r in reports] == [
        {"k": 1.0, "nu": -0.6, "x": 1.0, "variant": v} for v in ("cos", "cosh")]
    for report in reports:
        assert report.skipped and report.margin is None
        assert report.notes == refusal.value.reason


def test_chebyshev_sign_changing_cosine_weight_is_skipped():
    report = check_chebyshev_products(1.0, 1.0, 3.0, "cos")
    assert report.skipped
    assert "changes sign" in report.notes
    # the hyperbolic weight stays positive, so the same point runs
    assert not check_chebyshev_products(1.0, 1.0, 3.0, "cosh").skipped


def test_chebyshev_probe_logged_not_asserted():
    report = check_chebyshev_products(1.0, 1.0, 1.0, "cosh")
    assert "closed form with argument x/sqrt(k)" in report.notes
    assert "closed form with argument x/k" in report.notes


def test_chebyshev_probe_out_of_range_is_noted_and_inequality_asserted():
    # sinh(x/k) = sinh(800) overflows; the integrals fit, their products
    # do not, so both sides are compared scaled by one power of two
    report = check_chebyshev_products(0.5, 1.0, 400.0, "cosh")
    assert report.passed and report.margin > 0.0
    assert "closed-form probes out of range: sinh" in report.notes
    assert "(both scaled by 2^-" in report.notes


def test_chebyshev_overflowing_products_keep_the_relative_test():
    # the probes fit at x/k = 400, the products of the integrals do not
    # (a NaN margin before); scaled, the larger side lies in [1, 8)
    report = check_chebyshev_products(1.0, 1.0, 400.0, "cosh")
    assert report.passed
    assert math.isfinite(report.margin)
    assert "closed form with argument x/k" in report.notes
    joint = float(report.notes.split("joint=")[1].split()[0])
    assert 1.0 <= joint < 8.0


def test_chebyshev_regime_partition_on_default_grid():
    reports = run_grid(default_grid(), ["chebyshev"])
    ran = [r for r in reports if not r.skipped]
    assert ran
    for report in ran:
        k = report.grid_point["k"]
        nu = report.grid_point["nu"]
        if nu >= 0.5 * k:
            assert report.notes.startswith("same-sense")
        else:
            assert report.notes.startswith("opposite-sense")
        assert report.passed


def test_chebyshev_rejects_bad_variant_and_range():
    with pytest.raises(InvalidParameter):
        check_chebyshev_products(1.0, 1.0, 1.0, "tan")
    with pytest.raises(InvalidParameter):
        check_chebyshev_products(1.0, -0.8, 1.0, "cos")


# ---------------------------------------------------------------------------
# coefficient-level facts


def test_coefficient_facts_pass_with_zero_worst_slack():
    report = check_coefficient_facts(1.0, 0.5, 2.3)
    # the r = 0 log-derivative terms vanish identically, so the worst
    # slack is exactly zero whenever the inequalities hold
    assert report.margin == 0.0
    assert report.passed


def test_coefficient_facts_equal_orders():
    report = check_coefficient_facts(2.0, 1.5, 1.5)
    assert report.passed


def test_coefficient_facts_fractional_k():
    assert check_coefficient_facts(0.5, -0.2, 3.0).passed


def test_coefficient_facts_rejects_bad_inputs():
    with pytest.raises(InvalidParameter):
        check_coefficient_facts(1.0, 2.0, 1.0)


# ---------------------------------------------------------------------------
# elementary-function relations


def test_sin_relation_scaled_identity_holds_everywhere():
    for k, alpha, x in [(1.0, 1.0, 1.0), (4.0, 2.0, 0.5), (0.5, 1.0, 1.0)]:
        report = check_sin_relation(k, alpha, x)
        assert report.passed, (k, alpha, x)
        assert "fitted constant multiplier" in report.notes


def test_sinh_relation_scaled_identity_holds_everywhere():
    for k, alpha, x in [(1.0, 1.0, 1.0), (2.0, 0.5, 2.0), (0.5, 1.0, 1.0)]:
        report = check_sinh_relation(k, alpha, x)
        assert report.passed, (k, alpha, x)


def test_sin_relation_stated_constant_only_closes_at_unit_k():
    at_one = check_sin_relation(1.0, 1.0, 1.0)
    assert "residual with the stated constant=" in at_one.notes
    # reported stated-constant residual is tiny at k = 1 ...
    stated = float(at_one.notes.split("stated constant=")[1].split(";")[0])
    assert abs(stated) < 1e-12
    # ... and order one at k = 4
    at_four = check_sin_relation(4.0, 2.0, 0.5)
    stated4 = float(at_four.notes.split("stated constant=")[1].split(";")[0])
    assert abs(stated4) > 1e-3


# ---------------------------------------------------------------------------
# series vs quadrature agreement


@pytest.mark.parametrize("check", [check_sin_relation, check_sinh_relation])
def test_relation_checks_raise_overflow_for_an_infinite_argument(check):
    # alpha x / sqrt(k) = 1e400; sin(inf) was a DomainError, sinh(inf) an
    # Overflow from the series
    with pytest.raises(Overflow, match=r"alpha x / sqrt\(k\) exceeds double"):
        check(1.0, 1e200, 1e200)


def test_integral_agreement_all_routes_at_interior_point():
    for route in ("cos", "cosh", "kernel"):
        report = check_integral_agreement(2.0, 1.0, 1.0, 1.0, route)
        assert report.passed, route
        assert report.margin <= 0.0


def test_integral_agreement_singular_weight_exponent():
    report = check_integral_agreement(1.0, -0.45, 1.0, 1.0, "cos")
    assert report.passed


def test_integral_agreement_skips_inadmissible_routes():
    kernel = check_integral_agreement(1.0, 0.0, 1.0, 1.0, "kernel")
    assert kernel.skipped and "nu > 0" in kernel.notes
    cos = check_integral_agreement(1.0, -0.5, 1.0, 1.0, "cos")
    assert cos.skipped and "nu/k > -1/2" in cos.notes


def test_integral_agreement_rejects_unknown_route():
    with pytest.raises(InvalidParameter):
        check_integral_agreement(1.0, 1.0, 1.0, 1.0, "laplace")


# Each case patches one name in verify so that exactly one of the report's
# two comparisons misses its own tolerance: (name, replacement, call, the
# smallest margin).
_ONE_COMPARISON_MISSES = {
    # the c = +1 leg is 2e-9 off against its tolerance 1e-9; the c = -1 leg
    # has the smaller margin, 5e-9 off, but is within its 1e-7
    "integral-agreement legs": (
        "route_legs",
        lambda *args: (None, [(1.0, 0.5 + 2e-9, 0.5),
                              (-1.0, 100.0 + 5e-9, 100.0)]),
        lambda: check_integral_agreement(1.0, 1.0, 1.0, 1.0, "kernel"),
        -5.000003966415534e-09),
    # the values decrease in the order (margin 1), but the midpoint value
    # lies 1e-9 above the geometric mean of the ends
    "log-convexity": (
        "_normalized",
        lambda k, order, x: {0.0: 2.0, 1.0: 1.0,
                             0.5: math.sqrt(2.0) + 1e-9}[order],
        lambda: check_nu_decreasing_logconvex(1.0, (0.0, 1.0), 0.5, 1.0),
        -1.000000082740371e-09),
    # log-convex (the midpoint value is 0, margin 1), but the larger
    # order's value is 1e-9 above the smaller order's
    "decrease": (
        "_normalized",
        lambda k, order, x: {0.0: 1.0, 1.0: 1.0 + 1e-9, 0.5: 0.0}[order],
        lambda: check_nu_decreasing_logconvex(1.0, (0.0, 1.0), 0.5, 1.0),
        -1.000000082740371e-09),
}


@pytest.mark.parametrize("case", list(_ONE_COMPARISON_MISSES))
def test_a_report_fails_where_any_one_comparison_misses_its_tolerance(
        monkeypatch, case):
    name, replacement, call, margin = _ONE_COMPARISON_MISSES[case]
    monkeypatch.setattr(verify, name, replacement)
    report = call()
    assert not report.passed
    assert report.margin == margin


# ---------------------------------------------------------------------------
# grid plumbing


def test_grid_spec_rejects_empty_and_invalid_lists():
    with pytest.raises(InvalidParameter):
        small_grid(k_values=())
    with pytest.raises(InvalidParameter):
        small_grid(k_values=(0.0,))
    with pytest.raises(InvalidParameter):
        small_grid(x_values=(-1.0,))
    with pytest.raises(InvalidParameter):
        small_grid(alpha_values=(0.0,))
    with pytest.raises(InvalidParameter):
        small_grid(cvx_weights=(1.2,))
    with pytest.raises(InvalidParameter):
        small_grid(nu_values=(math.nan,))


def test_grid_spec_coerces_values_to_float_tuples():
    spec = small_grid(k_values=[1, 2], nu_values=[0, 1])
    assert spec.k_values == (1.0, 2.0)
    assert isinstance(spec.k_values, tuple)


def test_run_grid_empty_check_list_is_empty():
    assert run_grid(small_grid(), []) == []


def test_run_grid_rejects_unknown_check_name():
    with pytest.raises(InvalidParameter):
        run_grid(small_grid(), ["turan", "nonsense"])
    # a bare str would be iterated as one-letter names
    with pytest.raises(InvalidParameter, match="^checks must be a list of "
                                               "check names, not 'ode'$"):
        run_grid(small_grid(), "ode")


def test_run_grid_is_the_sweep_collected():
    spec = small_grid(nu_values=(-0.6, 0.5, 2.0), x_values=(0.25, 1.0))
    names = ["turan", *CHECK_NAMES, "ode"]
    assert run_grid(spec, names) == list(verify._sweep(spec, names))


def test_sweep_runs_a_check_only_when_its_report_is_asked_for(check_calls):
    sweep = verify._sweep(small_grid(nu_values=(0.5, 1.0)), ["turan"])
    assert check_calls == []
    first = next(sweep)
    assert check_calls == ["check_turan"]
    assert first == check_turan(1.0, 0.5, 0.25, 1.0)


@pytest.mark.parametrize("checks", [["turan", "nonsense"], "turan"],
                         ids=["unknown-name", "bare-str"])
def test_sweep_refuses_names_before_any_check_runs(check_calls, checks):
    with pytest.raises(InvalidParameter):
        verify._sweep(small_grid(), checks)
    assert check_calls == []


def test_run_grid_collapses_duplicate_names():
    once = run_grid(small_grid(), ["turan"])
    twice = run_grid(small_grid(), ["turan", "turan"])
    assert once == twice


def test_run_grid_single_point_reproduces_direct_call():
    spec = small_grid(nu_values=(1.0,), a_values=(0.5,))
    reports = run_grid(spec, ["turan"])
    assert len(reports) == 1
    direct = check_turan(1.0, 1.0, 0.5, 1.0)
    assert reports[0] == direct


def test_run_grid_is_deterministic():
    spec = default_grid()
    first = run_grid(spec, ["ode", "turan"])
    second = run_grid(spec, ["ode", "turan"])
    assert first == second


def test_run_grid_orders_reports_lexicographically():
    spec = small_grid(k_values=(2.0, 0.5), nu_values=(1.0, 0.0),
                      x_values=(1.0, 0.25))
    reports = run_grid(spec, ["ode"])
    keys = [(r.grid_point["k"], r.grid_point["nu"], r.grid_point["x"])
            for r in reports]
    assert keys == sorted(keys)


def test_run_grid_converts_point_errors_to_failed_reports():
    # I_100(6.3e7) leaves the double range
    spec = small_grid(k_values=(0.1,), nu_values=(10.0,), c_values=(-1.0,),
                      x_values=(2e7,))
    reports = run_grid(spec, ["ode"])
    assert len(reports) == 1
    report = reports[0]
    assert not report.passed and not report.skipped
    assert report.margin is None
    assert report.notes.startswith("error: Overflow")


def test_run_grid_logs_skips_with_reasons():
    spec = small_grid(nu_values=(-2.0,))
    reports = run_grid(spec, ["ode"])
    assert len(reports) == 1
    assert reports[0].skipped
    assert "exceed -k" in reports[0].notes


# Each domain condition lives in the guard that needs it: the skip note of
# run_grid is the reason of the refusal a direct call gets at that point.
@pytest.mark.parametrize("name, overrides, refuse", [
    ("ode", {"nu_values": (-1.5,)},
     lambda: KBesselParams(1.0, -1.5, 1.0)),
    ("multisection", {"nu_values": (0.0,)},
     lambda: check_multisection(KBesselParams(1.0, 0.0, 1.0), 1.0)),
    ("ratio-x-monotone", {"nu_values": (-1.5,), "x_values": (0.5, 1.0)},
     lambda: check_ratio_x_monotone(1.0, -1.5, -1.5, [0.5, 1.0])),
    ("ratio-x-monotone", {},
     lambda: check_ratio_x_monotone(1.0, 0.5, 0.5, [1.0])),
    ("order-ratio-monotone", {"nu_values": (-1.5,)},
     lambda: check_order_ratio_monotone(1.0, -1.5, -1.5, 1.0)),
    ("coefficient-facts", {"nu_values": (-1.5,)},
     lambda: check_coefficient_facts(1.0, -1.5, -1.5)),
    ("nu-decreasing-logconvex", {"nu_values": (-1.5,)},
     lambda: check_nu_decreasing_logconvex(1.0, (-1.5, -1.5), 0.5, 1.0)),
    ("turan", {"nu_values": (0.0,), "a_values": (1.5,)},
     lambda: check_turan(1.0, 0.0, 1.5, 1.0)),
    ("chebyshev", {"nu_values": (-0.8,)},
     lambda: check_chebyshev_products(1.0, -0.8, 1.0, "cos")),
    ("chebyshev", {"nu_values": (-0.6,)},
     lambda: check_chebyshev_products(1.0, -0.6, 1.0, "cos")),
    ("integral-agreement", {"nu_values": (0.0,)},
     lambda: eval_w_bessel_kernel(IntegralRepParams(1.0, 0.0, 1.0, 1.0), 1.0)),
    ("integral-agreement", {"nu_values": (-0.6,)},
     lambda: eval_w_cos(IntegralRepParams(1.0, -0.6, 1.0, 1.0))),
], ids=["series-order", "multisection", "ratio-x-order", "ratio-x-one-point",
        "order-ratio", "coefficient-facts", "logconvex", "turan", "chebyshev",
        "chebyshev-divergent", "kernel-route", "cos-route"])
def test_skip_note_is_the_guard_refusal_reason(name, overrides, refuse):
    with pytest.raises(InvalidParameter) as refusal:
        refuse()
    reason = refusal.value.reason
    assert str(refusal.value).startswith(reason + ", got ")
    reports = run_grid(small_grid(**overrides), [name])
    assert reason in {r.notes for r in reports if r.skipped}
    assert all(r.passed for r in reports)


def test_grid_spec_drops_repeated_values():
    spec = small_grid(k_values=[2, 1, 2.0], x_values=[1, 1, 3])
    assert spec.k_values == (2.0, 1.0)
    assert spec.x_values == (1.0, 3.0)
    reports = run_grid(default_grid(), ["ratio-x-monotone", "ode"])
    repeated = GridSpec(**{field: values + values for field, values
                           in vars(default_grid()).items()})
    again = run_grid(repeated, ["ratio-x-monotone", "ode"])
    assert again == reports
    assert all(r.passed and not r.skipped for r in again
               if r.check_name == "ratio-x-monotone")


def test_run_grid_calls_checks_through_module_globals(monkeypatch):
    # The benchmark's tracer times each check by replacing it on the verify
    # module, so run_grid must look the checks up there on every call.
    names = [name for name in verify.__all__ if name.startswith("check_")]
    called = set()
    for name in names:
        def spy(*args, _name=name, _check=getattr(verify, name), **kwargs):
            called.add(_name)
            return _check(*args, **kwargs)
        monkeypatch.setattr(verify, name, spy)
    # one value per axis, but two x values: ratio-x-monotone skips a
    # one-point x grid
    run_grid(small_grid(x_values=(0.25, 1.0)), CHECK_NAMES)
    assert len(names) == 12
    assert called == set(names)


def test_default_grid_all_checks_have_no_failures():
    reports = run_grid(default_grid(), CHECK_NAMES)
    bad = [r for r in reports if not r.passed and not r.skipped]
    assert bad == []
    # every skip carries a reason
    assert all(r.notes for r in reports if r.skipped)


def test_check_names_registry_is_stable():
    assert CHECK_NAMES == (
        "ode", "recurrences", "multisection", "ratio-x-monotone",
        "order-ratio-monotone", "nu-decreasing-logconvex", "turan",
        "chebyshev", "coefficient-facts", "sin-relation", "sinh-relation",
        "integral-agreement",
    )


def test_verify_report_is_frozen():
    report = check_turan(1.0, 1.0, 0.5, 1.0)
    with pytest.raises(AttributeError):
        report.passed = False
    assert isinstance(report, VerifyReport)


# ---------------------------------------------------------------------------
# the series memo (kbessel._series) seen from a run_grid sweep


def _memo_grid(seed: int) -> GridSpec:
    """A small seeded grid whose orders repeat across checks (nu + k and
    nu - k land on grid orders at k = 0.5) and where nu = -0.0 from the
    grid meets nu = +0.0 from nu - k and nu - a."""
    rng = random.Random(seed)
    return GridSpec(
        k_values=(0.5, round(rng.uniform(0.6, 2.5), 3)),
        nu_values=(-0.0, 0.5, 1.0, round(rng.uniform(-0.4, 3.0), 3)),
        c_values=(-1.0, round(rng.uniform(0.1, 3.0), 3)),
        alpha_values=(round(rng.uniform(0.2, 2.0), 3),),
        x_values=(round(rng.uniform(0.1, 1.0), 3),
                  round(rng.uniform(1.0, 4.0), 3)),
        a_values=(0.5, round(rng.uniform(0.1, 1.0), 3)),
        cvx_weights=(0.0, 0.5, round(rng.random(), 3)),
    )


def _spy_series(monkeypatch, target) -> list:
    """Route kbessel's series calls through a spy that records their
    arguments and calls ``target``."""
    calls = []

    def spy(*args):
        calls.append(args)
        return target(*args)

    monkeypatch.setattr(kbessel, "_series", spy)
    return calls


@pytest.mark.parametrize("seed", [11, 12])
def test_sweep_memo_reports_equal_direct_checks(monkeypatch, seed):
    spec = _memo_grid(seed)
    memo = kbessel._series
    memo.cache_clear()
    calls = _spy_series(monkeypatch, memo)
    swept = run_grid(spec, CHECK_NAMES)
    hits = memo.cache_info().hits
    # the same checks with every series sum run afresh, past the memo
    _spy_series(monkeypatch, memo.__wrapped__)
    direct = [report for name in CHECK_NAMES
              for report in verify._expand(name, spec)]
    assert memo.cache_info().hits == hits
    # repr tells -0.0 from 0.0 in margins and notes
    assert len(swept) == len(direct)
    differing = [(a, b) for a, b in zip(map(repr, swept), map(repr, direct))
                 if a != b]
    assert differing[:1] == []
    assert 0 < hits < len(calls)
    assert any(args[4] == 0.0 and math.copysign(1.0, args[4]) < 0.0
               for args in calls)
    assert any(args[4] == 0.0 and math.copysign(1.0, args[4]) > 0.0
               for args in calls)


def test_sweep_memo_does_not_store_a_call_that_raises(monkeypatch):
    memo = kbessel._series
    outcomes = []

    def repeat(p, x):
        memo.cache_clear()
        # capped at 5 terms, J0 at x = 10 does not converge
        for _ in range(2):
            try:
                eval_w(KBesselParams(1.0, 0.0, 1.0), 10.0,
                       SeriesConfig(max_terms=5))
            except NonConvergence:
                outcomes.append("raised")
        outcomes.append(memo.cache_info())
        for _ in range(2):
            outcomes.append(eval_w(KBesselParams(1.0, 0.0, 1.0), 10.0).value)
        outcomes.append(memo.cache_info())
        return check_ode(p, x)

    monkeypatch.setattr(verify, "check_ode", repeat)
    run_grid(small_grid(), ["ode"])
    raised, capped, first, second, uncapped = (
        outcomes[:2], outcomes[2], outcomes[3], outcomes[4], outcomes[5])
    assert raised == ["raised", "raised"]
    # both capped calls ran the sum and left no entry; the second uncapped
    # one was a hit
    assert (capped.hits, capped.misses, capped.currsize) == (0, 2, 0)
    assert first == second
    assert (uncapped.hits, uncapped.misses, uncapped.currsize) == (1, 3, 1)


def test_overflowing_alpha_squared_fails_every_route_with_overflow(tmp_path):
    # the kernel route reported this point as a DomainError of its kernel
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "k_values": [1], "nu_values": [1], "alpha_values": [1e200],
        "x_values": [1e-200]}), encoding="utf-8")
    result = CliRunner().invoke(
        main, ["verify", "--checks", "integral-agreement", "--grid", str(grid)])
    assert result.exit_code == 4
    records = [json.loads(line) for line in result.stdout.splitlines()]
    assert [r["grid_point"]["route"] for r in records] == [
        "cos", "cosh", "kernel"]
    for record in records:
        assert not record["passed"] and not record["skipped"]
        assert record["notes"].startswith(
            "error: Overflow: c = +-alpha^2 exceeds double range")


def test_relation_note_where_both_sides_vanish():
    # sin(1e-30) and its right side are below 1e-13, so no multiplier is
    # fitted
    report = check_sin_relation(1.0, 1.0, 1e-30)
    assert report.passed
    assert "fitted constant multiplier=indeterminate (both sides vanish)" in (
        report.notes)


def test_coefficient_facts_take_each_log_gamma_once(monkeypatch):
    # 2 orders times r = 0..31, where the ratio route would take each
    # inner ln Gamma_k twice (124 calls)
    calls = []
    ln_k_gamma = verify.ln_k_gamma

    def counting(t, k):
        calls.append(t)
        return ln_k_gamma(t, k)

    monkeypatch.setattr(verify, "ln_k_gamma", counting)
    report = check_coefficient_facts(1.0, 0.5, 1.5)
    assert report.passed
    assert len(calls) == 64


@pytest.mark.parametrize("x", [1e-160, 1e-30])
def test_chebyshev_notes_where_x_over_k_underflows(x):
    # x/k = 0.0: the x/k probe read nan (sqrt(k)/x overflows at 1e-160) or
    # a value from sin(0.0); the inequality is unaffected
    report = check_chebyshev_products(1e300, 0.5, x, "cos")
    assert report.passed
    assert report.margin == 0.2337005501361693
    assert "nan" not in report.notes
    assert ("closed form with argument x/k not evaluable: x/k underflows "
            "to 0.0") in report.notes
    assert "|vs closed form with argument x/sqrt(k)|=" in report.notes


def test_chebyshev_notes_where_sqrt_k_over_x_overflows():
    # x/k = 1e-314 is nonzero, but sqrt(k)/x = 1e309 is past the double
    # range, so the x/k probe is not evaluable; the inequality holds
    report = check_chebyshev_products(1e10, 1.0, 1e-304, "cos")
    assert report.passed
    assert report.margin == 0.2337005500402285
    assert report.notes.endswith(
        "closed form with argument x/k not evaluable: (sqrt(k)/x) sin(x/k) "
        "exceeds double range at x/k = 1e-314")


@pytest.mark.parametrize("values", [
    5, ("a",), (True,), ("2",), "12", (None,), (math.inf,), (math.nan,),
    b"12", ([1.0],), (10 ** 400,),
    pytest.param(numpy.array(2.0) if numpy else None, marks=pytest.mark.skipif(
        numpy is None, reason="needs numpy")),
], ids=["scalar", "str-value", "bool", "numeric-str", "str-field", "none",
        "inf", "nan", "bytes-field", "container", "int-past-double-range",
        "0-d-array"])
def test_grid_spec_refuses_what_is_not_an_array_of_numbers(values):
    with pytest.raises(InvalidParameter, match="^grid field 'k_values' must "
                                               "be an array of numbers$"):
        small_grid(k_values=values)


def test_grid_spec_takes_any_iterable_of_real_numbers():
    np = pytest.importorskip("numpy")
    for values in ([2, 1.0], (2.0, 1), (v for v in (2, 1)),
                   np.array([2, 1]), np.array([2.0, 1.0])):
        spec = small_grid(k_values=values)
        assert spec.k_values == (2.0, 1.0)
        assert all(type(v) is float for v in spec.k_values)

