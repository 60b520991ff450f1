"""The range rule of ``kbessel.errors``: no routine returns an infinite or
NaN float.

Each public routine either returns finite floats (value, est_error, W' and
W'') or raises a ``KBesselError``.  The property test draws arguments
log-uniform far out of the usual range; the regression tests pin the
points where a value used to leak.
"""

import functools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from kbessel import (
    DomainError,
    EvalResult,
    KBesselError,
    KBesselParams,
    Overflow,
    deriv_w,
    eval_normalized_i,
    eval_normalized_j,
    eval_w,
    eval_w_with_derivatives,
    k_beta,
    k_digamma,
    k_gamma,
    k_pochhammer,
    k_trigamma,
    ln_k_gamma,
    multisection_lhs,
    recurrence_step_up,
)
from kbessel import classical, cli, errors, integral, kbessel, kgamma, verify
from kbessel.classical import digamma, ln_gamma, trigamma

_GUARDS = ("_MIN_NORMAL", "_MAX_EXP_ARG", "_exp_guarded", "_finite", "_normal")


def _floats(out) -> list[float]:
    """Every float a routine hands back."""
    if isinstance(out, EvalResult):
        return [out.value, out.est_error]
    if isinstance(out, tuple):
        return [v for part in out for v in _floats(part)]
    return [out]


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(
        lambda pair: -pair[0] if pair[1] else pair[0])


_WIDE = _log_uniform(1e-300, 1e300)
_SERIES = _log_uniform(1e-6, 1e6)


@st.composite
def _params(draw, positive_nu: bool = False) -> KBesselParams:
    k = draw(_SERIES)
    b = draw(_SERIES if positive_nu
             else st.one_of(st.floats(-0.99, 0.0), _SERIES))
    return KBesselParams(k, b * k, draw(_signed(_SERIES)))


def _call(fn, *args):
    return st.builds(functools.partial, st.just(fn), *args)


_CALLS = st.one_of(
    _call(ln_gamma, _WIDE),
    _call(digamma, _WIDE),
    _call(trigamma, _WIDE),
    _call(ln_k_gamma, _WIDE, _WIDE),
    _call(k_gamma, _signed(_WIDE), _WIDE),
    _call(k_digamma, _WIDE, _WIDE),
    _call(k_trigamma, _WIDE, _WIDE),
    _call(k_beta, _WIDE, _WIDE, _WIDE),
    _call(k_pochhammer, _signed(_WIDE), st.integers(0, 40), _WIDE),
    _call(recurrence_step_up, _params(positive_nu=True), _SERIES,
          _signed(_WIDE), _signed(_WIDE)),
    _call(deriv_w, _params(), _SERIES, st.integers(1, 3)),
    _call(multisection_lhs, _params(), _SERIES, st.integers(1, 4)),
    _call(eval_w, _params(), _SERIES),
    _call(eval_w_with_derivatives, _params(), _SERIES),
    _call(eval_normalized_i, _params(), _signed(_SERIES)),
    _call(eval_normalized_j, _params(), _signed(_SERIES)),
)


@given(call=_CALLS)
@settings(max_examples=4000, deadline=None, derandomize=True)
def test_every_float_returned_is_finite_or_the_call_raises(call):
    # the gamma family over t, k in [1e-300, 1e300] and the series layer
    # over k, |c|, x in [1e-6, 1e6], log-uniform; quadrature routes are left
    # out for their cost
    try:
        out = call()
    except KBesselError:
        return
    assert all(math.isfinite(v) for v in _floats(out)), (call, out)


def test_range_guards_are_defined_once_in_errors():
    for module in (classical, cli, integral, kbessel, kgamma, verify):
        for name in _GUARDS:
            if hasattr(module, name):
                assert getattr(module, name) is getattr(errors, name), (
                    module.__name__, name)


@pytest.mark.parametrize("name", ["_finite", "_normal"])
def test_guards_refuse_nan_and_infinities(name):
    guard = getattr(errors, name)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(Overflow, match=r"^w = \d exceeds$"):
            guard(value, "w = {} exceeds", 3)
    assert guard(-2.5, "{} {}") == -2.5  # formatted only when raising


def test_normal_guard_refuses_subnormals_and_zero():
    for value in (0.0, -5e-324, 2.0 ** -1023):
        with pytest.raises(Overflow):
            errors._normal(value, "subnormal")
    assert errors._normal(-errors._MIN_NORMAL, "") == -errors._MIN_NORMAL


def test_exp_guard_refuses_a_nan_logarithm():
    with pytest.raises(Overflow, match=r"^B_k\(1, 2\) exceeds double range "
                                       r"\(log magnitude nan\)$"):
        errors._exp_guarded(math.nan, "B_k({}, {})", 1, 2)
    assert errors._exp_guarded(0.0, "{}") == 1.0


def test_exp_guard_message_bounds_the_digits_of_its_log_magnitude():
    # five significant digits from 1e4 up; one decimal below, as before
    for ln_value, what, text in [(1e300, "exceeds", "1e+300"),
                                 (-6.9e302, "underflows", "-6.9e+302"),
                                 (805.3, "exceeds", "805.3"),
                                 (-805.3, "underflows", "-805.3"),
                                 (710.0, "exceeds", "710.0")]:
        with pytest.raises(Overflow) as info:
            errors._exp_guarded(ln_value, "W")
        message = str(info.value)
        assert message.startswith(f"W {what}")
        assert message.endswith(f"(log magnitude {text})")


def test_ln_k_gamma_refuses_opposite_infinities():
    # (t/k - 1) ln k -> -inf and ln Gamma(t/k) -> +inf summed to nan;
    # mpmath gives ln Gamma_k(e, 1e-307) = -1.4456e291
    with pytest.raises(Overflow, match="exceeds double range"):
        ln_k_gamma(math.e, 1e-307)


@pytest.mark.parametrize("call", [
    lambda: k_gamma(math.e, 1e-307),
    lambda: k_beta(math.e, math.e, 1e-307),
], ids=["k_gamma", "k_beta"])
def test_gamma_and_beta_refuse_a_nan_logarithm(call):
    with pytest.raises(Overflow, match="exceeds double range"):
        call()


@pytest.mark.parametrize("call", [
    lambda: ln_gamma(1e307),
    lambda: ln_k_gamma(1e307, 1.0),
], ids=["ln_gamma", "ln_k_gamma"])
def test_log_gamma_past_the_double_range_raises(call):
    with pytest.raises(Overflow, match=r"ln_gamma\(1e\+307\) exceeds double "
                                       r"range"):
        call()


def test_ln_k_gamma_with_t_over_k_past_the_double_range_raises_overflow():
    # a valid input whose t/k overflows: Overflow, not ln_gamma's DomainError
    with pytest.raises(Overflow, match="t/k exceeds double range"):
        ln_k_gamma(3.0, 1e-308)
    with pytest.raises(DomainError, match="finite x > 0, got inf"):
        ln_k_gamma(math.inf, 1.0)  # an infinite t stays a domain error


def test_series_leading_term_with_a_nan_logarithm_raises_at_once():
    # the leading term was NaN and 500 NaN terms later the series blamed
    # the double-double range
    with pytest.raises(Overflow, match=r"ln_gamma\(.*\) exceeds double range"):
        eval_w(KBesselParams(1e-307, math.e - 1e-307, 1.0), 1.0)


@pytest.mark.parametrize("call", [
    lambda: trigamma(1e-300),  # x^2 underflowed to 0: ZeroDivisionError
    lambda: trigamma(1e-160),  # x^2 subnormal, 1/x^2 inf
    lambda: digamma(5e-324),  # 1/x inf, returned -inf
], ids=["trigamma-zero-square", "trigamma-subnormal-square", "digamma"])
def test_classical_polygamma_near_the_pole_raises_overflow(call):
    with pytest.raises(Overflow, match="exceeds double range"):
        call()


def test_trigamma_splits_off_the_pole_below_the_normal_square():
    # psi'(x) = 1/x^2 + psi'(1 + x) where x^2 is subnormal: 1/x squared
    # keeps the bits that the subnormal x^2 loses
    x = 2.0 ** -511.5
    assert trigamma(x) == (1.0 / x) * (1.0 / x)


def test_recurrence_step_up_past_the_double_range_raises_overflow():
    with pytest.raises(Overflow, match="exceeds double range"):
        recurrence_step_up(KBesselParams(1.0, 1.0, 1e-300), 1.0, 1e10, 0.0)


@pytest.mark.parametrize("w_nu, w_nu_minus_k", [
    (math.nan, 0.0), (math.inf, 0.0), (1.0, -math.inf), (1.0, math.nan),
])
def test_recurrence_step_up_refuses_non_finite_w(w_nu, w_nu_minus_k):
    with pytest.raises(DomainError, match="finite W values"):
        recurrence_step_up(KBesselParams(1.0, 1.0, 1.0), 1.0, w_nu,
                           w_nu_minus_k)


@pytest.mark.parametrize("args", [
    ["--fn", "lngamma", "--t", "1e307", "--k", "1"],
    ["--fn", "gamma", "--t", "2.718281828459045", "--k", "1e-307"],
], ids=["lngamma", "gamma"])
def test_cli_gamma_past_the_double_range_exits_3(args):
    result = CliRunner().invoke(cli.main, ["gamma", *args])
    assert result.exit_code == 3
    assert "exceeds double range" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("p, x, message", [
    # k^2 underflows to 0: a bare ZeroDivisionError
    (KBesselParams(1e-300, 1e-300, -1e-300), 0.0409295880533249,
     r"k\^2 = 0\.0"),
    # k^2 overflows: the residual was inf / inf and the margin nan
    (KBesselParams(7.293210868056852e+304, -1.547191252834306e+276, -5e-324),
     0.05282864099006772, r"k\^2 = inf"),
], ids=["k-squared-zero", "k-squared-inf"])
def test_ode_residual_refuses_a_square_outside_the_normal_range(p, x,
                                                                message):
    with pytest.raises(Overflow, match=rf"{message} is not a normal double"):
        verify.check_ode(p, x)


@pytest.mark.parametrize("check, points", [
    (verify.check_turan,
     [((0.006822937175492212, -1.3192400672141166e-84, 1e-320,
        44.75602803982543), 0.0, "2^-1550"),
      ((1e5, 1e4, 0.25, 2e5), 1.9446222410124392e-11, "2^-1810")]),
    (verify.check_order_ratio_monotone,
     [((0.006822937175492212, -1.3192400672141166e-84,
        -1.3192400672141166e-84, 44.75602803982543), 0.0, "2^-1542"),
      ((1e5, -9e4, 1e4, 2e5), 1.3563241674029674, "2^-1814")]),
], ids=["turan", "order-ratio-monotone"])
def test_sides_past_the_double_range_are_compared_scaled(check, points):
    # each normalized factor fits but both products overflow to inf, which
    # made the margin nan (an Overflow); one power of two scales both sides
    for args, margin, scaling in points:
        report = check(*args)
        assert report.passed and report.margin == margin
        assert report.notes.endswith(f" (both scaled by {scaling})")


def test_logconvexity_report_refuses_a_non_finite_margin(monkeypatch):
    # the report this check builds itself follows _report's rule; min()
    # of its two margins would hide a nan in the first
    monkeypatch.setattr(verify, "_normalized", lambda k, order, x: math.inf)
    with pytest.raises(Overflow, match="^nu-decreasing-logconvex margin is "
                                       "nan"):
        verify.check_nu_decreasing_logconvex(1.0, (0.0, 1.0), 0.5, 1.0)


@pytest.mark.parametrize("fn", [integral.sin_relation_check,
                                integral.sinh_relation_check])
def test_relation_right_side_past_the_double_range_raises(fn):
    # alpha/k = 1e320 overflows, and the residual was -inf
    with pytest.raises(Overflow, match=r"right side .* is inf at alpha/k = "
                                       r"inf$"):
        fn(1e-320, 1.0, 1e-320)


def test_multisection_refuses_an_overflowing_two_over_x():
    # 2/x = inf made every piece nan: EvalResult(nan, 40, nan)
    with pytest.raises(Overflow, match=r"2/x exceeds double range"):
        multisection_lhs(KBesselParams(5e-324, 5e-324, -5e131), 1e-320, 40)


@pytest.mark.parametrize("route", ["cos", "cosh", "kernel"])
def test_integral_prefactor_at_a_subnormal_x_raises_overflow(route):
    # log(x/2) of x/2 = 0.0 was a bare ValueError (math domain error)
    p = integral.IntegralRepParams(1.0, 0.5, 1.0, 5e-324)
    call = {"cos": lambda: integral.eval_w_cos(p),
            "cosh": lambda: integral.eval_w_cosh(p),
            "kernel": lambda: integral.eval_w_bessel_kernel(p, 1.0)}[route]
    with pytest.raises(Overflow, match="^integral prefactor underflows"):
        call()


def test_ln_half_x_power_keeps_the_bits_of_b_log_of_half_x():
    # the integral prefactors took (nu/k) log(0.5 x); x / 2 rounds as
    # 0.5 x does, so every finite value keeps its bits
    for b in (0.5, -0.3, 3.0, 1e-300, -0.0, 0.0):
        for x in (5e-324, 1e-310, 2.2250738585072014e-308, 0.25, 3.0, 1e308):
            half = 0.5 * x
            got = kbessel._ln_half_x_power(b, x)
            if b == 0.0:
                assert got == 0.0
            elif half == 0.0:
                assert got == (-math.inf if b > 0.0 else math.inf)
            else:
                assert got.hex() == (b * math.log(half)).hex()


@pytest.mark.parametrize("variant", ["cos", "cosh"])
def test_chebyshev_probes_where_x_over_sqrt_k_is_zero(variant):
    # x/sqrt(k) = 0.0 made the closed-form probes divide by zero; the
    # inequality itself holds there
    report = verify.check_chebyshev_products(math.inf, 0.5, 1.0, variant)
    assert report.passed and report.margin == 0.2337005501361693
    assert report.notes.endswith("closed-form probes not evaluable: "
                                 "x/sqrt(k) underflows to 0.0")


def test_derivative_ladder_with_an_underflowed_scale_raises_overflow():
    # (2k)^2 underflows to 0: the first weight 1/(2k)^m was a bare
    # ZeroDivisionError, and `kbessel eval --deriv 2` exited 1
    p = KBesselParams(1e-200, 1.0, 1.0)
    message = r"^derivative ladder weights exceed double range at c=1\.0, "
    for call in (lambda: kbessel.deriv_w_terms(p, 2),
                 lambda: deriv_w(p, 1.0, 2)):
        with pytest.raises(Overflow, match=message):
            call()
    result = CliRunner().invoke(cli.main, [
        "eval", "--k", "1e-200", "--nu", "1", "--c", "1", "--x", "1",
        "--deriv", "2"])
    assert result.exit_code == 3
    assert result.stderr.startswith("error: derivative ladder weights exceed")


@pytest.mark.parametrize("c, product", [(1e-200, "0.0"), (1e200, "inf")],
                         ids=["zero", "inf"])
def test_recurrence_step_up_refuses_c_times_k_outside_the_normal_range(
        c, product):
    # c k = 0.0 was a bare ZeroDivisionError; c k = inf returned 0.0
    with pytest.raises(Overflow, match=rf"^recurrence_step_up's c\*k = "
                                       rf"{product} is not a normal double$"):
        recurrence_step_up(KBesselParams(c, 1.0, c), 1.0, 1.0, 1.0)


def _wide_params(b):
    """(k, nu = b k, c) with k and |c| log-uniform on [1e-300, 1e300]."""
    return st.builds(lambda k, b, c: KBesselParams(k, b * k, c),
                     _WIDE, b, _signed(_WIDE))


_LADDER_CALLS = st.one_of(
    _call(kbessel.deriv_w_terms, _wide_params(st.floats(5.0, 1e6)),
          st.integers(1, 6)),
    _call(recurrence_step_up, _wide_params(_SERIES), _SERIES,
          _signed(_WIDE), _signed(_WIDE)),
)


@given(call=_LADDER_CALLS)
@settings(max_examples=2000, deadline=None, derandomize=True)
def test_ladder_entry_points_return_finite_floats_or_raise(call):
    # k and |c| log-uniform over [1e-300, 1e300], where (2k)^m or c k can
    # leave the double range; orders nu = b k with b >= 5 > m - 1
    try:
        out = call()
    except KBesselError:
        return
    floats = _floats(tuple(out)) if isinstance(out, list) else [out]
    assert all(math.isfinite(v) for v in floats), (call, out)


def test_coefficient_facts_route_ratio_past_the_double_range_fails_the_point(
        tmp_path):
    # exp of the log-gamma route's ratio overflowed: a bare OverflowError
    # that aborted the sweep with exit 1
    with pytest.raises(Overflow, match=r"^coefficient-facts' log-gamma route "
                                       r"ratio at r = 0 exceeds double range"):
        verify.check_coefficient_facts(1e-95, 0.0, 1e-79)
    grid = tmp_path / "grid.json"
    grid.write_text('{"k_values": [1e-95], "nu_values": [0, 1e-79]}',
                    encoding="utf-8")
    result = CliRunner().invoke(cli.main, [
        "verify", "--checks", "coefficient-facts", "--grid", str(grid)])
    assert result.exit_code == 4
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert [(r["passed"], r["margin"]) for r in reports] == [
        (True, 0.0), (False, None), (True, 0.0)]
    assert reports[1]["notes"].startswith("error: Overflow: ")


def test_pochhammer_stops_at_the_first_partial_product_past_the_range():
    # the loop ran on through 10^9 factors after the product overflowed
    start = time.perf_counter()
    with pytest.raises(Overflow, match=r"^k_pochhammer\(2\.0, 1000000000, "
                                       r"1\.0\) exceeds double range$"):
        k_pochhammer(2.0, 10 ** 9, 1.0)
    assert time.perf_counter() - start < 1.0


def test_pochhammer_below_the_normal_range_raises_unless_a_factor_is_zero():
    # 1e-300 * 2e-300 underflowed and was returned as 0.0
    with pytest.raises(Overflow, match=r"^k_pochhammer\(1e-300, 2, 1e-300\) "
                                       r"underflows: 0\.0 is below the "
                                       r"normal double range$"):
        k_pochhammer(1e-300, 2, 1e-300)
    result = CliRunner().invoke(cli.main, [
        "gamma", "--fn", "pochhammer", "--t", "1e-300", "--n", "2",
        "--k", "1e-300"])
    assert (result.exit_code, result.stdout) == (3, "")
    # the factor -2e-200 + 2e-200 is exactly 0, after the product of the
    # first two had underflowed
    assert k_pochhammer(-2e-200, 3, 1e-200) == 0.0
    assert k_pochhammer(-2.0, 5, 1.0) == 0.0
    assert k_pochhammer(1.0, 3, 1.0) == 6.0


def test_pochhammer_stops_once_an_underflowed_product_is_final():
    # the product is 0.0 after two factors, and every later one lies in
    # (0, 1e-288]: the loop ran on through all 10^12 of them
    args = ["--t", "1e-300", "--n", "1000000000000", "--k", "1e-300"]
    done = subprocess.run(
        [sys.executable, "-m", "kbessel.cli", "gamma", "--fn", "pochhammer",
         *args],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, timeout=20)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        "error: k_pochhammer(1e-300, 1000000000000, 1e-300) underflows: 0.0 "
        "is below the normal double range\n")
    # a negative zero, once the factors are positive
    with pytest.raises(Overflow, match=r"underflows: -0\.0 is below"):
        k_pochhammer(-2.5e-300, 10 ** 12, 1e-300)
    # factors all -0.5: the sign of the zero follows the count of those left
    for n, zero in [(10 ** 12, r"0\.0"), (10 ** 12 + 1, r"-0\.0")]:
        with pytest.raises(Overflow, match=rf"underflows: {zero} is below"):
            k_pochhammer(-0.5, n, 1e-300)


def test_pochhammer_stops_at_a_last_factor_of_plus_or_minus_one():
    # x + j k rounds to x for every j < 10^12: the loop multiplied 10^12
    # factors of exactly 1.0 (or -1.0), about a day
    code = ("from kbessel import k_pochhammer as p; print(p(1.0, 10**12, "
            "1e-300), p(-1.0, 10**12 + 1, 1e-300), p(-1.0, 10**12, 1e-300))")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, timeout=20)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "1.0 -1.0 1.0\n", "")
    # stopped early, the product is the full loop's: 1 + 2**-53 rounds to 1
    for x, k in [(1.0, 1e-300), (-1.0, 1e-300), (1.0, 2.0 ** -53),
                 (-1.0, 2.0 ** -54), (-1.0, 1.0), (0.5, 0.5)]:
        for n in range(8):
            full = 1.0
            for j in range(n):
                full *= x + j * k
            assert k_pochhammer(x, n, k) == full


@pytest.mark.parametrize("x", [-0.5, -0.9, -3e-300, -2.5e-300, 0.5])
def test_pochhammer_stopped_early_gives_the_zero_of_the_full_product(x):
    def full_product(n, k):
        result = 1.0
        for j in range(n):
            result *= x + j * k
        return result

    for k in (1e-310, 1e-300, 1e-200, 1e-3):
        for n in (*range(2, 12), *range(1070, 1082)):
            expected = full_product(n, k)
            if expected != 0.0 or 0.0 in (x + j * k for j in range(n)):
                continue
            with pytest.raises(Overflow, match=rf"underflows: {expected!r} "):
                k_pochhammer(x, n, k)


def test_pochhammer_ends_at_an_exact_zero_factor():
    # the loop ran on through 10^9 factors after the first one, x = 0
    start = time.perf_counter()
    assert k_pochhammer(0.0, 10 ** 9, 1.0) == 0.0
    assert time.perf_counter() - start < 1.0
    # the third factor overflows: 0 * inf was nan, and raised Overflow
    assert k_pochhammer(0.0, 3, 1e308) == 0.0
    # the zero keeps the sign of the product before it
    assert math.copysign(1.0, k_pochhammer(-1.0, 3, 1.0)) == -1.0
