"""Tests for the Gauss-Legendre engine and the integral representations.

The classical-limit fixtures are the same frozen 60-term oracle values used
for the series tests, which makes the two evaluation paths' agreement a
genuine cross-check rather than a shared-code tautology; pure weight
integrals are checked against beta-function closed forms through lgamma.
"""

import importlib.util
import math
import random
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from kbessel import InvalidParameter, KBesselParams, eval_w
from kbessel import _gauss_legendre, integral
from kbessel.errors import (KBesselError, NonConvergence, Overflow,
                            QuadratureFailure)
from kbessel.integral import (
    ROUTES,
    IntegralRepParams,
    QuadConfig,
    bessel_kernel,
    eval_w_bessel_kernel,
    eval_w_cos,
    eval_w_cosh,
    legendre_nodes,
    _relation_sides,
    route_legs,
    sin_relation_check,
    sinh_relation_check,
    weighted_integral,
)


def test_legendre_nodes_match_numpy():
    np = pytest.importorskip("numpy")
    for n in (8, 64):
        xs, ws = legendre_nodes(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert max(abs(a - b) for a, b in zip(xs, ref_x)) < 1e-13
        assert max(abs(a - b) for a, b in zip(ws, ref_w)) < 1e-13


def test_legendre_weights_sum_to_two():
    for n in (2, 7, 33, 128):
        _, ws = legendre_nodes(n)
        assert math.fsum(ws) == pytest.approx(2.0, rel=1e-14)


def test_legendre_polynomial_exactness():
    # n-point rule is exact through degree 2n-1
    xs, ws = legendre_nodes(4)
    got = math.fsum(w * x**6 for x, w in zip(xs, ws))
    assert got == pytest.approx(2.0 / 7.0, rel=1e-14)
    got_odd = math.fsum(w * x**7 for x, w in zip(xs, ws))
    assert abs(got_odd) < 1e-16


def _legendre_reference(n: int) -> tuple[list, list]:
    """Gauss-Legendre nodes and weights with the recurrence's integer
    coefficients formed inside the Newton loop, as ``legendre_nodes`` once
    built them."""
    xs = [0.0] * n
    ws = [0.0] * n
    for i in range(1, (n + 1) // 2 + 1):
        z = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        pp = 0.0
        for _ in range(64):
            p1, p2 = 1.0, 0.0
            for j in range(1, n + 1):
                p1, p2 = ((2 * j - 1) * z * p1 - (j - 1) * p2) / j, p1
            pp = n * (z * p1 - p2) / (z * z - 1.0)
            dz = p1 / pp
            z -= dz
            if abs(dz) <= 1e-15 * max(1.0, abs(z)):
                break
        xs[i - 1], xs[n - i] = -z, z
        ws[i - 1] = ws[n - i] = 2.0 / ((1.0 - z * z) * pp * pp)
    return xs, ws


def test_legendre_nodes_bits_equal_the_integer_recurrence():
    for n in [*range(2, 65), 127, 128, 255, 256, 257]:
        got = legendre_nodes.__wrapped__(n)  # built afresh, not from the cache
        want = _legendre_reference(n)
        for got_part, want_part in zip(got, want):
            assert list(map(float.hex, got_part)) == list(map(float.hex, want_part)), n


def _beta_weight_integral(a: float) -> float:
    # int_0^1 (1-t^2)^a dt = sqrt(pi) Gamma(a+1) / (2 Gamma(a+3/2))
    return 0.5 * math.sqrt(math.pi) * math.exp(
        math.lgamma(a + 1.0) - math.lgamma(a + 1.5)
    )


@pytest.mark.parametrize("a", [-0.45, -0.3, 0.0, 0.5, 1.0, 2.7])
def test_weighted_integral_pure_weight(a):
    got = weighted_integral(lambda t: 1.0, a)
    assert got == pytest.approx(_beta_weight_integral(a), rel=1e-11)


@pytest.mark.parametrize("a", [-0.9, -0.45, 0.25, 1.5])
def test_weighted_integral_with_polynomial(a):
    # int_0^1 t^2 (1-t^2)^a dt = sqrt(pi) Gamma(a+1) / (4 Gamma(a+5/2))
    want = 0.25 * math.sqrt(math.pi) * math.exp(
        math.lgamma(a + 1.0) - math.lgamma(a + 2.5)
    )
    got = weighted_integral(lambda t: t * t, a)
    assert got == pytest.approx(want, rel=1e-10)


def test_weighted_integral_rejects_divergent_weight():
    with pytest.raises(InvalidParameter):
        weighted_integral(lambda t: 1.0, -1.0)


@pytest.mark.parametrize("a", [math.inf, 1e308])
def test_weighted_integral_rejects_an_overflowing_exponent(a):
    # 2a + 1 is infinite, so the substitution levels cannot be counted
    with pytest.raises(KBesselError, match="2a \\+ 1 exceeds double range"):
        weighted_integral(lambda t: 1.0, a)


def test_weighted_integral_refinement_cap():
    cfg = QuadConfig(nodes=2, abs_tol=1e-18, max_refinements=1)
    with pytest.raises(QuadratureFailure):
        weighted_integral(lambda t: math.cos(7.0 * t), -0.45, cfg)


def _reference_nodes(a: float, n: int) -> tuple[list, list, list]:
    """The sine-map chain node by node, uncached: (t_i, weight_i, ln_val_i)."""
    p1 = 2.0 * a + 1.0
    extra = integral._substitution_levels(p1)
    quarter_pi = 0.25 * math.pi
    ts, weights, ln_vals = [], [], []
    for xi, wi in zip(*legendre_nodes(n)):
        delta = quarter_pi * (1.0 - xi)
        ln_delta = math.log(delta)
        ln_w = 0.0
        for _ in range(extra):
            ln_w += integral._LN_HALF_PI + integral._ln_sin(delta, ln_delta)
            ln_delta = integral._LN_PI + 2.0 * integral._ln_sin(
                0.5 * delta, ln_delta - integral._LN2)
            delta = math.exp(ln_delta)
        ln_val = p1 * integral._ln_sin(delta, ln_delta) + ln_w
        ts.append(math.cos(delta))
        weights.append(wi * quarter_pi * math.exp(ln_val))
        ln_vals.append(ln_val)
    return ts, weights, ln_vals


def _level(extra, n):
    """The level key that weighted_integral builds for (extra, n)."""
    return integral._Level(extra, n, legendre_nodes(n))


def _node_transform(p1, extra, n):
    """integral._node_transform at the level that weighted_integral builds."""
    return integral._node_transform(p1, _level(extra, n))


@pytest.mark.parametrize("a,n,extra", [
    (-0.9, 128, 6), (-0.45, 8, 3), (-0.3, 256, 3), (0.0, 128, 0),
    (0.25, 64, 2), (2.7, 128, 1), (3.1, 16, 0),
])
def test_cached_node_transform_matches_reference_loop(a, n, extra):
    p1 = 2.0 * a + 1.0
    assert integral._substitution_levels(p1) == extra
    ts, weights, _ = _reference_nodes(a, n)
    for _ in range(2):  # a miss, then a hit
        got_t, got_w = _node_transform(p1, extra, n)
        assert got_t.tobytes() == array("d", ts).tobytes()
        assert got_w.tobytes() == array("d", weights).tobytes()
    want = math.fsum(w * math.cos(3.0 * t) for t, w in zip(ts, weights))
    got = integral._integrate_once(lambda t: math.cos(3.0 * t), p1,
                                   _level(extra, n))
    assert got == want


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("extra, exponents", [
    (0, (-0.5, 0.0, 0.5, 3.25)), (1, (1.2, 2.1)), (2, (0.25, 0.6)),
    (3, (-0.4, -0.25)),
])
def test_weight_exponents_of_a_level_share_one_sine_map_chain(extra,
                                                              exponents, n):
    # the weights of every exponent equal the per-node chain's bit for bit,
    # and the level's chain is formed once and its t_i array shared
    integral._node_transform.cache_clear()
    integral._sine_map_chain.cache_clear()
    try:
        shared_ts = None
        for a in exponents:
            p1 = 2.0 * a + 1.0
            assert integral._substitution_levels(p1) == extra
            ts, weights, _ = _reference_nodes(a, n)
            got_t, got_w = _node_transform(p1, extra, n)
            assert got_t.tobytes() == array("d", ts).tobytes()
            assert got_w.tobytes() == array("d", weights).tobytes()
            shared_ts = shared_ts or got_t
            assert got_t is shared_ts
        info = integral._sine_map_chain.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
    finally:
        integral._node_transform.cache_clear()
        integral._sine_map_chain.cache_clear()


def test_node_overflow_raises_before_any_call_to_h(monkeypatch):
    # no a > -1 overflows a double weight, so the limit is lowered to fall
    # between the ln weights of nodes 1 and 2 (2.73 and 2.78 here)
    a, n = -0.9, 16
    _, _, ln_vals = _reference_nodes(a, n)
    threshold = 0.5 * (ln_vals[1] + ln_vals[2])
    assert ln_vals[0] < threshold < ln_vals[2]
    integral._node_transform.cache_clear()
    monkeypatch.setattr(integral, "_MAX_EXP_ARG", threshold)
    seen = []
    try:
        with pytest.raises(QuadratureFailure,
                           match="transformed integrand overflows double range"):
            weighted_integral(lambda t: seen.append(t) or 1.0, a,
                              QuadConfig(nodes=n))
    finally:
        integral._node_transform.cache_clear()
    assert seen == []


@pytest.fixture
def node_calls(monkeypatch):
    """The n of every integral.legendre_nodes call, read through the module
    global as perfbench/tracer.py's wrapper is."""
    calls = []

    def spy(n):
        calls.append(n)
        return legendre_nodes(n)

    monkeypatch.setattr(integral, "legendre_nodes", spy)
    return calls


def test_weighted_integral_reads_nodes_once_per_level(node_calls):
    for _ in range(2):  # cold and warm node cache alike
        weighted_integral(lambda t: 1.0, 0.5)
    assert node_calls == [128, 256, 128, 256]


@pytest.mark.parametrize("h", [
    # |cur - prev| is NaN, so node doubling would run on to 32768 nodes
    lambda t: math.nan,
    # fsum of +inf and -inf raises a bare ValueError
    lambda t: math.inf if t < 0.5 else -math.inf,
], ids=["nan", "both-infinities"])
def test_a_level_that_sums_to_nan_ends_the_integral(node_calls, h):
    with pytest.raises(QuadratureFailure, match="sums to nan over 128 nodes"):
        weighted_integral(h, 0.0)
    assert node_calls == [128]


def test_quad_config_validation():
    with pytest.raises(InvalidParameter):
        QuadConfig(nodes=1)
    with pytest.raises(InvalidParameter):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(InvalidParameter):
        QuadConfig(max_refinements=0)


@pytest.mark.parametrize("field, value", [("nodes", 2.5),
                                          ("max_refinements", 1.5),
                                          ("max_refinements", True)])
def test_quad_config_refuses_a_non_integer_count(field, value):
    # before the integral, where the count would end in a bare TypeError
    with pytest.raises(InvalidParameter, match=f"^{field} must be an integer"):
        weighted_integral(math.cos, 0.5, QuadConfig(**{field: value}))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["k", "nu"])
def test_integral_rep_params_refuse_a_non_finite_field_by_name(field, value):
    args = {"k": 1.0, "nu": 0.5, "alpha": 1.0, "x": 1.0, field: value}
    with pytest.raises(InvalidParameter, match=f"^{field} must be finite"):
        IntegralRepParams(**args)


@pytest.mark.parametrize("field", ["alpha", "x"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_integral_rep_params_refuse_a_non_finite_alpha_or_x_by_name(field,
                                                                    value):
    args = {"k": 1.0, "nu": 0.5, "alpha": 1.0, "x": 1.0, field: value}
    with pytest.raises(InvalidParameter,
                       match=f"^{field} must be finite, got {value}$"):
        IntegralRepParams(**args)


@pytest.mark.parametrize("call", [
    lambda: route_legs(1.0, 0.5, 1e200, 1e-200, "cos"),
    lambda: route_legs(1.0, 0.5, 1e200, 1e-200, "cosh"),
    # before the kernel's quadrature, which would refuse c = inf as a bad
    # argument (DomainError)
    lambda: route_legs(1.0, 0.5, 1e200, 1e-200, "kernel"),
    lambda: sin_relation_check(1.0, 1e200, 1e-200),
    lambda: sinh_relation_check(1.0, 1e200, 1e-200),
], ids=["cos", "cosh", "kernel", "sin", "sinh"])
def test_series_side_refuses_an_overflowing_alpha_squared(call):
    # alpha x is 1, but c = +-alpha^2 is infinite: an overflow of the
    # point, not an invalid parameter
    with pytest.raises(Overflow, match="alpha\\^2 exceeds double range"):
        call()


@pytest.mark.parametrize("route, nu, c", [
    (eval_w_cos, 500.0, 1.0),
    (eval_w_cosh, 150.0, -1.0),
    (lambda rep: eval_w_bessel_kernel(rep, 1.0), 500.0, 1.0),
], ids=["cos", "cosh", "kernel"])
def test_prefactor_below_the_normal_double_range_raises(route, nu, c):
    # these routes returned 0.0 where the series refuses its leading term
    rep = IntegralRepParams(1.0, nu, 1.0, 1e-3)
    with pytest.raises(Overflow, match="integral prefactor underflows"):
        route(rep)
    with pytest.raises(Overflow, match="leading series term underflows"):
        eval_w(KBesselParams(1.0, nu, c), 1e-3)


def test_integral_rep_params_validation():
    with pytest.raises(InvalidParameter):
        IntegralRepParams(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameter):
        IntegralRepParams(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(InvalidParameter):
        IntegralRepParams(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(InvalidParameter):
        IntegralRepParams(1.0, math.nan, 1.0, 1.0)
    with pytest.raises(InvalidParameter):
        IntegralRepParams(1.0, 1.0, math.inf, 1.0)
    with pytest.raises(InvalidParameter):
        IntegralRepParams(1.0, 1.0, 1.0, math.inf)


def test_cos_route_half_order_closed_form():
    # J_{1/2}(1) = sqrt(2/pi) sin(1)
    got = eval_w_cos(IntegralRepParams(1.0, 0.5, 1.0, 1.0))
    assert got == pytest.approx(0.6713967071418031, abs=1e-12)


def test_cos_route_matches_classical_j0():
    got = eval_w_cos(IntegralRepParams(1.0, 0.0, 1.0, 2.0))
    assert got == pytest.approx(0.22389077914123567, abs=1e-12)


def test_cosh_route_half_order_closed_form():
    # I_{1/2}(1) = sqrt(2/pi) sinh(1)
    got = eval_w_cosh(IntegralRepParams(1.0, 0.5, 1.0, 1.0))
    assert got == pytest.approx(math.sqrt(2.0 / math.pi) * math.sinh(1.0), abs=1e-12)
    assert got == pytest.approx(0.9376748882454876, abs=1e-12)


def test_cosh_route_matches_classical_i0():
    got = eval_w_cosh(IntegralRepParams(1.0, 0.0, 1.0, 1.0))
    assert got == pytest.approx(1.2660658777520084, abs=1e-12)


def test_cosh_route_small_x_limit():
    got = eval_w_cosh(IntegralRepParams(1.0, 0.0, 1.0, 1e-8))
    assert got == pytest.approx(1.0, abs=1e-10)


def test_cos_route_tiny_alpha_reduces_to_weight_normalization():
    # alpha -> 0 leaves only the beta-type weight integral, which must equal
    # the single-term series value (x/2)^(nu/k)/Gamma_k(nu+k)
    k, nu, x = 2.0, 0.7, 1.0
    got = eval_w_cos(IntegralRepParams(k, nu, 1e-8, x))
    want = eval_w(KBesselParams(k, nu, 0.0), x).value
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("k,nu,alpha,x", [
    (1.0, -0.4, 1.0, 1.0),    # singular weight exponent -0.9
    (0.5, -0.2, 2.0, 3.0),    # nu/k = -0.4, oscillatory and singular
    (2.0, 1.0, 0.5, 0.25),
    (1.0, 2.5, 2.0, 3.0),
])
def test_cos_route_agrees_with_series(k, nu, alpha, x):
    got = eval_w_cos(IntegralRepParams(k, nu, alpha, x))
    want = eval_w(KBesselParams(k, nu, alpha * alpha), x).value
    assert got == pytest.approx(want, rel=1e-9, abs=1e-10)


@pytest.mark.parametrize("k,nu,alpha,x", [
    (1.0, -0.4, 1.0, 1.0),
    (0.5, -0.2, 1.0, 2.0),
    (2.0, 1.0, 1.5, 1.0),
])
def test_cosh_route_agrees_with_series(k, nu, alpha, x):
    got = eval_w_cosh(IntegralRepParams(k, nu, alpha, x))
    want = eval_w(KBesselParams(k, nu, -alpha * alpha), x).value
    assert got == pytest.approx(want, rel=1e-9, abs=1e-10)


def test_kernel_series_reduces_to_classical_shapes():
    assert bessel_kernel(2.0, 1.0) == pytest.approx(0.22389077914123567, rel=1e-13)
    assert bessel_kernel(1.0, -1.0) == pytest.approx(1.2660658777520084, rel=1e-13)
    assert bessel_kernel(0.0, 5.0) == 1.0


def test_kernel_route_classical_first_order():
    got_j = eval_w_bessel_kernel(IntegralRepParams(1.0, 1.0, 1.0, 1.0), 1.0)
    assert got_j == pytest.approx(0.4400505857449335, abs=1e-11)
    got_i = eval_w_bessel_kernel(IntegralRepParams(1.0, 1.0, 1.0, 1.0), -1.0)
    assert got_i == pytest.approx(0.565159103992485, abs=1e-11)


@pytest.mark.parametrize("k,nu,c,x", [
    (2.0, 1.0, 1.0, 0.7),
    (1.0, 0.1, 1.0, 1.0),     # weight exponent -0.9 at the kernel route
    (0.5, 0.3, -2.0, 1.5),
    (1.5, 2.2, 4.0, 2.0),
])
def test_kernel_route_agrees_with_series(k, nu, c, x):
    got = eval_w_bessel_kernel(IntegralRepParams(k, nu, 1.0, x), c)
    want = eval_w(KBesselParams(k, nu, c), x).value
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_route_preconditions():
    with pytest.raises(InvalidParameter):
        eval_w_cos(IntegralRepParams(1.0, -0.5, 1.0, 1.0))  # nu/k = -1/2
    with pytest.raises(InvalidParameter):
        eval_w_cosh(IntegralRepParams(2.0, -1.0, 1.0, 1.0))
    with pytest.raises(InvalidParameter):
        eval_w_bessel_kernel(IntegralRepParams(1.0, 0.0, 1.0, 1.0), 1.0)
    with pytest.raises(InvalidParameter):
        eval_w_bessel_kernel(IntegralRepParams(1.0, 1.0, 1.0, 1.0), math.nan)
    for u, c in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf),
                 (0.0, math.inf)):
        with pytest.raises(KBesselError):
            bessel_kernel(u, c)


@pytest.mark.parametrize("u,c", [
    (40.0, 1.0),     # the unchecked sum gave -0.1387; J0(40) = 0.00737
    (60.0, 1.0),     # the unchecked sum gave 2.7e7
    (9.2, 1.0),      # rounding bound 2^-53 e^9.2 just over 1e-12
    (283.0, -1.0),   # 200 terms leave a tail above 1e-17 of the sum
    (1e3, -1.0),
])
def test_kernel_refuses_inaccurate_sums(u, c):
    with pytest.raises(NonConvergence):
        bessel_kernel(u, c)


def test_kernel_keeps_accurate_sums_at_the_bounds():
    mpmath = pytest.importorskip("mpmath")
    # largest u^2 c below the cancellation limit on the default grid, and
    # an I0 sum whose term test is still open at 200 terms
    assert bessel_kernel(2.0 * math.sqrt(18.0), 1.0) == pytest.approx(
        float(mpmath.besselj(0, 2.0 * math.sqrt(18.0))), abs=1e-13)
    assert bessel_kernel(200.0, -1.0) == pytest.approx(
        float(mpmath.besseli(0, 200.0)), rel=1e-14)


@pytest.mark.parametrize("u,c", [
    (1e200, 1e200),  # (u/2)^2 overflows inside the power
    (1e154, 1e10),   # (u/2)^2 fits, -c times it does not
])
def test_kernel_refuses_q_past_the_double_range(u, c):
    with pytest.raises(Overflow, match="exceeds double range"):
        bessel_kernel(u, c)


def test_fast_cosine_is_refused_before_any_level(node_calls):
    # omega = 1e300: the last level, 128 * 2^8 nodes, has fewer than two
    # nodes per period; node doubling used to run on for minutes
    with pytest.raises(QuadratureFailure, match="oscillates faster"):
        route_legs(1.0, 1.0, 1e100, 1e200, "cos")
    assert node_calls == []


def test_kernel_route_refuses_large_argument_at_first_level(node_calls):
    # one level of 128 nodes, not minutes of node doubling
    with pytest.raises(NonConvergence):
        eval_w_bessel_kernel(IntegralRepParams(1.0, 1.0, 1.0, 40.0), 1.0)
    assert node_calls == [128]


def test_node_doubling_self_consistency():
    p = IntegralRepParams(1.0, -0.4, 1.0, 1.0)
    a = eval_w_cos(p, QuadConfig(nodes=128))
    b = eval_w_cos(p, QuadConfig(nodes=256))
    assert abs(a - b) <= 5e-12 * max(1.0, abs(a))


def test_sin_relation_vanishes_at_k_one():
    # classical half-order identity: the stated constant is exact at k = 1
    for alpha, x in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7)):
        assert abs(sin_relation_check(1.0, alpha, x)) < 1e-13


def test_sinh_relation_vanishes_at_k_one():
    for alpha, x in ((1.0, 1.0), (0.5, 2.0), (1.5, 0.7)):
        assert abs(sinh_relation_check(1.0, alpha, x)) < 1e-12


def test_sin_relation_fitted_constant_is_k():
    # away from k=1 the residual is nonzero but the left side is exactly k
    # times the stated right side
    for k, alpha, x in ((4.0, 2.0, 0.5), (0.5, 1.0, 1.0), (2.0, 0.5, 2.0)):
        lhs = math.sin(alpha * x / math.sqrt(k))
        resid = sin_relation_check(k, alpha, x)
        rhs = lhs - resid
        assert lhs / rhs == pytest.approx(k, rel=1e-9)


def test_sinh_relation_fitted_constant_is_k():
    for k, alpha, x in ((4.0, 2.0, 0.5), (0.5, 1.0, 1.0), (2.0, 0.5, 2.0)):
        lhs = math.sinh(alpha * x / math.sqrt(k))
        resid = sinh_relation_check(k, alpha, x)
        rhs = lhs - resid
        assert lhs / rhs == pytest.approx(k, rel=1e-9)


def test_relation_checks_near_zero_argument():
    # both sides are odd in x, so the residual collapses with x
    assert abs(sin_relation_check(1.0, 1.0, 1e-10)) < 1e-12
    assert abs(sinh_relation_check(1.0, 1.0, 1e-10)) < 1e-12


def test_relation_checks_overflow_as_typed_errors():
    with pytest.raises(KBesselError, match="sinh"):
        sinh_relation_check(1.0, 1e3, 1e3)
    with pytest.raises(KBesselError, match="sin"):
        sin_relation_check(1.0, 1e200, 1e200)


def test_relation_checks_validate_arguments():
    for bad in ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0),
                (1.0, math.inf, 1.0), (1.0, 1.0, math.inf)):
        with pytest.raises(InvalidParameter):
            sin_relation_check(*bad)
        with pytest.raises(InvalidParameter):
            sinh_relation_check(*bad)


@pytest.mark.parametrize("route, nu, refuse", [
    ("cos", -0.5, eval_w_cos),
    ("cosh", -0.7, eval_w_cosh),
    ("kernel", 0.0, lambda rep: eval_w_bessel_kernel(rep, 1.0)),
], ids=["cos", "cosh", "kernel"])
def test_route_legs_reason_is_the_representation_refusal(route, nu, refuse):
    rep = IntegralRepParams(1.0, nu, 1.0, 1.0)
    with pytest.raises(InvalidParameter) as refusal:
        refuse(rep)
    assert str(refusal.value).startswith(refusal.value.reason + ", got ")
    assert route_legs(1.0, nu, 1.0, 1.0, route) == (refusal.value.reason, [])


@pytest.mark.parametrize("route, nu", [("cos", 0.7), ("cosh", -0.3),
                                       ("kernel", 1.5)])
def test_route_legs_series_is_eval_w_bit_for_bit(route, nu):
    k, alpha, x = 2.0, 0.5, 3.0
    reason, legs = route_legs(k, nu, alpha, x, route)
    assert reason is None
    assert [c for c, _, _ in legs] == {
        "cos": [0.25], "cosh": [-0.25], "kernel": [0.25, -0.25]}[route]
    for c, _, series in legs:
        want = eval_w(KBesselParams(k, nu, c), x).value
        assert series.hex() == want.hex()


@pytest.mark.parametrize("name, check", [("sin", sin_relation_check),
                                         ("sinh", sinh_relation_check)])
def test_relation_sides_differ_by_the_residual(name, check):
    for k, alpha, x in ((1.0, 1.0, 1.0), (4.0, 2.0, 0.5), (0.5, 1.0, 3.0)):
        lhs, rhs = _relation_sides(name, k, alpha, x)
        assert lhs == getattr(math, name)(alpha * x / math.sqrt(k))
        assert lhs - rhs == check(k, alpha, x)


# ---------------------------------------------------------------------------
# the level-value memo: one h's values shared across weight exponents


def test_node_transform_nodes_do_not_depend_on_the_weight_exponent():
    # the memo's premise: one (extra, n) gives one set of t_i, bit for bit
    for exponents in ((0.0, 1.0, 4.0, 7.5), (0.6, 0.45), (-0.4, -0.45)):
        extras = {integral._substitution_levels(p1) for p1 in exponents}
        assert len(extras) == 1
        extra = extras.pop()
        for n in (128, 256):
            nodes = [_node_transform(p1, extra, n)[0] for p1 in exponents]
            assert len({ts.tobytes() for ts in nodes}) == 1


def _legs_points(seed: int) -> list[tuple]:
    """Seeded route_legs points.  At beta = nu/k in {0.5, 1, 2.5} the kernel
    exponents 2 beta - 1 share extra = 0, as the cos/cosh ones 2 beta do;
    beta = 0.3 and a drawn beta give other extras."""
    rng = random.Random(seed)
    ks = (1.0, round(rng.uniform(0.5, 2.0), 3))
    betas = (0.5, 1.0, 2.5, 0.3, round(rng.uniform(0.05, 3.0), 3))
    alpha = round(rng.uniform(0.2, 1.5), 3)
    xs = (round(rng.uniform(0.2, 1.0), 3), round(rng.uniform(1.0, 3.0), 3))
    return [(k, beta * k, alpha, x, route)
            for k in ks for x in xs for route in ROUTES for beta in betas]


@pytest.mark.parametrize("seed", [11, 12])
def test_level_memo_legs_equal_legs_with_the_memo_cleared(seed):
    points = _legs_points(seed)
    integral._level_values.cache_clear()
    shared = [route_legs(*point) for point in points]
    hits = integral._level_values.cache_info().hits
    cleared = []
    for point in points:
        integral._level_values.cache_clear()
        cleared.append(route_legs(*point))
    assert hits > 0
    # repr tells -0.0 from 0.0
    assert list(map(repr, shared)) == list(map(repr, cleared))


def test_kernel_legs_evaluate_the_kernel_once_across_weight_exponents(
        monkeypatch):
    calls = []

    def spy(u, c):
        calls.append((u, c))
        return bessel_kernel(u, c)

    monkeypatch.setattr(integral, "bessel_kernel", spy)
    k, alpha, x = 1.5, 0.8, 2.0
    integral._level_values.cache_clear()
    for beta in (0.5, 1.0, 2.5):  # weight exponents p1 = 0, 1, 4: extra 0
        route_legs(k, beta * k, alpha, x, "kernel")
    # one level pair, 128 and 256 nodes, for each of c = +-alpha^2
    assert len(calls) == 2 * (128 + 256)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("args, error, plain", [
    # weight exponent nu/k - 1 = 0 and nu/k - 1/2 = 0
    ((1.0, 1.0, 1.0, 10.0, "kernel"), NonConvergence,
     lambda t: t * bessel_kernel(10.0 * t, 1.0)),
    ((1.0, 0.5, 30.0, 30.0, "cosh"), QuadratureFailure,
     lambda t: math.cosh(900.0 * t)),
], ids=["kernel", "cosh"])
def test_a_raising_level_raises_again_and_is_not_stored(args, error, plain):
    integral._level_values.cache_clear()
    messages = []
    for _ in range(2):
        with pytest.raises(error) as raised:
            route_legs(*args)
        messages.append(str(raised.value))
    # the message a callable outside the memo gets at the same nodes
    with pytest.raises(error) as raised:
        weighted_integral(plain, 0.0)
    assert messages == [str(raised.value)] * 2
    assert integral._level_values.cache_info().currsize == 0


def test_other_callables_are_evaluated_on_every_level(node_calls):
    integral._level_values.cache_clear()
    seen = []

    def stateful(t):
        seen.append(t)
        return 1.0

    for _ in range(2):  # one callable, hashable and equal to itself
        weighted_integral(stateful, 0.5)
    assert len(seen) == sum(node_calls) == 2 * (128 + 256)
    assert integral._level_values.cache_info().currsize == 0


@pytest.mark.parametrize("h, oracle", [
    (integral._TrigIntegrand(math.cos, 3.0), lambda t: math.cos(3.0 * t)),
    (integral._TrigIntegrand(math.cosh, 7.0), lambda t: math.cosh(7.0 * t)),
    (integral._KernelIntegrand(2.0, 1.5),
     lambda t: t * bessel_kernel(2.0 * t, 1.5)),
    (integral._KernelIntegrand(3.0, -2.0),
     lambda t: t * bessel_kernel(3.0 * t, -2.0)),
], ids=["cos", "cosh", "kernel-j", "kernel-i"])
def test_value_integrand_values_equal_calls_node_by_node(h, oracle):
    ts, _ = _node_transform(0.2, 3, 256)
    assert h.values(ts).tobytes() == array("d", [oracle(t) for t in ts]).tobytes()


@pytest.mark.parametrize("extra, n", [(0, 128), (3, 256)])
@pytest.mark.parametrize("h", [
    integral._TrigIntegrand(math.cos, 3.0),
    integral._TrigIntegrand(math.cosh, 7.0),
    integral._KernelIntegrand(2.0, 1.5),
], ids=["cos", "cosh", "kernel"])
def test_level_values_read_the_t_i_of_the_levels_chain(h, extra, n):
    # the level holds its Legendre rule; the t_i come from the chain
    level = _level(extra, n)
    integral._level_values.cache_clear()
    try:
        got = integral._level_values(h, level)
    finally:
        integral._level_values.cache_clear()
    ts = integral._sine_map_chain(level)[0]
    assert got.tobytes() == h.values(ts).tobytes()


def test_kernel_integrands_of_either_zero_sign_share_equal_values():
    plus = integral._KernelIntegrand(0.5, 0.0)
    minus = integral._KernelIntegrand(0.5, -0.0)
    assert plus == minus and hash(plus) == hash(minus)
    ts, _ = _node_transform(1.0, 0, 128)
    assert (array("d", [t * bessel_kernel(0.5 * t, 0.0) for t in ts]).tobytes()
            == array("d", [t * bessel_kernel(0.5 * t, -0.0) for t in ts]).tobytes())
    assert plus.values(ts).tobytes() == minus.values(ts).tobytes()


@pytest.mark.parametrize("make", [
    lambda: weighted_integral(integral._TrigIntegrand(math.cos, 1.0), 0.5,
                              QuadConfig(max_refinements=1100)),
    lambda: eval_w_cos(IntegralRepParams(1, 0.5, 1, 1),
                       QuadConfig(max_refinements=1100)),
    lambda: QuadConfig(nodes=2**1100),
    lambda: QuadConfig(nodes=2**20 + 1, max_refinements=1),
    lambda: QuadConfig(nodes=2, max_refinements=10**30),
    lambda: QuadConfig(nodes=10**5000),
], ids=["weighted-integral", "eval-w-cos", "nodes", "nodes-past-2**20",
        "refinements-past-any-level", "nodes-past-4300-digits"])
def test_quad_config_refuses_a_last_level_past_2_to_the_20(make):
    # these ended in a bare OverflowError from pi * last in weighted_integral
    with pytest.raises(InvalidParameter) as raised:
        make()
    assert str(raised.value) == "nodes * 2**max_refinements must be at most 2**20"


def test_quad_config_checks_the_counts_before_the_last_level():
    with pytest.raises(InvalidParameter, match="^nodes must be an integer"):
        QuadConfig(nodes=1, max_refinements=1100)
    with pytest.raises(InvalidParameter, match="^max_refinements must be"):
        QuadConfig(nodes=2**1100, max_refinements=0)


def test_quad_config_takes_a_last_level_of_2_to_the_20():
    # construction only: Newton on 2**20 nodes would run for hours
    assert QuadConfig(nodes=128, max_refinements=13).max_refinements == 13
    assert QuadConfig(nodes=2**19, max_refinements=1).nodes == 2**19


def _table_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "gauss_legendre_table.py"
    spec = importlib.util.spec_from_file_location("gauss_legendre_table", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_committed_legendre_table_equals_the_tool_output():
    tool = _table_tool()
    assert tool.TARGET.read_text(encoding="utf-8") == tool.render()
    assert tuple(_gauss_legendre.HALF_RULES) == tool.SIZES
    assert integral.HALF_RULES is _gauss_legendre.HALF_RULES


def _package_without_the_table(tmp_path, cut):
    """The tool, the committed table, and the table's path in a copy of the
    package under ``tmp_path / "src"`` that lacks it, or holds it cut in
    half as an interrupted write leaves it."""
    tool = _table_tool()
    committed = tool.TARGET.read_text(encoding="utf-8")
    package = tmp_path / "src" / "kbessel"
    shutil.copytree(tool.ROOT / "src" / "kbessel", package,
                    ignore=shutil.ignore_patterns("_gauss_legendre.py",
                                                  "__pycache__"))
    table = package / "_gauss_legendre.py"
    if cut:
        table.write_text(committed[:len(committed) // 2], encoding="utf-8")
    return tool, committed, table


@pytest.mark.parametrize("cut", [False, True], ids=["missing", "cut-short"])
def test_legendre_table_tool_rebuilds_a_missing_or_broken_table(tmp_path,
                                                                cut):
    # the tool imports kbessel.integral, which imports the table: the tool
    # stands in an empty one for it
    tool, committed, table = _package_without_the_table(tmp_path, cut)
    (tmp_path / "tools").mkdir()
    script = shutil.copy(tool.__file__, tmp_path / "tools")
    done = subprocess.run([sys.executable, script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert table.read_text(encoding="utf-8") == committed


@pytest.mark.parametrize("cut, error", [(False, "ModuleNotFoundError"),
                                        (True, "SyntaxError")],
                         ids=["missing", "cut-short"])
def test_integral_does_not_import_without_the_table(tmp_path, cut, error):
    # it imported with an empty table, and Newton served every level
    _package_without_the_table(tmp_path, cut)
    done = subprocess.run([sys.executable, "-c", "import kbessel.integral"],
                          cwd=tmp_path / "src", capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 1
    assert "kbessel" in done.stderr and "_gauss_legendre" in done.stderr
    assert done.stderr.splitlines()[-1].startswith(f"{error}: ")

