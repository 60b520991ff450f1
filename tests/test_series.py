"""Tests for the power-series evaluator and its derivative/recurrence tools.

Classical-limit fixtures were frozen from a 60-term 40-digit summation of the
classical Bessel series (tests/oracles.py); generalized spot values come from
a series whose every gamma factor was taken from defining-integral quadrature
(w_series_quad), so they are independent of the package's gamma code paths.
"""

import hashlib
import math
import random
import struct
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kbessel import (
    DomainError,
    InvalidParameter,
    KBesselError,
    KBesselParams,
    NonConvergence,
    Overflow,
    SeriesConfig,
    deriv_w,
    deriv_w_terms,
    eval_normalized_i,
    eval_normalized_j,
    eval_w,
    eval_w_with_derivatives,
    k_gamma,
    k_pochhammer,
    ln_k_gamma,
    multisection_lhs,
    recurrence_step_up,
)
from kbessel import kbessel as kbessel_module
from kbessel.kbessel import (_HANKEL_MIN_Y, EvalResult, _hankel,
                             _leading_term, _series, _split, _tail_estimate,
                             _two_prod, _two_sum)

# (nu, x) -> J_nu(x), 60-term 40-digit oracle, correctly rounded doubles
BESSEL_J_FIXTURES = [
    ((0.0, 1.0), 0.7651976865579666),
    ((0.0, 2.0), 0.22389077914123567),
    ((0.0, 0.5), 0.9384698072408129),
    ((1.0, 1.0), 0.4400505857449335),
    ((2.0, 1.0), 0.11490348493190047),
    ((0.5, 1.0), 0.6713967071418031),
]

# (nu, x) -> I_nu(x)
BESSEL_I_FIXTURES = [
    ((0.0, 1.0), 1.2660658777520084),
    ((1.0, 1.0), 0.565159103992485),
    ((2.0, 1.0), 0.13574766976703828),
    ((0.5, 1.0), 0.9376748882454876),
]

# (k, nu, c, x) -> W value (quadrature-gamma series oracle)
W_SPOT_FIXTURES = [
    ((0.5, 0.7, 1.0, 2.0), 0.8027752315264247),
    ((2.0, -0.5, 1.0, 1.0), 0.9684891272048516),
    ((2.5, 1.3, -2.0, 0.8), 0.4722583777198384),
    ((1.5, 0.0, 2.0, 1.5), 0.3794394250428917),
]


def test_params_validation_messages():
    with pytest.raises(InvalidParameter, match="k must be positive"):
        KBesselParams(0.0, 1.0, 1.0)
    with pytest.raises(InvalidParameter, match="k must be positive"):
        KBesselParams(-2.0, 1.0, 1.0)
    with pytest.raises(InvalidParameter, match="nu must exceed -k"):
        KBesselParams(1.0, -2.0, 1.0)
    with pytest.raises(InvalidParameter, match="nu must exceed -k"):
        KBesselParams(1.0, -1.0, 1.0)  # boundary excluded
    with pytest.raises(InvalidParameter):
        KBesselParams(1.0, math.nan, 1.0)
    with pytest.raises(InvalidParameter):
        KBesselParams(1.0, 1.0, math.nan)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["k", "nu", "c"])
def test_params_refuse_a_non_finite_field_by_name(field, value):
    args = {"k": 1.0, "nu": 0.5, "c": 1.0, field: value}
    with pytest.raises(InvalidParameter, match=f"^{field} must be finite"):
        KBesselParams(**args)


def test_series_config_validation():
    with pytest.raises(InvalidParameter):
        SeriesConfig(rel_tol=0.0)
    with pytest.raises(InvalidParameter):
        SeriesConfig(rel_tol=1.5)
    with pytest.raises(InvalidParameter):
        SeriesConfig(max_terms=0)
    # the kernel splits r + 1 <= max_terms exactly only up to 2^26
    assert SeriesConfig(max_terms=2**26).max_terms == 2**26
    with pytest.raises(InvalidParameter, match="2\\*\\*26"):
        SeriesConfig(max_terms=2**26 + 1)
    # a non-integer count, or True, which would count as one term
    for value in (2.5, True):
        with pytest.raises(InvalidParameter, match="^max_terms must be an integer"):
            SeriesConfig(max_terms=value)


@pytest.mark.parametrize("args,expected", BESSEL_J_FIXTURES)
def test_classical_j_reduction(args, expected):
    nu, x = args
    res = eval_w(KBesselParams(1.0, nu, 1.0), x)
    # the leading term's log/exp round trip costs a few ulps at nu > 0
    assert res.value == pytest.approx(expected, rel=2e-14, abs=5e-16)


def test_classical_j_bit_identity_at_unit_argument():
    # the flagship regression value must round-trip exactly
    res = eval_w(KBesselParams(1.0, 0.0, 1.0), 1.0)
    assert res.value == 0.7651976865579666


@pytest.mark.parametrize("args,expected", BESSEL_I_FIXTURES)
def test_classical_i_reduction(args, expected):
    nu, x = args
    res = eval_w(KBesselParams(1.0, nu, -1.0), x)
    assert res.value == pytest.approx(expected, rel=2e-14, abs=5e-16)


def test_half_order_closed_forms():
    # I_{1/2}(x) = sqrt(2/(pi x)) sinh x, J_{1/2}(x) = sqrt(2/(pi x)) sin x
    for x in (0.5, 1.0, 3.0):
        pref = math.sqrt(2.0 / (math.pi * x))
        got_i = eval_w(KBesselParams(1.0, 0.5, -1.0), x).value
        got_j = eval_w(KBesselParams(1.0, 0.5, 1.0), x).value
        assert got_i == pytest.approx(pref * math.sinh(x), rel=2e-14)
        assert got_j == pytest.approx(pref * math.sin(x), rel=2e-14)


@pytest.mark.parametrize("args,expected", W_SPOT_FIXTURES)
def test_generalized_spot_values(args, expected):
    k, nu, c, x = args
    res = eval_w(KBesselParams(k, nu, c), x)
    assert res.value == pytest.approx(expected, rel=5e-13)
    # truncation estimate must cover the true gap (plus double rounding)
    assert abs(res.value - expected) <= res.est_error + 1e-13 * abs(expected)


def test_x_zero_limits():
    res0 = eval_w(KBesselParams(2.0, 0.0, 1.0), 0.0)
    assert res0.value == 1.0 and res0.terms_used == 1 and res0.est_error == 0.0
    res1 = eval_w(KBesselParams(1.5, 0.7, -2.0), 0.0)
    assert res1.value == 0.0 and res1.terms_used == 1
    with pytest.raises(DomainError):
        eval_w(KBesselParams(2.0, -0.5, 1.0), 0.0)


def test_negative_and_nan_x_rejected():
    p = KBesselParams(1.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        eval_w(p, -1.0)
    with pytest.raises(DomainError):
        eval_w(p, math.nan)


_P = KBesselParams(1.0, 1.0, 1.0)


@pytest.mark.parametrize("x", [math.inf, -math.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize("call", [
    lambda x: eval_w(_P, x),
    lambda x: eval_w_with_derivatives(_P, x),
    lambda x: deriv_w(_P, x, 1),
    lambda x: multisection_lhs(_P, x, 5),
    lambda x: eval_normalized_i(_P, x),
    lambda x: eval_normalized_j(_P, x),
    lambda x: recurrence_step_up(_P, x, 0.4, 0.7),
], ids=["eval_w", "eval_w_with_derivatives", "deriv_w", "multisection_lhs",
        "eval_normalized_i", "eval_normalized_j", "recurrence_step_up"])
def test_non_finite_x_is_a_domain_error_before_any_term(monkeypatch, call, x):
    def no_terms(*args):
        raise AssertionError("a series term was evaluated")

    monkeypatch.setattr(kbessel_module, "_series", no_terms)
    monkeypatch.setattr(kbessel_module, "_hankel", no_terms)
    with pytest.raises(DomainError, match="finite"):
        call(x)


def test_deriv_w_at_zero_refuses_a_negative_lowest_ladder_order(monkeypatch):
    def no_terms(*args):
        raise AssertionError("a series term was evaluated")

    monkeypatch.setattr(kbessel_module, "_series", no_terms)
    # nu >= 0, so eval_w admits x = 0 at nu; the ladder's nu - m k does not
    with pytest.raises(DomainError, match=r"deriv_w at x = 0 requires "
                       r"nu - m\*k >= 0, got nu - m\*k = -0\.5 "):
        deriv_w(KBesselParams(1.0, 0.5, 1.0), 0.0, 1)


def test_deriv_w_at_zero_where_the_ladder_admits_it():
    # nu = m k: W^(m)(0) = 1 / (2k)^m from the lowest order's limit 1
    assert deriv_w(KBesselParams(2.0, 4.0, 1.0), 0.0, 2) == EvalResult(
        0.0625, 1, 0.0)
    # nu > m k: every ladder order is positive, so every term vanishes
    assert deriv_w(KBesselParams(1.0, 2.5, -1.0), 0.0, 2).value == 0.0


def test_c_zero_single_term():
    p = KBesselParams(1.5, 0.8, 0.0)
    x = 2.0
    res = eval_w(p, x)
    want = math.exp((p.nu / p.k) * math.log(x / 2.0) - ln_k_gamma(p.nu + p.k, p.k))
    assert res.value == want
    assert res.terms_used == 1
    assert res.est_error == 0.0


def test_c_zero_derivatives_are_the_leading_term_products():
    # at c = 0 W', W'' are t0 b/x and t0 b (b-1)/x^2 with the double
    # b = nu/k; the kernel rounds 3 and 7 times on the way, so allow that
    for k, nu, x in ((0.5, -0.3, 1e-3), (1.5, 0.8, 2.0), (2.0, 4.6, 37.0),
                     (0.3, 0.0, 0.7), (1.0, 1.0, 1e-100), (7.0, 20.0, 1e3)):
        res, d1, d2 = eval_w_with_derivatives(KBesselParams(k, nu, 0.0), x)
        assert res.value == eval_w(KBesselParams(k, nu, 0.0), x).value
        assert (res.terms_used, res.est_error) == (1, 0.0)
        with mp.workdps(40):
            t0, b, xx = mp.mpf(res.value), mp.mpf(nu / k), mp.mpf(x)
            want1 = float(t0 * b / xx)
            want2 = float(t0 * b * (b - 1) / xx ** 2)
        assert abs(d1 - want1) <= 3 * math.ulp(want1)
        assert abs(d2 - want2) <= 7 * math.ulp(want2)


def test_c_zero_at_huge_argument_keeps_the_single_term():
    # (x/2)^2 = 4.9e307 fits, but the Dekker split in its dd product does not
    p = KBesselParams(1.0, 2.0, 0.0)
    x = 1.4e154
    res = eval_w(p, x)
    assert res.value == pytest.approx(0.25 * x * x / 2.0, rel=1e-13)
    assert (res.terms_used, res.est_error) == (1, 0.0)


def test_underflowing_ratio_ends_the_series_at_its_first_term():
    # (x/2)^2 underflows to 0, so every later term is exactly 0
    for c in (-1.0, 1.0):
        res = eval_w(KBesselParams(1.0, 0.5, c), 1e-170)
        assert res.value == eval_w(KBesselParams(1.0, 0.5, 0.0), 1e-170).value
        assert (res.terms_used, res.est_error) == (1, 0.0)


@pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
def test_derivatives_refuse_an_overflowing_inverse_square(c):
    with pytest.raises(Overflow, match="1/x\\^2"):
        eval_w_with_derivatives(KBesselParams(1.0, 0.5, c), 1e-200)


def test_derivative_sums_beyond_double_range_raise():
    # W'' = t0 b (b-1)/x^2 is about 3e344 here, beyond double range
    with pytest.raises(Overflow, match="W' or W'' sums overflow"):
        eval_w_with_derivatives(KBesselParams(0.5, -0.15, 0.0), 1e-150)


@pytest.mark.parametrize("k,nu,c,x,message", [
    # b = 1: the r = 0 term of W'' is 0 and t_1 = 2.5e-421 underflows,
    # though its multiplier 6/x^2 is 6e280 and W'' is about 1.5e-140
    (0.5, 0.5, -1.0, 1e-140, "W'' sum underflows to 0.0"),
    # b = 0 and q = -c (x/2)^2 = 2.5e-401 underflows to 0, so the sums stop
    # at t_0, whose multipliers are 0; W' is about 5e-301
    (1.0, 0.0, -1e-200, 1e-100, "W' sum underflows to 0.0"),
])
def test_derivative_sum_that_underflows_to_zero_raises(k, nu, c, x, message):
    with pytest.raises(Overflow, match=message):
        eval_w_with_derivatives(KBesselParams(k, nu, c), x)
    # at c = 0 the same zero multipliers give the true 0.0
    _, d1, d2 = eval_w_with_derivatives(KBesselParams(k, nu, 0.0), x)
    assert d2 == 0.0 and (d1 == 0.0) == (nu == 0.0)


@pytest.mark.parametrize("x", [0.045, 0.05])
def test_subnormal_leading_term_is_refused(x):
    # t_0 = (x/2)^100 / 100! is subnormal here and keeps too few bits: the
    # double is 11.6% (x = 0.045) and 1.2e-6 (x = 0.05) away from mpmath's
    p = KBesselParams(1.0, 100.0, -1.0)
    with mp.workdps(40):
        want = (mp.mpf(x) / 2) ** 100 / mp.factorial(100)
    t0 = math.exp(100.0 * math.log(x / 2.0) - ln_k_gamma(101.0, 1.0))
    assert abs(t0 / want - 1) > 1e-6
    for fn in (_leading_term, eval_w, eval_w_with_derivatives):
        with pytest.raises(Overflow, match="below the normal double range"):
            fn(p, x)
    # in the normal range the same function matches I_100 again
    with mp.workdps(40):
        want = float(mp.besseli(100, 0.1))
    assert eval_w(p, 0.1).value == pytest.approx(want, rel=2e-14)


def _w2_oracle(k, nu, c, x):
    """W'' summed term by term in 40-digit mpmath, with
    Gamma_k(r k + nu + k) = k^(r+b) Gamma(r+b+1)."""
    with mp.workdps(40):
        b, x = mp.mpf(nu) / k, mp.mpf(x)

        def term(r):
            m = 2 * r + b
            return ((-c) ** r * (x / 2) ** m * m * (m - 1) / x ** 2
                    / (k ** (r + b) * mp.gamma(r + b + 1) * mp.factorial(r)))
        return mp.nsum(term, [0, mp.inf])


@pytest.mark.parametrize("x", [1e-107, 1.6e-106, 1e-104])
def test_derivative_sum_of_subnormal_terms_is_refused(x):
    # b = 1, so W'' rests on t_1 ~ x^3/4, subnormal here, times 6/x^2
    k, nu, c = 0.5, 0.5, -1.0
    p = KBesselParams(k, nu, c)
    _, _, d2 = _series(_leading_term(p, x), c, x, k, nu, SeriesConfig(),
                       True)
    assert abs(d2 / _w2_oracle(k, nu, c, x) - 1) > SeriesConfig().rel_tol
    with pytest.raises(Overflow, match="W'' sum underflows to .* normal"):
        eval_w_with_derivatives(p, x)


@pytest.mark.parametrize("x", [1e-102, 1e-101])
def test_derivative_sum_of_normal_terms_is_kept(x):
    k, nu, c = 0.5, 0.5, -1.0
    _, _, d2 = eval_w_with_derivatives(KBesselParams(k, nu, c), x)
    assert d2 == pytest.approx(float(_w2_oracle(k, nu, c, x)), rel=3e-14)


@pytest.mark.parametrize("nu,message", [(0.5, "underflows"),
                                        (-0.5, "exceeds double range")])
def test_leading_term_when_half_x_underflows(nu, message):
    p = KBesselParams(1.0, nu, 1.0)
    for fn in (eval_w, eval_w_with_derivatives):
        with pytest.raises(Overflow, match=message):
            fn(p, 5e-324)


def _series_layer_digest(seed: int, count: int) -> str:
    """sha256 over the reprs of the four series entry points (results or
    typed errors) at seeded points; k, b = nu/k, |c| and y = x sqrt(|c|/k)
    span the ranges of the series-points benchmark."""
    rng = random.Random(seed)
    ln_range = (math.log(0.1), math.log(10.0))
    ln_y = (math.log(0.01), math.log(100.0))
    digest = hashlib.sha256()
    for _ in range(count):
        k = math.exp(rng.uniform(*ln_range))
        b = 10.0 - 11.0 * rng.random()
        c = math.copysign(math.exp(rng.uniform(*ln_range)), rng.random() - 0.5)
        x = math.exp(rng.uniform(*ln_y)) / math.sqrt(abs(c) / k)
        p = KBesselParams(k, b * k, c)
        for fn in (eval_w, eval_normalized_i, eval_normalized_j,
                   eval_w_with_derivatives):
            try:
                out = fn(p, x)
            except KBesselError as exc:
                out = f"{type(exc).__name__}: {exc}"
            digest.update(repr(out).encode())
    return digest.hexdigest()


def test_series_layer_bits_are_pinned():
    # value, terms_used, est_error, W' and W'' of 1000 points, bit for bit;
    # a refactor of the series layer must leave this digest unchanged.
    # Since eval_w takes the Hankel expansion at y >= 35, 118 eval_w entries
    # there differ from the series' (worst error against mpmath: c > 0 from
    # 3.8e9 to 8.5e-15 relative, c < 0 from 9.6e-15 to 2.5e-15).  Since the
    # route starts at y >= 17 and serves the normalized functions and the
    # derivatives too, the entries that differ (worst relative error
    # against mpmath over them, before -> after) are 59 eval_w (c > 0
    # 6.3e-15 -> 5.7e-15, c < 0 8.0e-15 -> 2.5e-15), 168 eval_normalized_i
    # (2.5e-15 -> 1.0e-14, within est_error), 171 eval_normalized_j
    # (6.8e96 -> 1.5e-14) and 199 eval_w_with_derivatives: c > 0 W 3.8e9 ->
    # 1.1e-14, W' 9.3e26 -> 2.9e-14, W'' 2.3e25 -> 5.3e-6 (W at nu + 2k
    # still from the series past y = 35 where (b + 2)^2 > 2y); c < 0 W
    # 9.8e-15 -> 5.9e-15, W' 1.0e-14 -> 7.2e-15, W'' 9.8e-15 -> 5.9e-15.
    # Since t0's error bound takes ln Gamma within 2^-45 (|ln Gamma| + 1),
    # the bound classical states, not within 4 ulp of itself, the
    # est_error of 171 eval_normalized_i and 171 eval_normalized_j entries
    # at y >= 17 grew 1.26x to 15.8x (median 5.8x); no value moved
    # (digest 26bbca33f18c13eec3bee2d92be48c459f4f503a8dd5f02f0f03d56a955c0436
    # before)
    assert _series_layer_digest(2024, 1000) == (
        "facb5abe91f5e5acda04935b8a07bc0140369f94e67754cfc8f634c29295c0e4")


# The composed double-double ("dd") operations, as the series loop ran them
# before it was written out inline; _reference_series is that loop, the
# oracle for kbessel._series's bits, its ratio -c (x/2)^2 included.  The
# loop's comments call two_prod the exact product and dd_mul_d dd times
# double.

_SPLITTER = 134217729.0  # 2**27 + 1


def quick_two_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def two_prod(a, b):
    """Dekker's error-free product (Numer. Math. 18, 1971); an operand
    above about 2^996 overflows the split and the product is NaN."""
    p = a * b
    ta = _SPLITTER * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLITTER * b
    bhi = tb - (tb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def dd_mul_d(ahi, alo, b):
    p1, p2 = two_prod(ahi, b)
    p2 += alo * b
    return quick_two_sum(p1, p2)


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _dd_add(ahi, alo, bhi, blo):
    s1, s2 = _two_sum(ahi, bhi)
    t1, t2 = _two_sum(alo, blo)
    s2 += t1
    s1, s2 = quick_two_sum(s1, s2)
    s2 += t2
    return quick_two_sum(s1, s2)


def _dd_mul(ahi, alo, bhi, blo):
    p1, p2 = two_prod(ahi, bhi)
    p2 += ahi * blo + alo * bhi
    return quick_two_sum(p1, p2)


def _dd_div(ahi, alo, bhi, blo):
    q1 = ahi / bhi
    thi, tlo = dd_mul_d(bhi, blo, q1)
    rhi, rlo = _dd_add(ahi, alo, -thi, -tlo)
    q2 = rhi / bhi
    thi, tlo = dd_mul_d(bhi, blo, q2)
    rhi, rlo = _dd_add(rhi, rlo, -thi, -tlo)
    q3 = rhi / bhi
    q1, q2 = quick_two_sum(q1, q2)
    return _dd_add(q1, q2, q3, 0.0)


def _reference_series(t0, c, x, k, nu, cfg, derivs):
    """kbessel._series term by term through the composed dd functions."""
    rel_tol = cfg.rel_tol
    if derivs:
        b = nu / k
        inv_x = 1.0 / x
        inv_x2 = inv_x * inv_x
        if not math.isfinite(inv_x2):
            raise Overflow(f"1/x^2 exceeds double range at x = {x!r}")
    # exactly 0 at c = 0, where the product is NaN past the split's range
    qhi, qlo = (dd_mul_d(*two_prod(0.5 * x, 0.5 * x), -c) if c != 0.0
                else (0.0, 0.0))
    s0h = s0l = s1h = s1l = s2h = s2l = 0.0
    thi, tlo = t0, 0.0
    streak = 0
    r = 0
    while True:
        s0h, s0l = _dd_add(s0h, s0l, thi, tlo)
        tiny = abs(thi) <= rel_tol * abs(s0h)
        if derivs:
            m = 2.0 * r + b
            m1 = m * inv_x
            m2 = m * (m - 1.0) * inv_x2
            g1h, g1l = dd_mul_d(thi, tlo, m1)
            s1h, s1l = _dd_add(s1h, s1l, g1h, g1l)
            g2h, g2l = dd_mul_d(thi, tlo, m2)
            s2h, s2l = _dd_add(s2h, s2l, g2h, g2l)
            tiny = (tiny and abs(thi * m1) <= rel_tol * abs(s1h)
                    and abs(thi * m2) <= rel_tol * abs(s2h))
        if qhi == 0.0:
            est = 0.0
            break
        phi, plo = two_prod(float(r), k)
        phi, plo = _dd_add(phi, plo, nu, 0.0)
        phi, plo = _dd_add(phi, plo, k, 0.0)
        dhi, dlo = dd_mul_d(phi, plo, float(r + 1))
        nhi, nlo = _dd_mul(thi, tlo, qhi, qlo)
        nhi, nlo = _dd_div(nhi, nlo, dhi, dlo)
        if tiny:
            streak += 1
            if streak >= 2:
                ratio_next = abs(qhi) / ((r + 2) * ((r + 1) * k + nu + k))
                est = _tail_estimate(nhi, ratio_next, alternating=qhi < 0.0)
                break
        else:
            streak = 0
        r += 1
        if r >= cfg.max_terms:
            if math.isnan(s0h + s1h + s2h):
                raise Overflow("series terms exceed the double-double range "
                               "(above about 2^996)")
            raise NonConvergence(
                f"{'derivative ' if derivs else ''}series did not meet "
                f"rel_tol={cfg.rel_tol} within max_terms={cfg.max_terms}"
            )
        thi, tlo = nhi, nlo
    if not math.isfinite(est):
        raise Overflow(f"series truncation estimate {est!r} is not finite "
                       f"at x = {x!r}")
    d1, d2 = s1h + s1l, s2h + s2l
    if not (math.isfinite(d1) and math.isfinite(d2)):
        raise Overflow(f"W' or W'' sums overflow in dd at x = {x!r}")
    return EvalResult(s0h + s0l, r + 1, est), d1, d2


def _series_cases(seed, count):
    """(t0, c, x, k, nu) at seeded log-uniform k in [1e-3, 1e3], b = nu/k
    in (-1, 50], |c| in [1e-3, 1e6] of either sign and x in [1e-6, 1e3].
    t0 = exp(ln t0) is formed as _leading_term forms it, but a subnormal
    t0, which _leading_term refuses, is kept: the loop runs on any t0 > 0.
    Points whose parameters are refused, or whose t0 leaves the double
    range, are left out."""
    rng = random.Random(seed)
    ln = math.log
    cases = []
    while len(cases) < count:
        k = math.exp(rng.uniform(ln(1e-3), ln(1e3)))
        b = 50.0 - 51.0 * rng.random()
        c = math.copysign(math.exp(rng.uniform(ln(1e-3), ln(1e6))),
                          rng.random() - 0.5)
        x = math.exp(rng.uniform(ln(1e-6), ln(1e3)))
        try:
            p = KBesselParams(k, b * k, c)
            t0 = math.exp(p.nu / k * ln(x / 2.0) - ln_k_gamma(p.nu + k, k))
        except (KBesselError, OverflowError):
            continue
        if t0 > 0.0:
            cases.append((t0, c, x, k, p.nu))
    return cases


def _outcome(series, t0, c, x, k, nu, derivs, cfg=SeriesConfig()):
    """The bytes of series(...)'s (EvalResult, W', W''), or its error."""
    try:
        res, d1, d2 = series(t0, c, x, k, nu, cfg, derivs)
    except KBesselError as exc:
        return type(exc).__name__, str(exc)
    return struct.pack("<dqddd", res.value, res.terms_used, res.est_error,
                       d1, d2)


# The loop itself, past the memo: a check of its bits must run it
_series_loop = _series.__wrapped__


def _oracle_digest(seed, count):
    """sha256 over _series's outcomes, without and with derivatives, at
    _series_cases; the same number for every version of the loop that keeps
    its bits."""
    digest = hashlib.sha256()
    for case in _series_cases(seed, count):
        for derivs in (False, True):
            digest.update(repr(_outcome(_series_loop, *case,
                                        derivs)).encode())
    return digest.hexdigest()


def test_inline_series_loop_matches_the_composed_dd_loop():
    for case in _series_cases(8, 2000):
        for derivs in (False, True):
            assert (_outcome(_series_loop, *case, derivs)
                    == _outcome(_reference_series, *case, derivs))


@given(k=st.floats(1e-3, 1e3), c=st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0]),
       x=st.floats(1e-3, 30.0), derivs=st.booleans())
@settings(max_examples=300, deadline=None)
def test_zero_signs_merged_by_the_memo_key_give_the_same_bits(k, c, x,
                                                               derivs):
    # the memo keys by value, so +0.0 and -0.0 in c or nu share an entry:
    # the sum must not tell them apart (through the memo, every sign would
    # get the first one's entry and this would test nothing)
    signed_c = (0.0, -0.0) if c == 0.0 else (c,)
    outcomes = {_outcome(_series_loop, 1.0, cc, x, k, nu, derivs)
                for cc in signed_c for nu in (0.0, -0.0)}
    assert len(outcomes) == 1


_dd_operands = st.tuples(st.floats(2.0 ** -450, 2.0 ** 450),
                         st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@given(a=_dd_operands, b=_dd_operands)
@settings(max_examples=500, deadline=None)
def test_dd_helpers_are_exact(a, b):
    # in this range no half, product of halves or error term leaves the
    # normal doubles, so each identity holds exactly in rationals
    halves = _split(a) + _split(b)
    for v in (a, b):
        hi, lo = _split(v)
        assert Fraction(hi) + Fraction(lo) == Fraction(v)
    for u in halves:
        for w in halves:
            assert Fraction(u * w) == Fraction(u) * Fraction(w)
    s, e = _two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)
    p, e = _two_prod(a, b)
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


def test_memo_keeps_int_and_float_arguments_apart():
    cfg = SeriesConfig()
    _series.cache_clear()
    as_int = _series(1, 1, 2, 1, 0, cfg, True)
    as_float = _series(1.0, 1.0, 2.0, 1.0, 0.0, cfg, True)
    info = _series.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
    assert repr(as_int) == repr(as_float)


@pytest.mark.parametrize("point,max_terms,kinds", [
    ((1.5, 0.8, 0.0, 2.0), 500, ("bytes", "bytes")),  # q = 0 at c = 0
    # q underflows to 0; 1/x^2 (formed for the derivatives only) overflows
    ((1.0, 0.5, -1.0, 1e-170), 500, ("bytes", "Overflow")),
    ((1.0, 0.5, 1.0, 1e-200), 500, ("bytes", "Overflow")),
    # c = 0 where the dd product -c (x/2)^2 would be NaN; the derivative
    # products split t_0 = 2.5e307, past 2^996, so their sums are NaN
    ((1.0, 2.0, 0.0, 1.4e154), 500, ("bytes", "Overflow")),
    # NaN sums at the term cap, and the cap itself
    ((1.0, 0.0, -1.0, 700.0), 500, ("Overflow", "Overflow")),
    ((1.0, 0.0, 1.0, 10.0), 5, ("NonConvergence", "NonConvergence")),
])
def test_inline_series_loop_matches_the_composed_dd_loop_at_the_edges(
        point, max_terms, kinds):
    k, nu, c, x = point
    t0 = _leading_term(KBesselParams(k, nu, c), x)
    cfg = SeriesConfig(max_terms=max_terms)
    for derivs, kind in zip((False, True), kinds):
        got = _outcome(_series_loop, t0, c, x, k, nu, derivs, cfg)
        assert got == _outcome(_reference_series, t0, c, x, k, nu, derivs,
                               cfg)
        assert ("bytes" if isinstance(got, bytes) else got[0]) == kind


def test_nonconvergence_when_capped():
    with pytest.raises(NonConvergence):
        eval_w(KBesselParams(1.0, 0.0, 1.0), 10.0, SeriesConfig(max_terms=5))


@pytest.mark.parametrize("point", [
    # the tail ratio passes 1, so the geometric tail bound was inf
    (4.026635228128277e-272, -3.0101399046596114e-272,
     -3.027328357047112e-104, 2.447096922888813e-44),
    # the denominators pass 2^996, where their Dekker split overflows: the
    # next term, and with it the bound, was NaN
    (3.189084879067676e+299, 0.0, -1.1138020969990753e+83,
     9.92117819730378e-82),
    (2.8674823095059733e+299, 8.481517599465234e+298,
     7.059819053185098e-96, 8.972596527035867),
])
def test_a_non_finite_truncation_estimate_raises_overflow(point):
    k, nu, c, x = point
    with pytest.raises(Overflow, match="truncation estimate"):
        eval_w(KBesselParams(k, nu, c), x)


def _classical_w(k, nu, c, x):
    """(|c| k)^(-b/2) C_b(y) in 40-digit mpmath, C = J for c > 0 and I for
    c < 0, with b = nu/k and y = x sqrt(|c|/k)."""
    with mp.workdps(40):
        k_, c_ = mp.mpf(k), mp.mpf(c)
        b = mp.mpf(nu) / k_
        y = mp.mpf(x) * mp.sqrt(abs(c_) / k_)
        bessel = mp.besselj if c > 0 else mp.besseli
        return (abs(c_) * k_) ** (-b / 2) * bessel(b, y)


def _within_est_error(res, k, nu, c, x):
    with mp.workdps(40):
        return abs(mp.mpf(res.value) - _classical_w(k, nu, c, x)) <= res.est_error


def test_terms_beyond_the_dekker_split_raise_overflow():
    # W is about 2.45e307 at y = 0.14, but the leading term passes 2^996,
    # where the dd product's split overflows and the sum turns NaN
    with pytest.raises(Overflow, match="double-double range"):
        eval_w(KBesselParams(1.0, 2.0, 1e-310), 1.4e154)
    # at y = 700 the series' terms pass it too; eval_w takes the Hankel
    # expansion there and returns I_0(700) = 1.53e302
    p = KBesselParams(1.0, 0.0, -1.0)
    with pytest.raises(Overflow, match="double-double range"):
        _series(_leading_term(p, 700.0), -1.0, 700.0, 1.0, 0.0,
                SeriesConfig(), False)
    res = eval_w(p, 700.0)
    assert res.value == pytest.approx(1.5295933476718737e302, rel=1e-14)
    assert _within_est_error(res, 1.0, 0.0, -1.0, 700.0)


def test_overflow_guard_on_leading_term():
    # (nu/k) ln(x/2) dominates ln Gamma_k for large x at high order ratio;
    # eval_w takes the Hankel expansion at this y = 6.3e7, with the phase
    # y - (b/2 + 1/4) pi in double-double
    p = KBesselParams(0.1, 10.0, 1.0)
    with pytest.raises(Overflow, match="leading series term"):
        _leading_term(p, 2.0e7)
    res = eval_w(p, 2.0e7)
    assert _within_est_error(res, 0.1, 10.0, 1.0, 2.0e7)


@pytest.mark.parametrize("x", [1e8, 1e12, 1e15])
def test_large_argument_phase_is_kept_in_double_double(x):
    # the low part of the phase y - pi/4 reaches 0.06 at y = 1e15, so
    # cos and sin of it are taken whole, not to first order
    res = eval_w(KBesselParams(1.0, 0.0, 1.0), x)
    assert _within_est_error(res, 1.0, 0.0, 1.0, x)
    assert res.est_error <= 1e-14 * math.sqrt(2.0 / (math.pi * x))


@given(y=st.floats(_HANKEL_MIN_Y, 1e3), b=st.floats(-1.0, 10.0, exclude_min=True),
       k=st.floats(math.log(0.1), math.log(10.0)),
       c=st.floats(math.log(0.1), math.log(10.0)), negative=st.booleans())
@settings(max_examples=300, deadline=None)
def test_large_argument_values_lie_within_est_error(y, b, k, c, negative):
    # k and |c| log-uniform in [0.1, 10]; each value eval_w takes from the
    # Hankel expansion lands within its est_error of mpmath, or the call
    # raises a typed error.  Where the expansion's terms grow from the
    # first (b^2 above about 2y) eval_w sums the series, whose est_error
    # counts truncation only, so those points are not drawn.
    k, c = math.exp(k), math.copysign(math.exp(c), -1.0 if negative else 1.0)
    nu, x = b * k, y / math.sqrt(abs(c) / k)
    p = KBesselParams(k, nu, c)
    assume(x * math.sqrt(abs(c) / k) >= _HANKEL_MIN_Y)
    try:
        routed = _hankel(p, x, SeriesConfig())
        assume(routed is not None)
        res = eval_w(p, x)
    except KBesselError:
        return
    assert res == routed
    assert _within_est_error(res, k, nu, c, x)


def test_hankel_expansion_agrees_with_the_series_on_the_overlap():
    # c < 0 at 25 <= y <= 35, where both routes hold
    rng = random.Random(7)
    cfg = SeriesConfig()
    checked = 0
    for _ in range(200):
        k = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        c = -math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        b = 10.0 - 11.0 * rng.random()
        x = rng.uniform(25.0, 35.0) / math.sqrt(-c / k)
        p = KBesselParams(k, b * k, c)
        res = _hankel(p, x, cfg)
        if res is None:  # b^2 above about 2y: its terms grow from the first
            continue
        want = _series(_leading_term(p, x), c, x, k, b * k, cfg, False)[0]
        assert res.value == pytest.approx(want.value, rel=1e-13)
        checked += 1
    assert checked >= 100


@pytest.mark.parametrize("b", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("c", [1.0, -1.0])
def test_hankel_serves_from_the_crossover_on(b, c):
    # the expansion certifies rel_tol 1e-14 at y = 17 for these orders, so
    # the series is never asked past it for them
    p = KBesselParams(1.0, b, c)
    res = _hankel(p, _HANKEL_MIN_Y, SeriesConfig())
    assert res is not None
    assert _within_est_error(res, 1.0, b, c, _HANKEL_MIN_Y)


def _classical_derivatives(k, nu, c, x):
    """(W, W', W'') and the envelope of each in 40-digit mpmath: C_b(y),
    C = J for c > 0 and I for c < 0, and its derivatives, with one chain
    factor sqrt(|c|/k) per order; the envelope is that of J, or the value
    itself for I."""
    with mp.workdps(40):
        k_, c_, x_ = mp.mpf(k), mp.mpf(c), mp.mpf(x)
        b = mp.mpf(nu) / k_
        chain = mp.sqrt(abs(c_) / k_)
        y = x_ * chain
        scale = (abs(c_) * k_) ** (-b / 2)
        bessel = mp.besselj if c > 0 else mp.besseli
        want = [scale * chain ** j * bessel(b, y, derivative=j)
                for j in range(3)]
        if c > 0:
            envelope = [scale * chain ** j * mp.sqrt(2 / (mp.pi * y))
                        for j in range(3)]
        else:
            envelope = [abs(w) for w in want]
        return want, envelope


def test_derivatives_at_large_argument_match_mpmath():
    # W, W' and W'' from eval_w at nu, nu + k and nu + 2k, at y in [17, 100]
    # where the Hankel expansion serves all three orders ((b + 2)^2 <= 2y);
    # a component within 1% of its envelope from a zero is not compared
    rng = random.Random(18)
    ln = math.log
    compared = 0
    for _ in range(300):
        k = math.exp(rng.uniform(ln(0.1), ln(10.0)))
        c = math.copysign(math.exp(rng.uniform(ln(0.1), ln(10.0))),
                          rng.random() - 0.5)
        b = 10.0 - 11.0 * rng.random()
        y = math.exp(rng.uniform(ln(_HANKEL_MIN_Y), ln(100.0)))
        if (b + 2.0) ** 2 > 2.0 * y:
            continue
        x = y / math.sqrt(abs(c) / k)
        res, d1, d2 = eval_w_with_derivatives(KBesselParams(k, b * k, c), x)
        want, envelope = _classical_derivatives(k, b * k, c, x)
        for got, w, env in zip((res.value, d1, d2), want, envelope):
            if abs(w) < 0.01 * env:
                continue
            assert abs(got - w) <= 1e-12 * abs(w), (k, b * k, c, x)
            compared += 1
    assert compared >= 300


@pytest.mark.parametrize("k, nu, c, x", [
    # huge |c|: I_0(700) = 1.5e302 is a double, and so is W, but
    # W' = -c W_(nu+k) = 1e200 I_1(700) / 1e100 is not
    (1.0, 0.0, -1e200, 7e-98),
    # tiny x: W = I_(1/2)(700) is a double, (b/x) W = 7e131 W is not
    (1e-135, 0.5e-135, -1e135, 7e-133),
])
def test_raised_order_derivatives_outside_double_range_raise(k, nu, c, x):
    p = KBesselParams(k, nu, c)
    assert math.isfinite(eval_w(p, x).value)
    with pytest.raises(Overflow, match="W' from the raised orders"):
        eval_w_with_derivatives(p, x)


@pytest.mark.parametrize("fn, c", [(eval_normalized_i, -1.0),
                                   (eval_normalized_j, 1.0)])
def test_normalized_values_at_large_argument_lie_within_est_error(fn, c):
    # W / t_0 where the Hankel expansion serves W; at y = x / sqrt(k) in
    # [17, 600] (I_b(y) is a double there) each lands within its est_error
    # of mpmath
    rng = random.Random(19)
    ln = math.log
    served = 0
    for _ in range(200):
        k = math.exp(rng.uniform(ln(0.1), ln(10.0)))
        b = 10.0 - 11.0 * rng.random()
        x = math.exp(rng.uniform(ln(_HANKEL_MIN_Y), ln(600.0))) * math.sqrt(k)
        p = KBesselParams(k, b * k, c)
        if _hankel(p, x, SeriesConfig()) is None:
            continue
        res = fn(p, x)
        with mp.workdps(40):
            # t_0 = (x/2)^b / Gamma_k(nu + k), Gamma_k(nu + k) = k^b Gamma(b + 1)
            b_ = mp.mpf(b * k) / k
            t0 = (mp.mpf(x) / 2) ** b_ / (mp.mpf(k) ** b_ * mp.gamma(b_ + 1))
            want = _classical_w(k, b * k, c, x) / t0
            assert abs(mp.mpf(res.value) - want) <= res.est_error
        assert fn(p, -x) == res  # even in x
        served += 1
    assert served >= 100


def _hankel_digest(seed, count):
    """sha256 over _hankel's (value, terms_used, est_error), or its error,
    at count seeded points that eval_w routes to it: k and |c| log-uniform
    in [0.1, 10] of either sign, b = nu/k in (-1, 10] and y in [35, 1e3].
    Points where it returns None (the series serves them) are drawn again."""
    rng = random.Random(seed)
    ln = math.log
    cfg = SeriesConfig()
    digest = hashlib.sha256()
    routed = 0
    while routed < count:
        k = math.exp(rng.uniform(ln(0.1), ln(10.0)))
        c = math.copysign(math.exp(rng.uniform(ln(0.1), ln(10.0))),
                          rng.random() - 0.5)
        b = 10.0 - 11.0 * rng.random()
        x = rng.uniform(35.0, 1e3) / math.sqrt(abs(c) / k)
        if x * math.sqrt(abs(c) / k) < _HANKEL_MIN_Y:
            continue
        try:
            res = _hankel(KBesselParams(k, b * k, c), x, cfg)
        except KBesselError as exc:
            outcome = f"{type(exc).__name__}: {exc}".encode()
        else:
            if res is None:
                continue
            outcome = struct.pack("<dqd", res.value, res.terms_used,
                                  res.est_error)
        digest.update(outcome)
        routed += 1
    return digest.hexdigest()


def test_hankel_route_bits_are_pinned():
    # CI pins the same draw at 200k points
    assert _hankel_digest(9, 2000) == (
        "34eec0253a078843e655b709ed997719ee6430528288c701dad45c0990d677cd")


def test_terms_used_reported_and_bounded():
    cfg = SeriesConfig()
    small = eval_w(KBesselParams(1.0, 0.0, 1.0), 0.5, cfg)
    large = eval_w(KBesselParams(1.0, 0.0, 1.0), 8.0, cfg)
    assert 1 <= small.terms_used < large.terms_used <= cfg.max_terms


def test_normalized_values_at_zero_are_exactly_one():
    p = KBesselParams(1.7, -0.3, 0.0)
    assert eval_normalized_i(p, 0.0).value == 1.0
    assert eval_normalized_j(p, 0.0).value == 1.0


def test_normalized_functions_are_even():
    p = KBesselParams(0.8, 0.4, 0.0)
    for x in (0.3, 1.1, 2.7):
        assert eval_normalized_i(p, -x).value == eval_normalized_i(p, x).value
        assert eval_normalized_j(p, -x).value == eval_normalized_j(p, x).value


def test_normalized_scaling_recovers_w():
    # normalized * (x/2)^(nu/k) / Gamma_k(nu+k) reproduces the series value
    for k, nu, x in ((1.0, 0.5, 1.3), (2.0, 1.1, 2.4), (0.6, -0.2, 0.9)):
        scale = math.exp((nu / k) * math.log(x / 2.0) - ln_k_gamma(nu + k, k))
        wi = eval_w(KBesselParams(k, nu, -1.0), x).value
        wj = eval_w(KBesselParams(k, nu, 1.0), x).value
        ni = eval_normalized_i(KBesselParams(k, nu, 0.0), x).value
        nj = eval_normalized_j(KBesselParams(k, nu, 0.0), x).value
        assert ni * scale == pytest.approx(wi, rel=5e-14)
        assert nj * scale == pytest.approx(wj, rel=5e-14)


def test_normalized_i_dominates_j():
    # all-positive terms vs alternating terms of the same magnitudes
    p = KBesselParams(1.3, 0.2, 0.0)
    for x in (0.5, 1.5, 3.0):
        assert eval_normalized_i(p, x).value >= eval_normalized_j(p, x).value


small_k = st.floats(min_value=0.3, max_value=3.0, allow_nan=False)
small_x = st.floats(min_value=1e-3, max_value=6.0, allow_nan=False)


@given(k=small_k, dnu=st.floats(min_value=0.05, max_value=3.0),
       c=st.sampled_from([1.0, -1.0, 0.5, -2.0]), x=small_x)
@settings(max_examples=150, deadline=None)
def test_three_term_recurrence_property(k, dnu, c, x):
    # c k W_(nu+k) = 2 nu W_nu / x - W_(nu-k), scale-aware comparison
    nu = dnu  # nu > 0 so nu - k > -k holds
    w_lo = eval_w(KBesselParams(k, nu - k, c), x).value
    w_mid = eval_w(KBesselParams(k, nu, c), x).value
    w_hi = eval_w(KBesselParams(k, nu + k, c), x).value
    lhs = c * k * w_hi
    rhs = 2.0 * nu * w_mid / x - w_lo
    scale = max(abs(c * k * w_hi), abs(2.0 * nu * w_mid / x), abs(w_lo), 1e-300)
    assert abs(lhs - rhs) <= 1e-10 * scale


def test_recurrence_step_up_matches_direct():
    for k, nu, c, x in ((1.0, 1.0, -1.0, 1.0), (2.0, 1.5, 1.0, 2.5),
                        (0.5, 0.7, -2.0, 1.2)):
        p = KBesselParams(k, nu, c)
        w_lo = eval_w(KBesselParams(k, nu - k, c), x).value
        w_mid = eval_w(p, x).value
        stepped = recurrence_step_up(p, x, w_mid, w_lo)
        direct = eval_w(KBesselParams(k, nu + k, c), x).value
        assert stepped == pytest.approx(direct, rel=1e-11, abs=1e-13)


def test_recurrence_step_up_reproduces_modified_bessel():
    # I_2(1) from I_0(1), I_1(1)
    p = KBesselParams(1.0, 1.0, -1.0)
    got = recurrence_step_up(p, 1.0, 0.565159103992485, 1.2660658777520084)
    assert got == pytest.approx(0.13574766976703828, rel=1e-12)


def test_recurrence_step_up_preconditions():
    with pytest.raises(InvalidParameter):
        recurrence_step_up(KBesselParams(1.0, 1.0, 0.0), 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameter):
        recurrence_step_up(KBesselParams(1.0, -0.5, 1.0), 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        recurrence_step_up(KBesselParams(1.0, 1.0, 1.0), 0.0, 1.0, 1.0)


def test_deriv_w_terms_first_order():
    p = KBesselParams(2.0, 2.5, 3.0)
    parts = deriv_w_terms(p, 1)
    # weights 1/(2k) and -c k/(2k) on orders nu -+ k
    assert parts == [(0.5, 1.0 / 4.0), (4.5, -3.0 * 2.0 / 4.0)]
    # sum over the ladder: weights at c=1,k=1 are binomial/2^m with signs
    q = KBesselParams(1.0, 3.0, 1.0)
    assert deriv_w_terms(q, 2) == [(1.0, 0.25), (3.0, -0.5), (5.0, 0.25)]


def test_deriv_w_terms_preconditions():
    p = KBesselParams(1.0, 0.5, 1.0)
    with pytest.raises(InvalidParameter):
        deriv_w_terms(p, 0)
    with pytest.raises(InvalidParameter):
        deriv_w_terms(p, 1.0)  # non-integer order
    with pytest.raises(InvalidParameter):
        deriv_w_terms(KBesselParams(1.0, -0.2, 1.0), 1)  # lowest order hits -k
    with pytest.raises(InvalidParameter):
        deriv_w_terms(p, 2)  # nu - 2k = -1.5 below -k


def test_deriv_w_terms_weights_beyond_double_range_raise():
    # c^3 = 1e900 overflows a double power
    with pytest.raises(Overflow, match="ladder weights exceed double range"):
        deriv_w_terms(KBesselParams(1.0, 5.0, 1e300), 3)
    # c^n k^n overflows in the product
    with pytest.raises(Overflow, match="ladder weights exceed double range"):
        deriv_w_terms(KBesselParams(1e200, 5e200, 1e200), 1)


def test_deriv_w_matches_finite_difference():
    h = 1e-6
    for k, nu, c, x in ((1.0, 1.5, 1.0, 1.2), (2.0, 3.0, -1.0, 2.0),
                        (0.8, 1.0, 2.0, 0.9)):
        p = KBesselParams(k, nu, c)
        fd = (eval_w(p, x + h).value - eval_w(p, x - h).value) / (2.0 * h)
        got = deriv_w(p, x, 1).value
        assert got == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_deriv_w_second_order_matches_finite_difference():
    h = 1e-4
    for k, nu, c, x in ((1.0, 2.5, 1.0, 1.3), (1.5, 3.5, -1.0, 2.1)):
        p = KBesselParams(k, nu, c)
        fd = (eval_w(p, x + h).value - 2.0 * eval_w(p, x).value
              + eval_w(p, x - h).value) / (h * h)
        got = deriv_w(p, x, 2).value
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_eval_w_with_derivatives_consistency():
    for k, nu, c, x in ((1.0, 0.0, 1.0, 1.0), (2.0, 1.3, -1.0, 2.2),
                        (0.7, 0.4, 2.0, 1.6)):
        p = KBesselParams(k, nu, c)
        res, d1, d2 = eval_w_with_derivatives(p, x)
        assert res.value == pytest.approx(eval_w(p, x).value, rel=1e-14)
        h = 1e-6
        fd1 = (eval_w(p, x + h).value - eval_w(p, x - h).value) / (2.0 * h)
        assert d1 == pytest.approx(fd1, rel=1e-7, abs=1e-9)
        h2 = 1e-4
        fd2 = (eval_w(p, x + h2).value - 2.0 * eval_w(p, x).value
               + eval_w(p, x - h2).value) / (h2 * h2)
        assert d2 == pytest.approx(fd2, rel=1e-6, abs=1e-6)


def test_eval_w_with_derivatives_requires_positive_x():
    p = KBesselParams(1.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        eval_w_with_derivatives(p, 0.0)


def test_classical_bessel_ode_residual():
    # x^2 y'' + x y' + (x^2 - nu^2) y = 0 for k=1, c=1
    for nu, x in ((0.0, 1.3), (1.0, 2.7), (2.0, 0.8)):
        p = KBesselParams(1.0, nu, 1.0)
        res, d1, d2 = eval_w_with_derivatives(p, x)
        resid = x * x * d2 + x * d1 + (x * x - nu * nu) * res.value
        scale = max(abs(x * x * d2), abs(x * d1), abs(x * x * res.value), 1.0)
        assert abs(resid) <= 1e-12 * scale


def test_multisection_converges_to_lower_order():
    # c = 0 leaves one nonzero term, so its omitted terms are exactly 0
    for k, nu, c, x, terms in ((1.0, 1.0, 1.0, 1.0, 25),
                               (2.0, 0.8, -1.0, 1.5, 25),
                               (0.7, 0.5, 1.0, 0.8, 25),
                               (2.0, 1.5, 0.0, 0.5, 2)):
        p = KBesselParams(k, nu, c)
        got = multisection_lhs(p, x, terms)
        want = eval_w(KBesselParams(k, nu - k, c), x).value
        assert got.value == pytest.approx(want, rel=1e-10, abs=1e-12)
        assert abs(got.value - want) <= got.est_error + 1e-12 * abs(want)


def test_multisection_flags_undecayed_truncation():
    with pytest.raises(NonConvergence):
        multisection_lhs(KBesselParams(1.0, 1.0, 1.0), 5.0, 1)


def test_multisection_preconditions():
    p = KBesselParams(1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameter):
        multisection_lhs(p, 1.0, 0)
    with pytest.raises(DomainError):
        multisection_lhs(p, 0.0, 5)


@pytest.mark.parametrize("call,message", [
    (lambda: multisection_lhs(KBesselParams(1.0, 2.0, 1.0), 0.5, True),
     "^terms must be an integer"),
    (lambda: deriv_w_terms(KBesselParams(1.0, 2.0, 1.0), True),
     "^derivative order m must be an integer"),
    (lambda: k_pochhammer(2.0, True, 1.0), "^n must be a non-negative integer"),
], ids=["multisection_lhs", "deriv_w_terms", "k_pochhammer"])
def test_counts_refuse_a_bool(call, message):
    # True would count as 1
    with pytest.raises(InvalidParameter, match=message):
        call()


def test_hankel_declines_where_its_phase_passes_rel_tol():
    # the dd phase w is right to 2^-99 (y + |w - y|), which passes 1e-14
    # between y = 5e15 and 7e15; the series cannot serve there either
    p = KBesselParams(1.0, 0.0, 1.0)
    assert _hankel(p, 5e15, SeriesConfig()) is not None
    assert _hankel(p, 7e15, SeriesConfig()) is None
    with pytest.raises(KBesselError):
        eval_w(p, 7e15)


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_hankel_declines_below_the_crossover(c):
    # the crossover is _hankel's own test, so no caller can ask the
    # expansion for a point the series serves
    p = KBesselParams(1.0, 0.0, c)
    assert _hankel(p, 16.9, SeriesConfig()) is None
    assert _hankel(p, _HANKEL_MIN_Y, SeriesConfig()) is not None


@pytest.mark.parametrize("fn,c", [(eval_normalized_i, -1.0),
                                  (eval_normalized_j, 1.0)])
def test_normalized_functions_ignore_c_on_the_hankel_route(fn, c):
    # at y = 40 the expansion serves c = -+1; a c of 2.0 would move y to
    # 40 sqrt(2) and change the value
    x = 40.0
    assert _hankel(KBesselParams(1.0, 0.5, c), x, SeriesConfig()) is not None
    assert fn(KBesselParams(1.0, 0.5, 2.0), x) == fn(KBesselParams(1.0, 0.5, c), x)
