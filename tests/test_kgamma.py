"""Tests for the k-gamma family.

Fixture values come from independent brute-force oracles (tests/oracles.py):
40-digit quadrature of int_0^inf s^(t-1) exp(-s^k/k) ds for Gamma_k, direct
quadrature of the Euler-type integral for B_k, and directly summed series for
the k-digamma and k-trigamma.  They are frozen as literals below.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbessel.classical import digamma, trigamma
from kbessel.errors import DomainError, InvalidParameter, Overflow
from kbessel.kgamma import (
    k_beta,
    k_digamma,
    k_gamma,
    k_pochhammer,
    k_trigamma,
    ln_k_gamma,
)

# (t, k) -> ln Gamma_k(t) to 25 significant digits (quadrature oracle)
LN_K_GAMMA_FIXTURES = [
    ((3.7, 2.5), "0.3184955891746649170315209"),
    ((1.0, 0.5), "-0.693147180559945286226764"),
    ((2.2, 0.5), "-0.04059692247895654165779078"),
    ((0.3, 2.0), "1.238638672738831658648451"),
    ((5.0, 3.0), "0.6300933594847656360471433"),
    ((1.3, 0.7), "-0.3593327831064169197716751"),
]

# (x, y, k) -> B_k(x, y) (quadrature oracle)
K_BETA_FIXTURES = [
    ((0.8, 1.1, 0.9), "1.038616532646961541943934"),
    ((1.0, 2.0, 1.0), "0.5"),
    ((2.5, 0.5, 2.0), "1.85407467730137191843385"),
    ((1.5, 1.5, 0.5), "0.06666666666666666666666667"),
]

# (t, k) -> Psi_k(t) (series oracle)
K_DIGAMMA_FIXTURES = [
    ((1.3, 0.7), -0.0434345071467695),
    ((0.9, 0.5), -0.8163114945321674),
    ((2.0, 2.0), 0.05796575782920622),
    ((3.6, 1.4), 0.7671893843312658),
    ((5.5, 2.5), 0.5842336674461202),
    ((0.4, 1.0), -2.561384544585116),
    ((1.0, 3.0), -0.6778071637842321),
    ((2.7, 0.5), 1.7956220602777413),
    ((8.0, 2.0), 0.9746324244958728),
    ((1.7, 1.7), -0.027404361081977975),
]

# (t, k) -> Psi_k'(t) (series oracle)
K_TRIGAMMA_FIXTURES = [
    ((1.3, 0.7), 1.44525472190375),
    ((0.9, 0.5), 2.947896550006801),
    ((2.0, 2.0), 0.4112335167120566),
    ((3.6, 1.4), 0.24185651896076904),
    ((5.5, 2.5), 0.09166924175669355),
    ((0.4, 1.0), 7.275356590529597),
    ((1.0, 3.0), 1.1217330139363437),
    ((2.7, 0.5), 0.8135332596497244),
    ((8.0, 2.0), 0.07095573893427883),
    ((1.7, 1.7), 0.569181338009767),
]

pos = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
kpos = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)


@pytest.mark.parametrize("args,expected", LN_K_GAMMA_FIXTURES)
def test_ln_k_gamma_against_quadrature_fixture(args, expected):
    t, k = args
    assert ln_k_gamma(t, k) == pytest.approx(float(expected), rel=1e-13, abs=1e-13)


def test_ln_k_gamma_memo_returns_the_computed_bits():
    ln_k_gamma.cache_clear()
    first = ln_k_gamma(2.5, 0.75)
    again = ln_k_gamma(2.5, 0.75)
    info = ln_k_gamma.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (1, 1, 256)
    assert again == first == ln_k_gamma.__wrapped__(2.5, 0.75)
    with pytest.raises(DomainError):  # a refusal is not memoized
        ln_k_gamma(-1.0, 1.0)
    with pytest.raises(DomainError):
        ln_k_gamma(-1.0, 1.0)


def test_k_gamma_normalization_anchor():
    # Gamma_k(k) = 1 for every k
    for k in (0.25, 0.5, 1.0, 2.0, 3.7):
        assert k_gamma(k, k) == pytest.approx(1.0, rel=1e-14)
        assert ln_k_gamma(k, k) == pytest.approx(0.0, abs=1e-13)


def test_k_gamma_reduces_to_gamma_at_k_one():
    for t in (0.3, 1.0, 2.5, 6.0):
        assert k_gamma(t, 1.0) == pytest.approx(math.gamma(t), rel=1e-14)


def test_k_gamma_reflection_segment():
    # one functional-equation step below zero: Gamma(-0.5) = -2 sqrt(pi)
    assert k_gamma(-0.5, 1.0) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)
    # and the generalized step: Gamma_k(t) = Gamma_k(t + k)/t for -k < t < 0
    for t, k in ((-0.4, 1.5), (-1.2, 2.0), (-0.05, 0.5)):
        assert k_gamma(t, k) == pytest.approx(k_gamma(t + k, k) / t, rel=1e-13)


@given(t=pos, k=kpos)
@settings(max_examples=120, deadline=None)
def test_k_gamma_functional_equation(t, k):
    # Gamma_k(t + k) = t * Gamma_k(t)
    lhs = ln_k_gamma(t + k, k)
    rhs = ln_k_gamma(t, k) + math.log(t)
    assert lhs == pytest.approx(rhs, rel=2e-13, abs=2e-13)


@given(t=pos, k=kpos, n=st.integers(min_value=0, max_value=8))
@settings(max_examples=120, deadline=None)
def test_k_pochhammer_matches_gamma_ratio(t, k, n):
    # (t)_{n,k} = Gamma_k(t + n k) / Gamma_k(t)
    direct = k_pochhammer(t, n, k)
    via_gamma = math.exp(ln_k_gamma(t + n * k, k) - ln_k_gamma(t, k))
    assert direct == pytest.approx(via_gamma, rel=1e-11)


def test_k_pochhammer_small_cases():
    assert k_pochhammer(2.0, 0, 1.5) == 1.0
    assert k_pochhammer(2.0, 1, 1.5) == 2.0
    assert k_pochhammer(2.0, 3, 1.5) == 2.0 * 3.5 * 5.0
    with pytest.raises(InvalidParameter):
        k_pochhammer(2.0, -1, 1.5)
    with pytest.raises(InvalidParameter):
        k_pochhammer(2.0, 1.5, 1.5)
    with pytest.raises(DomainError):
        k_pochhammer(math.nan, 2, 1.5)
    with pytest.raises(InvalidParameter, match="k must be positive"):
        k_pochhammer(1.0, 2, math.inf)


@pytest.mark.parametrize("args,expected", K_BETA_FIXTURES)
def test_k_beta_against_quadrature_fixture(args, expected):
    x, y, k = args
    assert k_beta(x, y, k) == pytest.approx(float(expected), rel=1e-12)


@given(x=pos, y=pos, k=kpos)
@settings(max_examples=80, deadline=None)
def test_k_beta_symmetry(x, y, k):
    assert k_beta(x, y, k) == pytest.approx(k_beta(y, x, k), rel=1e-12)


@pytest.mark.parametrize("args,expected", K_DIGAMMA_FIXTURES)
def test_k_digamma_against_series_fixture(args, expected):
    t, k = args
    assert k_digamma(t, k) == pytest.approx(expected, rel=2e-12, abs=2e-13)


@pytest.mark.parametrize("args,expected", K_TRIGAMMA_FIXTURES)
def test_k_trigamma_against_series_fixture(args, expected):
    t, k = args
    assert k_trigamma(t, k) == pytest.approx(expected, rel=2e-12, abs=2e-13)


@given(t=pos, k=kpos)
@settings(max_examples=80, deadline=None)
def test_k_digamma_functional_equation(t, k):
    # Psi_k(t + k) = Psi_k(t) + 1/t
    assert k_digamma(t + k, k) == pytest.approx(
        k_digamma(t, k) + 1.0 / t, rel=1e-11, abs=1e-12
    )


@given(t=pos, k=kpos)
@settings(max_examples=80, deadline=None)
def test_k_trigamma_functional_equation(t, k):
    # Psi_k'(t + k) = Psi_k'(t) - 1/t^2
    assert k_trigamma(t + k, k) == pytest.approx(
        k_trigamma(t, k) - 1.0 / (t * t), rel=1e-10, abs=1e-12
    )


def test_k_digamma_is_log_derivative_of_ln_k_gamma():
    # h large enough that the few-ulp noise of ln_k_gamma stays below h^2
    h = 1e-5
    for t, k in ((1.3, 0.7), (2.0, 2.0), (5.5, 2.5), (0.9, 0.5)):
        fd = (ln_k_gamma(t + h, k) - ln_k_gamma(t - h, k)) / (2.0 * h)
        assert k_digamma(t, k) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_k_trigamma_is_second_log_derivative():
    h = 1e-3
    for t, k in ((1.3, 0.7), (2.0, 2.0), (5.5, 2.5)):
        fd = (ln_k_gamma(t + h, k) - 2.0 * ln_k_gamma(t, k)
              + ln_k_gamma(t - h, k)) / (h * h)
        assert k_trigamma(t, k) == pytest.approx(fd, rel=2e-5, abs=1e-6)


def test_domain_errors():
    with pytest.raises(InvalidParameter):
        ln_k_gamma(1.0, 0.0)
    with pytest.raises(InvalidParameter):
        ln_k_gamma(1.0, -2.0)
    with pytest.raises(InvalidParameter, match="k must be positive"):
        ln_k_gamma(1.0, math.inf)
    with pytest.raises(InvalidParameter, match="k must be positive"):
        k_gamma(1.0, math.inf)
    with pytest.raises(DomainError):
        ln_k_gamma(0.0, 1.0)
    with pytest.raises(DomainError):
        ln_k_gamma(-1.0, 1.0)
    with pytest.raises(DomainError):
        k_gamma(-3.0, 1.0)  # below -k
    with pytest.raises(DomainError):
        k_gamma(0.0, 1.0)
    with pytest.raises(DomainError):
        k_gamma(math.nan, 1.0)
    with pytest.raises(DomainError):
        k_beta(-1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        k_beta(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        k_digamma(-0.3, 1.0)
    with pytest.raises(DomainError):
        k_trigamma(0.0, 2.0)


@pytest.mark.parametrize("fn,args", [
    (k_beta, (1e-320, 1e-320, 1.0)),   # was a bare OverflowError from exp
    (k_trigamma, (1e-320, 1.0)),       # was a ZeroDivisionError
    (k_trigamma, (2.0 ** -512, 1.0)),  # 1/z^2 rounds to inf
    (k_gamma, (-1e-320, 1.0)),         # was -inf
    (k_digamma, (1e-320, 1.0)),        # was -inf
    (k_gamma, (200.0, 1.0)),
], ids=["beta", "trigamma", "trigamma-edge", "gamma-negative", "digamma",
        "gamma"])
def test_values_beyond_double_range_raise_overflow(fn, args):
    with pytest.raises(Overflow, match="exceeds double range"):
        fn(*args)


@pytest.mark.parametrize("fn,args", [
    (k_beta, (1000.0, 1000.0, 1.0)),  # about 1e-603, was 0.0
    (k_gamma, (1e-3, 1e-5)),          # about 9.3e-340, was 0.0
    (k_gamma, (9e-4, 1e-5)),          # about 1.65e-309, was a subnormal
], ids=["beta", "gamma-zero", "gamma-subnormal"])
def test_values_below_the_normal_double_range_raise_overflow(fn, args):
    with pytest.raises(Overflow,
                       match="underflows: .* below the normal double range"):
        fn(*args)


def test_trigamma_just_inside_double_range_is_finite():
    # psi'(z) ~ 1/z^2 = 1e308 still fits
    assert k_trigamma(1e-154, 1.0) == pytest.approx(1e308, rel=1e-15)


def _mp_k_digamma(t: float, k: float):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        t, k = mp.mpf(t), mp.mpf(k)
        return (mp.log(k) + mp.digamma(t / k)) / k


def _mp_k_trigamma(t: float, k: float):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        t, k = mp.mpf(t), mp.mpf(k)
        return mp.psi(1, t / k) / (k * k)


@pytest.mark.parametrize("t,k", [
    (1.0, 1e200),     # (t/k)^2 and k^2 leave the double range: 1/t^2 leads
    (1e150, 1e160),   # k^2 = inf; psi'(t/k) / k / k = 1e-300
    (1e-154, 1.0),    # (t/k)^2 is subnormal
    (1e-100, 1e170),  # (t/k)^2 underflows and k^2 overflows
])
def test_k_trigamma_outside_the_normal_range_matches_mpmath(t, k):
    assert k_trigamma(t, k) == pytest.approx(float(_mp_k_trigamma(t, k)),
                                             rel=4e-16, abs=0.0)


def test_k_trigamma_past_double_range_via_tiny_k_raises_overflow():
    # k^2 = 1e-340 underflows to 0; the true value is 1e320
    assert _mp_k_trigamma(1e-150, 1e-170) > 1e308
    with pytest.raises(Overflow, match="exceeds double range"):
        k_trigamma(1e-150, 1e-170)


@pytest.mark.parametrize("t,k", [
    (1e-300, 1e300),  # t/k = 1e-600 underflows to 0
    (1e-300, 1e10),   # t/k is subnormal
    (1e-200, 1e120),
])
def test_k_digamma_below_the_normal_range_matches_mpmath(t, k):
    assert k_digamma(t, k) == pytest.approx(float(_mp_k_digamma(t, k)),
                                            rel=4e-16, abs=0.0)


@pytest.mark.parametrize("t,k", [
    (1e300, 1e-10),   # t/k = 1e310 overflows to inf
    (1e308, 1e-5),
    (3.0, 1e-308),
    (1e200, 1e-200),
])
def test_digamma_and_trigamma_where_t_over_k_overflows_match_mpmath(t, k):
    assert t / k == math.inf
    assert k_digamma(t, k) == pytest.approx(float(_mp_k_digamma(t, k)),
                                            rel=4e-16, abs=0.0)
    assert k_trigamma(t, k) == pytest.approx(float(_mp_k_trigamma(t, k)),
                                             rel=4e-16, abs=0.0)


def _mp_k_digamma_large_u(t: float, k: float):
    """(log t + (psi(u) - log u))/k with u = t/k, carried with enough digits
    that psi(u) - log u, about -1/(2u), keeps 40 of its own."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40 + int(math.log10(t / k))):
        t, k = mp.mpf(t), mp.mpf(k)
        u = t / k
        return (mp.log(t) + (mp.digamma(u) - mp.log(u))) / k


@pytest.mark.parametrize("t,k,plain", [
    (1.0, 1e-10, -0.5000089),  # log(k) and psi(t/k) cancel to 5e-11
    (1.0, 1e-300, 0.0),        # ... and to nothing
    (1.0, 2.0 ** -17, None),   # u = 2^17, the first u summed this way
    (0.999, 1e-7, None),
    (3.0, 1e-8, None),
    (1e5, 1e-300, None),
])
def test_k_digamma_at_large_t_over_k_matches_mpmath(t, k, plain):
    want = float(_mp_k_digamma_large_u(t, k))
    assert k_digamma(t, k) == pytest.approx(want, rel=4e-16, abs=0.0)
    if plain is not None:  # what the plain reduction returned
        got = (math.log(k) + digamma(t / k)) / k
        assert got == pytest.approx(plain, rel=1e-6, abs=1e-300)
        assert got != pytest.approx(want, rel=1e-6)


def test_digamma_past_double_range_where_t_over_k_overflows_raises():
    # log(10)/1e-309 = 2.3e309
    with pytest.raises(Overflow, match="exceeds double range"):
        k_digamma(10.0, 1e-309)


@given(t=st.floats(1e-3, 1e3), k=st.floats(1e-2, 1e2))
@settings(max_examples=200, deadline=None)
def test_digamma_and_trigamma_bits_unchanged_in_the_normal_range(t, k):
    # where t/k, (t/k)^2 and k^2 are normal doubles, the plain reduction runs
    assert k_digamma(t, k) == (math.log(k) + digamma(t / k)) / k
    assert k_trigamma(t, k) == trigamma(t / k) / (k * k)
