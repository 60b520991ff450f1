"""Tests for the in-repo log-gamma / digamma / trigamma kernels.

Fixture values were generated by independent brute-force oracles
(tests/oracles.py): 40-digit quadrature of the Euler integral for ln_gamma,
and directly summed series with integral tail corrections for digamma and
trigamma.  They are frozen here as literals; only the seeded error-bound
test compares against mpmath at run time.
"""

import math
import random

import mpmath as mp
import pytest

from kbessel.classical import EULER_GAMMA, digamma, ln_gamma, trigamma
from kbessel.errors import DomainError

# x -> ln(Gamma(x)) to 25 significant digits (quadrature oracle)
LN_GAMMA_FIXTURES = [
    (0.1, "2.252712651734205959869702"),
    (0.35, "0.9345812271462322739688196"),
    (0.5, "0.5723649429247000870716346"),
    (1.4616321449683622, "-0.1214862905358496080955146"),
    (2.5, "0.2846828704729191596324947"),
    (3.7, "1.428072326665388129200498"),
    (5.0, "3.178053830347945619646942"),
    (8.25, "9.033186919605122853274557"),
    (11.9, "17.2584774505955220118785"),
    (12.5, "18.73434751193644570163412"),
    (20.0, "39.33988418719949403622465"),
    (47.25, "133.9131137469892733849302"),
]

# x -> psi(x) (series oracle, 300k terms + tail)
DIGAMMA_FIXTURES = [
    (0.25, -4.227453533376265),
    (0.6, -1.5406192138931907),
    (1.0, -0.5772156649015328),
    (1.8, 0.28499143329386145),
    (2.5, 0.7031566406452433),
    (3.3, 1.0348224890596216),
    (4.75, 1.4492040552784629),
    (6.0, 1.7061176684318005),
    (9.5, 2.19773787640295),
    (14.25, 2.621259006359801),
]

# x -> psi'(x) (series oracle, 200k terms + tail)
TRIGAMMA_FIXTURES = [
    (0.25, 17.197329154507113),
    (0.6, 3.6362096709023572),
    (1.0, 1.6449340668482264),
    (1.8, 0.7369741375017003),
    (2.5, 0.4903577561002349),
    (3.3, 0.3535015418410618),
    (4.75, 0.23422874157914197),
    (6.0, 0.18132295573711535),
    (9.5, 0.11099728846909905),
    (14.25, 0.07269527572625784),
]


@pytest.mark.parametrize("x,expected", LN_GAMMA_FIXTURES)
def test_ln_gamma_against_quadrature_fixture(x, expected):
    want = float(expected)
    got = ln_gamma(x)
    assert got == pytest.approx(want, rel=5e-15, abs=5e-15)


@pytest.mark.parametrize("x", [v for v, _ in LN_GAMMA_FIXTURES])
def test_ln_gamma_matches_libm(x):
    # the recurrence shift costs a few ulps of absolute error near small x
    assert ln_gamma(x) == pytest.approx(math.lgamma(x), rel=2e-15, abs=5e-15)


def test_ln_gamma_exact_anchors():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=5e-15)
    assert ln_gamma(2.0) == pytest.approx(0.0, abs=5e-15)
    # Gamma(0.5) = sqrt(pi)
    assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=2e-14)


def test_ln_gamma_functional_equation():
    for x in (0.05, 0.31, 1.7, 4.2, 9.9, 25.0):
        lhs = ln_gamma(x + 1.0)
        rhs = ln_gamma(x) + math.log(x)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("x,expected", DIGAMMA_FIXTURES)
def test_digamma_against_series_fixture(x, expected):
    assert digamma(x) == pytest.approx(expected, rel=2e-14, abs=2e-14)


def test_digamma_at_one_is_minus_euler_gamma():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-15)


def test_digamma_functional_equation():
    for x in (0.1, 0.75, 2.25, 6.5, 11.0):
        assert digamma(x + 1.0) == pytest.approx(
            digamma(x) + 1.0 / x, rel=1e-13, abs=1e-13
        )


@pytest.mark.parametrize("x,expected", TRIGAMMA_FIXTURES)
def test_trigamma_against_series_fixture(x, expected):
    assert trigamma(x) == pytest.approx(expected, rel=2e-13, abs=2e-14)


def test_trigamma_at_one_is_pi_squared_over_six():
    assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-14)


def test_trigamma_functional_equation():
    for x in (0.1, 0.75, 2.25, 6.5, 11.0):
        assert trigamma(x + 1.0) == pytest.approx(
            trigamma(x) - 1.0 / (x * x), rel=1e-12, abs=1e-13
        )


@pytest.mark.parametrize("fn", [ln_gamma, digamma, trigamma])
@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
def test_nonpositive_arguments_rejected(fn, bad):
    with pytest.raises(DomainError):
        fn(bad)


def _seeded_arguments(seed: int, count: int, low: float):
    """Half uniform on (0, 30], where the argument shift runs and the
    zeros of ln Gamma and psi lie; half log-uniform over [low, 2.5e305]."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            yield 30.0 - rng.uniform(0.0, 30.0)
        else:
            yield math.exp(rng.uniform(math.log(low), math.log(2.5e305)))


# fn, its mpmath reference, the bound's power of 2, whether the bound adds 1
# to |f| (absolute near the zeros of ln Gamma and psi), the lowest argument
# drawn (psi' passes the double range below 2^-512) and the sample count
_BOUNDS = [
    (ln_gamma, mp.loggamma, -45, True, 1e-300, 20000),
    (digamma, mp.digamma, -49, True, 1e-300, 4000),
    (trigamma, lambda x: mp.polygamma(1, x), -50, False, 1e-150, 4000),
]


@pytest.mark.parametrize("fn, exact, power, plus_one, low, count", _BOUNDS,
                         ids=[row[0].__name__ for row in _BOUNDS])
def test_error_bound_stated_in_the_module_docstring(fn, exact, power,
                                                    plus_one, low, count):
    worst = 0.0
    with mp.workdps(30):
        for x in _seeded_arguments(2046, count, low):
            want = exact(mp.mpf(x))
            scale = abs(want) + 1 if plus_one else abs(want)
            worst = max(worst, float(abs(fn(x) - want) / scale))
    assert worst <= 2.0 ** power
