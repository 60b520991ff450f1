"""Classical log-gamma, digamma and trigamma, implemented from scratch.

All three use the same scheme: shift the argument above 12 with the
recurrence, then apply the Stirling/asymptotic series with Bernoulli-number
coefficients through B14.  At the threshold the first dropped term is below
1e-16 of the result, so each routine is accurate to a few ulp over (0, inf)
— verified in the tests against defining-integral quadrature and
direct-summation oracles.  A value past the double range raises Overflow
(``errors._finite``).  Keeping these in-repo leaves the runtime library
free of third-party math dependencies.
"""

from __future__ import annotations

import math

from .errors import _MIN_NORMAL, _finite, _positive_x

# Euler-Mascheroni constant, 21 significant digits (rounds to the nearest
# double on assignment; the full literal is kept for documentation and for
# tests that parse it at higher precision).
EULER_GAMMA = 0.577215664901532860607

_LN_SQRT_TWO_PI = 0.91893853320467274178

_SHIFT_THRESHOLD = 12.0

# B_{2j} / (2j (2j-1)), j = 1..7  (Stirling series for log Gamma)
_LNGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

# B_{2j} / (2j), j = 1..7  (asymptotic series for digamma)
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# B_{2j}, j = 1..7  (asymptotic series for trigamma)
_TRIGAMMA_COEFFS = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def ln_gamma(x: float) -> float:
    """log Gamma(x) for finite x > 0; Overflow past x of about 2.56e305."""
    _positive_x("ln_gamma", x)
    if x == 1.0 or x == 2.0:
        # Gamma is exactly 1 at both points; the shifted Stirling sum would
        # return ~4e-16 noise here, which matters because these exact zeros
        # anchor downstream identities (leading series terms, ratios of
        # gamma values at integer arguments).
        return 0.0
    shift = 1.0
    z = x
    while z < _SHIFT_THRESHOLD:
        shift *= z
        z += 1.0
    z2 = 1.0 / (z * z)
    s = _LNGAMMA_COEFFS[-1]
    for c in reversed(_LNGAMMA_COEFFS[:-1]):
        s = s * z2 + c
    value = (z - 0.5) * math.log(z) - z + _LN_SQRT_TWO_PI + s / z
    if shift != 1.0:
        value -= math.log(shift)
    return _finite(value, "ln_gamma({}) exceeds double range", x)


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x) for finite x > 0; Overflow where 1/x
    overflows."""
    _positive_x("digamma", x)
    if x == 1.0:
        # psi(1) is exactly minus the Euler-Mascheroni constant; returning
        # the stored constant beats the shifted asymptotic sum by a few ulp.
        return -EULER_GAMMA
    acc = 0.0
    z = x
    while z < _SHIFT_THRESHOLD:
        acc -= 1.0 / z
        z += 1.0
    z2 = 1.0 / (z * z)
    s = _DIGAMMA_COEFFS[-1]
    for c in reversed(_DIGAMMA_COEFFS[:-1]):
        s = s * z2 + c
    return _finite(math.log(z) - 0.5 / z - s * z2 + acc,
                   "digamma({}) exceeds double range", x)


def trigamma(x: float) -> float:
    """psi'(x), the derivative of digamma, for finite x > 0.

    Where x^2 is below the normal double range, the pole is split off:
    psi'(x) = psi'(1 + x) + 1/x^2, with 1/x squared; Overflow where that
    passes the double range (x below 2^-512).
    """
    _positive_x("trigamma", x)
    if x * x < _MIN_NORMAL:
        inv_x = 1.0 / x
        return _finite(trigamma(1.0 + x) + inv_x * inv_x,
                       "trigamma({}) exceeds double range", x)
    acc = 0.0
    z = x
    while z < _SHIFT_THRESHOLD:
        acc += 1.0 / (z * z)
        z += 1.0
    z2 = 1.0 / (z * z)
    s = _TRIGAMMA_COEFFS[-1]
    for c in reversed(_TRIGAMMA_COEFFS[:-1]):
        s = s * z2 + c
    return 1.0 / z + 0.5 * z2 + s * z2 / z + acc
