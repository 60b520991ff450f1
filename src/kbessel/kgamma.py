"""The k-deformed gamma family: Gamma_k, its log, psi_k, psi_k', B_k and
the k-Pochhammer symbol.

Everything is routed through the scaling reduction

    Gamma_k(t) = k^(t/k - 1) * Gamma(t/k),

so log-space evaluation is exact wherever ``classical.ln_gamma`` is, and

    psi_k(t)  = log(k)/k + psi(t/k)/k,
    psi_k'(t) = psi'(t/k)/k^2,

which the tests confirm against direct summation of the defining series.
Parameters named ``k`` must be positive and finite everywhere;
``InvalidParameter`` is raised otherwise, while out-of-domain evaluation
points raise ``DomainError``.  A value or intermediate past the double
range raises ``Overflow`` through the guards of ``errors``.
"""

from __future__ import annotations

import functools
import math
import sys

from .classical import digamma, ln_gamma, trigamma
from .errors import (_MIN_NORMAL, DomainError, InvalidParameter, Overflow,
                     _exp_guarded, _finite, _normal)

__all__ = [
    "k_beta",
    "k_digamma",
    "k_gamma",
    "k_pochhammer",
    "k_trigamma",
    "ln_k_gamma",
]

# k_digamma sums log(t) and psi(t/k) - log(t/k) from here up
_LARGE_U = 2.0 ** 17


def _over_k_squared(value: float, k: float) -> float:
    """value / k^2, dividing by k twice where k^2 is not a normal double."""
    k2 = k * k
    if _MIN_NORMAL <= k2 <= sys.float_info.max:
        return value / k2
    return value / k / k


def _require_k(k: float) -> None:
    if not 0.0 < k < math.inf:
        raise InvalidParameter(f"k must be positive and finite, got {k}")


def k_pochhammer(x: float, n: int, k: float) -> float:
    """(x)_{n,k} = x (x+k) (x+2k) ... (x+(n-1)k); empty product for n = 0.

    Overflow at the first partial product past the double range, and where
    the product falls below the normal double range.  A factor of exactly 0
    ends the product: no later factor is negative, so its signed zero is the
    value, also where a later factor would overflow.
    """
    _require_k(k)
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise InvalidParameter(f"n must be a non-negative integer, got {n!r}")
    if math.isnan(x):
        raise DomainError("k_pochhammer requires a real x, got nan")
    result = 1.0
    for j in range(n):
        factor = x + j * k
        result *= factor
        if factor == 0.0:
            return result
        if not math.isfinite(result):  # no later factor makes it finite
            break
    _finite(result, "k_pochhammer({}, {}, {}) exceeds double range", x, n, k)
    return _normal(result, "k_pochhammer({}, {}, {}) underflows: {!r} is below "
                   "the normal double range", x, n, k, result)


@functools.lru_cache(maxsize=256)
def ln_k_gamma(t: float, k: float) -> float:
    """log Gamma_k(t) for t > 0.

    Overflow where t/k, ln Gamma(t/k) or the sum passes the double range,
    also where the two terms would cancel to a finite value: at
    (t, k) = (e, 1e-307) they are -inf and +inf in double.  Memoized: the
    verification sweeps ask for the same (t, k) again and again.
    """
    _require_k(k)
    if not t > 0.0:
        raise DomainError(f"ln_k_gamma requires t > 0, got {t}")
    # t = inf is left to ln_gamma's DomainError
    u = t if t == math.inf else _finite(
        t / k, "ln_k_gamma's t/k exceeds double range at t={}, k={}", t, k)
    return _finite((u - 1.0) * math.log(k) + ln_gamma(u),
                   "log Gamma_k({}, {}) exceeds double range", t, k)


def k_gamma(t: float, k: float) -> float:
    """Gamma_k(t) for t > -k, t != 0 (one functional-equation step below 0)."""
    _require_k(k)
    if t > 0.0:
        return _exp_guarded(ln_k_gamma(t, k), "Gamma_k({}, {})", t, k)
    if t == 0.0 or not t > -k:
        raise DomainError(f"k_gamma requires t > -k and t != 0, got t={t}, k={k}")
    # -k < t < 0: Gamma_k(t) = Gamma_k(t + k) / t
    return _finite(k_gamma(t + k, k) / t, "Gamma_k({}, {}) exceeds double range",
                   t, k)


def k_digamma(t: float, k: float) -> float:
    """psi_k(t), the log-derivative of Gamma_k, for t > 0.

    Where t/k is below the normal double range, psi's pole is split off:
    psi_k(t) = (log(k) + psi(1 + t/k))/k - 1/t.  For u = t/k >= 2^17,
    log(k) and psi(u) ~ log(u) cancel where t is near 1, so the sum is
    taken as psi_k(t) = (log(t) + R(u))/k with R(u) = psi(u) - log(u)
    = -1/(2u) - 1/(12u^2) + 1/(120u^4) - ..., whose first omitted term is
    below 2^-56 of R there (1/u is subnormal only past u = 2^1022, and the
    value then stays within 1e-15).  Just below 2^17 the plain reduction
    still runs; its relative error there reaches about 6e-10, near t = 1.
    Where t/k overflows, psi_k(t) = log(t)/k - 1/(2t), whose next term,
    -k/(12 t^2), is below 2^-1024 of the value.
    """
    _require_k(k)
    if not t > 0.0:
        raise DomainError(f"k_digamma requires t > 0, got {t}")
    u = t / k
    if u == math.inf:
        value = math.log(t) / k - 0.5 / t
    elif u >= _LARGE_U:
        inv_u = 1.0 / u
        value = (math.log(t) - inv_u * (0.5 + inv_u / 12.0)) / k
    elif u < _MIN_NORMAL:
        value = (math.log(k) + digamma(1.0 + u)) / k - 1.0 / t
    else:
        value = (math.log(k) + digamma(u)) / k
    return _finite(value, "psi_k({}, {}) exceeds double range", t, k)


def k_trigamma(t: float, k: float) -> float:
    """psi_k'(t) = sum_{n>=0} 1/(nk+t)^2, for t > 0.

    Where (t/k)^2 is below the normal double range, the pole is split off:
    psi_k'(t) = psi'(1 + t/k)/k^2 + 1/t^2.  Where t/k overflows,
    psi'(u) = 1/u + 1/(2u^2) + ... gives psi_k'(t) = 1/(t k) to rounding.
    """
    _require_k(k)
    if not t > 0.0:
        raise DomainError(f"k_trigamma requires t > 0, got {t}")
    if t < 2.0 ** -512:  # psi_k'(t) > 1/t^2 > 2^1024
        raise Overflow(f"psi_k'({t}, {k}) exceeds double range")
    u = t / k
    if u == math.inf:
        tk = t * k  # below the normal range t k has lost bits: divide twice
        value = 1.0 / tk if tk >= _MIN_NORMAL else 1.0 / t / k
    elif u * u < _MIN_NORMAL:
        inv_t = 1.0 / t
        value = _over_k_squared(trigamma(1.0 + u), k) + inv_t * inv_t
    else:
        value = _over_k_squared(trigamma(u), k)
    return _finite(value, "psi_k'({}, {}) exceeds double range", t, k)


def k_beta(x: float, y: float, k: float) -> float:
    """B_k(x, y) = Gamma_k(x) Gamma_k(y) / Gamma_k(x+y), for x, y > 0."""
    _require_k(k)
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"k_beta requires x > 0 and y > 0, got x={x}, y={y}")
    return _exp_guarded(ln_k_gamma(x, k) + ln_k_gamma(y, k) - ln_k_gamma(x + y, k),
                        "B_k({}, {}, {})", x, y, k)
