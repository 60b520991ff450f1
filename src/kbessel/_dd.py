"""Double-double ("dd") arithmetic: pairs (hi, lo) with hi + lo exact.

Error-free transformations (Knuth two-sum, Dekker split/product) and the
usual composite dd operations.  Used by the series engine so that the
cancellation-heavy alternating sums keep an effective ~31 decimal digits of
working precision; only the final rounding back to a double is lossy.

The Dekker split in ``two_prod`` has no overflow guard: an operand above
about 2^996 overflows it and the product comes out NaN.  The series engine
does not prevent such terms; it raises Overflow when its sums turn NaN.
"""

from __future__ import annotations

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a: float, b: float) -> tuple[float, float]:
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ta = _SPLITTER * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLITTER * b
    bhi = tb - (tb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def dd_add(ahi: float, alo: float, bhi: float, blo: float) -> tuple[float, float]:
    s1, s2 = two_sum(ahi, bhi)
    t1, t2 = two_sum(alo, blo)
    s2 += t1
    s1, s2 = quick_two_sum(s1, s2)
    s2 += t2
    return quick_two_sum(s1, s2)


def dd_mul(ahi: float, alo: float, bhi: float, blo: float) -> tuple[float, float]:
    p1, p2 = two_prod(ahi, bhi)
    p2 += ahi * blo + alo * bhi
    return quick_two_sum(p1, p2)


def dd_mul_d(ahi: float, alo: float, b: float) -> tuple[float, float]:
    p1, p2 = two_prod(ahi, b)
    p2 += alo * b
    return quick_two_sum(p1, p2)


def dd_div(ahi: float, alo: float, bhi: float, blo: float) -> tuple[float, float]:
    q1 = ahi / bhi
    thi, tlo = dd_mul_d(bhi, blo, q1)
    rhi, rlo = dd_add(ahi, alo, -thi, -tlo)
    q2 = rhi / bhi
    thi, tlo = dd_mul_d(bhi, blo, q2)
    rhi, rlo = dd_add(rhi, rlo, -thi, -tlo)
    q3 = rhi / bhi
    q1, q2 = quick_two_sum(q1, q2)
    return dd_add(q1, q2, q3, 0.0)
