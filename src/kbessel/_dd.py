"""Double-double ("dd") arithmetic: pairs (hi, lo) with hi + lo exact.

Dekker's error-free product (Numer. Math. 18, 1971) and the dd-times-double
product built on it.  The series ratio -c (x/2)^2 is formed with them; the
series loop in ``kbessel._series`` writes the same operations out inline
and splits with the same ``_SPLITTER``, leaving out what is exact there:
an integer 0 <= r <= 2^26 splits as (r, 0), since 134217729 r is exact,
and a two-sum with a zero operand is (lo + 0.0, +0.0).  Neither dropped
zero can change a bit, because the sums it would join are never -0.0.

The Dekker split in ``two_prod`` has no overflow guard: an operand above
about 2^996 overflows it and the product comes out NaN.  The series engine
does not prevent such terms; it raises Overflow when its sums turn NaN.
"""

from __future__ import annotations

_SPLITTER = 134217729.0  # 2**27 + 1


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


def dd_mul_d(ahi: float, alo: float, b: float) -> tuple[float, float]:
    p1, p2 = two_prod(ahi, b)
    p2 += alo * b
    return quick_two_sum(p1, p2)
