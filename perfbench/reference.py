"""Fixed pure-Python work that gauges how fast the machine runs right now.

On a shared machine the same command can take 1.5 times longer for minutes
at a time.  ``run.py`` runs this program in a fresh interpreter right before
every measured command and divides the command's time by this program's
time, so those spells cancel out of the ratios.

The work resembles kbessel's: a double-double power series, summed
with error-free transformations in function calls that return tuples.  It
imports nothing from kbessel, so no change to the library moves it.  Do not
change it either: every ratio is measured against it.
"""

from __future__ import annotations

import math

_SPLIT = 134217729.0  # 2**27 + 1


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    t = _SPLIT * a
    ahi = t - (t - a)
    alo = a - ahi
    t = _SPLIT * b
    bhi = t - (t - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _series(x: float) -> float:
    """cos(x) as a double-double sum of its power series."""
    q = -x * x
    shi, slo = 0.0, 0.0
    thi, tlo = 1.0, 0.0
    r = 0
    while abs(thi) > 1e-34 * max(1.0, abs(shi)):
        shi, e = _two_sum(shi, thi)
        slo += e + tlo
        phi, plo = _two_prod(thi, q)
        d = float((2 * r + 1) * (2 * r + 2))
        thi, tlo = phi / d, (plo + tlo * q) / d
        r += 1
    return shi + slo


def main() -> None:
    total = 0.0
    for _ in range(3):
        for i in range(1, 1501):
            total += _series(0.01 * i)
    if not math.isfinite(total):
        raise SystemExit("reference work produced a non-finite sum")


if __name__ == "__main__":
    main()
