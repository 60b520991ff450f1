"""Seeded evaluation points for ``series-points`` and their mpmath references.

Sampling, with b = nu/k and y = x*sqrt(|c|/k) the effective order and
argument of the classical reduction:

* k log-uniform on [0.1, 10];
* b uniform on (-1, 10];
* |c| log-uniform on [0.1, 10], either sign with equal odds;
* y log-uniform on [0.01, 100], so the large-y band ROADMAP item 1 targets
  is included, not trimmed;
* one point in four calls ``eval_w_with_derivatives``, the rest ``eval_w``.

References come from W = (|c| k)^(-b/2) C_b(y), C = J for c > 0 and I for
c < 0, at 40 digits; derivatives use mpmath's ``derivative=1, 2`` with one
chain factor sqrt(|c|/k) per order.  None of this touches kbessel.
"""

from __future__ import annotations

import math
import random

REL_TOL = 1e-12
BANDS = (("y0-1", 1.0), ("y1-10", 10.0), ("y10-35", 35.0), ("y35-100", math.inf))

_LN_RANGE = (math.log(0.1), math.log(10.0))
_LN_Y = (math.log(0.01), math.log(100.0))


def sample(seed: int, count: int) -> list[list]:
    """``count`` points ``[k, nu, c, x, with_derivatives]``, same for a seed."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        k = math.exp(rng.uniform(*_LN_RANGE))
        b = 10.0 - 11.0 * rng.random()  # (-1, 10]
        c = math.exp(rng.uniform(*_LN_RANGE))
        if rng.random() < 0.5:
            c = -c
        y = math.exp(rng.uniform(*_LN_Y))
        x = y / math.sqrt(abs(c) / k)
        points.append([k, b * k, c, x, rng.random() < 0.25])
    return points


def effective_y(point: list) -> float:
    k, _, c, x, _ = point
    return x * math.sqrt(abs(c) / k)


def band(point: list) -> str:
    y = effective_y(point)
    for name, upper in BANDS:
        if y < upper:
            return name
    raise ValueError(f"y={y} outside every band")


def known_defect(point: list) -> bool:
    """Inputs where the seed commit is known to return wrong values.

    ``eval_w`` with c > 0 loses its accuracy from y of about 35 (ROADMAP item
    1).  ``eval_w_with_derivatives`` with c > 0 sums W' and W'' with the
    multipliers applied in double precision, so their error grows with the
    cancellation, roughly like e^y: most points miss from y of about 10, and
    a component near a zero misses already at y of about 7.  Misses there
    are counted as failures, not hidden; a miss anywhere else marks the run
    incorrect.
    """
    _, _, c, _, with_derivatives = point
    return c > 0.0 and (with_derivatives or effective_y(point) >= 35.0)


def reference(point: list) -> list[float]:
    import mpmath as mp

    k, nu, c, x, with_derivatives = point
    with mp.workdps(40):
        k_, c_, x_ = mp.mpf(k), mp.mpf(c), mp.mpf(x)
        b = mp.mpf(nu) / k_
        chain = mp.sqrt(abs(c_) / k_)
        y = x_ * chain
        scale = (abs(c_) * k_) ** (-b / 2)
        bessel = mp.besselj if c > 0.0 else mp.besseli
        values = [scale * bessel(b, y)]
        if with_derivatives:
            values.append(scale * chain * bessel(b, y, derivative=1))
            values.append(scale * chain ** 2 * bessel(b, y, derivative=2))
        return [float(v) for v in values]


def accurate(got, want: list[float]) -> bool:
    """Every component within REL_TOL of the reference; an error string fails."""
    if isinstance(got, str) or len(got) != len(want):
        return False
    return all(abs(g - w) <= REL_TOL * abs(w) for g, w in zip(got, want))
