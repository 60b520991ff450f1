"""Series evaluation of the generalized k-Bessel function and friends.

The function evaluated here is, for k > 0, nu > -k and parameter c,

    W(x) = sum_{r>=0} (-c)^r / (Gamma_k(r k + nu + k) * r!) * (x/2)^(2r + nu/k),

together with its normalized even relatives (leading coefficient 1, obtained
by multiplying with (2/x)^(nu/k) Gamma_k(nu+k)), term-wise derivatives,
the three-term order recurrence, the derivative ladder, and the alternating
multisection sum.

Evaluation strategy: the leading term is formed once in log space (so large
nu/k or extreme x cannot overflow the gamma factors), and every later term
follows from the exact functional-equation ratio

    t_{r+1} / t_r = -c (x/2)^2 / ((r+1)(r k + nu + k)),

accumulated in double-double arithmetic.  The only double-rounding the sum
inherits is the leading term's ~2e-16 relative error, which scales the whole
series and is therefore NOT amplified by the massive cancellation the
alternating series suffers at x ~ 10; a naive exp/lgamma evaluation of each
term separately loses ~3 digits there.  Truncation stops once two
consecutive terms fall below rel_tol times the running sum.

At large effective argument y = x sqrt(|c|/k) the alternating series
cancels past what double-double holds, so from y = 17 on every series entry
point takes W = (|c| k)^(-nu/(2k)) C_(nu/k)(y), C = J for c > 0 and I for
c < 0, from the Hankel expansion of C where it serves (``_hankel``, which
declines below y = 17 and wherever the expansion does not reach rel_tol):
eval_w returns it, the normalized functions divide it by the leading term,
and eval_w_with_derivatives forms W' and W'' from it and from W at the
raised orders nu + k and nu + 2k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import (DomainError, InvalidParameter, NonConvergence,
                     OutsideDomain, Overflow, _count, _exp_guarded, _finite,
                     _normal, _positive, _positive_x)
from .kgamma import ln_k_gamma

__all__ = [
    "EvalResult",
    "KBesselParams",
    "SeriesConfig",
    "deriv_w",
    "deriv_w_terms",
    "eval_normalized_i",
    "eval_normalized_j",
    "eval_w",
    "eval_w_with_derivatives",
    "multisection_lhs",
    "recurrence_step_up",
]


@dataclass(frozen=True)
class KBesselParams:
    """Parameter triple (k, nu, c); requires all finite, k > 0 and nu > -k."""

    k: float
    nu: float
    c: float

    def __post_init__(self):
        for name in ("k", "nu", "c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameter(f"{name} must be finite, got {value}")
        _positive("k", self.k)
        if not self.nu > -self.k:
            raise OutsideDomain("nu must exceed -k", f"nu={self.nu}, k={self.k}")


@dataclass(frozen=True)
class SeriesConfig:
    rel_tol: float = 1e-14
    max_terms: int = 500

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise InvalidParameter(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if isinstance(self.max_terms, bool) or not isinstance(self.max_terms, int):
            raise InvalidParameter(f"max_terms must be an integer, got {self.max_terms!r}")
        if not 1 <= self.max_terms <= 2**26:  # _series splits r + 1 exactly
            raise InvalidParameter(f"max_terms must be in [1, 2**26], got {self.max_terms}")


@dataclass(frozen=True)
class EvalResult:
    value: float
    terms_used: int
    est_error: float


_DEFAULT_CONFIG = SeriesConfig()
_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split of a double in halves


def _tail_estimate(first_omitted: float, next_ratio: float, alternating: bool) -> float:
    if alternating:
        return abs(first_omitted)
    # same-sign terms: geometric bound; by the time the stopping rule fires the
    # term ratio is well below 1 (growing terms cannot satisfy it within max_terms)
    if next_ratio < 1.0:
        return abs(first_omitted) / (1.0 - next_ratio)
    return math.inf


def _split(a: float) -> tuple[float, float]:
    """Dekker's split of a into halves of 26 bits each, a = hi + lo exactly."""
    u = _SPLITTER * a
    hi = u - (u - a)
    return hi, a - hi


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


@functools.lru_cache(maxsize=256, typed=True)
def _series(t0: float, c: float, x: float, k: float, nu: float,
            cfg: SeriesConfig, derivs: bool
            ) -> tuple[EvalResult, float, float]:
    """Sum t_r with t_{r+1} = t_r * q / ((r+1)(r k + nu + k)) in dd arithmetic,
    where q = -c (x/2)^2.

    With derivs, also sums the term-wise derivatives t_r (2r+b)/x and
    t_r (2r+b)(2r+b-1)/x^2 with b = nu/k, and truncation waits for all three
    sums (Overflow if one leaves double range); without, both are returned
    as 0.0.  q = 0 (c = 0, or underflow) ends the sum at t_0, est_error 0.0;
    a truncation estimate that is not finite raises Overflow.

    q is Dekker's exact product (x/2)(x/2) (Numer. Math. 18, 1971) times -c
    as a dd times a double, and exactly 0 at c = 0, where that product is
    NaN once (x/2)^2 or its split overflows.  The body writes out the dd
    operations named in its comments (two-sum based dd_add, Dekker's exact
    product, dd_mul, dd times double, three-digit dd_div) in the same
    order, so the bits are those of the composed functions without the
    calls; q, k and each term are split once.  Work on exact zeros is
    left out: nu, k and q3 have low part 0, two_sum(lo, 0.0) is
    (lo + 0.0, +0.0), and an integer r <= 2^26 (max_terms bounds it) splits
    as (r, 0).  Each dropped zero would join a two-sum error or a sum
    (a*b - p) + ... with a*b >= 0, never -0.0, so no bit changes and NaN
    stays NaN.  tests/test_series.py keeps the composed functions and loop
    as oracle.

    Memoized for every caller: the key is every argument and the value the
    returned (EvalResult, d1, d2), shared between callers (EvalResult is
    frozen); a call that raises is not stored.  The 256 most recently used
    entries stay, about 0.16 MB; on the default verify sweep 3350 of 8253
    calls hit.  typed=True keeps 1 and 1.0 apart.  Keys compare floats by
    value, so +0.0 and -0.0 collide, which cannot change a bit: t0 and k
    are > 0, x is nonzero, and c = +-0.0 both give q = (0.0, 0.0).  A nu of
    +-0.0 is added to +0.0 (0*k + nu and 2r + nu/k at r = 0) or to a
    nonzero dh (r > 0), with the same sum either way, and its two-sum error
    nu - v (v = +0.0 there) is added to +0.0, giving +0.0.
    """
    rel_tol = cfg.rel_tol
    max_terms = cfg.max_terms
    if derivs:
        b = nu / k
        inv_x = 1.0 / x
        inv_x2 = _finite(inv_x * inv_x, "1/x^2 exceeds double range at x = {!r}", x)
    if c == 0.0:
        qhi = qlo = 0.0
    else:
        # q = (x/2)(x/2) (-c): an exact product, then dd times double
        xh = 0.5 * x
        p, e = _two_prod(xh, xh)
        qhi, f = _two_prod(p, -c)
        e = f + e * -c
        a = qhi + e
        qlo = e - (a - qhi)
        qhi = a
    # Dekker splits of the loop invariants q and k
    qsh, qsl = _split(qhi)
    ksh, ksl = _split(k)
    s0h = s0l = s1h = s1l = s2h = s2l = 0.0
    thi, tlo = t0, 0.0
    streak = 0
    r = 0
    while True:
        # s0 = dd_add(s0, t)
        a = s0h + thi
        v = a - s0h
        e = (s0h - (a - v)) + (thi - v)
        f = s0l + tlo
        v = f - s0l
        g = (s0l - (f - v)) + (tlo - v)
        e += f
        h = a + e
        e = e - (h - a)
        e += g
        s0h = h + e
        s0l = e - (s0h - h)
        tiny = abs(thi) <= rel_tol * abs(s0h)
        # split of t, shared by its three products below
        u = _SPLITTER * thi
        tsh = u - (u - thi)
        tsl = thi - tsh
        if derivs:
            # the multipliers are rounded to double before the dd product,
            # which bounds the accuracy of W' and W'' under cancellation
            m = 2.0 * r + b
            m1 = m * inv_x
            m2 = m * (m - 1.0) * inv_x2
            # g1 = t m1, dd times double
            p1 = thi * m1
            u = _SPLITTER * m1
            msh = u - (u - m1)
            msl = m1 - msh
            e = ((tsh * msh - p1) + tsh * msl + tsl * msh) + tsl * msl
            e += tlo * m1
            gh = p1 + e
            gl = e - (gh - p1)
            # s1 = dd_add(s1, g1)
            a = s1h + gh
            v = a - s1h
            e = (s1h - (a - v)) + (gh - v)
            f = s1l + gl
            v = f - s1l
            g = (s1l - (f - v)) + (gl - v)
            e += f
            h = a + e
            e = e - (h - a)
            e += g
            s1h = h + e
            s1l = e - (s1h - h)
            # g2 = t m2, dd times double
            p2 = thi * m2
            u = _SPLITTER * m2
            msh = u - (u - m2)
            msl = m2 - msh
            e = ((tsh * msh - p2) + tsh * msl + tsl * msh) + tsl * msl
            e += tlo * m2
            gh = p2 + e
            gl = e - (gh - p2)
            # s2 = dd_add(s2, g2)
            a = s2h + gh
            v = a - s2h
            e = (s2h - (a - v)) + (gh - v)
            f = s2l + gl
            v = f - s2l
            g = (s2l - (f - v)) + (gl - v)
            e += f
            h = a + e
            e = e - (h - a)
            e += g
            s2h = h + e
            s2l = e - (s2h - h)
            tiny = (tiny and abs(p1) <= rel_tol * abs(s1h)
                    and abs(p2) <= rel_tol * abs(s2h))
        if qhi == 0.0:
            est = 0.0
            break
        # next term, denominator (r+1)(r k + nu + k) built exactly in dd
        # d = r k, exact product, r split as (r, 0)
        fr = float(r)
        dh = fr * k
        dl = (fr * ksh - dh) + fr * ksl
        # d = dd_add(d, nu), nu's low part 0
        a = dh + nu
        v = a - dh
        e = (dh - (a - v)) + (nu - v) + dl
        h = a + e
        e = e - (h - a)
        dh = h + e
        dl = e - (dh - h)
        # d = dd_add(d, k), k's low part 0
        a = dh + k
        v = a - dh
        e = (dh - (a - v)) + (k - v) + dl
        h = a + e
        e = e - (h - a)
        dh = h + e
        dl = e - (dh - h)
        # d = d (r + 1), dd times double, r + 1 split as (r + 1, 0)
        fr = float(r + 1)
        p = dh * fr
        u = _SPLITTER * dh
        dsh = u - (u - dh)
        dsl = dh - dsh
        e = (dsh * fr - p) + dsl * fr
        e += dl * fr
        dh = p + e
        dl = e - (dh - p)
        # n = dd_mul(t, q)
        p = thi * qhi
        e = ((tsh * qsh - p) + tsh * qsl + tsl * qsh) + tsl * qsl
        e += thi * qlo + tlo * qhi
        nhi = p + e
        nlo = e - (nhi - p)
        # n = dd_div(n, d): three quotient digits q1, q2, q3
        u = _SPLITTER * dh
        dsh = u - (u - dh)
        dsl = dh - dsh
        q1 = nhi / dh
        # d q1, dd times double
        p = dh * q1
        u = _SPLITTER * q1
        msh = u - (u - q1)
        msl = q1 - msh
        e = ((dsh * msh - p) + dsh * msl + dsl * msh) + dsl * msl
        e += dl * q1
        gh = p + e
        gl = e - (gh - p)
        # rem = dd_add(n, -d q1)
        a = nhi - gh
        v = a - nhi
        e = (nhi - (a - v)) + (-gh - v)
        f = nlo - gl
        v = f - nlo
        g = (nlo - (f - v)) + (-gl - v)
        e += f
        h = a + e
        e = e - (h - a)
        e += g
        rh = h + e
        rl = e - (rh - h)
        q2 = rh / dh
        # d q2, dd times double
        p = dh * q2
        u = _SPLITTER * q2
        msh = u - (u - q2)
        msl = q2 - msh
        e = ((dsh * msh - p) + dsh * msl + dsl * msh) + dsl * msl
        e += dl * q2
        gh = p + e
        gl = e - (gh - p)
        # rem = dd_add(rem, -d q2), high part only
        a = rh - gh
        v = a - rh
        e = (rh - (a - v)) + (-gh - v)
        f = rl - gl
        v = f - rl
        g = (rl - (f - v)) + (-gl - v)
        e += f
        h = a + e
        e = e - (h - a)
        e += g
        q3 = (h + e) / dh
        # quick_two_sum(q1, q2), then n = dd_add(q1 + q2, q3), q3's low part 0
        a = q1 + q2
        q2 = q2 - (a - q1)
        q1 = a
        a = q1 + q3
        v = a - q1
        e = (q1 - (a - v)) + (q3 - v) + q2
        h = a + e
        e = e - (h - a)
        nhi = h + e
        nlo = e - (nhi - h)
        if tiny:
            streak += 1
            if streak >= 2:
                ratio_next = abs(qhi) / ((r + 2) * ((r + 1) * k + nu + k))
                est = _tail_estimate(nhi, ratio_next, alternating=qhi < 0.0)
                break
        else:
            streak = 0
        r += 1
        if r >= max_terms:
            if math.isnan(s0h + s1h + s2h):
                # a term or multiplier past 2^996 overflows the Dekker split
                raise Overflow("series terms exceed the double-double range "
                               "(above about 2^996)")
            raise NonConvergence(
                f"{'derivative ' if derivs else ''}series did not meet "
                f"rel_tol={cfg.rel_tol} within max_terms={cfg.max_terms}"
            )
        thi, tlo = nhi, nlo
    _finite(est, "series truncation estimate {!r} is not finite at x = {!r}",
            est, x)
    d1, d2 = (_finite(d, "W' or W'' sums overflow in dd at x = {!r}", x)
              for d in (s1h + s1l, s2h + s2l))
    return EvalResult(s0h + s0l, r + 1, est), d1, d2


def _ln_half_x_power(b: float, x: float) -> float:
    """b ln(x/2) at x > 0, the log of (x/2)^b.

    0.0 at b = 0, since (x/2)^0 is 1 for every x (0 * ln(x/2) is nan where
    x/2 is 0 or inf); -inf times the sign of b where x/2 underflows to 0,
    where math.log would raise.  Elsewhere the bits of b * log(x / 2.0).
    """
    if b == 0.0:
        return 0.0
    half = x / 2.0
    return b * (math.log(half) if half > 0.0 else -math.inf)


def _prefactor(ln_const: float, t: float, k: float, b: float, x: float,
               what: str) -> float:
    """exp(ln_const - ln Gamma_k(t) + b ln(x/2)) at x > 0, summed in that
    order, or Overflow, naming ``what``, where it is not a normal double:
    the factor (x/2)^b / Gamma_k(t) of the series and of each integral
    representation, formed in log space so that neither part overflows
    alone."""
    return _exp_guarded(ln_const - ln_k_gamma(t, k) + _ln_half_x_power(b, x),
                        what)


def _leading_term(p: KBesselParams, x: float) -> float:
    """t_0 = (x/2)^(nu/k) / Gamma_k(nu + k) at x > 0, or Overflow where it
    is not a normal double."""
    if p.nu == 0.0:
        return 1.0  # (x/2)^0 / Gamma_k(k), Gamma_k(k) = 1
    return _prefactor(0.0, p.nu + p.k, p.k, p.nu / p.k, x, "leading series term")


# the series entry points take the Hankel expansion from this effective
# argument y up, where at rel_tol 1e-14 it serves b in {0, 1/4, 1/2, 1} for
# both signs of c; below it the dd series is accurate to 1e-12 for both
_HANKEL_MIN_Y = 17.0
_U = 2.0 ** -53  # unit roundoff of a double
_PI_LO = 1.2246467991473532e-16  # pi - math.pi
# operands of the route's Dekker products stay inside this range, where the
# split cannot overflow and no error term falls below the normal range
_DD_MIN, _DD_MAX = 2.0 ** -900, 2.0 ** 900


def _hankel(p: KBesselParams, x: float, cfg: SeriesConfig) -> EvalResult | None:
    """W = (|c| k)^(-b/2) C_b(y) from the Hankel expansion of C_b, with
    b = nu/k, y = x sqrt(|c|/k), C = J for c > 0 and I for c < 0; None
    where the expansion does not reach cfg.rel_tol within cfg.max_terms
    terms while its terms decrease from the first, for J where the phase
    w is not known to rel_tol, and below y = _HANKEL_MIN_Y, where the
    series serves instead.

    With v_0 = 1 and v_(j+1) = v_j (4b^2 - (2j+1)^2) / (8 (j+1) y), so that
    |v_j| = |a_j(b)| / y^j (DLMF 10.17.1):

    * c < 0: I_b(y) ~ e^y / sqrt(2 pi y) s, s = sum_j (-1)^j v_j
      (DLMF 10.40.1).  After n terms the remainder is at most
      2 chi(n) exp(pi |b^2 - 1/4| / y) |v_n| (DLMF 10.40.11), with
      chi(n) <= sqrt(pi (n + 1) / 2); the omitted e^-y branch adds at most
      pi (n + 1) e^(-2y) to s.  The sum stops where this is rel_tol |s|.
    * c > 0: J_b(y) = sqrt(2 / (pi y)) t, t = P cos w - Q sin w, w =
      y - (b/2 + 1/4) pi, P and Q the alternating sums of the even and odd
      v_j (DLMF 10.17.3).  Once P has at least max(|b|/2 - 1/4, 1) terms
      and Q max(|b|/2 - 3/4, 1), each remainder is at most its first
      omitted term, |v_n| and |v_(n+1)| (DLMF 10.17(iii); P and Q are even
      in b).  The sum stops where their sum is rel_tol |t|, or 2^-57
      |P| near a zero of J, below the rounding of t.

    y, b and w are double-doubles, so w is right to about
    2^-99 (y + |w - y|) and y's rounding to double costs nothing.
    est_error adds to the truncation bound a running bound of the sums'
    rounding (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 3.3: each v_j within 10 j units of its own, each partial sum's
    rounding counted) and the rounding of the logarithms of the prefactor
    (|c| k)^(-b/2), which is applied in log space next to e^y.  Overflow
    where W (for J, its envelope) leaves the normal double range.
    """
    k, nu, c = p.k, p.nu, p.c
    a = abs(c)
    r = a / k
    if x * math.sqrt(r) < _HANKEL_MIN_Y:
        return None
    if not (_DD_MIN < min(a, k, r) and max(a, k, r, x) < _DD_MAX):
        return None
    # y = x sqrt(r) in dd: r = |c|/k, then one Newton step of the root
    ph, pl = _two_prod(r, k)
    rl = ((a - ph) - pl) / k
    sh = math.sqrt(r)
    ph, pl = _two_prod(sh, sh)
    sl = (((r - ph) - pl) + rl) / (2.0 * sh)
    yh, yl = _two_prod(x, sh)
    yl += x * sl
    y = yh + yl
    yl -= y - yh
    # b = nu / k in dd; the numerator (2b - m)(2b + m) reads b's low part,
    # so a factor that nearly cancels keeps its relative accuracy
    b = nu / k
    ph, pl = _two_prod(b, k)
    bl2 = 2.0 * (((nu - ph) - pl) / k)
    b2 = 2.0 * b
    if 4.0 * b * b - 1.0 > 8.0 * y:  # v_1 would exceed v_0
        return None
    is_i = c < 0.0
    if is_i:
        # 2 chi(n) exp(pi |b^2 - 1/4| / y) <= grow sqrt(n + 1); the check
        # above keeps the exponent at most 2 pi
        grow = 2.5066282746310002 * math.exp(math.pi * abs(b * b - 0.25) / y)
    else:
        need_p = max(0.5 * abs(b) - 0.25, 1.0)
        need_q = max(0.5 * abs(b) - 0.75, 1.0)
        # w in dd, then the cos and sin of wh + wl by the addition formulas
        th, tl = _two_sum(0.5 * b, 0.25)
        tl += 0.25 * bl2
        ph, pl = _two_prod(th, math.pi)
        pl += th * _PI_LO + tl * math.pi
        phase_err = 2.0 ** -99 * (y + abs(ph))
        if phase_err > cfg.rel_tol:  # past y of about 6e15 at rel_tol 1e-14
            return None
        wh, e = _two_sum(y, -ph)
        wl = (e - pl) + yl
        cw, sw = math.cos(wh), math.sin(wh)
        cwl, swl = math.cos(wl), math.sin(wl)
        cos_w = cw * cwl - sw * swl
        sin_w = sw * cwl + cw * swl
    tol = cfg.rel_tol
    eight_y = 8.0 * y
    even = odd = 0.0  # the signed sums of the v_j of even and of odd j
    run = 0.0  # sum of |partial sums|: the sums' rounding, in units
    drift = 0.0  # sum of 10 j |v_j|: the terms' own rounding, in units
    v = 1.0
    j = 0
    while True:
        if j & 1:
            odd += v
            run += abs(odd)
        else:
            even += v
            run += abs(even)
        drift += 10.0 * j * abs(v)
        m = 2.0 * j + 1.0
        nxt = v * (((b2 - m) + bl2) * ((b2 + m) + bl2)) / (eight_y * (j + 1))
        if is_i or j & 1:  # (-1)^j for I; (-1)^(j//2) for P and Q
            nxt = -nxt
        j += 1
        if abs(nxt) > abs(v):
            return None
        if is_i:
            trunc = grow * math.sqrt(j + 1.0) * abs(nxt)
            if trunc <= tol * abs(even + odd):
                break
        elif (j + 1) // 2 >= need_p and j // 2 >= need_q:
            m += 2.0
            after = nxt * (((b2 - m) + bl2) * ((b2 + m) + bl2)) / (eight_y * (j + 1))
            trunc = abs(nxt) + abs(after)
            if trunc <= max(tol * abs(even * cos_w - odd * sin_w),
                            2.0 ** -57 * abs(even)):
                break
        if j >= cfg.max_terms:
            return None
        v = nxt
    # the exponent's rounding: ln|c| and ln k within 2 units each,
    # their sum 1 unit, b/2 times it 2 more units (b's and the product's)
    ln_a, ln_k = math.log(a), math.log(k)
    ln_ck = ln_a + ln_k
    half_b = 0.5 * b
    bexp = half_b * ln_ck
    ln_err = _U * (abs(half_b) * (2.0 * (abs(ln_a) + abs(ln_k)) + abs(ln_ck))
                   + 2.0 * abs(bexp))
    rounding = _U * (run + drift)
    if is_i:
        s = even + odd
        if not s > 0.0:
            return None
        ln_rest = math.log(2.0 * math.pi * y)
        ln_s = math.log(s)
        lh, e = _two_sum(y, -bexp - 0.5 * ln_rest + ln_s)
        value = _finite(
            _exp_guarded(lh, "W from the Hankel expansion") * (1.0 + (e + yl)),
            "W from the Hankel expansion exceeds double range")
        # relative: the exponent's rounding (its logs, two sums; y to
        # 2^-99), that of exp, 1 + e + yl, the product and s itself, and
        # the error of s (rounding, truncation, the e^-y branch)
        rel = (ln_err + _U * (abs(ln_rest) + 2.0 * abs(ln_s) + 2.0 * abs(lh - y) + 6.0)
               + 2.0 ** -99 * y
               + (rounding + trunc + math.pi * (j + 1.0) * math.exp(-2.0 * y)) / s)
        return EvalResult(value, j, rel * value)
    t = even * cos_w - odd * sin_w
    ln_rest = math.log(0.5 * math.pi * y)
    g = -bexp - 0.5 * ln_rest
    envelope = _exp_guarded(g, "envelope of W from the Hankel expansion")
    value = _finite(envelope * t,
                    "W from the Hankel expansion exceeds double range")
    # absolute error of t: the sums' rounding and truncation, the dd
    # phase's error, and 8 units for the two cos and sin pairs, the
    # addition formulas' products and sums, and t's products and difference
    amp = abs(even) + abs(odd)
    t_err = rounding + trunc + amp * (phase_err + 8.0 * _U)
    # relative error of the envelope: its logs, a sum, exp and the product
    rel = ln_err + _U * (abs(ln_rest) + 2.0 * abs(g) + 5.0)
    return EvalResult(value, j, envelope * (t_err + rel * abs(t)))


def eval_w(p: KBesselParams, x: float, cfg: SeriesConfig = _DEFAULT_CONFIG) -> EvalResult:
    """Evaluate W(x) by the defining power series, or at effective argument
    y = x sqrt(|c|/k) >= 17 by the Hankel expansion where it reaches
    cfg.rel_tol (see ``_hankel``).

    x = 0 is admitted for nu >= 0 (limit values 1 at nu = 0, else 0); negative
    x raises DomainError because x^(nu/k) is not real-valued there, and so
    does a NaN or infinite x.
    """
    if not 0.0 <= x < math.inf:
        raise DomainError(f"eval_w requires a finite x >= 0, got {x}")
    if x == 0.0:
        if p.nu < 0.0:
            raise DomainError("eval_w at x = 0 requires nu >= 0")
        if p.nu == 0.0:
            # limit 1/Gamma_k(k) = 1
            return EvalResult(1.0, 1, 0.0)
        return EvalResult(0.0, 1, 0.0)
    res = _hankel(p, x, cfg)
    if res is not None:
        return res
    return _series(_leading_term(p, x), p.c, x, p.k, p.nu, cfg, False)[0]


def _leading_term_error(p: KBesselParams, x: float, t0: float) -> float:
    """A first-order bound of the relative error of t0 = _leading_term(p, x),
    in its roundings: t_0 = exp(L), L = b ln(x/2) - (u - 1) ln k - ln Gamma(u)
    with b = nu/k and u = (nu + k)/k.  b ln(x/2) within 3 units (b, the
    log, the product); u within 3 units of itself (nu + k, the quotient,
    and the 1 beside it), which moves (u - 1) ln k by 3 u |ln k| and
    ln Gamma(u) by 3 u |psi(u)| <= 3 (u |ln u| + 1), as
    ln u - 1/u < psi(u) < ln u; ln Gamma within 2^8 units of
    |ln Gamma| + 1, the bound that ``classical`` states; the two sums and
    exp within 3 units of |L|."""
    if p.nu == 0.0:
        return 0.0  # _leading_term returns 1.0 exactly
    b = p.nu / p.k
    u = b + 1.0
    ln_t0 = math.log(t0)
    b_ln_half = b * math.log(x / 2.0)
    ln_k = math.log(p.k)
    ln_gamma_u = (b_ln_half - ln_t0) - b * ln_k
    return _U * (3.0 * abs(b_ln_half) + 3.0 * u * abs(ln_k)
                 + 3.0 * (u * abs(math.log(u)) + 1.0)
                 + 256.0 * (abs(ln_gamma_u) + 1.0)
                 + 3.0 * abs(ln_t0))


def _eval_normalized(name: str, p: KBesselParams, x: float,
                     cfg: SeriesConfig = _DEFAULT_CONFIG) -> EvalResult:
    """(2/x)^(nu/k) Gamma_k(nu+k) W(x): the series with leading term 1, or
    W / t_0 with W from the Hankel expansion and t_0 = (x/2)^(nu/k) /
    Gamma_k(nu+k) from its logarithm."""
    if not math.isfinite(x):
        raise DomainError(f"{name} requires a finite real x, got {x}")
    if x == 0.0:
        return EvalResult(1.0, 1, 0.0)
    ax = abs(x)  # the function is even in x
    w = _hankel(p, ax, cfg)
    if w is None:
        return _series(1.0, p.c, x, p.k, p.nu, cfg, False)[0]
    t0 = _leading_term(p, ax)
    value = _normal(w.value / t0, "{} from the Hankel expansion leaves the "
                    "normal double range: W / t_0 = {!r} / {!r}", name, w.value, t0)
    # W's bound, t_0's rounding and the quotient's
    rel = _leading_term_error(p, ax, t0) + _U
    return EvalResult(value, w.terms_used, w.est_error / t0 + rel * abs(value))


def eval_normalized_i(p: KBesselParams, x: float) -> EvalResult:
    """Normalized all-positive-coefficient series: value 1 at x = 0, even in x.

    Equals (2/x)^(nu/k) Gamma_k(nu+k) W(x) for c = -1; the c field of ``p``
    is ignored.
    """
    return _eval_normalized("eval_normalized_i", KBesselParams(p.k, p.nu, -1.0), x)


def eval_normalized_j(p: KBesselParams, x: float) -> EvalResult:
    """Normalized alternating series (c = +1 flavor): value 1 at x = 0, even."""
    return _eval_normalized("eval_normalized_j", KBesselParams(p.k, p.nu, 1.0), x)


def eval_w_with_derivatives(p: KBesselParams, x: float
                            ) -> tuple[EvalResult, float, float]:
    """(W, W', W'') at x > 0; the EvalResult is W's.

    At y = x sqrt(|c|/k) >= 17, where the term-wise derivatives of the
    alternating series cancel, W' and W'' follow from the paper's
    derivative relation x W' = b W - x c W_(nu+k) and its three-term order
    recurrence,

        W'  = -c W_(nu+k) + (b/x) W,
        W'' = c^2 W_(nu+2k) - c (2b+1)/x W_(nu+k) + b (b-1)/x^2 W,

    with b = nu/k and W, W_(nu+k), W_(nu+2k) from eval_w (the Hankel
    expansion where it serves): upward orders only, so the route never
    leaves the domain.  Below y = 17 the series is differentiated term by
    term: each (x/2)^(2r+b)-proportional term takes the multipliers
    (2r+b)/x and (2r+b)(2r+b-1)/x^2, so the three sums share one term
    recurrence.  No finite differencing is involved.  A W' or W'' outside
    the normal double range raises Overflow.
    """
    _positive_x("eval_w_with_derivatives", x)
    if x * math.sqrt(abs(p.c) / p.k) >= _HANKEL_MIN_Y:
        # this test picks the derivative route, not the Hankel attempt: the
        # raised orders serve also where _hankel declines and W comes from
        # the series, which is accurate to y = 35 where the term-wise
        # derivatives are not
        res = eval_w(p, x)
        c, w = p.c, res.value
        b_x = p.nu / p.k / x
        c_w1 = c * eval_w(KBesselParams(p.k, p.nu + p.k, p.c), x).value
        c_w2 = c * eval_w(KBesselParams(p.k, p.nu + 2.0 * p.k, p.c), x).value
        d1 = b_x * w - c_w1
        d2 = c * c_w2 - (2.0 * b_x + 1.0 / x) * c_w1 + b_x * (b_x - 1.0 / x) * w
        for name, d in (("W'", d1), ("W''", d2)):
            _normal(d, "{} from the raised orders is {!r} at x = {!r}: outside "
                    "the normal double range", name, d, x)
        return res, d1, d2
    res, d1, d2 = _series(_leading_term(p, x), p.c, x, p.k, p.nu,
                          _DEFAULT_CONFIG, True)
    if p.c != 0.0:
        # every term past r = 0 has a nonzero multiplier, at most step^j in
        # W^(j) over the R terms; a subnormal term is off by up to 2^-1074,
        # its product by step^j times that: rel_tol must cover R of them
        step = (2 * res.terms_used + abs(p.nu / p.k)) / x
        err = res.terms_used * math.ulp(0.0)
        for name, d in (("W'", d1), ("W''", d2)):
            err *= step
            if d == 0.0 or err > _DEFAULT_CONFIG.rel_tol * abs(d):
                raise Overflow(f"{name} sum underflows to {d!r} at x = {x!r}: "
                               f"its terms fall below the normal double range")
    return res, d1, d2


def deriv_w_terms(p: KBesselParams, m: int) -> list[tuple[float, float]]:
    """Orders and weights of the m-th derivative ladder.

    d^m/dx^m W_nu = sum_n weight_n * W_(order_n) with
    order_n = nu + (2n - m)k and weight_n = (-1)^n C(m,n) c^n k^n / (2k)^m.
    Every order must itself satisfy order > -k, i.e. nu - m k > -k.
    """
    _count("derivative order m", m, 1)
    if not p.nu - m * p.k > -p.k:
        raise InvalidParameter(
            f"derivative ladder needs nu - m*k > -k; got nu={p.nu}, m={m}, k={p.k}"
        )
    try:
        scale = (2.0 * p.k) ** m
        weights = [((-1.0) ** n) * math.comb(m, n) * (p.c ** n) * (p.k ** n)
                   / scale for n in range(m + 1)]
    except (OverflowError, ZeroDivisionError):
        # a power of c, k or 2k past the double range, or (2k)^m underflowed
        # to 0, so that the first weight 1/(2k)^m is past it
        weights = [math.inf]
    if not all(map(math.isfinite, weights)):
        raise Overflow(f"derivative ladder weights exceed double range at "
                       f"c={p.c}, k={p.k}, m={m}")
    return [(p.nu + (2 * n - m) * p.k, w) for n, w in enumerate(weights)]


def deriv_w(p: KBesselParams, x: float, m: int,
            cfg: SeriesConfig = _DEFAULT_CONFIG) -> EvalResult:
    """m-th derivative of W at x via the order ladder (m >= 1); x is
    refused where ``eval_w`` refuses it, and x = 0 where the ladder's
    lowest order nu - m k is negative (the derivative is infinite there)."""
    parts = deriv_w_terms(p, m)
    lowest = parts[0][0]
    if x == 0.0 and lowest < 0.0:
        raise DomainError(f"deriv_w at x = 0 requires nu - m*k >= 0, got "
                          f"nu - m*k = {lowest} (nu={p.nu}, m={m}, k={p.k})")
    est = 0.0
    terms_used = 0
    vals = []
    for order, weight in parts:
        res = eval_w(KBesselParams(p.k, order, p.c), x, cfg)
        vals.append(weight * res.value)
        est += abs(weight) * res.est_error
        terms_used = max(terms_used, res.terms_used)
    total = math.fsum(vals)
    return EvalResult(total, terms_used, est)


def recurrence_step_up(p: KBesselParams, x: float, w_nu: float,
                       w_nu_minus_k: float) -> float:
    """Solve the three-term order recurrence upward:

    W_(nu+k) = (2 nu W_nu / x - W_(nu-k)) / (c k);  needs nu > 0, c != 0,
    a finite x > 0 and finite W values.  A c k that is not a normal double,
    or a result past the double range, raises Overflow.
    """
    if p.c == 0.0:
        raise InvalidParameter("recurrence_step_up requires c != 0")
    if not p.nu > 0.0:
        raise InvalidParameter(f"recurrence_step_up requires nu > 0, got {p.nu}")
    _positive_x("recurrence_step_up", x)
    if not (math.isfinite(w_nu) and math.isfinite(w_nu_minus_k)):
        raise DomainError(f"recurrence_step_up requires finite W values, got "
                          f"w_nu={w_nu}, w_nu_minus_k={w_nu_minus_k}")
    ck = _normal(p.c * p.k, "recurrence_step_up's c*k = {!r} is not a normal "
                 "double", p.c * p.k)
    return _finite((2.0 * p.nu * w_nu / x - w_nu_minus_k) / ck,
                   "recurrence_step_up's W_(nu+k) exceeds double range at "
                   "x = {!r}", x)


def multisection_lhs(p: KBesselParams, x: float, terms: int) -> EvalResult:
    """Truncated multisection sum

        (2/x) * sum_{r=0}^{terms-1} (-c k)^r (nu + 2 r k) W_(nu + 2 r k)(x),

    which converges to W_(nu-k)(x); telescoping the three-term order
    recurrence produces one factor -c k per step, so the classical
    alternating (-1)^r multisection is the c = k = 1 slice.  est_error is the
    magnitude of the first omitted term; if the omitted term has not started
    decreasing by the cap, NonConvergence is raised.
    """
    _count("terms", terms, 1)
    _positive_x("multisection_lhs", x)
    two_over_x = _finite(2.0 / x, "multisection_lhs's 2/x exceeds double "
                         "range at x = {!r}", x)
    step = -p.c * p.k
    factor = 1.0
    pieces = []
    for r in range(terms + 1):  # the last piece is the first omitted term
        order = p.nu + 2 * r * p.k
        w = eval_w(KBesselParams(p.k, order, p.c), x).value
        pieces.append(factor * order * w * two_over_x)
        factor *= step
    omitted = abs(pieces.pop())
    # an omitted term of exactly 0 (c = 0) leaves nothing to truncate
    if omitted >= abs(pieces[-1]) and omitted != 0.0:
        raise NonConvergence(
            f"multisection terms not yet decreasing after {terms} terms "
            f"(|omitted| = {omitted:.3e} >= |last| = {abs(pieces[-1]):.3e})"
        )
    return EvalResult(math.fsum(pieces), terms, omitted)
