"""Integral-representation evaluation of the generalized k-Bessel function.

Three independent quadrature routes, all of the shape

    W(x) = prefactor(k, nu, x) * int_0^1 (1 - t^2)^a h(t) dt,

with h a cosine, hyperbolic cosine, or an inner power-series kernel.  The
prefactor 2 / (sqrt(k pi) Gamma_k(nu + k/2)) (x/2)^(nu/k), or
2 / (k Gamma_k(nu)) (x/2)^(nu/k), is formed in log space by
``kbessel._prefactor``, as the series forms its leading term, and only after
the integral, so the integral's own refusals (an overflowing weight
exponent) come first.  They
share one weighted-integral engine: Gauss-Legendre with node doubling, after
the substitution t = cos(delta) (one power of the endpoint weight moves into
the Jacobian) iterated with further sine maps until the transformed endpoint
exponent is comfortably smooth.  The iterated maps shrink the innermost
variable quadratically per level, so the chain is carried in log space; the
transformed integrand always tends to zero at the formerly singular endpoint,
and exp underflow there simply contributes zero.

Also provides the sine/hyperbolic-sine closed-form relation checks, which
report residuals against a stated constant rather than asserting it.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from functools import lru_cache
from operator import mul

from ._gauss_legendre import HALF_RULES
from .errors import (_MAX_EXP_ARG, DomainError, InvalidParameter,
                     NonConvergence, OutsideDomain, Overflow,
                     QuadratureFailure, _count, _finite, _positive)
from .kbessel import KBesselParams, _prefactor, _Record, eval_w

__all__ = [
    "IntegralRepParams",
    "QuadConfig",
    "bessel_kernel",
    "eval_w_bessel_kernel",
    "eval_w_cos",
    "eval_w_cosh",
    "sin_relation_check",
    "sinh_relation_check",
    "weighted_integral",
]

_LN2 = math.log(2.0)
_LN_PI = math.log(math.pi)
_LN_HALF_PI = math.log(0.5 * math.pi)


# the most nodes a QuadConfig's last level may hold: the default's last
# level holds 2**15, and Newton alone takes about half a minute at 2**14
_MAX_LAST_LEVEL = 2**20


class QuadConfig(namedtuple("QuadConfig", "nodes abs_tol max_refinements")):
    """Node doubling from ``nodes`` Gauss-Legendre nodes, at most
    ``max_refinements`` times, until two levels agree to ``abs_tol``; the
    last level, nodes * 2**max_refinements, holds at most 2**20 nodes."""

    __slots__ = ()

    def __new__(cls, nodes: int = 128, abs_tol: float = 1e-12,
                max_refinements: int = 8):
        _count("nodes", nodes, 2)
        _positive("abs_tol", abs_tol)
        _count("max_refinements", max_refinements, 1)
        # neither 2**max_refinements nor the counts' digits are formed: an
        # int past 4300 digits cannot be printed
        if nodes > _MAX_LAST_LEVEL >> max_refinements:
            raise InvalidParameter(
                "nodes * 2**max_refinements must be at most 2**20")
        return super().__new__(cls, nodes, abs_tol, max_refinements)

    _make = classmethod(lambda cls, values: cls(*values))


class IntegralRepParams(namedtuple("IntegralRepParams", "k nu alpha x")):
    """Parameters (k, nu, alpha, x) for the integral routes; c = +-alpha^2."""

    __slots__ = ()

    def __new__(cls, k: float, nu: float, alpha: float, x: float):
        for name, value in (("k", k), ("nu", nu), ("alpha", alpha), ("x", x)):
            if not math.isfinite(value):
                raise InvalidParameter(f"{name} must be finite, got {value}")
        for name, value in (("k", k), ("alpha", alpha), ("x", x)):
            _positive(name, value)
        return super().__new__(cls, k, nu, alpha, x)

    _make = classmethod(lambda cls, values: cls(*values))


_DEFAULT_QUAD = QuadConfig()


@lru_cache(maxsize=16)
def legendre_nodes(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes and weights on [-1, 1].

    The rules for n = 128 and 256, the node counts of every level that the
    default sweeps reach, are read from ``_gauss_legendre``'s table, which
    holds ``_newton_legendre``'s bits; every other n comes from
    ``_newton_legendre``.  The table is imported with this module: imported
    at the first rule built, in the middle of a sweep, it raised the
    sweep's peak RSS.
    """
    half = HALF_RULES.get(n)
    if half is None:
        return _newton_legendre(n)
    values = tuple(map(float.fromhex, half.split()))
    zs, ws = values[0::2], values[1::2]  # n is even: no node at 0
    return tuple(-z for z in zs) + zs[::-1], ws + ws[::-1]


def _newton_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes and weights on [-1, 1] by Newton iteration on
    P_n from the Chebyshev-based initial guess; only half the nodes are
    solved, the rest follow by symmetry.
    """
    xs = [0.0] * n
    ws = [0.0] * n
    m = (n + 1) // 2
    # the recurrence's integer coefficients as floats, built once: int to
    # float is exact here, so every product and quotient keeps its bits
    coefficients = [(float(2 * j - 1), float(j - 1), float(j))
                    for j in range(1, n + 1)]
    for i in range(1, m + 1):
        z = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        pp = 0.0
        for _ in range(64):
            p1, p2 = 1.0, 0.0
            for a, b, c in coefficients:
                p1, p2 = (a * z * p1 - b * p2) / c, p1
            pp = n * (z * p1 - p2) / (z * z - 1.0)
            dz = p1 / pp
            z -= dz
            if abs(dz) <= 1e-15 * max(1.0, abs(z)):
                break
        xs[i - 1] = -z
        xs[n - i] = z
        w = 2.0 / ((1.0 - z * z) * pp * pp)
        ws[i - 1] = w
        ws[n - i] = w
    return tuple(xs), tuple(ws)


def _ln_sin(d: float, ln_d: float) -> float:
    """log(sin(d)) for d in [0, pi/2], given ln(d) (valid even when d has
    underflowed to zero and only its log survives)."""
    if d > 1e-4:
        return math.log(math.sin(d))
    d2 = d * d
    return ln_d + math.log1p(-d2 / 6.0 * (1.0 - 0.05 * d2))


def _substitution_levels(p1: float) -> int:
    """How many extra sine maps to apply beyond t = cos(delta).

    The first map leaves endpoint weight sin(delta)^p1; each further map
    sends exponent p to 2p + 1.  Nonnegative near-integer exponents are
    analytic already, and p1 >= 7 gives enough smoothness for fast node
    doubling, so those skip the extra maps.
    """
    nearest = round(p1)
    if (abs(p1 - nearest) <= 1e-9 and nearest >= 0) or p1 >= 7.0:
        return 0
    return max(0, math.ceil(math.log2(8.0 / (p1 + 1.0))))


class _Level(_Record):
    """One quadrature level, the key of every per-level cache: (extra, n)
    and its Legendre rule ``nodes``, ``legendre_nodes(n)``, which
    ``_sine_map_chain`` reads.  It is compared, hashed and shown by
    (extra, n) alone, since those fix the rule."""

    __slots__ = ("extra", "n", "nodes")
    _compared = ("extra", "n")

    def __init__(self, extra: int, n: int, nodes: tuple):
        set_field = object.__setattr__
        set_field(self, "extra", extra)
        set_field(self, "n", n)
        set_field(self, "nodes", nodes)


@lru_cache(maxsize=64)
def _sine_map_chain(level: _Level) -> tuple[array, array, array, array]:
    """t_i, w_i * (pi/4), ln sin(delta_i) and ln w_i at each node of
    ``level``.

    The chain depends on (extra, n) alone, so every weight exponent of a
    level shares it; callers only read its arrays.  An entry holds 32 n
    bytes, so with the default QuadConfig (n <= 128 * 2**8) the cache holds
    at most 64 * 32 * 32768 bytes = 64 MiB; the default verify grid fills
    12 entries with 72 KiB.
    """
    extra = level.extra
    xs, ws = level.nodes
    quarter_pi = 0.25 * math.pi
    ts, scaled, ln_sins, ln_ws = (array("d") for _ in range(4))
    for xi, wi in zip(xs, ws):
        delta = quarter_pi * (1.0 - xi)
        ln_delta = math.log(delta)
        ln_w = 0.0
        for _ in range(extra):
            ln_w += _LN_HALF_PI + _ln_sin(delta, ln_delta)
            ln_delta = _LN_PI + 2.0 * _ln_sin(0.5 * delta, ln_delta - _LN2)
            delta = math.exp(ln_delta)
        ts.append(math.cos(delta))
        scaled.append(wi * quarter_pi)
        ln_sins.append(_ln_sin(delta, ln_delta))
        ln_ws.append(ln_w)
    return ts, scaled, ln_sins, ln_ws


@lru_cache(maxsize=128)
def _node_transform(p1: float, level: _Level) -> tuple[array, array]:
    """Nodes t_i and weights of one level after the sine-map chain.

    The weight w_i * (pi/4) * exp(p1 ln sin(delta_i) + ln w_i) holds
    everything but h(t_i).  The weights depend only on (p1, extra, n), so
    they are cached under that key; callers share the arrays and only read
    them.  The t_i are the chain's, which does not read p1: every p1 with
    the same (extra, n) gets the same t_i array, the one ``_level_values``
    evaluates h on.  A node whose weight overflows raises
    QuadratureFailure, before any h is evaluated on the level.  An entry
    holds 8 n bytes of weights, an eighth of what ``legendre_nodes(n)``
    keeps, so the default QuadConfig (n <= 128 * 2**8) bounds the cache at
    128 * 8 * 32768 bytes = 32 MiB; the default verify grid fills 76
    entries with 114 KiB.
    """
    ts, scaled, ln_sins, ln_ws = _sine_map_chain(level)
    weights = array("d")
    for wi, ln_sin, ln_w in zip(scaled, ln_sins, ln_ws):
        ln_val = p1 * ln_sin + ln_w
        if ln_val > _MAX_EXP_ARG:
            raise QuadratureFailure(
                "transformed integrand overflows double range")
        weights.append(wi * math.exp(ln_val))
    return ts, weights


class _TrigIntegrand(namedtuple("_TrigIntegrand", "fn omega")):
    """h(t) = fn(omega t), fn cos or cosh: the cos/cosh routes' integrand
    and ``check_chebyshev_products``'s weight.  A hashable value, so
    ``_integrate_once`` may share its values between weight exponents."""

    __slots__ = ()

    def values(self, ts: array) -> array:
        """h at every t in ``ts``."""
        fn, omega = self.fn, self.omega
        return array("d", [fn(omega * t) for t in ts])


class _KernelIntegrand(namedtuple("_KernelIntegrand", "scale c")):
    """h(t) = t K_c(scale t), the kernel route's integrand; a hashable
    value, as ``_TrigIntegrand`` is."""

    __slots__ = ()

    def values(self, ts: array) -> array:
        """h at every t in ``ts``."""
        scale, c = self.scale, self.c
        return array("d", [t * bessel_kernel(scale * t, c) for t in ts])


_VALUE_INTEGRANDS = (_TrigIntegrand, _KernelIntegrand)


@lru_cache(maxsize=256)
def _level_values(h, level: _Level) -> array:
    """h(t_i) at every node of ``level``, for an h of ``_VALUE_INTEGRANDS``.

    The key (h, extra, n) compares floats by value, so +0.0 and -0.0 share
    an entry; that changes no bit.  omega and scale are alpha x / sqrt(k)
    or x / sqrt(k) with every factor positive, so they are > 0 or +0.0.
    c = -alpha^2 is -0.0 where alpha^2 underflows; with c = +-0.0,
    bessel_kernel's q is -+0.0, its first term test passes, and both signs
    return fsum([1.0, +-0.0]) = 1.0.  A level whose h raises is not stored.
    An entry holds 8 n bytes of values, so with the default QuadConfig
    (n <= 32768) the memo holds at most 256 * 8 * 32768 bytes = 64 MiB of
    them; its key also keeps the level's rule, as ``_node_transform``'s
    keys do.  The t_i are the chain's, from its cache, or formed again bit
    for bit where that entry was evicted.
    """
    return h.values(_sine_map_chain(level)[0])


def _integrate_once(h, p1: float, level: _Level) -> float:
    """One level: fsum of w_i h(t_i) over the level's n nodes, or
    QuadratureFailure where that sum is not finite.

    Where h is a ``_VALUE_INTEGRANDS`` value, which has no ``__call__``,
    h(t_i) comes from its ``values`` through the ``_level_values`` memo, so
    integrals of one h at weight exponents that share (extra, n) evaluate h
    once per level between them.  Any other h is a callable, evaluated on
    every level and never stored: it may hold state.  Either way the sum
    is the same fsum of the same products, and the weights are built, or
    refused, before h is evaluated.
    """
    ts, weights = _node_transform(p1, level)
    try:
        if type(h) in _VALUE_INTEGRANDS:
            values = _level_values(h, level)
        else:
            values = list(map(h, ts))  # h runs before fsum's try below
        try:
            total = math.fsum(map(mul, weights, values))
        except ValueError:  # fsum of +inf and -inf
            total = math.nan
    except OverflowError:  # in h (cosh of a large argument) or in the sum
        raise QuadratureFailure(
            "transformed integrand overflows double range") from None
    if not math.isfinite(total):
        raise QuadratureFailure(
            f"transformed integrand sums to {total!r} over {level.n} nodes")
    return total


def weighted_integral(h, a: float, cfg: QuadConfig = _DEFAULT_QUAD) -> float:
    """int_0^1 (1 - t^2)^a h(t) dt for a > -1, h bounded on [0, 1].

    Node doubling continues until two successive levels agree to abs_tol
    relative to max(1, |value|); QuadratureFailure if the cap is hit first
    or the transformed integrand leaves the double range or a level's sum
    is not finite (a NaN level would otherwise double on to the cap).  A
    cosine integrand cos(omega t) with omega above pi times the last level's
    node count is refused before any level: there that level has fewer than
    two nodes per period, so no level can resolve it.
    """
    if not a > -1.0:
        raise InvalidParameter(f"weight exponent must exceed -1, got {a}")
    p1 = _finite(2.0 * a + 1.0,
                 "weight exponent 2a + 1 exceeds double range (a = {!r})", a)
    last = cfg.nodes * 2 ** cfg.max_refinements
    if (type(h) is _TrigIntegrand and h.fn is math.cos
            and h.omega > math.pi * last):
        raise QuadratureFailure(
            f"cos({h.omega!r} t) oscillates faster than {last} nodes resolve")
    extra = _substitution_levels(p1)
    n = cfg.nodes
    prev = None
    for _ in range(cfg.max_refinements + 1):
        # one level, the key of every per-level cache; legendre_nodes is
        # called on every level, cached or not: perfbench/tracer.py counts
        # quadrature nodes from these calls
        cur = _integrate_once(h, p1, _Level(extra, n, legendre_nodes(n)))
        if prev is not None and abs(cur - prev) <= cfg.abs_tol * max(1.0, abs(cur)):
            return cur
        prev = cur
        n *= 2
    raise QuadratureFailure(
        f"node doubling did not reach abs_tol={cfg.abs_tol} within "
        f"{cfg.max_refinements} refinements (final {n // 2} nodes)"
    )


def _argument(name: str, alpha: float, x: float, k: float) -> float:
    """alpha x / sqrt(k), where ``name`` (cos, cosh, sin or sinh) is taken;
    Overflow where it leaves the double range."""
    return _finite(alpha * x / math.sqrt(k), "{} argument alpha x / sqrt(k) "
                   "exceeds double range (alpha = {!r}, x = {!r}, k = {!r})",
                   name, alpha, x, k)


def _eval_w_trig(p: IntegralRepParams, cfg: QuadConfig, weight) -> float:
    if not p.nu / p.k > -0.5:
        raise OutsideDomain("cosine/cosh representation requires nu/k > -1/2",
                            f"nu/k={p.nu / p.k}")
    omega = _argument(weight.__name__, p.alpha, p.x, p.k)
    integral = weighted_integral(_TrigIntegrand(weight, omega),
                                 p.nu / p.k - 0.5, cfg)
    ln_const = _LN2 - 0.5 * math.log(p.k) - 0.5 * _LN_PI
    return _prefactor(ln_const, p.nu + 0.5 * p.k, p.k, p.nu / p.k, p.x,
                      "integral prefactor") * integral


def eval_w_cos(p: IntegralRepParams, cfg: QuadConfig = _DEFAULT_QUAD) -> float:
    """W with c = +alpha^2 via the cosine representation

        (2/(sqrt(k) sqrt(pi) Gamma_k(nu + k/2))) (x/2)^(nu/k)
            * int_0^1 (1 - t^2)^(nu/k - 1/2) cos(alpha x t / sqrt(k)) dt,

    valid for nu/k > -1/2.
    """
    return _eval_w_trig(p, cfg, math.cos)


def eval_w_cosh(p: IntegralRepParams, cfg: QuadConfig = _DEFAULT_QUAD) -> float:
    """W with c = -alpha^2 via the hyperbolic-cosine representation; same
    prefactor and validity range as eval_w_cos."""
    return _eval_w_trig(p, cfg, math.cosh)


_SQUARES = tuple(float(r * r) for r in range(1, 200))
# sum |t_r| = I0(2 sqrt|q|) <= e^(2 sqrt|q|), so the rounding bound
# 2^-53 sum |t_r| of bessel_kernel exceeds 1e-12 once -q passes this (~20.7).
_KERNEL_MAX_CANCEL_Q = (0.5 * math.log(1e-12 * 2.0 ** 53)) ** 2


def bessel_kernel(u: float, c: float) -> float:
    """Inner kernel K_c(u) = sum_r (-c)^r (u/2)^(2r) / (r!)^2.

    The classical J0 shape for c > 0 and I0 shape for c < 0, evaluated as a
    plain double series of up to 200 terms.  With q = -c (u/2)^2 < 0 the
    terms alternate and their rounding error, about 2^-53 e^(2 sqrt(-q)),
    grows while the sum stays within [-1, 1]; NonConvergence is raised once
    that bound exceeds 1e-12 (about u^2 c > 83).  NonConvergence is also
    raised when, after 200 terms, the tail bound exceeds 1e-17 of the sum.
    Overflow is raised where q = -c (u/2)^2 leaves the double range, and
    DomainError where u or c is not finite.
    """
    half_u = 0.5 * u
    try:
        q = -c * half_u ** 2
    except OverflowError:  # (u/2)^2 past the double range, q perhaps not
        q = -c * half_u * half_u
    if not math.isfinite(q):
        if not (math.isfinite(u) and math.isfinite(c)):
            raise DomainError(
                f"bessel_kernel requires finite u and c, got u={u}, c={c}")
        raise Overflow(f"bessel_kernel's -c (u/2)^2 exceeds double range at "
                       f"u={u}, c={c}")
    if q < -_KERNEL_MAX_CANCEL_Q:
        raise NonConvergence(
            f"bessel_kernel loses accuracy to cancellation at u={u}, c={c}: "
            f"rounding bound 2^-53 e^(2 sqrt({-q:.4g})) exceeds 1e-12")
    term = 1.0
    terms = [term]
    for square in _SQUARES:
        term *= q / square
        terms.append(term)
        if -1e-17 <= term <= 1e-17:
            return math.fsum(terms)
    # Only q > 0 gets here: the terms are positive and, past r = 199, the
    # ratio t_(r+1) / t_r = q / (r + 1)^2 is at most q / 200^2, so the
    # tail is below t_199 q / (200^2 - q).
    if q < 40000.0:
        total = math.fsum(terms)
        if term * q / (40000.0 - q) <= 1e-17 * total:
            return total
    raise NonConvergence(
        f"bessel_kernel did not converge in 200 terms at u={u}, c={c}")


def eval_w_bessel_kernel(p: IntegralRepParams, c: float,
                         cfg: QuadConfig = _DEFAULT_QUAD) -> float:
    """W via the kernel representation

        (2/(k Gamma_k(nu))) (x/2)^(nu/k)
            * int_0^1 t (1 - t^2)^(nu/k - 1) K_c(x t / sqrt(k)) dt,

    valid for nu > 0; c is passed explicitly (both signs admissible).
    """
    if not p.nu > 0.0:
        raise OutsideDomain("kernel representation requires nu > 0",
                            f"nu={p.nu}")
    if math.isnan(c):
        raise InvalidParameter("c must be a real number, got nan")
    scale = p.x / math.sqrt(p.k)
    integral = weighted_integral(_KernelIntegrand(scale, c),
                                 p.nu / p.k - 1.0, cfg)
    return _prefactor(_LN2 - math.log(p.k), p.nu, p.k, p.nu / p.k, p.x,
                      "integral prefactor") * integral


ROUTES = ("cos", "cosh", "kernel")


def route_legs(k: float, nu: float, alpha: float, x: float, route: str,
               cfg: QuadConfig = _DEFAULT_QUAD
               ) -> tuple[str | None, list[tuple[float, float, float]]]:
    """Quadrature and series values of one route at (k, nu, alpha, x).

    Returns ``(reason, legs)``.  ``legs`` are (c, quadrature, series)
    triples, the series from ``eval_w`` after every leg's quadrature: 'cos'
    gives c = +alpha^2, 'cosh' c = -alpha^2, and 'kernel' both signs.  Where
    the route's representation refuses the point, ``reason`` is the
    refusal's reason and there are no legs; otherwise ``reason`` is None.
    """
    if route not in ROUTES:
        raise InvalidParameter(
            f"route must be 'cos', 'cosh', or 'kernel', got {route!r}"
        )
    rep = IntegralRepParams(k, nu, alpha, x)  # validates every route's input
    c_sq = alpha * alpha
    try:
        if route == "kernel":  # the kernel reads c, never alpha
            quads = [(c, eval_w_bessel_kernel(rep, c, cfg))
                     for c in (_finite(c_sq, _C_OVERFLOW, c_sq), -c_sq)]
        elif route == "cos":
            quads = [(c_sq, eval_w_cos(rep, cfg))]
        else:
            quads = [(-c_sq, eval_w_cosh(rep, cfg))]
    except OutsideDomain as exc:
        return exc.reason, []
    return None, [(c, quad, _series_w(k, nu, c, x)) for c, quad in quads]


# c = +-alpha^2 is checked before the first leg that reads it (the kernel's
# quadrature, or the series after a cos or cosh quadrature), since
# KBesselParams refuses an infinite c as invalid and bessel_kernel as a bad
# argument
_C_OVERFLOW = "c = +-alpha^2 exceeds double range, got {!r}"


def _series_w(k: float, nu: float, c: float, x: float) -> float:
    """eval_w's value at c = +-alpha^2, or Overflow where alpha^2 has left
    the double range."""
    return eval_w(KBesselParams(k, nu, _finite(c, _C_OVERFLOW, c)), x).value


def _relation_sides(name: str, k: float, alpha: float, x: float
                    ) -> tuple[float, float]:
    """Both sides of the 'sin' (c = alpha^2) or 'sinh' (c = -alpha^2)
    relation; Overflow where the right side is not finite (alpha/k past
    the double range, say)."""
    fn, sign = (math.sin, 1.0) if name == "sin" else (math.sinh, -1.0)
    IntegralRepParams(k, 0.5 * k, alpha, x)  # validates k, alpha and x
    arg = _argument(name, alpha, x, k)
    try:
        lhs = fn(arg)
    except OverflowError:
        raise Overflow(f"{name}({arg!r}) exceeds double range") from None
    w = _series_w(k, 0.5 * k, sign * (alpha * alpha), x)
    rhs = (alpha / k) * math.sqrt(0.5 * math.pi * x) * w
    return lhs, _finite(rhs, "{} relation's right side (alpha/k) sqrt(pi x / 2)"
                        " W is {!r} at alpha/k = {!r}", name, rhs, alpha / k)


def sin_relation_check(k: float, alpha: float, x: float) -> float:
    """Residual sin(alpha x / sqrt(k)) - (alpha/k) sqrt(pi x / 2) W_(k/2)(x)
    with c = alpha^2.

    The stated constant alpha/k makes the residual vanish at k = 1 (the
    classical half-order sine form); for other k the caller is expected to
    examine the residual (or fit the constant) rather than assume zero.
    """
    lhs, rhs = _relation_sides("sin", k, alpha, x)
    return lhs - rhs


def sinh_relation_check(k: float, alpha: float, x: float) -> float:
    """Residual sinh(alpha x / sqrt(k)) - (alpha/k) sqrt(pi x / 2) W_(k/2)(x)
    with c = -alpha^2; same contract as sin_relation_check."""
    lhs, rhs = _relation_sides("sinh", k, alpha, x)
    return lhs - rhs
