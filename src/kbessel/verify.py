"""Grid-driven numerical certification of the library's identities and
inequalities.

Every check returns a :class:`VerifyReport` with one uniform margin
convention:

* for an inequality, ``margin`` is the slack — the side asserted to be
  larger minus the side asserted to be smaller;
* for an identity, ``margin`` is ``-abs(residual)`` (``recurrences`` gives
  minus its worst residual measured in units of its tolerance, with
  tolerance 1);
* a skipped point carries ``margin = None`` and the reason in ``notes``;
* a margin or tolerance that is infinite or NaN raises Overflow instead.

Each check lists the (margin, tol) comparisons it asserts, and ``_report``
alone decides the verdict: the report's margin is the smallest margin, and
it passes exactly when every margin is ``>= -tol`` for its own tolerance,
so reports can be filtered and aggregated without knowing which inequality
they came from.  ``run_grid`` expands a :class:`GridSpec` into every
combination and runs the check on each; a check's refusal of a point
outside its domain (:class:`~kbessel.errors.OutsideDomain`) becomes a skip
report with the refusal's reason, and no single point's failure aborts
the run.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from numbers import Real

from .errors import (InvalidParameter, KBesselError, OutsideDomain, Overflow,
                     _exp_guarded, _finite, _normal, _positive)
from .integral import (
    ROUTES,
    QuadConfig,
    _relation_sides,
    _TrigIntegrand,
    route_legs,
    weighted_integral,
)
from .kbessel import (
    KBesselParams,
    deriv_w,
    eval_normalized_i,
    eval_w,
    eval_w_with_derivatives,
    multisection_lhs,
)
from .kgamma import k_digamma, k_trigamma, ln_k_gamma

_QUAD = QuadConfig(abs_tol=1e-13)
_MULTISECTION_TERMS = 40
_COEFFICIENT_R_MAX = 30

__all__ = [
    "CHECK_NAMES",
    "GridSpec",
    "VerifyReport",
    "check_chebyshev_products",
    "check_coefficient_facts",
    "check_integral_agreement",
    "check_multisection",
    "check_nu_decreasing_logconvex",
    "check_ode",
    "check_order_ratio_monotone",
    "check_ratio_x_monotone",
    "check_recurrences",
    "check_sin_relation",
    "check_sinh_relation",
    "check_turan",
    "default_grid",
    "run_grid",
]


class GridSpec(namedtuple("GridSpec", "k_values nu_values c_values "
                           "alpha_values x_values a_values cvx_weights")):
    """Explicit value lists that ``run_grid`` expands into check points.

    ``nu_values`` are absolute orders; a combination outside a check's
    domain (which depends on k) is refused by the check itself and reported
    as skipped.  ``a_values`` are order shifts for the product-vs-square
    check; ``cvx_weights`` are interpolation weights in [0, 1] for the
    log-convexity check.  Each field is an iterable, not a str or bytes, of
    finite real numbers that are not bools (lists, tuples, generators and
    NumPy arrays qualify, a 0-d array does not); repeated values in a field
    are dropped.
    """

    __slots__ = ()
    # vars(spec) maps each field name to its values, as a dataclass's does
    __dict__ = property(lambda self: self._asdict())

    def __new__(cls, k_values, nu_values, c_values, alpha_values, x_values,
                a_values, cvx_weights):
        fields = []
        for name, values in zip(cls._fields, (
                k_values, nu_values, c_values, alpha_values, x_values,
                a_values, cvx_weights)):
            try:  # a str or bytes is not an array of numbers
                values = None if isinstance(values, (str, bytes)) else tuple(values)
            except TypeError:  # not iterable: a number, a 0-d NumPy array
                values = None
            # a grid value is a finite real number, not a bool; an int past
            # the double range is refused here, before float() would raise
            if values is None or not all(
                    isinstance(v, Real) and not isinstance(v, bool)
                    and abs(v) <= sys.float_info.max for v in values):
                raise InvalidParameter(f"grid field {name!r} must be an array of numbers")
            values = tuple(dict.fromkeys(map(float, values)))
            if not values:
                raise InvalidParameter(f"{name} must be non-empty")
            fields.append(values)
        spec = super().__new__(cls, *fields)
        for name in ("k_values", "x_values", "alpha_values"):
            if any(v <= 0.0 for v in getattr(spec, name)):
                raise InvalidParameter(f"{name} must be positive")
        if any(not 0.0 <= w <= 1.0 for w in spec.cvx_weights):
            raise InvalidParameter("cvx_weights must lie in [0, 1]")
        return spec

    _make = classmethod(lambda cls, values: cls(*values))


def default_grid() -> GridSpec:
    """Grid used by the command-line verifier when none is supplied."""
    return GridSpec(
        k_values=(0.5, 1.0, 2.0),
        nu_values=(-0.3, 0.0, 0.25, 0.7, 1.5, 3.0),
        c_values=(-1.0, 1.0, 2.0),
        alpha_values=(0.5, 1.0, 2.0),
        x_values=(0.25, 1.0, 3.0),
        a_values=(0.25, 0.5, 1.0),
        cvx_weights=(0.0, 0.5, 1.0),
    )


class VerifyReport(namedtuple("VerifyReport", "check_name grid_point margin "
                               "passed skipped notes", defaults=(False, ""))):
    """Outcome of one check at one grid point."""

    __slots__ = ()


def _report(name: str, point: dict, comparisons: list[tuple[float, float]],
            notes: str) -> VerifyReport:
    """The report of a check asserting each (margin, tol) in ``comparisons``
    (at least one): its margin is the smallest, and it passes only where
    every margin >= -its tol.  Overflow where a margin or tolerance is
    infinite or NaN, which no report may carry; the message ends with the
    check's notes."""
    for margin, tol in comparisons:
        for what, value in (("margin", margin), ("tolerance", tol)):
            _finite(value, "{} {} is {!r}: {}", name, what, value, notes)
    return VerifyReport(name, point, min(m for m, _ in comparisons),
                        all(m >= -t for m, t in comparisons), False, notes)


def _skip(name: str, point: dict, reason: str) -> VerifyReport:
    return VerifyReport(name, point, None, True, True, reason)


def _require_order_pair(k: float, mu: float, nu: float) -> None:
    _positive("k", k)
    if not nu >= mu:
        raise InvalidParameter(f"orders must satisfy nu >= mu, got mu={mu}, nu={nu}")
    if not mu > -k:
        raise OutsideDomain("orders must exceed -k", f"mu={mu}, k={k}")


def _slack(larger: float, smaller: float) -> tuple[float, float]:
    """(margin, scale) of the inequality larger >= smaller: the slack, and
    max(1, |larger|, |smaller|), which its relative tolerance multiplies."""
    return larger - smaller, max(1.0, abs(larger), abs(smaller))


def _products(a: float, b: float, c: float, d: float
              ) -> tuple[float, float, str]:
    """(a b, c d, note) for the two sides of a product comparison.  Where
    the factors fit but a product does not, each factor times 2^-h is
    exact, so both sides scale by 2^-2h and the larger lands in [1, 8),
    where the relative test is as before; the note gives the scaling."""
    left, right = a * b, c * d
    if not (math.isinf(left) or math.isinf(right)):
        return left, right, ""
    top = max(math.frexp(a)[1] + math.frexp(b)[1],
              math.frexp(c)[1] + math.frexp(d)[1])
    h = (top - 2) // 2
    return (math.ldexp(a, -h) * math.ldexp(b, -h),
            math.ldexp(c, -h) * math.ldexp(d, -h),
            f" (both scaled by 2^{-2 * h})")


def _normalized(k: float, order: float, x: float) -> float:
    return eval_normalized_i(KBesselParams(k, order, -1.0), x).value


# ---------------------------------------------------------------------------
# differential equation and recurrence residuals


def check_ode(p: KBesselParams, x: float) -> VerifyReport:
    """Residual of y'' + y'/x + (ck - nu^2/x^2) y / k^2 = 0.

    Derivatives come from ``eval_w_with_derivatives``, never finite
    differences: below y = x sqrt(|c|/k) = 17 term-by-term differentiation
    of the series, so the residual isolates algebraic consistency of the
    three sums; from y = 17 on the raised-order relations, so it tests W at
    nu, nu + k and nu + 2k against the order recurrence.  The default grid
    stays below y = 8.5.  margin = -abs(residual), tol = 1e-8 * scale with
    scale = max(|y''|, |y'/x|, |y|/x^2, 1); Overflow where k^2 or x^2 is
    not a normal double.
    """
    _positive("x", x)
    point = {"k": p.k, "nu": p.nu, "c": p.c, "x": x}
    res, d1, d2 = eval_w_with_derivatives(p, x)
    y = res.value
    k2, x2 = p.k * p.k, x * x
    for name, square in (("k^2", k2), ("x^2", x2)):
        _normal(square, "the ode residual's {} = {!r} is not a normal double",
                name, square)
    residual = d2 + d1 / x + (p.c * p.k - (p.nu * p.nu) / x2) * y / k2
    scale = max(abs(d2), abs(d1 / x), abs(y) / x2, 1.0)
    notes = f"residual={residual:.6e} scale={scale:.6e}"
    return _report("ode", point, [(-abs(residual), 1e-8 * scale)], notes)


def check_recurrences(p: KBesselParams, x: float) -> VerifyReport:
    """Residuals of the order-shift and derivative identities at one point.

    Bundled identities (those needing the lowered order nu - k apply only
    when nu > 0):

    * first-derivative relation using the raised order,
      x W' = (nu/k) W - x c W_{nu+k};
    * first-derivative relation using the lowered order,
      x W' = (x/k) W_{nu-k} - (nu/k) W;
    * three-term order relation, 2 nu W = x W_{nu-k} + x c k W_{nu+k};
    * derivative ladder at m=1, 2k W' = W_{nu-k} - c k W_{nu+k};
    * weighted-power derivatives d/dx[x^(+-nu/k) W] against centered
      finite differences;
    * the general ladder d^m W/dx^m for m in {1, 2} against finite
      differences.

    At y = x sqrt(|c|/k) >= 17, W' comes from the first of these
    relations (``eval_w_with_derivatives``), so that identity holds there
    by construction and only the others test it; the default grid stays
    below y = 8.5.

    Exact residuals are measured against 1e-10 * scale with
    scale = max over the three orders of |W| and 1; finite-difference
    comparisons use absolute tolerances 1e-6 (first derivatives) and
    1e-5 (ladder).  margin = -(worst residual / its tolerance), so the
    check passes when margin >= -1.
    """
    _positive("x", x)
    point = {"k": p.k, "nu": p.nu, "c": p.c, "x": x}
    res, d1, _ = eval_w_with_derivatives(p, x)
    w = res.value
    beta = p.nu / p.k
    w_hi = eval_w(KBesselParams(p.k, p.nu + p.k, p.c), x).value
    has_lo = p.nu > 0.0
    w_lo = (eval_w(KBesselParams(p.k, p.nu - p.k, p.c), x).value
            if has_lo else 0.0)
    scale = max(abs(w), abs(w_hi), abs(w_lo), 1.0)
    tol_exact = 1e-10 * scale

    ratios: list[tuple[str, float]] = []
    r_up = x * d1 - beta * w + x * p.c * w_hi
    ratios.append(("derivative relation (raised order)", abs(r_up) / tol_exact))
    if has_lo:
        r_down = x * d1 - (x / p.k) * w_lo + beta * w
        ratios.append(("derivative relation (lowered order)",
                       abs(r_down) / tol_exact))
        r_three = 2.0 * p.nu * w - x * w_lo - x * p.c * p.k * w_hi
        ratios.append(("three-term order relation", abs(r_three) / tol_exact))
        r_ladder1 = 2.0 * p.k * d1 - w_lo + p.c * p.k * w_hi
        ratios.append(("derivative ladder m=1 (analytic)",
                       abs(r_ladder1) / tol_exact))

    h = 1e-6
    if x > 2.0 * h:
        w_plus = eval_w(p, x + h).value
        w_minus = eval_w(p, x - h).value
        try:
            if has_lo:
                fd = ((x + h) ** beta * w_plus
                      - (x - h) ** beta * w_minus) / (2.0 * h)
                r5 = fd - (x ** beta / p.k) * w_lo
                ratios.append(("weighted-power derivative (lowering)",
                               abs(r5) / 1e-6))
            fd = ((x + h) ** (-beta) * w_plus
                  - (x - h) ** (-beta) * w_minus) / (2.0 * h)
            r6 = fd + p.c * x ** (-beta) * w_hi
        except OverflowError:
            raise Overflow(f"x^(+-nu/k) exceeds double range at x = {x!r}, "
                           f"nu/k = {beta!r}") from None
        ratios.append(("weighted-power derivative (raising)",
                       abs(r6) / 1e-6))

        for m, hm in ((1, h), (2, 1e-4)):
            if not p.nu - m * p.k > -p.k or not x > 2.0 * hm:
                continue
            ladder = deriv_w(p, x, m).value
            if m == 1:
                fd = (w_plus - w_minus) / (2.0 * hm)
            else:
                fd = (eval_w(p, x + hm).value - 2.0 * w
                      + eval_w(p, x - hm).value) / (hm * hm)
            ratios.append((f"derivative ladder m={m} vs finite difference",
                           abs(ladder - fd) / 1e-5))

    worst_name, worst = max(ratios, key=lambda item: item[1])
    notes = (f"{len(ratios)} identities checked; worst: {worst_name} at "
             f"{worst:.3e} of its tolerance; scale={scale:.6e}")
    return _report("recurrences", point, [(-worst, 1.0)], notes)


def check_multisection(p: KBesselParams, x: float) -> VerifyReport:
    """Truncated order-multisection expansion vs the directly evaluated
    lowered-order function, certified on x <= 1 where the truncation bound
    is effective.  margin = -abs(difference), tol = 1e-8 absolute.
    """
    _positive("x", x)
    if not p.nu > 0.0:
        raise OutsideDomain("lowered order requires nu > 0", f"nu={p.nu}")
    point = {"k": p.k, "nu": p.nu, "c": p.c, "x": x, "terms": _MULTISECTION_TERMS}
    if x > 1.0:
        return _skip("multisection", point,
                     "truncated expansion certified only for x <= 1")
    got = multisection_lhs(p, x, _MULTISECTION_TERMS).value
    want = eval_w(KBesselParams(p.k, p.nu - p.k, p.c), x).value
    diff = got - want
    notes = (f"{_MULTISECTION_TERMS}-term expansion={got!r} direct={want!r} "
             f"diff={diff:.3e}")
    return _report("multisection", point, [(-abs(diff), 1e-8)], notes)


# ---------------------------------------------------------------------------
# monotonicity, convexity, and product inequalities


def check_ratio_x_monotone(k: float, mu: float, nu: float,
                           x_grid) -> VerifyReport:
    """Discrete monotonicity in x of the normalized-function ratio.

    For nu >= mu > -k the ratio of normalized values at orders mu over nu
    must be non-decreasing along the grid; margin is the smallest
    consecutive increment, tol = 1e-12.
    """
    _require_order_pair(k, mu, nu)
    xs = [float(x) for x in x_grid]
    if len(xs) < 2:
        raise OutsideDomain("needs at least two x grid points", f"x_grid={xs}")
    if xs[0] <= 0.0 or any(b <= a for a, b in zip(xs, xs[1:])):
        raise InvalidParameter("x_grid must be positive and strictly increasing")
    ratios = [_normalized(k, mu, x) / _normalized(k, nu, x)
              for x in xs]
    margin = min(b - a for a, b in zip(ratios, ratios[1:]))
    point = {"k": k, "mu": mu, "nu": nu,
             "x_start": xs[0], "x_stop": xs[-1], "x_count": len(xs)}
    notes = (f"smallest consecutive ratio increment {margin:.6e} over "
             f"{len(xs)} grid points")
    return _report("ratio-x-monotone", point, [(margin, 1e-12)], notes)


def check_order_ratio_monotone(k: float, mu: float, nu: float,
                               x: float) -> VerifyReport:
    """Cross-order product inequality at fixed x.

    For nu >= mu > -k the normalized values satisfy
    I_{nu+k} I_mu >= I_nu I_{mu+k}; margin = LHS - RHS,
    tol = 1e-12 * scale, both sides scaled as in ``_products`` where one
    leaves the double range.
    """
    _require_order_pair(k, mu, nu)
    _positive("x", x)
    lhs, rhs, scaled = _products(
        _normalized(k, nu + k, x), _normalized(k, mu, x),
        _normalized(k, nu, x), _normalized(k, mu + k, x))
    margin, scale = _slack(lhs, rhs)
    point = {"k": k, "mu": mu, "nu": nu, "x": x}
    notes = f"lhs={lhs!r} rhs={rhs!r}{scaled}"
    return _report("order-ratio-monotone", point, [(margin, 1e-12 * scale)], notes)


def check_nu_decreasing_logconvex(k: float, nu_pair, alpha_cvx: float,
                                  x: float) -> VerifyReport:
    """Monotone decrease and log-convexity of the normalized value in the
    order.

    Two margins are computed: (i) the value at the smaller order minus the
    value at the larger order, and (ii) the weighted geometric mean minus
    the value at the interpolated order alpha*nu1 + (1-alpha)*nu2.  Both
    must be >= -1e-12 * their scale; the report's margin is the smaller of
    the two and the notes carry both.
    """
    nu1, nu2 = (float(nu_pair[0]), float(nu_pair[1]))
    _positive("k", k)
    if not 0.0 <= alpha_cvx <= 1.0:
        raise InvalidParameter(f"weight must lie in [0, 1], got {alpha_cvx}")
    _positive("x", x)
    v1 = _normalized(k, nu1, x)
    v2 = _normalized(k, nu2, x)
    v_small, v_large = (v1, v2) if nu1 <= nu2 else (v2, v1)
    margin_dec, scale_dec = _slack(v_small, v_large)
    nu_mid = alpha_cvx * nu1 + (1.0 - alpha_cvx) * nu2
    margin_cvx, scale_cvx = _slack(v1 ** alpha_cvx * v2 ** (1.0 - alpha_cvx),
                                   _normalized(k, nu_mid, x))
    point = {"k": k, "nu1": nu1, "nu2": nu2, "weight": alpha_cvx, "x": x}
    notes = (f"decreasing margin={margin_dec:.6e} (scale {scale_dec:.3e}); "
             f"log-convexity margin={margin_cvx:.6e} (scale {scale_cvx:.3e})")
    return _report("nu-decreasing-logconvex", point,
                   [(margin_dec, 1e-12 * scale_dec),
                    (margin_cvx, 1e-12 * scale_cvx)], notes)


def check_turan(k: float, nu: float, a: float, x: float) -> VerifyReport:
    """Product-vs-square inequality across shifted orders.

    For nu >= |a| - k the normalized values satisfy
    I_{nu-a} I_{nu+a} >= I_nu^2; margin = product - square,
    tol = 1e-12 * scale, both sides scaled as in ``_products`` where one
    leaves the double range.
    """
    _positive("k", k)
    if not nu >= abs(a) - k + 1e-9:
        raise OutsideDomain("order too small for the shift (needs nu >= |a| - k)",
                            f"nu={nu}, a={a}, k={k}")
    _positive("x", x)
    v_lo = _normalized(k, nu - a, x)
    v_hi = _normalized(k, nu + a, x)
    v_mid = _normalized(k, nu, x)
    product, square, scaled = _products(v_lo, v_hi, v_mid, v_mid)
    margin, scale = _slack(product, square)
    point = {"k": k, "nu": nu, "a": a, "x": x}
    notes = f"shifted product={product!r} square={square!r}{scaled}"
    return _report("turan", point, [(margin, 1e-12 * scale)], notes)


def check_chebyshev_products(k: float, nu: float, x: float,
                             variant: str) -> VerifyReport:
    """Product-of-integrals comparison behind the final product inequality.

    With weight q(t) = cos(x t / sqrt(k)) (or cosh), f = (1-t^2)^(nu/k-1/2)
    and g = (1-t^2)^(nu/k+1/2), the four quadratures must satisfy
    (int qf)(int qg) <= (int q)(int qfg) when f and g are monotone in the
    same sense (nu >= k/2) and the reverse when they are opposite
    (-k/2 < nu < k/2).  Points with nu <= -k/2 are refused (OutsideDomain)
    because int qf and int qfg diverge there; the cos variant is skipped,
    a limit of the certification rather than of the domain, when the
    weight changes sign on [0, 1] (x/sqrt(k) >= pi/2).  margin is the
    slack of the asserted side, tol = 1e-12 * scale; where a product of two
    integrals leaves the double range, both sides are first scaled by one
    power of two (``_products``), which the notes give.  The notes log how
    the plain weight integral compares with two candidate closed forms
    (argument x/sqrt(k) vs argument x/k), or that those probes are out of
    double range, or not evaluable where x/sqrt(k) underflows to 0; the
    x/k probe alone is not evaluable where x/k underflows to 0 or
    sqrt(k)/x overflows.
    Only the inequality itself is asserted.
    """
    if variant not in ("cos", "cosh"):
        raise InvalidParameter(f"variant must be 'cos' or 'cosh', got {variant!r}")
    _positive("k", k)
    _positive("x", x)
    if not nu > -0.5 * k:
        raise OutsideDomain("weighted integrals diverge for nu <= -k/2 "
                            "(weight exponent <= -1)", f"nu={nu}, k={k}")
    point = {"k": k, "nu": nu, "x": x, "variant": variant}
    omega = x / math.sqrt(k)
    if variant == "cos" and omega >= 0.5 * math.pi:
        return _skip("chebyshev", point,
                     "cosine weight changes sign on [0, 1] when "
                     "x/sqrt(k) >= pi/2")
    weight, antiderivative = ((math.cos, math.sin) if variant == "cos"
                              else (math.cosh, math.sinh))
    q = _TrigIntegrand(weight, omega)
    beta = nu / k
    int_q = weighted_integral(q, 0.0, _QUAD)
    int_qf = weighted_integral(q, beta - 0.5, _QUAD)
    int_qg = weighted_integral(q, beta + 0.5, _QUAD)
    int_qfg = weighted_integral(q, 2.0 * beta, _QUAD)
    x_k = x / k
    try:
        probe_sqrt_k = abs(int_q - antiderivative(omega) / omega)
        probe_k = abs(int_q - (math.sqrt(k) / x) * antiderivative(x_k))
    except OverflowError:  # the integrals fit where sinh(x/k) need not
        probes = (f"closed-form probes out of range: "
                  f"{antiderivative.__name__} exceeds double range at "
                  f"x/sqrt(k) = {omega!r} or x/k = {x_k!r}")
    except ZeroDivisionError:  # the integrals fit where omega is 0.0
        probes = (f"closed-form probes not evaluable: x/sqrt(k) underflows "
                  f"to {omega!r}")
    else:
        probes = f"|vs closed form with argument x/sqrt(k)|={probe_sqrt_k:.3e}, "
        if x_k == 0.0:  # the probe would read int_q, or nan
            probes += (f"closed form with argument x/k not evaluable: "
                       f"x/k underflows to {x_k!r}")
        elif not math.isfinite(probe_k):  # sqrt(k)/x overflows
            probes += (f"closed form with argument x/k not evaluable: "
                       f"(sqrt(k)/x) {antiderivative.__name__}(x/k) exceeds "
                       f"double range at x/k = {x_k!r}")
        else:
            probes += f"|vs closed form with argument x/k|={probe_k:.3e}"
    separate, joint, scaled = _products(int_qf, int_qg, int_q, int_qfg)
    if nu >= 0.5 * k:
        margin, scale = _slack(joint, separate)
        regime = "same-sense monotone (nu >= k/2): separate <= joint"
    else:
        margin, scale = _slack(separate, joint)
        regime = "opposite-sense monotone (|nu| < k/2): separate >= joint"
    notes = (f"{regime}; separate={separate!r} joint={joint!r}{scaled}; "
             f"plain weight integral={int_q!r}, {probes}")
    return _report("chebyshev", point, [(margin, 1e-12 * scale)], notes)


# ---------------------------------------------------------------------------
# coefficient-level facts used by the monotonicity proofs


def check_coefficient_facts(k: float, mu: float, nu: float) -> VerifyReport:
    """Series-coefficient inequalities that drive the monotonicity and
    convexity results, asserted directly for r <= _COEFFICIENT_R_MAX.

    With f_r(nu) the normalized series coefficient, three facts are
    checked: the cross-order coefficient-ratio step
    (r k + mu + k)/(r k + nu + k) stays <= 1 for nu >= mu (cross-checked
    against the log-gamma route to 1e-10 relative); the log-derivative in
    the order, Psi_k(nu+k) - Psi_k(r k + nu + k), stays <= 0; and the
    second log-derivative, Psi_k'(nu+k) - Psi_k'(r k + nu + k), stays
    >= 0.  margin is the worst inequality slack (tol 1e-12) unless the
    ratio cross-check fails, in which case margin is minus its relative
    error.
    """
    _require_order_pair(k, mu, nu)
    worst_slack = math.inf
    worst_rel = 0.0
    dig_base = k_digamma(nu + k, k)
    tri_base = k_trigamma(nu + k, k)
    # ln Gamma_k(r k + order + k) for r <= _COEFFICIENT_R_MAX + 1, each once
    ln_nu, ln_mu = ([ln_k_gamma(r * k + order + k, k)
                     for r in range(_COEFFICIENT_R_MAX + 2)] for order in (nu, mu))
    for r in range(_COEFFICIENT_R_MAX + 1):
        direct = (r * k + mu + k) / (r * k + nu + k)
        ln_route = ln_nu[r] - ln_nu[r + 1] + ln_mu[r + 1] - ln_mu[r]
        ratio = _exp_guarded(ln_route, "coefficient-facts' log-gamma route "
                             "ratio at r = {}", r)
        rel = abs(ratio - direct) / direct
        worst_rel = max(worst_rel, rel)
        slack_ratio = 1.0 - direct
        slack_dig = k_digamma(r * k + nu + k, k) - dig_base
        slack_tri = tri_base - k_trigamma(r * k + nu + k, k)
        worst_slack = min(worst_slack, slack_ratio, slack_dig, slack_tri)
    point = {"k": k, "mu": mu, "nu": nu, "r_max": _COEFFICIENT_R_MAX}
    agree = worst_rel <= 1e-10
    margin = worst_slack if agree else -worst_rel
    notes = (f"worst inequality slack={worst_slack:.6e}; "
             f"ratio cross-check max rel. diff={worst_rel:.3e}"
             + ("" if agree else " (exceeds 1e-10)"))
    return _report("coefficient-facts", point, [(margin, 1e-12)], notes)


# ---------------------------------------------------------------------------
# elementary-function relations and route agreement


def _relation_report(relation: str, k: float, alpha: float,
                     x: float) -> VerifyReport:
    lhs, rhs_stated = _relation_sides(relation, k, alpha, x)
    residual_stated = lhs - rhs_stated
    scale = max(1.0, abs(lhs))
    residual_rescaled = lhs - k * rhs_stated
    if abs(rhs_stated) > 1e-13 * scale:
        fitted = f"{lhs / rhs_stated!r}"
    else:
        fitted = "indeterminate (both sides vanish)"
    point = {"k": k, "alpha": alpha, "x": x}
    notes = (f"residual with the stated constant={residual_stated:.6e}; "
             f"fitted constant multiplier={fitted}; residual after "
             f"multiplying the constant by k={residual_rescaled:.3e}")
    return _report(f"{relation}-relation", point,
                   [(-abs(residual_rescaled), 1e-10 * scale)], notes)


def check_sin_relation(k: float, alpha: float, x: float) -> VerifyReport:
    """Half-integer-order reduction to the sine function.

    The stated form sin(alpha x / sqrt(k)) =
    (alpha/k) sqrt(pi x / 2) W_{k/2, alpha^2}(x) only closes at k = 1; the
    identity that holds for every k carries the constant multiplied by k.
    The check asserts the k-corrected identity (margin = -abs(residual),
    tol = 1e-10 * scale) and reports the stated-constant residual and the
    fitted multiplier in the notes.
    """
    return _relation_report("sin", k, alpha, x)


def check_sinh_relation(k: float, alpha: float, x: float) -> VerifyReport:
    """Hyperbolic counterpart of :func:`check_sin_relation`."""
    return _relation_report("sinh", k, alpha, x)


def check_integral_agreement(k: float, nu: float, alpha: float, x: float,
                             route: str) -> VerifyReport:
    """Quadrature route vs the series at one parameter point.

    Routes: 'cos' (c = +alpha^2, needs nu/k > -1/2), 'cosh'
    (c = -alpha^2, same range), and 'kernel' (needs nu > 0; compared at
    both c = +alpha^2 and c = -alpha^2).  margin = -abs(difference),
    tol = 1e-9 * max(1, |series value|) for each leg, and the point passes
    only where every leg does; inadmissible combinations are skipped with
    the violated condition as the reason.
    """
    reason, legs = route_legs(k, nu, alpha, x, route, _QUAD)
    point = {"k": k, "nu": nu, "alpha": alpha, "x": x, "route": route}
    if reason is not None:
        return _skip("integral-agreement", point, reason)
    notes = "; ".join(f"c={c!r}: quadrature={got!r} series={want!r} "
                      f"diff={got - want:.3e}" for c, got, want in legs)
    return _report("integral-agreement", point,
                   [(-abs(got - want), 1e-9 * max(1.0, abs(want)))
                    for _, got, want in legs], notes)


# ---------------------------------------------------------------------------
# grid expansion


_AXIS_FIELDS = {"k": "k_values", "nu": "nu_values", "c": "c_values", "x": "x_values",
                "alpha": "alpha_values", "a": "a_values", "weight": "cvx_weights"}

_FIXED_AXES = {"variant": ("cos", "cosh"), "route": ROUTES}

_SERIES_AXES = ("k", "nu", "c", "x")


def _series_params(point: dict) -> KBesselParams:
    return KBesselParams(point["k"], point["nu"], point["c"])


# Each check's (axes, call).  ``axes`` are the point's keys in order, which
# ``_points`` expands: a pair of keys takes the ordered pairs of
# ``nu_values``, any other key the sorted values of its grid field (or of its
# fixed axis).  ``call(spec, point)`` runs the check; it names the check
# function as a module global, looked up on every call, so a replacement set
# on this module (a tracer, a test spy) is the one that runs.
_CHECKS = {
    "ode": (
        _SERIES_AXES, lambda s, p: check_ode(_series_params(p), p["x"])),
    "recurrences": (
        _SERIES_AXES,
        lambda s, p: check_recurrences(_series_params(p), p["x"])),
    "multisection": (
        _SERIES_AXES,
        lambda s, p: check_multisection(_series_params(p), p["x"])),
    "ratio-x-monotone": (
        ("k", ("mu", "nu")),
        lambda s, p: check_ratio_x_monotone(**p, x_grid=sorted(s.x_values))),
    "order-ratio-monotone": (
        ("k", ("mu", "nu"), "x"), lambda s, p: check_order_ratio_monotone(**p)),
    "nu-decreasing-logconvex": (
        ("k", ("nu1", "nu2"), "weight", "x"),
        lambda s, p: check_nu_decreasing_logconvex(
            p["k"], (p["nu1"], p["nu2"]), p["weight"], p["x"])),
    "turan": (("k", "nu", "a", "x"), lambda s, p: check_turan(**p)),
    "chebyshev": (
        ("k", "nu", "x", "variant"),
        lambda s, p: check_chebyshev_products(**p)),
    "coefficient-facts": (
        ("k", ("mu", "nu")), lambda s, p: check_coefficient_facts(**p)),
    "sin-relation": (
        ("k", "alpha", "x"), lambda s, p: check_sin_relation(**p)),
    "sinh-relation": (
        ("k", "alpha", "x"), lambda s, p: check_sinh_relation(**p)),
    "integral-agreement": (
        ("k", "nu", "alpha", "x", "route"),
        lambda s, p: check_integral_agreement(**p)),
}

CHECK_NAMES: tuple[str, ...] = tuple(_CHECKS)


def _points(axes, spec: GridSpec):
    """The points of ``axes``, named as in ``_CHECKS``, over ``spec``: dicts
    keyed by axis name, in the lexicographic order of the sorted values."""
    keys = []
    values = []
    for axis in axes:
        if isinstance(axis, tuple):
            keys.extend(axis)
            values.append(list(itertools.combinations_with_replacement(
                sorted(spec.nu_values), 2)))
        else:
            keys.append(axis)
            field = _FIXED_AXES.get(axis) or getattr(spec, _AXIS_FIELDS[axis])
            values.append([(v,) for v in sorted(field)])
    for combo in itertools.product(*values):
        yield dict(zip(keys, itertools.chain.from_iterable(combo)))


def _expand(name: str, spec: GridSpec):
    """Every report of one check over ``spec``, in ``_points`` order."""
    axes, call = _CHECKS[name]
    for point in _points(axes, spec):
        try:
            yield call(spec, point)
        except OutsideDomain as exc:
            yield _skip(name, point, exc.reason)
        except KBesselError as exc:
            yield VerifyReport(name, point, None, False, False,
                               f"error: {type(exc).__name__}: {exc}")


def _sweep(spec: GridSpec, checks):
    """``run_grid``'s reports as a lazy iterator: each point's check runs
    when the iterator reaches it.

    The names are refused here, before any check runs: a bare ``str`` and
    an unknown name raise InvalidParameter.
    """
    if isinstance(checks, str):
        raise InvalidParameter(f"checks must be a list of check names, not {checks!r}")
    ordered = tuple(dict.fromkeys(checks))
    for name in ordered:
        if name not in _CHECKS:
            known = ", ".join(CHECK_NAMES)
            raise InvalidParameter(f"unknown check {name!r}; known checks: {known}")
    return itertools.chain.from_iterable(_expand(name, spec) for name in ordered)


def run_grid(spec: GridSpec, checks) -> list[VerifyReport]:
    """Expand ``spec`` for each named check and collect every report.

    Check names run in the order given (duplicates collapsed); within one
    check the reports follow the lexicographic order of the sorted grid
    values, so output is byte-identical across runs.  A failing point
    produces a failed report; it never aborts the run.
    """
    return list(_sweep(spec, checks))
