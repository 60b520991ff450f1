"""Grid-driven numerical certification of the library's identities and
inequalities.

Every check returns a :class:`VerifyReport` with one uniform margin
convention:

* for an inequality, ``margin`` is the slack — the side asserted to be
  larger minus the side asserted to be smaller;
* for an identity, ``margin`` is ``-abs(residual)`` (or minus the worst
  residual measured in units of its tolerance when a check bundles several
  identities, in which case the tolerance is 1);
* a skipped point carries ``margin = None`` and the reason in ``notes``.

A check passes exactly when ``margin >= -tol`` for its tolerance, so
reports can be filtered and aggregated without knowing which inequality
they came from.  ``run_grid`` expands a :class:`GridSpec` into every
combination and runs the check on each; a check's refusal of a point
outside its domain (:class:`~kbessel.errors.OutsideDomain`) becomes a skip
report with the refusal's reason, and no single point's failure aborts
the run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

from .errors import InvalidParameter, KBesselError, OutsideDomain, Overflow
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

_QUAD = QuadConfig(nodes=128, abs_tol=1e-13, max_refinements=8)
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


@dataclass(frozen=True)
class GridSpec:
    """Explicit value lists that ``run_grid`` expands into check points.

    ``nu_values`` are absolute orders; a combination outside a check's
    domain (which depends on k) is refused by the check itself and reported
    as skipped.  ``a_values`` are order shifts for the product-vs-square
    check; ``cvx_weights`` are interpolation weights in [0, 1] for the
    log-convexity check.  Repeated values in a field are dropped.
    """

    k_values: tuple[float, ...]
    nu_values: tuple[float, ...]
    c_values: tuple[float, ...]
    alpha_values: tuple[float, ...]
    x_values: tuple[float, ...]
    a_values: tuple[float, ...]
    cvx_weights: tuple[float, ...]

    def __post_init__(self) -> None:
        for field in fields(self):
            values = tuple(dict.fromkeys(float(v) for v in getattr(self, field.name)))
            if not values:
                raise InvalidParameter(f"{field.name} must be non-empty")
            if any(math.isnan(v) or math.isinf(v) for v in values):
                raise InvalidParameter(f"{field.name} must be finite")
            object.__setattr__(self, field.name, values)
        if any(k <= 0.0 for k in self.k_values):
            raise InvalidParameter("k_values must be positive")
        if any(x <= 0.0 for x in self.x_values):
            raise InvalidParameter("x_values must be positive")
        if any(a <= 0.0 for a in self.alpha_values):
            raise InvalidParameter("alpha_values must be positive")
        if any(not 0.0 <= w <= 1.0 for w in self.cvx_weights):
            raise InvalidParameter("cvx_weights must lie in [0, 1]")


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


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one check at one grid point."""

    check_name: str
    grid_point: dict
    margin: float | None
    passed: bool
    skipped: bool = False
    notes: str = ""


def _report(name: str, point: dict, margin: float, tol: float,
            notes: str) -> VerifyReport:
    return VerifyReport(name, point, margin, margin >= -tol, False, notes)


def _skip(name: str, point: dict, reason: str) -> VerifyReport:
    return VerifyReport(name, point, None, True, True, reason)


def _failure(name: str, point: dict, exc: KBesselError) -> VerifyReport:
    return VerifyReport(name, point, None, False, False,
                        f"error: {type(exc).__name__}: {exc}")


def _require_positive_x(x: float) -> None:
    if not x > 0.0:
        raise InvalidParameter(f"x must be positive, got {x}")


def _require_order_pair(k: float, mu: float, nu: float) -> None:
    if not k > 0.0:
        raise InvalidParameter(f"k must be positive, got {k}")
    if not nu >= mu:
        raise InvalidParameter(f"orders must satisfy nu >= mu, got mu={mu}, nu={nu}")
    if not mu > -k:
        raise OutsideDomain("orders must exceed -k", f"mu={mu}, k={k}")


def _normalized(k: float, order: float, x: float) -> float:
    return eval_normalized_i(KBesselParams(k, order, -1.0), x).value


# ---------------------------------------------------------------------------
# differential equation and recurrence residuals


def check_ode(p: KBesselParams, x: float) -> VerifyReport:
    """Residual of y'' + y'/x + (ck - nu^2/x^2) y / k^2 = 0.

    Derivatives come from term-by-term differentiation of the series, never
    finite differences, so the residual isolates algebraic consistency of
    the three sums.  margin = -abs(residual), tol = 1e-8 * scale with
    scale = max(|y''|, |y'/x|, |y|/x^2, 1).
    """
    _require_positive_x(x)
    point = {"k": p.k, "nu": p.nu, "c": p.c, "x": x}
    res, d1, d2 = eval_w_with_derivatives(p, x)
    y = res.value
    residual = d2 + d1 / x + (p.c * p.k - (p.nu * p.nu) / (x * x)) * y / (p.k * p.k)
    scale = max(abs(d2), abs(d1 / x), abs(y) / (x * x), 1.0)
    notes = f"residual={residual:.6e} scale={scale:.6e}"
    return _report("ode", point, -abs(residual), 1e-8 * scale, notes)


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

    Exact residuals are measured against 1e-10 * scale with
    scale = max over the three orders of |W| and 1; finite-difference
    comparisons use absolute tolerances 1e-6 (first derivatives) and
    1e-5 (ladder).  margin = -(worst residual / its tolerance), so the
    check passes when margin >= -1.
    """
    _require_positive_x(x)
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
    return _report("recurrences", point, -worst, 1.0, notes)


def check_multisection(p: KBesselParams, x: float) -> VerifyReport:
    """Truncated order-multisection expansion vs the directly evaluated
    lowered-order function, certified on x <= 1 where the truncation bound
    is effective.  margin = -abs(difference), tol = 1e-8 absolute.
    """
    _require_positive_x(x)
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
    return _report("multisection", point, -abs(diff), 1e-8, notes)


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
    return _report("ratio-x-monotone", point, margin, 1e-12, notes)


def check_order_ratio_monotone(k: float, mu: float, nu: float,
                               x: float) -> VerifyReport:
    """Cross-order product inequality at fixed x.

    For nu >= mu > -k the normalized values satisfy
    I_{nu+k} I_mu >= I_nu I_{mu+k}; margin = LHS - RHS,
    tol = 1e-12 * scale.
    """
    _require_order_pair(k, mu, nu)
    _require_positive_x(x)
    lhs = _normalized(k, nu + k, x) * _normalized(k, mu, x)
    rhs = _normalized(k, nu, x) * _normalized(k, mu + k, x)
    margin = lhs - rhs
    scale = max(1.0, abs(lhs), abs(rhs))
    point = {"k": k, "mu": mu, "nu": nu, "x": x}
    notes = f"lhs={lhs!r} rhs={rhs!r}"
    return _report("order-ratio-monotone", point, margin, 1e-12 * scale, notes)


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
    if not k > 0.0:
        raise InvalidParameter(f"k must be positive, got {k}")
    if not (nu1 > -k and nu2 > -k):
        raise OutsideDomain("orders must exceed -k", f"nu1={nu1}, nu2={nu2}, k={k}")
    if not 0.0 <= alpha_cvx <= 1.0:
        raise InvalidParameter(f"weight must lie in [0, 1], got {alpha_cvx}")
    _require_positive_x(x)
    v1 = _normalized(k, nu1, x)
    v2 = _normalized(k, nu2, x)
    v_small, v_large = (v1, v2) if nu1 <= nu2 else (v2, v1)
    margin_dec = v_small - v_large
    scale_dec = max(1.0, abs(v_small), abs(v_large))

    nu_mid = alpha_cvx * nu1 + (1.0 - alpha_cvx) * nu2
    v_mid = _normalized(k, nu_mid, x)
    geom = v1 ** alpha_cvx * v2 ** (1.0 - alpha_cvx)
    margin_cvx = geom - v_mid
    scale_cvx = max(1.0, abs(geom), abs(v_mid))

    passed = (margin_dec >= -1e-12 * scale_dec
              and margin_cvx >= -1e-12 * scale_cvx)
    point = {"k": k, "nu1": nu1, "nu2": nu2, "weight": alpha_cvx, "x": x}
    notes = (f"decreasing margin={margin_dec:.6e} (scale {scale_dec:.3e}); "
             f"log-convexity margin={margin_cvx:.6e} (scale {scale_cvx:.3e})")
    return VerifyReport("nu-decreasing-logconvex", point,
                        min(margin_dec, margin_cvx), passed, False, notes)


def check_turan(k: float, nu: float, a: float, x: float) -> VerifyReport:
    """Product-vs-square inequality across shifted orders.

    For nu >= |a| - k the normalized values satisfy
    I_{nu-a} I_{nu+a} >= I_nu^2; margin = product - square,
    tol = 1e-12 * scale.
    """
    if not k > 0.0:
        raise InvalidParameter(f"k must be positive, got {k}")
    if not nu >= abs(a) - k + 1e-9:
        raise OutsideDomain("order too small for the shift (needs nu >= |a| - k)",
                            f"nu={nu}, a={a}, k={k}")
    _require_positive_x(x)
    v_lo = _normalized(k, nu - a, x)
    v_hi = _normalized(k, nu + a, x)
    v_mid = _normalized(k, nu, x)
    product = v_lo * v_hi
    square = v_mid * v_mid
    margin = product - square
    scale = max(1.0, abs(product), abs(square))
    point = {"k": k, "nu": nu, "a": a, "x": x}
    notes = f"shifted product={product!r} square={square!r}"
    return _report("turan", point, margin, 1e-12 * scale, notes)


def check_chebyshev_products(k: float, nu: float, x: float,
                             variant: str) -> VerifyReport:
    """Product-of-integrals comparison behind the final product inequality.

    With weight q(t) = cos(x t / sqrt(k)) (or cosh), f = (1-t^2)^(nu/k-1/2)
    and g = (1-t^2)^(nu/k+1/2), the four quadratures must satisfy
    (int qf)(int qg) <= (int q)(int qfg) when f and g are monotone in the
    same sense (nu >= k/2) and the reverse when they are opposite
    (-k/2 < nu < k/2).  Points with nu <= -k/2 are skipped because int qf
    and int qfg diverge there; the cos variant is skipped when the weight
    changes sign on [0, 1] (x/sqrt(k) >= pi/2).  margin is the slack of the
    asserted side, tol = 1e-12 * scale; where a product of two integrals
    leaves the double range, both sides are first scaled by one power of
    two, which the notes give.  The notes log how the plain weight integral
    compares with two candidate closed forms (argument x/sqrt(k) vs
    argument x/k), or that those probes are out of double range; only the
    inequality itself is asserted.
    """
    if variant not in ("cos", "cosh"):
        raise InvalidParameter(f"variant must be 'cos' or 'cosh', got {variant!r}")
    if not k > 0.0:
        raise InvalidParameter(f"k must be positive, got {k}")
    _require_positive_x(x)
    if not nu > -0.75 * k:
        raise OutsideDomain("requires nu > -3k/4", f"nu={nu}, k={k}")
    point = {"k": k, "nu": nu, "x": x, "variant": variant}
    if nu <= -0.5 * k:
        return _skip("chebyshev", point,
                     "weighted integrals diverge for nu <= -k/2 "
                     "(weight exponent <= -1)")
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
    try:
        probes = (f"|vs closed form with argument x/sqrt(k)|="
                  f"{abs(int_q - antiderivative(omega) / omega):.3e}, "
                  f"|vs closed form with argument x/k|="
                  f"{abs(int_q - (math.sqrt(k) / x) * antiderivative(x / k)):.3e}")
    except OverflowError:  # the integrals fit where sinh(x/k) need not
        probes = (f"closed-form probes out of range: "
                  f"{antiderivative.__name__} exceeds double range at "
                  f"x/sqrt(k) = {omega!r} or x/k = {x / k!r}")
    separate = int_qf * int_qg
    joint = int_q * int_qfg
    scaled = ""
    if math.isinf(separate) or math.isinf(joint):
        # the integrals fit but a product does not (cosh, large x/sqrt(k)):
        # each integral times 2^-h is exact, so both sides scale by 2^-2h
        # and the larger lands in [1, 8), where the relative test is as before
        top = max(math.frexp(a)[1] + math.frexp(b)[1]
                  for a, b in ((int_qf, int_qg), (int_q, int_qfg)))
        h = (top - 2) // 2
        separate = math.ldexp(int_qf, -h) * math.ldexp(int_qg, -h)
        joint = math.ldexp(int_q, -h) * math.ldexp(int_qfg, -h)
        scaled = f" (both scaled by 2^{-2 * h})"
    if nu >= 0.5 * k:
        margin = joint - separate
        regime = "same-sense monotone (nu >= k/2): separate <= joint"
    else:
        margin = separate - joint
        regime = "opposite-sense monotone (|nu| < k/2): separate >= joint"
    scale = max(1.0, abs(separate), abs(joint))
    notes = (f"{regime}; separate={separate!r} joint={joint!r}{scaled}; "
             f"plain weight integral={int_q!r}, {probes}")
    return _report("chebyshev", point, margin, 1e-12 * scale, notes)


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
    for r in range(_COEFFICIENT_R_MAX + 1):
        direct = (r * k + mu + k) / (r * k + nu + k)
        ln_route = (ln_k_gamma(r * k + nu + k, k)
                    - ln_k_gamma((r + 1) * k + nu + k, k)
                    + ln_k_gamma((r + 1) * k + mu + k, k)
                    - ln_k_gamma(r * k + mu + k, k))
        rel = abs(math.exp(ln_route) - direct) / direct
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
    return _report("coefficient-facts", point, margin, 1e-12, notes)


# ---------------------------------------------------------------------------
# elementary-function relations and route agreement


def _relation_report(name: str, k: float, alpha: float, x: float,
                     sides: tuple[float, float]) -> VerifyReport:
    lhs, rhs_stated = sides
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
    return _report(name, point, -abs(residual_rescaled), 1e-10 * scale, notes)


def check_sin_relation(k: float, alpha: float, x: float) -> VerifyReport:
    """Half-integer-order reduction to the sine function.

    The stated form sin(alpha x / sqrt(k)) =
    (alpha/k) sqrt(pi x / 2) W_{k/2, alpha^2}(x) only closes at k = 1; the
    identity that holds for every k carries the constant multiplied by k.
    The check asserts the k-corrected identity (margin = -abs(residual),
    tol = 1e-10 * scale) and reports the stated-constant residual and the
    fitted multiplier in the notes.
    """
    return _relation_report("sin-relation", k, alpha, x,
                            _relation_sides("sin", k, alpha, x))


def check_sinh_relation(k: float, alpha: float, x: float) -> VerifyReport:
    """Hyperbolic counterpart of :func:`check_sin_relation`."""
    return _relation_report("sinh-relation", k, alpha, x,
                            _relation_sides("sinh", k, alpha, x))


def check_integral_agreement(k: float, nu: float, alpha: float, x: float,
                             route: str) -> VerifyReport:
    """Quadrature route vs the series at one parameter point.

    Routes: 'cos' (c = +alpha^2, needs nu/k > -1/2), 'cosh'
    (c = -alpha^2, same range), and 'kernel' (needs nu > 0; compared at
    both c = +alpha^2 and c = -alpha^2).  margin = -abs(difference),
    tol = 1e-9 * max(1, |series value|); inadmissible combinations are
    skipped with the violated condition as the reason.
    """
    reason, legs = route_legs(k, nu, alpha, x, route, _QUAD)
    point = {"k": k, "nu": nu, "alpha": alpha, "x": x, "route": route}
    if reason is not None:
        return _skip("integral-agreement", point, reason)

    margin = math.inf
    tol = 0.0
    parts = []
    for c, got, want in legs:
        diff = got - want
        this_tol = 1e-9 * max(1.0, abs(want))
        if -abs(diff) < margin:
            margin = -abs(diff)
            tol = this_tol
        parts.append(f"c={c!r}: quadrature={got!r} series={want!r} "
                     f"diff={diff:.3e}")
    return _report("integral-agreement", point, margin, tol, "; ".join(parts))


# ---------------------------------------------------------------------------
# grid expansion


class _Check(NamedTuple):
    """How ``run_grid`` expands one check.

    ``axes`` are the point's keys in order; a pair of keys takes the ordered
    pairs of ``nu_values``, any other key the sorted values of its grid
    field.  ``call(spec, point)`` runs the check; it names the check
    function as a module global, looked up on every call, so a replacement
    set on this module (a tracer, a test spy) is the one that runs.
    """

    axes: tuple
    call: Callable[[GridSpec, dict], VerifyReport]


_AXIS_VALUES = {
    "k": lambda spec: spec.k_values,
    "nu": lambda spec: spec.nu_values,
    "c": lambda spec: spec.c_values,
    "x": lambda spec: spec.x_values,
    "alpha": lambda spec: spec.alpha_values,
    "a": lambda spec: spec.a_values,
    "weight": lambda spec: spec.cvx_weights,
    "variant": lambda spec: ("cos", "cosh"),
    "route": lambda spec: ROUTES,
}

_SERIES_AXES = ("k", "nu", "c", "x")


def _series_params(point: dict) -> KBesselParams:
    return KBesselParams(point["k"], point["nu"], point["c"])


_CHECKS = {
    "ode": _Check(
        _SERIES_AXES, lambda s, p: check_ode(_series_params(p), p["x"])),
    "recurrences": _Check(
        _SERIES_AXES,
        lambda s, p: check_recurrences(_series_params(p), p["x"])),
    "multisection": _Check(
        _SERIES_AXES,
        lambda s, p: check_multisection(_series_params(p), p["x"])),
    "ratio-x-monotone": _Check(
        ("k", ("mu", "nu")),
        lambda s, p: check_ratio_x_monotone(**p, x_grid=sorted(s.x_values))),
    "order-ratio-monotone": _Check(
        ("k", ("mu", "nu"), "x"), lambda s, p: check_order_ratio_monotone(**p)),
    "nu-decreasing-logconvex": _Check(
        ("k", ("nu1", "nu2"), "weight", "x"),
        lambda s, p: check_nu_decreasing_logconvex(
            p["k"], (p["nu1"], p["nu2"]), p["weight"], p["x"])),
    "turan": _Check(("k", "nu", "a", "x"), lambda s, p: check_turan(**p)),
    "chebyshev": _Check(
        ("k", "nu", "x", "variant"),
        lambda s, p: check_chebyshev_products(**p)),
    "coefficient-facts": _Check(
        ("k", ("mu", "nu")), lambda s, p: check_coefficient_facts(**p)),
    "sin-relation": _Check(
        ("k", "alpha", "x"), lambda s, p: check_sin_relation(**p)),
    "sinh-relation": _Check(
        ("k", "alpha", "x"), lambda s, p: check_sinh_relation(**p)),
    "integral-agreement": _Check(
        ("k", "nu", "alpha", "x", "route"),
        lambda s, p: check_integral_agreement(**p)),
}

CHECK_NAMES: tuple[str, ...] = tuple(_CHECKS)


def _expand(name: str, spec: GridSpec):
    """Every report of one check over ``spec``, in lexicographic order."""
    check = _CHECKS[name]
    keys = []
    axes = []
    for axis in check.axes:
        if isinstance(axis, tuple):
            keys.extend(axis)
            axes.append(list(itertools.combinations_with_replacement(
                sorted(spec.nu_values), 2)))
        else:
            keys.append(axis)
            axes.append([(v,) for v in sorted(_AXIS_VALUES[axis](spec))])
    for combo in itertools.product(*axes):
        point = dict(zip(keys, itertools.chain.from_iterable(combo)))
        try:
            yield check.call(spec, point)
        except OutsideDomain as exc:
            yield _skip(name, point, exc.reason)
        except KBesselError as exc:
            yield _failure(name, point, exc)


def run_grid(spec: GridSpec, checks) -> list[VerifyReport]:
    """Expand ``spec`` for each named check and collect every report.

    Check names run in the order given (duplicates collapsed); within one
    check the reports follow the lexicographic order of the sorted grid
    values, so output is byte-identical across runs.  A failing point
    produces a failed report; it never aborts the run.
    """
    ordered: list[str] = []
    for name in checks:
        if name not in _CHECKS:
            known = ", ".join(CHECK_NAMES)
            raise InvalidParameter(f"unknown check {name!r}; known checks: {known}")
        if name not in ordered:
            ordered.append(name)
    reports: list[VerifyReport] = []
    for name in ordered:
        reports.extend(_expand(name, spec))
    return reports
