"""Exception types raised by the library, and the range guards.

All error signaling is by raised exceptions; no routine returns NaN or a
silently saturated value.  The rule for floats is decided here, once: a
result or required intermediate that is infinite or NaN raises Overflow
(``_finite``), and so does one below the normal double range where that
range is required (``_normal``, ``_exp_guarded``), since a subnormal keeps
too few bits (2e-323 is 11.6% off) and 0.0 would be a silent wrong value.
The package applies the rule through these three guards, apart from a few
refusals that are rules of their own; each guard formats its message from
a template and arguments only when it raises.

The argument rules are decided here too, by three more guards that format
their message only when they raise: ``_positive`` (InvalidParameter unless
a value is > 0, so NaN is refused and inf passes), ``_positive_x``
(DomainError unless x is finite and > 0) and ``_count`` (InvalidParameter
unless a count is an int, not a bool, from its lower bound up).
"""

import math
import sys

__all__ = [
    "DomainError",
    "InvalidParameter",
    "KBesselError",
    "NonConvergence",
    "Overflow",
    "QuadratureFailure",
]


class KBesselError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(KBesselError, ValueError):
    """A structural parameter (k, order bound, term count, ...) is out of range."""


class OutsideDomain(InvalidParameter):
    """The parameters lie outside the domain where a result or representation
    holds.  ``reason`` names the violated condition; the verification grid
    reports it as the skip note of the point."""

    def __init__(self, reason: str, values: str):
        super().__init__(f"{reason}, got {values}")
        self.reason = reason


class DomainError(KBesselError, ValueError):
    """The evaluation point lies outside the function's domain."""


class NonConvergence(KBesselError, ArithmeticError):
    """An iterative evaluation hit its term cap before reaching tolerance."""


class Overflow(KBesselError, OverflowError):
    """The result (or a required intermediate) exceeds double-precision range,
    or falls below the normal double range, where too few bits are left."""


class QuadratureFailure(KBesselError, ArithmeticError):
    """Node-doubling refinement exhausted without meeting the tolerance, or
    the transformed integrand left the double range."""


_MIN_NORMAL = sys.float_info.min

# exp() overflows past this; used to report Overflow instead of raising OverflowError
_MAX_EXP_ARG = 709.782712893384


def _finite(value: float, message: str, *args) -> float:
    """value, or Overflow with ``message.format(*args)`` where it is
    infinite or NaN."""
    if not math.isfinite(value):
        raise Overflow(message.format(*args))
    return value


def _normal(value: float, message: str, *args) -> float:
    """value, or Overflow with ``message.format(*args)`` where |value| is
    not a normal double: infinite, NaN, or below the normal range."""
    if not _MIN_NORMAL <= abs(value) < math.inf:
        raise Overflow(message.format(*args))
    return value


def _exp_guarded(ln_value: float, what: str, *args) -> float:
    """exp(ln_value), or Overflow naming ``what.format(*args)`` where
    ln_value is NaN or past the double range, or exp falls below its
    normal part."""
    if not ln_value <= _MAX_EXP_ARG:
        raise Overflow(f"{what.format(*args)} exceeds double range "
                       f"{_log_magnitude(ln_value)}")
    value = math.exp(ln_value)
    if value < _MIN_NORMAL:
        raise Overflow(f"{what.format(*args)} underflows: {value!r} is below "
                       f"the normal double range {_log_magnitude(ln_value)}")
    return value


def _log_magnitude(ln_value: float) -> str:
    """ln_value with one decimal below 1e4 in magnitude and with five
    significant digits from there (and for NaN), so that a message holds
    no 300-digit number."""
    spec = ".1f" if abs(ln_value) < 1e4 else ".5g"
    return f"(log magnitude {ln_value:{spec}})"


def _positive(name: str, value: float) -> None:
    """InvalidParameter unless value > 0; NaN is refused, inf passes."""
    if not value > 0.0:
        raise InvalidParameter(f"{name} must be positive, got {value}")


def _positive_x(fn: str, x: float) -> None:
    """DomainError naming ``fn`` unless x is finite and > 0."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"{fn} requires a finite x > 0, got {x}")


def _count(name: str, value: int, low: int) -> None:
    """InvalidParameter unless value is an int (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise InvalidParameter(
            f"{name} must be an integer >= {low}, got {value!r}")
