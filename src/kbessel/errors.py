"""Exception types raised by the library.

All error signaling is by raised exceptions; no routine returns NaN or a
silently saturated value.
"""

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
