"""Generalized k-Bessel functions: series/quadrature evaluation and checks.

Each module declares its public names in its own ``__all__``; the package
exports their union.
"""

from . import errors, kbessel, integral, kgamma, verify
from .errors import *  # noqa: F401,F403
from .kbessel import *  # noqa: F401,F403
from .integral import *  # noqa: F401,F403
from .kgamma import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (errors, kbessel, integral, kgamma, verify)
           for name in module.__all__] + ["__version__"]
