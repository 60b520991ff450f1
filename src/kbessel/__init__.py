"""Generalized k-Bessel functions: series/quadrature evaluation and checks.

Each module declares its public names in its own ``__all__``; the package
exports their union.  ``import kbessel`` loads the series layer (``errors``,
``kbessel``, ``kgamma``) only.  Quadrature (``integral``) and the
verification harness (``verify``) load on first access to the module or to
one of their names, so a caller that only evaluates W does not compile them.
"""

import importlib

from . import errors, kbessel, kgamma
from .errors import *  # noqa: F401,F403
from .kbessel import *  # noqa: F401,F403
from .kgamma import *  # noqa: F401,F403

__version__ = "0.1.0"

# every public module, in the order of __all__; the last two load on first use
_MODULES = ("errors", "kbessel", "integral", "kgamma", "verify")
_ON_FIRST_USE = ("integral", "verify")


def _module(name):
    return importlib.import_module(f".{name}", __name__)


def __getattr__(name):
    if name in _ON_FIRST_USE:
        return _module(name)
    if name == "__all__":
        return [public for module in _MODULES
                for public in _module(module).__all__] + ["__version__"]
    if not name.startswith("_"):  # no module exports a private name
        for module in map(_module, _ON_FIRST_USE):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    public = __getattr__("__all__")  # loads every module into globals()
    return sorted(set(globals()) | set(public))
