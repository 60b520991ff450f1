"""What ``import kbessel`` loads: the series layer (errors, kbessel, kgamma)
at once, and with it neither ``dataclasses`` nor ``inspect``; quadrature
(``integral``) and the verification harness (``verify``) on first access to
the module or to one of their names.  ``import kbessel.cli`` loads both, and
still neither ``dataclasses`` nor ``copy``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kbessel

# Each check runs in a fresh interpreter: in the test below against this
# source tree, and by ``python tests/test_imports.py`` against the installed
# package.  The import check looks at the modules that ``import kbessel``
# adds, since a site hook may have loaded some of them before it.
LAZY_IMPORT_CHECK = """
import sys
before = set(sys.modules)
import kbessel
added = set(sys.modules) - before
lazy = ("kbessel.integral", "kbessel.verify", "dataclasses", "inspect")
loaded = [name for name in lazy if name in added]
assert not loaded, f"import kbessel loaded {loaded}"
eval_w_cos = kbessel.eval_w_cos
assert "kbessel.integral" in sys.modules, "eval_w_cos did not load integral"
assert "kbessel.verify" not in sys.modules, "eval_w_cos loaded verify"
assert eval_w_cos is kbessel.integral.eval_w_cos
"""

# sys.modules keeps import order: the CLI compiles the sweep modules before
# click, so their compile peak does not add to click's memory
CLI_ORDER_CHECK = """
import sys
import kbessel.cli
order = list(sys.modules)
assert order.index("kbessel.verify") < order.index("click"), order
assert order.index("kbessel.integral") < order.index("kbessel.verify")
"""

# the sweep records are plain classes too, so the CLI builds no dataclass
CLI_RECORDS_CHECK = """
import sys
before = set(sys.modules)
import kbessel.cli
added = set(sys.modules) - before
loaded = [name for name in ("dataclasses", "copy") if name in added]
assert not loaded, f"import kbessel.cli loaded {loaded}"
"""


@pytest.mark.parametrize("check", [LAZY_IMPORT_CHECK, CLI_ORDER_CHECK,
                                   CLI_RECORDS_CHECK],
                         ids=["import-kbessel", "import-kbessel-cli",
                              "import-kbessel-cli-records"])
def test_import_in_a_fresh_interpreter(check):
    source = Path(kbessel.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", check],
                          env={**os.environ, "PYTHONPATH": str(source)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_dir_lists_every_public_name_and_the_deferred_modules():
    names = dir(kbessel)
    assert set(kbessel.__all__) <= set(names)
    assert {"integral", "verify"} <= set(names)
    assert names == sorted(names)


@pytest.mark.parametrize("name", ["no_such_name", "_series", "__wrapped__"])
def test_an_unknown_or_private_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(kbessel, name)


if __name__ == "__main__":
    for check in (LAZY_IMPORT_CHECK, CLI_ORDER_CHECK, CLI_RECORDS_CHECK):
        subprocess.run([sys.executable, "-c", check], check=True, timeout=60)
