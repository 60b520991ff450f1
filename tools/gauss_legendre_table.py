"""Write src/kbessel/_gauss_legendre.py, the Gauss-Legendre rules that
``kbessel.integral.legendre_nodes`` reads instead of running Newton.

    python tools/gauss_legendre_table.py

The table holds the rules for n = 128 and 256, the node counts of every
level that the default sweeps reach, each from ``integral._newton_legendre``,
the routine that serves every other n, so its bits are that routine's.
``tests/test_integral.py`` checks that the committed module equals this
tool's output.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = ROOT / "src" / "kbessel" / "_gauss_legendre.py"
SIZES = (128, 256)

HEADER = '''"""Gauss-Legendre rules on [-1, 1] for n = 128 and 256, the node counts
of every level that the default sweeps reach, so that no process runs Newton
for them.  Generated by ``python tools/gauss_legendre_table.py``; do not edit.

``HALF_RULES[n]`` is one string of ``float.hex`` values: each positive node
z_i, largest first, followed by its weight w_i.  ``integral.legendre_nodes``
parses it on first use and mirrors the nodes onto [-1, 0); the values are
``integral._newton_legendre(n)``'s, bit for bit.
"""

HALF_RULES = {
'''


def render() -> str:
    """The text of ``_gauss_legendre.py``, built by the Newton routine."""
    from kbessel.integral import _newton_legendre

    lines = [HEADER]
    for n in SIZES:
        xs, ws = _newton_legendre(n)
        lines.append(f"    {n}: (\n")
        # the positive half, largest node first: x_(n-1), x_(n-2), ...
        for i in range(n - 1, n // 2 - 1, -1):
            lines.append(f'        "{xs[i].hex()} {ws[i].hex()} "\n')
        lines.append("    ),\n")
    lines.append("}\n")
    return "".join(lines)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    # kbessel.integral imports the table it is about to rebuild, which may be
    # missing or cut short: an empty stand-in serves the Newton routine
    stand_in = types.ModuleType("kbessel._gauss_legendre")
    stand_in.HALF_RULES = {}
    sys.modules[stand_in.__name__] = stand_in
    TARGET.write_text(render(), encoding="utf-8")
    print(f"wrote {TARGET}")
