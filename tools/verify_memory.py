"""Check that ``kbessel verify``'s peak memory does not grow with its grid.

Runs ``kbessel verify`` on the default grid and on the default grid with
eight x values (5598 reports against 2178), each in a fresh interpreter
that calls ``kbessel.cli.main`` in-process with stdout sent to /dev/null,
and reads the process's VmHWM (peak RSS) at exit.  Prints both peaks and
exits 1 when the larger grid's exceeds the default's by more than 0.5 MB
(512 KiB).  Linux only (reads /proc/self/status); kbessel must be
importable, installed or through PYTHONPATH=src:

    python tools/verify_memory.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

WIDE_GRID = {"x_values": [0.25, 0.5, 0.75, 1, 1.5, 2, 2.5, 3]}
MAX_GROWTH_KIB = 512

# the last stderr line of the child is its VmHWM in KiB
CHILD = """
import sys
from kbessel.cli import main

sys.argv = ["kbessel", *sys.argv[1:]]
try:
    main()
finally:
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(line for line in status if line.startswith("VmHWM:"))
    print(peak.split()[1], file=sys.stderr)
"""


def peak_kib(args: list[str]) -> int:
    """VmHWM of one in-process ``kbessel`` run with ``args``, in KiB."""
    run = subprocess.run([sys.executable, "-c", CHILD, *args],
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                         text=True)
    if run.returncode != 0:
        sys.exit(f"kbessel {' '.join(args)} exited {run.returncode}:\n"
                 f"{run.stderr}")
    return int(run.stderr.splitlines()[-1])


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        grid = Path(scratch) / "wide.json"
        grid.write_text(json.dumps(WIDE_GRID), encoding="utf-8")
        default = peak_kib(["verify"])
        wide = peak_kib(["verify", "--grid", str(grid)])
    growth = wide - default
    print(f"verify peak RSS: default grid {default} KiB, eight x values "
          f"{wide} KiB, growth {growth} KiB (limit {MAX_GROWTH_KIB})")
    return int(growth > MAX_GROWTH_KIB)


if __name__ == "__main__":
    sys.exit(main())
