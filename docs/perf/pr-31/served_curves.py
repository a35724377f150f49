"""Hash what the serving layer answers on the FULL e2e fixtures, to compare two trees.

Usage (BLAS pinned, ~1 min, ~0.3 GB)::

    python3 docs/perf/pr-31/served_curves.py TREE > served-TREE.txt

Runs ``tests/serving/data/make_served_golden.py --full --tree TREE`` of the
checkout this file lives in, which imports ``src`` and ``benchmarks/e2e`` from
``TREE``: run it once on a parent and once on a change and ``cmp`` the
outputs.  That script's docstring lists the checks.  ``served_parent.txt`` and
``served_change.txt`` next to this file were written by an older version that
printed no header and full-length replay hashes.
"""

import runpy
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[3] / "tests" / "serving" / "data" / "make_served_golden.py"

if __name__ == "__main__":
    sys.argv = [str(SCRIPT), "--full", "--tree", *sys.argv[1:]]
    runpy.run_path(str(SCRIPT), run_name="__main__")
