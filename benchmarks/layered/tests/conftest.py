"""Self-tests of the layered benchmark harness (outside tier-1).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/layered/tests -q
"""

import sys
from pathlib import Path

LAYERED = Path(__file__).resolve().parents[1]
ROOT = LAYERED.parents[1]
for path in (str(ROOT / "src"), str(LAYERED)):
    if path not in sys.path:
        sys.path.insert(0, path)
