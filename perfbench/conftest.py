"""Test set-up for the benchmark's own tests: import rectilt from ``src/``.

Run from the repository root with ``python -m pytest perfbench``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
