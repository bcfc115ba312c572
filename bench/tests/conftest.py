"""The harness imports the program from ``src/`` whether or not PYTHONPATH names it."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
