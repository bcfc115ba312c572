"""Wall-clock benchmark of the Turbo reproduction (see ``bench/README.md``).

Four pinned workloads, each run in its own interpreter, measured from
outside the program with ``time.perf_counter()`` around public calls.
``BENCHMARK.json`` at the repository root declares every workload and
metric name this package prints.
"""

import json
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def load_spec() -> dict[str, Any]:
    """The declared command, workloads and metrics (``BENCHMARK.json``)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
