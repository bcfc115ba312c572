"""Cross-benchmark schema pin: every committed BENCH_*.json speaks one contract.

Every gated benchmark harness writes its result through
``_shared.check_gates``, so every committed ``BENCH_*.json`` must parse
and carry the shared fields: a non-empty ``gates`` mapping whose rows
hold numeric ``value``/``minimum`` and a boolean ``passed`` consistent with them, plus a ``gates_met`` verdict
that is exactly the conjunction of the rows.  A bench that drifts off the
contract (as ``bench_resilience`` once did with its bespoke ``all_ok``
field) fails here before any dashboard or CI consumer trips over it.

``BENCH_fig8a_trace.jsonl`` is a raw trace, not a harness result, and is
excluded by the ``*.json`` glob.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULT_FILES = sorted(REPO_ROOT.glob("BENCH_*.json"))

#: results that must exist — a bench silently not committing its JSON (or a
#: rename breaking the glob) fails here, not in a downstream consumer.
REQUIRED_RESULTS = (
    "BENCH_lambda.json",
    "BENCH_lambda_fullgraph.json",
    "BENCH_loadtest.json",
)


def test_committed_results_exist():
    assert RESULT_FILES, "no committed BENCH_*.json results found"
    names = {p.name for p in RESULT_FILES}
    missing = [name for name in REQUIRED_RESULTS if name not in names]
    assert not missing, f"required bench results not committed: {missing}"


@pytest.mark.parametrize(
    "path", RESULT_FILES, ids=[p.name for p in RESULT_FILES]
)
def test_result_carries_gate_contract(path):
    result = json.loads(path.read_text())
    assert isinstance(result, dict)

    gates = result.get("gates")
    assert isinstance(gates, dict) and gates, f"{path.name}: missing gates"
    for name, gate in gates.items():
        assert isinstance(name, str) and name
        assert isinstance(gate["value"], (int, float)), (path.name, name)
        assert isinstance(gate["minimum"], (int, float)), (path.name, name)
        assert isinstance(gate["passed"], bool), (path.name, name)
        # the verdict is derivable, not free-floating
        assert gate["passed"] == (gate["value"] >= gate["minimum"]), (path.name, name)
        # check_gates must never write non-finite values (json.dumps would
        # emit Infinity/NaN, which is not JSON and breaks strict parsers)
        assert abs(gate["value"]) < float("inf"), (path.name, name)

    assert isinstance(result.get("gates_met"), bool), f"{path.name}: missing gates_met"
    assert result["gates_met"] == all(g["passed"] for g in gates.values()), path.name
