"""The wall-clock harness's trace targets are API: a move fails here first.

``bench/layers.py`` names 22 callables by module / class / attribute and
``bench/trace.py::patched`` looks each up with ``vars(owner)[attr]``; one
that moved is a failed check in the driver's benchmark run.  This resolves
them the same way, import only — nothing is wrapped or run — so a refactor
that moves one breaks tier-1 and names the target.
"""

from __future__ import annotations

import importlib

import pytest

from bench.layers import TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=lambda target: target.name)
def test_trace_target_resolves(target):
    owner = importlib.import_module(target.module)
    if target.owner is not None:
        assert hasattr(owner, target.owner), f"{target.name}: no {target.module}.{target.owner}"
        owner = getattr(owner, target.owner)
    assert target.attr in vars(owner), (
        f"{target.name}: {target.attr!r} is not defined on "
        f"{target.module}{'.' + target.owner if target.owner else ''} itself"
    )
    assert callable(vars(owner)[target.attr])
