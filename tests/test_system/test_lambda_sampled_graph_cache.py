"""The lambda batch pass samples the live network's read index, not ``bn.version``.

Two networks at an equal version (``server.bn = other``) once shared the
batch pass's memoized sampled graph, so a pass replayed the old network's
neighbourhoods.  The pass now reads ``bn.index()`` — memoized per network
per version — and its selection, ranked once per index and fanout.
"""

from __future__ import annotations

import numpy as np

from repro.core import HAG, materialize
from repro.datagen import BehaviorType
from repro.network import BehaviorNetwork

DEV = BehaviorType.DEVICE_ID


def network(neighbor: int) -> BehaviorNetwork:
    bn = BehaviorNetwork()
    bn.add_node(1)
    bn.add_weight(1, neighbor, DEV, 1.0, 0.0)
    return bn


def sampled_nodes(bn: BehaviorNetwork, fanout: int = 5) -> list[int]:
    """Target 1's sampled subgraph in one batch pass over ``bn``."""
    model = HAG(2, 1, np.random.default_rng(0), hidden=(4,), cfo_out_dim=2, mlp_hidden=(2,))
    state, _, _ = materialize(
        model, bn, [1], [0], [0.0], lambda k, nodes: np.ones((len(nodes), 2)),
        hops=2, fanout=fanout, edge_type_order=(DEV,),
    )
    return state.subgraph_of(0).tolist()


def test_swapped_network_at_equal_version_gets_its_own_graph():
    a, b = network(2), network(3)
    assert a.version == b.version
    assert sampled_nodes(a) == [1, 2]
    assert sampled_nodes(b) == [1, 3]


def test_graph_kept_while_index_and_fanout_hold():
    bn = network(2)
    sampled_nodes(bn)
    index = bn.index()
    selection = index.selection(5)
    sampled_nodes(bn)  # a second pass at this version ranks nothing
    assert bn.index() is index and index.selection(5) is selection
    sampled_nodes(bn, fanout=4)
    assert index.selection(4) is not selection
    bn.add_weight(1, 4, DEV, 1.0, 0.0)  # a write: new version, new index
    assert sampled_nodes(bn) == [1, 2, 4]
