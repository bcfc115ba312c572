"""``LambdaLayer._sampled_graph`` follows the read index, not ``bn.version``.

The bug PR 17 fixed for ``BNServer._batch_selection_cache``: two networks at
an equal version (``server.bn = other``) shared the memoized
:class:`~repro.network.SampledGraph`, so the batch pass replayed the old
network's neighbourhoods.
"""

from __future__ import annotations

from repro.datagen import BehaviorType
from repro.network import BehaviorNetwork
from repro.system import LambdaLayer

DEV = BehaviorType.DEVICE_ID


def network(neighbor: int) -> BehaviorNetwork:
    bn = BehaviorNetwork()
    bn.add_node(1)
    bn.add_weight(1, neighbor, DEV, 1.0, 0.0)
    return bn


def test_swapped_network_at_equal_version_gets_its_own_graph():
    a, b = network(2), network(3)
    assert a.version == b.version
    layer = LambdaLayer(None, None, None, None, fanout=5)
    assert layer._sampled_graph(a).node_ids.tolist() == [1, 2]
    assert layer._sampled_graph(b).node_ids.tolist() == [1, 3]


def test_graph_kept_while_index_and_fanout_hold():
    bn = network(2)
    layer = LambdaLayer(None, None, None, None, fanout=5)
    sampled = layer._sampled_graph(bn)
    assert layer._sampled_graph(bn) is sampled
    layer.fanout = 4
    assert layer._sampled_graph(bn) is not sampled
    bn.add_weight(1, 4, DEV, 1.0, 0.0)  # a write: new version, new index
    assert layer._sampled_graph(bn).node_ids.tolist() == [1, 2, 4]
