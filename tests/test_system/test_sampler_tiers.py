"""Every sampling tier against the scalar oracle, once.

All serving tiers run one function —
:func:`repro.network.sampling.computation_subgraphs_batch` over a read
index — so comparing them with each other would compare a function with
itself.  The independent implementation is the scalar dict walk of
``tests/oracles/sampling.py`` (dict walk + snapshot mask); this module
pins each tier to it on one graph: same node order, same CSR bits, at a
binding, a loose and no fanout, with an ``allowed`` filter, duplicate
targets and an isolated target.  The full-graph sweep's per-target walk
(``lambda_infer.score_slice``: one BFS over the index's selection, one
call of the index's inducer per target) is the last tier,
``sampled_graph``.

Also here, because they are properties of the tier set rather than of one
tier: the two call sites are the same function object, a selection does
not survive a BN swap, and a negative ``fanout`` is a typed error at every
sampler entry point.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.datagen import DAY, HOUR
from repro.core import materialize
from repro.network import BNBuilder, BehaviorNetwork, computation_subgraphs_batch
from repro.network.sampling import ComputationSubgraph, _bfs_positions
from repro.network.snapshot import positions_of
from repro.system import (
    BNServer,
    DeltaSampler,
    LatencyModel,
    ShardRouter,
    bn_server,
    shard_router,
)

from tests.oracles.sampling import computation_subgraph
from tests.test_network.test_sampling_batch import (
    assert_subgraph_equal,
    scalar_subgraphs,
)
from tests.test_network.test_sharding import (
    SHARD_COUNTS,
    TYPES,
    build_network,
    contribution_batches,
)

pytestmark = pytest.mark.sharding

DEV = TYPES[0]
ISOLATED = 99_999
#: duplicates (7 twice), the isolated node, and spread-out ordinary users.
TARGETS = [7, 31, 7, ISOLATED, 100, 150, 3, 199]
ALLOWED = set(range(0, 200, 2)) | {ISOLATED}
TIERS = ["local", *(f"router{n}" for n in SHARD_COUNTS), "sampled_graph"]


@pytest.fixture(scope="module")
def graph():
    """One network; the routers read it in {1, 2, 4, 8} partitions."""
    bn = build_network(contribution_batches(np.random.default_rng(7)))
    bn.add_node(ISOLATED)
    return bn


def make_server() -> BNServer:
    return BNServer(BNBuilder(windows=(HOUR, DAY)), LatencyModel(jitter_sigma=0.0, seed=0))


def sample_tier(tier, graph, fanout, allowed):
    """``(subgraphs, stats-or-None)`` of ``TARGETS`` from one tier."""
    if tier == "local":
        server = make_server()
        server.bn = graph
        assert server.sampler.tier == "local"
        subgraphs, stats, gate_s = server.sampler.sample_batch(
            TARGETS, hops=2, fanout=fanout, allowed=allowed
        )
        assert gate_s == 0.0
        return subgraphs, stats
    if tier.startswith("router"):
        router = ShardRouter(graph, int(tier[len("router"):]))
        subgraphs, stats, _ = router.sample_batch(
            TARGETS, hops=2, fanout=fanout, allowed=allowed
        )
        return subgraphs, stats
    index = graph.index()
    selection = index.selection(fanout)
    subgraphs = []
    for target, root in zip(TARGETS, positions_of(index.node_ids, TARGETS).tolist()):
        positions, _levels = _bfs_positions(selection, index.node_ids, np.array([root]), 2, allowed)
        subgraphs.append(
            ComputationSubgraph(
                target=target,
                nodes=[target] if root < 0 else index.node_ids[positions].tolist(),
                types=index.types,
                entries=index.induced_entries(positions),
            )
        )
    return subgraphs, None


@pytest.mark.parametrize("fanout", [3, 25, None])
@pytest.mark.parametrize("tier", TIERS)
def test_tier_matches_scalar_oracle(graph, tier, fanout):
    bn = graph
    for allowed in (None, ALLOWED):
        want = scalar_subgraphs(bn, TARGETS, hops=2, fanout=fanout, allowed=allowed)
        got, stats = sample_tier(tier, graph, fanout, allowed)
        for want_sub, got_sub in zip(want, got, strict=True):
            assert_subgraph_equal(got_sub, want_sub)
        assert got[0] is not got[2]  # duplicate targets get their own subgraph
        assert got[3].nodes == [ISOLATED]
        if stats is None:
            continue
        assert stats.requests == len(TARGETS)
        assert stats.sampled_nodes == sum(len(sub.nodes) for sub in want)
        assert stats.unique_nodes == len({u for sub in want for u in sub.nodes})
        assert stats.coalescing > 1.0  # target 7 is sampled twice, stored once
        assert stats.partial == ()


def test_one_sampler_under_every_tier():
    """The local tier and the router call the same function object."""
    assert bn_server.computation_subgraphs_batch is computation_subgraphs_batch
    assert shard_router.computation_subgraphs_batch is computation_subgraphs_batch
    assert not hasattr(shard_router, "index_sample_batch")


class TestSelectionCacheFollowsTheIndex:
    """The selection lives on the read index: one per (index, fanout)."""

    def test_bn_swap_does_not_serve_the_old_networks_selection(self):
        """``server.bn = other`` at an equal version must re-rank."""
        a, b = BehaviorNetwork(), BehaviorNetwork()
        a.add_node(1)
        a.add_weight(1, 2, DEV, 1.0, 0.0)  # nodes + one edge: version 2
        b.add_node(1)
        b.add_weight(1, 3, DEV, 1.0, 0.0)
        assert a.version == b.version
        server = make_server()
        server.bn = a
        assert server.sample(1)[0].nodes == [1, 2]
        server.bn = b
        assert server.sample(1)[0].nodes == [1, 3]
        assert server.sample_batch([1], [0.0])[0][0].nodes == [1, 3]

    def test_cache_kept_while_index_and_fanout_hold(self, graph):
        server = make_server()
        server.bn = graph
        server.sample(7, fanout=5)
        index = server.bn.index()
        selection = index.selection(5)
        server.sample(31, fanout=5)
        server.sample_batch([7, 100], [0.0, 0.0], fanout=5)
        assert server.bn.index() is index and index.selection(5) is selection
        assert index.selection(6) is not selection


class TestNegativeFanoutRejected:
    """``fanout=-1`` used to slice "all but the lightest neighbour"."""

    @pytest.mark.parametrize(
        "entry",
        ["scalar", "batch", "from_index", "server_sample", "server_sample_batch"],
    )
    def test_typed_error_at_every_entry_point(self, graph, entry):
        bn = graph
        server = make_server()
        server.bn = bn
        calls = {
            "scalar": lambda: computation_subgraph(bn, 7, fanout=-1),
            "batch": lambda: computation_subgraphs_batch(bn.index(), [7], fanout=-1),
            "from_index": lambda: materialize(
                None, bn, [], [], [], None, hops=2, fanout=-1, edge_type_order=()
            ),
            "server_sample": lambda: server.sample(7, fanout=-1),
            "server_sample_batch": lambda: server.sample_batch([7], [0.0], fanout=-1),
        }
        with pytest.raises(ValueError, match="fanout must be non-negative or None"):
            calls[entry]()

    def test_rejection_leaves_the_server_untouched(self, graph):
        class CountingGate:
            calls = 0

            def before_call(self, component, now=None):
                self.calls += 1
                return 0.0

        def observed(server):
            index = server.bn.index()
            return (
                server.bn.version,
                index,
                dict(index._selections),
                copy.deepcopy(server.latency._rng.bit_generator.state),
                server.faults.calls,
            )

        server = BNServer(
            BNBuilder(windows=(HOUR, DAY)),
            LatencyModel(jitter_sigma=0.3, seed=0),
            faults=CountingGate(),
        )
        server.bn = copy.deepcopy(graph)
        server.sample(7, fanout=5)  # warm a cache the rejection must keep
        unknown = 123_456
        before = observed(server)
        for call in (
            lambda: server.sample(unknown, fanout=-1),
            lambda: server.sample_batch([unknown, 7], [0.0, 0.0], fanout=-1),
        ):
            with pytest.raises(ValueError):
                call()
        assert unknown not in server.bn
        assert observed(server) == before


class TestRemovedCapabilities:
    def test_removed_parameters_raise_type_error(self, graph):
        bn = graph
        server = make_server()
        server.bn = bn
        with pytest.raises(TypeError):
            server.sample(7, rng=np.random.default_rng(0))
        with pytest.raises(TypeError):
            computation_subgraphs_batch(bn.index(), [7], edge_types=TYPES)
        tiers = [server.sampler, ShardRouter(graph, 2)]
        tiers.append(DeltaSampler(None, tiers[0]))
        for call in (
            lambda: computation_subgraphs_batch(bn.index(), [7], selection_cache={}),
            lambda: server.sample_batch([7], [0.0], selection_cache={}),
            *(lambda tier=tier: tier.sample_batch([7], selection_cache={}) for tier in tiers),
        ):
            with pytest.raises(TypeError):
                call()

    def test_one_memoized_view_per_network(self):
        bn = BehaviorNetwork()
        assert not hasattr(bn, "shard_index")
        assert not hasattr(bn, "_snapshot") and not hasattr(bn, "_shard_index")
