"""CSR substrate parity: every topology query matches the golden corpus.

The corpus (``tests/golden/``) was captured from the retired dict adjacency
with the routing caches off.  The CSR substrate must reproduce it exactly:
adjacency rows, radio range, hop tables (including dict iteration order),
shortest paths, connectivity, routing-tree structure, GHT/DHT home nodes --
on the same seeds, through mutations, and end to end through figure runs.
"""

from functools import lru_cache

import pytest

import golden_facts as gf
from repro.network.node import SensorNode
from repro.network.topology import (
    NUMPY_BFS_MIN_NODES,
    Topology,
    random_topology,
    scale_preset_degree,
    topology_from_preset,
)

SEEDS = [0, 1, 2, 5]
TOPOLOGY = gf.load("topology")


def make(seed, num_nodes=60):
    """The deployment and its corpus entry."""
    topology = random_topology(
        num_nodes=num_nodes, average_degree=gf.RANDOM_DEGREE, seed=seed
    )
    return topology, TOPOLOGY[f"random-n{num_nodes}-s{seed}"]


def pinned_state(topology):
    """The topology's current state facts, pinned as the corpus stores them."""
    return gf.pin(gf.state_facts(topology))


@lru_cache(maxsize=None)
def timeline(seed, num_nodes=60):
    """Facts through failure, recovery, link surgery and a move (read-only)."""
    topology, _ = make(seed, num_nodes)
    return gf.topology_timeline(topology)


class TestGenerationParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_nodes", [40, 120])
    def test_deployment_identical(self, seed, num_nodes):
        topology, expected = make(seed, num_nodes=num_nodes)
        assert topology.radio_range == expected["radio_range"]
        assert topology.base_id == expected["base_id"]
        assert topology.average_degree() == expected["average_degree"]
        facts = pinned_state(topology)
        initial = expected["states"]["initial"]
        assert facts["rows"] == initial["rows"]
        assert facts["alive_rows"] == initial["alive_rows"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hop_tables_and_paths_identical(self, seed):
        topology, expected = make(seed)
        facts = pinned_state(topology)
        initial = expected["states"]["initial"]
        # Hop tables are digested as (node, hops) lists in dict iteration
        # order, so BFS discovery order is pinned too.
        for name in ("hops", "paths", "hops_between", "connected"):
            assert facts[name] == initial[name], name

    def test_bfs_kernel_follows_node_count(self):
        def line(num_nodes):
            nodes = {i: SensorNode(node_id=i, position=(float(i), 0.0))
                     for i in range(num_nodes)}
            adjacency = {i: {j for j in (i - 1, i + 1) if 0 <= j < num_nodes}
                         for i in range(num_nodes)}
            return Topology(nodes=nodes, adjacency=adjacency, radio_range=1.5)

        small = line(NUMPY_BFS_MIN_NODES - 1)
        large = line(NUMPY_BFS_MIN_NODES)
        assert not small.routing_cache.array_mode
        assert large.routing_cache.array_mode
        assert small.hops_between(0, NUMPY_BFS_MIN_NODES - 2) == NUMPY_BFS_MIN_NODES - 2
        assert large.hops_between(0, NUMPY_BFS_MIN_NODES - 1) == NUMPY_BFS_MIN_NODES - 1

    def test_scale_preset_connected_and_sparse(self):
        topo = topology_from_preset("scale", num_nodes=5000, seed=0)
        assert topo.routing_cache.array_mode
        assert topo.is_connected()
        assert len(topo.nodes) == 5000
        assert topo.average_degree() < 0.01 * len(topo.nodes)
        assert scale_preset_degree(5000) >= 12.0
        assert scale_preset_degree(1_000_000) > scale_preset_degree(10_000)


class TestMutationParity:
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_failure_and_recovery(self, seed):
        expected = TOPOLOGY[f"random-n60-s{seed}"]
        facts = timeline(seed)
        assert facts["failed"] == expected["failed"]
        for state in ("failed", "recovered"):
            assert facts["states"][state] == expected["states"][state], state

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_link_surgery(self, seed):
        expected = TOPOLOGY[f"random-n60-s{seed}"]
        facts = timeline(seed)
        assert facts["unlinked"] == expected["unlinked"]
        assert facts["relinked_neighbours"] == expected["relinked_neighbours"]
        for state in ("unlinked", "relinked", "moved"):
            assert facts["states"][state] == expected["states"][state], state

    def test_copy_is_independent(self):
        topology, _ = make(0)
        clone = topology.copy()
        victim = next(n for n in topology.node_ids if n != topology.base_id)
        clone.nodes[victim].fail()
        assert topology.nodes[victim].alive
        assert victim in topology.shortest_hops(topology.base_id)
        assert victim not in clone.shortest_hops(clone.base_id)


class TestRoutingParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_routing_tree(self, seed):
        topology, expected = make(seed)
        # parent/children/depth as lists in dict insertion order, for
        # tie-break seeds 0-2
        assert pinned_state(topology)["trees"] == expected["states"]["initial"]["trees"]

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_tree_repair_after_failure(self, seed):
        assert timeline(seed)["repair"] == TOPOLOGY[f"random-n60-s{seed}"]["repair"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_multitree_roots(self, seed):
        expected = TOPOLOGY[f"random-n60-s{seed}"]
        facts = timeline(seed)
        for state, state_facts in expected["states"].items():
            assert facts["states"][state]["multitree_roots"] == \
                state_facts["multitree_roots"], state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ght_and_dht_home_nodes(self, seed):
        expected = TOPOLOGY[f"random-n60-s{seed}"]
        facts = timeline(seed)
        # home nodes and routes, before and after the epoch-invalidating
        # failure, recovery, link surgery and move
        for state, state_facts in expected["states"].items():
            for name in ("ght", "dht"):
                assert facts["states"][state][name] == state_facts[name], state


class TestLandmarks:
    def test_approx_hops_is_an_exact_upper_bound(self):
        sparse = random_topology(num_nodes=120, average_degree=7.0, seed=3)
        cache = sparse.routing_cache.validate()
        landmark_ids, matrix = cache.landmark_tables(num_landmarks=4)
        assert matrix.shape == (len(landmark_ids), len(sparse.nodes))
        nodes = sparse.node_ids
        for a in nodes[::11]:
            assert cache.approx_hops(a, a, num_landmarks=4) == 0
            for b in nodes[::13]:
                exact = sparse.hops_between(a, b)
                approx = cache.approx_hops(a, b, num_landmarks=4)
                if exact is None:
                    continue
                assert approx >= exact
        # exact whenever one endpoint is a landmark (triangle collapses)
        for landmark in landmark_ids.tolist():
            for b in nodes[::17]:
                exact = sparse.hops_between(landmark, b)
                if exact is not None:
                    assert cache.approx_hops(landmark, b, num_landmarks=4) == exact


class TestExperimentIdentity:
    """Figure experiments reproduce the corpus captured on the dict substrate."""

    def test_fig14_failure_same_with_sparse_forced(self):
        assert gf.fig14_rows() == gf.load("figures")["fig14_failure"]

    def test_engine_run_same_with_sparse_forced(self):
        expected = gf.load("runs")["scale-ladder-smoke@1000"]
        facts = gf.run_facts("scale-ladder-smoke", {},
                             lambda s: s.num_nodes == 1000 and s.algorithm == "base")
        assert facts and all(record in expected for record in facts)
