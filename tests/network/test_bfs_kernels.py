"""Differential test: the scalar and numpy BFS kernels are interchangeable.

``PathCache`` walks CSR rows with the scalar kernel below
``NUMPY_BFS_MIN_NODES`` nodes and with the level-synchronous numpy kernel at
or above it.  On random small graphs with dead nodes and link surgery both
must return identical ``(hops, parents, order)`` vectors -- scanning rows
by id or by a tie-break rank, as routing trees do -- and every consumer
-- hop tables in discovery order, paths, routing trees and multi-tree roots
-- must be identical whichever kernel serves the topology, so the node-count
cutoff can never change an output.
"""

import contextlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import topology as topology_module
from repro.network.node import SensorNode
from repro.network.topology import Topology, _bfs_levels, _bfs_rows, grid_topology
from repro.routing.multitree import MultiTreeSubstrate
from repro.routing.tree import RoutingTree


@st.composite
def graphs(draw):
    """(node count, edges, dead nodes, unlinked nodes, added links)."""
    num_nodes = draw(st.integers(2, 24))
    node = st.integers(0, num_nodes - 1)
    link = st.tuples(node, node).filter(lambda e: e[0] != e[1])
    edges = draw(st.sets(link, max_size=3 * num_nodes))
    dead = draw(st.sets(node, max_size=num_nodes // 3))
    unlinked = draw(st.lists(node, max_size=2))
    added = draw(st.lists(link, max_size=3))
    return num_nodes, sorted(edges), sorted(dead), unlinked, added


def build(num_nodes, edges, dead, unlinked, added) -> Topology:
    nodes = {i: SensorNode(node_id=i, position=(float(i), 0.0))
             for i in range(num_nodes)}
    adjacency = {i: set() for i in range(num_nodes)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    topology = Topology(nodes=nodes, adjacency=adjacency, base_id=0)
    for node_id in unlinked:
        topology.remove_links_of(node_id)
    for a, b in added:
        topology.adjacency[a].add(b)
        topology.adjacency[b].add(a)
    topology.invalidate_routing_caches()
    for node_id in dead:
        if node_id != topology.base_id:
            topology.nodes[node_id].fail()
    return topology


@contextlib.contextmanager
def kernel(numpy_kernel: bool):
    """Serve topologies built inside the block with one BFS kernel."""
    saved = topology_module.NUMPY_BFS_MIN_NODES
    topology_module.NUMPY_BFS_MIN_NODES = 0 if numpy_kernel else 10 ** 9
    try:
        yield
    finally:
        topology_module.NUMPY_BFS_MIN_NODES = saved


def consumer_facts(topology: Topology):
    node_ids = topology.node_ids
    sources = node_ids[::max(1, len(node_ids) // 24)]
    multitree = MultiTreeSubstrate(topology, num_trees=3)
    return {
        "hops": [list(topology.shortest_hops(s).items()) for s in sources],
        "paths": [[topology.shortest_path(s, t) for t in node_ids] for s in sources],
        "trees": [
            (list(tree.parent.items()), list(tree.children.items()))
            for tree in [RoutingTree(topology, tie_break_seed=seed)
                         for seed in (0, 1, 2)] + multitree.trees
        ],
        "roots": [tree.root for tree in multitree.trees],
    }


def facts_under(numpy_kernel: bool, graph):
    with kernel(numpy_kernel):
        topology = build(*graph)
        assert topology.routing_cache.array_mode == numpy_kernel
        return consumer_facts(topology)


@given(graphs(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_kernels_return_identical_tables(graph, random):
    topology = build(*graph)
    cache = topology.routing_cache
    rank = list(range(topology.num_nodes))
    random.shuffle(rank)
    for source in topology.node_ids:
        by_id = (
            _bfs_rows(cache.alive_adjacency.get, topology.num_nodes, source),
            _bfs_levels(cache._indptr, cache._indices, cache.alive_mask, source),
        )
        by_rank = (
            _bfs_rows(lambda node: sorted(cache.alive_adjacency.get(node),
                                          key=rank.__getitem__),
                      topology.num_nodes, source),
            _bfs_levels(cache._indptr, cache._indices, cache.alive_mask, source,
                        np.asarray(rank)),
        )
        for scalar, levels in (by_id, by_rank):
            for mine, theirs in zip(scalar, levels):
                assert mine.dtype == theirs.dtype
                assert np.array_equal(mine, theirs)


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_consumers_identical_under_either_kernel(graph):
    assert facts_under(False, graph) == facts_under(True, graph)


def test_grid_with_failures_identical_under_either_kernel():
    def facts(numpy_kernel):
        with kernel(numpy_kernel):
            topology = grid_topology(num_nodes=400)
            for node_id in (21, 22, 190, 211, 212, 213):
                topology.nodes[node_id].fail()
            return consumer_facts(topology)

    assert facts(False) == facts(True)
