"""What the golden corpus pins, and how each fact is computed.

The corpus under ``tests/golden/`` freezes two kinds of facts:

* **Topology facts** -- for the random deployments of several seeds and
  sizes, the 100-node grid and the Intel lab: radio range, base id,
  adjacency rows, BFS hop tables in discovery (insertion) order, shortest
  paths, routing-tree parent/children/depth order for tie-break seeds 0-2,
  tree repair after a failure, multi-tree roots and GHT/DHT home nodes --
  before and after a failure, a recovery, link surgery and a leaf move.
* **Run facts** -- per-RunSpec report digests and traffic totals for the
  smoke-scale figure scenarios (perfect and lossy links), the rows of the
  smoke-scale Fig. 14 (failure) and App. G (mobility) figure functions, and
  one service replay whose live relay failure sends queries through
  recovery.

Bulky facts (rows, hop tables, paths, trees) are stored as sha256 digests of
their canonical JSON, which keeps the corpus small and the check exact; the
small ones (roots, home nodes, ranges) are stored as they are.
``capture.py`` writes the corpus; ``test_golden_corpus.py`` recomputes every
fact and asserts exact equality.  Both import this module, so the two can
never compute a fact differently.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

CORPUS_DIR = Path(__file__).resolve().parent

RANDOM_SEEDS = (0, 1, 2, 5)
RANDOM_SIZES = (40, 60, 120)
RANDOM_DEGREE = 7.0
TIE_BREAK_SEEDS = (0, 1, 2)
HOME_KEYS = ("alpha", "beta", ("pair", 3), 42, "zz")

#: (corpus label, scenario name, scenario overrides, RunSpec filter)
RUN_CASES: Tuple[Tuple[str, str, Dict[str, Any], Optional[Callable]], ...] = (
    ("fig02-smoke", "fig02-smoke", {}, None),
    ("fig05", "fig05", {}, None),
    ("fig09a", "fig09a", {}, None),
    ("fig13", "fig13", {}, None),
    ("fig14-smoke", "fig14-smoke", {}, None),
    ("fig16", "fig16", {}, None),
    ("fig18", "fig18", {}, None),
    ("appg-smoke", "appg-smoke", {}, None),
    ("table3", "table3", {}, None),
    ("scale-ladder-smoke@1000", "scale-ladder-smoke", {},
     lambda spec: spec.num_nodes == 1000),
    ("strategy-crossover-smoke", "strategy-crossover-smoke", {}, None),
    ("query-churn-smoke", "query-churn-smoke", {}, None),
    ("fig02-smoke@loss0.2", "fig02-smoke", {"link_loss": 0.2}, None),
    ("fig05@loss0.2", "fig05", {"link_loss": 0.2}, None),
    ("fig14-smoke@loss0.2", "fig14-smoke", {"link_loss": 0.2}, None),
)


def digest(payload: Any) -> str:
    """sha256 of a canonical JSON rendering (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def normalize(payload: Any) -> Any:
    """The JSON round trip the corpus files go through (tuples -> lists)."""
    return json.loads(json.dumps(payload, default=str))


def load(name: str) -> Any:
    return json.loads((CORPUS_DIR / f"{name}.json").read_text())


def dump(name: str, payload: Any) -> None:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    (CORPUS_DIR / f"{name}.json").write_text(text + "\n")


# ---------------------------------------------------------------------------
# topology facts
# ---------------------------------------------------------------------------


def topology_cases() -> List[Tuple[str, Callable]]:
    """``(label, factory)`` for every deployment the corpus pins."""
    from repro.network.topology import (
        grid_topology,
        intel_lab_topology,
        random_topology,
    )

    cases: List[Tuple[str, Callable]] = []
    for size in RANDOM_SIZES:
        for seed in RANDOM_SEEDS:
            cases.append((
                f"random-n{size}-s{seed}",
                lambda size=size, seed=seed: random_topology(
                    num_nodes=size, average_degree=RANDOM_DEGREE, seed=seed
                ),
            ))
    cases.append(("grid-100", lambda: grid_topology(100)))
    cases.append(("intel", intel_lab_topology))
    return cases


def _guarded(call: Callable) -> Any:
    """A query's result, or the name of the error it raised."""
    try:
        return call()
    except (KeyError, ValueError, RuntimeError) as error:
        return f"error:{type(error).__name__}"


def _tree_facts(tree) -> Dict[str, Any]:
    return {
        "parent": list(tree.parent.items()),
        "children": list(tree.children.items()),
        "depth": list(tree.depth.items()),
    }


def state_facts(topology) -> Dict[str, Any]:
    """Every pinned query against the topology's current state."""
    from repro.routing.dht import DHTSubstrate
    from repro.routing.ght import GHTSubstrate
    from repro.routing.multitree import MultiTreeSubstrate
    from repro.routing.tree import RoutingTree

    node_ids = topology.node_ids
    sources = [topology.base_id] + node_ids[::7]
    targets = node_ids[::5]
    ght = GHTSubstrate(topology)
    dht = DHTSubstrate(topology)
    return {
        "rows": [sorted(topology.adjacency.get(n, ())) for n in node_ids],
        "alive_rows": [topology.neighbors(n) for n in node_ids],
        "connected": topology.is_connected(),
        "hops": [
            [source, list(topology.shortest_hops(source).items())]
            for source in sources
        ],
        "paths": [
            [source, target, topology.shortest_path(source, target)]
            for source in sources for target in targets
        ],
        "hops_between": [
            [source, target, topology.hops_between(source, target)]
            for source in sources for target in targets
        ],
        "trees": [
            _tree_facts(RoutingTree(topology, tie_break_seed=seed))
            for seed in TIE_BREAK_SEEDS
        ],
        "multitree_roots": [
            tree.root for tree in MultiTreeSubstrate(topology, num_trees=3).trees
        ],
        "ght": [
            [ght.home_node(key), _guarded(lambda key=key: ght.greedy_route(5, key))]
            for key in HOME_KEYS
        ],
        "dht": [
            [dht.home_node(key), _guarded(lambda key=key: dht.route(7, key))]
            for key in HOME_KEYS
        ],
    }


#: state facts small enough to keep verbatim; the rest are digested
VERBATIM_FACTS = ("connected", "multitree_roots", "ght", "dht")


def pin(facts: Dict[str, Any]) -> Dict[str, Any]:
    """State facts as the corpus stores them: bulky ones digested."""
    return {
        name: value if name in VERBATIM_FACTS else digest(value)
        for name, value in facts.items()
    }


def _busiest_relay(topology) -> int:
    """The non-base node with the most routing-tree children (lowest id)."""
    from repro.routing.tree import RoutingTree

    tree = RoutingTree(topology)
    return min(
        (n for n in topology.node_ids if n != topology.base_id),
        key=lambda n: (-len(tree.children.get(n, ())), n),
    )


def topology_timeline(topology) -> Dict[str, Any]:
    """Facts before and after a failure, a recovery, link surgery and a move."""
    from repro.network.mobility import is_leaf, move_leaf_node
    from repro.routing.tree import RoutingTree

    facts: Dict[str, Any] = {
        "radio_range": topology.radio_range,
        "base_id": topology.base_id,
        "average_degree": topology.average_degree(),
        "states": {},
    }
    states = facts["states"]
    states["initial"] = pin(state_facts(topology))

    victim = _busiest_relay(topology)
    tree = RoutingTree(topology)
    topology.nodes[victim].fail()
    unattached = tree.repair_after_failure(victim)
    facts["failed"] = victim
    facts["repair"] = {"unattached": unattached,
                       "tree": digest(_tree_facts(tree))}
    states["failed"] = pin(state_facts(topology))
    topology.nodes[victim].recover()
    states["recovered"] = pin(state_facts(topology))

    leaf = next(
        n for n in reversed(topology.node_ids)
        if n != topology.base_id and len(topology.neighbors(n)) >= 2
    )
    facts["unlinked"] = leaf
    topology.remove_links_of(leaf)
    states["unlinked"] = pin(state_facts(topology))
    facts["relinked_neighbours"] = topology.rebuild_links_of(leaf)
    states["relinked"] = pin(state_facts(topology))

    mobile = next(
        n for n in reversed(topology.node_ids)
        if n != topology.base_id and is_leaf(topology, n)
    )
    x, y = topology.nodes[mobile].position
    event = move_leaf_node(topology, mobile, (x + topology.radio_range / 3, y))
    facts["moved"] = [mobile, list(event.removed_links), list(event.added_links)]
    states["moved"] = pin(state_facts(topology))
    return normalize(facts)


# ---------------------------------------------------------------------------
# run facts
# ---------------------------------------------------------------------------


def run_facts(scenario_name: str, overrides: Dict[str, Any],
              keep: Optional[Callable] = None) -> List[Dict[str, Any]]:
    """Report digest and traffic totals of every RunSpec, in expansion order."""
    from repro.engine.execution import execute_run
    from repro.engine.spec import resolve_scale
    from repro.engine.store import report_to_dict
    from repro.engine.workload import reset_workload_caches
    from repro.experiments.scenarios import resolve_scenario

    scenario = resolve_scenario(scenario_name)
    if overrides:
        scenario = scenario.with_overrides(**overrides)
    specs = scenario.expand(resolve_scale("smoke"))
    if keep is not None:
        specs = [spec for spec in specs if keep(spec)]
    reset_workload_caches()
    records = []
    try:
        for spec in specs:
            report = execute_run(spec).report
            records.append({
                "run": f"{spec.algorithm} {spec.display_label}",
                "digest": digest(report_to_dict(report)),
                "total_traffic": report.total_traffic,
                "initiation_traffic": report.initiation_traffic,
                "results_delivered": report.results_delivered,
            })
    finally:
        reset_workload_caches()
    return normalize(records)


def _figure_rows(run: Callable) -> Any:
    from repro.experiments import harness

    harness._TOPOLOGY_CACHE.clear()
    try:
        return normalize(run())
    finally:
        harness._TOPOLOGY_CACHE.clear()


def fig14_rows() -> Any:
    """Fig. 14 (node failure) rows at smoke scale, join selectivity 0.2."""
    from repro.experiments.figures_adaptive import fig14_failure
    from repro.experiments.harness import SCALES

    return _figure_rows(lambda: fig14_failure(scale=SCALES["smoke"],
                                              join_selectivities=(0.2,)))


def appg_rows() -> Any:
    """App. G (leaf mobility) rows at smoke scale, one move."""
    from repro.experiments.figures_substrate import appg_mobility
    from repro.experiments.harness import SCALES

    return _figure_rows(lambda: appg_mobility(scale=SCALES["smoke"], num_moves=1))


FIGURES = {"fig14_failure": fig14_rows, "appg_mobility": appg_rows}


# ---------------------------------------------------------------------------
# service replay with a live relay failure
# ---------------------------------------------------------------------------

SERVICE_NODES = 60
SERVICE_CYCLES = 16
#: a relay (never a producer of the pool's queries) on many delivery paths
SERVICE_VICTIM = 21
SERVICE_FAIL_CYCLE = 6


def service_facts() -> Dict[str, Any]:
    """Replay a small churn trace through ServiceEngine, failing a relay."""
    from repro.service.churn import build_churn_trace, churn_query, events_by_cycle
    from repro.service.engine import ServiceConfig, ServiceEngine

    engine = ServiceEngine(ServiceConfig(
        num_nodes=SERVICE_NODES, seed=0, default_algorithm="innet-cmg",
    ))
    trace = events_by_cycle(build_churn_trace(
        seed=7, cycles=SERVICE_CYCLES, target=8, churn_interval=4, churn_count=2,
    ))
    slot_to_query: Dict[int, int] = {}
    per_cycle: List[Any] = []
    for cycle in range(SERVICE_CYCLES):
        if cycle == SERVICE_FAIL_CYCLE:
            engine.apply_event({"type": "fail", "node": SERVICE_VICTIM})
        for event in trace.get(cycle, ()):
            if event.action == "cancel":
                engine.cancel(slot_to_query.pop(event.slot))
            else:
                name, sql = churn_query(event.slot, 7, SERVICE_NODES)
                slot_to_query[event.slot] = engine.submit(sql=sql, name=name)["query_id"]
        engine.step(1)
        per_cycle.append(engine.stats())
    status = engine.status()
    return normalize({
        "victim": SERVICE_VICTIM,
        "stats": per_cycle[-1],
        "per_cycle_digest": digest(per_cycle),
        "status_digest": digest(status),
        "queries": [
            [q["query_id"], q["results_produced"], q["results_delivered"],
             q["initiation_traffic"]]
            for q in status["queries"]
        ],
    })
