"""Which public functions of which layer the traced run wraps.

Span names are the module the layer lives in.  Functions that run once per
shipment or per tuple are counted; everything else opens a span per call.
``NetworkSimulator.transfer`` is the one per-shipment function that is also
timed, because it is the whole per-tuple transport layer; its cost shows in
``trace.overhead_ratio``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from tracer import Patcher, Tracer

#: every per-layer metric, in report order
PER_LAYER = (
    ("topology.build_s", "s"), ("topology.edges", "count"),
    ("routing.build_s", "s"),
    ("semantic.build_s", "s"), ("semantic.builds", "count"),
    ("multitree.build_s", "s"),
    ("init.self_s", "s"),
    ("groupopt.s", "s"), ("groupopt.decisions", "count"),
    ("parser.s", "s"),
    ("sample.s", "s"), ("sample.calls", "count"), ("sample.selected_ratio", "ratio"),
    ("cycle.self_s", "s"), ("probe.calls", "count"),
    ("results.produced", "count"), ("results.delivered", "count"),
    ("transport.flush_s", "s"), ("transport.transfer_s", "s"),
    ("transport.shipments", "count"), ("transport.hop_tx", "count"),
    ("kernel.batched_cycles", "count"), ("kernel.reference_cycles", "count"),
    ("kernel.batched_ratio", "ratio"),
    ("share.ship_calls", "count"), ("share.dedupe_ratio", "ratio"),
    ("sinks.s", "s"), ("sinks.events", "count"),
    ("report.s", "s"),
    ("store.write_s", "s"), ("store.rows", "count"), ("store.node_metric_rows", "count"),
    ("workload.s", "s"),
    ("workload.cache_hits", "count"), ("workload.cache_misses", "count"),
    ("run.self_s", "s"),
    ("daemon.dispatch_self_s", "s"),
    ("process.peak_rss_mb", "MB"),
    ("untraced.s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: span name -> metric name fed by the span's self time
SPAN_METRICS = {
    "topology.build": "topology.build_s",
    "routing.build": "routing.build_s",
    "semantic.build": "semantic.build_s",
    "multitree.build": "multitree.build_s",
    "init": "init.self_s",
    "groupopt": "groupopt.s",
    "parser": "parser.s",
    "sample": "sample.s",
    "cycle": "cycle.self_s",
    "transport.flush": "transport.flush_s",
    "transport.transfer": "transport.transfer_s",
    "sinks": "sinks.s",
    "report": "report.s",
    "store.write": "store.write_s",
    "workload": "workload.s",
    "run": "run.self_s",
    "daemon.dispatch": "daemon.dispatch_self_s",
}


def install_tracing(patcher: Patcher, tracer: Tracer, strategy_classes) -> None:
    """Wrap every layer boundary; :meth:`Patcher.restore` removes them."""
    import repro.engine.execution as execution
    import repro.engine.workload as workload
    import repro.query.parser as parser
    from repro.core.group_opt import GroupOptimizer
    from repro.core.optimizer import PairwiseOptimizer
    from repro.engine.store import ResultStore, StreamingWriter
    from repro.joins.base import ExecutionContext
    from repro.joins.executor import JoinExecutor
    from repro.joins.stepping import SharedShipmentPlane, SharedSubstrateEngine
    from repro.metrics.energy import EnergySink
    from repro.metrics.hotspot import HotspotSink
    from repro.metrics.latency import LatencySink
    from repro.network.batch import CycleBatcher
    from repro.network.simulator import NetworkSimulator
    from repro.network.traffic import TrafficStats
    from repro.query.window import JoinState
    from repro.routing.multitree import MultiTreeSubstrate
    from repro.routing.semantic import SemanticRoutingTable
    from repro.routing.tree import RoutingTree
    from repro.service.daemon import ServiceDaemon

    counters = tracer.counters
    timed, counted = tracer.timed, tracer.counted

    def bump(key: str, amount: Callable = lambda result, args, kwargs: 1):
        def after(result, args, kwargs) -> None:
            counters[key] += amount(result, args, kwargs)
        return after

    # -- the top of a campaign run ---------------------------------------
    patcher.patch(execution, "execute_run", timed("run"))

    # -- topology generation and the workload memo caches -----------------
    def occupancy() -> int:
        return sum(workload.workload_cache_stats().values())

    def cached(function: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if not tracer.active or kwargs.get("fresh"):
                return function(*args, **kwargs)
            before = occupancy()
            result = function(*args, **kwargs)
            # a miss inserts; at a full cache the eviction hides it (the
            # workloads stay below every cache limit)
            key = "workload.cache_misses" if occupancy() > before else "workload.cache_hits"
            counters[key] += 1
            return result
        return wrapper

    def count_edges(result, args, kwargs) -> None:
        counters["topology.edges"] += round(result.average_degree() * len(result.nodes) / 2)

    topology_seen: Dict[int, bool] = {}

    def new_topology_edges(result, args, kwargs) -> None:
        if id(result) not in topology_seen:
            topology_seen[id(result)] = True
            count_edges(result, args, kwargs)

    patcher.patch(workload, "build_topology", timed("topology.build", after=new_topology_edges))
    patcher.patch(workload, "build_topology", cached)
    for name in ("build_query", "memoized_workload", "memoized_workload_source",
                 "memoized_assumed_provider"):
        patcher.patch(workload, name, timed("workload"))
        patcher.patch(workload, name, cached)

    # -- routing state, multicast trees, the semantic index ---------------
    patcher.patch(RoutingTree, "build", timed("routing.build"))
    patcher.patch(MultiTreeSubstrate, "__init__", timed("multitree.build"))
    patcher.patch(SemanticRoutingTable, "build",
                  timed("semantic.build", after=bump("semantic.builds")))

    # -- initiation, GROUPOPT, the parser -----------------------------------
    for cls in strategy_classes:
        patcher.patch(cls, "initiate", timed("init", outermost=True))
    patcher.patch(PairwiseOptimizer, "apply_group_optimization", timed("groupopt"))
    patcher.patch(GroupOptimizer, "add_query", timed("groupopt"))
    patcher.patch(GroupOptimizer, "remove_query", timed("groupopt"))
    patcher.patch(GroupOptimizer, "decide_group",
                  timed("groupopt", after=bump("groupopt.decisions")))
    patcher.patch(parser, "parse_query", timed("parser"))

    # -- cycles: which kernel path ran --------------------------------------
    def kernel_path(function: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            before = counters["transport.flushes"]
            result = function(*args, **kwargs)
            if tracer.active:
                batched = counters["transport.flushes"] > before
                counters["kernel.batched_cycles" if batched
                         else "kernel.reference_cycles"] += 1
            return result
        return wrapper

    patcher.patch(JoinExecutor, "step_cycle", kernel_path)
    patcher.patch(JoinExecutor, "step_cycle", timed("cycle"))
    patcher.patch(SharedSubstrateEngine, "step_cycle",
                  timed("cycle", after=bump("kernel.reference_cycles")))

    def sampled(result, args, kwargs) -> None:
        eligible = args[2] if len(args) > 2 else kwargs["eligible"]
        counters["sample.calls"] += 1
        counters["sample.eligible"] += sum(len(ids) for ids in eligible.values())
        counters["sample.selected"] += len(result)

    patcher.patch(ExecutionContext, "sample_producers", timed("sample", after=sampled))
    patcher.patch(JoinState, "probe", counted("probe.calls"))

    # -- transport ------------------------------------------------------------
    patcher.patch(CycleBatcher, "flush",
                  timed("transport.flush", after=bump("transport.flushes")))
    patcher.patch(NetworkSimulator, "transfer",
                  timed("transport.transfer", after=bump("transport.shipments")))

    def hops_of_path(counters_, args, kwargs) -> None:
        num_hops = args[5] if len(args) > 5 else kwargs.get("num_hops")
        counters_["transport.hop_tx"] += (len(args[1]) - 1) if num_hops is None else num_hops

    def hops_of_batch(counters_, args, kwargs) -> None:
        batch = args[1]
        counters_["transport.hop_tx"] += int(batch.senders.size)
        counters_["transport.shipments"] += sum(1 for _record in batch.iter_records())

    def one_hop(counters_, args, kwargs) -> None:
        counters_["transport.hop_tx"] += 1

    patcher.patch(TrafficStats, "charge_path", counted(hops_of_path))
    patcher.patch(TrafficStats, "charge_paths_batch", counted(hops_of_batch))
    patcher.patch(TrafficStats, "charge_transmission", counted(one_hop))
    patcher.patch(TrafficStats, "charge_broadcast", counted(one_hop))
    patcher.patch(SharedShipmentPlane, "ship", counted("share.ship_calls"))

    # -- metrics sinks: per-cycle events timed, per-tuple events counted ----
    for cls in (EnergySink, HotspotSink, LatencySink):
        for event in ("charge_paths_batch", "on_sampling_cycle"):
            if event in cls.__dict__:
                patcher.patch(cls, event, timed("sinks", after=bump("sinks.events")))
        for event in ("charge_path", "charge_transmission", "charge_broadcast",
                      "charge_drop", "on_delivery"):
            if event in cls.__dict__:
                patcher.patch(cls, event, counted("sinks.events"))

    # -- reports, the result store, the daemon --------------------------------
    patcher.patch(JoinExecutor, "report", timed("report"))
    patcher.patch(ResultStore, "put_many",
                  timed("store.write", after=bump("store.rows", lambda r, a, k: r)))
    patcher.patch(StreamingWriter, "flush", timed("store.write"))
    patcher.patch(ServiceDaemon, "handle", timed("daemon.dispatch"))


def per_layer_metrics(tracer: Tracer, traced_wall_ns: int,
                      counts: Dict[str, float], overhead_ratio: float
                      ) -> Dict[str, Dict[str, Any]]:
    """The ``--trace 1`` metrics: span self times, counters, ratios."""
    from tracer import layer_times

    layers, untraced = layer_times(tracer.spans, traced_wall_ns)
    values: Dict[str, float] = {metric: 0.0 for metric, _unit in PER_LAYER}
    for span, metric in SPAN_METRICS.items():
        if span in layers:
            values[metric] = layers[span]["self_s"]
    merged = dict(tracer.counters)
    for key, value in counts.items():
        merged[key] = merged.get(key, 0.0) + value
    for key in values:
        if key in merged:
            values[key] = float(merged[key])
    values["sample.selected_ratio"] = _ratio(merged.get("sample.selected", 0.0),
                                             merged.get("sample.eligible", 0.0))
    cycles = merged.get("kernel.batched_cycles", 0.0) + merged.get("kernel.reference_cycles", 0.0)
    values["kernel.batched_ratio"] = _ratio(merged.get("kernel.batched_cycles", 0.0), cycles)
    values["share.dedupe_ratio"] = _ratio(merged.get("share.deduped", 0.0),
                                          merged.get("share.ship_calls", 0.0))
    values["untraced.s"] = untraced
    values["trace.overhead_ratio"] = overhead_ratio
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
