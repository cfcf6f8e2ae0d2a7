"""Shared infrastructure for join strategies.

A :class:`JoinStrategy` is given an :class:`ExecutionContext` (query analysis,
topology, simulator, data source, assumed selectivities) and implements two
phases: ``initiate`` (pre-computation, exploration, join-node placement --
Section 2.1 tasks 1-3) and ``execute_cycle`` (task 4: per-sampling-cycle
sampling, shipping, joining and result forwarding).  The
:class:`~repro.joins.executor.JoinExecutor` drives the strategy and collects
an :class:`ExecutionReport`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple, Union

from repro.core.cost_model import Selectivities
from repro.network.message import MessageKind, MessageSizes
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology
from repro.query.analysis import QueryAnalysis
from repro.query.query import JoinQuery
from repro.query.window import JoinState, WindowedTuple

Pair = Tuple[int, int]


class DataSource(Protocol):
    """Supplies dynamic attribute values for every node and sampling cycle."""

    def sample(self, node_id: int, cycle: int) -> Dict[str, Any]:
        """Dynamic attribute values of *node_id* at sampling cycle *cycle*."""
        ...


SelectivityProvider = Union[Selectivities, Callable[[Pair], Selectivities]]


@dataclass(frozen=True)
class ProducerSample:
    """One reading taken by an eligible producer in a sampling cycle."""

    alias: str
    node_id: int
    cycle: int
    values: Dict[str, Any]

    def as_windowed_tuple(self) -> WindowedTuple:
        # Memoized: the same sample is converted once and the (immutable)
        # WindowedTuple is shared by every pair window it is probed into.
        cached = self.__dict__.get("_windowed")
        if cached is None:
            cached = WindowedTuple(
                producer_id=self.node_id, cycle=self.cycle, values=self.values
            )
            object.__setattr__(self, "_windowed", cached)
        return cached


@dataclass
class ExecutionContext:
    """Everything a join strategy needs to run."""

    query: JoinQuery
    analysis: QueryAnalysis
    topology: Topology
    simulator: NetworkSimulator
    data_source: DataSource
    assumed_selectivities: SelectivityProvider
    sizes: MessageSizes = field(default_factory=MessageSizes)
    seed: int = 0
    #: When set (batch-cycle kernel), :meth:`ship` routes through the
    #: batcher instead of calling the simulator per path.
    _batcher: Optional[Any] = field(default=None, repr=False, compare=False)

    @property
    def base_id(self) -> int:
        return self.topology.base_id

    # -- selectivities -------------------------------------------------------
    def selectivities_for(self, pair: Pair) -> Selectivities:
        provider = self.assumed_selectivities
        if callable(provider):
            return provider(pair)
        return provider

    # -- producer eligibility and sampling ------------------------------------
    def eligible_producers(self, alias: str) -> List[int]:
        """Alive nodes passing the pre-evaluated static selection clauses for *alias*.

        A producer that died before initiation (a query admitted to a running
        service after a failure) is planned out: no pair gets a dead endpoint.
        """
        eligible = []
        for node_id in self.topology.node_ids:
            node = self.topology.nodes[node_id]
            if node.is_base or not node.alive:
                continue
            if self.analysis.node_eligible(alias, node.static_attributes):
                eligible.append(node_id)
        return eligible

    def sample_producers(
        self, cycle: int, eligible: Dict[str, Sequence[int]]
    ) -> List[ProducerSample]:
        """Readings of every eligible, alive producer that sends this cycle.

        Data sources are deterministic functions of (seed, node, cycle), so
        the per-cycle sample lists are memoized on the data source and shared
        by every strategy run against it.  Cached entries ignore liveness
        (aliveness is filtered per call against the topology's current alive
        set) and are keyed on the topology's identity and routing epoch, so
        failure and mobility experiments -- including ones running on
        separate topology copies -- never see stale values.  Samples and
        their value dicts are treated as immutable by all consumers.
        """
        cache = getattr(self.data_source, "_producer_sample_cache", None)
        if cache is None:
            try:
                self.data_source._producer_sample_cache = cache = {}
                # Keys include id(topology); pinning the topology keeps the
                # id from being reused while this cache is alive.
                self.data_source._producer_sample_pins = {}
            except AttributeError:  # exotic data sources without __dict__
                cache = None
        if cache is not None:
            if len(cache) > 8192:
                # Bound memory for data sources reused across many topology
                # copies (failure sweeps): those runs never hit the cache, so
                # dropping it costs nothing.
                cache.clear()
                self.data_source._producer_sample_pins.clear()
            self.data_source._producer_sample_pins.setdefault(
                id(self.topology), self.topology
            )
        alive = self.topology.routing_cache.alive_set
        none_dead = len(alive) == len(self.topology.nodes)
        sample_many = getattr(self.data_source, "sample_many", None)
        samples: List[ProducerSample] = []
        for alias, node_ids in eligible.items():
            key = (
                id(self.topology), self.query.name, alias, cycle,
                tuple(node_ids), self.topology.routing_epoch,
            )
            entry = cache.get(key) if cache is not None else None
            if entry is None:
                nodes = self.topology.nodes
                if sample_many is not None:
                    dynamics = sample_many(node_ids, cycle)
                else:
                    dynamics = [
                        self.data_source.sample(node_id, cycle)
                        for node_id in node_ids
                    ]
                built: List[ProducerSample] = []
                sends = self.analysis.producer_sends
                for node_id, dynamic in zip(node_ids, dynamics):
                    merged = dict(nodes[node_id].static_attributes)
                    merged.update(dynamic)
                    if sends(alias, merged):
                        built.append(
                            ProducerSample(alias=alias, node_id=node_id,
                                           cycle=cycle, values=merged)
                        )
                entry = tuple(built)
                if cache is not None:
                    cache[key] = entry
            if none_dead:
                samples.extend(entry)
            else:
                samples.extend(s for s in entry if s.node_id in alive)
        return samples

    def __post_init__(self) -> None:
        # Bound once: windowed-join probes call this hundreds of thousands of
        # times per run; the analysis compiles the dynamic join clauses into
        # a specialized two-argument closure.
        self.tuples_join = self.analysis.compiled_tuples_join()

    # -- traffic helpers -------------------------------------------------------
    def data_tuple_size(self) -> int:
        return self.sizes.data_tuple(num_attributes=1)

    def result_tuple_size(self) -> int:
        return self.sizes.result_tuple(num_attributes=self.query.result_width())

    def ship(
        self,
        path: Sequence[int],
        size_bytes: int,
        kind: MessageKind = MessageKind.DATA,
    ) -> bool:
        """Send a message along a path (instant accounting)."""
        if len(path) <= 1:
            return True
        if self._batcher is not None:
            return self._batcher.ship(path, size_bytes, kind)
        # transfer() never stores or mutates the path (Message construction
        # copies it), so shipping avoids a defensive copy per call.
        return self.simulator.transfer(path, size_bytes, kind)

    @contextmanager
    def captured_shipping(self, batcher):
        """Route every :meth:`ship` inside the block through *batcher*.

        The batcher answers delivery verdicts immediately (drawing link
        outcomes in the same RNG order as per-path transfers would) but
        defers all metric charges until its ``flush()``.
        """
        previous = self._batcher
        self._batcher = batcher
        try:
            yield batcher
        finally:
            self._batcher = previous


@dataclass
class ExecutionReport:
    """The metrics the paper's figures are built from."""

    query_name: str
    algorithm: str
    cycles: int
    total_traffic: float
    initiation_traffic: float
    computation_traffic: float
    base_traffic: float
    max_node_load: float
    results_produced: int
    results_delivered: int
    average_result_delay_cycles: float
    average_result_path_hops: float
    messages_dropped: int
    queue_drops: int
    top_loaded_nodes: List[Tuple[int, float]] = field(default_factory=list)
    traffic_by_kind: Dict[str, float] = field(default_factory=dict)
    reoptimizations: int = 0
    join_nodes_used: int = 0
    storage_tuples_peak: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    #: Per-node series from instrumentation sinks, keyed ``sink.series``
    #: (e.g. ``energy.energy_uj``); persisted into the result store's
    #: metrics table.  Empty unless the run enabled metric sinks.
    node_series: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Flat dictionary used by the experiment harness and benches."""
        return {
            "query": self.query_name,
            "algorithm": self.algorithm,
            "cycles": self.cycles,
            "total_traffic": self.total_traffic,
            "initiation_traffic": self.initiation_traffic,
            "computation_traffic": self.computation_traffic,
            "base_traffic": self.base_traffic,
            "max_node_load": self.max_node_load,
            "results_produced": self.results_produced,
            "results_delivered": self.results_delivered,
            "average_result_delay_cycles": self.average_result_delay_cycles,
            "average_result_path_hops": self.average_result_path_hops,
            "messages_dropped": self.messages_dropped,
            "queue_drops": self.queue_drops,
            "reoptimizations": self.reoptimizations,
            "join_nodes_used": self.join_nodes_used,
            "storage_tuples_peak": self.storage_tuples_peak,
            **self.extra,
        }


@dataclass
class ResultAccounting:
    """Counters every strategy updates while producing join results."""

    produced: int = 0
    delivered: int = 0
    total_delay_cycles: int = 0
    total_path_hops: int = 0

    def record(self, delivered: bool, delay_cycles: int, path_hops: int) -> None:
        self.produced += 1
        if delivered:
            self.delivered += 1
            self.total_delay_cycles += delay_cycles
            self.total_path_hops += path_hops

    @property
    def average_delay(self) -> float:
        return self.total_delay_cycles / self.delivered if self.delivered else 0.0

    @property
    def average_path_hops(self) -> float:
        return self.total_path_hops / self.delivered if self.delivered else 0.0


class JoinStrategy(ABC):
    """Base class for all join algorithms."""

    name: str = "abstract"

    def __init__(self) -> None:
        self.results = ResultAccounting()
        self.pair_states: Dict[Pair, JoinState] = {}
        self.storage_peak = 0

    # -- lifecycle -------------------------------------------------------------
    @abstractmethod
    def initiate(self, ctx: ExecutionContext) -> None:
        """Pre-computation: exploration, placement, nominations."""

    @abstractmethod
    def execute_cycle(self, ctx: ExecutionContext, cycle: int) -> None:
        """Run one sampling cycle: sample, ship, join, forward results."""

    def execute_cycle_batch(self, ctx: ExecutionContext, cycle: int, batcher) -> None:
        """Run one sampling cycle with charges batched through *batcher*.

        The default runs the strategy's own :meth:`execute_cycle` with
        :meth:`ExecutionContext.ship` captured by the batcher: delivery
        verdicts are identical (same RNG draw order), but all metric
        charges are deferred and emitted as one array-level pipeline event
        when the executor flushes the batcher.  Strategies with a wide
        same-shape fan-out (e.g. every producer shipping to the base) can
        override this with a vectorized ``ship_many`` formulation.
        """
        with ctx.captured_shipping(batcher):
            self.execute_cycle(ctx, cycle)

    def handle_failures(self, ctx: ExecutionContext, failed: List[int], cycle: int) -> None:
        """React to permanent node failures (default: nothing to do)."""

    # -- shared helpers ---------------------------------------------------------
    def _state_for(self, pair: Pair, window_size: int) -> JoinState:
        state = self.pair_states.get(pair)
        if state is None:
            state = JoinState(window_size=window_size, source_id=pair[0], target_id=pair[1])
            self.pair_states[pair] = state
        return state

    def _track_storage(self) -> None:
        total = 0
        for state in self.pair_states.values():
            total += state.buffered_tuple_count()
        if total > self.storage_peak:
            self.storage_peak = total

    def _probe_pair(
        self,
        ctx: ExecutionContext,
        pair: Pair,
        sample: ProducerSample,
        from_source: bool,
    ) -> int:
        """Insert a sample into a pair's window and count join results."""
        state = self._state_for(pair, ctx.query.window_size)
        results = state.probe(from_source, sample.as_windowed_tuple(), ctx.tuples_join)
        return len(results)

    def join_nodes_used(self) -> int:
        return 0
