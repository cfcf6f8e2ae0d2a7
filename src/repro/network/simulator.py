"""Cycle-driven network simulator.

The paper's execution model has two nested time scales (Section 4.1): a
*sampling cycle* in which every eligible producer takes a reading, which
itself consists of many *transmission cycles* in which messages advance one
radio hop.  The simulator supports both

* **cycle-accurate transport** (:meth:`NetworkSimulator.send` followed by
  :meth:`step_transmission_cycle`), used when latency matters (Figures 6b and
  14a), and
* **instant accounting** (:meth:`NetworkSimulator.transfer`), which charges a
  whole path in one call and is used for the traffic-only experiments, where
  only byte/message counts matter.

Both paths share the same traffic statistics, link model and queue limits, so
an algorithm implemented against one is directly comparable with the other.
"""

from __future__ import annotations

import warnings
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.metrics.latency import LatencySink
from repro.metrics.pipeline import MetricsPipeline, MetricsSink
from repro.network.batch import PathBatch, PreparedPaths, _segment_outcomes
from repro.network.links import LinkModel, perfect_links
from repro.network.message import Message, MessageKind, MessageSizes
from repro.network.topology import Topology
from repro.network.traffic import TrafficAccounting, TrafficStats

DeliveryHandler = Callable[[int, Message], None]


@dataclass
class SimulationClock:
    """Simulation time: sampling cycles containing transmission cycles."""

    sampling_cycle: int = 0
    transmission_cycle: int = 0
    transmission_cycles_per_sample: int = 100

    @property
    def total_transmission_cycles(self) -> int:
        return (
            self.sampling_cycle * self.transmission_cycles_per_sample
            + self.transmission_cycle
        )

    def advance_transmission(self, count: int = 1) -> None:
        self.transmission_cycle += count
        while self.transmission_cycle >= self.transmission_cycles_per_sample:
            self.transmission_cycle -= self.transmission_cycles_per_sample
            self.sampling_cycle += 1

    def advance_sampling(self, count: int = 1) -> None:
        self.sampling_cycle += count
        self.transmission_cycle = 0


class NetworkSimulator:
    """Message-level simulator over a :class:`~repro.network.topology.Topology`.

    Parameters
    ----------
    topology:
        The deployment to simulate.
    link_model:
        Loss/retransmission model; defaults to perfect links.
    accounting:
        ``BYTES`` for mote networks, ``MESSAGES`` for 802.11 mesh networks.
    sizes:
        Byte-size model for the different message kinds.
    queue_capacity:
        Optional per-node forwarding-queue bound (messages per sampling
        cycle).  Used to reproduce the routing-queue overflow of Yang+07
        reported in Section 4.2.  ``None`` means unbounded.
    fast_transport:
        Enable the flyweight :meth:`transfer` fast path (batched link
        sampling plus one vectorized accounting call per path).  On by
        default; disable to force the per-hop reference implementation, e.g.
        for equivalence tests.  On perfect links both paths produce
        bit-identical traffic statistics.
    sinks:
        Additional :class:`~repro.metrics.pipeline.MetricsSink` instances
        registered on the metrics pipeline (energy, hotspot, ...).  The
        built-in :class:`~repro.network.traffic.TrafficStats` and the
        streaming :class:`~repro.metrics.latency.LatencySink` are always
        present; extra sinks are observers and never change traffic results.
    delivered_limit:
        Bound on the retained ``delivered`` / ``dropped`` message lists
        (oldest evicted first).  Latency statistics do not depend on the
        retained messages -- they accumulate streamingly in the latency
        sink -- so long runs stay O(1) in delivered-message memory.
    """

    def __init__(
        self,
        topology: Topology,
        link_model: Optional[LinkModel] = None,
        accounting: TrafficAccounting = TrafficAccounting.BYTES,
        sizes: Optional[MessageSizes] = None,
        transmission_cycles_per_sample: int = 100,
        queue_capacity: Optional[int] = None,
        fast_transport: bool = True,
        sinks: Optional[Sequence[MetricsSink]] = None,
        delivered_limit: int = 10_000,
    ) -> None:
        self.topology = topology
        self.links = link_model or perfect_links()
        self.fast_transport = fast_transport
        self.sizes = sizes or MessageSizes()
        self.stats = TrafficStats(accounting=accounting)
        self.latency = LatencySink()
        # Every charge point emits through the pipeline; the traffic stats
        # and the streaming latency accumulator are built-in, non-reporting
        # sinks (the execution report covers them already).
        self.pipeline = MetricsPipeline()
        self.pipeline.add_sink(self.stats, reporting=False)
        self.pipeline.add_sink(self.latency, reporting=False)
        self.clock = SimulationClock(
            transmission_cycles_per_sample=transmission_cycles_per_sample
        )
        self.queue_capacity = queue_capacity
        self._handlers: Dict[int, List[DeliveryHandler]] = defaultdict(list)
        self._default_handlers: List[DeliveryHandler] = []
        self._in_flight: Deque[Message] = deque()
        self.delivered: Deque[Message] = deque(maxlen=delivered_limit)
        self.dropped: Deque[Message] = deque(maxlen=delivered_limit)
        #: Whether the last run_until_idle hit max_cycles with messages still
        #: in flight (see :meth:`run_until_idle`).
        self.last_run_truncated = False
        # Per-sampling-cycle forwarding counters for queue enforcement in
        # instant-accounting mode.
        self._cycle_forwarded: Dict[int, int] = defaultdict(int)
        # Local mirror of the topology's alive set, refreshed per epoch, so
        # the transfer fast path skips the cache-property indirection.
        self._alive_epoch = -1
        self._alive_set: frozenset = frozenset()
        for sink in sinks or ():
            self.add_sink(sink)

    # ------------------------------------------------------------------
    # metrics pipeline
    # ------------------------------------------------------------------
    def add_sink(self, sink: MetricsSink) -> MetricsSink:
        """Register an additional metrics sink, binding it to this simulator.

        The charge points dispatch through ``self.pipeline``'s event
        attributes on every call (an instance-dict load, no dearer than the
        historical ``self.stats.charge_*`` bound-method lookup), so sinks
        added at any time -- here or directly on the pipeline -- observe all
        subsequent events; this wrapper additionally gives the sink its
        ``attach`` callback (topology, accounting mode).
        """
        attach = getattr(sink, "attach", None)
        if attach is not None:
            attach(self)
        self.pipeline.add_sink(sink)
        return sink

    def _current_alive_set(self) -> frozenset:
        topology = self.topology
        if topology.routing_epoch != self._alive_epoch:
            cache = topology.routing_cache
            self._alive_set = cache.alive_set
            self._alive_epoch = cache.epoch
        return self._alive_set

    # ------------------------------------------------------------------
    # handler registration
    # ------------------------------------------------------------------
    def register_handler(self, node_id: int, handler: DeliveryHandler) -> None:
        """Invoke *handler(node_id, message)* when a message reaches *node_id*."""
        if node_id not in self.topology.nodes:
            raise KeyError(f"unknown node {node_id}")
        self._handlers[node_id].append(handler)

    def register_default_handler(self, handler: DeliveryHandler) -> None:
        """Handler invoked for deliveries at nodes without a specific handler."""
        self._default_handlers.append(handler)

    def clear_handlers(self) -> None:
        self._handlers.clear()
        self._default_handlers.clear()

    # ------------------------------------------------------------------
    # instant accounting transport
    # ------------------------------------------------------------------
    def transfer(
        self,
        path: Sequence[int],
        size_bytes: int,
        kind: MessageKind = MessageKind.DATA,
        deliver: bool = False,
        payload: Optional[dict] = None,
    ) -> bool:
        """Charge a message travelling the whole *path* in one call.

        Every node except the last transmits once (plus retransmissions drawn
        from the link model).  Returns ``True`` if the message reached the end
        of the path, ``False`` if a hop failed or a queue overflowed.
        """
        num_hops = len(path) - 1
        if num_hops < 0:
            raise ValueError("path must contain at least one node")
        if num_hops == 0:
            return True
        # Flyweight fast path: when no per-hop queue bookkeeping is needed and
        # every node on the path is alive, the whole path is charged with one
        # vectorized accounting call (and, on lossy links, one batched draw
        # from the link model) instead of per-hop loop iterations.
        if self.fast_transport and self.queue_capacity is None:
            if self._current_alive_set().issuperset(path):
                if self.links.loss_probability == 0.0:
                    self.pipeline.charge_path(path, size_bytes, kind)
                else:
                    delivered, attempts = self.links.attempt_hops(num_hops)
                    if not delivered.all():
                        failed_at = int(np.argmax(~delivered))
                        self.pipeline.charge_path(
                            path, size_bytes, kind,
                            attempts=attempts, num_hops=failed_at + 1,
                        )
                        self.pipeline.charge_drop()
                        return False
                    self.pipeline.charge_path(path, size_bytes, kind, attempts=attempts)
                if deliver:
                    self._deliver_instant(path, size_bytes, kind, payload)
                return True
        for index in range(num_hops):
            sender = path[index]
            receiver = path[index + 1]
            if not self.topology.nodes[sender].alive or not self.topology.nodes[receiver].alive:
                self.pipeline.charge_drop()
                return False
            if index > 0 and not self._admit_to_queue(sender):
                self.pipeline.charge_drop(queue_drop=True)
                return False
            delivered_hop, attempts = self.links.attempt_hop()
            self.pipeline.charge_transmission(
                sender, size_bytes, kind, attempts=attempts, receiver=receiver
            )
            if not delivered_hop:
                self.pipeline.charge_drop()
                return False
        if deliver:
            self._deliver_instant(path, size_bytes, kind, payload)
        return True

    def prepare_paths(self, paths: Sequence[Sequence[int]]) -> PreparedPaths:
        """Pre-flatten *paths* for repeated :meth:`transfer_many` calls.

        Preparation hoists the per-path Python work (hop slicing, per-node
        hop counts) out of the hot loop: a prepared perfect-links transfer
        charges the whole set with two cached-``bincount`` vector adds.
        """
        nodes = self.topology.nodes
        minlength = (max(nodes) + 1) if nodes else 0
        return PreparedPaths(paths, minlength=minlength)

    def transfer_many(
        self,
        paths: "Sequence[Sequence[int]] | PreparedPaths",
        size_bytes: int,
        kind: MessageKind = MessageKind.DATA,
    ) -> np.ndarray:
        """Charge many same-size, same-kind paths in one vectorized call.

        Returns the per-path delivered flags.  Bit-identical -- traffic
        statistics *and* consumed RNG stream -- to calling :meth:`transfer`
        once per path in order: on lossy links the single
        :meth:`~repro.network.links.LinkModel.attempt_hops_batch` draw equals
        the per-path ``attempt_hops`` draws, and the aggregated charges sum
        the same integer-valued units.  When the fast-path conditions do not
        hold (per-hop queue bookkeeping, dead nodes on any path), every path
        falls back to the per-tuple reference implementation.
        """
        prepared = (
            paths if isinstance(paths, PreparedPaths)
            else self.prepare_paths(paths)
        )
        if not (
            self.fast_transport
            and self.queue_capacity is None
            and self._current_alive_set().issuperset(prepared.node_set)
        ):
            return np.fromiter(
                (self.transfer(path, size_bytes, kind)
                 for path in prepared.paths),
                count=prepared.n, dtype=bool,
            )
        if self.links.loss_probability == 0.0:
            if prepared.total_hops:
                self.pipeline.charge_paths_batch(
                    PathBatch.from_prepared(prepared, size_bytes, kind)
                )
            return np.ones(prepared.n, dtype=bool)
        delivered_hops, attempts = self.links.attempt_hops_batch(prepared.lens)
        delivered, charged, _starts = _segment_outcomes(
            prepared.lens, delivered_hops
        )
        if prepared.total_hops:
            self.pipeline.charge_paths_batch(
                PathBatch.from_prepared_lossy(
                    prepared, size_bytes, kind, attempts, delivered, charged
                )
            )
        out = np.ones(prepared.n, dtype=bool)
        out[prepared.active] = delivered
        return out

    def _deliver_instant(
        self,
        path: Sequence[int],
        size_bytes: int,
        kind: MessageKind,
        payload: Optional[dict],
    ) -> None:
        message = Message(
            kind=kind,
            source=path[0],
            destination=path[-1],
            size_bytes=size_bytes,
            payload=payload or {},
            path=list(path),
            created_cycle=self.clock.total_transmission_cycles,
        )
        message.hops_taken = len(path) - 1
        message.delivered_cycle = self.clock.total_transmission_cycles
        self._deliver(message)

    def broadcast(
        self, node_id: int, size_bytes: int, kind: MessageKind = MessageKind.CONTROL
    ) -> List[int]:
        """One local broadcast: a single transmission heard by all neighbours.

        Only *alive* neighbours are charged received traffic: dead nodes have
        no radio, so they must not accumulate load (the cached alive adjacency
        is epoch-validated, so this holds after failures and mobility too).
        """
        if not self.topology.nodes[node_id].alive:
            return []
        neighbours = self.topology.routing_cache.alive_adjacency.get(node_id, [])
        self.pipeline.charge_broadcast(node_id, size_bytes, kind, neighbours)
        return list(neighbours)

    def flood(
        self, origin: int, size_bytes: int, kind: MessageKind = MessageKind.CONTROL
    ) -> int:
        """Network-wide flood (query dissemination): every node broadcasts once."""
        visited = set()
        frontier = [origin]
        transmissions = 0
        alive_adjacency = self.topology.routing_cache.alive_adjacency
        while frontier:
            next_frontier: List[int] = []
            queued = set()  # dedupe: large topologies otherwise rescan nodes
            for node_id in frontier:
                if node_id in visited or not self.topology.nodes[node_id].alive:
                    continue
                visited.add(node_id)
                self.broadcast(node_id, size_bytes, kind)
                transmissions += 1
                for neighbour in alive_adjacency.get(node_id, ()):
                    if neighbour not in visited and neighbour not in queued:
                        queued.add(neighbour)
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return transmissions

    # ------------------------------------------------------------------
    # cycle-accurate transport
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Inject a message that will advance one hop per transmission cycle."""
        if message.path is None:
            raise ValueError("cycle-accurate send requires an explicit path")
        message.created_cycle = self.clock.total_transmission_cycles
        if len(message.path) == 1:
            message.delivered_cycle = message.created_cycle
            self._deliver(message)
            return
        self._in_flight.append(message)

    def step_transmission_cycle(self) -> None:
        """Advance every in-flight message by one hop."""
        self.clock.advance_transmission()
        still_flying: Deque[Message] = deque()
        while self._in_flight:
            message = self._in_flight.popleft()
            sender = message.path[message.hops_taken]
            receiver = message.path[message.hops_taken + 1]
            if (
                not self.topology.nodes[sender].alive
                or not self.topology.nodes[receiver].alive
            ):
                message.dropped = True
                self.pipeline.charge_drop()
                self.dropped.append(message)
                continue
            if message.hops_taken > 0 and not self._admit_to_queue(sender):
                message.dropped = True
                self.pipeline.charge_drop(queue_drop=True)
                self.dropped.append(message)
                continue
            delivered_hop, attempts = self.links.attempt_hop()
            self.pipeline.charge_transmission(
                sender, message.size_bytes, message.kind,
                attempts=attempts, receiver=receiver,
            )
            if not delivered_hop:
                message.dropped = True
                self.pipeline.charge_drop()
                self.dropped.append(message)
                continue
            message.hops_taken += 1
            if message.hops_taken >= len(message.path) - 1:
                message.delivered_cycle = self.clock.total_transmission_cycles
                self._deliver(message)
            else:
                still_flying.append(message)
        self._in_flight = still_flying

    def run_transmission_cycles(self, count: int) -> None:
        for _ in range(count):
            self.step_transmission_cycle()

    def run_until_idle(self, max_cycles: int = 10_000) -> int:
        """Step until no messages are in flight; returns cycles consumed.

        If *max_cycles* elapses with messages still in flight the run is
        **truncated**: ``last_run_truncated`` is set and a ``RuntimeWarning``
        names the number of stranded messages, so callers cannot mistake a
        cycle-budget exhaustion for a quiesced network.
        """
        cycles = 0
        while self._in_flight and cycles < max_cycles:
            self.step_transmission_cycle()
            cycles += 1
        self.last_run_truncated = bool(self._in_flight)
        if self.last_run_truncated:
            warnings.warn(
                f"run_until_idle stopped after {max_cycles} transmission "
                f"cycles with {len(self._in_flight)} message(s) still in "
                "flight; results under-count the remaining traffic",
                RuntimeWarning,
                stacklevel=2,
            )
        return cycles

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    # ------------------------------------------------------------------
    # sampling-cycle bookkeeping
    # ------------------------------------------------------------------
    def advance_sampling_cycle(self) -> None:
        """Move to the next sampling cycle and reset per-cycle queue counters."""
        self.clock.advance_sampling()
        self._cycle_forwarded.clear()
        self.pipeline.on_sampling_cycle(self.clock.sampling_cycle)

    def average_delivery_latency(
        self, kinds: Optional[Iterable[MessageKind]] = None
    ) -> float:
        """Mean latency (in transmission cycles) of delivered messages.

        Served by the streaming latency sink -- exact (integer latencies sum
        exactly) and independent of the bounded ``delivered`` list, so the
        mean covers every delivery of the run, not just the retained tail.
        """
        return self.latency.mean(kinds)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _admit_to_queue(self, node_id: int) -> bool:
        if self.queue_capacity is None:
            return True
        if self._cycle_forwarded[node_id] >= self.queue_capacity:
            return False
        self._cycle_forwarded[node_id] += 1
        return True

    def _deliver(self, message: Message) -> None:
        self.delivered.append(message)
        latency = message.latency_cycles
        self.pipeline.on_delivery(
            message.kind, latency if latency is not None else 0,
            message.hops_taken,
        )
        destination = message.destination if message.destination is not None else message.current_node()
        handlers = self._handlers.get(destination)
        if handlers:
            for handler in handlers:
                handler(destination, message)
        else:
            for handler in self._default_handlers:
                handler(destination, message)
