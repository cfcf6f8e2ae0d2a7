"""The three benchmark workloads and the probes that time them.

Each workload has a timed ``setup`` and a ``run_pass`` that executes one
whole unit of work on the state the set-up made and returns a digest of
every simulated statistic it produced.  A pass is deterministic in the
seed, so every pass of a run must give the same digest.

* ``paper-campaign``: the serial campaign of ``fig02``, ``fig14`` and
  ``lifetime-under-load`` at ``default`` scale into a fresh SQLite store.
  One op is one RunSpec.  Workload caches are reset per pass, so every pass
  pays what a fresh ``run-campaign`` process pays.
* ``city-initiation``: one ``scale``-preset substrate (30k nodes, seed 0)
  with the keyed Query 0; a pass runs ``base``, ``ght``, ``dht`` and ``innet-cmg``,
  each as a fresh ``JoinExecutor`` (initiation plus a short run).  One op
  is one strategy run.
* ``service-churn``: a fixed churn trace (seed 7) replayed through
  ``ServiceDaemon.handle`` in-process (closed loop, one client): 32
  concurrent ``innet-cmg`` queries on 120 nodes with cancel/submit churn and
  one live node failure.  One op is one ``submit`` request.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

_clock = time.perf_counter

DEFAULT_SEED = 0

#: seeds the service's churn trace and query pool; see ServiceChurn
POOL_SEED = 7


class Workload:
    """Shared shape: ``setup`` -> state, ``run_pass(state)`` -> digest."""

    name = ""
    #: whether one set-up serves every pass (else each pass sets up anew)
    reusable = False

    @staticmethod
    def span(name: str):
        """Replaced by the tracer's span opener in a traced run."""
        return contextlib.nullcontext()


@dataclass
class Recorder:
    """What the end-to-end metrics are computed from."""

    setup_s: List[float] = field(default_factory=list)
    op_s: List[float] = field(default_factory=list)
    cycle_s: List[float] = field(default_factory=list)
    init_s: List[float] = field(default_factory=list)   # one per initiation
    #: per pass: the slices of the three lists above it filled
    passes: List[Dict[str, List[float]]] = field(default_factory=list)
    pass_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount


def digest_of(payload: Any) -> str:
    """sha256 of a canonical JSON rendering (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def check_report(rec: Recorder, label: str, report) -> None:
    """Conservation laws every join report must satisfy."""
    by_kind = sum(report.traffic_by_kind.values())
    rec.check(_close(by_kind, report.total_traffic),
              f"{label}: per-node transmissions {report.total_traffic} != "
              f"per-kind traffic {by_kind}")
    rec.check(report.results_delivered <= report.results_produced,
              f"{label}: delivered {report.results_delivered} > produced "
              f"{report.results_produced}")


def check_service(rec: Recorder, stats: Dict[str, Any], status: Dict[str, Any],
                  accepted: Dict[str, int], by_kind: float) -> None:
    """Invariants of a replayed service trace.

    *stats* and *status* are the final replies, *accepted* the submits and
    cancels the client saw succeed, *by_kind* the simulator's per-kind sum.
    """
    total = stats.get("total_traffic", -1.0)
    rec.check(stats.get("admitted") == accepted["submit"]
              and stats.get("cancelled") == accepted["cancel"]
              and status.get("active_queries") == accepted["submit"] - accepted["cancel"],
              f"engine counts {stats.get('admitted')} admitted, "
              f"{stats.get('cancelled')} cancelled, {status.get('active_queries')} "
              f"active; the client saw {accepted}")
    rec.check(_close(by_kind, total), f"per-node transmissions {total} != "
              f"per-kind traffic {by_kind}")
    initiation = sum(q["initiation_traffic"] for q in status.get("queries", ()))
    rec.check(initiation <= total * (1 + 1e-9),
              f"per-query initiation traffic {initiation} exceeds the "
              f"substrate's total {total}")
    rec.check((stats.get("shared_savings_units", 0.0) > 0)
              == (stats.get("deduped_shipments", 0) > 0),
              "shared savings without deduped shipments, or the reverse")
    for query in status.get("queries", ()):
        rec.check(query["results_delivered"] <= query["results_produced"],
                  f"query {query['query_id']}: delivered > produced")


# ---------------------------------------------------------------------------
# probes: the few wrappers the end-to-end metrics need
# ---------------------------------------------------------------------------


def strategy_classes() -> List[type]:
    """Every loaded JoinStrategy class that defines its own ``initiate``."""
    from repro.engine.registry import load_experiment_registrations
    from repro.joins.base import JoinStrategy

    load_experiment_registrations()
    found, todo = [], [JoinStrategy]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not JoinStrategy and "initiate" in cls.__dict__:
            found.append(cls)
    return found


def install_probes(patcher, rec: Recorder) -> None:
    """Time executor cycles and strategy initiation (outermost call only)."""
    from repro.joins.executor import JoinExecutor

    def time_cycles(step_cycle: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            started = _clock()
            try:
                return step_cycle(*args, **kwargs)
            finally:
                rec.cycle_s.append(_clock() - started)
        return wrapper

    depth = [0]

    def time_initiation(initiate: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if depth[0]:
                return initiate(*args, **kwargs)
            depth[0] += 1
            started = _clock()
            try:
                return initiate(*args, **kwargs)
            finally:
                rec.init_s.append(_clock() - started)
                depth[0] -= 1
        return wrapper

    patcher.patch(JoinExecutor, "step_cycle", time_cycles)
    for cls in strategy_classes():
        patcher.patch(cls, "initiate", time_initiation)


# ---------------------------------------------------------------------------
# paper-campaign
# ---------------------------------------------------------------------------


class PaperCampaign(Workload):
    name = "paper-campaign"
    reusable = False
    SCENARIOS = ("fig02", "fig14", "lifetime-under-load")

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.scale_name = "default" if size == "full" else "smoke"
        self.workdir = workdir

    def setup(self) -> Dict[str, Any]:
        from repro.engine.runner import SweepRunner
        from repro.engine.spec import SCALES
        from repro.engine.store import ResultStore
        from repro.engine.workload import reset_workload_caches
        from repro.experiments.scenarios import resolve_scenario

        reset_workload_caches()
        scale = SCALES[self.scale_name]
        scenarios = [
            # the deployment stays the scenario's own: on these 100-node
            # topologies the topology seed alone moves a pass's cost by
            # up to 1.7x, wider than any bound a seed-to-seed spread allows
            resolve_scenario(name).with_overrides(
                seed_base=self.seed, workload_seed_base=100 + self.seed,
            )
            for name in self.SCENARIOS
        ]
        expected = {s.name: len(s.expand(scale)) for s in scenarios}
        directory = Path(tempfile.mkdtemp(prefix="campaign-", dir=self.workdir))
        store = ResultStore(directory / "results.sqlite")
        runner = SweepRunner(jobs=1, store=store)
        return {"scale": scale, "scenarios": scenarios, "expected": expected,
                "store": store, "runner": runner, "directory": directory}

    def teardown(self, state: Dict[str, Any]) -> None:
        state["store"].close()
        shutil.rmtree(state["directory"], ignore_errors=True)

    def run_pass(self, state: Dict[str, Any], rec: Recorder) -> str:
        from repro.engine.store import report_to_dict

        runner, store = state["runner"], state["store"]
        last = [0.0]

        def progress(done, total, spec) -> None:
            now = _clock()
            rec.op_s.append(now - last[0])
            last[0] = now

        runner.progress = progress
        payload: List[Any] = []
        try:
            for scenario in state["scenarios"]:
                expected = state["expected"][scenario.name]
                rec.attempted += expected
                before = len(rec.op_s)
                last[0] = _clock()
                try:
                    sweep = runner.run(scenario, state["scale"])
                except Exception as error:  # one broken scenario, keep going
                    rec.failed += expected - (len(rec.op_s) - before)
                    rec.problems.append(f"{scenario.name}: {error!r}")
                    continue
                rows = store.scenario_run_count(scenario.name)
                rec.check(rows == expected,
                          f"{scenario.name}: {rows} store rows for "
                          f"{expected} RunSpecs")
                for group in sweep.groups:
                    for label, aggregate in group.aggregates.items():
                        for run in aggregate.runs:
                            check_report(rec, f"{scenario.name}/{label}", run.report)
                            rec.count("results.produced", run.report.results_produced)
                            rec.count("results.delivered", run.report.results_delivered)
                            payload.append([scenario.name, group.setting, label,
                                            run.seed, report_to_dict(run.report)])
                payload.append([scenario.name, "rows", rows])
            rec.count("store.node_metric_rows", store.node_metrics_count())
        finally:
            self.teardown(state)
        return digest_of(payload)


# ---------------------------------------------------------------------------
# city-initiation
# ---------------------------------------------------------------------------


class CityInitiation(Workload):
    name = "city-initiation"
    reusable = True
    STRATEGIES = ("base", "ght", "dht", "innet-cmg")

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.num_nodes = 30_000 if size == "full" else 2_000
        self.cycles = 100 if size == "full" else 20

    def setup(self) -> Dict[str, Any]:
        from repro.engine.workload import build_topology
        from repro.routing.tree import RoutingTree

        # the deployment stays seed 0's: on 30k-node substrates the
        # topology seed alone moves innet-cmg's initiation peak memory by
        # a fifth; the query, data and executor seeds follow the seed
        topology = build_topology(None, preset="scale", seed=0,
                                  num_nodes=self.num_nodes, fresh=True)
        with self.span("routing.build"):
            cache = topology.routing_cache.validate()
            RoutingTree(topology)
            if cache.array_mode:
                cache.landmark_tables()
        return {"topology": topology}

    def teardown(self, state: Dict[str, Any]) -> None:
        state.clear()

    def run_pass(self, state: Dict[str, Any], rec: Recorder) -> str:
        from repro.engine.registry import make_query, make_strategy
        from repro.engine.store import report_to_dict
        from repro.engine.workload import build_workload
        from repro.joins import JoinExecutor
        from repro.workloads.selectivity import selectivities_for_ratio

        topology = state["topology"]
        selectivities = selectivities_for_ratio("1/2:1/2", 0.2)
        query = make_query("query0-keyed", topology=topology, seed=self.seed)
        # a fresh data source per pass: its per-cycle sample memo would
        # otherwise make every pass after the first cheaper
        data_source = build_workload(topology, query, selectivities,
                                     seed=100 + self.seed)
        payload: List[Any] = []
        for algorithm in self.STRATEGIES:
            rec.attempted += 1
            started = _clock()
            try:
                executor = JoinExecutor(query, topology, data_source,
                                        make_strategy(algorithm), selectivities,
                                        seed=self.seed)
                executor.initiate()
                for cycle in range(self.cycles):
                    executor.step_cycle(cycle)
                report = executor.report(self.cycles)
            except Exception as error:
                rec.fail(f"{algorithm}: {error!r}")
                continue
            rec.op_s.append(_clock() - started)
            check_report(rec, algorithm, report)
            rec.count("results.produced", report.results_produced)
            rec.count("results.delivered", report.results_delivered)
            payload.append([algorithm, report_to_dict(report)])
        return digest_of(payload)


# ---------------------------------------------------------------------------
# service-churn
# ---------------------------------------------------------------------------


class ServiceChurn(Workload):
    name = "service-churn"
    reusable = False

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        full = size == "full"
        self.num_nodes = 120 if full else 60
        self.queries = 32 if full else 8
        # 100 cycles: the cycle percentiles need 100 samples per pass
        self.cycles = 100 if full else 12
        self.churn_interval = 5 if full else 4
        self.churn_count = 4 if full else 2
        # A relay that keeps the field connected, and whose failure makes
        # the live queries recover: at cycle 50 of the full trace, failing
        # node 31 rebuilds about 570 pairs' delivery trees over the next
        # cycles (about 1 s), where most relays cost nothing and a few cost
        # over 10 s (see README, "Known program defects").
        self.victim = 31 if full else 21

    def setup(self) -> Any:
        from repro.service.daemon import ServiceDaemon
        from repro.service.engine import ServiceConfig

        return ServiceDaemon(ServiceConfig(
            num_nodes=self.num_nodes, seed=self.seed,
            default_algorithm="innet-cmg",
        ))

    def teardown(self, daemon) -> None:
        daemon.stop()

    def requests(self) -> List[Tuple[int, Dict[str, Any]]]:
        """The replayed request list: ``(cycle, request)`` in send order."""
        from repro.service.churn import build_churn_trace, churn_query, events_by_cycle

        trace = events_by_cycle(build_churn_trace(
            seed=POOL_SEED, cycles=self.cycles, target=self.queries,
            churn_interval=self.churn_interval, churn_count=self.churn_count,
        ))
        # The trace, the query pool and the victim do not follow the seed:
        # which queries overlap decides how many admissions pay a large
        # GROUPOPT merge, and which relay fails decides the recovery cost,
        # so either would swing the cost from seed to seed (see README).
        fail_cycle = self.cycles // 2
        out: List[Tuple[int, Dict[str, Any]]] = []
        for cycle in range(self.cycles):
            if cycle == fail_cycle:
                out.append((cycle, {"op": "event",
                                    "event": {"type": "fail", "node": self.victim}}))
            for event in trace.get(cycle, ()):
                if event.action == "cancel":
                    out.append((cycle, {"op": "cancel", "slot": event.slot}))
                else:
                    name, sql = churn_query(event.slot, POOL_SEED, self.num_nodes)
                    out.append((cycle, {"op": "submit", "sql": sql, "query": name,
                                        "slot": event.slot}))
            out.append((cycle, {"op": "step", "cycles": 1}))
        out.append((self.cycles, {"op": "stats"}))
        out.append((self.cycles, {"op": "status"}))
        return out

    def run_pass(self, daemon, rec: Recorder) -> str:
        handle = daemon.handle
        slot_to_query: Dict[int, int] = {}
        replies: List[Any] = []
        accepted = {"submit": 0, "cancel": 0}
        try:
            for _cycle, request in self.requests():
                request = dict(request)
                slot = request.pop("slot", None)
                if request["op"] == "cancel":
                    request["query_id"] = slot_to_query.pop(slot, -1)
                rec.attempted += 1
                started = _clock()
                reply = handle(request)
                elapsed = _clock() - started
                if request["op"] == "submit":
                    rec.op_s.append(elapsed)
                    slot_to_query[slot] = reply.get("query_id", -1)
                elif request["op"] == "step":
                    rec.cycle_s.append(elapsed)
                if not reply.get("ok"):
                    rec.fail(f"{request['op']}: {reply.get('error')}")
                elif request["op"] in accepted:
                    accepted[request["op"]] += 1
                replies.append(reply)
            stats, status = replies[-2], replies[-1]
            simulator = daemon.engine.shared.simulator
            by_kind = sum(simulator.stats.traffic_by_kind().values())
            check_service(rec, stats, status, accepted, by_kind)
            for query in status.get("queries", ()):
                rec.count("results.produced", query["results_produced"])
                rec.count("results.delivered", query["results_delivered"])
            rec.count("share.deduped", daemon.engine.shared.deduped_shipments)
        finally:
            self.teardown(daemon)
        return digest_of(replies)


WORKLOADS = {cls.name: cls for cls in (PaperCampaign, CityInitiation, ServiceChurn)}
