"""Service-mode performance trajectory.

Times the three service-layer hot paths — query admission onto a warm
shared substrate, incremental group reoptimization under churn, and the
steady-state multi-query cycle rate at 32 concurrent queries — and records
them in ``bench-out/BENCH_service.json`` (gitignored; the tracked
``BENCH_service.json`` at the repo root is the history PRs compare against).
"""

import json
import platform
from pathlib import Path

import pytest

from repro.service.churn import churn_query
from repro.service.engine import ServiceConfig, ServiceEngine

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "bench-out" / "BENCH_service.json"
_RESULTS = {}

NUM_NODES = 120
CONCURRENCY = 32


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    """Persist the collected numbers after the module's benchmarks ran."""
    yield
    if not _RESULTS:
        return
    payload = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "num_nodes": NUM_NODES,
        "concurrency": CONCURRENCY,
        "benchmarks": _RESULTS,
    }
    _RESULTS_PATH.parent.mkdir(exist_ok=True)
    _RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _record(name, benchmark, **extra):
    stats = benchmark.stats.stats
    _RESULTS[name] = {
        "mean_s": stats.mean,
        "min_s": stats.min,
        "ops_per_s": 1.0 / stats.mean if stats.mean else None,
        **extra,
    }


def _engine(algorithm="innet-cmg"):
    return ServiceEngine(
        ServiceConfig(num_nodes=NUM_NODES, default_algorithm=algorithm)
    )


def _fill(engine, count, seed=7):
    ids = []
    for slot in range(count):
        name, sql = churn_query(slot, seed, NUM_NODES)
        ids.append(engine.submit(sql=sql, name=name)["query_id"])
    return ids


def test_perf_admission_throughput(benchmark):
    """Parse + initiate + incremental-GROUPOPT cost of one admission.

    Each round admits a fresh query onto a substrate already serving a
    32-query population (the worst case: every attach intersects the big
    cross-query groups).
    """
    engine = _engine()
    _fill(engine, CONCURRENCY)
    engine.step(2)
    slot = [CONCURRENCY]

    def admit():
        name, sql = churn_query(slot[0], 7, NUM_NODES)
        slot[0] += 1
        return engine.submit(sql=sql, name=name)["query_id"]

    assert benchmark(admit) > 0
    _record("admission_at_32_queries", benchmark)


def test_perf_churn_reoptimization(benchmark):
    """One cancel + one admit (the churn step), including group re-decisions."""
    engine = _engine()
    ids = _fill(engine, CONCURRENCY)
    engine.step(2)
    state = {"slot": CONCURRENCY, "ids": ids}

    def churn():
        state["ids"].append(state["ids"].pop(0))
        victim = state["ids"].pop(0)
        engine.cancel(victim)
        name, sql = churn_query(state["slot"], 7, NUM_NODES)
        state["slot"] += 1
        state["ids"].append(engine.submit(sql=sql, name=name)["query_id"])
        return engine.shared.reoptimizations

    benchmark(churn)
    summary = engine.reopt_summary()
    _record(
        "churn_step_at_32_queries",
        benchmark,
        reoptimizations=engine.shared.reoptimizations,
        reopt_latency_p50_hops=summary["reopt_latency_p50"],
        reopt_latency_p95_hops=summary["reopt_latency_p95"],
    )
    assert engine.shared.reoptimizations > 0


def test_perf_steady_state_cycle_rate(benchmark):
    """Sampling cycles per second with 32 concurrent shared queries."""
    engine = _engine()
    _fill(engine, CONCURRENCY)
    engine.step(2)  # warm caches and learning state

    def cycle():
        engine.step(1)
        return engine.cycle

    assert benchmark(cycle) > 0
    stats = engine.stats()
    _record(
        "cycle_at_32_queries",
        benchmark,
        cycles_per_s=(
            1.0 / benchmark.stats.stats.mean
            if benchmark.stats.stats.mean else None
        ),
        shared_savings_units=stats["shared_savings_units"],
    )
    assert stats["shared_savings_units"] > 0
