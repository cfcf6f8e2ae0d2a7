"""ServiceEngine: admission, cancellation, stepping and live events."""

import pytest

from repro.query.parser import QueryParseError
from repro.service.engine import ServiceConfig, ServiceEngine

SQL = (
    "SELECT S.id, T.id FROM S, T [windowsize=2 sampleinterval=100] "
    "WHERE S.id < 10 AND T.id > 30 AND S.adc0 < 500 AND T.adc0 < 500 "
    "AND S.u = T.u"
)


@pytest.fixture()
def engine():
    return ServiceEngine(ServiceConfig(num_nodes=40))


class TestAdmission:
    def test_submit_step_cancel_lifecycle(self, engine):
        admitted = engine.submit(sql=SQL, name="q-life")
        assert admitted["query_id"] == 1
        assert admitted["initiation_traffic"] > 0
        engine.step(5)
        assert engine.cycle == 5
        status = engine.query_status(1)
        assert status["active"] is True
        assert status["attached_cycle"] == 0
        cancelled = engine.cancel(1)
        assert cancelled["cancelled_at_cycle"] == 5
        assert engine.query_status(1)["active"] is False
        assert engine.admitted == 1
        assert engine.cancelled == 1

    def test_submit_registered_query_name(self, engine):
        admitted = engine.submit(name="query1", algorithm="innet-cm")
        assert admitted["name"] == "query1"
        assert admitted["algorithm"] == "innet-cm"

    def test_submit_requires_sql_or_name(self, engine):
        with pytest.raises(QueryParseError):
            engine.submit()

    def test_cancel_unknown_query_raises(self, engine):
        with pytest.raises(KeyError):
            engine.cancel(99)

    def test_peak_concurrency_tracks_maximum(self, engine):
        first = engine.submit(sql=SQL, name="q-a")
        engine.submit(sql=SQL, name="q-b")
        engine.cancel(first["query_id"])
        engine.submit(sql=SQL, name="q-c")
        assert engine.peak_concurrency == 2
        assert engine.shared.active_count == 2

    def test_status_and_stats_shape(self, engine):
        engine.submit(sql=SQL, name="q-s")
        engine.step(3)
        status = engine.status()
        assert status["num_nodes"] == 40
        assert status["active_queries"] == 1
        assert len(status["queries"]) == 1
        stats = engine.stats()
        for key in (
            "cycle", "total_traffic", "base_traffic", "max_node_load",
            "shared_savings_units", "independent_traffic_estimate",
            "reoptimizations", "reopt_latency_p50", "admitted",
            "peak_concurrency",
        ):
            assert key in stats
        assert stats["total_traffic"] > 0


class TestLiveEvents:
    def test_fail_event_kills_node(self, engine):
        engine.submit(sql=SQL, name="q-f")
        victim = 17
        result = engine.apply_event(
            {"type": "fail", "node": victim, "in_cycles": 2}
        )
        assert result == {"event": "fail", "node": victim, "at_cycle": 2}
        engine.step(4)
        assert not engine.topology.nodes[victim].alive
        assert engine.events_applied == 1

    def test_move_event_relocates_node(self, engine):
        result = engine.apply_event({"type": "move", "node": 5, "radius": 0.3})
        assert result["event"] == "move"
        assert result["moved"] >= 1

    def test_drift_event_switches_data_source(self, engine):
        engine.submit(sql=SQL, name="q-d")
        engine.step(2)
        result = engine.apply_event({"type": "drift", "sigma_st": 0.05})
        assert result["switch_cycle"] == 2
        assert engine.data_source.switched is not None
        assert engine.data_source.switched.sigma_st == 0.05
        engine.step(2)  # keeps running on the drifted distribution

    def test_unknown_event_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.apply_event({"type": "reboot"})


class TestAdmissionAfterFailure:
    """Queries admitted after a producer died plan it out and still run."""

    def test_submit_after_producer_death(self):
        from repro.service.churn import churn_query

        engine = ServiceEngine(ServiceConfig(
            num_nodes=60, seed=0, default_algorithm="innet-cmg",
        ))
        name, sql = churn_query(0, 7, 60)
        engine.submit(sql=sql, name=name)
        engine.step(1)
        engine.apply_event({"type": "fail", "node": 5})
        engine.step(1)
        name, sql = churn_query(3, 7, 60)
        admitted = engine.submit(sql=sql, name=name)
        session = engine.shared.session(admitted["query_id"])
        pairs = session.strategy.plan.pairs()
        assert pairs
        assert all(5 not in pair for pair in pairs)
        # later admissions and cycles keep working
        for slot in (4, 5):
            name, sql = churn_query(slot, 7, 60)
            engine.submit(sql=sql, name=name)
            engine.step(2)
        assert engine.admitted == 4
        assert engine.stats()["total_traffic"] > 0


class TestRecoveryCost:
    """A K-pair recovery rebuilds every tree once, then two per pair."""

    def test_multicast_rebuilds_bounded_by_pairs(self, monkeypatch):
        from repro.joins import innet
        from repro.service.churn import churn_query

        built = [0]
        original_build = innet.build_multicast_tree

        def counting_build(*args, **kwargs):
            built[0] += 1
            return original_build(*args, **kwargs)

        recoveries = []
        original_finish = innet.InnetJoin._finish_recoveries

        def finish(self, ctx, cycle, produced_at):
            pairs = sum(1 for until in self._recovering.values() if until <= cycle)
            before = built[0]
            original_finish(self, ctx, cycle, produced_at)
            if pairs:
                recoveries.append((pairs, len(self._pairs_of), built[0] - before))

        monkeypatch.setattr(innet, "build_multicast_tree", counting_build)
        monkeypatch.setattr(innet.InnetJoin, "_finish_recoveries", finish)
        engine = ServiceEngine(ServiceConfig(
            num_nodes=60, seed=0, default_algorithm="innet-cmg",
        ))
        for slot in range(8):
            name, sql = churn_query(slot, 7, 60)
            engine.submit(sql=sql, name=name)
        engine.step(1)
        engine.apply_event({"type": "fail", "node": 21})  # a busy relay
        engine.step(8)
        assert sum(pairs for pairs, _, _ in recoveries) >= 50
        for pairs, producers, calls in recoveries:
            assert calls <= producers + 2 * (pairs - 1)
