"""Self-tests of the benchmark: contract, smoke workloads, gate, arithmetic.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests

Workload runs go through subprocesses so their wrappers never touch the
interpreter that runs the rest of a test session.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import Tracer, layer_times  # noqa: E402
from workloads import Recorder, check_report, check_service  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_metrics_the_code_emits():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def _smoke(workload, trace):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--size", "smoke",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_workload_emits_every_metric_with_its_unit(workload, trace):
    lines = _smoke(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        spans = ROOT / next(line.split(" to ", 1)[1] for line in lines
                            if line.startswith("spans written to "))
        assert json.loads(spans.read_text())


def test_perturbed_digest_trips_the_gate(tmp_path, monkeypatch):
    recorded = json.loads(run.DIGESTS_FILE.read_text())
    digest = recorded["service-churn"]["smoke"]
    perturbed = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    recorded["service-churn"]["smoke"] = perturbed
    fake = tmp_path / "digests.json"
    fake.write_text(json.dumps(recorded))

    rec = Recorder(digests=[digest])
    run.verify_digests(rec, "service-churn", "smoke", run.DEFAULT_SEED)
    assert rec.failed == 0

    monkeypatch.setattr(run, "DIGESTS_FILE", fake)
    rec = Recorder(digests=[digest])
    run.verify_digests(rec, "service-churn", "smoke", run.DEFAULT_SEED)
    assert rec.failed == 1 and "recorded" in rec.problems[0]

    # passes of one run that disagree trip it on any seed
    rec = Recorder(digests=[digest, perturbed])
    run.verify_digests(rec, "service-churn", "smoke", run.DEFAULT_SEED + 1)
    assert rec.failed == 1


def test_broken_invariant_counts_as_a_failed_op():
    class Report:
        total_traffic = 10.0
        traffic_by_kind = {"data": 7.0, "control": 3.0}
        results_produced = 5
        results_delivered = 5

    rec = Recorder()
    check_report(rec, "ok", Report())
    assert rec.failed == 0
    Report.results_delivered = 6
    Report.traffic_by_kind = {"data": 7.0}
    check_report(rec, "broken", Report())
    assert rec.failed == 2


def test_broken_service_invariant_counts_as_a_failed_op():
    stats = {"admitted": 3, "cancelled": 1, "total_traffic": 100.0,
             "shared_savings_units": 12.0, "deduped_shipments": 4}
    status = {"active_queries": 2, "queries": [
        {"query_id": 1, "initiation_traffic": 30.0, "results_produced": 5,
         "results_delivered": 5},
        {"query_id": 2, "initiation_traffic": 20.0, "results_produced": 5,
         "results_delivered": 4}]}
    accepted = {"submit": 3, "cancel": 1}
    rec = Recorder()
    check_service(rec, stats, status, accepted, by_kind=100.0)
    assert rec.failed == 0, rec.problems
    # each of these breaks one invariant
    for change in ({"accepted": {"submit": 4, "cancel": 1}}, {"by_kind": 90.0},
                   {"stats": dict(stats, deduped_shipments=0)},
                   {"stats": dict(stats, total_traffic=40.0), "by_kind": 40.0},
                   {"status": dict(status, queries=[dict(status["queries"][0],
                                                         results_delivered=6)])}):
        args = dict(stats=stats, status=status, accepted=accepted, by_kind=100.0)
        args.update(change)
        rec = Recorder()
        check_service(rec, **args)
        assert rec.failed == 1, change


def test_self_time_on_synthetic_nested_spans():
    # name, start, end, parent: A(0-100) > B(10-40) > C(20-30); A > D(50-60);
    # a second root E(200-250); another C outside any span (260-270)
    spans = [["A", 0, 100, -1], ["B", 10, 40, 0], ["C", 20, 30, 1],
             ["D", 50, 60, 0], ["E", 200, 250, -1], ["C", 260, 270, -1]]
    layers, untraced = layer_times(spans, wall_ns=300)
    ns = 1e-9
    assert layers["A"]["self_s"] == pytest.approx(60 * ns)
    assert layers["B"]["self_s"] == pytest.approx(20 * ns)
    assert layers["C"]["self_s"] == pytest.approx(20 * ns)
    assert layers["C"]["calls"] == 2
    assert layers["D"]["self_s"] == pytest.approx(10 * ns)
    assert layers["E"]["total_s"] == pytest.approx(50 * ns)
    assert untraced == pytest.approx(140 * ns)
    total_self = sum(entry["self_s"] for entry in layers.values())
    assert total_self + untraced == pytest.approx(300 * ns)


def test_tracer_records_the_call_tree():
    tracer = Tracer()
    leaf = tracer.timed("leaf")(lambda: None)
    outer = tracer.timed("outer", outermost=True)

    @outer
    def parent(depth):
        leaf()
        if depth:
            parent(depth - 1)  # nested call of the same layer: no new span

    parent(1)                  # inactive: nothing recorded
    assert tracer.spans == []
    tracer.start()
    parent(2)
    with tracer.open("block"):
        leaf()
    tracer.stop()
    names = [(name, parent_index) for name, _s, _e, parent_index in tracer.spans]
    assert names == [("outer", -1), ("leaf", 0), ("leaf", 0), ("leaf", 0),
                     ("block", -1), ("leaf", 4)]
    layers, untraced = layer_times(tracer.spans, tracer.stopped_ns - tracer.started_ns)
    assert untraced >= 0
    assert all(entry["self_s"] >= 0 for entry in layers.values())


def _record(workload, seed, value, digest="d", trace=0):
    return {"workload": workload, "seed": seed, "size": "full", "trace": trace,
            "digest": digest, "result": {"correct": True, "attempted": 1, "failed": 0,
                                         "metrics": {"x": {"value": value, "unit": "s"}}}}


def test_compare_verdicts():
    parent = [(seed, 1.0 + 0.01 * seed) for seed in range(10)]
    same = compare.verdict(parent, parent, "lower", 0.1)
    assert same["verdict"] == "same" and same["won"] == 0.0
    worse = compare.verdict(parent, [(s, v * 1.3) for s, v in parent], "lower", 0.1)
    assert worse["verdict"] == "worse"
    better = compare.verdict(parent, [(s, v * 0.8) for s, v in parent], "lower", 0.1)
    assert better["verdict"] == "better" and better["won"] == 1.0
    noisy = [(seed, 1.0 if seed % 2 else 2.0) for seed in range(10)]
    assert compare.verdict(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
    higher = compare.verdict(parent, [(s, v * 0.8) for s, v in parent], "higher", 0.1)
    assert higher["verdict"] == "worse"


def test_compare_flags_a_changed_digest(tmp_path, capsys):
    parent = tmp_path / "parent.jsonl"
    change = tmp_path / "change.jsonl"
    parent.write_text("\n".join(json.dumps(_record("w", s, 1.0)) for s in range(3)))
    change.write_text("\n".join(json.dumps(_record("w", s, 1.0, digest="e" if s else "d"))
                                for s in range(3)))
    assert compare.main([str(parent), str(parent)]) == 0
    assert compare.main([str(parent), str(change)]) == 1
    assert "DIGEST CHANGED" in capsys.readouterr().out


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for file in HERE.glob("*.py"):
        (tmp_path / "perfbench" / file.name).write_text(file.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service-churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
