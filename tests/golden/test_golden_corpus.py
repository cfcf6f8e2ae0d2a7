"""The substrate reproduces the golden corpus exactly.

The corpus was captured from the dict adjacency with the routing caches off,
and the CSR substrate with caches on reproduced it exactly before the dict
substrate was deleted.  Every topology query, figure run and service replay
below must still produce it bit for bit.
"""

import pytest

import golden_facts as gf

TOPOLOGY = gf.load("topology")
RUNS = gf.load("runs")
FIGURES = gf.load("figures")
SERVICE = gf.load("service")


def test_corpus_covers_every_case():
    assert sorted(TOPOLOGY) == sorted(label for label, _ in gf.topology_cases())
    assert sorted(RUNS) == sorted(case[0] for case in gf.RUN_CASES)
    assert sorted(FIGURES) == sorted(gf.FIGURES)


@pytest.mark.parametrize("label,factory", gf.topology_cases(),
                         ids=[label for label, _ in gf.topology_cases()])
def test_topology_facts(label, factory):
    expected = TOPOLOGY[label]
    facts = gf.topology_timeline(factory())
    for state, state_facts in expected["states"].items():
        assert facts["states"][state] == state_facts, f"{label}/{state}"
    assert facts == expected


@pytest.mark.parametrize("case", gf.RUN_CASES, ids=[case[0] for case in gf.RUN_CASES])
def test_run_facts(case):
    label, scenario, overrides, keep = case
    assert gf.run_facts(scenario, overrides, keep) == RUNS[label]


@pytest.mark.parametrize("name", sorted(gf.FIGURES))
def test_figure_rows(name):
    assert gf.FIGURES[name]() == FIGURES[name]


def test_service_replay_with_relay_failure():
    assert gf.service_facts() == SERVICE
