import numpy as np
import pytest

from beepvote.dvb1 import Dvb1Automaton, dvb1_params, dvb1_run, slot_budget
from beepvote.engine import run, step
from beepvote.harness import make_assignment
from beepvote.topology import Complete, build, graph_from_adjacency, graph_from_edges


def test_step_one_hop_only():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    heard = step(g, np.array([True, False, False]))
    assert heard.tolist() == [False, True, False]


def test_step_all_beepers_hear_nothing():
    g = build(Complete(5))
    heard = step(g, np.ones(5, dtype=bool))
    assert not heard.any()


def test_step_merged_beeps_indistinguishable():
    # two simultaneous beeps arrive as a single heard event
    g = build(Complete(3))
    heard = step(g, np.array([True, True, False]))
    assert heard.tolist() == [False, False, True]


def test_step_rejects_wrong_length():
    g = build(Complete(3))
    with pytest.raises(ValueError):
        step(g, np.array([True, False]))


def test_channel_property_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        adj = np.triu(rng.random((n, n)) < 0.4, 1)
        adj[np.arange(n - 1), np.arange(1, n)] = True  # path 0-1-...-(n-1): connected
        adj = adj | adj.T
        g = graph_from_adjacency(adj)
        beeps = rng.random(n) < 0.5
        activity = g.activity(beeps)
        heard = step(g, beeps)
        for i in range(n):
            neighbor_beeped = any(beeps[j] for j in np.flatnonzero(adj[i]))
            assert activity[i] == neighbor_beeped
            assert heard[i] == ((not beeps[i]) and neighbor_beeped)


def test_identical_seeds_identical_results():
    g = build(Complete(30))
    params = dvb1_params(g, 2)
    for seed in (0, 1, 17):
        asg = make_assignment(30, 2, 0.7, np.random.default_rng(seed))
        a = dvb1_run(g, asg, params, seed=seed)
        b = dvb1_run(g, asg, params, seed=seed)
        assert a == b


def test_single_node_run():
    g = build(Complete(1))
    asg = make_assignment(1, 2, 1.0, np.random.default_rng(0))
    res = dvb1_run(g, asg, dvb1_params(g, 2), seed=0)
    assert res.status == "completed"
    assert res.terminated
    assert res.final_values == (2,)
    assert res.success


def test_slot_budget_exhaustion_reported():
    g = build(Complete(10))
    params = dvb1_params(g, 2)
    asg = make_assignment(10, 2, 0.7, np.random.default_rng(3))
    automaton = Dvb1Automaton(g, params, asg, np.random.default_rng(3), max_phases=50)
    metrics, status = run(g, automaton, slot_budget=5)
    assert status == "slot_budget_exhausted"
    assert metrics.slots_elapsed == 5


def test_metrics_count_slots_and_beeps():
    g = build(Complete(10))
    params = dvb1_params(g, 2)
    asg = make_assignment(10, 2, 0.9, np.random.default_rng(5))
    automaton = Dvb1Automaton(g, params, asg, np.random.default_rng(5), max_phases=50)
    metrics, status = run(g, automaton, slot_budget(params, 50))
    assert status == "completed"
    assert metrics.slots_elapsed > 0
    assert 0 < metrics.total_beeps <= metrics.slots_elapsed * 10
