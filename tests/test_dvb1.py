"""Corrosion and termination-detection behavior.

Statistical assertions run fixed seeds; bounds get an explicit Monte-Carlo
allowance so they test the claim, not the noise.
"""

import numpy as np
import pytest

from beepvote.analysis import lower_bound_two_event
from beepvote.dvb1 import (
    Dvb1Automaton,
    Dvb1Params,
    dvb1_params,
    dvb1_run,
    one_phase,
    termination_detection,
)
from beepvote.engine import FastForward, drive_schedule
from beepvote.harness import make_assignment
from beepvote.topology import Complete, LevelAssignment, Mesh2D, build, graph_from_edges


def slot_rows(event):
    """Per slot of an event, the index of the beep row sent in it, or
    None for a silent slot."""
    if isinstance(event, FastForward):
        return [None] * event.slots
    offsets = range(len(event.beeps)) if event.offsets is None else event.offsets
    rows = [None] * (len(event.beeps) if event.length is None else event.length)
    for r, offset in enumerate(offsets):
        rows[offset] = r
    return rows


def binary_phase(graph, values, rng):
    """A DVB1 automaton over values at K = 2 and its first phase's
    slot-event generator."""
    aut = Dvb1Automaton(graph, dvb1_params(graph, 2), LevelAssignment(values, 2), rng, 1)
    return aut, aut.phase()


def pump_rounds(graph, gen, slots):
    """Advance a slot generator by exactly `slots` slots, then one more send
    so the round-end update has executed."""
    reply = None
    consumed = 0
    while consumed < slots:
        event = gen.send(reply)
        consumed += len(slot_rows(event))
        reply = None if isinstance(event, FastForward) else graph.activity(event.beeps)
    try:
        gen.send(reply)
    except StopIteration:
        pass


def test_consensus_is_fixed_point():
    g = build(Complete(6))
    asg = LevelAssignment(np.full(6, 2), 3)
    res = one_phase(g, asg, seed=4)
    assert res.final_values == (2,) * 6


def test_two_node_round_swaps_values():
    # both nodes are alive in round 1, so each hears exactly the other's
    # level and adopts it, whatever the survival coins say
    g = build(Complete(2))
    aut, gen = binary_phase(g, [1, 2], np.random.default_rng(0))
    pump_rounds(g, gen, 2)
    assert aut.values.tolist() == [2, 1]


def test_minority_node_adopts_majority_level():
    g = build(Complete(3))
    aut, gen = binary_phase(g, [1, 1, 2], np.random.default_rng(0))
    pump_rounds(g, gen, 2)
    assert aut.values.tolist() == [1, 1, 1]


def test_single_node_phase_changes_nothing():
    g = build(Complete(1))
    res = one_phase(g, LevelAssignment(np.array([3]), 3), seed=8)
    assert res.final_values == (3,)


def test_phase_consumes_rounds_times_levels_slots():
    g = build(Complete(10))
    params = dvb1_params(g, 3)
    asg = LevelAssignment(np.array([1] * 5 + [2] * 3 + [3] * 2), 3)
    res = one_phase(g, asg, params, seed=2)
    assert res.slots == params.rounds_per_phase * 3


RING = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 4)]


def test_dead_nodes_stay_silent():
    g = graph_from_edges(8, RING)
    rng = np.random.default_rng(21)
    for _ in range(10):
        aut, gen = binary_phase(g, rng.integers(1, 3, size=8), rng)
        dead = np.zeros(8, dtype=bool)
        reply = None
        while True:
            try:
                event = gen.send(reply)
            except StopIteration:
                break
            if isinstance(event, FastForward):
                reply = None
                continue
            for beeps in event.beeps:
                assert not (beeps & dead).any()
                # allowed already reflects this round's survival coins
                dead |= beeps & ~aut.allowed
            reply = g.activity(event.beeps)


def test_value_changes_obey_flags():
    # a node may change value at a round's end only if exactly one level
    # was flagged, and only to that level; silent rounds change nothing.
    # The adoption runs when the generator resumes, so each completed
    # round is checked right before the next event (or at exhaustion).
    g = graph_from_edges(8, RING)
    rng = np.random.default_rng(22)
    for _ in range(5):
        aut, gen = binary_phase(g, rng.integers(1, 3, size=8), rng)
        values = aut.values  # the phase updates it in place
        prev = values.copy()
        flags = np.zeros((8, 2), dtype=bool)
        pending = None
        slot = 0
        reply = None

        def check(round_flags):
            nonlocal prev
            for i in np.flatnonzero(values != prev):
                assert round_flags[i].sum() == 1
                assert values[i] == round_flags[i].argmax() + 1
            prev = values.copy()

        while True:
            try:
                event = gen.send(reply)
            except StopIteration:
                break
            if pending is not None:
                check(pending)
                pending = None
            if isinstance(event, FastForward):
                reply = None
            else:
                reply = g.activity(event.beeps)
            acts = [None if r is None else reply[r] for r in slot_rows(event)]
            for act in acts:
                flags[:, slot % 2] = False if act is None else act
                slot += 1
                if slot % 2 == 0:
                    pending = flags.copy()
                    flags[:] = False
        if pending is not None:
            check(pending)


def test_all_dead_probability_bound():
    # P(all dead by round r) >= 1 - N * 2^-r, checked with 3 sigma of
    # Monte-Carlo allowance at the bound
    trials = 500
    for n, tag in ((10, 505), (100, 506)):
        g = build(Complete(n))
        params = dvb1_params(g, 2)
        base = np.array([1] * (n - n // 4) + [2] * (n // 4))
        dead_round = []
        for t in range(trials):
            rng = np.random.default_rng((tag, t))
            res = one_phase(g, LevelAssignment(rng.permutation(base), 2), params, seed=rng)
            dead_round.append(res.all_dead_round if res.all_dead_round is not None else 10**9)
        dead_round = np.array(dead_round)
        for r in (5, 10, 14):
            bound = 1 - n * 0.5**r
            if bound <= 0:
                continue
            sigma = (bound * (1 - bound) / trials) ** 0.5
            assert (dead_round <= r).mean() >= bound - 3 * sigma


def test_one_phase_beats_two_event_bound():
    g = build(Complete(100))
    params = dvb1_params(g, 2)
    base = np.array([1] * 90 + [2] * 10)
    succ = 0
    trials = 600
    for t in range(trials):
        rng = np.random.default_rng((504, t))
        res = one_phase(g, LevelAssignment(rng.permutation(base), 2), params, seed=rng)
        succ += bool(res.success)
    bound = lower_bound_two_event((90, 10))
    sigma = (bound * (1 - bound) / trials) ** 0.5
    assert succ / trials >= bound - 2 * sigma


def test_full_run_high_majority():
    g = build(Complete(100))
    params = dvb1_params(g, 2)
    succ = 0
    for t in range(1000):
        rng = np.random.default_rng((502, t))
        asg = make_assignment(100, 2, 0.9, rng)
        succ += bool(dvb1_run(g, asg, params, seed=rng).success)
    assert succ / 1000 >= 0.95


def test_full_run_near_unanimous_is_single_phase():
    g = build(Complete(100))
    params = dvb1_params(g, 2)
    succ, phases = 0, []
    for t in range(1000):
        rng = np.random.default_rng((503, t))
        asg = make_assignment(100, 2, 0.95, rng)
        res = dvb1_run(g, asg, params, seed=rng)
        succ += bool(res.success)
        phases.append(res.consensus_phase if res.consensus_phase is not None
                      else res.phases_elapsed)
    assert succ / 1000 >= 0.99
    assert np.mean(phases) <= 1.1


def test_mesh_ternary_plurality_usually_wins():
    g = build(Mesh2D(4, 4))
    params = dvb1_params(g, 3)
    base = np.array([1] * 7 + [2] * 5 + [3] * 4)
    wins = 0
    trials = 600
    for t in range(trials):
        rng = np.random.default_rng((501, t))
        asg = LevelAssignment(rng.permutation(base), 3)
        wins += bool(dvb1_run(g, asg, params, seed=rng).success)
    assert wins > trials // 2


def test_termination_consensus_is_silent():
    g = build(Complete(5))
    out = termination_detection(g, np.full(5, 1), 3, g.diameter)
    assert out.flags == (True,) * 5
    assert out.heard_events == 0
    assert out.slots == 2 * (g.diameter + 1)


def test_termination_last_level_consensus_runs_all_periods():
    g = build(Complete(4))
    out = termination_detection(g, np.full(4, 3), 3, g.diameter)
    assert out.flags == (True,) * 4
    assert out.beeps == 0
    assert out.slots == 2 * (g.diameter + 1)


def test_termination_dissent_detected_in_first_period():
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    out = termination_detection(g, np.array([1, 1, 1, 1, 2]), 2, g.diameter)
    assert out.flags == (False,) * 5
    assert out.slots == g.diameter + 1
    assert out.heard_events > 0


def test_termination_flag_unanimous_on_star():
    g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    out = termination_detection(g, np.array([1, 2, 2, 2]), 2, g.diameter)
    assert out.flags == (False,) * 4  # every node agrees that it must go on
    assert not out.terminated


def test_split_termination_flags_raise():
    # a relay wave of d_sched = 1 hop cannot flood an 11-hop path, so the
    # check leaves some flags set and others cleared; that is an error,
    # never a silent run on to the phase cap
    g = graph_from_edges(12, [(i, i + 1) for i in range(11)])
    asg = LevelAssignment([1] * 6 + [2] * 6, 2)
    params = Dvb1Params(level_count=2, rounds_per_phase=1, d_sched=1)
    with pytest.raises(RuntimeError, match="flags disagree"):
        dvb1_run(g, asg, params, seed=0)
