import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beepvote.dvb1 import Dvb1Automaton, Dvb1Params, dvb1_params, dvb1_run, slot_budget
from beepvote.dvb2 import Dvb2Automaton, Dvb2Params, dvb2_params, dvb2_run
from beepvote.engine import (
    BUDGET_EXHAUSTED,
    FastForward,
    SlotRequest,
    drive_schedule,
    run,
    step,
    termination_wave,
)
from beepvote.harness import make_assignment
from beepvote.topology import (
    D_MODES,
    Complete,
    LevelAssignment,
    Mesh2D,
    build,
    graph_from_adjacency,
    graph_from_edges,
    hop_bound,
)


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
        block = rng.random((int(rng.integers(0, 5)), n)) < 0.5
        rows = g.activity(block)
        assert rows.shape == block.shape
        for r in range(len(block)):
            assert np.array_equal(rows[r], g.activity(block[r]))


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
    slots, _, status = run(g, automaton, slot_budget=5)
    assert status == "slot_budget_exhausted"
    assert slots == 5


def test_metrics_count_slots_and_beeps():
    g = build(Complete(10))
    params = dvb1_params(g, 2)
    asg = make_assignment(10, 2, 0.9, np.random.default_rng(5))
    automaton = Dvb1Automaton(g, params, asg, np.random.default_rng(5), max_phases=50)
    slots, beeps, status = run(g, automaton, slot_budget(params, 50))
    assert status == "completed"
    assert slots > 0
    assert 0 < beeps <= slots * 10


def test_drive_schedule_closes_generator_when_budget_runs_out():
    closed = False

    def gen():
        nonlocal closed
        try:
            yield SlotRequest(np.ones((4, 3), dtype=bool))
        finally:
            closed = True

    events = gen()  # held here, so only drive_schedule can have closed it
    slots, beeps, value = drive_schedule(build(Complete(3)), events, slot_budget=2)
    assert value is BUDGET_EXHAUSTED
    assert closed
    assert (slots, beeps) == (2, 6)


@pytest.mark.parametrize("protocol_run", [dvb1_run, dvb2_run])
def test_terminated_iff_completed(protocol_run):
    # a one-phase cap ends the mesh runs before their first check
    statuses = set()
    for spec in (Complete(6), Mesh2D(3, 3)):
        g = build(spec)
        for seed in range(3):
            asg = make_assignment(g.node_count, 2, 0.7, np.random.default_rng(seed))
            for max_phases in (None, 1):
                res = protocol_run(g, asg, seed=seed, max_phases=max_phases)
                assert res.terminated == (res.status == "completed")
                statuses.add(res.status)
    assert statuses == {"completed", "max_phases_exceeded"}


PARAMS_KWARGS = {
    Dvb1Params: dict(level_count=2, d_sched=3, rounds_per_phase=4),
    Dvb2Params: dict(level_count=2, d_sched=3, y_slots=5),
}


@pytest.mark.parametrize("field", ["level_count", "d_sched"])
@pytest.mark.parametrize("params_cls", [Dvb1Params, Dvb2Params])
def test_phase_params_reject_zero_schedule_constants(params_cls, field):
    with pytest.raises(ValueError):
        params_cls(**{**PARAMS_KWARGS[params_cls], field: 0})


@pytest.mark.parametrize("params_cls", [Dvb1Params, Dvb2Params])
def test_check_interval_is_not_a_params_field(params_cls):
    with pytest.raises(TypeError):
        params_cls(**PARAMS_KWARGS[params_cls], check_interval=1)


@pytest.mark.parametrize("d_mode", D_MODES)
@pytest.mark.parametrize("factory", [dvb1_params, dvb2_params])
def test_check_interval_is_d_sched(factory, d_mode):
    g = build(Mesh2D(2, 3))
    params = factory(g, 2, d_mode=d_mode)
    assert params.check_interval == params.d_sched == hop_bound(g, d_mode)


def fast_forward_line(start, count, beep_count=0):
    return f"slots {start}...{start + count - 1} fast-forward beeps={beep_count}\n"


def naive_drive(graph, gen, slot_budget=None):
    """Slot-by-slot reference for drive_schedule: every block is expanded
    into single slots, with one channel call per beeping slot and the
    budget checked before each.  A silent stretch of a block (a gap, or
    a row in which nobody beeps) gets one trace line when it ends, as a
    FastForward does.  Returns (slots, beeps, value, trace text)."""
    trace = io.StringIO()
    slots = beeps = 0
    reply = None
    while True:
        try:
            event = gen.send(reply)
        except StopIteration as stop:
            return slots, beeps, stop.value, trace.getvalue()
        if isinstance(event, FastForward):
            if event.slots:
                trace.write(fast_forward_line(slots, event.slots, event.beep_count))
            slots += event.slots
            beeps += event.beep_count
            reply = None
            continue
        offsets = range(len(event.beeps)) if event.offsets is None else event.offsets
        row_at = {int(offset): r for r, offset in enumerate(offsets)}
        length = len(event.beeps) if event.length is None else event.length
        reply = np.zeros(event.beeps.shape, dtype=bool)
        gap = 0
        for t in range(length):
            if t not in row_at:
                gap += 1
                slots += 1
                continue
            if gap:
                trace.write(fast_forward_line(slots - gap, gap))
                gap = 0
            r = row_at[t]
            mask = event.beeps[r]
            if not mask.any():
                trace.write(fast_forward_line(slots, 1))
                slots += 1
                continue
            if slot_budget is not None and slots >= slot_budget:
                gen.close()
                return slots, beeps, BUDGET_EXHAUSTED, trace.getvalue()
            reply[r] = graph.activity(mask)
            heard = reply[r] & ~mask
            for i in range(graph.node_count):
                action = "beep" if mask[i] else "listen"
                trace.write(f"slot={slots} node={i} action={action} heard={int(heard[i])}\n")
            slots += 1
            beeps += int(mask.sum())
        if gap:
            trace.write(fast_forward_line(slots - gap, gap))


def random_graph(n, p, rng):
    adj = np.triu(rng.random((n, n)) < p, 1)
    adj[np.arange(n - 1), np.arange(1, n)] = True  # path 0-1-...-(n-1): connected
    return graph_from_adjacency(adj | adj.T)


def schedule_factory(kind, graph, k, seed):
    """A function that returns (object holding `values`, slot-event
    generator), the same run on every call."""
    n = graph.node_count
    values = np.random.default_rng(seed).integers(1, k + 1, size=n)
    asg = LevelAssignment(values, k)
    if kind == "wave":
        def wave():
            flags, _ = yield from termination_wave(asg.values, k, 1 + seed % n)
            return flags

        return lambda: (asg, wave())
    if kind == "dvb1":
        automaton, params = Dvb1Automaton, dvb1_params(graph, k, c1=2.0)
    elif kind == "dvb2_random":  # Y = Delta + 1: random ids collide often
        automaton, params = Dvb2Automaton, dvb2_params(graph, k, c2=0.01)
    else:  # Y covers a greedy distance-2 colouring of any graph here
        automaton, params = Dvb2Automaton, dvb2_params(
            graph, k, c2=4.0, id_mode="preassigned_unique"
        )

    def make():
        aut = automaton(graph, params, asg, np.random.default_rng(seed), max_phases=3)
        return aut, aut.schedule()

    return make


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["dvb1", "dvb2_random", "dvb2_preassigned", "wave"]),
    k=st.sampled_from([2, 3]),
    n=st.integers(1, 12),
    p=st.floats(0.0, 0.6),
    seed=st.integers(0, 2**16),
    cut=st.floats(0.0, 1.0),
)
def test_drive_schedule_matches_slot_by_slot_reference(kind, k, n, p, seed, cut):
    """The engine's promise: counting a block's silent slots without the
    channel matches a naive slot-by-slot run bit for bit, also when the
    slot budget cuts inside a block."""
    graph = random_graph(n, p, np.random.default_rng(seed))
    make = schedule_factory(kind, graph, k, seed)
    full_slots = None
    for budget in (None, "cut"):
        if budget == "cut":
            budget = int(cut * full_slots)
        owner, gen = make()
        trace = io.StringIO()
        slots, beeps, value = drive_schedule(graph, gen, budget, trace)
        ref_owner, ref_gen = make()
        ref_slots, ref_beeps, ref_value, ref_trace = naive_drive(graph, ref_gen, budget)
        assert type(slots) is int and type(beeps) is int
        assert (slots, beeps) == (ref_slots, ref_beeps)
        assert trace.getvalue() == ref_trace
        assert (value is BUDGET_EXHAUSTED) == (ref_value is BUDGET_EXHAUSTED)
        assert np.array_equal(value, ref_value)
        assert np.array_equal(owner.values, ref_owner.values)
        full_slots = slots
