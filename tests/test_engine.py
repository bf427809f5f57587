import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beepvote.dvb1 import Dvb1Automaton, Dvb1Params, dvb1_params, dvb1_run, slot_budget
from beepvote.dvb2 import Dvb2Automaton, Dvb2Params, dvb2_params, dvb2_run
from beepvote.engine import (
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
    ErdosRenyi,
    LevelAssignment,
    Mesh2D,
    build,
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
        g = graph_from_edges(n, np.argwhere(adj))
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


def _heard_by_rule(neighbors, beeps):
    """activity by the per-node rule: some neighbor of i beeped."""
    rows = beeps.reshape(-1, len(neighbors))
    rows = [[any(row[j] for j in near) for near in neighbors] for row in rows]
    return np.array(rows, dtype=bool).reshape(beeps.shape)


def test_channel_rule_on_both_storage_forms():
    # CSR graphs from every builder, and the implicit complete graph
    rng = np.random.default_rng(13)
    cases = []
    for n in (1, 2, 7, 40):
        everyone = [[j for j in range(n) if j != i] for i in range(n)]
        cases.append((build(Complete(n)), everyone))
        cases.append((graph_from_edges(n, np.argwhere(~np.eye(n, dtype=bool))), everyone))
    for r, c in ((1, 1), (1, 5), (3, 4)):
        grid = [(i // c, i % c) for i in range(r * c)]
        near = [
            [j for j, (y, x) in enumerate(grid) if abs(y - gy) + abs(x - gx) == 1]
            for gy, gx in grid
        ]
        cases.append((build(Mesh2D(r, c)), near))
    star = [[1, 2, 3], [0], [0], [0]]
    cases.append((graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]), star))
    for n in (1, 9, 30):
        g = build(ErdosRenyi(n, 0.3), rng)
        cases.append((g, [np.flatnonzero(row).tolist() for row in g.adj.toarray()]))
    for g, neighbors in cases:
        n = g.node_count
        assert n == len(neighbors)
        vectors = [rng.random(n) < 0.3, np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
        blocks = [np.zeros((0, n), dtype=bool), np.zeros((3, n), dtype=bool)]
        blocks += [rng.random((s, n)) < p for s in (1, 5) for p in (0.1, 0.5)]
        blocks[-1][2] = False  # an all-silent row inside a block
        for beeps in vectors + blocks:
            # the engine sends silent rows and S = 0 blocks as they are,
            # and the reply's rows feed DVB1's float tally @ flags product
            activity = g.activity(beeps)
            assert activity.dtype == bool and activity.shape == beeps.shape
            assert np.array_equal(activity, _heard_by_rule(neighbors, beeps))


@pytest.mark.parametrize(
    "graph",
    [
        build(Complete(1)),
        build(Complete(7)),
        build(Mesh2D(3, 4)),
        graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    ],
)
def test_silent_block_replies_all_false_with_no_beeps(graph):
    # a block's silent rows reach the channel like any other row
    n = graph.node_count
    replies = []

    def silent_block():
        replies.append((yield SlotRequest(np.zeros((3, n), dtype=bool), [0, 2, 5], 7)))

    trace = io.StringIO()
    assert drive_schedule(graph, silent_block(), trace) == (7, 0, None)
    (reply,) = replies
    assert reply.dtype == bool and reply.shape == (3, n) and not reply.any()
    assert "action=" not in trace.getvalue()


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


def test_run_raises_past_its_slot_budget():
    # the budget is exact, so a schedule that outgrows it is a bug, not a status
    g = build(Complete(10))
    params = dvb1_params(g, 2)
    asg = make_assignment(10, 2, 0.7, np.random.default_rng(3))
    automaton = Dvb1Automaton(g, params, asg, np.random.default_rng(3), max_phases=50)
    with pytest.raises(RuntimeError, match="past its budget of 5"):
        run(g, automaton, slot_budget=5)


def tied(n, seed):
    halves = [1] * (n // 2) + [2] * (n - n // 2)
    return LevelAssignment(np.random.default_rng(seed).permutation(halves), 2)


@pytest.mark.parametrize("protocol", ["dvb1", "dvb2"])
def test_slot_budget_is_exact(protocol):
    """A K=2 run that reaches its phase cap without terminating takes
    exactly slot_budget slots: every phase has its fixed length, and a
    termination check runs its one period in full.  Tied inputs keep the
    runs from agreeing (with one corrosion round per phase for DVB1), and
    the caps cover no check, one check, and checks plus a phase after."""
    for spec in (Complete(8), Mesh2D(3, 3), Mesh2D(2, 5)):
        g = build(spec)
        if protocol == "dvb1":
            params, protocol_run = dvb1_params(g, 2, c1=0.01), dvb1_run
        else:
            params, protocol_run = dvb2_params(g, 2), dvb2_run
        for max_phases in {1, params.d_sched, 2 * params.d_sched + 1}:
            for seed in range(3):
                asg = tied(g.node_count, seed)
                res = protocol_run(g, asg, params, seed=seed, max_phases=max_phases)
                assert res.status == "max_phases_exceeded"
                assert res.slots_elapsed == slot_budget(params, max_phases)
    if protocol == "dvb1":
        # with the default T rounds every node dies early in the phase,
        # whose tail is then one FastForward
        g = build(Mesh2D(3, 3))
        params = dvb1_params(g, 2)
        for seed in range(3):
            res = dvb1_run(g, tied(9, seed), params, seed=seed, max_phases=1)
            assert res.status == "max_phases_exceeded"
            assert res.slots_elapsed == slot_budget(params, 1)


def test_metrics_count_slots_and_beeps():
    g = build(Complete(10))
    params = dvb1_params(g, 2)
    asg = make_assignment(10, 2, 0.9, np.random.default_rng(5))
    automaton = Dvb1Automaton(g, params, asg, np.random.default_rng(5), max_phases=50)
    slots, beeps, status = run(g, automaton, slot_budget(params, 50))
    assert status == "completed"
    assert slots > 0
    assert 0 < beeps <= slots * 10


@pytest.mark.parametrize("protocol_run", [dvb1_run, dvb2_run])
def test_terminated_iff_completed(protocol_run):
    # a one-phase cap ends the mesh runs before their first check
    statuses = set()
    for spec in (Complete(6), Mesh2D(3, 3)):
        g = build(spec)
        params = (dvb1_params if protocol_run is dvb1_run else dvb2_params)(g, 2)
        for seed in range(3):
            asg = make_assignment(g.node_count, 2, 0.7, np.random.default_rng(seed))
            for max_phases in (None, 1):
                res = protocol_run(g, asg, params, seed=seed, max_phases=max_phases)
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


@pytest.mark.parametrize(
    "params_cls, field, value, message",
    [
        (Dvb1Params, "rounds_per_phase", 0, "rounds per phase must be >= 1"),
        (Dvb2Params, "y_slots", 0, "id space must be >= 1"),
        (Dvb2Params, "id_mode", "sequential", r"id_mode must be one of \('random', "),
    ],
)
def test_protocol_params_refuse_their_own_bad_fields(params_cls, field, value, message):
    with pytest.raises(ValueError, match=message):
        params_cls(**{**PARAMS_KWARGS[params_cls], field: value})


def test_automaton_refuses_an_assignment_that_does_not_fit():
    g = build(Complete(4))
    params = dvb1_params(g, 2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="assignment length must match node count"):
        Dvb1Automaton(g, params, LevelAssignment([1, 2, 2], 2), rng, 1)
    with pytest.raises(ValueError, match="assignment and params disagree on level count"):
        Dvb1Automaton(g, params, LevelAssignment([1, 2, 2, 3], 3), rng, 1)


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


def naive_drive(graph, gen):
    """Slot-by-slot reference for drive_schedule: every block is expanded
    into single slots, with one channel call per beeping slot.  A silent
    stretch of a block (a gap, or a row in which nobody beeps) gets one
    trace line when it ends, as a FastForward does.  Returns (slots,
    beeps, value, trace text)."""
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
    return graph_from_edges(n, np.argwhere(adj | adj.T))


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
)
def test_drive_schedule_matches_slot_by_slot_reference(kind, k, n, p, seed):
    """The engine's promise: counting a block's silent slots without the
    channel matches a naive slot-by-slot run bit for bit.  The untraced
    path only counts and the traced one also writes, so both are checked
    against the reference."""
    graph = random_graph(n, p, np.random.default_rng(seed))
    make = schedule_factory(kind, graph, k, seed)
    ref_owner, ref_gen = make()
    ref_slots, ref_beeps, ref_value, ref_trace = naive_drive(graph, ref_gen)
    for trace in (io.StringIO(), None):
        owner, gen = make()
        slots, beeps, value = drive_schedule(graph, gen, trace)
        assert type(slots) is int and type(beeps) is int
        assert (slots, beeps) == (ref_slots, ref_beeps)
        if trace is not None:
            assert trace.getvalue() == ref_trace
        assert np.array_equal(value, ref_value)
        assert np.array_equal(owner.values, ref_owner.values)
