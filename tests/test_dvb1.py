"""Corrosion and termination-detection behavior.

Statistical assertions run fixed seeds; bounds get an explicit Monte-Carlo
allowance so they test the claim, not the noise.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beepvote.analysis import SURVIVAL_PROB, _round_moves, lower_bound_two_event
from beepvote.dvb1 import (
    C1_DEFAULT,
    Dvb1Automaton,
    Dvb1Params,
    dvb1_params,
    dvb1_run,
    one_phase,
    termination_detection,
)
from beepvote.engine import FastForward, SlotRequest, drive_schedule
from beepvote.harness import make_assignment
from beepvote.topology import (
    Complete,
    ErdosRenyi,
    LevelAssignment,
    Mesh2D,
    build,
    default_edge_probability,
    graph_from_edges,
)


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
    res = one_phase(g, asg, dvb1_params(g, 3), seed=4)
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
    res = one_phase(g, LevelAssignment(np.array([3]), 3), dvb1_params(g, 3), seed=8)
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
    # K = 3 and 5 put three or more levels in one round's block, so the
    # float decode and the flat beeper indices are checked past K = 2.
    for g, k in itertools.product((graph_from_edges(8, RING), build(Complete(7))), (2, 3, 5)):
        check_value_changes(g, k, np.random.default_rng(22))


def check_value_changes(g, k, rng):
    n = g.node_count
    for _ in range(5):
        assignment = LevelAssignment(rng.integers(1, k + 1, size=n), k)
        aut = Dvb1Automaton(g, dvb1_params(g, k), assignment, rng, 1)
        gen = aut.phase()
        values = aut.values  # the phase updates it in place
        prev = values.copy()
        flags = np.zeros((n, k), dtype=bool)
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
                flags[:, slot % k] = False if act is None else act
                slot += 1
                if slot % k == 0:
                    pending = flags.copy()
                    flags[:] = False
        if pending is not None:
            check(pending)


def round_by_round_phase(aut):
    """Reference corrosion phase: every round goes through the channel,
    and only an all-dead phase fast-forwards its silent rest."""
    values = aut.values
    level_count = aut.params.level_count
    rounds = aut.params.rounds_per_phase
    death = 1.0 - SURVIVAL_PROB
    levels = np.arange(1, level_count + 1)[:, None]
    aut.allowed = allowed = np.ones(aut.graph.node_count, dtype=bool)
    for j in range(rounds):
        beeps = (values == levels) & allowed
        _, beepers = np.nonzero(beeps)
        allowed[beepers[aut.rng.random(len(beepers)) < death]] = False
        flags = (yield SlotRequest(beeps)).T
        adopters = flags.sum(axis=1) == 1
        if adopters.any():
            values[adopters] = flags[adopters].argmax(axis=1) + 1
        if not allowed.any():
            remaining = (rounds - j - 1) * level_count
            if remaining:
                yield FastForward(remaining)
            return j + 1
    return None


def phase_graph(kind, n, seed):
    if kind == "mesh":
        return build(Mesh2D(3, 4))
    if kind == "mesh16":  # the dvb1_mesh benchmark's graph
        return build(Mesh2D(16, 16))
    if kind == "er40":
        return build(ErdosRenyi(40, default_edge_probability(40)), np.random.default_rng(seed))
    if kind == "complete":
        return build(Complete(n))
    rng = np.random.default_rng(seed)
    extra = np.argwhere(np.triu(rng.random((n, n)) < rng.random(), 1))
    path = [(i, i + 1) for i in range(n - 1)]  # keeps the graph connected
    return graph_from_edges(n, path + [tuple(e) for e in extra])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["random", "mesh", "complete"]),
    n=st.integers(1, 14),
    k=st.sampled_from([1, 2, 3]),
    c1=st.sampled_from([0.3, 2.0, 20.0]),
    seed=st.integers(0, 2**16),
)
def test_phase_matches_round_by_round_reference(kind, n, k, c1, seed):
    """Fast-forwarding a phase once its beeps hold one level leaves the
    values, the survivors, the slot and beep counts, the all-dead round
    and the random stream as a round-by-round phase leaves them."""
    assert_phase_matches_reference(kind, n, k, c1, seed)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["random", "mesh", "complete"]),
    n=st.integers(1, 14),
    k=st.sampled_from([4, 5]),
    c1=st.sampled_from([0.3, 2.0, 20.0]),
    seed=st.integers(0, 2**16),
)
def test_phase_matches_round_by_round_reference_at_more_levels(kind, n, k, c1, seed):
    """The tally decode of a round's adoptions, checked where level sums
    of two or more heard levels can equal a level (1 + 3 = 4)."""
    assert_phase_matches_reference(kind, n, k, c1, seed)


def assert_phase_matches_reference(kind, n, k, c1, seed, settled=0.0):
    """A share `settled` of the nodes, on average, starts on level 1 and the
    rest on uniform levels.  Returns the beeps the fast phase accounted for
    without the channel."""
    graph = phase_graph(kind, n, seed)
    params = dvb1_params(graph, k, c1=c1)
    rng = np.random.default_rng(seed)
    values = rng.integers(1, k + 1, size=graph.node_count)
    values[rng.random(graph.node_count) < settled] = 1
    runs = []
    for phase in (Dvb1Automaton.phase, round_by_round_phase):
        aut = Dvb1Automaton(
            graph, params, LevelAssignment(values, k), np.random.default_rng(seed), 1
        )
        events = []
        slots, beeps, dead_round = drive_schedule(graph, recorded(phase(aut), events))
        runs.append((aut, events, slots, beeps, dead_round))
    (fast, fast_events, *fast_counts), (ref, _, *ref_counts) = runs
    assert fast_counts == ref_counts
    assert np.array_equal(fast.values, ref.values)
    assert np.array_equal(fast.allowed, ref.allowed)
    assert fast.rng.bit_generator.state == ref.rng.bit_generator.state
    return sum(e.beep_count for e in fast_events if isinstance(e, FastForward))


def recorded(gen, events):
    """gen, appending each event it yields to events."""
    reply = None
    while True:
        try:
            event = gen.send(reply)
        except StopIteration as stop:
            return stop.value
        events.append(event)
        reply = yield event


@pytest.mark.parametrize("kind", ["mesh16", "er40"])
def test_phase_matches_round_by_round_reference_on_the_workload_graphs(kind):
    """The survivor fast-forward against the reference at the benchmark's
    scale; the hypothesis tests above reach only 3x4 meshes and 14 nodes.
    Near-settled starts, like a run's later phases, stop the channel after
    a round or two and leave the survivor loop many steps."""
    for settled in (0.0, 0.95, 1.0):
        forwarded = [
            assert_phase_matches_reference(kind, None, k, C1_DEFAULT, seed, settled)
            for k in (2, 3)
            for seed in range(4)
        ]
        assert settled == 0.0 or min(forwarded) > 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 14), k=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**16))
def test_lumped_round_matches_the_automaton_on_complete_graphs(n, k, seed):
    """The sampler's round map on per-level (value, alive) counts, against
    the automaton round by round: the values it gives are exact, each alive
    count only thins from the one it gives, and the phase stops in the
    round the map ends, or in the round that leaves nobody alive."""
    graph = build(Complete(n))
    values = np.random.default_rng(seed).integers(1, k + 1, size=n)
    aut = Dvb1Automaton(
        graph, dvb1_params(graph, k), LevelAssignment(values, k), np.random.default_rng(seed), 1
    )
    gen = aut.phase()
    event = next(gen)
    for j in range(aut.params.rounds_per_phase):
        before = np.bincount(aut.values - 1, minlength=k), event.beeps.sum(axis=1)
        mapped, alive, ended = (x[0] for x in _round_moves(*(c[None] for c in before)))
        survivors = aut.allowed.copy()  # a round's coins are drawn before its beeps go out
        try:
            event = gen.send(graph.activity(event.beeps))
        except StopIteration:
            event = None
        left = np.bincount(aut.values[survivors] - 1, minlength=k)
        assert np.array_equal(np.bincount(aut.values - 1, minlength=k), mapped)
        assert (left <= alive).all()
        stops = bool(ended or not left.any())
        assert isinstance(event, SlotRequest) != (stops or j == aut.params.rounds_per_phase - 1)
        if not isinstance(event, SlotRequest):
            break


@pytest.mark.parametrize(
    "beeping, hub_after",
    [
        ((), 1),  # heard nothing
        ((3,), 3),  # heard one level
        ((3, 5), 3),  # heard one level from two leaves
        ((1,), 1),  # heard its own level
        ((2, 3), 1),  # heard two levels
        ((1, 3), 1),  # two levels summing to a third (1 + 3 = 4)
        ((1, 2, 3, 4), 1),  # heard all K levels
    ],
)
def test_star_hub_adopts_only_a_single_heard_level(beeping, hub_after):
    # hub 0 holds level 1; leaves 1..5 hold levels 1, 2, 3, 4, 3 of K = 4.
    # Only the leaves in `beeping` reach the channel in round 1, so the hub
    # hears their levels; every leaf hears just the hub and adopts 1.
    leaves = [1, 2, 3, 4, 3]
    g = graph_from_edges(6, [(0, leaf) for leaf in range(1, 6)])
    aut = Dvb1Automaton(
        g, dvb1_params(g, 4), LevelAssignment([1] + leaves, 4), np.random.default_rng(0), 1
    )
    gen = aut.phase()
    event = next(gen)
    reaching = np.isin(np.arange(6), (0,) + beeping)
    try:
        gen.send(g.activity(event.beeps & reaching))
    except StopIteration:
        pass
    assert aut.values.tolist() == [hub_after] + [1] * 5


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


def test_termination_refuses_values_that_are_not_levels():
    # np.asarray(values, int64) used to truncate 1.5 to 1 and report the
    # path terminated, and to run an out-of-range [7, 7, 7] with 0 beeps
    g = build(Mesh2D(1, 3))
    with pytest.raises(ValueError, match="levels must be whole numbers"):
        termination_detection(g, [1.5, 1, 1], 2, g.diameter)
    with pytest.raises(ValueError, match=r"levels must lie in 1\.\.level_count"):
        termination_detection(g, [7, 7, 7], 2, g.diameter)
    with pytest.raises(ValueError, match="values length must match node count"):
        termination_detection(g, [1, 1], 2, g.diameter)


def test_termination_refuses_a_hop_bound_below_one():
    # max(1, d_sched) used to run 0 and -3 silently as one relay hop
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    for d_sched in (0, -3):
        with pytest.raises(ValueError, match="d_sched must be >= 1"):
            termination_detection(g, [1, 1, 1, 1, 2], 2, d_sched)


def test_termination_below_the_diameter_can_split_the_flags():
    # one relay hop on the 4-hop path: node 4 (level 2) hears node 3's
    # level-1 beep and clears, its one relay beep clears node 3, and the
    # wave ends before the difference reaches nodes 0-2
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    out = termination_detection(g, [1, 1, 1, 1, 2], 2, 1)
    assert out.flags == (True, True, True, False, False)
    assert out.slots == 2
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


@pytest.mark.parametrize("c1", [0.0, -1.0, float("inf"), float("nan")])
def test_params_refuse_c1_that_is_not_positive_and_finite(c1):
    # ceil(inf * log2 N) raised OverflowError, and nan slipped past c1 <= 0
    with pytest.raises(ValueError, match="c1 must be positive and finite"):
        dvb1_params(build(Complete(8)), 2, c1=c1)


def test_params_refuse_c1_whose_round_count_overflows():
    # finite, but c1 * log2(8) overflows to inf and math.ceil raised OverflowError
    with pytest.raises(ValueError, match=r"c1 \* log2\(N\) is not finite at c1=1e\+308, N=8"):
        dvb1_params(build(Complete(8)), 2, c1=1e308)
    assert dvb1_params(build(Complete(1)), 2, c1=1e308).rounds_per_phase == 1
