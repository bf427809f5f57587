import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beepvote.dvb2 import (
    INVITE_PROB,
    Dvb2Automaton,
    Dvb2Params,
    assign_ids,
    dmvr,
    dvb2_params,
    dvb2_run,
    id_space,
)
from beepvote.engine import FastForward, drive_schedule, run, slot_budget
from beepvote.topology import (
    Complete,
    LevelAssignment,
    Mesh2D,
    build,
    graph_from_adjacency,
    graph_from_edges,
    hop_bound,
)


def test_id_space_values():
    assert id_space(4) == 160
    assert id_space(99) == 13127
    assert id_space(1) == 2
    assert id_space(0) == 1


def test_id_space_floor():
    for degree in range(0, 50):
        assert id_space(degree) >= degree + 1


def test_random_ids_in_range():
    g = build(Complete(6))
    ids = assign_ids(g, 11, "random", np.random.default_rng(1))
    assert ids.min() >= 1 and ids.max() <= 11


def test_random_id_collision_rate():
    # two neighbors collide with probability 1/Y
    y = id_space(3)
    g = build(Complete(2))
    hits = 0
    draws = 10**5
    rng = np.random.default_rng((604,))
    for _ in range(draws):
        ids = assign_ids(g, y, "random", rng)
        hits += ids[0] == ids[1]
    rate, expect = hits / draws, 1 / y
    sigma = (expect * (1 - expect) / draws) ** 0.5
    assert abs(rate - expect) <= 3 * sigma


def test_unique_ids_distinct_within_two_hops():
    rng = np.random.default_rng(5)
    adj = np.triu(rng.random((30, 30)) < 0.15, 1)
    adj = adj | adj.T
    adj[np.arange(29), np.arange(1, 30)] = True  # keep it connected
    adj = adj | adj.T
    from beepvote.topology import graph_from_adjacency

    g = graph_from_adjacency(adj)
    ids = assign_ids(g, id_space(g.max_degree), "preassigned_unique", rng)
    for i in range(30):
        seen = {int(ids[i])}
        for j in np.flatnonzero(g.adj.toarray()[i]):
            assert int(ids[j]) not in seen
            seen.add(int(ids[j]))


def _dense_greedy_ids(adj, y_slots):
    """Reference: the greedy distance-2 colouring over the dense bool
    two-hop matrix, as assign_ids was first written."""
    two_hop = adj | (adj @ adj)
    ids = np.zeros(len(adj), dtype=np.int64)
    for i in range(len(adj)):
        taken = set(ids[np.flatnonzero(two_hop[i][:i])]) | {int(ids[i])}
        candidate = 1
        while candidate in taken:
            candidate += 1
        if candidate > y_slots:
            raise ValueError("id space too small for locally unique ids")
        ids[i] = candidate
    return ids


def test_unique_ids_match_dense_greedy_reference():
    from beepvote.topology import graph_from_adjacency

    rng = np.random.default_rng(77)
    cases = []
    for _ in range(12):
        n = int(rng.integers(1, 40))
        adj = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.5), 1)
        adj[np.arange(n - 1), np.arange(1, n)] = True  # path 0-1-...-(n-1): connected
        adj = adj | adj.T
        cases.append((graph_from_adjacency(adj), adj))
    for r, c in ((1, 1), (1, 7), (4, 5), (9, 9)):
        n = r * c
        adj = np.zeros((n, n), dtype=bool)
        for i in range(n):
            if (i + 1) % c:
                adj[i, i + 1] = adj[i + 1, i] = True
            if i + c < n:
                adj[i, i + c] = adj[i + c, i] = True
        cases.append((build(Mesh2D(r, c)), adj))
    for n in (1, 2, 9, 30):
        cases.append((build(Complete(n)), ~np.eye(n, dtype=bool)))
    for g, adj in cases:
        y = id_space(g.max_degree)
        ids = assign_ids(g, y, "preassigned_unique", np.random.default_rng(0))
        assert ids.tolist() == _dense_greedy_ids(adj, y).tolist()
    # complete(30) needs 30 ids: one fewer fails the same way in both
    g, adj = cases[-1]
    with pytest.raises(ValueError, match="id space too small"):
        assign_ids(g, 29, "preassigned_unique", np.random.default_rng(0))
    with pytest.raises(ValueError, match="id space too small"):
        _dense_greedy_ids(adj, 29)


def test_unique_ids_need_enough_space():
    g = build(Complete(5))
    with pytest.raises(ValueError):
        assign_ids(g, 3, "preassigned_unique", np.random.default_rng(0))


def test_too_small_id_space_names_the_y_it_needs():
    # the greedy distance-2 colouring of a 5x5 mesh takes 7 ids, but
    # c2 = 0.01 sizes Y at Delta + 1 = 5; a node's colour does not depend
    # on Y, so every Y below 7 fails the same way
    g = build(Mesh2D(5, 5))
    params = dvb2_params(g, 2, c2=0.01, id_mode="preassigned_unique")
    assert params.y_slots == 5
    asg = LevelAssignment([1] * 13 + [2] * 12, 2)
    with pytest.raises(ValueError, match="Y = 5, the distance-2 colouring needs Y = 7"):
        dvb2_run(g, asg, params, seed=0)
    for y in (1, 6):
        with pytest.raises(ValueError, match=f"Y = {y}, .* needs Y = 7$"):
            assign_ids(g, y, "preassigned_unique", np.random.default_rng(0))
    assert assign_ids(g, 7, "preassigned_unique", np.random.default_rng(0)).max() == 7


def heard_ids(aut):
    """Per node, the ids it heard in discovery, ascending: the CSR table
    rows known[known_ptr[i]:known_ptr[i + 1]] as tuples."""
    ptr = aut.known_ptr.tolist()
    return [tuple(aut.known[a:b].tolist()) for a, b in zip(ptr[:-1], ptr[1:])]


def test_discovery_star():
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    params = dvb2_params(star, 2, id_mode="preassigned_unique")
    aut = Dvb2Automaton(star, params, LevelAssignment([1, 1, 2, 2], 2),
                        np.random.default_rng((601,)), max_phases=1)
    slots, _, _ = drive_schedule(star, aut.setup())
    assert slots == params.y_slots
    heard = heard_ids(aut)
    # the hub's heard ids, ascending: the order a phase's draw indexes
    assert heard[0] == tuple(sorted(int(i) for i in aut.ids[1:]))
    assert len(set(heard[0])) == 3
    for leaf in (1, 2, 3):
        assert heard[leaf] == (int(aut.ids[0]),)


def test_discovery_merges_equal_ids():
    path3 = graph_from_edges(3, [(0, 1), (0, 2)])
    params = dvb2_params(path3, 2)
    aut = Dvb2Automaton(path3, params, LevelAssignment([1, 1, 2], 2),
                        np.random.default_rng((602,)), max_phases=1)
    aut.ids = np.array([5, 7, 7])
    drive_schedule(path3, aut.setup())
    assert aut.known.tolist() == [7, 5, 5]
    assert aut.known_ptr.tolist() == [0, 1, 2, 3]


class PerNodeDvb2(Dvb2Automaton):
    """Reference phase: each inviter's target and each invitee's chosen
    inviter are one scalar rng.integers call per node, in ascending node
    order, over the per-node tuples of heard ids."""

    def phase(self):
        n = self.graph.node_count
        y = self.params.y_slots
        ids = self.ids
        rng = self.rng
        neighbor_ids = heard_ids(self)
        inviter = rng.random(n) < INVITE_PROB

        target = np.zeros(n, dtype=np.int64)
        for i in np.flatnonzero(inviter):
            known = neighbor_ids[i]
            if known:
                target[i] = known[rng.integers(len(known))]

        senders = np.flatnonzero(target)
        grid = (ids[senders] - 1) * y + target[senders] - 1
        slots, heard = yield from self._send(grid, senders, y * y)
        j1, j2 = np.divmod(slots, y)
        invited = heard & ~inviter & (ids == j2[:, None] + 1)

        chosen = np.zeros(n, dtype=np.int64)
        for i in np.flatnonzero(invited.any(axis=0)):
            ids_heard = j1[invited[:, i]] + 1
            chosen[i] = ids_heard[rng.integers(len(ids_heard))]
        invitee = chosen > 0
        invitees = np.flatnonzero(invitee)
        slots, heard = yield from self._send(chosen[invitees] - 1, invitees, y)
        accepted = (heard & inviter & (ids == slots[:, None] + 1)).any(axis=0)

        inviters = np.flatnonzero(accepted)
        recv_set, recv_val = yield from self._exchange(
            inviters, ids[inviters], self.value_sets[inviters], self.values[inviters],
            invitee, chosen,
        )
        s1, s2, m1, m2 = dmvr(
            self.value_sets[invitees], recv_set[invitees],
            self.values[invitees], recv_val[invitees], rng,
        )
        self.value_sets[invitees] = s1
        self.values[invitees] = m1
        recv_set, recv_val = yield from self._exchange(
            invitees, chosen[invitees], s2, m2, accepted, ids
        )
        self.value_sets[inviters] = recv_set[inviters]
        took = accepted & (recv_val > 0)
        self.values[took] = recv_val[took]


def run_both_phases(graph, params, values, ids, seed, max_phases):
    """The vectorised and the per-node automaton on the same input,
    seed and ids, each driven to the end; returns both automata and
    both drive_schedule results."""
    out = []
    for cls in (Dvb2Automaton, PerNodeDvb2):
        aut = cls(graph, params, LevelAssignment(values, params.level_count),
                  np.random.default_rng(seed), max_phases)
        aut.ids = np.array(ids, dtype=np.int64)
        out.append((aut, drive_schedule(graph, aut.schedule())))
    return out


def assert_same_runs(runs):
    (aut, got), (ref, want) = runs
    assert got == want
    assert np.array_equal(aut.values, ref.values)
    assert np.array_equal(aut.value_sets, ref.value_sets)
    assert aut.rng.bit_generator.state == ref.rng.bit_generator.state


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 12),
    p=st.floats(0.0, 0.7),
    k=st.sampled_from([2, 3]),
    y=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_vectorised_phase_matches_per_node_reference(n, p, k, y, seed):
    """One rng.integers call over all inviters, and one over all
    invitees, leave the run where the per-node calls do: same memories,
    value sets and generator state.  Ids drawn from 1..y with y <= 6
    collide often, so nodes hear several inviters, merged ids, or none."""
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < p, 1)
    adj[np.arange(n - 1), np.arange(1, n)] = True  # path 0-1-...-(n-1): connected
    graph = graph_from_adjacency(adj | adj.T)
    params = Dvb2Params(level_count=k, d_sched=hop_bound(graph, "exact"), y_slots=y)
    values = rng.integers(1, k + 1, size=n)
    ids = rng.integers(1, y + 1, size=n)
    assert_same_runs(run_both_phases(graph, params, values, ids, seed, max_phases=6))


def test_vectorised_phase_matches_reference_when_no_id_is_heard():
    # on a path with ids [5, 5, 5] every node beeps in slot 5 of discovery,
    # so none hears an id and no node can invite
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    params = Dvb2Params(level_count=2, d_sched=2, y_slots=6)
    runs = run_both_phases(path, params, [1, 2, 1], [5, 5, 5], seed=610, max_phases=4)
    assert heard_ids(runs[0][0]) == [(), (), ()]
    assert runs[0][0].phases_elapsed() == 4
    assert_same_runs(runs)


def test_array_bounds_draw_as_scalar_calls():
    # Dvb2Automaton.phase relies on this numpy behaviour: rng.integers(0, highs)
    # draws what one rng.integers(h) call per element, in order, would, and
    # leaves the generator in the same state; a bound of 1 draws nothing
    source = np.random.default_rng(611)
    for seed in range(300):
        highs = source.integers(1, 40, size=seed % 14)
        highs[::3] = 1
        vec, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert vec.integers(0, highs).tolist() == [ref.integers(int(h)) for h in highs]
        assert vec.bit_generator.state == ref.bit_generator.state
    rng = np.random.default_rng(612)
    before = rng.bit_generator.state
    assert rng.integers(0, np.ones(7, dtype=np.int64)).tolist() == [0] * 7
    assert rng.bit_generator.state == before


def merge_sets(set1, set2, mem1, mem2, rng):
    """dmvr on one pair of level sets, passed as (1, K) rows and read back
    as level sets and int memories."""
    levels = np.arange(1, max(set1 | set2 | {1}) + 1)
    u1, u2, m1, m2 = dmvr(
        np.isin(levels, list(set1))[None], np.isin(levels, list(set2))[None],
        np.array([mem1]), np.array([mem2]), rng,
    )
    return (frozenset(levels[u1[0]].tolist()), frozenset(levels[u2[0]].tolist()),
            int(m1[0]), int(m2[0]))


def test_dmvr_identity():
    out = merge_sets(frozenset({1}), frozenset({1}), 1, 1, np.random.default_rng(0))
    assert out == (frozenset({1}), frozenset({1}), 1, 1)


def test_dmvr_disjoint_singletons():
    u1, u2, m1, m2 = merge_sets(frozenset({1}), frozenset({2}), 1, 2, np.random.default_rng(0))
    assert u1 == frozenset({1, 2})
    assert u2 == frozenset()
    assert (m1, m2) == (1, 2)


def test_dmvr_larger_set_intersects():
    u1, u2, m1, m2 = merge_sets(frozenset({1, 2}), frozenset({2}), 1, 2, np.random.default_rng(0))
    assert u1 == frozenset({2})
    assert u2 == frozenset({1, 2})
    assert m1 == 2  # singleton disseminates
    assert m2 == 2


def test_dmvr_speed_up_coin():
    # both updated sets stay above one element, so a coin copies one old
    # memory over the other; both directions must occur
    outcomes = set()
    rng = np.random.default_rng((605,))
    for _ in range(200):
        u1, u2, m1, m2 = merge_sets(frozenset({1, 2}), frozenset({1, 2}), 1, 2, rng)
        assert u1 == frozenset({1, 2}) and u2 == frozenset({1, 2})
        outcomes.add((m1, m2))
    assert outcomes == {(1, 1), (2, 2)}


def test_dmvr_conserves_level_membership():
    rng = np.random.default_rng(606)
    levels = (1, 2, 3, 4)
    for _ in range(10**4):
        v1 = frozenset(k for k in levels if rng.random() < 0.5)
        v2 = frozenset(k for k in levels if rng.random() < 0.5)
        m1 = int(rng.integers(1, 5))
        m2 = int(rng.integers(1, 5))
        u1, u2, _, _ = merge_sets(v1, v2, m1, m2, rng)
        for k in levels:
            assert (k in v1) + (k in v2) == (k in u1) + (k in u2)


def test_dmvr_batch_matches_one_pair_at_a_time():
    # one call over P pairs draws its coins in pair order, so it equals P
    # single-pair calls on a generator with the same seed
    draw = np.random.default_rng(607)
    for seed in range(240):
        p, k = seed % 12, 1 + seed % 5  # every (P, K) in 0..11 x 1..5, four times
        set1 = draw.random((p, k)) < 0.5
        set2 = draw.random((p, k)) < 0.5
        mem1 = draw.integers(1, k + 1, size=p)
        mem2 = draw.integers(1, k + 1, size=p)
        batch = dmvr(set1, set2, mem1, mem2, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        single = [dmvr(set1[i:i + 1], set2[i:i + 1], mem1[i:i + 1], mem2[i:i + 1], rng)
                  for i in range(p)]
        for part, got in enumerate(batch):
            assert got.tolist() == [row for out in single for row in out[part].tolist()]


def test_phase_slot_budget_exact():
    g = build(Mesh2D(3, 3))
    params = dvb2_params(g, 2, id_mode="preassigned_unique")
    assert params.check_interval > 1  # no termination slots within one phase
    aut = Dvb2Automaton(g, params, LevelAssignment([1] * 5 + [2] * 4, 2),
                        np.random.default_rng(77), max_phases=1)
    slots, _, _ = drive_schedule(g, aut.schedule())
    y, k = params.y_slots, 2
    assert slots == y + (y * y + y + 4 * y * k)


def test_acceptance_rate_on_two_nodes():
    # with one inviter and one listener (probability 1/2 per phase) the
    # handshake always completes, so the acceptance stage carries one
    # beep; termination slots interleave after every phase here
    g = build(Complete(2))
    params = dvb2_params(g, 2, id_mode="preassigned_unique")
    aut = Dvb2Automaton(g, params, LevelAssignment([1, 2], 2),
                        np.random.default_rng((603,)), max_phases=10**9)
    y = params.y_slots
    phase_len = params.slots_per_phase
    cycle = phase_len + (params.level_count - 1) * (params.d_sched + 1)
    acc_lo, acc_hi = y * y, y * y + y
    gen = aut.schedule()
    reply = None
    slot = 0
    acc_beeps = 0
    phases = 10**4
    target = y + phases * cycle
    while slot < target:
        try:
            event = gen.send(reply)
        except StopIteration:
            break
        if isinstance(event, FastForward):
            slot += event.slots
            reply = None
            continue
        beeps = event.beeps
        offsets = range(len(beeps)) if event.offsets is None else event.offsets
        for r, offset in enumerate(offsets):
            at = slot + offset
            if at >= y and acc_lo <= (at - y) % cycle < acc_hi:
                acc_beeps += int(beeps[r].sum())
        slot += len(beeps) if event.length is None else event.length
        reply = g.activity(beeps)
    rate = acc_beeps / ((slot - y) // cycle)
    sigma = (0.25 / phases) ** 0.5
    assert abs(rate - 0.5) <= 3 * sigma


def test_small_unique_id_runs_succeed():
    g = build(Complete(5))
    res = dvb2_run(g, LevelAssignment([1, 1, 1, 2, 2], 2),
                   dvb2_params(g, 2, id_mode="preassigned_unique"), seed=606)
    assert res.success
    assert res.status == "completed"

    gm = build(Mesh2D(3, 3))
    res = dvb2_run(gm, LevelAssignment([1, 1, 1, 1, 2, 2, 2, 3, 3], 3),
                   dvb2_params(gm, 3, id_mode="preassigned_unique"), seed=607)
    assert res.success
    assert res.terminated


def test_consensus_input_terminates_at_first_check():
    g = build(Complete(4))
    res = dvb2_run(g, LevelAssignment([2, 2, 2, 2], 2),
                   dvb2_params(g, 2, id_mode="preassigned_unique"), seed=9)
    assert res.terminated
    assert res.consensus_phase == 0


def test_max_phases_reported():
    g = build(Complete(6))
    res = dvb2_run(g, LevelAssignment([1, 1, 1, 1, 2, 2], 2),
                   dvb2_params(g, 2, id_mode="preassigned_unique"),
                   seed=3, max_phases=1)
    assert res.phases_elapsed == 1
    if not res.terminated:
        assert res.status == "max_phases_exceeded"


def assert_singleton_invariant(aut, surplus):
    """Interval consensus at K = 2 (Benezit et al., ICASSP 2009): over the
    singleton value sets, #{1} - #{2} stays n_1 - n_2, and each singleton
    set's holder has the set's value in memory."""
    single = aut.value_sets.sum(axis=1) == 1
    sets = aut.value_sets[single]
    assert int(sets[:, 0].sum()) - int(sets[:, 1].sum()) == surplus
    assert np.array_equal(aut.values[single], sets.argmax(axis=1) + 1)


class SingletonCheckedDvb2(Dvb2Automaton):
    """Checks the singleton invariant at every phase boundary."""

    surplus = 0

    def phase(self):
        yield from super().phase()
        assert_singleton_invariant(self, self.surplus)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 12),
    p=st.floats(0.0, 0.6),
    ones=st.integers(0, 12),
    seed=st.integers(0, 2**16),
)
def test_binary_unique_id_runs_conserve_the_singleton_surplus(n, p, ones, seed):
    """With exact handshakes some node keeps the majority value in memory
    until the end, so a terminated run has always reached the majority."""
    n1 = ones % (n + 1)
    assume(2 * n1 != n)
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=bool)
    adj[np.arange(1, n), [rng.integers(i) for i in range(1, n)]] = True  # random tree
    adj |= rng.random((n, n)) < p
    adj = np.tril(adj, -1)
    graph = graph_from_adjacency(adj | adj.T)
    params = dvb2_params(graph, 2, id_mode="preassigned_unique")
    max_phases = max(400, 40 * params.check_interval)  # dvb2_run's default cap
    values = rng.permutation([1] * n1 + [2] * (n - n1))
    aut = SingletonCheckedDvb2(graph, params, LevelAssignment(values, 2), rng, max_phases)
    aut.surplus = 2 * n1 - n
    assert_singleton_invariant(aut, aut.surplus)
    res = aut.result(*run(graph, aut, slot_budget(params, max_phases)))
    assert_singleton_invariant(aut, aut.surplus)
    if res.terminated:
        assert res.success
