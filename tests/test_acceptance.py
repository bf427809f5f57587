"""Acceptance suite: one test per release criterion.

Every test prints a single `criterion NN PASS/FAIL` line before its
asserts so a scan of the output gives the full scoreboard.  All runs
are seeded from one master constant; nothing here is tuned per seed.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache

import numpy as np

from beepvote.analysis import (
    lower_bound_closed,
    lower_bound_two_event,
    markov_success,
    sample_success,
    corollary_ratio,
)
from beepvote.dvb1 import (
    dvb1_params,
    dvb1_run,
    one_phase,
    termination_detection,
)
from beepvote.dvb2 import Dvb2Automaton, dmvr, dvb2_params, dvb2_run
from beepvote.engine import drive_schedule
from beepvote.harness import make_assignment, mesh_shape, wilson_interval
from beepvote.topology import (
    Complete,
    ErdosRenyi,
    LevelAssignment,
    Mesh2D,
    build,
    graph_from_edges,
)

MASTER = 20260822


def rng_for(*key) -> np.random.Generator:
    return np.random.default_rng((MASTER,) + tuple(key))


@lru_cache(maxsize=None)
def complete_graph(n: int):
    return build(Complete(n), rng_for(0, n))


@lru_cache(maxsize=None)
def mesh_graph(n: int):
    return build(Mesh2D(*mesh_shape(n)), rng_for(1, n))


def graph_for(name: str, n: int, rng):
    """Deterministic topologies are cached; random graphs are resampled
    from the caller's stream."""
    if name == "complete":
        return complete_graph(n)
    if name == "mesh2d":
        return mesh_graph(n)
    spec = ErdosRenyi(n, min(1.0, 2.0 * math.log2(n) / n))
    return build(spec, rng)


def majority_counts(n: int, delta: float) -> tuple[int, int]:
    m = round(delta * n)
    return n - m, m


def fixed_assignment(counts) -> LevelAssignment:
    values = []
    for level, c in enumerate(counts, start=1):
        values.extend([level] * c)
    return LevelAssignment(tuple(values), len(counts))


def full_run_stats(name: str, n: int, delta: float, trials: int, tag: int):
    """Per-point success rate and mean consensus phases for dvb1."""
    successes = 0
    phases = []
    for s in range(trials):
        rng = rng_for(tag, s)
        graph = graph_for(name, n, rng)
        assignment = make_assignment(n, 2, delta, rng)
        params = dvb1_params(graph, 2)
        res = dvb1_run(graph, assignment, params, seed=rng)
        successes += bool(res.success)
        phases.append(
            res.consensus_phase if res.consensus_phase is not None else res.phases_elapsed
        )
    return successes / trials, float(np.mean(phases))


def report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {label}")


def test_criterion_01_markov_oracle_exactness():
    t0 = time.time()
    tie = markov_success((1, 1))
    exact_thirds = (
        abs(tie.win_prob[0] - 1 / 3) < 1e-12
        and abs(tie.win_prob[1] - 1 / 3) < 1e-12
        and abs(tie.draw_prob - 1 / 3) < 1e-12
    )
    agree = True
    for i, counts in enumerate(((90, 10), (50, 50))):
        exact = markov_success(counts)
        mc = sample_success(counts, samples=10**6, seed=(MASTER, 1, i))
        agree &= bool(np.max(np.abs(exact.win_prob - mc.win_prob)) < 0.005)
        agree &= abs(exact.draw_prob - mc.draw_prob) < 0.005
        agree &= bool(np.max(np.abs(exact.fail_prob - mc.fail_prob)) < 0.005)
    elapsed = time.time() - t0
    ok = exact_thirds and agree and elapsed < 10
    report(1, "exact chain oracle vs tie split and Monte-Carlo", ok)
    assert exact_thirds
    assert agree
    assert elapsed < 10


def test_criterion_02_one_phase_curve_vs_oracle():
    t0 = time.time()
    graph = complete_graph(100)
    params = dvb1_params(graph, 2)
    worst_z = 0.0
    bounds_ok = True
    for i in range(9):
        delta = 0.55 + 0.05 * i
        counts = majority_counts(100, delta)
        assignment = fixed_assignment(counts)
        wins = sum(
            bool(one_phase(graph, assignment, params, seed=rng_for(2, i, s)).success)
            for s in range(1000)
        )
        sim = wins / 1000
        exact = markov_success(counts).win_prob[1]
        # the binomial sigma of 1000 trials at the exact success probability
        worst_z = max(worst_z, abs(sim - exact) / math.sqrt(exact * (1 - exact) / 1000))
        sigma = math.sqrt(max(sim * (1 - sim), 1e-9) / 1000)
        lb2 = lower_bound_two_event(counts)
        lbc = lower_bound_closed(counts[1], counts[0], 2)
        bounds_ok &= sim >= lb2 - 2 * sigma and sim >= lbc - 2 * sigma
    elapsed = time.time() - t0
    ok = worst_z <= 3 and bounds_ok and elapsed < 120
    report(2, f"one-phase curve vs chain oracle (max |z| {worst_z:.2f})", ok)
    assert worst_z <= 3
    assert bounds_ok
    assert elapsed < 120


def test_criterion_03_all_dead_round_bound():
    t0 = time.time()
    graph = complete_graph(100)
    params = dvb1_params(graph, 2)
    assignment = fixed_assignment((45, 55))
    dead = 0
    for s in range(10_000):
        res = one_phase(graph, assignment, params, seed=rng_for(3, s))
        dead += res.all_dead_round is not None and res.all_dead_round <= 14
    frac = dead / 10_000
    bar = 0.99 - 3 * math.sqrt(0.99 * 0.01 / 10_000)
    elapsed = time.time() - t0
    ok = frac >= bar and elapsed < 60
    report(3, f"all dead within 14 rounds in {frac:.4f} of phases", ok)
    assert frac >= bar
    assert elapsed < 60


def test_criterion_04_ratio_recipe_consistency():
    ratio = corollary_ratio(2, 0.1)
    threshold_ok = abs(ratio - 1.856) < 5e-3
    graph = complete_graph(100)
    params = dvb1_params(graph, 2)
    assignment = fixed_assignment((35, 65))
    wins = sum(
        bool(one_phase(graph, assignment, params, seed=rng_for(4, s)).success)
        for s in range(1000)
    )
    sim = wins / 1000
    bar = 0.9 - 2 * math.sqrt(0.9 * 0.1 / 1000)
    ok = threshold_ok and sim >= bar
    report(4, f"ratio threshold {ratio:.4f}; one-phase at (65,35) {sim:.4f} vs {bar:.4f}", ok)
    assert threshold_ok
    # The 65:35 split clears the ratio threshold, yet its true one-phase
    # success is 0.6565 by the exact chain oracle, far below this target;
    # the closed-form recipe overstates its guarantee.  Kept faithful.
    assert sim >= bar


def test_criterion_05_topology_and_size_robustness():
    deltas = [0.55, 0.65, 0.75, 0.85, 0.95]
    names = ("complete", "mesh2d", "erdos_renyi")
    rates = {}
    intervals = {}
    for t, name in enumerate(names):
        for d, delta in enumerate(deltas):
            rate, _ = full_run_stats(name, 100, delta, 400, tag=5_000 + 100 * t + d)
            rates[name, delta] = rate
            intervals[name, delta] = wilson_interval(round(rate * 400), 400)
    spread_ok = all(
        max(rates[n, d] for n in names) - min(rates[n, d] for n in names) <= 0.1
        for d in deltas
    )
    monotone_ok = all(
        intervals[n, deltas[i + 1]][1] >= intervals[n, deltas[i]][0]
        for n in names
        for i in range(len(deltas) - 1)
    )
    high_ok = True
    for t, name in enumerate(names):
        rate, _ = full_run_stats(name, 100, 0.95, 1000, tag=5_500 + t)
        high_ok &= rate >= 0.99
    size_ok = True
    for t, name in enumerate(names):
        by_n = [
            full_run_stats(name, n, 2 / 3, 400, tag=5_800 + 10 * t + i)[0]
            for i, n in enumerate((20, 40, 60, 80, 100))
        ]
        size_ok &= max(by_n) - min(by_n) <= 0.1
    ok = spread_ok and monotone_ok and high_ok and size_ok
    report(
        5,
        f"robustness: spread {spread_ok}, monotone {monotone_ok}, "
        f"high-delta {high_ok}, size {size_ok}",
        ok,
    )
    assert spread_ok
    assert monotone_ok
    assert high_ok
    assert size_ok


def test_criterion_06_single_phase_on_complete():
    means = {}
    for j, delta in enumerate((0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)):
        _, mean_phases = full_run_stats("complete", 100, delta, 1000, tag=6_000 + j)
        means[delta] = mean_phases
    worst = max(means.values())
    ok = worst <= 1.1
    report(6, f"mean consensus phases on complete(100), worst {worst:.4f}", ok)
    assert worst <= 1.1


def test_criterion_07_phase_scaling():
    results = {}
    plans = {
        "complete": ((16, 50, 100, 200, 400), 200),
        "mesh2d": ((16, 36, 64, 100, 196, 400), 150),
        "erdos_renyi": ((16, 50, 100, 200, 400), 200),
    }
    for t, (name, (sizes, trials)) in enumerate(plans.items()):
        results[name] = [
            full_run_stats(name, n, 2 / 3, trials, tag=7_000 + 100 * t + i)[1]
            for i, n in enumerate(sizes)
        ]
    complete_means = np.array(results["complete"])
    center = complete_means.mean()
    complete_ok = bool(
        (complete_means >= 0.8 * center).all() and (complete_means <= 1.2 * center).all()
    )
    mesh_sizes = np.array(plans["mesh2d"][0], dtype=float)
    slope = np.polyfit(np.log(mesh_sizes), np.log(results["mesh2d"]), 1)[0]
    mesh_ok = 0.35 <= slope <= 0.65
    er_ratio = np.array(results["erdos_renyi"]) / np.log2(plans["erdos_renyi"][0])
    er_center = er_ratio.mean()
    er_ok = bool(
        (er_ratio >= 0.7 * er_center).all() and (er_ratio <= 1.3 * er_center).all()
    )
    ok = complete_ok and mesh_ok and er_ok
    report(
        7,
        f"scaling: complete flat {complete_ok}, mesh slope {slope:.3f}, er log {er_ok}",
        ok,
    )
    assert complete_ok
    assert mesh_ok
    assert er_ok


def test_criterion_08_pairwise_protocol_correctness():
    unique_ok = True
    for t, name in enumerate(("complete", "mesh2d", "erdos_renyi")):
        correct = 0
        for s in range(200):
            rng = rng_for(8, t, s)
            graph = graph_for(name, 64, rng)
            assignment = make_assignment(64, 2, 0.6, rng)
            params = dvb2_params(graph, 2, id_mode="preassigned_unique")
            res = dvb2_run(graph, assignment, params, seed=rng)
            correct += bool(res.success) and res.terminated
        unique_ok &= correct == 200
    random_wins = 0
    for s in range(200):
        rng = rng_for(8, 9, s)
        graph = complete_graph(100)
        assignment = make_assignment(100, 2, 0.6, rng)
        params = dvb2_params(graph, 2, id_mode="random")
        res = dvb2_run(graph, assignment, params, seed=rng)
        random_wins += bool(res.success) and res.terminated
    random_ok = random_wins / 200 >= 0.95
    ok = unique_ok and random_ok
    report(
        8,
        f"pairwise voting: unique ids all correct {unique_ok}, "
        f"random ids {random_wins}/200",
        ok,
    )
    assert unique_ok
    assert random_ok


def test_criterion_09_merge_rule_conservation():
    rng = rng_for(9, 0)
    exact = True
    for _ in range(10_000):
        k = int(rng.integers(2, 6))
        s1 = {int(x) for x in rng.choice(k, size=rng.integers(1, k + 1), replace=False) + 1}
        s2 = {int(x) for x in rng.choice(k, size=rng.integers(1, k + 1), replace=False) + 1}
        m1 = int(rng.integers(1, k + 1))
        m2 = int(rng.integers(1, k + 1))
        levels = np.arange(1, k + 1)
        r1, r2, _, _ = dmvr(
            np.isin(levels, list(s1))[None], np.isin(levels, list(s2))[None],
            np.array([m1]), np.array([m2]), rng,
        )
        u1, u2 = set(levels[r1[0]].tolist()), set(levels[r2[0]].tolist())
        for level in range(1, k + 1):
            exact &= (level in s1) + (level in s2) == (level in u1) + (level in u2)
        exact &= len(u1) + len(u2) == len(s1) + len(s2)

    graph = build(Mesh2D(4, 4), rng_for(9, 1))
    assignment = make_assignment(16, 3, 0.1, rng_for(9, 2))
    params = dvb2_params(graph, 3, id_mode="preassigned_unique")
    params = type(params)(
        level_count=3,
        y_slots=params.y_slots,
        d_sched=10**9,
        id_mode="preassigned_unique",
    )
    automaton = Dvb2Automaton(graph, params, assignment, rng_for(9, 3), max_phases=1000)
    reference = automaton.value_sets.sum(axis=0)
    gen = automaton.schedule()
    invariant = True
    seen_phases = 0
    last = 0

    def check_boundary():
        nonlocal last, seen_phases, invariant
        if automaton.phases_elapsed() != last:
            last = automaton.phases_elapsed()
            seen_phases += 1
            invariant &= bool((automaton.value_sets.sum(axis=0) == reference).all())

    try:
        item = next(gen)
        while True:
            check_boundary()
            if hasattr(item, "beeps"):
                item = gen.send(graph.activity(item.beeps))
            else:
                item = next(gen)
    except StopIteration:
        pass
    check_boundary()
    ok = exact and invariant and seen_phases == 1000
    report(9, f"merge conservation exact {exact}, {seen_phases} phases invariant {invariant}", ok)
    assert exact
    assert invariant
    assert seen_phases == 1000


def test_criterion_10_termination_detection_contract():
    rng = rng_for(10, 0)
    agree = True
    consensus_exact = True
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        while True:
            mask = np.triu(rng.random((n, n)) < 0.6, k=1)
            adj = mask | mask.T
            edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(adj)))]
            try:
                graph = graph_from_edges(n, edges)
                break
            except ValueError:
                continue
        k = int(rng.integers(2, 5))
        if rng.random() < 0.4:
            values = np.full(n, int(rng.integers(1, k + 1)))
        else:
            values = rng.integers(1, k + 1, size=n)
        outcome = termination_detection(graph, values, k, graph.diameter)
        flags = np.array(outcome.flags)
        same = bool((values == values[0]).all())
        agree &= bool((flags == flags[0]).all()) and bool(flags[0]) == same
        if same:
            # nothing is heard (the agree check holds the flags all true),
            # so every period runs its full d_sched + 1 slots
            consensus_exact &= outcome.slots == (k - 1) * (graph.diameter + 1)
    ok = agree and consensus_exact
    report(10, f"termination flags agree {agree}, silent checks exact {consensus_exact}", ok)
    assert agree
    assert consensus_exact


def test_criterion_11_slot_accounting():
    graph = complete_graph(20)
    params = dvb1_params(graph, 3)
    assignment = make_assignment(20, 3, 0.1, rng_for(11, 0))
    res = one_phase(graph, assignment, params, seed=rng_for(11, 1))
    dvb1_ok = res.slots == params.rounds_per_phase * 3

    mesh = build(Mesh2D(3, 3), rng_for(11, 2))
    p2 = dvb2_params(mesh, 2, id_mode="preassigned_unique")
    p2 = type(p2)(
        level_count=2,
        y_slots=p2.y_slots,
        d_sched=10**9,
        id_mode="preassigned_unique",
    )
    assignment2 = make_assignment(9, 2, 0.6, rng_for(11, 3))
    automaton = Dvb2Automaton(mesh, p2, assignment2, rng_for(11, 4), max_phases=1)
    slots, _, _ = drive_schedule(mesh, automaton.schedule())
    y = p2.y_slots
    dvb2_ok = slots == y + (y * y + y + 4 * y * 2)
    ok = dvb1_ok and dvb2_ok
    report(11, f"slot accounting exact: corrosion {dvb1_ok}, interaction {dvb2_ok}", ok)
    assert dvb1_ok
    assert dvb2_ok
