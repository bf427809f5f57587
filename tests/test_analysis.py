"""Frozen-value checks for the closed forms and the exact absorption solver.

Reference numbers were computed with an independent implementation of each
formula and by hand where tractable.
"""

import functools
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from beepvote import analysis
from beepvote.analysis import (
    MAX_MARKOV_STATES,
    SURVIVAL_PROB,
    _capped_steps,
    _survivor_pmf,
    corollary_ratio,
    halting,
    lower_bound_closed,
    lower_bound_two_event,
    markov_success,
    prop1_rounds,
    sample_success,
)


def test_prop1_rounds():
    assert prop1_rounds(100, 0.01) == 14
    assert prop1_rounds(1, 0.5) == 1
    assert prop1_rounds(2, 0.5) == 2


def test_prop1_domain():
    with pytest.raises(ValueError):
        prop1_rounds(0, 0.1)
    with pytest.raises(ValueError):
        prop1_rounds(10, 0.0)
    with pytest.raises(ValueError):
        prop1_rounds(10, 1.0)


def test_two_event_bound_values():
    assert lower_bound_two_event((90, 10)) == pytest.approx(0.868378, abs=1e-6)
    assert lower_bound_two_event((75, 25)) == pytest.approx(0.659743, abs=1e-6)
    assert lower_bound_two_event((70, 30)) == pytest.approx(0.585544, abs=1e-6)
    assert lower_bound_two_event((65, 35)) == pytest.approx(0.512851, abs=1e-6)


def test_two_event_bound_unopposed():
    # these counts are already settled, so horizon r = 0 is exact
    assert lower_bound_two_event((1, 0)) == pytest.approx(1.0)
    assert lower_bound_two_event((5, 0)) == pytest.approx(1.0)
    assert lower_bound_two_event((5, 0, 0)) == pytest.approx(1.0)


def test_two_event_bound_rejects_tie():
    with pytest.raises(ValueError, match="counts must have a strict plurality level"):
        lower_bound_two_event((50, 50))
    with pytest.raises(ValueError, match="counts must include at least one node"):
        lower_bound_two_event((0, 0))


def _strided_counts():
    """Binary n_1 < n_2 (n_1 <= 40, n_2 <= 60) and ternary counts <= 30
    with a strict plurality, 240 starts on strided grids.  The full binary
    grid (1,640 pairs) and the ternary one at stride 2 (3,720 triples) hold
    too, but take about a minute."""
    for n_1 in range(0, 41, 4):
        for n_2 in range(n_1 + 1, 61, 3):
            yield (n_1, n_2)
    for counts in itertools.product(range(0, 31, 7), repeat=3):
        top, runner_up = sorted(counts, reverse=True)[:2]
        if top > runner_up:
            yield counts


def test_lower_bounds_lie_at_or_below_the_exact_chain():
    checked = 0
    for counts in _strided_counts():
        ordered = sorted(counts, reverse=True)
        exact = markov_success(counts).win_prob[int(np.argmax(counts))]
        # equality is reached where the start state already halts, e.g. (0, 1)
        assert lower_bound_two_event(counts) <= exact + 1e-12, counts
        if ordered[1] >= 1:  # the closed form needs a runner-up
            assert lower_bound_closed(ordered[0], ordered[1], len(counts)) <= exact + 1e-12, counts
        checked += 1
    assert checked > 200


def _two_event_by_level(counts):
    """The two-event bound summed level by level: every other level
    extinct, or exactly one straggler among them, at each horizon."""
    counts = np.asarray(counts)
    m = int(np.argmax(counts))
    n_m = int(counts[m])
    others = np.delete(counts, m).astype(np.float64)
    best = 0.0
    for r in range(prop1_rounds(int(counts.sum()), 1e-6) + 1):
        pr = SURVIVAL_PROB**r
        q = 1.0 - pr
        p_two = 1.0 - (q**n_m + n_m * pr * q ** (n_m - 1))
        all_dead = float(np.prod(q**others))
        one_left = 0.0
        for i, n_k in enumerate(others):
            if n_k < 1:
                continue  # empty level: covered by all_dead, and q**(n_k-1) blows up at r=0
            rest = np.delete(others, i)
            one_left += n_k * pr * q ** (n_k - 1) * float(np.prod(q**rest))
        p_single_m = n_m * pr * q ** (n_m - 1) * all_dead
        best = max(best, p_two * (all_dead + one_left) + p_single_m)
    return best


def test_two_event_bound_matches_the_per_level_sum():
    wide = [
        (9, 4, 0, 2), (9, 0, 4, 2, 0), (12, 3, 3, 3, 3), (40, 0, 0, 1), (1, 0, 0, 0),
        (25, 24, 0, 1), (7, 6, 5, 4, 3), (30, 1, 1, 1, 0), (0, 0, 2, 1, 0),
    ]
    checked = 0
    for counts in itertools.chain(_strided_counts(), wide):
        assert abs(lower_bound_two_event(counts) - _two_event_by_level(counts)) <= 1e-15, counts
        checked += 1
    assert checked > 240


def test_two_event_bound_reads_only_the_plurality_and_the_rest():
    # the other levels' nodes die independently alike, so only their total counts
    pooled = ((34, 26), (34, 20, 6), (34, 13, 13), (34, 13, 13, 0))
    assert len({lower_bound_two_event(counts) for counts in pooled}) == 1


def test_closed_bound_values():
    assert lower_bound_closed(75, 25, 2) == pytest.approx(0.455800, abs=1e-6)
    assert lower_bound_closed(4, 1, 2) == pytest.approx(0.318092, abs=1e-6)
    assert lower_bound_closed(90, 10, 2) == pytest.approx(0.673076, abs=1e-6)


def test_closed_bound_approaches_one():
    values = [lower_bound_closed(10**e, 1, 2) for e in (2, 3, 4)]
    assert values == sorted(values)
    assert values[-1] > 0.98


def test_closed_bound_monotone_in_majority():
    values = [lower_bound_closed(nm, 20, 2) for nm in (30, 60, 120, 240)]
    assert values == sorted(values)


def test_closed_bound_singular_domain():
    with pytest.raises(ValueError, match="plurality count must exceed the runner-up count"):
        lower_bound_closed(1, 1, 2)
    with pytest.raises(ValueError, match="level count must be >= 2"):
        lower_bound_closed(3, 1, 1)
    # n_m > n_m2 = 1, but the float product rounds sqrt(n_m * n_m2) to 1
    with pytest.raises(ValueError, match=r"sqrt\(n_m \* n_m2\) must exceed 1"):
        lower_bound_closed(1 + 2**-52, 1, 2)


def test_corollary_ratio_values():
    assert corollary_ratio(2, 0.1) == pytest.approx(1.856445, abs=1e-6)
    assert corollary_ratio(3, 0.1) == pytest.approx(2.822976, abs=1e-6)
    assert corollary_ratio(3, 0.1) > corollary_ratio(2, 0.1)


def test_corollary_ratio_domain():
    with pytest.raises(ValueError, match="level count must be >= 2"):
        corollary_ratio(1, 0.1)
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
        corollary_ratio(2, 1.0)


def test_corollary_ratio_finite_near_one():
    # naive evaluation cancels catastrophically here; the rearranged form stays clean
    value = corollary_ratio(2, 1 - 1e-12)
    assert 0.0 < value < 0.01


def test_halting_examples():
    # the 0-based winning level, K for a draw, -1 for a transient state
    assert halting((3, 0)) == 0
    assert halting((0, 0)) == 2
    assert halting((1, 1)) == -1
    assert halting((5, 1)) == 0
    assert halting((1, 5)) == 1
    assert halting((2, 1, 1)) == -1


def _halting_by_rule(alive):
    """The halting rule written out for one alive-count vector."""
    survivors = [i for i, c in enumerate(alive) if c]
    if not survivors:
        return len(alive)
    if len(survivors) == 1:
        return survivors[0]
    big = [i for i in survivors if alive[i] >= 2]
    if len(survivors) == 2 and len(big) == 1:  # the other level has one survivor
        return big[0]
    return -1


def test_halting_vectorises_along_the_last_axis():
    grid = np.moveaxis(np.indices((4, 3, 3)), 0, -1)
    kind = halting(grid)
    assert kind.shape == (4, 3, 3)
    for state in np.ndindex(4, 3, 3):
        assert kind[state] == halting(state) == _halting_by_rule(state)
    assert halting((0,)) == 1 and halting((4,)) == 0


def test_markov_tie_splits_in_thirds():
    res = markov_success((1, 1))
    assert abs(res.win_prob[0] - 1 / 3) < 1e-12
    assert abs(res.win_prob[1] - 1 / 3) < 1e-12
    assert abs(res.draw_prob - 1 / 3) < 1e-12


def test_markov_frozen_values():
    res = markov_success((45, 55))
    assert res.win_prob[1] == pytest.approx(0.515340, abs=1e-6)
    assert res.fail_prob[1] == pytest.approx(0.024305, abs=1e-6)
    res = markov_success((90, 10))
    assert res.win_prob[0] == pytest.approx(0.957160, abs=1e-6)
    assert res.win_prob[1] == pytest.approx(0.024848, abs=1e-6)
    assert res.draw_prob == pytest.approx(0.008697, abs=1e-6)
    res = markov_success((50, 33, 17))
    assert res.win_prob[0] == pytest.approx(0.474406, abs=1e-6)
    assert res.draw_prob == pytest.approx(0.109936, abs=1e-6)


def test_markov_degenerate_start():
    # an absorbing start is tallied at round 0, with exactly the one-hot
    # outcome halting gives it, and nothing is added to it later.  A
    # straggler start such as (5, 1) never fails: the straggler is the
    # only node off the winner.  The sampler agrees on every copy
    for counts in [(1, 0), (2, 0), (7, 0), (0, 0), (0,), (1,), (6,), (0, 0, 3), (5, 1), (1, 0, 4)]:
        for res in (markov_success(counts), sample_success(counts, samples=1000)):
            probs = np.concatenate([res.win_prob, [res.draw_prob], res.fail_prob])
            assert np.array_equal(probs, np.eye(2 * len(counts) + 1)[halting(counts)])
            assert res.total() == 1.0


def test_markov_probabilities_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(2, 4))
        counts = tuple(int(c) for c in rng.integers(0, 60, size=k))
        if sum(counts) == 0:
            counts = (1,) + counts[1:]
        res = markov_success(counts)
        assert abs(sum(res.win_prob) + res.draw_prob + sum(res.fail_prob) - 1.0) < 1e-12


@pytest.mark.parametrize("width, step, rel", [(61, 1, 1e-13), (1201, 100, 1e-10)])
def test_survivor_pmf_matches_exact_rationals(width, step, rel):
    # the sampler's multinomial rows, from log j! as sample_success builds
    # it: 2e-14 relative measured at a <= 60 and 6e-12 at a <= 1200, where
    # 2^-a underflows; j > a weighs exactly 0 and every row sums to 1
    top = width + 1
    log_fact = np.append(np.cumsum(np.log(np.maximum(np.arange(top), 1))), np.full(top, np.inf))
    alive = np.arange(0, width, step)
    pmf = _survivor_pmf(alive, width, log_fact)
    assert pmf.shape == (len(alive), width)
    worst = 0.0
    for row, a in zip(pmf, alive.tolist()):
        assert not row[: width - 1 - a].any()  # columns j = width - 1 down to 0
        for j in range(a + 1):
            exact = Fraction(math.comb(a, j), 2**a)
            if exact > Fraction(1e-250):
                worst = max(worst, float(abs(Fraction(row[width - 1 - j]) - exact) / exact))
    assert worst <= rel
    assert np.abs(pmf.sum(axis=1) - 1.0).max() <= 1e-15


def test_capped_steps_match_the_exact_conditional_law():
    # the "two or more" row at round r is the law of min(Binomial(a, 1/2), 2)
    # with a drawn from Binomial(n, 2^-r) given a >= 2; round 0 has a = n.
    # The closed form lies within 3 ulps of it (2.3 measured), all 40 rounds
    for n in range(2, 13):
        steps = _capped_steps(n, 40)
        assert steps.shape == (40, 3, 3)
        for r in range(40):
            p = Fraction(1, 2**r)
            law = {a: math.comb(n, a) * p**a * (1 - p) ** (n - a) for a in range(2, n + 1)}
            given = sum(law.values())
            row = [
                sum(w * Fraction(math.comb(a, x), 2**a) for a, w in law.items()) / given
                for x in (0, 1)
            ]
            row.append(1 - sum(row))
            for got, exact in zip(steps[r, 2], row):
                assert abs(Fraction(got) - exact) <= 3 * 2.0**-52 * exact, (n, r)
            assert steps[r, :2].tolist() == [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]
    assert _capped_steps(0, 3).tolist() == [[[1.0]]] * 3
    assert _capped_steps(1, 3).tolist() == [[[1.0, 0.0], [0.5, 0.5]]] * 3


def test_capped_steps_match_the_exact_law_past_the_cumprod_range():
    # at n = 1100 the round-1 weights C(n, a) / C(n, 2) pass the float
    # range.  Exact row by thinning: A(r + 1) ~ Binomial(n, p / 2), less
    # the paths with A(r) <= 1, given A(r) >= 2 (p = 2^-r); 1.3e-16 measured
    n, rounds = 1100, 40
    steps = _capped_steps(n, rounds)
    for r in range(rounds):
        p = Fraction(1, 2**r)

        def pmf(a, q):
            return math.comb(n, a) * q**a * (1 - q) ** (n - a)

        low = [pmf(0, p), pmf(1, p)]  # A(r) = 0 or 1
        row = [pmf(0, p / 2) - low[0] - low[1] / 2, pmf(1, p / 2) - low[1] / 2]
        row = [x / (1 - sum(low)) for x in row]
        row.append(1 - sum(row))
        for got, exact in zip(steps[r, 2], row):
            assert abs(Fraction(got) - exact) <= 3 * Fraction(2) ** -53, r


def _cumprod_steps(n, rounds):
    """The "two or more" rows as one cumprod of count ratios, in linear
    space: finite only for n <= 999 or so."""
    a = np.arange(2, n + 1)
    p0 = SURVIVAL_PROB**a
    capped = np.column_stack([p0, a * p0, 1.0 - (1 + a) * p0])
    ratio = np.outer(1.0 / (2.0 ** np.arange(1, rounds) - 1.0), (n + 1 - a) / a)
    ratio[:, 0] = 1.0
    joint = np.vstack([capped[-1], np.cumprod(ratio, axis=1) @ capped])
    return joint / joint.sum(axis=1, keepdims=True)


def test_log_weights_match_the_cumprod_weights():
    # 6.7e-16 measured over every n <= 999 at 45 rounds
    for n in range(2, 1000):
        assert np.abs(_capped_steps(n, 45)[:, 2] - _cumprod_steps(n, 45)).max() <= 1e-15, n


def test_sampler_never_reads_halting(monkeypatch):
    # the sampler simulates the protocol's own value and alive counts, so
    # the halting rule it cross-checks is never one of its inputs
    def refuse(alive):
        raise AssertionError("halting was read")

    monkeypatch.setattr(analysis, "halting", refuse)
    for counts in [(35, 65), (22, 20, 18), (2, 1, 1), (5, 1), (7, 0), (0, 0), (1, 1)]:
        assert sample_success(counts, samples=1000).total() == pytest.approx(1.0)
    with pytest.raises(AssertionError, match="halting was read"):
        markov_success((3, 2))


def test_markov_answers_an_absorbing_start_before_building_steps(monkeypatch):
    # an absorbing start is its one-hot halting outcome, so no weights are
    # built: (0, 999998) once spent 1.27 s of CPU on them
    def refuse(n, rounds):
        raise AssertionError("markov_success built capped steps")

    expected = {counts: markov_success(counts) for counts in [(5, 1), (0, 0, 3), (1, 0)]}
    monkeypatch.setattr(analysis, "_capped_steps", refuse)
    for counts, ref in expected.items():
        res = markov_success(counts)
        for got, want in zip(vars(res).values(), vars(ref).values()):
            assert np.array_equal(got, want)
    for counts in [(0, 999_998), (300_000, 0), (0,), (10**6,)]:
        res = markov_success(counts)
        probs = np.concatenate([res.win_prob, [res.draw_prob], res.fail_prob])
        assert np.array_equal(probs, np.eye(2 * len(counts) + 1)[halting(counts)])
    with pytest.raises(AssertionError, match="capped steps"):
        markov_success((3, 2))


@pytest.mark.parametrize(
    "counts, message",
    [
        ((MAX_MARKOV_STATES + 1,), "hold 1000001 nodes"),
        ((500_001, 0, 500_000), "hold 1000001 nodes"),
        ((2,) * 13, "span 1594323 capped chain states"),
        ((1,) * 20, "span 1048576 capped chain states"),
        ((10**9,) * 40, "span 12157665459056928801 capped chain states"),
    ],
)
def test_markov_guard_refuses_before_allocating(counts, message):
    # the node total bounds the O(N)-per-round weights, the capped chain
    # of prod(min(n_k + 1, 3)) states the sweep; nothing is built first
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=message):
            markov_success(counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 10**6


@pytest.mark.parametrize(
    "counts", [(1000, 1000), (999, 1), (0, 999_998), (10**6, 10**6), (3000, 7000)]
)
def test_sampler_reaches_any_node_count(counts):
    # the sampler once refused these: (1000, 1000) spans 1,002,001 states
    # of the full alive-count grid, (999, 1) needs 1,000,004 binomial table
    # entries and (0, 999998) a 7 TiB table.  Now each takes well under 2 s
    # (about 0.1 s measured for (10^6, 10^6)), within a memory bar linear
    # in samples * K alone (110 bytes per sample and level measured), and
    # agrees with the exact chain within 5 sigma wherever that solves;
    # (3000, 7000) is past the n <= 999 ceiling the chain's weights once had
    samples = 10**4
    tracemalloc.start()
    start = time.perf_counter()
    try:
        res = sample_success(counts, samples=samples, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2.0
    assert peak < 200 * samples * len(counts)
    assert res.total() == pytest.approx(1.0)
    if sum(counts) <= MAX_MARKOV_STATES:
        exact = markov_success(counts)
        assert abs(exact.total() - 1.0) <= 1e-12
        p = np.concatenate([exact.win_prob, [exact.draw_prob], exact.fail_prob])
        got = np.concatenate([res.win_prob, [res.draw_prob], res.fail_prob])
        assert (np.abs(got - p) <= 5 * np.sqrt(p * (1 - p) / samples) + 1e-12).all()


def test_markov_binary_symmetry():
    a = markov_success((30, 70))
    b = markov_success((70, 30))
    assert a.win_prob[0] == pytest.approx(b.win_prob[1], abs=1e-12)
    assert a.fail_prob[0] == pytest.approx(b.fail_prob[1], abs=1e-12)
    assert a.draw_prob == pytest.approx(b.draw_prob, abs=1e-12)


def test_sampler_matches_exact_chain():
    exact = markov_success((30, 70))
    sampled = sample_success((30, 70), samples=2 * 10**5, seed=608)
    assert abs(sampled.win_prob[0] - exact.win_prob[0]) < 0.005
    assert abs(sampled.win_prob[1] - exact.win_prob[1]) < 0.005
    assert abs(sampled.draw_prob - exact.draw_prob) < 0.005


@pytest.mark.parametrize(
    "counts", [(1, 1), (5, 3), (2, 1, 1), (12, 9, 7), (40, 30, 20), (7, 5, 3, 2), (6, 4, 0, 3)]
)
def test_sampler_chi_square_fits_exact_chain(counts):
    # outcome tallies over 8 seeds against markov_success: the summed
    # Pearson statistic over the outcomes the exact chain allows is
    # chi-square with 8 (cells - 1) degrees of freedom, and an outcome it
    # gives probability 0 (an empty level winning, or a level of fewer
    # than two nodes, or of all but one, failing) is never sampled.  The
    # small counts draw nearly every row by multinomial; (40, 30, 20)
    # spreads its samples so thinly over states that most rows hold fewer
    # copies than the level's width and are drawn copy by copy.  The four
    # level counts, one with an empty level, merge equal states after
    # each of four levels thins
    samples, seeds = 20_000, range(8)
    exact = markov_success(counts)
    p = np.concatenate([exact.win_prob, [exact.draw_prob], exact.fail_prob])
    cells = p > 0
    can_fail = (np.array(counts) >= 2) & (sum(counts) - np.array(counts) >= 2)
    assert cells.sum() == 1 + np.count_nonzero(counts) + can_fail.sum()
    expected = samples * p[cells]
    assert (expected > 5).all()
    statistic = 0.0
    for seed in seeds:
        res = sample_success(counts, samples=samples, seed=seed)
        observed = samples * np.concatenate([res.win_prob, [res.draw_prob], res.fail_prob])
        assert not observed[~cells].any()
        statistic += float((((observed[cells] - expected) ** 2) / expected).sum())
    assert chi2.sf(statistic, len(seeds) * (cells.sum() - 1)) > 1e-3


@pytest.mark.parametrize("samples", [1, 7, 12_345])
@pytest.mark.parametrize("counts", [(5, 3), (2, 1, 1), (3, 0)])
def test_sampler_probabilities_are_multiples_of_one_over_samples(counts, samples):
    res = sample_success(counts, samples=samples, seed=11)
    probs = np.concatenate([res.win_prob, [res.draw_prob], res.fail_prob])
    hits = np.rint(probs * samples)
    assert np.array_equal(hits / samples, probs)
    assert hits.sum() == samples


def test_sampler_same_seed_same_result():
    def run(seed):
        res = sample_success((12, 9, 7), samples=5_000, seed=seed)
        return np.concatenate([res.win_prob, [res.draw_prob], res.fail_prob])

    assert np.array_equal(run(42), run(42))
    seq = (4, 2)
    assert np.array_equal(run(np.random.SeedSequence(seq)), run(np.random.SeedSequence(seq)))
    assert not np.array_equal(run(42), run(43))


def test_sampler_rejects_bad_inputs_before_sampling():
    start = time.perf_counter()
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            sample_success((5, 3), samples=samples)
    with pytest.raises(ValueError, match="non-negative"):
        sample_success((5, -1))
    with pytest.raises(ValueError, match="non-empty"):
        sample_success(())
    with pytest.raises(ValueError, match="past int64"):
        sample_success((10**9,) * 3)
    with pytest.raises(TypeError):
        sample_success((5, 3), samples=2.5)
    assert time.perf_counter() - start < 1.0


def test_sampler_raises_past_its_round_cap(monkeypatch):
    # two levels beep in the first round, so no sample ends within one round
    monkeypatch.setattr(analysis, "MAX_SAMPLE_ROUNDS", 1)
    with pytest.raises(RuntimeError, match="absorption not reached within 1 rounds"):
        sample_success((5, 3), samples=10)


@pytest.mark.parametrize("counts", [(10**9,) * 3, (1,) * 20, (2,) * 18 + (0,) * 9])
def test_sampler_refuses_keys_past_int64(counts):
    # a state key has the digits 3 (n_k + 2) over the levels with nodes:
    # 9^20 and 12^18 pass int64, and the refusal comes before any sampling.
    # 9^19 fits, and empty levels add no digit
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError) as err:
            sample_success(counts, samples=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"counts {counts} need sampler keys past int64"
    assert time.perf_counter() - start < 1.0
    assert peak < 10**6
    assert sample_success((1,) * 19 + (0,) * 60, samples=10).total() == pytest.approx(1.0)


@pytest.mark.parametrize(
    "counts",
    [(5, 3), (0,), (0, 0), (999,), (998, 0), (1,) * 16, (0,) * 80 + (2, 3), (2.0, 3.0)]
    + [(2,) * 10, (1,) * 17, (-1,), (np.inf, 3), (), (5, -1), ((1, 2),), (2.5, 3)],
)
def test_markov_and_sampler_refuse_the_same_inputs(counts):
    # the count checks are shared: either both refuse with the same
    # message, or both solve (the sampler on one sample, checking only
    # that it runs).  Each function's size guard is its own (the markov
    # guard test, and the sampler's int64 key test); these inputs lie
    # within both.  The two once split on (1,) * 16, which a second solve
    # guard refused, and on 82 levels, past numpy's 64 dimensions in the
    # sampler's state index; the sampler now drops the 80 empty levels
    errors = []
    for solve in (markov_success, functools.partial(sample_success, samples=1)):
        try:
            solve(counts)
        except ValueError as err:
            errors.append(str(err))
        else:
            errors.append(None)
    assert errors[0] == errors[1]


@pytest.mark.parametrize("counts", [(2.5, 3), (2.7, 3), (3, 1e-9), (np.nan, 3), (np.inf, 3)])
def test_counts_must_be_whole_numbers(counts):
    # truncating solved (2, 3) instead: the two-event bound of (2.7, 3) read 0.46875
    for solve in (markov_success, sample_success, lower_bound_two_event):
        with pytest.raises(ValueError, match="counts must be whole numbers"):
            solve(counts)


def test_whole_float_counts_solve_as_integers():
    assert lower_bound_two_event((2.0, 3.0)) == lower_bound_two_event((2, 3))
    exact, ref = markov_success(np.array([2.0, 3.0])), markov_success((2, 3))
    assert exact.win_prob.tolist() == ref.win_prob.tolist()


def test_sampler_memory_is_linear_in_samples():
    # at most 96 bytes per sample and level (about 35 measured); rows with
    # few copies are drawn copy by copy, and no table is built
    counts, samples = (300, 700), 10**5
    tracemalloc.start()
    try:
        assert sample_success(counts, samples=samples, seed=1).total() == pytest.approx(1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * samples * len(counts)


def _sum_ordered_dp(counts, p, rule=_halting_by_rule):
    """Reference solver in exact rational arithmetic: the same recursion,
    with its own halting rule unless given one, visiting states in
    ascending total order, at survival probability p.  It returns the win
    probability per level, the draw probability, then the fail probability
    per level: a win for m with one straggler off m fails when none of
    its c + 1 beepers survives, chance (1 - p)^(c + 1), unless the
    straggler is the only node off m."""
    k = len(counts)
    value = {}
    for state in sorted(itertools.product(*(range(c + 1) for c in counts)), key=sum):
        kind = rule(state)
        if kind >= 0:
            value[state] = [Fraction(int(i == kind)) for i in range(2 * k + 1)]
            alive = sum(a > 0 for a in state)
            if alive == 2 and sum(counts) - counts[kind] > 1:
                fail = (1 - p) ** (state[kind] + 1)
                value[state][kind], value[state][k + 1 + kind] = 1 - fail, fail
            continue
        acc = [Fraction(0)] * (2 * k + 1)
        for target in itertools.product(*(range(a + 1) for a in state)):
            if target == state:
                continue  # the self-loop, folded in below
            weight = math.prod(
                math.comb(a, j) * p**j * (1 - p) ** (a - j) for a, j in zip(state, target)
            )
            acc = [x + weight * v for x, v in zip(acc, value[target])]
        value[state] = [x / (1 - p ** sum(state)) for x in acc]
    return value[tuple(counts)]


@pytest.mark.parametrize(
    "counts", [(1, 1), (5, 7), (9, 4), (0, 6), (3, 4, 2), (5, 1, 3), (2, 2, 2), (6, 0, 4)]
)
@pytest.mark.parametrize("p", [SURVIVAL_PROB])  # the one survival probability the chain has
def test_markov_matches_sum_ordered_dp_bit_for_bit(counts, p):
    """Every probability lies within 1e-15 of the exact rational chain.

    The name is kept from when the reference was a float DP pinned bit
    for bit; that pinned one summation order, which a vectorised solve
    does not keep.  A solver that reads a state before solving it is off
    by far more than the few-ulp rounding this allows.
    """
    res = markov_success(counts)
    ref = _sum_ordered_dp(counts, Fraction(p))
    got = [Fraction(x) for x in (*res.win_prob, res.draw_prob, *res.fail_prob)]
    assert max(abs(g - r) for g, r in zip(got, ref)) <= Fraction(1, 10**15)
    assert sum(ref) == 1


def test_markov_matches_rational_chain_on_every_small_count():
    """Every count vector with K in {1, 2, 3} and at most 7 nodes, K = 4
    and at most 6, or K = 5 and at most 5: the capped-count sweep lies
    within 1e-15 of the full chain, halting rule and straggler failure
    included, solved state by state in exact rationals."""
    for k, most in ((1, 7), (2, 7), (3, 7), (4, 6), (5, 5)):
        for counts in itertools.product(range(most + 1), repeat=k):
            if sum(counts) > most:
                continue
            res = markov_success(counts)
            ref = _sum_ordered_dp(counts, Fraction(1, 2), rule=halting)
            got = [Fraction(x) for x in (*res.win_prob, res.draw_prob, *res.fail_prob)]
            assert max(abs(g - r) for g, r in zip(got, ref)) <= Fraction(1, 10**15), counts


def test_markov_level_order_does_not_matter():
    # the solve sorts the levels by count; any order of the same counts
    # gives the permuted win and fail probabilities and the same draw
    rng = np.random.default_rng(22)
    draws = [tuple(int(c) for c in rng.integers(0, 31, size=3)) for _ in range(5)]
    for counts in draws + [(12, 12, 0), (9, 9, 4), (30, 30, 30)]:
        ref = markov_success(counts)
        for perm in itertools.permutations(range(3)):
            res = markov_success(tuple(counts[i] for i in perm))
            assert np.abs(res.win_prob - ref.win_prob[list(perm)]).max() <= 1e-15
            assert np.abs(res.fail_prob - ref.fail_prob[list(perm)]).max() <= 1e-15
            assert res.draw_prob == ref.draw_prob
