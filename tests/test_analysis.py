"""Frozen-value checks for the closed forms and the exact absorption solver.

Reference numbers were computed with an independent implementation of each
formula and by hand where tractable.
"""

import numpy as np
import pytest
from scipy import stats

from beepvote.analysis import (
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
    with pytest.raises(ValueError):
        lower_bound_two_event((50, 50))


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
    with pytest.raises(ValueError):
        lower_bound_closed(1, 1, 2)


def test_corollary_ratio_values():
    assert corollary_ratio(2, 0.1) == pytest.approx(1.856445, abs=1e-6)
    assert corollary_ratio(3, 0.1) == pytest.approx(2.822976, abs=1e-6)
    assert corollary_ratio(3, 0.1) > corollary_ratio(2, 0.1)


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
    res = markov_success((1, 1), 0.5)
    assert abs(res.win_prob[0] - 1 / 3) < 1e-12
    assert abs(res.win_prob[1] - 1 / 3) < 1e-12
    assert abs(res.draw_prob - 1 / 3) < 1e-12


def test_markov_frozen_values():
    res = markov_success((45, 55), 0.5)
    assert res.win_prob[1] == pytest.approx(0.539645, abs=1e-6)
    res = markov_success((90, 10), 0.5)
    assert res.win_prob[0] == pytest.approx(0.965103, abs=1e-6)
    assert res.win_prob[1] == pytest.approx(0.026200, abs=1e-6)
    assert res.draw_prob == pytest.approx(0.008697, abs=1e-6)
    res = markov_success((50, 33, 17), 0.5)
    assert res.win_prob[0] == pytest.approx(0.496726, abs=1e-6)
    assert res.draw_prob == pytest.approx(0.109936, abs=1e-6)


def test_markov_degenerate_start():
    for n in (1, 2, 7):
        res = markov_success((n, 0), 0.5)
        assert res.win_prob[0] == pytest.approx(1.0)
        assert res.draw_prob == pytest.approx(0.0)


def test_markov_probabilities_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(2, 4))
        counts = tuple(int(c) for c in rng.integers(0, 60, size=k))
        if sum(counts) == 0:
            counts = (1,) + counts[1:]
        res = markov_success(counts, 0.5)
        assert abs(sum(res.win_prob) + res.draw_prob - 1.0) < 1e-12


def test_markov_binary_symmetry():
    a = markov_success((30, 70), 0.5)
    b = markov_success((70, 30), 0.5)
    assert a.win_prob[0] == pytest.approx(b.win_prob[1], abs=1e-12)
    assert a.draw_prob == pytest.approx(b.draw_prob, abs=1e-12)


def test_sampler_matches_exact_chain():
    exact = markov_success((30, 70), 0.5)
    sampled = sample_success((30, 70), samples=2 * 10**5, seed=608)
    assert abs(sampled.win_prob[0] - exact.win_prob[0]) < 0.005
    assert abs(sampled.win_prob[1] - exact.win_prob[1]) < 0.005
    assert abs(sampled.draw_prob - exact.draw_prob) < 0.005


def _sum_ordered_dp(counts, p):
    """Reference absorption solver: the same recursion, with its own
    halting rule, visiting states in ascending total order."""
    k = len(counts)
    pmfs = []
    for n_i in counts:
        grid = np.arange(n_i + 1)
        pmfs.append(stats.binom.pmf(grid[None, :], grid[:, None], p))
    value = np.zeros(tuple(c + 1 for c in counts) + (k + 1,))
    for state in sorted(np.ndindex(*[c + 1 for c in counts]), key=sum):
        order = sorted(state, reverse=True) + [0, 0]
        if order[0] == 0:
            value[state + (k,)] = 1.0
            continue
        if order[1] == 0 or (order[0] >= 2 and order[1] == 1 and order[2] == 0):
            value[state + (int(np.argmax(state)),)] = 1.0
            continue
        sub = value[tuple(slice(0, a + 1) for a in state)]
        for axis, a in enumerate(state):
            sub = np.tensordot(pmfs[axis][a, : a + 1], sub, axes=(0, 0))
        value[state] = sub / (1.0 - p ** sum(state))
    return value[tuple(counts)]


@pytest.mark.parametrize(
    "counts", [(1, 1), (5, 7), (9, 4), (0, 6), (3, 4, 2), (5, 1, 3), (2, 2, 2), (6, 0, 4)]
)
@pytest.mark.parametrize("p", [0.5, 0.3])
def test_markov_matches_sum_ordered_dp_bit_for_bit(counts, p):
    res = markov_success(counts, p)
    ref = _sum_ordered_dp(counts, p)
    k = len(counts)
    assert np.array_equal(res.win_prob, ref[:k])
    assert res.draw_prob == ref[k]
