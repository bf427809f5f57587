"""Analytic toolkit for one corrosion phase.

Everything here reasons about the alive-count process: starting from
per-level counts (n_1, ..., n_K), every alive node independently stays
alive with probability p each round.  The phase is considered settled
the first time the counts form a halting pattern:

  win(m):  level m alone has survivors, or it has at least two while
           exactly one other level is down to a single survivor;
  draw:    no survivors anywhere.

`halting` is that rule, vectorised; every function below reads it.
`markov_success` solves the absorption probabilities exactly;
`sample_success` estimates them by direct simulation and exists as an
independent cross-check.  The closed-form lower bounds trade tightness
for speed and are useful for sizing experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

# markov_success holds (K + 1) float64 values and K int64 counts per
# state and visits every state in a Python loop; past this many states it
# would take gigabytes and minutes, so it refuses
MAX_MARKOV_STATES = 10**6
# sample_success raises if some sample has not halted after this many rounds
MAX_SAMPLE_ROUNDS = 10_000


def prop1_rounds(n: int, epsilon: float) -> int:
    """Rounds after which all n nodes are dead with probability at least
    1 - epsilon: ceil(log2(n / epsilon)), for survival probability 1/2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return math.ceil(math.log2(n / epsilon))


def _count_vector(counts) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or len(counts) < 1:
        raise ValueError("counts must be a non-empty 1D vector")
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    return counts


def halting(alive) -> np.ndarray:
    """Halting rule along the last axis of alive-count vectors: the
    0-based winning level, K for a draw, or -1 for a transient state."""
    alive = np.asarray(alive, dtype=np.int64)
    k = alive.shape[-1]
    order = -np.sort(-alive, axis=-1)
    none = np.zeros(alive.shape[:-1], dtype=np.int64)
    c1 = order[..., 0]
    c2 = order[..., 1] if k > 1 else none
    c3 = order[..., 2] if k > 2 else none
    win = (c1 > 0) & ((c2 == 0) | ((c1 >= 2) & (c2 == 1) & (c3 == 0)))
    return np.where(c1 == 0, k, np.where(win, alive.argmax(axis=-1), -1))


@dataclass(frozen=True)
class MarkovResult:
    win_prob: np.ndarray  # per level, index 0 holding level 1
    draw_prob: float

    def total(self) -> float:
        return float(self.win_prob.sum() + self.draw_prob)


def markov_success(counts, p: float = 0.5) -> MarkovResult:
    """Exact absorption probabilities of the alive-count chain.

    Dynamic programming over the grid of states dominated componentwise
    by the initial counts, in C order: every transition out of a
    transient state except the self-loop goes to a state it dominates
    componentwise, which comes earlier in lexicographic order, so each
    state only needs already-solved ones plus a self-loop
    renormalization by 1 / (1 - p^total).  The state space has
    prod(n_k + 1) points, which is fine at desk scale but grows quickly
    with the level count; above MAX_MARKOV_STATES it raises ValueError.
    """
    counts = _count_vector(counts)
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    state_count = math.prod(int(c) + 1 for c in counts)
    if state_count > MAX_MARKOV_STATES:
        raise ValueError(
            f"counts {tuple(int(c) for c in counts)} span {state_count} chain states, "
            f"above the limit of {MAX_MARKOV_STATES}"
        )
    k = len(counts)
    # pmfs[i][a, j] = P(Binomial(a, p) = j), rows 0..n_i
    pmfs = []
    for n_i in counts:
        grid = np.arange(n_i + 1)
        pmfs.append(stats.binom.pmf(grid[None, :], grid[:, None], p))
    shape = tuple(int(c) + 1 for c in counts)
    kind = halting(np.moveaxis(np.indices(shape), 0, -1))
    # halting states hold their one-hot outcome; transient ones start at 0
    value = (kind[..., None] == np.arange(k + 1)).astype(np.float64)
    for state in np.ndindex(*shape):
        if kind[state] >= 0:
            continue
        sub = value[tuple(slice(0, a + 1) for a in state)]
        for axis, a in enumerate(state):
            sub = np.tensordot(pmfs[axis][a, : a + 1], sub, axes=(0, 0))
        value[state] = sub / (1.0 - p ** sum(state))
    out = value[tuple(int(c) for c in counts)]
    return MarkovResult(win_prob=out[:k].copy(), draw_prob=float(out[k]))


def sample_success(counts, p: float = 0.5, samples: int = 10**6, seed=0) -> MarkovResult:
    """Monte-Carlo estimate of the same absorption probabilities by
    simulating the thinning process directly.  It shares only the
    `halting` rule with markov_success; used to cross-check it."""
    counts = _count_vector(counts)
    k = len(counts)
    rng = np.random.default_rng(seed)
    alive = np.tile(counts, (samples, 1))
    win = np.zeros(k, dtype=np.int64)
    draw = 0
    active = np.arange(samples)
    for _ in range(MAX_SAMPLE_ROUNDS):
        h = halting(alive[active])
        win += np.bincount(h[(h >= 0) & (h < k)], minlength=k)
        draw += int((h == k).sum())
        active = active[h < 0]
        if len(active) == 0:
            break
        alive[active] = rng.binomial(alive[active], p)
    if len(active):
        raise RuntimeError(f"absorption not reached within {MAX_SAMPLE_ROUNDS} rounds")
    return MarkovResult(win_prob=win / samples, draw_prob=draw / samples)


def lower_bound_two_event(counts, p: float = 0.5) -> float:
    """Lower bound on one-phase success for the strict plurality level.

    For each round horizon r it combines the chance that at least two
    plurality nodes outlive round r with the chance that every other
    level is down to at most one straggler by then (plus the boundary
    term where the plurality itself is the single survivor), and takes
    the best horizon r in 0..prop1_rounds(N, 1e-6).
    """
    counts = _count_vector(counts)
    if counts.sum() < 1:
        raise ValueError("counts must include at least one node")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    top = counts.max()
    winners = np.flatnonzero(counts == top)
    if len(winners) != 1:
        raise ValueError("counts must have a strict plurality level")
    m = int(winners[0])
    r_max = prop1_rounds(int(counts.sum()), 1e-6)
    n_m = int(counts[m])
    others = np.delete(counts, m).astype(np.float64)
    best = 0.0
    for r in range(r_max + 1):
        pr = p**r
        q = 1.0 - pr
        # P(>= 2 plurality survivors after r rounds)
        p_two = 1.0 - (q**n_m + n_m * pr * q ** (n_m - 1))
        # all other levels extinct, or exactly one straggler among them
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


def lower_bound_closed(n_m: int, n_m2: int, level_count: int) -> float:
    """Closed-form lower bound for plurality count n_m against runner-up
    count n_m2 over level_count levels:

        (1 - exp(-sqrt(n_m / n_m2))) * exp(-(K - 1) n_m2 / (sqrt(n_m n_m2) - 1))

    Requires sqrt(n_m * n_m2) > 1.
    """
    if n_m < 1 or n_m2 < 1:
        raise ValueError("counts must be >= 1")
    if n_m <= n_m2:
        raise ValueError("plurality count must exceed the runner-up count")
    if level_count < 2:
        raise ValueError("level count must be >= 2")
    root = math.sqrt(n_m * n_m2)
    if root <= 1.0:
        raise ValueError("sqrt(n_m * n_m2) must exceed 1")
    return (1.0 - math.exp(-math.sqrt(n_m / n_m2))) * math.exp(
        -(level_count - 1) * n_m2 / (root - 1.0)
    )


def corollary_ratio(level_count: int, epsilon: float) -> float:
    """Plurality ratio n_m / n_m2 above which the closed-form recipe
    targets success probability 1 - epsilon:

        (1/4) * (ln(1 - eps) + sqrt(ln(1 - eps)^2 + 4 K))^2

    evaluated in the cancellation-free form 4 K^2 / (s + |ln(1 - eps)|)^2
    with s = sqrt(ln(1 - eps)^2 + 4 K), which stays finite as eps -> 1.
    """
    if level_count < 2:
        raise ValueError("level count must be >= 2")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    log1m = math.log1p(-epsilon)  # negative
    s = math.sqrt(log1m * log1m + 4.0 * level_count)
    # ln + s == 4K / (s - ln), so the square avoids catastrophic cancellation
    return (2.0 * level_count / (s - log1m)) ** 2
