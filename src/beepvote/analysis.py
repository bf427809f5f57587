"""Analytic toolkit for one corrosion phase.

Everything here reasons about the alive-count process: starting from
per-level counts (n_1, ..., n_K), every alive node independently stays
alive with probability 1/2 (SURVIVAL_PROB, as in DVB1) each round.  The
phase is settled the first time the counts form a halting pattern:

  win(m):  level m alone has survivors, or it has at least two while
           exactly one other level is down to a single survivor;
  draw:    no survivors anywhere.

`halting` is that rule, vectorised; every function below reads it.  It
reads a level's count only as 0, 1 or "two or more", so `markov_success`
computes the absorption probabilities by a forward sweep over counts
capped at two, a chain of at most 3^K states, stopped once the mass
still transient is provably below 2^-64; its transition weights are
closed forms in the level's count and the round, for all rounds at once.
`sample_success` estimates the same probabilities by simulation, as a
cross-check that shares only `halting` with the exact solve and alone
builds binomial tables (`binomial_table`): it keeps the ensemble as
distinct alive-count states with a number of copies each, merged after
each level thins, so one multinomial draw thins all copies of a state.
Both refuse, with the same checks, counts whose chain or tables exceed
MAX_MARKOV_STATES.
The closed-form lower bounds trade tightness for speed and are useful
for sizing experiments.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

SURVIVAL_PROB = 0.5  # chance that a beeping node may beep again next round
# markov_success and sample_success refuse, before allocating, counts
# whose full grid of prod(n_k + 1) alive-count states is larger than this
# (the sampler indexes states in it), or whose binomial tables
# ((n_k + 1)^2 floats per level) hold more entries in sum: the tables take
# at most 8 MB, and n_k <= 999 keeps markov_success's round-1 weights
# C(n, a) / C(n, 2) finite.  A markov_success call under the cap peaks near
# 127 MB of process RSS, the CLI's imports included, at (1,) * 12 + (2,) * 5,
# whose 995,328 capped states are the most the cap admits; (99, 99, 99)
# and (999,) stay under 70 MB (measured on one BLAS thread).
MAX_MARKOV_STATES = 10**6
# sample_success raises if some sample has not halted after this many rounds
# (a safety net: N alive nodes outlive R rounds with probability <= N 2^-R)
MAX_SAMPLE_ROUNDS = 10_000


def prop1_rounds(n: int, epsilon: float) -> int:
    """Rounds after which all n nodes are dead with probability at least
    1 - epsilon: ceil(log2(n / epsilon)), for survival probability 1/2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return math.ceil(math.log2(n / epsilon))


def binomial_table(n: int) -> np.ndarray:
    """(n + 1, n + 1) table of P(Binomial(a, 1/2) = j) at [a, j], 0 for j > a.

    Row a is half of row(a - 1) plus half of it shifted one column right:
    n vector steps, every term non-negative, so no cancellation."""
    table = np.zeros((n + 1, n + 1))
    table[0, 0] = 1.0
    for a in range(1, n + 1):
        prev = table[a - 1, :a]
        table[a, :a] = (1.0 - SURVIVAL_PROB) * prev
        table[a, 1 : a + 1] += SURVIVAL_PROB * prev
    return table


def _count_vector(counts) -> np.ndarray:
    raw = np.asarray(counts)  # integer dtypes need no check
    if raw.dtype.kind not in "biu" and not (np.isfinite(raw) & (np.trunc(raw) == raw)).all():
        raise ValueError("counts must be whole numbers")
    counts = raw.astype(np.int64, copy=False)
    if counts.ndim != 1 or len(counts) < 1:
        raise ValueError("counts must be a non-empty 1D vector")
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    return counts


def _checked_counts(counts, samples: int = 1) -> np.ndarray:
    """The count vector, once the inputs markov_success and sample_success
    share are checked: counts, samples >= 1, and a chain of at
    most MAX_MARKOV_STATES states whose binomial tables hold at most as
    many entries.  Raises ValueError before allocating either."""
    counts = _count_vector(counts)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    shape = tuple(int(c) + 1 for c in counts)
    state_count = math.prod(shape)
    if state_count > MAX_MARKOV_STATES:
        raise ValueError(
            f"counts {tuple(int(c) for c in counts)} span {state_count} chain states, "
            f"above the limit of {MAX_MARKOV_STATES}"
        )
    table_size = sum(s * s for s in shape)
    if table_size > MAX_MARKOV_STATES:
        raise ValueError(
            f"counts {tuple(int(c) for c in counts)} need {table_size} binomial table "
            f"entries, above the limit of {MAX_MARKOV_STATES}"
        )
    return counts


def halting(alive) -> np.ndarray:
    """Halting rule along the last axis of alive-count vectors: the
    0-based winning level, K for a draw, or -1 for a transient state.
    A state is a win when exactly one level has survivors, or exactly two
    do and exactly one of them is down to 1; the winner is the larger."""
    alive = np.asarray(alive)
    k = alive.shape[-1]
    levels = (alive > 0).sum(axis=-1)
    singles = (alive == 1).sum(axis=-1)
    win = (levels == 1) | ((levels == 2) & (singles == 1))
    return np.where(levels == 0, k, np.where(win, alive.argmax(axis=-1), -1))


@dataclass(frozen=True)
class MarkovResult:
    win_prob: np.ndarray  # per level, index 0 holding level 1
    draw_prob: float

    def total(self) -> float:
        return float(self.win_prob.sum() + self.draw_prob)


def markov_success(counts) -> MarkovResult:
    """Exact absorption probabilities of the alive-count chain, swept
    forward over alive counts capped at two.

    `halting` reads a level's alive count only as 0, 1 or "two or more",
    and a count only falls, so a level now at two or more has been there
    every round so far and a level at 1 holds exactly one node.  Each
    capped count min(A_k, 2) is therefore a Markov chain of its own: 0
    stays; 1 stays or falls to 0, each with probability 1/2; two or more
    at round r moves to x with P(A_k(r) >= 2, A_k(r + 1) = x) /
    P(A_k(r) >= 2) under A_k(r) ~ Binomial(n_k, 2^-r), in closed form for
    all rounds at once (`_capped_steps`; no binomial table is built).
    Levels thin independently, so the joint chain has prod(min(n_k + 1, 3))
    states.  Levels with no nodes are dropped and the rest ordered by
    count, so every order of the same counts takes the same float steps.

    The sweep starts with all mass on the start state.  Each round it adds
    the mass on halting states to their tally (an absorbing start is
    tallied at round 0), then moves the rest one level at a time; the
    tally is summed by outcome at the end.  A transient state has at least
    two nodes alive, and a given pair outlives R rounds with probability
    4^-R, so the mass still transient after R rounds is at most
    C(N, 2) 4^-R for N = sum(n_k) nodes; R is the least round count that
    makes this bound at most 2^-64.  Inputs are refused before anything is
    allocated, by the check sample_success runs (`_checked_counts`).
    """
    counts = _checked_counts(counts)
    k = len(counts)
    # levels with no nodes never change the chain: keep the rest (or one)
    perm = np.argsort(counts, kind="stable")[-max(1, np.count_nonzero(counts)) :]
    pairs = math.comb(int(counts.sum()), 2) << 64
    rounds = ((pairs - 1).bit_length() + 1) // 2  # least R with C(N, 2) 4^-R <= 2^-64
    steps = [_capped_steps(int(n), rounds) for n in counts[perm]]
    shape = tuple(len(s[0]) for s in steps)
    kind = halting(np.moveaxis(np.indices(shape, dtype=np.int8), 0, -1)).ravel()
    stop = np.flatnonzero(kind >= 0)
    outcome = np.append(perm, k)[kind[stop]]  # the caller's level order, draw last
    mass = np.zeros(len(kind))
    mass[-1] = 1.0  # the start: every level at min(n_k, 2), the grid's last state
    absorbed = mass[stop]
    for r in range(rounds):
        mass[stop] = 0.0
        # moving the leading level appends it as the last axis, so one move
        # per level restores the level order
        for step in steps:
            mass = mass.reshape(len(step[r]), -1).T @ step[r]
        mass = mass.ravel()
        absorbed += mass[stop]
    out = np.bincount(outcome, absorbed, minlength=k + 1)
    return MarkovResult(win_prob=out[:k], draw_prob=float(out[k]))


def _capped_steps(n: int, rounds: int) -> np.ndarray:
    """(rounds, s, s) transition matrices of min(A, 2), s = min(n + 1, 3),
    from round r to r + 1, where A(r) ~ Binomial(n, 2^-r) is one level's
    alive count.  Round 0 has A = n; for r >= 1 the "two or more" row
    weighs each a >= 2 by P(A(r) = a) / P(A(r) = 2) = C(n, a) / C(n, 2)
    t^(a - 2), t = 1 / (2^r - 1) (one cumprod for all rounds), and splits
    it as Binomial(a, 1/2) falls to 0, 1 or "two or more".  No term is
    negative, so nothing cancels; n <= 999 keeps the weights finite."""
    steps = np.zeros((rounds, 3, 3))
    steps[:, 0, 0] = 1.0
    steps[:, 1, :2] = 1.0 - SURVIVAL_PROB, SURVIVAL_PROB
    if n >= 2:
        a = np.arange(2, n + 1)
        p0 = SURVIVAL_PROB**a  # P(Binomial(a, 1/2) = 0); P(... = 1) is a * p0
        capped = np.column_stack([p0, a * p0, 1.0 - (1 + a) * p0])
        ratio = np.outer(1.0 / (2.0 ** np.arange(1, rounds) - 1.0), (n + 1 - a) / a)
        ratio[:, 0] = 1.0  # weights relative to a = 2; then P(A = a) / P(A = a - 1)
        joint = np.vstack([capped[-1], np.cumprod(ratio, axis=1) @ capped])
        steps[:, 2] = joint / joint.sum(axis=1, keepdims=True)
    s = min(n + 1, 3)
    return steps[:, :s, :s]


def sample_success(counts, samples: int = 10**6, seed=0) -> MarkovResult:
    """Monte-Carlo estimate of the same absorption probabilities, used to
    cross-check markov_success: it simulates the thinning process, shares
    only `halting` with the exact solve and alone calls `binomial_table`.

    The ensemble is kept as its distinct alive-count states plus the
    number of samples in each (`copies`); the histogram of independent
    chains is itself a Markov chain, so the estimate has the distribution
    of `samples` chains simulated one by one.  Each round tallies the
    halting states, thins the rest one level at a time (levels thin
    independently given the state) and merges equal states after each
    level, so the next level thins distinct states only.  A state with
    more copies than the level's support width draws how many copies keep
    each survivor count in one multinomial over binomial_table rows; any
    other is drawn copy by copy, so memory stays O(samples * K).  Inputs
    are checked as markov_success checks them, plus samples >= 1; it
    raises RuntimeError if some sample has not halted after
    MAX_SAMPLE_ROUNDS rounds.
    """
    samples = operator.index(samples)
    counts = _checked_counts(counts, samples)
    # a state's index in the row-major grid of prod(n_k + 1) <= MAX_MARKOV_STATES
    # states; numpy's ravel_multi_index would stop at 64 levels
    shape = counts + 1
    strides = np.array([math.prod(shape[d + 1 :]) for d in range(len(shape))], dtype=np.int64)
    k = len(counts)
    # columns reversed: numpy's multinomial gives its leftover to the last
    # column, which must be "0 survivors"; the zero padding then comes first
    tables = [binomial_table(int(n_i))[:, ::-1] for n_i in counts]
    rng = np.random.default_rng(seed)
    states = counts[None, :]
    copies = np.array([samples], dtype=np.int64)
    tally = np.zeros(k + 1, dtype=np.int64)
    for _ in range(MAX_SAMPLE_ROUNDS):
        kind = halting(states)
        done = kind >= 0
        tally += np.bincount(kind[done], weights=copies[done], minlength=k + 1).astype(np.int64)
        states, copies = states[~done], copies[~done]
        if len(copies) == 0:
            break
        for axis in range(k):
            states, copies = _thin_axis(states, copies, axis, tables[axis], rng)
            flat, where = np.unique(states @ strides, return_inverse=True)
            copies = np.bincount(where, weights=copies).astype(np.int64)
            states = flat[:, None] // strides % shape
    else:
        raise RuntimeError(f"absorption not reached within {MAX_SAMPLE_ROUNDS} rounds")
    return MarkovResult(win_prob=tally[:k] / samples, draw_prob=float(tally[k] / samples))


def _thin_axis(states, copies, axis: int, table: np.ndarray, rng):
    """One round's survivors at one level for every copy of every state,
    as (states, copies) rows; equal rows are not merged.  `table` is a
    binomial_table with its columns reversed."""
    alive = states[:, axis]
    width = int(alive.max()) + 1
    bulk = copies > width
    # the multinomial draw holds rows * width < samples entries, the
    # per-copy draw one entry per copy: O(samples) either way
    rows = np.flatnonzero(bulk)
    drawn = rng.multinomial(copies[rows], table[alive[rows], -width:])
    row, col = np.nonzero(drawn)
    bulk_states = states[rows[row]]
    bulk_states[:, axis] = width - 1 - col
    each = np.repeat(np.flatnonzero(~bulk), copies[~bulk])
    single_states = states[each]
    single_states[:, axis] = rng.binomial(single_states[:, axis], SURVIVAL_PROB)
    return (
        np.concatenate([bulk_states, single_states]),
        np.concatenate([drawn[row, col], np.ones(len(each), dtype=np.int64)]),
    )


def lower_bound_two_event(counts) -> float:
    """Lower bound on one-phase success for the strict plurality level.

    For each round horizon r it combines the chance that at least two
    plurality nodes outlive round r with the chance that the other nodes
    are down to at most one straggler by then (plus the boundary term
    where the plurality itself is the single survivor), and takes the
    best horizon r in 0..prop1_rounds(N, 1e-6).  Every node outlives r
    rounds independently with chance 2^-r, so the other levels enter
    only through their total N - n_m: the bound of (34, 20, 6) is that
    of (34, 26).
    """
    counts = _count_vector(counts)
    if counts.sum() < 1:
        raise ValueError("counts must include at least one node")
    top = counts.max()
    if np.count_nonzero(counts == top) != 1:
        raise ValueError("counts must have a strict plurality level")
    n_m, rest = int(top), int(counts.sum() - top)
    pr = SURVIVAL_PROB ** np.arange(prop1_rounds(n_m + rest, 1e-6) + 1)
    q = 1.0 - pr  # 0 at r = 0, where 0**0 reads 1
    p_single_m = n_m * pr * q ** (n_m - 1)
    p_two = 1.0 - (q**n_m + p_single_m)  # >= 2 plurality survivors
    all_dead = q**rest
    one_left = rest * pr * q ** max(rest - 1, 0)  # 0 when rest = 0
    return float(np.max(p_two * (all_dead + one_left) + p_single_m * all_dead))


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
