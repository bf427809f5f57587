"""Analytic toolkit for one corrosion phase.

`markov_success` reasons about the alive-count process: starting from
per-level counts (n_1, ..., n_K), every alive node independently stays
alive with probability 1/2 (SURVIVAL_PROB, as in DVB1) each round.  The
phase is settled the first time the counts form a halting pattern:

  win(m):  level m alone has survivors, or it has at least two while
           exactly one other level is down to a single survivor;
  draw:    no survivors anywhere.

`halting` is that rule, vectorised.  A win with one straggler can still
fail: see `MarkovResult`.  `halting` reads a level's count only as 0, 1
or "two or more", so `markov_success` computes the outcome probabilities
by a forward sweep over counts capped at two, a chain of at most 3^K
states, stopped once the mass still transient is provably below 2^-64;
its transition weights are closed forms in the level's count and the
round, taken in log space, so N up to 10^6 solves (in about 1.6 s).
`sample_success` estimates the same probabilities by simulating the
protocol's own per-level value and alive counts on the complete graph
(`_round_moves`), never `halting`, so it observes the straggler failure
rather than deriving it.  Each function refuses, before allocating, the
inputs too large for what it builds.  The closed-form lower bounds trade
tightness for speed and are useful for sizing experiments.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

SURVIVAL_PROB = 0.5  # chance that a beeping node may beep again next round
# markov_success refuses counts whose capped chain of prod(min(n_k + 1, 3)) states
# or whose node total (weights cost O(N) per round; 10^6 take about 1.6 s) exceeds this
MAX_MARKOV_STATES = 10**6
# sample_success raises if some sample has not ended after this many rounds
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


def _occupied(counts: np.ndarray) -> np.ndarray:  # an empty level never beeps: drop it
    return np.argsort(counts, kind="stable")[-max(1, np.count_nonzero(counts)) :]


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
    """Outcome probabilities of one phase; win_prob and fail_prob are per
    level, index 0 holding level 1.  A phase that halts as a win for m
    with one straggler alive off m fails instead when none of the c + 1
    beepers at m outlives the next round: the dead nodes off m heard two
    levels, keep their values and never hear m alone (unless the
    straggler is the only node off m).  total() sums all outcomes."""

    win_prob: np.ndarray
    draw_prob: float
    fail_prob: np.ndarray

    def total(self) -> float:
        return float(self.win_prob.sum() + self.draw_prob + self.fail_prob.sum())


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

    An absorbing start returns its one-hot outcome before any step is
    built; any other starts the sweep with all mass on it.  Each round
    records the mass on halting states, then moves the rest one level at
    a time.  A win for m with a straggler fails with chance 2^-(c + 1)
    for the c >= 2 nodes alive at m (unless the straggler is the only
    node off m); given the chain, c at round r is A_m(r) given A_m(r) >=
    2, so that round's straggler mass fails in the share steps_m[r][2, 0]
    / 2, and the rest wins.  A transient state has at least two nodes
    alive, and a given pair outlives R rounds with probability 4^-R, so
    the mass still transient after R rounds is at most C(N, 2) 4^-R for
    N = sum(n_k) nodes; R is the least round count that makes this bound
    at most 2^-64.  Counts whose capped chain or node total exceeds
    MAX_MARKOV_STATES are refused before anything is allocated.
    """
    counts = _count_vector(counts)
    nodes, capped = int(counts.sum()), math.prod(min(int(c) + 1, 3) for c in counts)
    for size, what in ((capped, "span {} capped chain states"), (nodes, "hold {} nodes")):
        if size > MAX_MARKOV_STATES:
            raise ValueError(
                f"counts {tuple(counts.tolist())} {what.format(size)}, "
                f"above the limit of {MAX_MARKOV_STATES}"
            )
    k, perm = len(counts), _occupied(counts)
    levels = counts[perm]
    grid = np.moveaxis(np.indices([min(n + 1, 3) for n in levels.tolist()], dtype=np.int8), 0, -1)
    kind = halting(grid).ravel()
    stop = np.flatnonzero(kind >= 0)
    outcome = np.append(perm, k)[kind[stop]]  # the caller's level order, draw last
    if kind[-1] >= 0:  # an absorbing start: the grid's last state, every level at min(n_k, 2)
        out = np.eye(2 * k + 1)[outcome[-1]]
        return MarkovResult(win_prob=out[:k], draw_prob=float(out[k]), fail_prob=out[k + 1 :])
    pairs = math.comb(nodes, 2) << 64
    rounds = ((pairs - 1).bit_length() + 1) // 2  # least R with C(N, 2) 4^-R <= 2^-64
    steps = [_capped_steps(int(n), rounds + 1) for n in levels]
    # a win with two levels alive leaves one straggler off the winner m.
    # From round 1 on (at round 0 it is the only node off m) the phase
    # fails if none of the c + 1 beepers outlives the next round: a share
    # (1/2) E[2^-c] = steps_m[r][2, 0] / 2 of that round's mass
    straggle = (grid.reshape(-1, len(levels))[stop] > 0).sum(axis=1) == 2
    none_left = np.stack([s[1:, -1, 0] for s in steps], axis=1)  # [r - 1, level]
    share = (1.0 - SURVIVAL_PROB) * none_left[:, kind[stop[straggle]]]
    mass = np.zeros(len(kind))
    mass[-1] = 1.0  # the start
    absorbed = np.empty((rounds + 1, len(stop)))  # halting mass by round
    absorbed[0] = mass[stop]
    for r in range(rounds):
        mass[stop] = 0.0
        # moving the leading level appends it as the last axis, so one move
        # per level restores the level order
        for step in steps:
            mass = mass.reshape(len(step[r]), -1).T @ step[r]
        mass = mass.ravel()
        absorbed[r + 1] = mass[stop]
    failed = (absorbed[1:, straggle] * share).sum(axis=0)
    tally = absorbed.sum(axis=0)
    tally[straggle] -= failed
    out = np.bincount(outcome, tally, minlength=k + 1)
    fail = np.bincount(outcome[straggle], failed, minlength=k).astype(float)  # int if empty
    return MarkovResult(win_prob=out[:k], draw_prob=float(out[k]), fail_prob=fail)


def _capped_steps(n: int, rounds: int) -> np.ndarray:
    """(rounds, s, s) transition matrices of min(A, 2), s = min(n + 1, 3),
    from round r to r + 1, where A(r) ~ Binomial(n, 2^-r) is one level's
    alive count.  Round 0 has A = n; for r >= 1 the "two or more" row
    weighs each a >= 2 by P(A(r) = a) / P(A(r) = 2) = C(n, a) / C(n, 2)
    t^(a - 2), t = 1 / (2^r - 1), and splits it as Binomial(a, 1/2) falls
    to 0, 1 or "two or more".  The weights are taken in log space (one
    cumsum of log ratios, less each row's max), so they stay finite for
    any n; rounds go in blocks of MAX_MARKOV_STATES // n rows.  No term is
    negative, so nothing cancels."""
    steps = np.zeros((rounds, 3, 3))
    steps[:, 0, 0] = 1.0
    steps[:, 1, :2] = 1.0 - SURVIVAL_PROB, SURVIVAL_PROB
    if n >= 2:
        a = np.arange(2, n + 1)
        p0 = SURVIVAL_PROB**a  # P(Binomial(a, 1/2) = 0); P(... = 1) is a * p0
        capped = np.array([p0, a * p0, 1.0 - (1 + a) * p0]).T
        steps[0, 2] = capped[-1]
        ratio = np.log((n + 1 - a) / a)  # log P(A = a) / P(A = a - 1), less log t
        ratio[0] = 0.0  # weights relative to a = 2
        log_binom = np.cumsum(ratio)
        log_t = -np.log(2.0 ** np.arange(1, rounds) - 1.0)
        block = MAX_MARKOV_STATES // n
        for lo in range(0, rounds - 1, block):
            weight = log_binom + log_t[lo : lo + block, None] * (a - 2)
            weight -= weight.max(axis=1, keepdims=True)
            # exp slows near underflow; below e^-700 a weight adds nothing to a sum >= 1
            joint = np.exp(np.maximum(weight, -700.0, out=weight), out=weight) @ capped
            steps[lo + 1 : lo + 1 + block, 2] = joint / joint.sum(axis=1, keepdims=True)
    s = min(n + 1, 3)
    return steps[:, :s, :s]


def _round_moves(values, alive):
    """One DVB1 round on the complete graph before its coins, as (values, alive,
    ended) for rows of per-level value and alive counts.  A node hears each level
    with an alive node other than itself and adopts a level heard alone: if at
    most one level beeps, all adopt it (or the values stand) and the phase ends;
    if two, a level's lone beeper moves to the other (two lone ones swap)."""
    beeping = alive > 0
    heard = beeping.sum(axis=1, keepdims=True)
    lone = (alive == 1) & (heard == 2)
    shift = beeping * lone.sum(axis=1, keepdims=True) - 2 * lone
    values = np.where(heard == 1, beeping * values.sum(axis=1, keepdims=True), values + shift)
    return values, alive + shift, heard[:, 0] <= 1


def sample_success(counts, samples: int = 10**6, seed=0) -> MarkovResult:
    """Monte-Carlo estimate of the same outcome probabilities, used to
    cross-check markov_success: it simulates the protocol's own per-level
    value and alive counts (v_k, a_k) on the complete graph, never
    `halting`.  Each round applies `_round_moves` and then thins every a_k
    as Binomial(a_k, 1/2), until `_round_moves` ends the phase; a sample
    then scores as a win for m if unanimous on m, a draw if its values
    are the start's, else a fail for the level that gained a node.  A
    phase moves at most one node (after that, one level beeps and the
    next round ends it), so a state is one int64 key of the digits
    v_k - n_k + 1 < 3 and a_k < n_k + 2 over the levels with nodes.  The
    ensemble is its distinct keys with their number of samples
    (`copies`), merged as each level thins (`_thin`), in O(samples * K)
    memory at any N; the histogram of independent chains is itself a
    Markov chain, so the estimate has the law of `samples` separate runs.
    It refuses samples < 1 and, before sampling, counts whose keys pass
    int64; it raises RuntimeError if some sample has not ended after
    MAX_SAMPLE_ROUNDS rounds.
    """
    samples = operator.index(samples)
    counts = _count_vector(counts)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    k, perm = len(counts), _occupied(counts)
    start = counts[perm]
    radix = [3] * len(start) + [int(n) + 2 for n in start]
    if math.prod(radix) > np.iinfo(np.int64).max:
        raise ValueError(f"counts {tuple(counts.tolist())} need sampler keys past int64")
    strides = np.array([math.prod(radix[d + 1 :]) for d in range(len(radix))], dtype=np.int64)
    radix = np.array(radix, dtype=np.int64)
    offset = np.concatenate([start - 1, np.zeros_like(start)])
    # log j! up to the widest multinomial row _thin can draw, then +inf
    top = min(int(start.max()) + 2, 2 * samples)
    log_fact = np.append(np.cumsum(np.log(np.maximum(np.arange(top), 1))), np.full(top, np.inf))
    rng = np.random.default_rng(seed)
    keys = (np.concatenate([start, start]) - offset)[None] @ strides
    copies = np.array([samples], dtype=np.int64)
    ended_rows = []  # (values, copies) of the samples whose phase has ended
    for _ in range(MAX_SAMPLE_ROUNDS):
        state = keys[:, None] // strides % radix + offset
        values, alive, ended = _round_moves(state[:, : len(start)], state[:, len(start) :])
        ended_rows.append((values[ended], copies[ended]))
        copies = copies[~ended]
        if len(copies) == 0:
            break
        keys = (np.concatenate([values, alive], axis=1)[~ended] - offset) @ strides
        for level in range(len(start), len(radix)):
            keys, copies = _thin(keys, copies, strides[level], radix[level], log_fact, rng)
    else:
        raise RuntimeError(f"absorption not reached within {MAX_SAMPLE_ROUNDS} rounds")
    values, copies = (np.concatenate(part) for part in zip(*ended_rows))
    nodes = int(start.sum())
    fail = len(start) + 1 + (values - start).argmax(axis=1)
    outcome = np.where((values == start).all(axis=1), len(start), fail)
    outcome = np.where((values == nodes).any(axis=1) & (nodes > 0), values.argmax(axis=1), outcome)
    cells = np.concatenate([perm, [k], k + 1 + perm])  # wins, draw, fails in the caller's order
    tally = np.bincount(cells[outcome], copies, minlength=2 * k + 1) / samples
    return MarkovResult(win_prob=tally[:k], draw_prob=float(tally[k]), fail_prob=tally[k + 1 :])


def _thin(keys, copies, stride, radix, log_fact, rng):
    """One round's coins at one level for every copy of every key, equal keys
    merged.  A row is crowded when its copies pass half its a + 1 survivor
    counts; `width` is the widest crowded row's, and the rows with more
    than width / 2 copies draw all their copies in one multinomial (rows *
    width < 2 * samples entries).  Any other row is drawn copy by copy."""
    alive = keys // stride % radix
    keys = keys - stride * alive
    crowded = 2 * copies > alive + 1
    width = int(alive[crowded].max(initial=0)) + 1
    bulk = crowded & (2 * copies > width)
    rows = np.flatnonzero(bulk)
    seen = np.bincount(alive[rows], minlength=width) > 0
    pmf = _survivor_pmf(np.flatnonzero(seen), width, log_fact)
    drawn = rng.multinomial(copies[rows], pmf[np.cumsum(seen)[alive[rows]] - 1])
    row, col = np.nonzero(drawn)
    each = np.repeat(np.flatnonzero(~bulk), copies[~bulk])
    survivors = np.concatenate([width - 1 - col, rng.binomial(alive[each], SURVIVAL_PROB)])
    keys = keys[np.concatenate([rows[row], each])] + stride * survivors
    keys, where = np.unique(keys, return_inverse=True)
    copies = np.concatenate([drawn[row, col], np.ones(len(each), dtype=np.int64)])
    return keys, np.bincount(where, weights=copies).astype(np.int64)


def _survivor_pmf(alive, width: int, log_fact) -> np.ndarray:
    """Rows of P(Binomial(a, 1/2) = j) for each a in `alive`, with columns
    j = width - 1 down to 0: numpy's multinomial gives its leftover to the
    last column, "0 survivors".  Terms are log C(a, j) - a log 2 from
    log_fact (log j!, then +inf), so for j > a the negative index a - j
    lands in the +inf tail and weighs 0."""
    j = np.arange(width - 1, -1, -1)
    log_pmf = (log_fact[alive] - alive * math.log(2.0))[:, None] - log_fact[j]
    pmf = np.exp(log_pmf - log_fact[alive[:, None] - j])
    return pmf / pmf.sum(axis=1, keepdims=True)


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
