"""DVB1: distributed plurality voting by corrosion rounds.

The run alternates corrosion phases with a relay-wave termination check.
A corrosion phase is T rounds of K slots, one slot per level.  In round
j, every node still allowed to beep announces its level in that level's
slot and then survives the round with probability 1/2; every node records,
per level, whether any neighbor beeped in that slot.  A node that heard
exactly one level at the end of a round adopts it (dead nodes keep
listening and adopting; they only stop beeping).  Once a round's beeps
hold at most one level m, the phase's values are final: every survivor
holds m, and a node next to a survivor was next to a beeper of that round
and adopted m.  The rest of the phase only draws survival coins, so it is
fast-forwarded with the survivors' beeps.

Hear flags are defined as "some neighbor beeped in slot k" for beepers
and listeners alike, so a node beeping alongside a same-level neighbor
still raises its own level's flag.  This sender-side collision detection
is load-bearing: with strictly deaf beepers, two same-level nodes
beeping together would each see only the competing levels and a whole
majority spot could defect in one round.

Termination detection runs every d_sched phases and costs at most
(K - 1) periods of (d_sched + 1) slots.  In period k the level-k holders
beep once; any differently valued listener that hears them starts a
relay wave that floods the graph within d_sched hops, so all nodes agree
on the flag.  A fully silent check (no difference found anywhere) is the
unanimous stop signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analysis import SURVIVAL_PROB
from .engine import (
    FastForward,
    PhasedVoting,
    PhaseParams,
    SlotRequest,
    TrialResult,
    drive_schedule,
    run,
    slot_budget,
    termination_wave,
)
from .topology import Graph, LevelAssignment, hop_bound

C1_DEFAULT = 20.0  # rounds per phase are ceil(c1 * log2(N))


@dataclass(frozen=True)
class Dvb1Params(PhaseParams):
    """PhaseParams plus rounds_per_phase, ceil(c1 * log2(N)) clamped to
    at least 1."""

    rounds_per_phase: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rounds_per_phase < 1:
            raise ValueError("rounds per phase must be >= 1")

    @property
    def slots_per_phase(self) -> int:
        return self.rounds_per_phase * self.level_count


def dvb1_params(
    graph: Graph,
    level_count: int,
    c1: float = C1_DEFAULT,
    d_mode: str = "exact",
) -> Dvb1Params:
    if not (math.isfinite(c1) and c1 > 0):
        raise ValueError("c1 must be positive and finite")
    n = graph.node_count
    scaled = c1 * math.log2(n)
    if not math.isfinite(scaled):
        raise ValueError(f"c1 * log2(N) is not finite at c1={c1:g}, N={n}")
    rounds = max(1, math.ceil(scaled))
    return Dvb1Params(
        level_count=level_count, d_sched=hop_bound(graph, d_mode), rounds_per_phase=rounds
    )


@dataclass(frozen=True)
class TerminationOutcome:
    flags: tuple
    slots: int
    beeps: int

    @property
    def terminated(self) -> bool:
        return all(self.flags)


def termination_detection(
    graph: Graph, values, level_count: int, d_sched: int
) -> TerminationOutcome:
    """Run one standalone termination check and report the per-node flags
    along with its exact slot and beep counts; a check heard a beep
    somewhere exactly when it is not `terminated`.  values must be whole
    levels in 1..level_count, one per node, and d_sched >= 1, or it raises
    ValueError; a d_sched below the diameter can return split flags."""
    if d_sched < 1:
        raise ValueError("d_sched must be >= 1")
    values = LevelAssignment(values, level_count).values
    if values.shape != (graph.node_count,):
        raise ValueError("values length must match node count")
    wave = termination_wave(values, level_count, d_sched)
    slots, beeps, flags = drive_schedule(graph, wave)
    return TerminationOutcome(flags=tuple(flags.tolist()), slots=slots, beeps=beeps)


class Dvb1Automaton(PhasedVoting):
    """All-node lockstep automaton for a full DVB1 run.

    `allowed` marks the nodes that may still beep in the current phase."""

    def phase(self):
        """Slot events of one corrosion phase, updating values and allowed.

        Each round is one block of K slots, known when the round starts: a
        survival coin only silences its own node, so it cannot change who
        beeps in a later slot of the same round.  Coins are drawn for the
        beepers in level order, and in node order within a level, as a
        slot-by-slot run draws them: the beepers are the flat indices of
        the (K, N) beep block, level * N + node, so index // N is the
        level row and index % N the node.  The reply rows are the
        per-level hear flags, decoded with one float64 product: tally row
        0 counts the levels a node heard and row 1 sums them, so where
        exactly one was heard the sum is that level, and the node adopts
        it.  Both sums are whole numbers at most K(K+1)/2, which float64
        holds exactly.  Once nobody
        survives a round, or its beeps hold at most one level m, the
        later rounds change no value: every survivor holds m, and its
        neighbors heard only m this round and adopted m.  They only draw
        the survivors' coins, in node order, and are fast-forwarded with
        those beeps.

        Returns the 1-based round index at whose end all nodes were dead,
        or None if some node could still beep when the phase ended.
        """
        values = self.values
        n = self.graph.node_count
        level_count = self.params.level_count
        rounds = self.params.rounds_per_phase
        death = 1.0 - SURVIVAL_PROB
        tally, levels = self._tally_and_levels
        self.allowed = allowed = np.ones(n, dtype=bool)
        for j in range(rounds):
            beeps = (values == levels) & allowed
            beepers = np.flatnonzero(beeps)  # level order, then node order
            dying = self.rng.random(len(beepers)) < death
            allowed[beepers[dying] % n] = False
            flags = yield SlotRequest(beeps)
            heard, level = tally @ flags
            np.copyto(values, level, where=heard == 1, casting="unsafe")
            # every allowed node beeps, so nobody survived iff every beeper
            # died; the indices ascend, so one level beeped iff the first
            # and the last beeper share a level row
            if dying.all() or beepers[0] // n == beepers[-1] // n:
                break
        alive = np.flatnonzero(allowed)
        beep_count = 0
        done = j + 1  # rounds whose coins are drawn
        while done < rounds and len(alive):
            beep_count += len(alive)
            alive = alive[self.rng.random(len(alive)) >= death]
            done += 1
        allowed[:] = False
        allowed[alive] = True
        remaining = (rounds - j - 1) * level_count
        if remaining:
            yield FastForward(remaining, beep_count)
        return None if len(alive) else done

    @cached_property
    def _tally_and_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """The decode's tally rows [1, ..., 1] and [1, ..., K], and the (K, 1)
        column 1..K that a round's values are compared with; built once."""
        k = self.params.level_count
        return np.stack([np.ones(k), np.arange(1.0, k + 1)]), np.arange(1, k + 1)[:, None]


def dvb1_run(
    graph: Graph,
    assignment: LevelAssignment,
    params: Dvb1Params,
    seed=0,
    max_phases: int | None = None,
    trace=None,
) -> TrialResult:
    """Run DVB1 to unanimous termination (or a phase cap) and score the
    outcome against the assignment's strict plurality."""
    if max_phases is None:
        max_phases = 50 * params.d_sched
    automaton = Dvb1Automaton(graph, params, assignment, np.random.default_rng(seed), max_phases)
    return automaton.result(*run(graph, automaton, slot_budget(params, max_phases), trace))


@dataclass(frozen=True)
class OnePhaseResult:
    """Outcome of a single corrosion phase from a fresh assignment.

    success is true when every node ends the phase on the initial
    strict-plurality level; all_dead_round is the 1-based round by whose
    end no node could beep any more (None if some survivor remained)."""

    final_values: tuple
    success: bool | None
    all_dead_round: int | None
    slots: int
    beeps: int


def one_phase(
    graph: Graph,
    assignment: LevelAssignment,
    params: Dvb1Params,
    seed=0,
) -> OnePhaseResult:
    """Run exactly one corrosion phase with no termination slots."""
    automaton = Dvb1Automaton(graph, params, assignment, np.random.default_rng(seed), 1)
    slots, beeps, all_dead_round = drive_schedule(graph, automaton.phase())
    return OnePhaseResult(
        final_values=tuple(automaton.values.tolist()),
        success=automaton.success(),
        all_dead_round=all_dead_round,
        slots=slots,
        beeps=beeps,
    )
