"""DVB1: distributed plurality voting by corrosion rounds.

The run alternates corrosion phases with a relay-wave termination check.
A corrosion phase is T rounds of K slots, one slot per level.  In round
j, every node still allowed to beep announces its level in that level's
slot and then survives the round with probability 1/2; every node records,
per level, whether any neighbor beeped in that slot.  A node that heard
exactly one level at the end of a round adopts it (dead nodes keep
listening and adopting; they only stop beeping).

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

import numpy as np

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

SURVIVAL_PROB = 0.5  # chance that a beeping node may beep again next round
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
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    n = graph.node_count
    rounds = max(1, math.ceil(c1 * math.log2(n))) if n > 1 else 1
    return Dvb1Params(
        level_count=level_count, d_sched=hop_bound(graph, d_mode), rounds_per_phase=rounds
    )


@dataclass(frozen=True)
class TerminationOutcome:
    flags: tuple
    slots: int
    beeps: int
    heard_events: int

    @property
    def terminated(self) -> bool:
        return all(self.flags)


def termination_detection(
    graph: Graph, values, level_count: int, d_sched: int
) -> TerminationOutcome:
    """Run one standalone termination check and report the per-node flags
    along with exact slot, beep, and hear counts."""
    values = np.asarray(values, dtype=np.int64)
    if values.shape != (graph.node_count,):
        raise ValueError("values length must match node count")
    wave = termination_wave(values, level_count, max(1, d_sched))
    slots, beeps, (flags, heard_events) = drive_schedule(graph, wave)
    return TerminationOutcome(
        flags=tuple(flags.tolist()), slots=slots, beeps=beeps, heard_events=heard_events
    )


class Dvb1Automaton(PhasedVoting):
    """All-node lockstep automaton for a full DVB1 run.

    `allowed` marks the nodes that may still beep in the current phase."""

    def phase(self):
        """Slot events of one corrosion phase, updating values and allowed.

        Each round is one block of K slots, known when the round starts: a
        survival coin only silences its own node, so it cannot change who
        beeps in a later slot of the same round.  Coins are drawn for the
        beepers in level order, and in node order within a level, as a
        slot-by-slot run draws them.  The reply rows are the per-level hear
        flags.  Once every node is dead the rest of the phase provably
        changes nothing (no beeps, hence no flags, hence no adoptions) and
        is fast-forwarded.

        Returns the 1-based round index at whose end all nodes were dead,
        or None if some node could still beep when the phase ended.
        """
        values = self.values
        level_count = self.params.level_count
        rounds = self.params.rounds_per_phase
        death = 1.0 - SURVIVAL_PROB
        levels = np.arange(1, level_count + 1)[:, None]
        self.allowed = allowed = np.ones(self.graph.node_count, dtype=bool)
        for j in range(rounds):
            beeps = (values == levels) & allowed
            _, beepers = np.nonzero(beeps)  # level order, then node order
            allowed[beepers[self.rng.random(len(beepers)) < death]] = False
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


def dvb1_run(
    graph: Graph,
    assignment: LevelAssignment,
    params: Dvb1Params | None = None,
    seed=0,
    max_phases: int | None = None,
    trace=None,
) -> TrialResult:
    """Run DVB1 to unanimous termination (or a phase cap) and score the
    outcome against the assignment's strict plurality."""
    if params is None:
        params = dvb1_params(graph, assignment.level_count)
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
    params: Dvb1Params | None = None,
    seed=0,
) -> OnePhaseResult:
    """Run exactly one corrosion phase with no termination slots."""
    if params is None:
        params = dvb1_params(graph, assignment.level_count)
    automaton = Dvb1Automaton(graph, params, assignment, np.random.default_rng(seed), 1)
    slots, beeps, all_dead_round = drive_schedule(graph, automaton.phase())
    return OnePhaseResult(
        final_values=tuple(automaton.values.tolist()),
        success=automaton.success(),
        all_dead_round=all_dead_round,
        slots=slots,
        beeps=beeps,
    )
