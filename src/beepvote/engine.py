"""Slot-synchronous beep-channel engine.

In every slot each node either beeps or listens.  A listener hears an
undifferentiated beep exactly when at least one of its neighbors beeps;
a beeping node observes heard = false, and beep multiplicity is never
observable.  The graph answers that rule itself: `Graph.activity(beeps)`
is true at i iff some neighbor of i beeped, and the engine never reads
how adjacency is stored.  `step` returns one slot's per-node
observation, `heard = activity & ~beeps`.

`drive_schedule` runs a slot-event generator: one that yields
`SlotRequest` and `FastForward` events.  A SlotRequest is one open-loop
block, its (S, N) boolean beep rows (True = beep) fixed before it starts:
row r is slot r of the block, and any slots past row S-1 are silent.
All of its rows go to the channel in one `Graph.activity` call, silent
rows too (their activity is all false, so nothing needs to pick them
out).  The engine replies, via `send`, with the (S, N) bool activity
rows rather than `heard`; the activity form additionally lets a protocol
model sender-side collision detection (a beeper noticing that a neighbor
beeped in the same slot).

FastForward covers stretches of slots whose outcome the automaton can
account for exactly without touching the channel: either no node beeps,
or the beepers and the absence of state changes are provably known.  The
engine only adds the declared slot and beep counts, and counts a block's
silent slots the same way, so metrics match a naive slot-by-slot
execution bit for bit.  Every event adds its length and its beep total
in one step, and a trace, when one is written, gets one JSON line per
event with the same numbers: nothing in the engine walks nodes or slots.

A run has one stopping rule, its phase cap: every phase has a fixed
length and every termination check a bounded one, so `slot_budget` is
the exact length of the longest run, and `run` treats a schedule that
outgrows it as a bug.

`PhasedVoting` is the skeleton both voting protocols share: an optional
setup block, then voting phases, with a `termination_wave` every D
phases, where D = `PhaseParams.d_sched` is also the wave's relay hop
bound.  A protocol is one subclass with a `phase()` generator and one
`PhaseParams` subclass; `run` counts its slots and beeps, and `result`
builds the run's TrialResult from them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO

import numpy as np

from .topology import Graph, LevelAssignment


@dataclass(frozen=True)
class SlotRequest:
    beeps: np.ndarray  # (S, N) bool, True = beep; row r beeps in slot r
    length: int | None = None  # block length in slots, S rows then a silent tail; None: S


@dataclass(frozen=True)
class FastForward:
    slots: int
    beep_count: int = 0


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one protocol run.

    success is None when the input had no strict plurality; such runs
    are excluded from success statistics.  status is "completed" or
    "max_phases_exceeded".
    """

    final_values: tuple
    success: bool | None
    phases_elapsed: int
    consensus_phase: int | None
    slots_elapsed: int
    total_beeps: int
    status: str

    @property
    def terminated(self) -> bool:
        """Only a silent termination wave completes a run."""
        return self.status == "completed"


def step(graph: Graph, beeps: np.ndarray) -> np.ndarray:
    """One synchronous slot: heard[i] iff node i listened and some
    neighbor of i beeped."""
    beeps = np.asarray(beeps, dtype=bool)
    if beeps.shape != (graph.node_count,):
        raise ValueError("beep vector length must match node count")
    return graph.activity(beeps) & ~beeps


def drive_schedule(graph: Graph, gen, trace: IO[str] | None = None) -> tuple[int, int, object]:
    """Run a slot-event generator until it returns.

    Returns (slots, beeps, value), value being what the generator returned
    on StopIteration.  Every event adds its length and its beep total in
    one step; a block sends all its rows, silent ones included, to the
    channel in one call and replies with the activity rows.  trace, if
    given, gets one JSON line per event: "event" ("block" or
    "fast_forward"), "slot" (its first), "slots", "beeps", and for a block
    "heard", the number of (slot, node) pairs in which a listener heard.
    """
    slots = beeps = 0
    reply = None
    while True:
        try:
            event = gen.send(reply)
        except StopIteration as stop:
            return slots, beeps, stop.value
        if isinstance(event, FastForward):
            length, beep_count, reply = event.slots, event.beep_count, None
            if trace is not None:
                line = dict(event="fast_forward", slot=slots, slots=length, beeps=beep_count)
                print(json.dumps(line), file=trace)
        else:
            rows = event.beeps
            reply = graph.activity(rows)
            length = len(rows) if event.length is None else int(event.length)
            beep_count = int(np.count_nonzero(rows))
            if trace is not None:
                line = dict(event="block", slot=slots, slots=length, beeps=beep_count)
                line["heard"] = int(np.count_nonzero(reply > rows))  # activity & ~beeps
                print(json.dumps(line), file=trace)
        slots += length
        beeps += beep_count


@dataclass(frozen=True)
class PhaseParams:
    """Schedule constants both phased protocols share.

    level_count is K.  d_sched is the hop bound a termination wave's
    relay covers (the exact diameter, or N when only the trivial upper
    bound is assumed), and also the number of phases between checks.
    """

    level_count: int
    d_sched: int

    setup_slots = 0  # no setup block unless a protocol declares one

    def __post_init__(self) -> None:
        if self.level_count < 1:
            raise ValueError("level count must be >= 1")
        if self.d_sched < 1:
            raise ValueError("d_sched must be >= 1")

    @property
    def check_interval(self) -> int:
        return self.d_sched


def termination_wave(values: np.ndarray, level_count: int, d_sched: int):
    """Slot events of one termination check over values; returns the
    per-node terminated flags.

    Period k (k = 1..K-1): level-k holders beep in slot 1; a listener
    with a different value that hears them clears its terminated flag.
    During the d_sched relay slots every cleared node beeps, and any
    listener that hears a relay beep clears its own flag one slot later.
    A period that detects a difference floods every node within d_sched
    hops, after which the remaining periods are skipped.  The level-K
    period is redundant and never scheduled.
    """
    n = len(values)
    term = np.ones(n, dtype=bool)
    for k in range(1, level_count):
        beeps = values == k
        if not beeps.any():
            yield FastForward(d_sched + 1)
            continue
        (activity,) = yield SlotRequest(beeps[None])
        term &= beeps | ~activity  # a listener that heard clears its flag
        for d in range(d_sched):
            frontier = ~term
            cleared = int(frontier.sum())
            if cleared in (0, n):  # nothing left to relay or to clear
                rest = d_sched - d
                yield FastForward(rest, rest * n if cleared == n else 0)
                break
            (activity,) = yield SlotRequest(frontier[None])
            term &= ~activity  # the beepers are cleared already
        if not term.all():
            break
    return term


def slot_budget(params: PhaseParams, max_phases: int) -> int:
    """Slots the longest run of at most max_phases phases takes: the setup
    block, every phase at its fixed length, and a full termination check
    after every check_interval phases."""
    checks = max_phases // params.check_interval
    return (
        params.setup_slots
        + max_phases * params.slots_per_phase
        + checks * (params.level_count - 1) * (params.d_sched + 1)
    )


class PhasedVoting:
    """All-node lockstep automaton for one phased voting run.

    `schedule()` runs `setup()` once, then voting phases, each a
    `phase()` generator that updates `values` (the per-node reported
    levels) in place.  After every params.check_interval phases a
    termination wave checks `values`; a silent wave ends the run, and the
    schedule returns "completed", or "max_phases_exceeded" past
    max_phases phases.  params is a PhaseParams.
    """

    def __init__(
        self,
        graph: Graph,
        params: PhaseParams,
        assignment: LevelAssignment,
        rng: np.random.Generator,
        max_phases: int,
    ):
        if assignment.node_count != graph.node_count:
            raise ValueError("assignment length must match node count")
        if assignment.level_count != params.level_count:
            raise ValueError("assignment and params disagree on level count")
        if max_phases < 1:
            raise ValueError("max_phases must be >= 1")
        self.graph = graph
        self.params = params
        self.rng = rng
        self.max_phases = max_phases
        self.values = np.array(assignment.values, dtype=np.int64)
        self.plurality = assignment.plurality_level()
        self._phases = 0
        self._consensus: int | None = 0 if self._unanimous() else None

    def setup(self):
        """Slot events run once before the first phase; none by default."""
        yield from ()

    def phase(self):
        """Slot events of one voting phase."""
        raise NotImplementedError

    def _unanimous(self) -> bool:
        return bool((self.values == self.values[0]).all())

    def schedule(self):
        params = self.params
        yield from self.setup()
        while self._phases < self.max_phases:
            yield from self.phase()
            self._phases += 1
            if self._consensus is None and self._unanimous():
                self._consensus = self._phases
            if self._phases % params.check_interval == 0:
                wave = termination_wave(self.values, params.level_count, params.d_sched)
                flags = yield from wave
                if flags.all():
                    return "completed"
                # a detected difference floods every node within d_sched
                # hops, so split flags mean d_sched is below the diameter
                if flags.any():
                    raise RuntimeError(
                        "termination flags disagree: d_sched does not cover the graph"
                    )
        return "max_phases_exceeded"

    def phases_elapsed(self) -> int:
        return self._phases

    def success(self) -> bool | None:
        """All nodes on the initial strict plurality; None if there was none."""
        return None if self.plurality is None else bool((self.values == self.plurality).all())

    def result(self, slots: int, beeps: int, status: str) -> TrialResult:
        """The TrialResult for what `run` returned."""
        return TrialResult(
            final_values=tuple(self.values.tolist()),
            success=self.success(),
            phases_elapsed=self._phases,
            consensus_phase=self._consensus,
            slots_elapsed=slots,
            total_beeps=beeps,
            status=status,
        )


def run(
    graph: Graph, automaton: PhasedVoting, slot_budget: int, trace: IO[str] | None = None
) -> tuple[int, int, str]:
    """Drive an automaton until its schedule ends.

    Returns (slots, beeps, status), status being what the schedule
    returned.  Only `schedule()` is read.  slot_budget is the run's
    exact longest length, `slot_budget(params, max_phases)`; a schedule
    that took more slots ran a phase or a check past its fixed length,
    and raises RuntimeError.
    """
    slots, beeps, status = drive_schedule(graph, automaton.schedule(), trace)
    if slots > slot_budget:
        raise RuntimeError(f"the schedule took {slots} slots, past its budget of {slot_budget}")
    return slots, beeps, status
