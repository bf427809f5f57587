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
block, its (S, N) boolean beep rows (True = beep) fixed before it starts.
The engine replies, via `send`, with the (S, N) activity rows rather
than `heard`; the activity form additionally lets a protocol model
sender-side collision detection (a beeper noticing that a neighbor
beeped in the same slot).

FastForward covers stretches of slots whose outcome the automaton can
account for exactly without touching the channel: either no node beeps,
or the beepers and the absence of state changes are provably known.  The
engine only adds the declared slot and beep counts, and counts a block's
silent slots the same way, so metrics match a naive slot-by-slot
execution bit for bit.  A block's rows are walked one by one only where
single rows are observed: when a trace is written, or for the one block
that crosses the slot budget.  Any other block adds its length and its
beep total in one step.

`PhasedVoting` is the skeleton both voting protocols share: an optional
setup block, then voting phases, with a `termination_wave` every D
phases, where D = `PhaseParams.d_sched` is also the wave's relay hop
bound.  A protocol is one subclass with a `phase()` generator and one
`PhaseParams` subclass; `run` counts its slots and beeps, and `result`
builds the run's TrialResult from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .topology import Graph, LevelAssignment


@dataclass(frozen=True)
class SlotRequest:
    beeps: np.ndarray  # (S, N) bool, True = beep; row r beeps in slot offsets[r]
    offsets: Sequence[int] | None = None  # increasing; None: 0..S-1
    length: int | None = None  # block length in slots; None: S


@dataclass(frozen=True)
class FastForward:
    slots: int
    beep_count: int = 0


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one protocol run.

    success is None when the input had no strict plurality; such runs
    are excluded from success statistics.  status is "completed",
    "max_phases_exceeded", or "slot_budget_exhausted".
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


# what drive_schedule returns in place of the generator's own value
# when the slot budget runs out first
BUDGET_EXHAUSTED = object()


def drive_schedule(
    graph: Graph, gen, slot_budget: int | None = None, trace: IO[str] | None = None
) -> tuple[int, int, object]:
    """Run a slot-event generator until it returns or the budget runs out.

    Returns (slots, beeps, value).  value is whatever the generator
    returned on StopIteration, or BUDGET_EXHAUSTED if it asked for a
    channel slot, possibly inside a block, after slot_budget slots had
    elapsed (the generator is then closed).  trace, if given, gets one
    line per fast-forwarded stretch (a FastForward, a block's silent gap
    or silent row) and one per node per channel slot.

    Every block makes one channel call for its beeping rows.  Its rows
    are then walked one by one only when a trace is written or when the
    block ends past slot_budget, where the cut can fall inside it;
    otherwise the block adds its length and its beep total at once.
    """
    slots = 0
    beeps = 0

    def fast_forward(count: int, beep_count: int = 0) -> None:
        nonlocal slots, beeps
        slots += count
        beeps += beep_count
        if trace is not None and count:
            trace.write(f"slots {slots - count}...{slots - 1} fast-forward beeps={beep_count}\n")

    reply = None
    while True:
        try:
            event = gen.send(reply)
        except StopIteration as stop:
            return slots, beeps, stop.value
        if isinstance(event, FastForward):
            fast_forward(event.slots, event.beep_count)
            reply = None
            continue
        rows = event.beeps
        counts = rows.sum(axis=1)
        live = counts > 0  # a row in which nobody beeps skips the channel
        reply = np.zeros(rows.shape, dtype=bool)
        reply[live] = graph.activity(rows[live])
        start = slots
        length = len(rows) if event.length is None else int(event.length)
        if trace is None and (slot_budget is None or start + length <= slot_budget):
            # no row is observed: the whole block in one step
            slots += length
            beeps += int(counts.sum())
            continue
        counts = counts.tolist()
        offsets = range(len(rows)) if event.offsets is None else event.offsets
        for r, offset in enumerate(offsets):
            fast_forward(start + int(offset) - slots)
            if not counts[r]:
                fast_forward(1)
                continue
            if slot_budget is not None and slots >= slot_budget:
                gen.close()
                return slots, beeps, BUDGET_EXHAUSTED
            if trace is not None:
                heard = reply[r] & ~rows[r]
                for i, beeped in enumerate(rows[r]):
                    action = "beep" if beeped else "listen"
                    trace.write(f"slot={slots} node={i} action={action} heard={int(heard[i])}\n")
            slots += 1
            beeps += counts[r]
        fast_forward(start + length - slots)


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
    """Slot events of one termination check over values; returns
    (flags, heard_events).

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
    heard_events = 0
    for k in range(1, level_count):
        beeps = values == k
        if not beeps.any():
            yield FastForward(d_sched + 1)
            continue
        (activity,) = yield SlotRequest(beeps[None])
        hears = activity & ~beeps
        heard_events += int(hears.sum())
        term &= ~hears
        for d in range(d_sched):
            frontier = ~term
            cleared = int(frontier.sum())
            if cleared in (0, n):  # nothing left to relay or to clear
                rest = d_sched - d
                yield FastForward(rest, rest * n if cleared == n else 0)
                break
            (activity,) = yield SlotRequest(frontier[None])
            hears = activity & term
            heard_events += int(hears.sum())
            term &= ~hears
        if not term.all():
            break
    return term, heard_events


def slot_budget(params: PhaseParams, max_phases: int) -> int:
    """Slots a run of at most max_phases phases can take: the setup
    block, every phase, and a full termination check after every
    check_interval phases, plus one slot of slack."""
    checks = max_phases // params.check_interval + 1
    return (
        params.setup_slots
        + max_phases * params.slots_per_phase
        + checks * (params.level_count - 1) * (params.d_sched + 1)
        + 1
    )


class PhasedVoting:
    """All-node lockstep automaton for one phased voting run.

    `schedule()` runs `setup()` once, then voting phases, each a
    `phase()` generator that updates `values` (the per-node reported
    levels) in place.  After every params.check_interval phases a
    termination wave checks `values`, and a silent wave ends the run.
    Past max_phases phases the run stops with status
    "max_phases_exceeded".  params is a PhaseParams.
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
        self.graph = graph
        self.params = params
        self.rng = rng
        self.max_phases = max_phases
        self.values = np.array(assignment.values, dtype=np.int64)
        self.plurality = assignment.plurality_level()
        self.status = "completed"
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
                flags, _ = yield from wave
                if flags.all():
                    return
                # a detected difference floods every node within d_sched
                # hops, so split flags mean d_sched is below the diameter
                if flags.any():
                    raise RuntimeError(
                        "termination flags disagree: d_sched does not cover the graph"
                    )
        self.status = "max_phases_exceeded"

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
    """Drive an automaton until its schedule ends or the budget runs out.

    Returns (slots, beeps, status).  The status is the automaton's own
    (normally "completed" or "max_phases_exceeded") unless the slot
    budget was exhausted first.  Only `schedule()` and `status` are read.
    """
    slots, beeps, value = drive_schedule(graph, automaton.schedule(), slot_budget, trace)
    status = "slot_budget_exhausted" if value is BUDGET_EXHAUSTED else automaton.status
    return slots, beeps, status
