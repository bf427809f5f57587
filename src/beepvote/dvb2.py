"""DVB2: distributed plurality voting by pairwise value-set exchange.

Nodes draw ids from 1..Y (Y sized so that collisions are unlikely),
learn their neighbors' ids in one Y-slot discovery sweep, and then run
interaction phases.  Each phase an inviter coin splits the nodes;
inviters target one known neighbor id, invitations travel through a
Y x Y slot grid addressed by (inviter id, invitee id), invitees pick one
heard inviter and accept in a Y-slot sweep, and the matched pair swaps
value sets in two 2YK-slot transfer blocks, applying the merge rule in
between.  A phase therefore costs exactly Y^2 + Y + 4YK slots.

Every stage is one open-loop block sent through `_send`: all its
(offset, node) beeps are known before it starts, so it is a single
engine event, and the engine counts its silent slots without touching
the channel; that is what makes the Y^2 invitation grid affordable.  All
beeps still go through the real shared channel, so id collisions corrupt
handshakes exactly as they would slot by slot: simultaneous same-slot
beeps merge, and whichever node hears them acts on the merged observation.

Value sets are one (N, K) boolean level matrix, the same rows the
transfer blocks beep: node i's set holds level k when row i has column
k-1 set.  The merge rule `dmvr` works on arrays of pairs and conserves
the per-level multiset over each pair: the smaller set becomes the union
and the larger the intersection, a set reduced to one value writes that
value into its holder's memory, and when both stay ambiguous a fair coin
copies one old memory across.
Termination detection is the same relay-wave check as DVB1, run on the
memory values.

Discovery stores the ids each node heard as one CSR table (`known`,
`known_ptr`).  The per-node random choices of a phase are one draw per
stage: a single `rng.integers(0, highs)` call picks every inviter's
target, and another every invitee's inviter, in ascending node order.
That consumes the generator exactly as one scalar call per node would,
so runs stay on the same random stream (a bound of 1 draws nothing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    PhasedVoting,
    PhaseParams,
    SlotRequest,
    TrialResult,
    run,
    slot_budget,
)
from .topology import Graph, LevelAssignment, hop_bound

ID_MODES = ("random", "preassigned_unique")
INVITE_PROB = 0.5  # chance that a node invites rather than listens, each phase
C2_DEFAULT = 20.0  # id space scale: Y = ceil(c2 * Delta * log2(Delta))


def id_space(max_degree: int, c2: float = C2_DEFAULT) -> int:
    """Id range Y = max(ceil(c2 * Delta * log2(Delta)), Delta + 1)."""
    if c2 <= 0:
        raise ValueError("c2 must be positive")
    if max_degree <= 1:
        return max_degree + 1
    return max(math.ceil(c2 * max_degree * math.log2(max_degree)), max_degree + 1)


@dataclass(frozen=True)
class Dvb2Params(PhaseParams):
    """PhaseParams plus the id space Y and how ids are drawn."""

    y_slots: int
    id_mode: str = "random"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.y_slots < 1:
            raise ValueError("id space must be >= 1")
        if self.id_mode not in ID_MODES:
            raise ValueError(f"id_mode must be one of {ID_MODES}")

    @property
    def setup_slots(self) -> int:
        return self.y_slots

    @property
    def slots_per_phase(self) -> int:
        y, k = self.y_slots, self.level_count
        return y * y + y + 4 * y * k


def dvb2_params(
    graph: Graph,
    level_count: int,
    c2: float = C2_DEFAULT,
    id_mode: str = "random",
    d_mode: str = "exact",
) -> Dvb2Params:
    return Dvb2Params(
        level_count=level_count,
        d_sched=hop_bound(graph, d_mode),
        y_slots=id_space(graph.max_degree, c2),
        id_mode=id_mode,
    )


def assign_ids(
    graph: Graph, y_slots: int, id_mode: str, rng: np.random.Generator
) -> np.ndarray:
    """Node ids in 1..y_slots.

    "random" draws ids independently and uniformly, so nearby nodes can
    collide.  "preassigned_unique" greedily colors the distance-2 graph,
    which guarantees that every closed neighborhood sees pairwise
    distinct ids and makes every handshake exact.
    """
    n = graph.node_count
    if id_mode == "random":
        return rng.integers(1, y_slots + 1, size=n).astype(np.int64)
    if id_mode != "preassigned_unique":
        raise ValueError(f"id_mode must be one of {ID_MODES}")
    two_hop = graph.two_hop()
    ids = np.zeros(n, dtype=np.int64)
    for i in range(n):
        near = two_hop.indices[two_hop.indptr[i] : two_hop.indptr[i + 1]]
        taken = set(ids[near[near < i]].tolist())
        candidate = 1
        while candidate in taken:
            candidate += 1
        ids[i] = candidate
    # a node's greedy colour does not depend on y_slots, so one check suffices
    if ids.max() > y_slots:
        raise ValueError(
            f"id space too small for locally unique ids: Y = {y_slots}, "
            f"the distance-2 colouring needs Y = {ids.max()}"
        )
    return ids


def dmvr(set1, set2, mem1, mem2, rng: np.random.Generator):
    """P pairwise merges at once: set1 and set2 are (P, K) bool level
    rows, mem1 and mem2 (P,) memories; returns (set1', set2', mem1', mem2').

    Conservation: for every level, membership across the two sets of a
    pair is preserved (union plus intersection).  The smaller set (ties
    to set1) becomes the union.  A set updated to a single value
    disseminates it into that party's memory; in each pair whose updated
    sets both keep more than one value, a fair coin copies one party's
    old memory onto the other.  The coins are one rng.random draw, in
    pair order.
    """
    smaller = (set1.sum(axis=1) <= set2.sum(axis=1))[:, None]
    union, meet = set1 | set2, set1 & set2
    u1 = np.where(smaller, union, meet)
    u2 = np.where(smaller, meet, union)
    n1, n2 = u1.sum(axis=1), u2.sum(axis=1)
    m1 = np.where(n1 == 1, u1.argmax(axis=1) + 1, mem1)
    m2 = np.where(n2 == 1, u2.argmax(axis=1) + 1, mem2)
    tied = np.flatnonzero((n1 > 1) & (n2 > 1))
    heads = rng.random(len(tied)) < 0.5
    m1[tied[heads]] = mem2[tied[heads]]
    m2[tied[~heads]] = mem1[tied[~heads]]
    return u1, u2, m1, m2


class Dvb2Automaton(PhasedVoting):
    """All-node lockstep automaton for a full DVB2 run.

    Exposes ids, the CSR table of ids heard in discovery (`known`,
    `known_ptr`), the (N, K) bool value-set matrix `value_sets` (row i,
    column k-1: level k is in node i's set), and memories for
    inspection; the memories are the protocol's reported `values`.
    """

    def __init__(
        self,
        graph: Graph,
        params: Dvb2Params,
        assignment: LevelAssignment,
        rng: np.random.Generator,
        max_phases: int,
    ):
        super().__init__(graph, params, assignment, rng, max_phases)
        self.ids = assign_ids(graph, params.y_slots, params.id_mode, rng)
        self.value_sets = self.values[:, None] == np.arange(1, params.level_count + 1)
        # CSR table of the ids each node heard in discovery, ascending:
        # node i's are known[known_ptr[i]:known_ptr[i + 1]]
        self.known = np.zeros(0, dtype=np.int64)
        self.known_ptr = np.zeros(graph.node_count + 1, dtype=np.int64)

    def _send(self, offsets, nodes, stage_len):
        """Run one block of stage_len slots in which node nodes[i] beeps in
        slot offsets[i].  Returns (slots, heard): the distinct offsets that
        carried a beep, ascending, and the (S, N) listeners' observation
        in those slots, activity & ~beeps."""
        slots, row = np.unique(np.asarray(offsets, dtype=np.int64), return_inverse=True)
        beeps = np.zeros((len(slots), self.graph.node_count), dtype=bool)
        beeps[row, nodes] = True
        activity = yield SlotRequest(beeps, slots, stage_len)
        return slots, activity & ~beeps

    def _exchange(self, senders, blocks, sets, vals, listeners, listen_block):
        """One value-set transfer over Y blocks of 2K slots: senders[r]
        beeps slot k-1 of block blocks[r] for each level k in level row
        sets[r], then slot K + vals[r] - 1; listener i decodes block
        listen_block[i].  Returns the (N, K) level rows heard and the
        last value heard (0 where none was)."""
        k_levels = self.params.level_count
        width = 2 * k_levels
        base = (blocks - 1) * width
        rows, levels = np.nonzero(sets)
        offsets = np.concatenate([base[rows] + levels, base + k_levels + vals - 1])
        nodes = np.concatenate([senders[rows], senders])
        slots, heard = yield from self._send(offsets, nodes, self.params.y_slots * width)
        block, col = np.divmod(slots, width)
        got = heard & listeners & (listen_block == block[:, None] + 1)
        # (N, 2K): node i heard column c of the block it listens to
        heard_cols = got.T @ (col[:, None] == np.arange(width))
        recv_val = (heard_cols[:, k_levels:] * np.arange(1, k_levels + 1)).max(axis=1)
        return heard_cols[:, :k_levels], recv_val

    def setup(self):
        """Discovery: each node beeps in its id's slot of one Y-slot block."""
        n = self.graph.node_count
        slots, heard = yield from self._send(self.ids - 1, np.arange(n), self.params.y_slots)
        _, slot = np.nonzero(heard.T)  # node order, then ascending slot
        self.known = slots[slot] + 1
        self.known_ptr = np.concatenate([[0], np.cumsum(heard.sum(axis=0))])

    def phase(self):
        n = self.graph.node_count
        y = self.params.y_slots
        ids = self.ids
        rng = self.rng
        inviter = rng.random(n) < INVITE_PROB

        # each inviter aims at one known neighbor id; no known ids, no invite
        target = np.zeros(n, dtype=np.int64)
        ptr = self.known_ptr
        known_count = np.diff(ptr)
        aim = np.flatnonzero(inviter & (known_count > 0))
        target[aim] = self.known[ptr[aim] + rng.integers(0, known_count[aim])]

        # invitation grid: inviter with id j1 aiming at j2 beeps in slot (j1, j2)
        senders = np.flatnonzero(target)
        grid = (ids[senders] - 1) * y + target[senders] - 1
        slots, heard = yield from self._send(grid, senders, y * y)
        j1, j2 = np.divmod(slots, y)
        invited = heard & ~inviter & (ids == j2[:, None] + 1)

        # invitees pick one heard inviter id and beep in that id's slot
        _, slot = np.nonzero(invited.T)  # node order, then ascending slot
        heard_count = invited.sum(axis=0)
        invitees = np.flatnonzero(heard_count)
        first = np.cumsum(heard_count[invitees]) - heard_count[invitees]
        chosen = np.zeros(n, dtype=np.int64)
        chosen[invitees] = j1[slot[first + rng.integers(0, heard_count[invitees])]] + 1
        invitee = chosen > 0
        slots, heard = yield from self._send(chosen[invitees] - 1, invitees, y)
        accepted = (heard & inviter & (ids == slots[:, None] + 1)).any(axis=0)

        # accepted inviters send on their own id block, invitees listen on
        # their chosen id's block; invitees merge, and the inviter-side
        # result goes back the other way
        inviters = np.flatnonzero(accepted)
        recv_set, recv_val = yield from self._exchange(
            inviters, ids[inviters], self.value_sets[inviters], self.values[inviters],
            invitee, chosen,
        )
        unheard = invitees[recv_val[invitees] == 0]
        if len(unheard):  # the chosen inviter always transmits
            raise RuntimeError(f"invitee {unheard[0]} received no value from its inviter")
        s1, s2, m1, m2 = dmvr(
            self.value_sets[invitees], recv_set[invitees],
            self.values[invitees], recv_val[invitees], rng,
        )
        self.value_sets[invitees] = s1
        self.values[invitees] = m1
        recv_set, recv_val = yield from self._exchange(
            invitees, chosen[invitees], s2, m2, accepted, ids
        )
        self.value_sets[inviters] = recv_set[inviters]
        took = accepted & (recv_val > 0)
        self.values[took] = recv_val[took]


def dvb2_run(
    graph: Graph,
    assignment: LevelAssignment,
    params: Dvb2Params | None = None,
    seed=0,
    max_phases: int | None = None,
    trace=None,
) -> TrialResult:
    """Run DVB2 to unanimous termination (or a phase cap) and score the
    outcome against the assignment's strict plurality."""
    if params is None:
        params = dvb2_params(graph, assignment.level_count)
    if max_phases is None:
        # pairwise exchanges need far more phases than corrosion does, and
        # on low-diameter graphs check_interval is no guide to that scale
        max_phases = max(400, 40 * params.check_interval)
    automaton = Dvb2Automaton(graph, params, assignment, np.random.default_rng(seed), max_phases)
    return automaton.result(*run(graph, automaton, slot_budget(params, max_phases), trace))
