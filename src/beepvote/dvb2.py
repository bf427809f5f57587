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
`_send` sorts the offsets once and keeps each that differs from the one
before it as a slot; `_exchange` scatters each heard (slot, listener) hit
into an (N, 2K) table, and an inviter finds its acceptance slot by binary
search.

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
`known_ptr`, `known_count`).  The per-node random choices of a phase are
one draw per stage: a single `rng.integers(0, highs)` call picks every
inviter's target, and another every invitee's inviter, in node order.
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
# the largest Y whose Y^2 invitation-grid offsets fit in int64
MAX_ID_SPACE = math.isqrt(2**63 - 1)


def id_space(max_degree: int, c2: float = C2_DEFAULT) -> int:
    """Id range Y = max(ceil(c2 * Delta * log2(Delta)), Delta + 1); raises
    ValueError when Y exceeds MAX_ID_SPACE."""
    if not (math.isfinite(c2) and c2 > 0):
        raise ValueError("c2 must be positive and finite")
    if max_degree <= 1:
        return max_degree + 1
    scaled = c2 * max_degree * math.log2(max_degree)
    if not math.isfinite(scaled):
        raise ValueError(
            f"c2 * Delta * log2(Delta) is not finite at c2={c2:g}, Delta={max_degree}"
        )
    y = max(math.ceil(scaled), max_degree + 1)
    if y > MAX_ID_SPACE:
        raise ValueError(
            f"c2={c2:g} gives an id space Y = {y:.4g} at Delta={max_degree}, above "
            f"{MAX_ID_SPACE}, where the Y^2 invitation grid overflows int64"
        )
    return y


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
    """The parameters of a DVB2 run on graph.  With id_mode
    "preassigned_unique" it raises ValueError, naming both numbers, when Y
    is below the largest colour of the graph's distance-2 colouring."""
    y_slots = id_space(graph.max_degree, c2)
    if id_mode == "preassigned_unique":  # the graph's colouring is cached for the runs
        assign_ids(graph, y_slots, id_mode, None)
    return Dvb2Params(
        level_count=level_count,
        d_sched=hop_bound(graph, d_mode),
        y_slots=y_slots,
        id_mode=id_mode,
    )


def assign_ids(
    graph: Graph, y_slots: int, id_mode: str, rng: np.random.Generator
) -> np.ndarray:
    """Node ids in 1..y_slots.

    "random" draws ids independently and uniformly, so nearby nodes can
    collide.  "preassigned_unique" takes the graph's greedy distance-2
    colouring (computed once per graph, read-only), so every closed
    neighborhood sees pairwise distinct ids and every handshake is exact;
    it raises if that needs more than y_slots ids.
    """
    if id_mode == "random":
        return rng.integers(1, y_slots + 1, size=graph.node_count).astype(np.int64)
    if id_mode != "preassigned_unique":
        raise ValueError(f"id_mode must be one of {ID_MODES}")
    ids = graph.distance2_colouring()
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
    tied = ((n1 > 1) & (n2 > 1)).nonzero()[0]
    heads = rng.random(len(tied)) < 0.5
    to1, to2 = tied[heads], tied[~heads]
    m1[to1], m2[to2] = mem2[to1], mem1[to2]
    return u1, u2, m1, m2


def _cells(mask):
    """mask.nonzero() of a 2-D mask, from one search of the flat mask: about
    twice as fast on a phase's small masks."""
    return np.divmod(mask.ravel().nonzero()[0], mask.shape[1])


class Dvb2Automaton(PhasedVoting):
    """All-node lockstep automaton for a full DVB2 run.

    Exposes ids, the CSR table of ids heard in discovery (`known`,
    `known_ptr`, `known_count`), the (N, K) bool value-set matrix
    `value_sets` (row i, column k-1: level k is in node i's set), and
    memories, which are the protocol's reported `values`.
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
        self._levels = np.arange(1, params.level_count + 1)  # column k-1 holds level k
        self.value_sets = self.values[:, None] == self._levels
        # CSR table of the ids each node heard in discovery, ascending:
        # node i's are known[known_ptr[i]:known_ptr[i + 1]]
        self.known = np.zeros(0, dtype=np.int64)
        self.known_count = np.zeros(graph.node_count, dtype=np.int64)
        self.known_ptr = np.zeros(graph.node_count + 1, dtype=np.int64)

    def _send(self, offsets, nodes, stage_len):
        """Run one block of stage_len slots in which node nodes[i] beeps in
        slot offsets[i] (both int arrays).  Returns (slots, heard): the
        distinct offsets that carried a beep, ascending, and the (S, N)
        listeners' observation in those slots, activity & ~beeps."""
        ranked = np.sort(offsets)
        slots = np.concatenate([ranked[:1], ranked[1:][ranked[1:] != ranked[:-1]]])
        beeps = np.zeros((len(slots), self.graph.node_count), dtype=bool)
        beeps[slots.searchsorted(offsets), nodes] = True
        activity = yield SlotRequest(beeps, slots, stage_len)
        return slots, activity > beeps  # activity & ~beeps, in one pass

    def _exchange(self, senders, blocks, sets, vals, listen_block):
        """One value-set transfer over Y blocks of 2K slots: senders[r]
        beeps slot k-1 of block blocks[r] for each level k in level row
        sets[r], then slot K + vals[r] - 1; node i decodes block
        listen_block[i], and a listen block of 0 means it does not listen.
        Returns the (N, K) level rows heard and the largest value heard (0
        where none was)."""
        k_levels = self.params.level_count
        width = 2 * k_levels
        # (P, 2K): the columns of its block each sender beeps
        row, col = _cells(np.concatenate([sets, vals[:, None] == self._levels], axis=1))
        slots, heard = yield from self._send(
            (blocks[row] - 1) * width + col, senders[row], self.params.y_slots * width
        )
        block, col = np.divmod(slots, width)
        row, node = _cells(heard & (listen_block == block[:, None] + 1))
        # (N, 2K): node i heard column c of its block; all writes are True, in any order
        heard_cols = np.zeros((len(listen_block), width), dtype=bool)
        heard_cols[node, col[row]] = True
        recv_val = (heard_cols[:, k_levels:] * self._levels).max(axis=1)
        return heard_cols[:, :k_levels], recv_val

    def setup(self):
        """Discovery: each node beeps in its id's slot of one Y-slot block."""
        n = self.graph.node_count
        slots, heard = yield from self._send(self.ids - 1, np.arange(n), self.params.y_slots)
        _, slot = _cells(heard.T)  # node order, then ascending slot
        self.known = slots[slot] + 1
        self.known_count = heard.sum(axis=0)
        self.known_ptr = np.concatenate([[0], np.cumsum(self.known_count)])

    def phase(self):
        n = self.graph.node_count
        y = self.params.y_slots
        ids = self.ids
        rng = self.rng
        inviter = rng.random(n) < INVITE_PROB

        # each inviter aims at one known neighbor id; no known ids, no invite
        senders = (inviter & (self.known_count > 0)).nonzero()[0]
        aim = self.known_ptr[senders] + rng.integers(0, self.known_count[senders])

        # invitation grid: inviter with id j1 aiming at j2 beeps in slot (j1, j2)
        grid = (ids[senders] - 1) * y + self.known[aim] - 1
        slots, heard = yield from self._send(grid, senders, y * y)
        j1, j2 = np.divmod(slots, y)
        invited = heard & (np.where(inviter, 0, ids) == j2[:, None] + 1)

        # invitees pick one heard inviter id and beep in that id's slot
        node, slot = _cells(invited.T)  # node order, then ascending slot
        heard_count = np.bincount(node, minlength=n)
        invitees = heard_count.nonzero()[0]
        count = heard_count[invitees]
        pick = j1[slot[count.cumsum() - count + rng.integers(0, count)]]  # chosen id - 1
        chosen = np.zeros(n, dtype=np.int64)
        chosen[invitees] = pick + 1
        slots, heard = yield from self._send(pick, invitees, y)
        # an inviter accepts when it heard a beep in its own id's slot
        own, accepted = ids - 1, np.zeros(n, dtype=bool)
        if len(slots):
            at = np.minimum(slots.searchsorted(own), len(slots) - 1)
            accepted = inviter & (slots[at] == own) & heard[at, np.arange(n)]

        # accepted inviters send on their own id block, invitees listen on
        # their chosen id's block; invitees merge, and the inviter-side
        # result goes back the other way
        inviters = accepted.nonzero()[0]
        recv_set, recv_val = yield from self._exchange(
            inviters, ids[inviters], self.value_sets[inviters], self.values[inviters], chosen
        )
        got_val = recv_val[invitees]
        if not got_val.all():  # the chosen inviter always transmits
            raise RuntimeError(f"invitee {invitees[got_val.argmin()]} received no value")
        s1, s2, m1, m2 = dmvr(
            self.value_sets[invitees], recv_set[invitees], self.values[invitees], got_val, rng
        )
        self.value_sets[invitees] = s1
        self.values[invitees] = m1
        recv_set, recv_val = yield from self._exchange(
            invitees, pick + 1, s2, m2, np.where(accepted, ids, 0)
        )
        self.value_sets[inviters] = recv_set[inviters]
        took = accepted & (recv_val > 0)
        self.values[took] = recv_val[took]


def dvb2_run(
    graph: Graph,
    assignment: LevelAssignment,
    params: Dvb2Params,
    seed=0,
    max_phases: int | None = None,
    trace=None,
) -> TrialResult:
    """Run DVB2 to unanimous termination (or a phase cap) and score the
    outcome against the assignment's strict plurality."""
    if max_phases is None:
        # pairwise exchanges need far more phases than corrosion does, and
        # on low-diameter graphs check_interval is no guide to that scale
        max_phases = max(400, 40 * params.check_interval)
    automaton = Dvb2Automaton(graph, params, assignment, np.random.default_rng(seed), max_phases)
    return automaton.result(*run(graph, automaton, slot_budget(params, max_phases), trace))
