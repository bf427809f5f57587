"""The four benchmark workloads, their correctness gate and result digests.

A workload is prepared from a master seed into a job.  A job hands out
items by index: `run_item(i)` is the only call that is timed, and
`record(i, out)` turns its output into a small tuple that is kept for the
checks, so memory does not grow with the number of items a run gets
through.  Items come in blocks; a run only stops at a block boundary and
never before `min_items`.

Protocol items are `harness.run_trial(config, 0, point, i)` calls, the same
SeedSequence([master_seed, point_index, trial_index]) stream a sweep row
uses.  Oracle items are single `analysis.markov_success` or
`analysis.sample_success` calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from beepvote import analysis, dvb1, dvb2, harness, topology

LEVELS = 2
DELTA = 0.7
STATUSES = ("completed", "max_phases_exceeded", "slot_budget_exhausted")

# Per-trial digests of the first `min_items` protocol trials at
# DEFAULT_SEED are pinned in pinned_digests.json (written by pin.py), so a
# change that alters any sweep row fails the gate on exactly those trials.
# The held-out seed 20191022 is never used while tuning the benchmark or a
# change; a later claim is re-checked on it, and there, as on every seed
# but the default, only the invariants apply.
DEFAULT_SEED = 0
PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned_digests.json")

ORACLE_SAMPLES = 200_000
ORACLE_SAMPLE_COUNTS = (35, 65)
SIGMAS = 5.0


@dataclass(frozen=True)
class ProtocolWorkload:
    name: str
    algo: str
    topology: str
    n: int
    min_items: int
    max_phases: int | None = None  # None: the protocol's own default

    def prepare(self, seed: int, min_items: int | None = None) -> "ProtocolJob":
        return ProtocolJob(self, seed, self.min_items if min_items is None else min_items)


@dataclass(frozen=True)
class OracleWorkload:
    name: str
    binary_n: int = 100
    ternary_n: int = 60

    def prepare(self, seed: int, min_items: int | None = None) -> "OracleJob":
        return OracleJob(self, seed)


WORKLOADS = {
    w.name: w
    for w in (
        # The mesh workload stops at its first termination check (the check
        # interval is the diameter, 30), so every trial does the same work.
        # Uncapped, mesh consensus takes 30 to 690 phases, and the mean item
        # time of a 20 s run swings with the seed far more than the timing
        # bounds allow; README.md gives the runs.
        ProtocolWorkload("dvb1_mesh", "dvb1", "mesh2d", 256, 50, max_phases=30),
        ProtocolWorkload("dvb1_complete", "dvb1", "complete", 2000, 150),
        ProtocolWorkload("dvb2_er", "dvb2", "erdos_renyi", 64, 50),
        OracleWorkload("oracle"),
    )
}


class ProtocolJob:
    """Seeded trials of one sweep point."""

    block = 1

    def __init__(self, workload: ProtocolWorkload, seed: int, min_items: int):
        self.workload = workload
        self.algo = workload.algo
        self.seed = seed
        self.min_items = min_items
        self.config = harness.ExperimentConfig(
            algo=workload.algo,
            topology=(workload.topology,),
            sizes=(workload.n,),
            levels=LEVELS,
            deltas=(DELTA,),
            trials=min_items,
            master_seed=seed,
            max_phases=workload.max_phases,
        )
        self.point = (workload.topology, workload.n, DELTA)

    def run_item(self, i: int):
        return harness.run_trial(self.config, 0, self.point, i)

    def slot_budget(self, graph) -> int:
        """The slot budget run_trial's dvb1_run / dvb2_run call hands
        engine.run on this graph.  The default phase caps are the library's
        (see dvb1_run and dvb2_run); test_bench.py checks this against the
        budget the library actually passes."""
        cfg = self.config
        if self.algo == "dvb1":
            params = dvb1.dvb1_params(graph, cfg.levels, c1=cfg.c1, d_mode=cfg.d_mode)
            default_phases = 50 * params.d_sched
            module = dvb1
        else:
            params = dvb2.dvb2_params(
                graph, cfg.levels, c2=cfg.c2, id_mode=cfg.id_mode, d_mode=cfg.d_mode
            )
            default_phases = max(400, 40 * params.check_interval)
            module = dvb2
        max_phases = default_phases if cfg.max_phases is None else cfg.max_phases
        return module.slot_budget(params, max_phases)

    @staticmethod
    def record(i: int, res) -> tuple:
        final = np.asarray(res.final_values, dtype=np.int64)
        unanimous = int(final[0]) if (final == final[0]).all() else 0
        return (
            i,
            res.success,
            res.phases_elapsed,
            res.consensus_phase,
            res.slots_elapsed,
            res.total_beeps,
            res.status,
            hashlib.sha256(final.tobytes()).hexdigest(),
            unanimous,
        )

    @staticmethod
    def slots(record: tuple) -> int:
        return record[4]

    @staticmethod
    def digest(record: tuple) -> str:
        """Digest of one trial's row-relevant outcome, final values included."""
        return hashlib.sha256(repr(record[:8]).encode()).hexdigest()[:16]

    def _trial_inputs(self, i: int, graphs: dict):
        """Rebuild trial i's graph and assignment from its own stream, as
        run_trial does; graphs that take nothing from the stream are
        built once."""
        rng = np.random.default_rng(
            np.random.SeedSequence([self.config.master_seed, 0, i])
        )
        spec = harness.topology_spec(self.workload.topology, self.workload.n)
        if isinstance(spec, topology.ErdosRenyi):
            graph = harness.build(spec, rng)
        else:
            if spec not in graphs:
                graphs[spec] = harness.build(spec)
            graph = graphs[spec]
        assignment = harness.make_assignment(self.workload.n, LEVELS, DELTA, rng)
        return graph, assignment

    def check(self, records) -> list[str]:
        """Per-trial invariants; one message per failed trial."""
        failures = []
        graphs: dict = {}
        pinned: list[str] = []
        if self.seed == DEFAULT_SEED:
            with open(PINNED_PATH, encoding="utf-8") as fh:
                pinned = json.load(fh).get(self.workload.name, [])
        for rec in records:
            i, success, phases, consensus, slots, _beeps, status, _sha, unanimous = rec
            graph, assignment = self._trial_inputs(i, graphs)
            budget = self.slot_budget(graph)
            plurality = assignment.plurality_level()
            problems = []
            if status not in STATUSES:
                problems.append(f"status {status!r}")
            if success != (unanimous == plurality):
                problems.append(
                    f"success={success} but unanimous value {unanimous}, plurality {plurality}"
                )
            if consensus is not None and consensus > phases:
                problems.append(f"consensus_phase {consensus} > phases_elapsed {phases}")
            if slots > budget:
                problems.append(f"slots_elapsed {slots} > slot_budget {budget}")
            if self.seed == DEFAULT_SEED and i < self.workload.min_items:
                want = pinned[i] if i < len(pinned) else "missing"
                if self.digest(rec) != want:
                    problems.append(f"digest {self.digest(rec)} != pinned {want}")
            if problems:
                failures.append(f"trial {i}: " + "; ".join(problems))
        return failures


class OracleJob:
    """Passes over the exact-oracle table plus one Monte-Carlo cross-check."""

    algo = None  # no protocol runs

    def __init__(self, workload: OracleWorkload, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.table = []
        for k, n in ((2, workload.binary_n), (3, workload.ternary_n)):
            for delta in harness.ExperimentConfig(levels=k).deltas:
                counts = harness.make_assignment(n, k, delta, rng).level_counts()
                self.table.append(tuple(int(c) for c in counts))
        if ORACLE_SAMPLE_COUNTS not in self.table:
            raise ValueError("the sampled counts must be in the exact table")
        self.block = len(self.table) + 1
        self.min_items = self.block

    def item(self, i: int) -> tuple[str, tuple]:
        j = i % self.block
        if j < len(self.table):
            return "markov", self.table[j]
        return "sample", ORACLE_SAMPLE_COUNTS

    def run_item(self, i: int):
        kind, counts = self.item(i)
        if kind == "markov":
            return analysis.markov_success(counts)
        seed = np.random.SeedSequence([self.seed, i // self.block])
        return analysis.sample_success(counts, samples=ORACLE_SAMPLES, seed=seed)

    def record(self, i: int, res) -> tuple:
        kind, counts = self.item(i)
        win = tuple(float(w) for w in res.win_prob)
        return (i, kind, counts, win, float(res.draw_prob), res.total())

    @staticmethod
    def slots(record: tuple) -> int:
        return 0

    @staticmethod
    def states(counts) -> int:
        return math.prod(c + 1 for c in counts)

    def check(self, records) -> list[str]:
        """Totals are 1, repeated exact calls agree bit for bit, and every
        Monte-Carlo level lies within SIGMAS binomial sigmas of the exact
        value."""
        failures = []
        exact: dict = {}
        for i, kind, counts, win, draw, _total in records:
            if kind == "markov":
                exact.setdefault(counts, (win, draw))
        for i, kind, counts, win, draw, total in records:
            probs = np.array(win + (draw,))
            problems = []
            if abs(total - 1.0) > 1e-9:
                problems.append(f"total {total!r}")
            if (probs < 0).any() or (probs > 1).any():
                problems.append("probability outside [0, 1]")
            ref = exact.get(counts)
            if kind == "markov" and (win, draw) != ref:
                problems.append("differs from an earlier call on the same counts")
            if kind == "sample":
                if ref is None:
                    problems.append("no exact value to compare against")
                else:
                    p = np.array(ref[0] + (ref[1],))
                    sigma = np.sqrt(p * (1.0 - p) / ORACLE_SAMPLES)
                    # a level the exact chain gives probability 0 must never be sampled
                    bad = np.abs(probs - p) > np.maximum(SIGMAS * sigma, 1e-12)
                    if bad.any():
                        problems.append(f"sample {probs.round(5)} vs exact {p.round(5)}")
            if problems:
                failures.append(f"{kind}{counts} item {i}: " + "; ".join(problems))
        return failures
