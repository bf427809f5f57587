"""Experiment harness: seeded sweeps over (topology, size, delta) grids.

Determinism contract: every trial draws from a generator seeded with
SeedSequence([master_seed, point_index, trial_index]), and from nothing
else.  Each trial is self-contained (graph build, deterministic
topologies included, level assignment, protocol run all on the trial
stream, in that order), so the worker count never changes any
output row.  point_index follows `sweep_points` (topology, size, delta
order): appending a last topology keeps the existing rows, while a new
size or delta renumbers the points after it and changes their rows.

Every trial builds its own graph, so random graphs are resampled per
trial.  A trial that raises is counted in the row's errors column and
excluded from the rate and the means.

`simulate` is the one place that turns a config and a sweep point into
a protocol run; `run_trial` and the `beepvote run` command both call it.
"""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields

import numpy as np

from .dvb1 import C1_DEFAULT, dvb1_params, dvb1_run
from .dvb2 import C2_DEFAULT, ID_MODES, dvb2_params, dvb2_run
from .topology import (
    D_MODES,
    Complete,
    ErdosRenyi,
    LevelAssignment,
    Mesh2D,
    build,
    default_edge_probability,
)

TOPOLOGY_NAMES = ("complete", "mesh2d", "erdos_renyi")
ALGOS = ("dvb1", "dvb2")
LEVELS = (2, 3)  # the level counts delta_fractions parameterizes

Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p, z = successes / trials, Z95
    denom = 1.0 + z * z / trials
    center = p + z * z / (2 * trials)
    spread = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials))
    return (center - spread) / denom, (center + spread) / denom


def delta_fractions(level_count: int, delta: float) -> tuple[float, ...]:
    """Level fractions for the standard binary/ternary parameterization.

    Binary: (1 - delta, delta), the majority holding share delta.
    Ternary: (2/3 - delta, 1/3, delta), the majority holding 2/3 - delta.
    """
    if level_count == 2:
        if not 0.5 < delta <= 1.0:
            raise ValueError("binary delta must lie in (1/2, 1]")
        return (1.0 - delta, delta)
    if level_count == 3:
        if not 0.0 <= delta < 1.0 / 3.0:
            raise ValueError("ternary delta must lie in [0, 1/3)")
        return (2.0 / 3.0 - delta, 1.0 / 3.0, delta)
    raise ValueError("delta parameterization covers 2 or 3 levels")


def level_counts(n: int, level_count: int, delta: float) -> tuple[int, ...]:
    """Per-level node counts from the delta fractions: each level gets
    the floor of its share, the majority level the remainder."""
    fractions = delta_fractions(level_count, delta)
    counts = [int(math.floor(f * n + 1e-9)) for f in fractions]
    majority = max(range(level_count), key=lambda i: fractions[i])
    counts[majority] += n - sum(counts)
    return tuple(counts)


def make_assignment(
    n: int, level_count: int, delta: float, rng: np.random.Generator
) -> LevelAssignment:
    """`level_counts`, shuffled uniformly over node indices."""
    counts = level_counts(n, level_count, delta)
    top = sorted(counts, reverse=True)
    if len(top) > 1 and top[0] == top[1]:
        raise ValueError("no strict plurality after rounding")
    values = np.repeat(np.arange(1, level_count + 1), counts)
    return LevelAssignment(rng.permutation(values), level_count)


@dataclass(frozen=True)
class ExperimentConfig:
    algo: str = "dvb1"
    topology: tuple[str, ...] = ("complete",)
    sizes: tuple[int, ...] = (100,)
    levels: int = 2
    deltas: tuple[float, ...] = ()
    trials: int = 1000
    master_seed: int = 0
    c1: float = C1_DEFAULT
    c2: float = C2_DEFAULT
    d_mode: str = "exact"
    id_mode: str = "random"
    max_phases: int | None = None
    format: str = "csv"
    out: str | None = None

    def __post_init__(self) -> None:
        if self.algo not in ALGOS:
            raise ValueError(f"algo must be one of {ALGOS}")
        for name in self.topology:
            if name not in TOPOLOGY_NAMES:
                raise ValueError(f"unknown topology {name!r}")
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be positive")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.d_mode not in D_MODES:
            raise ValueError(f"d_mode must be one of {D_MODES}")
        if self.id_mode not in ID_MODES:
            raise ValueError(f"id_mode must be one of {ID_MODES}")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("c1 and c2 must be positive")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.max_phases is not None and self.max_phases < 1:
            raise ValueError("max_phases must be >= 1")
        if self.levels not in LEVELS:
            raise ValueError(f"levels must be one of {LEVELS}")
        if not self.deltas:
            grid = (
                [0.55 + 0.05 * i for i in range(9)]
                if self.levels == 2
                else [0.05 * i for i in range(7)]
            )
            object.__setattr__(self, "deltas", tuple(round(d, 10) for d in grid))
        for d in self.deltas:
            delta_fractions(self.levels, d)


_CONFIG_PARSERS = {
    "algo": str,
    "topology": lambda s: tuple(t.strip() for t in s.replace(",", " ").split()),
    "sizes": lambda s: tuple(int(t) for t in s.replace(",", " ").split()),
    "levels": int,
    "deltas": lambda s: tuple(float(t) for t in s.replace(",", " ").split()),
    "trials": int,
    "master_seed": int,
    "c1": float,
    "c2": float,
    "d_mode": str,
    "id_mode": str,
    "max_phases": lambda s: None if s.lower() == "none" else int(s),
    "format": str,
    "out": lambda s: None if s.lower() == "none" else s,
}


def parse_config(text: str) -> ExperimentConfig:
    """Flat `key = value` lines; # starts a comment; unknown keys fail."""
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in settings:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            settings[key] = _CONFIG_PARSERS[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(**settings)


def mesh_shape(n: int) -> tuple[int, int]:
    """Most-square factorization rows*cols == n (a path if n is prime)."""
    rows = int(math.isqrt(n))
    while n % rows:
        rows -= 1
    return rows, n // rows


def topology_spec(name: str, n: int):
    if name == "complete":
        return Complete(n)
    if name == "mesh2d":
        return Mesh2D(*mesh_shape(n))
    if name == "erdos_renyi":
        return ErdosRenyi(n, default_edge_probability(n))
    raise ValueError(f"unknown topology {name!r}")


@dataclass(frozen=True)
class SweepRow:
    algo: str
    topology: str
    n: int
    k: int
    delta: float
    trials: int
    success_rate: float
    mean_phases: float
    mean_slots: float
    mean_beeps: float
    ci95_lo: float
    ci95_hi: float
    errors: int

    def csv_line(self) -> str:
        values = astuple(self)
        return ",".join([str(v) for v in values[:4]] + [f"{v:.6g}" for v in values[4:]])

    def json_obj(self) -> dict:
        return {
            f.name: float(f"{v:.6g}") if isinstance(v, float) else v
            for f, v in zip(fields(self), astuple(self))
        }


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def simulate(config: ExperimentConfig, point, rng: np.random.Generator, trace=None):
    """Build the point's graph, draw its level assignment and run
    config.algo on them, every draw from rng in that order; returns a
    TrialResult.  trace, if given, receives the per-slot log."""
    name, n, delta = point
    graph = build(topology_spec(name, n), rng)
    assignment = make_assignment(n, config.levels, delta, rng)
    if config.algo == "dvb1":
        params = dvb1_params(graph, config.levels, c1=config.c1, d_mode=config.d_mode)
        return dvb1_run(
            graph, assignment, params, seed=rng, max_phases=config.max_phases, trace=trace
        )
    params = dvb2_params(
        graph, config.levels, c2=config.c2, id_mode=config.id_mode, d_mode=config.d_mode
    )
    return dvb2_run(
        graph, assignment, params, seed=rng, max_phases=config.max_phases, trace=trace
    )


def run_trial(config: ExperimentConfig, point_index: int, point, trial_index: int):
    """One self-contained seeded trial; returns a TrialResult."""
    rng = np.random.default_rng(
        np.random.SeedSequence([config.master_seed, point_index, trial_index])
    )
    return simulate(config, point, rng)


def run_point(config: ExperimentConfig, point_index: int, point) -> SweepRow:
    name, n, delta = point
    successes = errors = 0
    phases = slots = beeps = 0.0
    for t in range(config.trials):
        try:
            res = run_trial(config, point_index, point, t)
        except Exception:
            errors += 1
            continue
        successes += bool(res.success)
        phases += res.consensus_phase if res.consensus_phase is not None else res.phases_elapsed
        slots += res.slots_elapsed
        beeps += res.total_beeps
    completed = config.trials - errors
    lo, hi = wilson_interval(successes, completed)
    scale = 1.0 / completed if completed else 0.0
    return SweepRow(
        algo=config.algo,
        topology=name,
        n=n,
        k=config.levels,
        delta=delta,
        trials=config.trials,
        success_rate=successes * scale,
        mean_phases=phases * scale,
        mean_slots=slots * scale,
        mean_beeps=beeps * scale,
        ci95_lo=lo,
        ci95_hi=hi,
        errors=errors,
    )


def sweep_points(config: ExperimentConfig):
    return [
        (name, n, delta)
        for name in config.topology
        for n in config.sizes
        for delta in config.deltas
    ]


def run_sweep(config: ExperimentConfig, workers: int = 1) -> list[SweepRow]:
    points = sweep_points(config)
    # fork starts every worker at the first submit; more than one per point is waste
    workers = min(workers, len(points))
    if workers <= 1:
        return [run_point(config, i, p) for i, p in enumerate(points)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_point, [config] * len(points), range(len(points)), points))


def render(rows: list[SweepRow], format: str) -> str:
    if format == "csv":
        return "\n".join([CSV_HEADER] + [r.csv_line() for r in rows]) + "\n"
    if format == "json":
        return json.dumps([r.json_obj() for r in rows], indent=2) + "\n"
    raise ValueError("format must be csv or json")


def emit(rows: list[SweepRow], format: str, path: str | None) -> None:
    text = render(rows, format)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
