"""Command-line front end.

Subcommands: `run` (one verbose trial), `sweep` (config-file driven
batch), `markov` (exact success oracle for the fully connected chain),
`bounds` (analytic lower-bound tables), `spots` (same-value component
printout).  Exit code 0 on success, 1 with a one-line diagnostic on
configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import analysis
from .dvb1 import C1_DEFAULT, SURVIVAL_PROB
from .dvb2 import C2_DEFAULT, ID_MODES
from .harness import (
    ALGOS,
    LEVELS,
    TOPOLOGY_NAMES,
    ExperimentConfig,
    emit,
    level_counts,
    make_assignment,
    parse_config,
    run_sweep,
    simulate,
    topology_spec,
)
from .topology import D_MODES, build, spots


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beepvote",
        description="Slot-synchronous beep-network voting simulator and analysis tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--topology", default="complete", choices=TOPOLOGY_NAMES)
        p.add_argument("--nodes", type=int, default=100)
        p.add_argument("--levels", type=int, choices=LEVELS, default=2)
        p.add_argument("--delta", type=float, default=0.7)
        p.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser("run", help="run one trial and print its outcome")
    common(p_run)
    p_run.add_argument("--algo", choices=ALGOS, default="dvb1")
    p_run.add_argument("--c1", type=float, default=C1_DEFAULT)
    p_run.add_argument("--c2", type=float, default=C2_DEFAULT)
    p_run.add_argument("--d-mode", choices=D_MODES, default="exact")
    p_run.add_argument("--id-mode", choices=ID_MODES, default="random")
    p_run.add_argument("--max-phases", type=int, default=None)
    p_run.add_argument("--trace", default=None, help="write a per-slot log to this file")

    p_sweep = sub.add_parser("sweep", help="run a config-file sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", default=None, help="override the config output path")
    p_sweep.add_argument("--format", choices=("csv", "json"), default=None)

    p_markov = sub.add_parser(
        "markov", help="exact one-phase success on the fully connected graph"
    )
    p_markov.add_argument("--nodes", type=int, default=100)
    p_markov.add_argument("--levels", type=int, choices=LEVELS, default=2)
    p_markov.add_argument("--deltas", type=float, nargs="+", required=True)

    p_bounds = sub.add_parser("bounds", help="analytic lower-bound tables")
    p_bounds.add_argument("--nodes", type=int, default=100)
    p_bounds.add_argument("--levels", type=int, choices=LEVELS, default=2)
    p_bounds.add_argument("--deltas", type=float, nargs="+", required=True)
    p_bounds.add_argument("--epsilon", type=float, default=0.1)

    p_spots = sub.add_parser("spots", help="print same-value connected components")
    common(p_spots)

    return parser


def _cmd_run(args) -> int:
    config = ExperimentConfig(
        algo=args.algo, topology=(args.topology,), sizes=(args.nodes,),
        levels=args.levels, deltas=(args.delta,), c1=args.c1, c2=args.c2,
        d_mode=args.d_mode, id_mode=args.id_mode, max_phases=args.max_phases,
    )
    rng = np.random.default_rng(args.seed)
    with (open(args.trace, "w", encoding="utf-8") if args.trace
          else contextlib.nullcontext()) as trace:
        res = simulate(config, (args.topology, args.nodes, args.delta), rng, trace)
    # the shuffled assignment holds exactly these counts, with a strict plurality
    counts = level_counts(args.nodes, args.levels, args.delta)
    majority = counts.index(max(counts)) + 1
    print(f"algo={args.algo} topology={args.topology} n={args.nodes} "
          f"k={args.levels} delta={args.delta:g} seed={args.seed}")
    print(f"counts={','.join(map(str, counts))} majority_level={majority}")
    print(f"status={res.status} terminated={res.terminated} success={res.success}")
    print(f"phases={res.phases_elapsed} consensus_phase={res.consensus_phase} "
          f"slots={res.slots_elapsed} beeps={res.total_beeps}")
    values = set(res.final_values)
    print(f"final_value={values.pop() if len(values) == 1 else 'mixed'}")
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        config = parse_config(fh.read())
    rows = run_sweep(config, workers=args.workers)
    emit(rows, args.format or config.format,
         args.out if args.out is not None else config.out)
    return 0


def _cmd_markov(args) -> int:
    print("delta,counts,win_majority,draw")
    for delta in args.deltas:
        counts = level_counts(args.nodes, args.levels, delta)
        result = analysis.markov_success(counts, SURVIVAL_PROB)
        majority = max(range(args.levels), key=lambda i: counts[i])
        counts_text = "/".join(str(c) for c in counts)
        print(f"{delta:.6g},{counts_text},"
              f"{result.win_prob[majority]:.6g},{result.draw_prob:.6g}")
    return 0


def _cmd_bounds(args) -> int:
    rounds = analysis.prop1_rounds(args.nodes, args.epsilon)
    ratio = analysis.corollary_ratio(args.levels, args.epsilon)
    print(f"# corrosion rounds for all-dead with prob >= {1 - args.epsilon:g}: {rounds}")
    print(f"# majority ratio threshold at epsilon={args.epsilon:g}: {ratio:.6g}")
    print("delta,counts,two_event_bound,closed_form_bound")
    for delta in args.deltas:
        counts = level_counts(args.nodes, args.levels, delta)
        two = analysis.lower_bound_two_event(counts)
        ordered = sorted(counts, reverse=True)
        closed = analysis.lower_bound_closed(ordered[0], ordered[1], args.levels)
        counts_text = "/".join(str(c) for c in counts)
        print(f"{delta:.6g},{counts_text},{two:.6g},{closed:.6g}")
    return 0


def _cmd_spots(args) -> int:
    rng = np.random.default_rng(args.seed)
    graph = build(topology_spec(args.topology, args.nodes), rng)
    assignment = make_assignment(args.nodes, args.levels, args.delta, rng)
    for index, members in enumerate(spots(graph, assignment.values)):
        level = assignment.values[members[0]]
        nodes = " ".join(str(m) for m in members)
        print(f"spot {index}: level={level} size={len(members)} nodes={nodes}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "markov": _cmd_markov,
    "bounds": _cmd_bounds,
    "spots": _cmd_spots,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
