"""beepvote benchmark: one workload per process, metrics on the last line.

    python3 bench/run.py --workload dvb1_mesh --seed 0 --seconds 20 --trace 0
    python3 bench/run.py                    # every workload, one process each

`--trace 0` measures the end-to-end metrics with nothing wrapped.  Its
times are CPU time of the benchmark's own process, scaled by a reference
pass timed in the same run to a host of fixed speed (see reference.py and
README.md); the raw figures are printed above the result line too.
`--trace 1` runs the same items twice, first untraced and then traced (see
tracing.py), reports the per-layer metrics and the tracing overhead, and
writes the spans to bench/out/.  Every run checks its outputs (see
workloads.py); the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`, and the exit code is 1 when
any check failed.  The library is imported from src/ next to this
directory, never from an installed copy; without it the exit code is 2
and no result is printed.
"""

import os
import time

# One thread: the OpenBLAS pool would otherwise spin on the second vCPU and
# charge its CPU time to the oracle items.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _give_up(message):
    """Exit 2 with no result line: the benchmark itself cannot run."""
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "beepvote", "__init__.py")):
    _give_up(f"no beepvote package under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import beepvote  # noqa: E402
from beepvote import dvb1, engine, harness  # noqa: E402

if not os.path.abspath(beepvote.__file__).startswith(SRC + os.sep):
    _give_up(f"imported beepvote from {beepvote.__file__}, not from {SRC}")

from reference import Gauge, setup_scale  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import DEFAULT_SEED, ORACLE_SAMPLES, WORKLOADS, OracleJob  # noqa: E402

clock = time.perf_counter  # wall: the run's deadline, and span times in tracing.py
cpu = time.process_time  # CPU seconds of this process, from its start

SETUP_PROBES = 4  # extra fresh processes that only set up; setup_s is the median of 1 + 4
TAIL_PERCENTILE = 90
STEP_TOPOLOGIES = ("complete", "mesh2d", "erdos_renyi")
STEP_SIZES = (256, 1024)
STEP_DENSITY = 0.3
STEP_SPARSE_BEEPERS = 4  # a few beepers per slot, as in the DVB1 workloads
STEP_VECTORS = 8
STEP_CALLS = 200


def run_items(job, seconds, count=None, tracer=None, gauge=None):
    """Time items one by one: exactly `count` of them, or else until
    `seconds` of wall time have passed, never fewer than job.min_items and
    only ever stopping at a block boundary.  A gauge takes its reference
    samples between items and is given each item's wall-time span.
    Returns (records, item CPU seconds, errors); an item that raises
    leaves no record and one error."""
    records, item_s, errors = [], [], []
    deadline = clock() + seconds
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i >= job.min_items and i % job.block == 0 and clock() >= deadline:
            break
        if gauge is not None:
            gauge.tick()
        w0 = clock()
        t0 = cpu()
        try:
            if tracer is None:
                out = job.run_item(i)
            else:
                tracer.item = i
                with tracer.span("item"):
                    out = job.run_item(i)
        except Exception as exc:  # recorded as a failed item, never dropped
            item_s.append(cpu() - t0)
            errors.append(f"item {i}: {type(exc).__name__}: {exc}")
        else:
            item_s.append(cpu() - t0)
            records.append(job.record(i, out))
            if tracer is not None and tracer.last_run is not None:
                _termination_waves(tracer)
        if gauge is not None:
            gauge.spans.append((w0, clock()))
        i += 1
    return records, item_s, errors


def _termination_waves(tracer):
    """Standalone termination checks on a DVB1 trial's initial (mixed) and
    final values, outside the item's own span; their slot counts go to
    tracer.wave_slots."""
    graph, assignment, params, result = tracer.last_run
    tracer.last_run = None
    if not isinstance(params, dvb1.Dvb1Params):
        return
    for values in (assignment.values, result.final_values):
        with tracer.span("dvb1.termination_detection"):
            outcome = dvb1.termination_detection(
                graph, values, params.level_count, params.d_sched
            )
        tracer.wave_slots.append(outcome.slots)


def tail(item_s):
    """(value, number of items above it) at TAIL_PERCENTILE, nearest rank."""
    ordered = sorted(item_s)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def setup_probe(name, seed):
    """Scaled set-up time of one fresh process: interpreter start, import
    and prepare."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(job, name, seed, seconds, own_setup_cpu):
    own_setup_s = own_setup_cpu * setup_scale()
    gauge = Gauge()
    wall0 = clock()
    records, item_s, errors = run_items(job, seconds, gauge=gauge)
    wall = clock() - wall0
    scaled = [s * k for s, k in zip(item_s, gauge.scales())]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = errors + job.check(records)
    setups = [own_setup_s] + [setup_probe(name, seed) for _ in range(SETUP_PROBES)]
    n = len(item_s)
    tail_s, above = tail(scaled)
    slots = sum(job.slots(r) for r in records)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "items_per_s": metric(n / sum(scaled), "1/s"),
        "item_p50_ms": metric(statistics.median(scaled) * 1e3, "ms"),
        "item_tail_ms": metric(tail_s * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    notes = {
        "item_tail_ms": f"p{TAIL_PERCENTILE} of {n} items, {above} above it",
        "setup_s": f"median of {len(setups)} set-ups",
        "reference_ms": f"median of {len(gauge.samples)} samples",
    }
    extra = {
        "failed_frac": metric(len(failures) / n, "frac"),
        "reference_ms": metric(statistics.median(gauge.samples) * 1e3, "ms"),
        "cpu_items_per_s": metric(n / sum(item_s), "1/s"),
        "wall_items_per_s": metric(n / wall, "1/s"),  # reference passes included
        "cpu_setup_s": metric(own_setup_cpu, "s"),
    }
    if job.algo is not None:
        extra["sim_slots_per_s"] = metric(slots / sum(scaled), "slots/s")
    return n, failures, metrics, extra, notes


def step_table(seed):
    """Standalone engine.step timings; graphs and beep vectors are made
    before any call is timed.  The dense rows have beep density
    STEP_DENSITY; the sparse rows have STEP_SPARSE_BEEPERS beepers, where
    the dense bool matvec cannot stop early on the first true term."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    cases = []
    for topo in STEP_TOPOLOGIES:
        for n in STEP_SIZES:
            graph = harness.build(harness.topology_spec(topo, n), rng)
            dense = rng.random((STEP_VECTORS, n)) < STEP_DENSITY
            sparse = np.zeros((STEP_VECTORS, n), dtype=bool)
            for row in sparse:
                row[rng.choice(n, STEP_SPARSE_BEEPERS, replace=False)] = True
            cases.append((f"engine.step_us.{topo}_{n}", graph, dense))
            cases.append((f"engine.sparse_step_us.{topo}_{n}", graph, sparse))
    out = {}
    for key, graph, beeps in cases:
        times = []
        for r in range(STEP_CALLS):
            t0 = clock()
            engine.step(graph, beeps[r % STEP_VECTORS])
            times.append(clock() - t0)
        out[key] = metric(statistics.median(times) * 1e6, "us")
    return dict(sorted(out.items()))


def per_layer(job, name, seed, seconds):
    """Untraced pass over items for half the time, then a traced pass over
    exactly the same items."""
    base, base_s, base_err = run_items(job, seconds / 2)
    tracer = Tracer()
    with tracer.install():
        traced, traced_s, traced_err = run_items(
            job, 0, count=len(base_s), tracer=tracer
        )
    failures = base_err + traced_err + job.check(base)
    if traced != base:
        diff = sum(a != b for a, b in zip(traced, base)) + abs(len(traced) - len(base))
        failures.append(f"traced run changed {diff} item outcomes")
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{name}-{seed}.jsonl"))

    items = len(traced_s)
    layers = self_times(tracer)
    spans = tracer.spans

    def durations(span_name):
        return [end - start for n_, start, end, *_ in spans if n_ == span_name]

    item_total = sum(durations("item"))  # spans are wall time, as the layers are

    def share(layer):
        return metric(layers.get(layer, 0.0) / item_total, "frac")

    builds = durations("topology.build")
    assignments = durations("harness.make_assignment")
    waves = durations("dvb1.termination_detection")
    counters = list(tracer.counters.values())
    channel = sum(c.channel_slots for c in counters)
    ff = sum(c.ff_slots for c in counters)
    slot_s = sum(c.slot_s for c in counters)
    m = {
        "topology.build_ms": metric(_mean(builds) * 1e3, "ms"),
        "topology.builds_per_item": metric(len(builds) / items, "count"),
        "topology.build_share": share("topology"),
    }
    m.update(step_table(seed))
    m.update({
        "engine.slot_us": metric(slot_s / channel * 1e6 if channel else 0.0, "us"),
        "engine.channel_slots_per_item": metric(channel / items, "count"),
        "engine.ff_slot_frac": metric(ff / (ff + channel) if ff + channel else 0.0, "frac"),
        "engine.share": share("engine"),
    })
    phases = sum(r[2] for r in traced) if job.algo is not None else 0
    phase_s = [s for c in counters for s in c.phase_s]
    for proto in ("dvb1", "dvb2"):
        mine = proto == job.algo
        m[f"{proto}.phase_ms"] = metric(
            statistics.median(phase_s) * 1e3 if mine and phase_s else 0.0, "ms"
        )
        m[f"{proto}.phases_per_item"] = metric(phases / items if mine else 0.0, "count")
        if proto == "dvb1":
            m["dvb1.share"] = share("dvb1")
            m["dvb1.wave_ms"] = metric(_mean(waves) * 1e3, "ms")
            m["dvb1.wave_slots"] = metric(_mean(tracer.wave_slots), "count")
        else:
            m["dvb2.beep_slots_per_phase"] = metric(
                channel / phases if mine and phases else 0.0, "count"
            )
            m["dvb2.share"] = share("dvb2")
    m.update(_analysis_metrics(job, tracer, seed))
    m["harness.share"] = share("harness")
    m["harness.assignment_us"] = metric(_mean(assignments) * 1e6, "us")
    m["trace.overhead_frac"] = metric(1.0 - sum(base_s) / sum(traced_s), "frac")
    notes = {"trace.overhead_frac": f"{items} items traced and untraced"}
    return items, failures, m, {}, notes


def _analysis_metrics(job, tracer, seed):
    """Oracle call times; zero on the protocol workloads, which make none."""
    table = job.table if job.algo is None else WORKLOADS["oracle"].prepare(seed).table
    markov: dict = {counts: [] for counts in table}
    sample_s = []
    for name, start, end, _parent, item in tracer.spans:
        if name == "analysis.markov_success":
            markov[job.item(item)[1]].append(end - start)
        elif name == "analysis.sample_success":
            sample_s.append(end - start)
    out = {}
    states = solved = markov_s = 0
    for counts in table:
        times = markov[counts]
        key = "analysis.markov_ms." + "_".join(str(c) for c in counts)
        out[key] = metric(statistics.median(times) * 1e3 if times else 0.0, "ms")
        states += OracleJob.states(counts)
        solved += OracleJob.states(counts) * len(times)
        markov_s += sum(times)
    out["analysis.markov_states"] = metric(states if markov_s else 0, "count")
    out["analysis.markov_states_per_s"] = metric(solved / markov_s if markov_s else 0.0, "1/s")
    out["analysis.sample_ms"] = metric(
        statistics.median(sample_s) * 1e3 if sample_s else 0.0, "ms"
    )
    out["analysis.samples_per_s"] = metric(
        ORACLE_SAMPLES * len(sample_s) / sum(sample_s) if sample_s else 0.0, "1/s"
    )
    return out


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def run_workload(name, seed, seconds, trace, min_items=None):
    """Prepare and measure one workload in this process; returns the
    result object and the text lines shown above it."""
    job = WORKLOADS[name].prepare(seed, min_items)
    own_setup_cpu = cpu()
    if trace:
        n, failures, metrics, extra, notes = per_layer(job, name, seed, seconds)
    else:
        n, failures, metrics, extra, notes = end_to_end(job, name, seed, seconds, own_setup_cpu)
    lines = [
        f"workload {name}  seed {seed}  trace {int(trace)}  items {n}  failed {len(failures)}"
    ]
    for key, m in {**metrics, **extra}.items():
        note = f"  ({notes[key]})" if key in notes else ""
        lines.append(f"  {key:<34} {m['value']:>14.6g} {m['unit']}{note}")
    lines += [f"  FAILED {f}" for f in failures[:20]]
    if len(failures) > 20:
        lines.append(f"  ... and {len(failures) - 20} more failures")
    result = {
        "correct": not failures,
        "attempted": n,
        "failed": min(len(failures), n),
        "metrics": metrics,
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs one --workload")

    if args.setup_only:
        WORKLOADS[args.workload].prepare(args.seed)
        setup_cpu = cpu()
        print(json.dumps({"setup_s": setup_cpu * setup_scale()}))
        return 0
    if args.workload != "all":
        result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        sys.stdout.flush()
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
