"""Self-tests of the benchmark at a reduced size.

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import reference
import run
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

SMALL = 3  # items per run in these tests
COUNTS = (
    "engine.channel_slots_per_item",
    "engine.ff_slot_frac",
    "dvb1.phases_per_item",
    "dvb1.wave_slots",
    "dvb2.phases_per_item",
    "dvb2.beep_slots_per_phase",
    "topology.builds_per_item",
)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


@pytest.mark.parametrize("name", ["dvb1_mesh", "dvb1_complete", "dvb2_er"])
def test_counts_repeat_exactly(name):
    first, _ = run.run_workload(name, 11, 0, trace=True, min_items=SMALL)
    second, _ = run.run_workload(name, 11, 0, trace=True, min_items=SMALL)
    assert first["correct"] and second["correct"]
    for key in COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["topology.builds_per_item"]["value"] == 1.0


@pytest.mark.parametrize("name", ["dvb1_mesh", "dvb2_er", "oracle"])
def test_tracing_leaves_outcomes_unchanged(name):
    job = WORKLOADS[name].prepare(DEFAULT_SEED, SMALL)
    count = max(SMALL, job.min_items)
    plain, _, plain_err = run.run_items(job, 0, count=count)
    tracer = Tracer()
    with tracer.install():
        traced, _, traced_err = run.run_items(job, 0, count=count, tracer=tracer)
    assert not plain_err and not traced_err
    assert traced == plain
    assert not job.check(plain)
    assert sum(1 for span in tracer.spans if span[0] == "item") == count


def test_install_restores_the_library():
    from beepvote import analysis, dvb1, dvb2, engine, harness

    before = (harness.build, harness.dvb1_run, dvb1.run, dvb2.run, analysis.markov_success)
    with Tracer().install():
        assert dvb1.run is not engine.run
    assert before == (harness.build, harness.dvb1_run, dvb1.run, dvb2.run, analysis.markov_success)


@pytest.mark.parametrize("name", ["dvb1_mesh", "dvb1_complete", "dvb2_er"])
def test_slot_budget_is_the_one_the_library_passes(name, monkeypatch):
    """The gate's budget copies the library's default phase caps; this
    catches the copy drifting from what dvb1_run / dvb2_run hand engine.run."""
    from beepvote import dvb1, dvb2

    job = WORKLOADS[name].prepare(7, SMALL)
    module = dvb1 if job.algo == "dvb1" else dvb2
    real_run = module.run
    seen = []

    def spy(graph, automaton, slot_budget, trace=None):
        seen.append((graph, slot_budget))
        return real_run(graph, automaton, slot_budget, trace)

    monkeypatch.setattr(module, "run", spy)
    job.run_item(0)
    [(graph, budget)] = seen
    assert job.slot_budget(graph) == budget


def test_gate_flags_a_wrong_outcome():
    job = WORKLOADS["dvb2_er"].prepare(5, SMALL)
    rec = job.record(0, job.run_item(0))
    assert job.check([rec]) == []
    flipped = rec[:1] + (not rec[1],) + rec[2:]
    over_budget = rec[:4] + (10**15,) + rec[5:]
    assert len(job.check([flipped, over_budget])) == 2


def test_gate_flags_a_changed_row_at_the_default_seed():
    job = WORKLOADS["dvb1_mesh"].prepare(DEFAULT_SEED, SMALL)
    rec = job.record(1, job.run_item(1))
    assert job.check([rec]) == []
    more_beeps = rec[:5] + (rec[5] + 1,) + rec[6:]
    assert "pinned" in job.check([more_beeps])[0]


def test_gate_flags_a_biased_sample():
    job = WORKLOADS["oracle"].prepare(3)
    i_exact = job.table.index((35, 65))
    i_sample = len(job.table)
    exact = job.record(i_exact, job.run_item(i_exact))
    sample = job.record(i_sample, job.run_item(i_sample))
    assert job.check([exact, sample]) == []
    win = sample[3]
    biased = sample[:3] + ((win[0] + 0.01, win[1] - 0.01),) + sample[4:]
    assert len(job.check([exact, biased])) == 1


@pytest.mark.parametrize("name", ["dvb2_er", "oracle"])
def test_metric_names_match_benchmark_json(name):
    plain, _ = run.run_workload(name, 2, 0, trace=False, min_items=SMALL)
    traced, _ = run.run_workload(name, 2, 0, trace=True, min_items=SMALL)
    assert list(plain["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float)) and m["unit"]


def test_each_item_is_scaled_by_the_samples_near_it(monkeypatch):
    assert reference.reference_pass() == reference.reference_pass()
    gauge = reference.Gauge()
    w = reference.WINDOW_S
    gauge.times = [0.0, 0.1, 0.2, 10.0, 10.1]
    gauge.samples = [0.002, 0.008, 0.004, 0.001, 0.001]
    gauge.spans = [(0.5, 0.6), (9.5, 9.6)]
    monkeypatch.setattr(reference, "clock", lambda: 20.0 + 3 * w)
    monkeypatch.setattr(reference, "sample", lambda: 1.0)  # the closing sample, out of reach
    nominal = reference.NOMINAL_S
    assert gauge.scales() == [nominal / 0.004, nominal / 0.001]


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dvb1_mesh", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
