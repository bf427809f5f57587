"""Sweep plumbing: assignments, config parsing, output formats, determinism."""

import json
from dataclasses import replace

import numpy as np
import pytest

from beepvote import harness
from beepvote.harness import (
    CSV_HEADER,
    ExperimentConfig,
    SweepRow,
    delta_fractions,
    emit,
    make_assignment,
    mesh_shape,
    parse_config,
    render,
    run_sweep,
    topology_spec,
    wilson_interval,
)
from beepvote.topology import Complete, ErdosRenyi, Mesh2D, default_edge_probability


def test_delta_fractions_binary():
    assert delta_fractions(2, 0.7) == pytest.approx((0.3, 0.7))
    with pytest.raises(ValueError):
        delta_fractions(2, 0.5)  # tie is not a valid majority share
    with pytest.raises(ValueError):
        delta_fractions(2, 1.01)


def test_delta_fractions_ternary():
    assert delta_fractions(3, 0.2) == pytest.approx((2 / 3 - 0.2, 1 / 3, 0.2))
    assert delta_fractions(3, 0.0) == pytest.approx((2 / 3, 1 / 3, 0.0))
    with pytest.raises(ValueError):
        delta_fractions(3, 1 / 3)
    with pytest.raises(ValueError):
        delta_fractions(4, 0.2)


def test_make_assignment_binary_counts():
    rng = np.random.default_rng(0)
    a = make_assignment(100, 2, 0.7, rng)
    assert tuple(a.level_counts()) == (30, 70)
    assert a.plurality_level() == 2


def test_make_assignment_ternary_counts():
    rng = np.random.default_rng(1)
    a = make_assignment(100, 3, 0.2, rng)
    assert tuple(a.level_counts()) == (47, 33, 20)
    assert a.plurality_level() == 1


def test_make_assignment_single_node():
    rng = np.random.default_rng(2)
    a = make_assignment(1, 2, 1.0, rng)
    assert tuple(a.level_counts()) == (0, 1)
    assert tuple(a.values) == (2,)


def test_make_assignment_shuffles():
    rng = np.random.default_rng(3)
    a = make_assignment(50, 2, 0.7, rng)
    b = make_assignment(50, 2, 0.7, rng)
    assert tuple(a.level_counts()) == tuple(b.level_counts())
    assert tuple(a.values) != tuple(b.values)


def test_make_assignment_rejects_ties():
    # the rounding slack lifts the minority share 2 * (1/2 - 1e-12) to 1,
    # so two nodes split one and one
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="no strict plurality"):
        make_assignment(2, 2, 0.5 + 1e-12, rng)


def test_wilson_contains_rate():
    lo, hi = wilson_interval(70, 100)
    assert 0.0 <= lo < 0.7 < hi <= 1.0


def test_wilson_width_shrinks_with_trials():
    lo1, hi1 = wilson_interval(70, 100)
    lo2, hi2 = wilson_interval(700, 1000)
    assert hi2 - lo2 < hi1 - lo1


def test_wilson_edges():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    assert wilson_interval(0, 20)[0] == pytest.approx(0.0, abs=1e-12)
    assert wilson_interval(20, 20)[1] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


GOOD_CONFIG = """\
# two topologies, two deltas
algo = dvb1
topology = complete mesh2d
sizes = 16, 36
levels = 2
deltas = 0.7 0.9
trials = 5
master_seed = 7
"""


def test_parse_config_good():
    cfg = parse_config(GOOD_CONFIG)
    assert cfg.algo == "dvb1"
    assert cfg.topology == ("complete", "mesh2d")
    assert cfg.sizes == (16, 36)
    assert cfg.deltas == (0.7, 0.9)
    assert cfg.trials == 5
    assert cfg.master_seed == 7
    assert cfg.format == "csv"
    assert cfg.out is None


def test_parse_config_unknown_key():
    with pytest.raises(ValueError, match="line 2: unknown key"):
        parse_config("trials = 3\nbogus = 1\n")


def test_parse_config_duplicate_key():
    with pytest.raises(ValueError, match="line 3: duplicate"):
        parse_config("trials = 3\n\ntrials = 4\n")


def test_parse_config_bad_value():
    with pytest.raises(ValueError, match="line 1: bad value"):
        parse_config("trials = soon\n")


def test_parse_config_missing_equals():
    with pytest.raises(ValueError, match="line 2: expected key = value"):
        parse_config("# fine\njust words\n")


def test_default_delta_grids():
    binary = ExperimentConfig(trials=1)
    assert len(binary.deltas) == 9
    assert binary.deltas[0] == pytest.approx(0.55)
    assert binary.deltas[-1] == pytest.approx(0.95)
    ternary = ExperimentConfig(levels=3, trials=1)
    assert len(ternary.deltas) == 7
    assert ternary.deltas[0] == pytest.approx(0.0)
    assert ternary.deltas[-1] == pytest.approx(0.30)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(algo="dvb3")
    with pytest.raises(ValueError):
        ExperimentConfig(topology=("torus",))
    with pytest.raises(ValueError):
        ExperimentConfig(deltas=(0.4,))
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)


def test_config_rejects_level_counts_without_a_delta_grid():
    for levels in (1, 4):
        for deltas in ((), (0.2,)):
            with pytest.raises(ValueError, match=r"levels must be one of \(2, 3\)"):
                ExperimentConfig(levels=levels, deltas=deltas)
    with pytest.raises(ValueError, match="levels must be one of"):
        parse_config("levels = 4\n")


def test_mesh_shape():
    assert mesh_shape(100) == (10, 10)
    assert mesh_shape(12) == (3, 4)
    assert mesh_shape(13) == (1, 13)


def test_topology_spec():
    assert topology_spec("complete", 5) == Complete(5)
    assert topology_spec("mesh2d", 12) == Mesh2D(3, 4)
    assert topology_spec("erdos_renyi", 50) == ErdosRenyi(50, default_edge_probability(50))
    with pytest.raises(ValueError):
        topology_spec("torus", 5)


ROW = SweepRow(
    algo="dvb1",
    topology="complete",
    n=10,
    k=2,
    delta=0.7,
    trials=4,
    success_rate=0.75,
    mean_phases=1.25,
    mean_slots=100.5,
    mean_beeps=33.25,
    ci95_lo=0.3,
    ci95_hi=0.95,
    errors=0,
)


def test_render_csv_header_only():
    assert render([], "csv") == CSV_HEADER + "\n"
    assert CSV_HEADER == (
        "algo,topology,n,k,delta,trials,success_rate,mean_phases,"
        "mean_slots,mean_beeps,ci95_lo,ci95_hi,errors"
    )


def test_render_csv_row():
    lines = render([ROW], "csv").strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("dvb1,complete,10,2,0.7,4,0.75,1.25,")


def test_emit_csv_file(tmp_path):
    path = tmp_path / "rows.csv"
    emit([ROW], "csv", str(path))
    assert path.read_text() == render([ROW], "csv")


def test_emit_json_roundtrip(tmp_path):
    path = tmp_path / "rows.json"
    emit([ROW], "json", str(path))
    data = json.loads(path.read_text())
    assert data == [ROW.json_obj()]
    assert data[0]["success_rate"] == 0.75
    assert data[0]["n"] == 10


def test_emit_unwritable_path(tmp_path):
    with pytest.raises(RuntimeError, match="cannot write"):
        emit([ROW], "csv", str(tmp_path / "missing" / "rows.csv"))


SWEEP = ExperimentConfig(
    algo="dvb1",
    topology=("complete",),
    sizes=(12,),
    levels=2,
    deltas=(0.75, 0.9),
    trials=6,
    master_seed=11,
)


def test_sweep_rows_well_formed_and_repeatable():
    rows = run_sweep(SWEEP, workers=1)
    assert len(rows) == 2
    for row in rows:
        assert row.errors == 0
        assert row.trials == 6
        assert 0.0 <= row.success_rate <= 1.0
        assert row.ci95_lo <= row.success_rate <= row.ci95_hi
        assert row.mean_phases >= 1.0
        assert row.mean_slots > 0
        assert row.mean_beeps > 0
    assert run_sweep(SWEEP, workers=1) == rows


def test_sweep_worker_count_does_not_change_rows():
    assert run_sweep(SWEEP, workers=2) == run_sweep(SWEEP, workers=1)


def test_sweep_appending_last_topology_keeps_rows():
    # seeds follow the point index in sweep_points order, so points added
    # after every existing one leave the old rows as they were
    extended = replace(SWEEP, topology=("complete", "mesh2d"))
    rows = run_sweep(extended)
    assert len(rows) == 4
    assert rows[:2] == run_sweep(SWEEP)


def test_sweep_workers_capped_at_point_count(monkeypatch):
    # a stand-in pool that records its size and maps serially: no process starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    rows = run_sweep(SWEEP, workers=5000)
    assert sizes == [2]
    assert rows == run_sweep(SWEEP, workers=1)


def test_single_trial_rate_is_zero_or_one():
    cfg = ExperimentConfig(sizes=(8,), deltas=(0.75,), trials=1, master_seed=3)
    (row,) = run_sweep(cfg)
    assert row.success_rate in (0.0, 1.0)
