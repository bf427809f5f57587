"""End-to-end checks of the command-line entry point via main(argv)."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import beepvote
from beepvote import cli, harness
from beepvote.cli import main


def test_markov_command(capsys):
    rc = main(["markov", "--nodes", "100", "--deltas", "0.9", "0.55"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "delta,counts,win_majority,draw"
    assert lines[1].startswith("0.9,10/90,")
    assert "0.95716" in lines[1]
    assert lines[2].startswith("0.55,45/55,")
    assert "0.51534" in lines[2]


def test_markov_node_guard_exits_one(capsys):
    # (350000, 650001) holds one node past the oracle's limit, whose
    # weights cost O(N) per round; it must refuse before allocating
    start = time.perf_counter()
    rc = main(["markov", "--nodes", "1000001", "--deltas", "0.65"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert rc == 1
    assert err == "error: counts (350000, 650001) hold 1000001 nodes, above the limit of 1000000\n"
    assert out == ""
    assert elapsed < 1.0


def test_markov_solves_past_the_sampler_limits(capsys):
    # (567, 333, 100) spans about 19M full-grid states, and the exact chain
    # holds 27 capped ones; (0, 999998) is an absorbing start, answered
    # before any weights are built (it once spent 1.3 s building them)
    assert main(["markov", "--nodes", "1000", "--levels", "3", "--deltas", "0.1"]) == 0
    assert main(["markov", "--nodes", "999998", "--deltas", "1.0"]) == 0
    out = capsys.readouterr().out.split("\n")
    assert out[1].startswith("0.1,567/333/100,")
    assert out[3] == "1,0/999998,1,0"


def test_package_import_skips_scipy_stats():
    # a fresh interpreter, since this one may hold scipy.stats via a plugin;
    # importing it cost every beepvote process most of its start-up.
    # scipy.sparse.csgraph (and the scipy.linalg it loads, about 11 MB of
    # RSS) waits for the first spots call: an Erdos-Renyi build finds a
    # disconnected draw by its diameter search, so a DVB2 trial on one
    # loads neither.  concurrent.futures.process waits for a sweep that
    # runs its points in worker processes
    src = str(Path(beepvote.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import numpy as np; "
        "import beepvote, beepvote.cli, beepvote.harness, beepvote.analysis, "
        "beepvote.dvb1, beepvote.dvb2; "
        "from beepvote.harness import ExperimentConfig, simulate; "
        "config = ExperimentConfig(algo='dvb2', topology=('erdos_renyi',), max_phases=1); "
        "simulate(config, ('erdos_renyi', 16, 0.7), np.random.default_rng(0)); "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.stats', 'scipy.sparse.csgraph', 'scipy.linalg', "
        "'concurrent.futures.process'))))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_complete_graph_runs_and_the_oracle_load_no_scipy_sparse():
    # a complete graph stores no adjacency, so its trials (both protocols)
    # and the exact chain never import scipy.sparse; the first mesh build
    # in the same process does
    src = str(Path(beepvote.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "from beepvote import analysis, harness, topology; "
        "runs = [harness.run_trial(harness.ExperimentConfig(algo=algo), 0, "
        "('complete', 64, 0.7), 0) for algo in ('dvb1', 'dvb2')]; "
        "analysis.markov_success((35, 65)); "
        "print(all(r.terminated for r in runs), 'scipy.sparse' in sys.modules); "
        "g = topology.build(topology.Mesh2D(3, 4)); "
        "print(g.diameter, 'scipy.sparse' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.split("\n")[:2] == ["True False", "5 True"]


def test_analysis_import_loads_no_scipy():
    # dvb1 takes SURVIVAL_PROB from analysis, never the other way round, so
    # the oracle alone loads numpy and no simulator module or scipy at all
    src = str(Path(beepvote.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import beepvote.analysis; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'beepvote')))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "['beepvote', 'beepvote.analysis']"


@pytest.mark.parametrize("deltas", [["0.7"], ["0.1", "0.7"]])
def test_markov_bad_delta_prints_nothing(deltas, capsys):
    # 0.7 is a binary delta; every row is solved before the header prints
    rc = main(["markov", "--nodes", "60", "--levels", "3", "--deltas", *deltas])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ternary delta")


def test_bounds_command(capsys):
    rc = main(["bounds", "--nodes", "100", "--deltas", "0.75", "--epsilon", "0.01"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].endswith(": 14")
    assert lines[2] == "delta,counts,two_event_bound,closed_form_bound"
    assert lines[3].startswith("0.75,25/75,")
    assert "0.659743" in lines[3]
    assert "0.4558" in lines[3]


def test_run_command(capsys):
    rc = main(["run", "--nodes", "30", "--delta", "0.9", "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "algo=dvb1" in out
    assert "counts=3,27 majority_level=2" in out
    assert "status=" in out
    assert "final_value=" in out


def test_run_trace_file(tmp_path, capsys):
    path = tmp_path / "trace.log"
    rc = main(
        ["run", "--nodes", "4", "--delta", "0.75", "--seed", "1", "--trace", str(path)]
    )
    capsys.readouterr()
    assert rc == 0
    assert path.read_text().strip()


TRACE_LINE = re.compile(
    r"slots (\d+)\.\.\.(\d+) fast-forward beeps=(\d+)"
    r"|slot=(\d+) node=(\d+) action=(beep|listen) heard=[01]"
)


@pytest.mark.parametrize(
    "argv, all_cleared",
    [
        ("run --nodes 6 --delta 0.7 --seed 1", False),
        ("run --topology mesh2d --nodes 9 --c1 0.1 --max-phases 4", True),
        ("run --topology mesh2d --nodes 16 --seed 3 --max-phases 4", False),
        ("run --topology erdos_renyi --nodes 12 --seed 4 --max-phases 4", False),
        ("run --algo dvb2 --topology mesh2d --nodes 4 --delta 0.75 --seed 2 --max-phases 3", True),
        ("run --algo dvb2 --topology erdos_renyi --nodes 9 --delta 0.75 --seed 5 --max-phases 2",
         True),
    ],
)
def test_trace_tiles_the_run(argv, all_cleared, tmp_path, capsys):
    """The trace's fast-forward ranges and per-slot lines cover slots
    0..slots-1 once each, in order, and their beeps add up to the run's
    total.  The DVB1 runs at the default c1 fast-forward the ends of their
    corrosion phases with the survivors' beeps; all_cleared runs hit the
    termination wave's fast-forward over relay slots in which every node
    beeps."""
    path = tmp_path / "trace.log"
    assert main(argv.split() + ["--trace", str(path)]) == 0
    summary = re.search(r"slots=(\d+) beeps=(\d+)", capsys.readouterr().out)
    n = int(argv.split("--nodes ")[1].split()[0])
    slot = beeps = 0
    cleared_lines = 0
    lines = path.read_text().splitlines()
    i = 0
    while i < len(lines):
        m = TRACE_LINE.fullmatch(lines[i])
        assert m, lines[i]
        if m[1] is not None:  # a fast-forwarded range
            first, last, ff_beeps = int(m[1]), int(m[2]), int(m[3])
            assert first == slot and last >= first
            slot, beeps = last + 1, beeps + ff_beeps
            cleared_lines += ff_beeps == (last - first + 1) * n > 0
            i += 1
            continue
        nodes = [TRACE_LINE.fullmatch(line) for line in lines[i : i + n]]
        assert [(int(m[4]), int(m[5])) for m in nodes] == [(slot, j) for j in range(n)]
        beeps += sum(m[6] == "beep" for m in nodes)
        slot, i = slot + 1, i + n
    assert (slot, beeps) == (int(summary[1]), int(summary[2]))
    assert (cleared_lines > 0) == all_cleared


def test_spots_command(capsys):
    rc = main(
        ["spots", "--topology", "mesh2d", "--nodes", "9", "--delta", "0.7", "--seed", "2"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("spot 0: level=")
    sizes = [int(line.split("size=")[1].split()[0]) for line in lines]
    assert sum(sizes) == 9


def test_sweep_command(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "topology = complete\nsizes = 8\ndeltas = 0.75\ntrials = 3\n"
        "master_seed = 9\n"
    )
    out_path = tmp_path / "rows.json"
    rc = main(["sweep", "--config", str(config), "--format", "json", "--out", str(out_path)])
    capsys.readouterr()
    assert rc == 0
    data = json.loads(out_path.read_text())
    assert len(data) == 1
    assert data[0]["n"] == 8
    assert data[0]["trials"] == 3
    assert data[0]["errors"] == 0


def test_bad_delta_exits_one(capsys):
    rc = main(["run", "--nodes", "10", "--delta", "0.4"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")


def test_binary_delta_defaults_to_0_7(capsys):
    assert main(["run", "--nodes", "30", "--seed", "5"]) == 0
    assert "delta=0.7 " in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "spots"])
def test_ternary_without_delta_exits_one(command, capsys):
    # the binary default 0.7 lies outside the ternary range [0, 1/3)
    rc = main([command, "--nodes", "9", "--levels", "3"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == "error: --levels 3 has no default delta; pass --delta in [0, 1/3)\n"


def test_missing_config_exits_one(capsys):
    rc = main(["sweep", "--config", "/nonexistent/sweep.cfg"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")


def test_sweep_empty_config_value_exits_one(tmp_path, capsys):
    # refused while parsing, so nothing is swept and no output is written
    config = tmp_path / "sweep.cfg"
    config.write_text("topology =\nsizes = 16\n")
    out_path = tmp_path / "rows.csv"
    rc = main(["sweep", "--config", str(config), "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == "error: line 1: empty value for 'topology'\n"
    assert not out_path.exists()


def test_sweep_config_output_key_exits_one(tmp_path, capsys):
    # the output path and format are command-line options, not config keys
    config = tmp_path / "sweep.cfg"
    config.write_text("sizes = 8\nout = rows.csv\n")
    rc = main(["sweep", "--config", str(config)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == "error: line 2: unknown key 'out'\n"
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ("markov --nodes 2 --deltas 0.500000000001", "no strict plurality after rounding"),
        ("markov --nodes 0 --deltas 0.7", "no strict plurality after rounding"),
        ("bounds --nodes 2 --deltas 0.500000000001", "no strict plurality after rounding"),
        ("bounds --nodes 100 --deltas 0.7 0.500000000001", "no strict plurality after rounding"),
        ("bounds --nodes 1 --deltas 0.7", "counts must be >= 1"),
        ("bounds --nodes 0 --deltas 0.7", "n must be >= 1"),
        ("run --nodes 2 --delta 0.500000000001", "no strict plurality after rounding"),
        ("spots --nodes 2 --delta 0.500000000001", "no strict plurality after rounding"),
    ],
)
def test_unscorable_counts_exit_one_with_empty_stdout(argv, message, capsys):
    # two nodes at delta just above 1/2 split one and one, and zero nodes
    # have no plurality at all; bounds builds every row before printing, so
    # a failing row leaves no header or '#' lines behind
    rc = main(argv.split())
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sweep_workers_below_one_exits_one(workers, tmp_path, capsys):
    # used to run the sweep serially without a word
    config = tmp_path / "sweep.cfg"
    config.write_text("sizes = 8\ndeltas = 0.75\ntrials = 3\n")
    rc = main(["sweep", "--config", str(config), "--workers", workers])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"error: workers must be >= 1, got {workers}\n"


@pytest.mark.parametrize(
    "argv", ["--c1 inf", "--c1 nan", "--algo dvb2 --c2 inf", "--algo dvb2 --c2 nan"]
)
def test_run_non_finite_c_exits_one(argv, capsys):
    # inf used to die in an OverflowError traceback, nan in a cast error
    rc = main(["run", "--nodes", "16"] + argv.split())
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == "error: c1 and c2 must be positive and finite\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("--c1 1e308", "c1 * log2(N) is not finite at c1=1e+308, N=16"),
        (
            "--algo dvb2 --c2 1e308",
            "c2 * Delta * log2(Delta) is not finite at c2=1e+308, Delta=15",
        ),
    ],
)
def test_run_overflowing_c_exits_one(argv, message, capsys):
    # finite, but c * log2(.) overflowed to inf and math.ceil raised OverflowError
    rc = main(["run", "--nodes", "16"] + argv.split())
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("c2, y", [("3e8", "1.758e+10"), ("1e300", "5.86e+301")])
def test_run_c2_whose_id_space_overflows_int64_exits_one(c2, y, capsys):
    # 3e8 exited 0 with wrong results (the Y^2 grid offsets wrapped in
    # int64), and 1e300 died in numpy's "high is out of bounds for int64"
    rc = main(["run", "--nodes", "16", "--algo", "dvb2", "--c2", c2])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == (
        f"error: c2={float(c2):g} gives an id space Y = {y} at Delta=15, above 3037000499, "
        "where the Y^2 invitation grid overflows int64\n"
    )


@pytest.mark.parametrize("setting", ["c1 = nan", "algo = dvb2\nc2 = inf"])
def test_sweep_non_finite_c_exits_one_before_any_trial(setting, tmp_path, monkeypatch, capsys):
    # the config is refused while parsing, not counted as an error per trial
    def run_sweep(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    config = tmp_path / "sweep.cfg"
    config.write_text(f"sizes = 8\ndeltas = 0.75\ntrials = 3\n{setting}\n")
    rc = main(["sweep", "--config", str(config)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == "error: c1 and c2 must be positive and finite\n"


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 3.35 GiB"), MemoryError()])
def test_out_of_memory_exits_one(exc, monkeypatch, capsys):
    # a graph too large for memory (say erdos_renyi at 30,000 nodes) raises
    # MemoryError from the build; stand it in rather than allocate
    def build(*args, **kwargs):
        raise exc

    monkeypatch.setattr(harness, "build", build)
    rc = main(["run", "--topology", "erdos_renyi", "--nodes", "10"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"error: {exc or 'MemoryError'}\n"


def test_unknown_command_rejected(capsys):
    # the simulator's survival probability is fixed, so markov takes none
    for argv in (["frobnicate"],
                 ["markov", "--nodes", "9", "--deltas", "0.7", "--survival", "0.3"]):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag", [["--algo", "dvb2"], ["--c1", "3"], ["--c2", "3"],
             ["--d-mode", "exact"], ["--id-mode", "random"]]
)
def test_spots_rejects_protocol_flags(flag, capsys):
    # spots only builds a graph and an assignment; protocol flags belong to run
    with pytest.raises(SystemExit):
        main(["spots", "--nodes", "9"] + flag)
    capsys.readouterr()


def test_levels_outside_the_delta_grid_rejected(capsys):
    # the delta parameterization covers 2 or 3 levels, so argparse refuses
    # any other count before a graph is built
    for argv in (["run", "--levels", "4"], ["spots", "--levels", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
