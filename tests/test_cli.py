"""End-to-end checks of the command-line entry point via main(argv)."""

import json
import time

import pytest

from beepvote.cli import main


def test_markov_command(capsys):
    rc = main(["markov", "--nodes", "100", "--deltas", "0.9", "0.55"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "delta,counts,win_majority,draw"
    assert lines[1].startswith("0.9,10/90,")
    assert "0.965103" in lines[1]
    assert lines[2].startswith("0.55,45/55,")
    assert "0.539645" in lines[2]


def test_markov_state_count_guard_exits_one(capsys):
    # (567, 333, 100) spans about 19M chain states; the oracle must refuse
    # before allocating, not after
    start = time.perf_counter()
    rc = main(["markov", "--nodes", "1000", "--levels", "3", "--deltas", "0.1"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert elapsed < 1.0


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
        "master_seed = 9\nformat = json\n"
    )
    out_path = tmp_path / "rows.json"
    rc = main(["sweep", "--config", str(config), "--out", str(out_path)])
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


def test_missing_config_exits_one(capsys):
    rc = main(["sweep", "--config", "/nonexistent/sweep.cfg"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")


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
