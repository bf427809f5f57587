"""Golden outputs, pinned byte for byte.

Sweep CSV rows for both protocols over every d_mode and id_mode (DVB2
under a 40-phase cap), DVB2 rows with a tiny id space (c2 = 0.01, so
Y = Delta + 1 and random ids often collide inside a neighborhood), the stdout of each `beepvote` subcommand, and the
per-slot trace files of one run per protocol.  The expected text was
recorded from a known-good build.  A pure refactor must reproduce it
exactly; a deliberate behaviour change re-records it and says why.
"""

import hashlib

import pytest

from beepvote.cli import main
from beepvote.harness import CSV_HEADER, ExperimentConfig, render, run_sweep

SWEEP_DELTAS = {2: (0.6, 0.8), 3: (0.1,)}

# (algo, d_mode, id_mode, levels) -> CSV rows after the header
SWEEP_ROWS = {
    ("dvb1", "exact", "random", 2): """\
dvb1,complete,9,2,0.6,3,1,1,130,17.6667,0.438503,1,0
dvb1,complete,9,2,0.8,3,1,1,130,19.6667,0.438503,1,0
dvb1,complete,16,2,0.6,3,0.666667,1,162,34,0.20766,0.938508,0
dvb1,complete,16,2,0.8,3,0.666667,1,162,43.3333,0.20766,0.938508,0
dvb1,mesh2d,9,2,0.6,3,0.333333,4.33333,861.667,147,0.0614919,0.79234,0
dvb1,mesh2d,9,2,0.8,3,1,1,517,72.3333,0.438503,1,0
dvb1,mesh2d,16,2,0.6,3,1,3.33333,967,185,0.438503,1,0
dvb1,mesh2d,16,2,0.8,3,1,1,967,200.333,0.438503,1,0
dvb1,erdos_renyi,9,2,0.6,3,0.666667,2.33333,345.333,59.6667,0.20766,0.938508,0
dvb1,erdos_renyi,9,2,0.8,3,1,1,259,35.3333,0.438503,1,0
dvb1,erdos_renyi,16,2,0.6,3,0.666667,2.66667,538,119.667,0.20766,0.938508,0
dvb1,erdos_renyi,16,2,0.8,3,1,1.33333,376.667,75.6667,0.438503,1,0
""",
    ("dvb1", "exact", "random", 3): """\
dvb1,complete,9,3,0.1,3,1,1,196,26.6667,0.438503,1,0
dvb1,complete,16,3,0.1,3,1,1.33333,324.667,58.3333,0.438503,1,0
dvb1,mesh2d,9,3,0.1,3,1,2.33333,778,79,0.438503,1,0
dvb1,mesh2d,16,3,0.1,3,0.666667,4.66667,1454,204.667,0.20766,0.938508,0
dvb1,erdos_renyi,9,3,0.1,3,1,1,454.667,51.6667,0.438503,1,0
dvb1,erdos_renyi,16,3,0.1,3,0.666667,2,647.333,106.667,0.20766,0.938508,0
""",
    ("dvb1", "upper_bound_n", "random", 2): """\
dvb1,complete,9,2,0.6,3,1,1,1162,159.667,0.438503,1,0
dvb1,complete,9,2,0.8,3,1,1,1162,152,0.438503,1,0
dvb1,complete,16,2,0.6,3,0.666667,1,2577,499.333,0.20766,0.938508,0
dvb1,complete,16,2,0.8,3,0.666667,1,2577,509.333,0.20766,0.938508,0
dvb1,mesh2d,9,2,0.6,3,0.333333,4.33333,1549.33,234.667,0.0614919,0.79234,0
dvb1,mesh2d,9,2,0.8,3,1,1,1162,169,0.438503,1,0
dvb1,mesh2d,16,2,0.6,3,1,3.33333,2577,512.333,0.438503,1,0
dvb1,mesh2d,16,2,0.8,3,1,1,2577,533.333,0.438503,1,0
dvb1,erdos_renyi,9,2,0.6,3,0.666667,2.33333,1162,168,0.20766,0.938508,0
dvb1,erdos_renyi,9,2,0.8,3,1,1,1162,160.333,0.438503,1,0
dvb1,erdos_renyi,16,2,0.6,3,0.666667,2.66667,2577,510,0.20766,0.938508,0
dvb1,erdos_renyi,16,2,0.8,3,1,1.33333,2577,523.333,0.438503,1,0
""",
    ("dvb1", "upper_bound_n", "random", 3): """\
dvb1,complete,9,3,0.1,3,1,1,1748,168.667,0.438503,1,0
dvb1,complete,16,3,0.1,3,1,1.33333,3874,523,0.438503,1,0
dvb1,mesh2d,9,3,0.1,3,1,2.33333,1748,169,0.438503,1,0
dvb1,mesh2d,16,3,0.1,3,0.666667,4.66667,3874,514.667,0.20766,0.938508,0
dvb1,erdos_renyi,9,3,0.1,3,1,1,1748,166,0.438503,1,0
dvb1,erdos_renyi,16,3,0.1,3,0.666667,2,3874,532.667,0.20766,0.938508,0
""",
    ("dvb2", "exact", "random", 2): """\
dvb2,complete,9,2,0.6,3,1,9,2.11298e+06,199.333,0.438503,1,0
dvb2,complete,9,2,0.8,3,1,3.33333,782887,68.6667,0.438503,1,0
dvb2,complete,16,2,0.6,3,1,25,3.46634e+07,1001.67,0.438503,1,0
dvb2,complete,16,2,0.8,3,1,16.6667,2.31093e+07,644.333,0.438503,1,0
dvb2,mesh2d,9,2,0.6,3,1,16,468875,331,0.438503,1,0
dvb2,mesh2d,9,2,0.8,3,1,5,144380,90.3333,0.438503,1,0
dvb2,mesh2d,16,2,0.6,3,0.333333,34.6667,937584,1267.67,0.0614919,0.79234,0
dvb2,mesh2d,16,2,0.8,3,1,7,270572,342.333,0.438503,1,0
dvb2,erdos_renyi,9,2,0.6,3,1,18,2.90638e+06,389.333,0.438503,1,0
dvb2,erdos_renyi,9,2,0.8,3,1,2.66667,626404,53.3333,0.438503,1,0
dvb2,erdos_renyi,16,2,0.6,3,0.333333,34.3333,2.29641e+07,1324.67,0.0614919,0.79234,0
dvb2,erdos_renyi,16,2,0.8,3,1,14.6667,1.01345e+07,540.667,0.438503,1,0
""",
    ("dvb2", "exact", "random", 3): """\
dvb2,complete,9,3,0.1,3,1,19.3333,4.57556e+06,446.667,0.438503,1,0
dvb2,complete,16,3,0.1,3,1,22.3333,3.10709e+07,903.667,0.438503,1,0
dvb2,mesh2d,9,3,0.1,3,1,12.6667,369248,294,0.438503,1,0
dvb2,mesh2d,16,3,0.1,3,0.666667,31,922869,1234.67,0.20766,0.938508,0
dvb2,erdos_renyi,9,3,0.1,3,1,22.6667,3.97733e+06,505,0.438503,1,0
dvb2,erdos_renyi,16,3,0.1,3,1,28.6667,1.76532e+07,1101.67,0.438503,1,0
""",
    ("dvb2", "exact", "preassigned_unique", 2): """\
dvb2,complete,9,2,0.6,3,1,18,4.22548e+06,411,0.438503,1,0
dvb2,complete,9,2,0.8,3,1,4.66667,1.09585e+06,104,0.438503,1,0
dvb2,complete,16,2,0.6,3,1,28.3333,3.9285e+07,1112.67,0.438503,1,0
dvb2,complete,16,2,0.8,3,1,8.33333,1.15552e+07,326.333,0.438503,1,0
dvb2,mesh2d,9,2,0.6,3,0.666667,32.3333,901535,699,0.20766,0.938508,0
dvb2,mesh2d,9,2,0.8,3,1,4.66667,180435,118.333,0.438503,1,0
dvb2,mesh2d,16,2,0.6,3,1,23.3333,703230,916,0.438503,1,0
dvb2,mesh2d,16,2,0.8,3,1,7.66667,270572,305.333,0.438503,1,0
dvb2,erdos_renyi,9,2,0.6,3,1,16.6667,2.76256e+06,366.667,0.438503,1,0
dvb2,erdos_renyi,9,2,0.8,3,1,7,1.72177e+06,143.333,0.438503,1,0
dvb2,erdos_renyi,16,2,0.6,3,1,25.6667,1.74077e+07,961.333,0.438503,1,0
dvb2,erdos_renyi,16,2,0.8,3,1,9.33333,7.50236e+06,377,0.438503,1,0
""",
    ("dvb2", "exact", "preassigned_unique", 3): """\
dvb2,complete,9,3,0.1,3,1,16,3.78675e+06,385.333,0.438503,1,0
dvb2,complete,16,3,0.1,3,1,26.6667,3.70993e+07,1090.33,0.438503,1,0
dvb2,mesh2d,9,3,0.1,3,1,20,627607,485,0.438503,1,0
dvb2,mesh2d,16,3,0.1,3,0.666667,32.6667,978231,1304,0.20766,0.938508,0
dvb2,erdos_renyi,9,3,0.1,3,1,20,3.83894e+06,461,0.438503,1,0
dvb2,erdos_renyi,16,3,0.1,3,1,26.6667,1.76417e+07,1036,0.438503,1,0
""",
    ("dvb2", "upper_bound_n", "random", 2): """\
dvb2,complete,9,2,0.6,3,1,9,2.81713e+06,192.667,0.438503,1,0
dvb2,complete,9,2,0.8,3,1,3.33333,2.11297e+06,131,0.438503,1,0
dvb2,complete,16,2,0.6,3,1,25,4.06715e+07,973.667,0.438503,1,0
dvb2,complete,16,2,0.8,3,1,16.6667,3.69742e+07,806.333,0.438503,1,0
dvb2,mesh2d,9,2,0.6,3,1,16,568023,385.667,0.438503,1,0
dvb2,mesh2d,9,2,0.8,3,1,5,243530,137,0.438503,1,0
dvb2,mesh2d,16,2,0.6,3,0.333333,34.6667,1.00969e+06,1328.67,0.0614919,0.79234,0
dvb2,mesh2d,16,2,0.8,3,1,7,432817,415.333,0.438503,1,0
dvb2,erdos_renyi,9,2,0.6,3,1,18,3.25711e+06,389.333,0.438503,1,0
dvb2,erdos_renyi,9,2,0.8,3,1,2.66667,2.11297e+06,138,0.438503,1,0
dvb2,erdos_renyi,16,2,0.6,3,0.333333,34.3333,2.38472e+07,1322.67,0.0614919,0.79234,0
dvb2,erdos_renyi,16,2,0.8,3,1,14.6667,1.43931e+07,602.333,0.438503,1,0
""",
    ("dvb2", "upper_bound_n", "random", 3): """\
dvb2,complete,9,3,0.1,3,1,19.3333,5.67988e+06,485.667,0.438503,1,0
dvb2,complete,16,3,0.1,3,1,22.3333,3.70993e+07,835.667,0.438503,1,0
dvb2,mesh2d,9,3,0.1,3,1,12.6667,415387,301.667,0.438503,1,0
dvb2,mesh2d,16,3,0.1,3,0.666667,31,959779,1200.67,0.20766,0.938508,0
dvb2,erdos_renyi,9,3,0.1,3,1,22.6667,4.70914e+06,525,0.438503,1,0
dvb2,erdos_renyi,16,3,0.1,3,1,28.6667,2.07109e+07,1196.67,0.438503,1,0
""",
    ("dvb2", "upper_bound_n", "preassigned_unique", 2): """\
dvb2,complete,9,2,0.6,3,1,18,4.92962e+06,406.333,0.438503,1,0
dvb2,complete,9,2,0.8,3,1,4.66667,2.11297e+06,138,0.438503,1,0
dvb2,complete,16,2,0.6,3,1,28.3333,4.43688e+07,1014,0.438503,1,0
dvb2,complete,16,2,0.8,3,1,8.33333,2.2185e+07,411,0.438503,1,0
dvb2,mesh2d,9,2,0.6,3,0.666667,32.3333,964623,764.667,0.20766,0.938508,0
dvb2,mesh2d,9,2,0.8,3,1,4.66667,243530,127,0.438503,1,0
dvb2,mesh2d,16,2,0.6,3,1,23.3333,865474,1034.33,0.438503,1,0
dvb2,mesh2d,16,2,0.8,3,1,7.66667,432817,397.333,0.438503,1,0
dvb2,erdos_renyi,9,2,0.6,3,1,16.6667,3.25711e+06,404,0.438503,1,0
dvb2,erdos_renyi,9,2,0.8,3,1,7,2.81713e+06,194.333,0.438503,1,0
dvb2,erdos_renyi,16,2,0.6,3,1,25.6667,2.22806e+07,1176.33,0.438503,1,0
dvb2,erdos_renyi,16,2,0.8,3,1,9.33333,1.12597e+07,414.667,0.438503,1,0
""",
    ("dvb2", "upper_bound_n", "preassigned_unique", 3): """\
dvb2,complete,9,3,0.1,3,1,16,4.96995e+06,425,0.438503,1,0
dvb2,complete,16,3,0.1,3,1,26.6667,4.82287e+07,1207,0.438503,1,0
dvb2,mesh2d,9,3,0.1,3,1,20,664517,496.667,0.438503,1,0
dvb2,mesh2d,16,3,0.1,3,0.666667,32.6667,959779,1191,0.20766,0.938508,0
dvb2,erdos_renyi,9,3,0.1,3,1,20,4.88792e+06,553.667,0.438503,1,0
dvb2,erdos_renyi,16,3,0.1,3,1,26.6667,2.11428e+07,1174.33,0.438503,1,0
""",
}

# levels -> DVB2 CSV rows with c2 = 0.01 and random ids: Y = Delta + 1,
# so handshakes collide often and the collided exchange paths run
COLLISION_ROWS = {
    2: """\
dvb2,complete,6,2,0.6,4,0.75,12.5,1156,237.75,0.300642,0.954413,0
dvb2,complete,6,2,0.8,4,1,2.75,259,43.75,0.510109,1,0
dvb2,complete,12,2,0.6,4,1,9.5,2425,321.75,0.510109,1,0
dvb2,complete,12,2,0.8,4,1,8.25,2107.5,281.25,0.510109,1,0
dvb2,mesh2d,6,2,0.6,4,0.5,18.75,1030,286.25,0.150039,0.849961,0
dvb2,mesh2d,6,2,0.8,4,0.75,7.75,497,142,0.300642,0.954413,0
dvb2,mesh2d,12,2,0.6,4,0.25,20.25,1518,675.75,0.0455873,0.699358,0
dvb2,mesh2d,12,2,0.8,4,1,7.75,717,267.25,0.510109,1,0
dvb2,erdos_renyi,6,2,0.6,4,1,5.75,555,97.75,0.510109,1,0
dvb2,erdos_renyi,6,2,0.8,4,1,3,326.25,50,0.510109,1,0
dvb2,erdos_renyi,12,2,0.6,4,1,11.5,2209.5,408.75,0.510109,1,0
dvb2,erdos_renyi,12,2,0.8,4,1,7.5,1850,250.5,0.510109,1,0
""",
    3: """\
dvb2,complete,6,3,0.1,4,0.25,14.5,1689.5,280.75,0.0455873,0.699358,0
dvb2,complete,12,3,0.1,4,0.5,16.5,5001,667,0.150039,0.849961,0
dvb2,mesh2d,6,3,0.1,4,0.75,19.75,1428,308.5,0.300642,0.954413,0
dvb2,mesh2d,12,3,0.1,4,0.25,23.5,2174,803.75,0.0455873,0.699358,0
dvb2,erdos_renyi,6,3,0.1,4,0.75,14,1711.5,260.75,0.300642,0.954413,0
dvb2,erdos_renyi,12,3,0.1,4,0.25,22.5,5087.5,899,0.0455873,0.699358,0
""",
}

# argv -> stdout
CLI_STDOUT = {
    "run --nodes 30 --delta 0.9 --seed 5": """\
algo=dvb1 topology=complete n=30 k=2 delta=0.9 seed=5
counts=3,27 majority_level=2
status=completed terminated=True success=True
phases=1 consensus_phase=1 slots=200 beeps=66
final_value=2
""",
    "run --topology mesh2d --nodes 16 --delta 0.7 --seed 3 --d-mode upper_bound_n": """\
algo=dvb1 topology=mesh2d n=16 k=2 delta=0.7 seed=3
counts=4,12 majority_level=2
status=completed terminated=True success=True
phases=16 consensus_phase=1 slots=2577 beeps=520
final_value=2
""",
    "run --topology mesh2d --nodes 36 --levels 3 --delta 0.1 --seed 2 --max-phases 2": """\
algo=dvb1 topology=mesh2d n=36 k=3 delta=0.1 seed=2
counts=21,12,3 majority_level=1
status=max_phases_exceeded terminated=False success=False
phases=2 consensus_phase=None slots=624 beeps=148
final_value=mixed
""",
    "run --topology erdos_renyi --nodes 20 --levels 3 --delta 0.1 --seed 2": """\
algo=dvb1 topology=erdos_renyi n=20 k=3 delta=0.1 seed=2
counts=12,6,2 majority_level=1
status=completed terminated=True success=True
phases=2 consensus_phase=2 slots=528 beeps=84
final_value=1
""",
    "run --algo dvb2 --topology mesh2d --nodes 9 --delta 0.7 --seed 1": """\
algo=dvb2 topology=mesh2d n=9 k=2 delta=0.7 seed=1
counts=2,7 majority_level=2
status=completed terminated=True success=True
phases=12 consensus_phase=10 slots=324655 beeps=235
final_value=2
""",
    "run --algo dvb2 --nodes 8 --delta 0.75 --seed 4 --id-mode preassigned_unique": """\
algo=dvb2 topology=complete n=8 k=2 delta=0.75 seed=4
counts=2,6 majority_level=2
status=completed terminated=True success=True
phases=13 consensus_phase=13 slots=2064586 beeps=263
final_value=2
""",
    "run --algo dvb2 --topology erdos_renyi --nodes 12 --levels 3 --delta 0.2 --seed 6 --max-phases 5": """\
algo=dvb2 topology=erdos_renyi n=12 k=3 delta=0.2 seed=6
counts=6,4,2 majority_level=1
status=max_phases_exceeded terminated=False success=False
phases=5 consensus_phase=None slots=1667897 beeps=142
final_value=mixed
""",
    "run --algo dvb2 --topology mesh2d --nodes 16 --levels 3 --delta 0.1 --seed 8 --d-mode upper_bound_n --id-mode preassigned_unique --max-phases 3": """\
algo=dvb2 topology=mesh2d n=16 k=3 delta=0.1 seed=8
counts=10,5,1 majority_level=1
status=max_phases_exceeded terminated=False success=False
phases=3 consensus_phase=None slots=83200 beeps=83
final_value=mixed
""",
    "markov --nodes 60 --levels 3 --deltas 0.0 0.15 0.3": """\
delta,counts,win_majority,draw
0,40/20/0,0.680306,0.0520838
0.15,31/20/9,0.494557,0.106636
0.3,22/20/18,0.314218,0.130936
""",
    "bounds --nodes 50 --levels 3 --deltas 0.05 0.25 --epsilon 0.05": """\
# corrosion rounds for all-dead with prob >= 0.95: 10
# majority ratio threshold at epsilon=0.05: 2.91246
delta,counts,two_event_bound,closed_form_bound
0.05,32/16/2,0.499629,0.172364
0.25,22/16/12,0.262216,0.113943
""",
    "spots --topology erdos_renyi --nodes 12 --levels 3 --delta 0.2 --seed 3": """\
spot 0: level=2 size=4 nodes=0 5 9 10
spot 1: level=1 size=6 nodes=1 3 4 6 7 11
spot 2: level=3 size=2 nodes=2 8
""",
}

# argv -> (trace lines, sha256 of the trace file)
TRACE_DIGESTS = {
    "run --nodes 6 --delta 0.7 --seed 1": (
        21,
        "0d37488a9366ab336f1cd2453b3e6a76faf33189bb53bbac5cc18528871f4138",
    ),
    "run --algo dvb2 --topology mesh2d --nodes 4 --delta 0.75 --seed 2 --max-phases 3": (
        134,
        "ad5552b824f4e170e5932bc850432dcabab3f0a01db692757d8d9959accf5928",
    ),
}


@pytest.mark.parametrize("key", list(SWEEP_ROWS), ids=lambda k: "-".join(map(str, k)))
def test_sweep_rows(key):
    algo, d_mode, id_mode, levels = key
    config = ExperimentConfig(
        algo=algo,
        topology=("complete", "mesh2d", "erdos_renyi"),
        sizes=(9, 16),
        levels=levels,
        deltas=SWEEP_DELTAS[levels],
        trials=3,
        master_seed=11,
        d_mode=d_mode,
        id_mode=id_mode,
        max_phases=40 if algo == "dvb2" else None,
    )
    assert render(run_sweep(config), "csv") == CSV_HEADER + "\n" + SWEEP_ROWS[key]


@pytest.mark.parametrize("levels", list(COLLISION_ROWS))
def test_collision_rows(levels):
    config = ExperimentConfig(
        algo="dvb2",
        topology=("complete", "mesh2d", "erdos_renyi"),
        sizes=(6, 12),
        levels=levels,
        deltas=SWEEP_DELTAS[levels],
        trials=4,
        master_seed=5,
        c2=0.01,
        max_phases=25,
    )
    assert render(run_sweep(config), "csv") == CSV_HEADER + "\n" + COLLISION_ROWS[levels]


@pytest.mark.parametrize("argv", list(CLI_STDOUT))
def test_cli_stdout(argv, capsys):
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == CLI_STDOUT[argv]


@pytest.mark.parametrize("argv", list(TRACE_DIGESTS))
def test_trace_file(argv, tmp_path, capsys):
    path = tmp_path / "trace.log"
    assert main(argv.split() + ["--trace", str(path)]) == 0
    capsys.readouterr()
    data = path.read_bytes()
    assert (data.count(b"\n"), hashlib.sha256(data).hexdigest()) == TRACE_DIGESTS[argv]
