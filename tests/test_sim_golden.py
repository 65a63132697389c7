"""Byte-identity guard for the simulator's outputs.

Small `simulate` and `compare` runs write their snapshot CSVs and run.json;
the sha256 of every file must match `data/sim_digest_golden.json`.  A change
to the stepping, the history lookup or the CSV writer that moves one byte
fails here.  Set SDWAVE_REGENERATE_GOLDEN=1 to rewrite the golden file.
"""
import hashlib
import json
import os
from pathlib import Path

import pytest

from sdwave import cli

GOLDEN_PATH = Path(__file__).parent / "data" / "sim_digest_golden.json"
REGEN_GOLDEN_VAR = "SDWAVE_REGENERATE_GOLDEN"   # "1" rewrites the golden file

DELAYED_MODEL = """\
[model]
d = 1.0
birth.kind = ricker
birth.p = 2.0
delay.kind = saturating_rational
delay.m = 0.2
delay.M = 0.7
"""

SMALL_GRID = """\
x_min = -20
x_max = 40
nx = 400
t_end = 5
snapshot_count = 5
"""

RUNS = {
    # state-dependent lag, frozen history, Neumann ends
    "simulate_neumann": ("simulate", DELAYED_MODEL + "[pde]\n" + SMALL_GRID + """\
initial.kind = step
initial.high = equilibrium
history.kind = frozen
"""),
    # translated history and Dirichlet ends (the left one at the equilibrium
    # ln 2)
    "simulate_dirichlet": ("simulate", DELAYED_MODEL + "[pde]\n" + SMALL_GRID + """\
dt = 0.01
boundary = dirichlet
dirichlet_left = 0.6931471805599453
dirichlet_right = 0.0
initial.kind = step
initial.location = 5
initial.high = equilibrium
history.kind = translate
history.speed = 1.5
"""),
    # fixed-delay comparison system with a whole-snapshot history lookup
    "compare": ("compare", DELAYED_MODEL + "[comparison]\n" + SMALL_GRID + """\
D1 = 1.0
D2 = 2.0
D3 = 1.0
m = 0.5
dt = 0.02
initial.kind = bump
initial.center = 0
initial.width = 5
"""),
}


def run_digests(tmp_path):
    digests = {}
    for label, (command, text) in RUNS.items():
        cfg = tmp_path / f"{label}.cfg"
        cfg.write_text(text)
        out_dir = tmp_path / label
        assert cli.main(["--config", str(cfg), command, "--out-dir", str(out_dir)]) == 0
        names = json.loads((out_dir / "run.json").read_text())["files"]
        for name in names + ["run.json"]:
            digests[f"{label}/{name}"] = hashlib.sha256(
                (out_dir / name).read_bytes()).hexdigest()
    return digests


def test_simulator_outputs_byte_identical(tmp_path, capsys):
    digests = run_digests(tmp_path)
    capsys.readouterr()
    assert sum(key.endswith(".csv") for key in digests) == 15
    if os.environ.get(REGEN_GOLDEN_VAR) == "1":
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    if not GOLDEN_PATH.exists():
        pytest.fail(f"golden file {GOLDEN_PATH} is missing; set "
                    f"{REGEN_GOLDEN_VAR}=1 to regenerate it")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(digests) == sorted(golden)
    changed = sorted(key for key in golden if digests[key] != golden[key])
    assert not changed, f"outputs differ from {GOLDEN_PATH.name}: {changed}"
