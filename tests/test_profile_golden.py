"""Byte-identity guard for the profile solver's outputs.

Three small `profile` runs write their CSVs through `cli.main`; the sha256 of
every CSV, and the exact text of the sidecar's solver figures, must match
`data/profile_digest_golden.json`.  The runs cover the plain monotone path,
the damped nonmonotone path once exact phase anchoring engages (it never
takes the geometric extrapolation), and a near-critical solve at a coarse
grid, where exact anchoring and the extrapolation run under the monotone
projection.  A change to the iteration engine or the convolution kernel
that moves one bit fails here.  Set SDWAVE_REGENERATE_GOLDEN=1 to rewrite
the golden file.
"""
import hashlib
import json
import os
from pathlib import Path

import pytest

from sdwave import cli

GOLDEN_PATH = Path(__file__).parent / "data" / "profile_digest_golden.json"
REGEN_GOLDEN_VAR = "SDWAVE_REGENERATE_GOLDEN"   # "1" rewrites the golden file


def ricker(p):
    return f"""\
[model]
d = 1.0
birth.kind = ricker
birth.p = {p!r}
delay.kind = saturating_rational
delay.m = 0.2
delay.M = 0.7
"""


RUNS = {
    # monotone iteration with whole-cell anchoring only
    "monotone": (ricker(2.0) + "[profile]\nh = 0.05\nc_factor = 1.2\n", []),
    # damped nonmonotone band with exact anchoring from iteration 418 and no
    # extrapolation: 903 iterations
    "nonmonotone": (ricker(3.0) + "[profile]\nh = 0.02\nc_factor = 1.1\n", []),
    # near-critical surrogate: exact anchoring from iteration 151 and the
    # 25-iteration extrapolation under the monotone projection: 1,774
    # iterations
    "critical": (ricker(2.0) + "[profile]\nh = 0.1\n", ["--critical"]),
}

# sidecar figures that the iteration determines bit for bit
RESULT_KEYS = ("c", "beta", "iterations", "phase_shift", "residual_sup")
INVARIANT_KEYS = ("f_consistency", "clamp_excess")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """label -> (sha256 of the CSV, parsed sidecar report) for each run."""
    tmp = tmp_path_factory.mktemp("profile_golden")
    runs = {}
    for label, (text, flags) in RUNS.items():
        cfg = tmp / f"{label}.cfg"
        cfg.write_text(text)
        out = tmp / f"{label}.csv"
        argv = ["--config", str(cfg), "--out", str(out), "profile"] + flags
        assert cli.main(argv) == 0
        runs[label] = (hashlib.sha256(out.read_bytes()).hexdigest(),
                       json.loads(out.with_suffix(".json").read_text()))
    return runs


def test_profile_outputs_byte_identical(outputs):
    digests = {}
    for label, (csv_digest, report) in outputs.items():
        digests[f"{label}.csv"] = csv_digest
        for key in RESULT_KEYS:
            digests[f"{label}.results.{key}"] = repr(report["results"][key])
        for key in INVARIANT_KEYS:
            digests[f"{label}.invariants.{key}"] = repr(report["invariants"][key])
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


def test_report_names_exact_anchoring_iteration(outputs):
    # the plateau trigger fires after iterations 417 and 150 respectively
    want = {"monotone": None, "nonmonotone": 418, "critical": 151}
    for label, (_, report) in outputs.items():
        results = report["results"]
        assert results["exact_anchor_from"] == want[label], label
        engaged = "exact phase anchoring engaged" in results["note"]
        assert engaged == (want[label] is not None), label


def test_nonmonotone_band_reaches_its_fixed_point(outputs):
    # without the geometric jump the damped band solve ends at a true fixed
    # point of F: |F(v) - v| is 3.7e-8 (2.5e-7 with the jump)
    _, report = outputs["nonmonotone"]
    assert report["invariants"]["f_consistency"] <= 1e-7
