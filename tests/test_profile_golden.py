"""Byte-identity guard for the profile solver's outputs.

Four small `profile` runs write their CSVs through `cli.main`; the sha256 of
every CSV, and the exact text of the sidecar's solver figures, must match
`data/profile_digest_golden.json`.  The runs cover the plain monotone path,
the nonmonotone path twice (damped by an explicit `damping = 0.5`, where
exact phase anchoring engages and no step is mixed, and at the default
undamped step, where whole-cell anchoring suffices; neither takes the
geometric extrapolation), and a near-critical solve at a coarse grid, where
exact anchoring and the extrapolation run under the monotone projection.
Every undamped whole-cell phase, the lower-envelope solve of the damped band
included, takes Anderson-mixed steps.  A change to the iteration engine or
the convolution kernel that moves one bit fails here.  Set
SDWAVE_REGENERATE_GOLDEN=1 to rewrite the golden file.
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
    # monotone iteration with whole-cell anchoring only, Anderson-mixed:
    # 77 iterations (235 unmixed)
    "monotone": (ricker(2.0) + "[profile]\nh = 0.05\nc_factor = 1.2\n", []),
    # nonmonotone band damped by 0.5, so never mixed, with exact anchoring
    # from iteration 418 and no extrapolation: 913 iterations
    "nonmonotone": (ricker(3.0) + "[profile]\nh = 0.02\nc_factor = 1.1\n"
                    "damping = 0.5\n", []),
    # the same band at the default undamped step: whole-cell anchoring only,
    # Anderson-mixed: 125 iterations (522 unmixed)
    "nonmonotone_auto": (ricker(3.0) + "[profile]\nh = 0.02\nc_factor = 1.1\n",
                         []),
    # near-critical surrogate: a mixed whole-cell phase, then exact anchoring
    # from iteration 184 and the 25-iteration extrapolation under the
    # monotone projection (it fires at 225, 350, 375 and 450): 452
    # iterations (1,774 unmixed)
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
    # the plateau trigger fires after iterations 417 and 183 respectively
    want = {"monotone": None, "nonmonotone": 418, "nonmonotone_auto": None,
            "critical": 184}
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


def test_undamped_band_reaches_a_closer_fixed_point(outputs):
    # the default undamped step ends nearer a fixed point of F than damping
    # by 0.5 does: |F(v) - v| is 8.0e-9 against 3.7e-8
    _, report = outputs["nonmonotone_auto"]
    assert report["invariants"]["f_consistency"] <= 2e-8


def test_mixing_cuts_whole_cell_iterations(outputs):
    # without Anderson mixing these take 235 and 522 iterations
    limits = {"monotone": 100, "nonmonotone_auto": 200}
    for label, limit in limits.items():
        assert outputs[label][1]["results"]["iterations"] <= limit, label


def test_report_counts_mixed_steps(outputs):
    for label, (_, report) in outputs.items():
        steps = report["results"]["anderson_steps"]
        if label == "nonmonotone":                # damped: never mixed
            assert steps == 0
        else:
            assert 0 < steps < report["results"]["iterations"], label
