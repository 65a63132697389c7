"""Byte-identity guard for the profile solver's outputs.

Four small `profile` runs write their CSVs through `cli.main`; the sha256 of
every CSV, and the exact text of the sidecar's solver figures, must match
`data/profile_digest_golden.json`.  The runs cover the plain monotone path,
the nonmonotone path twice (damped by an explicit `damping = 0.5`, where no
step is mixed, and at the default undamped step; both anchor by whole cells
throughout, as every nonmonotone solve does), and a near-critical solve at a
coarse grid, where exact anchoring and the geometric extrapolation run
under the monotone projection.  Every undamped whole-cell phase takes
Anderson-mixed steps.  Both solvers iterate in the same closed-form
sandwich, which for the nonmonotone birth is built from its envelope
equations.  A change to the iteration engine or the convolution kernel that
moves one bit fails here.  Each profile is then re-checked by `verify`,
whose invariants are pinned too, and `envelope` runs on the monotone (p=2)
and nonmonotone (p=3) birth, whose two CSVs (birth envelopes and the
solves' closed-form profile bounds) are pinned by their sha256.  A failure
lists each moved key with its golden and new value.  Set
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
    # nonmonotone band damped by 0.5, so never mixed, with whole-cell
    # anchoring only: 987 iterations
    "nonmonotone": (ricker(3.0) + "[profile]\nh = 0.02\nc_factor = 1.1\n"
                    "damping = 0.5\n", []),
    # the same band at the default undamped step, Anderson-mixed: 185
    # iterations (522 unmixed)
    "nonmonotone_auto": (ricker(3.0) + "[profile]\nh = 0.02\nc_factor = 1.1\n",
                         []),
    # near-critical surrogate: a mixed whole-cell phase, then exact anchoring
    # from iteration 177 and the 25-iteration extrapolation under the
    # monotone projection (it fires at 225): 232 iterations (1,774 unmixed)
    "critical": (ricker(2.0) + "[profile]\nh = 0.1\n", ["--critical"]),
}

# sidecar figures that the iteration determines bit for bit
RESULT_KEYS = ("c", "beta", "iterations", "phase_shift", "residual_sup")
INVARIANT_KEYS = ("f_consistency", "clamp_excess")
VERIFY_KEYS = ("residual_ok", "sandwich_ok", "monotone_ok", "lipschitz_ok")
ENVELOPE_RUNS = {"envelope_p2": ricker(2.0), "envelope_p3": ricker(3.0)}
ENVELOPE_CSVS = ("envelopes.csv", "profile_bounds.csv")


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """label -> (sha256 of the CSV, parsed sidecar report, parsed `verify`
    report) for each run."""
    tmp = tmp_path_factory.mktemp("profile_golden")
    runs = {}
    for label, (text, flags) in RUNS.items():
        cfg = tmp / f"{label}.cfg"
        cfg.write_text(text)
        out = tmp / f"{label}.csv"
        argv = ["--config", str(cfg), "--out", str(out), "profile"] + flags
        assert cli.main(argv) == 0
        assert cli.main(["--config", str(cfg), "verify", "--profile",
                         str(out)]) == 0
        runs[label] = (sha256(out),
                       json.loads(out.with_suffix(".json").read_text()),
                       json.loads((tmp / f"{label}_verify.json").read_text()))
    return runs


@pytest.fixture(scope="module")
def envelope_digests(tmp_path_factory):
    """"label.csv name" -> sha256 of each CSV `envelope` writes."""
    tmp = tmp_path_factory.mktemp("envelope_golden")
    digests = {}
    for label, text in ENVELOPE_RUNS.items():
        out_dir = tmp / label
        cfg = tmp / f"{label}.cfg"
        cfg.write_text(text + f"[output]\ndir = {out_dir}\n")
        assert cli.main(["--config", str(cfg), "envelope"]) == 0
        for name in ENVELOPE_CSVS:
            digests[f"{label}.{name}"] = sha256(out_dir / name)
    return digests


def test_profile_outputs_byte_identical(outputs, envelope_digests):
    digests = dict(envelope_digests)
    for label, (csv_digest, report, verified) in outputs.items():
        digests[f"{label}.csv"] = csv_digest
        for key in RESULT_KEYS:
            digests[f"{label}.results.{key}"] = repr(report["results"][key])
        for key in INVARIANT_KEYS:
            digests[f"{label}.invariants.{key}"] = repr(report["invariants"][key])
        for key in VERIFY_KEYS:
            digests[f"{label}.verify.{key}"] = repr(verified["invariants"][key])
    if os.environ.get(REGEN_GOLDEN_VAR) == "1":
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    if not GOLDEN_PATH.exists():
        pytest.fail(f"golden file {GOLDEN_PATH} is missing; set "
                    f"{REGEN_GOLDEN_VAR}=1 to regenerate it")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(digests) == sorted(golden)
    changed = [f"{key}: {golden[key]} -> {digests[key]}"
               for key in sorted(golden) if digests[key] != golden[key]]
    if changed:
        pytest.fail(f"outputs differ from {GOLDEN_PATH.name} (golden -> new):\n"
                    + "\n".join(changed))


def test_report_names_exact_anchoring_iteration(outputs):
    # the plateau trigger fires after iteration 176 of the near-critical
    # solve; it never fires on a nonmonotone solve
    want = {"monotone": None, "nonmonotone": None, "nonmonotone_auto": None,
            "critical": 177}
    for label, (_, report, _) in outputs.items():
        results = report["results"]
        assert results["exact_anchor_from"] == want[label], label
        engaged = "exact phase anchoring engaged" in results["note"]
        assert engaged == (want[label] is not None), label


def test_nonmonotone_band_reaches_its_fixed_point(outputs):
    # anchored by whole cells throughout, the damped band solve ends at a
    # true fixed point of F: |F(v) - v| is 2.0e-8
    _, report, _ = outputs["nonmonotone"]
    assert report["invariants"]["f_consistency"] <= 1e-7


def test_undamped_band_reaches_a_closer_fixed_point(outputs):
    # the default undamped step ends nearer a fixed point of F than damping
    # by 0.5 does: |F(v) - v| is 9.2e-9 against 2.0e-8
    undamped = outputs["nonmonotone_auto"][1]["invariants"]["f_consistency"]
    damped = outputs["nonmonotone"][1]["invariants"]["f_consistency"]
    assert undamped <= 2e-8
    assert undamped < damped


def test_mixing_cuts_whole_cell_iterations(outputs):
    # without Anderson mixing these take 235 and 522 iterations
    limits = {"monotone": 100, "nonmonotone_auto": 200}
    for label, limit in limits.items():
        assert outputs[label][1]["results"]["iterations"] <= limit, label


def test_report_counts_mixed_steps(outputs):
    for label, (_, report, _) in outputs.items():
        steps = report["results"]["anderson_steps"]
        if label == "nonmonotone":                # damped: never mixed
            assert steps == 0
        else:
            assert 0 < steps < report["results"]["iterations"], label
