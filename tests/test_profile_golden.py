"""Byte-identity guard for the profile solver's outputs.

Three small `profile` runs write their CSVs through `cli.main`; the sha256
of every CSV, and the exact text of the sidecar's solver figures, must match
`data/profile_digest_golden.json`.  The runs cover the plain monotone path,
the nonmonotone path (which anchors by whole cells throughout, as every
nonmonotone solve does), and a near-critical solve at a coarse grid, where
exact anchoring and the geometric extrapolation run under the monotone
projection.  Every whole-cell phase takes Anderson-mixed steps.  Both solvers iterate in the same closed-form
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
    # 31 iterations (81 unmixed)
    "monotone": (ricker(2.0) + "[profile]\nh = 0.05\nc_factor = 1.2\n", []),
    # nonmonotone band with whole-cell anchoring only, Anderson-mixed: 26
    # iterations (83 unmixed)
    "nonmonotone_auto": (ricker(3.0) + "[profile]\nh = 0.02\nc_factor = 1.1\n",
                         []),
    # near-critical surrogate: a mixed whole-cell phase, then exact anchoring
    # from iteration 186 and the 25-iteration extrapolation under the
    # monotone projection (it fires at 400, 425 and 450): 496 iterations
    # (497 unmixed)
    "critical": (ricker(2.0) + "[profile]\nh = 0.1\n", ["--critical"]),
}

# sidecar figures that the iteration determines bit for bit
RESULT_KEYS = ("c", "beta", "iteration_beta", "iterations", "phase_shift",
               "residual_sup")
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
    # the plateau trigger fires after iteration 185 of the near-critical
    # solve; it never fires on a nonmonotone solve
    want = {"monotone": None, "nonmonotone_auto": None, "critical": 186}
    for label, (_, report, _) in outputs.items():
        results = report["results"]
        assert results["exact_anchor_from"] == want[label], label
        engaged = "exact phase anchoring engaged" in results["note"]
        assert engaged == (want[label] is not None), label


def test_nonmonotone_band_reaches_its_fixed_point(outputs):
    # anchored by whole cells throughout, the band solve ends at a true
    # fixed point of F: |F(v) - v| is 3.3e-9
    _, report, _ = outputs["nonmonotone_auto"]
    assert report["invariants"]["f_consistency"] <= 2e-8


def test_mixing_cuts_whole_cell_iterations(outputs):
    # without Anderson mixing these take 81 and 83 iterations
    limits = {"monotone": 100, "nonmonotone_auto": 200}
    for label, limit in limits.items():
        assert outputs[label][1]["results"]["iterations"] <= limit, label


def test_report_counts_mixed_steps(outputs):
    for label, (_, report, _) in outputs.items():
        steps = report["results"]["anderson_steps"]
        assert 0 < steps < report["results"]["iterations"], label
