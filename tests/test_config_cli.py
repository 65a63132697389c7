import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sdwave import bounds, cli, config, dispersion, model, profile, reporting
from sdwave.errors import ConfigError
from conftest import widths

BASE_MODEL = """\
[model]
d = 1.0
birth.kind = ricker
birth.p = 2.0
delay.kind = constant
delay.m = 0.0
"""

DELAYED_MODEL = """\
[model]
d = 1.0
birth.kind = ricker
birth.p = 2.0
delay.kind = saturating_rational
delay.m = 0.2
delay.M = 0.7
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestConfigParsing:
    # all but the first were options of the dispersion, profile and
    # simulator layers; a config that still sets one fails like any other
    # unknown key
    @pytest.mark.parametrize("extra,key", [
        ("typo_key = 3\n", "typo_key"),
        ("[dispersion]\nexponent = lambda_m\n", "exponent"),
        ("[dispersion]\ntol = 1e-12\n", "tol"),
        ("[profile]\nbeta = 5\n", "beta"),
        ("[profile]\nmode = auto\n", "mode"),
        ("[profile]\nphase_level = 0.3\n", "phase_level"),
        ("[pde]\nstore_every = 3\n", "store_every"),
        ("[pde]\ntrack_every = 2\n", "track_every"),
        ("[pde]\nlevel = 1.0\n", "level"),
        ("[profile]\nleft_width = 30\n", "left_width"),
        ("[profile]\nright_width = 40\n", "right_width"),
        ("[profile]\ndamping = 0.5\n", "damping"),
    ], ids=["typo_key", "dispersion.exponent", "dispersion.tol", "profile.beta",
            "profile.mode", "profile.phase_level", "pde.store_every",
            "pde.track_every", "pde.level", "profile.left_width",
            "profile.right_width", "profile.damping"])
    def test_unknown_key_rejected(self, tmp_path, extra, key):
        p = write_cfg(tmp_path, BASE_MODEL + extra)
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            config.load_config(p)
        assert run_cli(["--config", p, "speed"]) == 1

    def test_solver_config_fields_are_the_profile_keys(self, tmp_path):
        # library surface = CLI surface: every solver option is a [profile]
        # key, and the CLI hands each one over; c, critical and c_factor
        # pick the speed instead
        keys = set(config.SCHEMA["profile"]) - {"c", "critical", "c_factor"}
        fields = {f.name for f in dataclasses.fields(profile.SolverConfig)}
        assert fields == keys
        values = {"tol": 1e-9, "max_iters": 123, "h": 0.05}
        text = BASE_MODEL + "[profile]\n" + "".join(
            f"{key} = {value!r}\n" for key, value in values.items())
        sc = cli._solver_config(config.load_config(write_cfg(tmp_path, text)))
        assert {key: getattr(sc, key) for key in fields} == values

    def test_unknown_section_rejected(self, tmp_path):
        p = write_cfg(tmp_path, BASE_MODEL + "[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            config.load_config(p)

    def test_missing_d_is_config_error(self, tmp_path):
        p = write_cfg(tmp_path, "[model]\nbirth.kind = ricker\nbirth.p = 2\n")
        cfg = config.load_config(p)
        with pytest.raises(ConfigError, match="'d'"):
            config.build_model(cfg)

    def test_parse_error_reports_location(self, tmp_path):
        p = write_cfg(tmp_path, "[model\nd = 1\n")
        with pytest.raises(ConfigError, match="line"):
            config.load_config(p)

    def test_build_delay_kinds(self, tmp_path):
        # a constant lag is the rational lag with M = m; delay.M is ignored
        for kind, cls, M in (("constant", model.RationalDelay, 0.1),
                             ("saturating_rational", model.RationalDelay, 0.5),
                             ("saturating_exponential", model.ExponentialDelay, 0.5)):
            text = (f"[model]\nd = 1.0\nbirth.kind = ricker\nbirth.p = 2\n"
                    f"delay.kind = {kind}\ndelay.m = 0.1\ndelay.M = 0.5\n")
            m = config.build_model(config.load_config(write_cfg(tmp_path, text)))
            assert type(m.delay) is cls
            assert (m.delay.m, m.delay.M) == (0.1, M)

    def test_build_tabulated_birth(self, tmp_path):
        u = np.linspace(0.0, 5.0, 200)
        b = 2.0 * u * np.exp(-u)
        table = tmp_path / "birth.csv"
        reporting.write_csv(table, "u,b", [u, b])
        text = (f"[model]\nd = 1.0\nbirth.kind = tabulated\n"
                f"birth.table_path = {table.name}\ndelay.kind = constant\n"
                "delay.m = 0.0\n")
        m = config.build_model(config.load_config(write_cfg(tmp_path, text)))
        assert isinstance(m.birth, model.TabulatedBirth)
        assert model.equilibrium(m) == pytest.approx(math.log(2.0), abs=1e-4)


class TestSpeedCommand:
    def test_kpp_c_star(self, tmp_path, capsys):
        p = write_cfg(tmp_path, BASE_MODEL)
        assert run_cli(["--config", p, "--json", "speed"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["c_star"] == 2.0
        assert rep["results"]["lambda_star"] == 1.0
        # the double-root residuals replace the old bisection bracket
        assert "bracket" not in rep["results"]
        assert rep["results"]["char_residual"] == 0.0
        assert rep["results"]["slope_residual"] == 0.0

    def test_json_is_single_object(self, tmp_path, capsys):
        p = write_cfg(tmp_path, BASE_MODEL)
        run_cli(["--config", p, "--json", "speed", "--c", "2.5"])
        rep = json.loads(capsys.readouterr().out)
        roots = rep["results"]["roots"]
        assert len(roots) == 1
        assert roots[0]["lambda1"] == pytest.approx(0.5, abs=1e-9)

    def test_missing_d_exits_1(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "[model]\nbirth.kind = ricker\nbirth.p = 2\n")
        assert run_cli(["--config", p, "speed"]) == 1

    @pytest.mark.parametrize("birth_p", ["2.0", "3.0"])
    def test_beta_is_the_one_the_profile_solve_uses(self, tmp_path, capsys,
                                                     birth_p):
        # speed prints the paper's kernel rates, whose beta the solve reports
        # and certifies membership with; they cover [0, level] of the
        # model's envelopes: K for the monotone p = 2, the upper-envelope
        # level p/e for p = 3
        p = write_cfg(tmp_path, DELAYED_MODEL.replace(
            "birth.p = 2.0", f"birth.p = {birth_p}") + "\n[profile]\nh = 0.02\n")
        out = tmp_path / "wave.csv"
        assert run_cli(["--config", p, "--out", out, "profile", "--c", "2"]) == 0
        capsys.readouterr()
        assert run_cli(["--config", p, "--json", "speed", "--c", "2"]) == 0
        row, = json.loads(capsys.readouterr().out)["results"]["beta"]
        sidecar = json.loads(out.with_suffix(".json").read_text())["results"]
        assert row["c"] == sidecar["c"] == 2.0
        assert row["beta"] == sidecar["beta"]

    @pytest.mark.parametrize("birth_p, rel", [
        (35.0, 1e-15), (40.0, 1e-15), (60.0, 1e-15), (75.0, 1e-15),
        (78.0, 1e-14), (80.0, 1e-14), (200.0, 1e-14), (1000.0, 1e-14)],
        ids=["35.0", "40.0", "60.0", "75.0", "78.0", "80.0", "200.0", "1000.0"])
    def test_large_ricker_coefficient_has_a_lower_envelope(self, tmp_path,
                                                           birth_p, rel):
        # k = b(level)/d lies below level / 10,000 once p/d exceeds 34.7,
        # and below equilibrium's first scan node, 1e-9, from p/d of 78; at
        # p = 1000, k is 6.3e-155, where a product of two values of the
        # equilibrium function underflows and a product sign test went astray
        p = write_cfg(tmp_path, DELAYED_MODEL.replace(
            "birth.p = 2.0", f"birth.p = {birth_p}"))
        assert run_cli(["--config", p, "speed"]) == 0
        m = config.build_model(config.load_config(p))
        pair = bounds.build_envelopes(m, model.validate_hypotheses(m).monotone)
        assert pair.k == pytest.approx(m.birth.value(pair.level) / m.d,
                                       rel=rel, abs=0.0)

    def test_invalid_model_exits_2(self, tmp_path):
        bad = "[model]\nd = 3.0\nbirth.kind = ricker\nbirth.p = 2.0\ndelay.kind = constant\ndelay.m = 0\n"
        p = write_cfg(tmp_path, bad)
        assert run_cli(["--config", p, "speed"]) == 2

    def test_threshold_speed_below_one_millionth(self, tmp_path, capsys):
        # p/d = 1 + 1e-13 puts c* near 5e-7, below the speed bracket's usual
        # lower end 1e-6; there the double root is near its small-gap limit
        # c* = 2 sqrt(b'(0) - d) / (1 + b'(0) tau(0))
        birth_p = 1.0 + 1e-13
        p = write_cfg(tmp_path, DELAYED_MODEL.replace(
            "birth.p = 2.0", f"birth.p = {birth_p!r}"))
        assert run_cli(["--config", p, "--json", "speed"]) == 0
        c_star = json.loads(capsys.readouterr().out)["results"]["c_star"]
        limit = 2.0 * math.sqrt(birth_p - 1.0) / (1.0 + birth_p * 0.2)
        assert c_star == pytest.approx(limit, rel=1e-3)

    @pytest.mark.parametrize("d", [0.3, 1.0, 5.0])
    def test_growth_an_ulp_above_death_ends_with_one_line(self, tmp_path,
                                                          capsys, d):
        # p/d = 1 + 2.2e-16: b'(0) - d is one ulp of d, too coarse for the
        # decay roots at 1.1 c* to resolve at every d
        p = write_cfg(tmp_path, DELAYED_MODEL
                      .replace("d = 1.0", f"d = {d!r}")
                      .replace("birth.p = 2.0", f"birth.p = {(1.0 + 2.2e-16) * d!r}"))
        code = run_cli(["--config", p, "speed"])
        err = capsys.readouterr().err
        assert (code, err) == (0, "") or (code == 2 and err.count("\n") == 1)
        assert "near-zero speed" not in err

    @pytest.mark.parametrize("key, old, new", [
        ("d", "d = 1.0", "d = nan"),
        ("birth.p", "birth.p = 2.0", "birth.p = nan"),
        ("delay.m", "delay.m = 0.2", "delay.m = nan"),
        ("delay.M", "delay.M = 0.7", "delay.M = -inf"),
    ])
    def test_nonfinite_value_names_key(self, tmp_path, capsys, key, old, new):
        p = write_cfg(tmp_path, DELAYED_MODEL.replace(old, new))
        assert run_cli(["--config", p, "speed"]) == 1
        err = capsys.readouterr().err
        assert f"[model] {key}:" in err and "finite" in err

    def test_huge_coefficient_ends_with_one_line(self, tmp_path):
        p = write_cfg(tmp_path, BASE_MODEL.replace("birth.p = 2.0",
                                                   "birth.p = 1e308"))
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            ["timeout", "20", sys.executable, "-m", "sdwave.cli",
             "--config", str(p), "speed"],
            capture_output=True, text=True, env=env, timeout=60)
        assert 0 <= proc.returncode <= 4, proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr

    @pytest.mark.parametrize("command", ["profile", "envelope"])
    def test_overflowing_equilibrium_is_a_model_error(self, tmp_path, command):
        # p/d overflows, so K = log(p/d) is inf: refused before any grid on
        # [0, K] turns into NaN and numpy warnings
        p = write_cfg(tmp_path, DELAYED_MODEL.replace("d = 1.0", "d = 1e-300")
                      .replace("birth.p = 2.0", "birth.p = 1e10"))
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "sdwave.cli", "--config", str(p), command],
            capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert "Warning" not in proc.stderr
        assert "not finite" in proc.stderr

    def test_csv_output(self, tmp_path):
        p = write_cfg(tmp_path, BASE_MODEL)
        out = tmp_path / "roots.csv"
        assert run_cli(["--config", p, "--out", out, "speed", "--c", "2.5",
                        "--c", "3.0"]) == 0
        cols = reporting.read_csv(out)
        assert list(cols["c"]) == [2.5, 3.0]
        assert (tmp_path / "roots.json").exists()


@pytest.fixture(scope="module")
def profile_run(tmp_path_factory):
    """One CLI profile solve shared by the profile/verify tests."""
    tmp = tmp_path_factory.mktemp("cliprof")
    cfg_path = tmp / "run.cfg"
    cfg_path.write_text(DELAYED_MODEL + "\n[profile]\nh = 0.02\nc_factor = 1.3\n")
    out = tmp / "wave.csv"
    code = run_cli(["--config", cfg_path, "--out", out, "profile"])
    return cfg_path, out, code


class TestProfileVerifyCommands:
    def test_profile_then_verify_roundtrip(self, profile_run):
        cfg_path, out, code = profile_run
        assert code == 0
        assert out.exists() and out.with_suffix(".json").exists()
        assert run_cli(["--config", cfg_path, "verify", "--profile", out]) == 0

    def test_verify_detects_corruption(self, profile_run, capsys, tmp_path):
        cfg_path, out, _ = profile_run
        lines = out.read_text().splitlines()
        xi, phi = lines[400].split(",")
        corrupted = tmp_path / "bad.csv"
        lines[400] = f"{xi},{float(phi) + 0.1}"
        corrupted.write_text("\n".join(lines) + "\n")
        sidecar = json.loads(out.with_suffix(".json").read_text())
        corrupted.with_suffix(".json").write_text(json.dumps(sidecar))
        code = run_cli(["--config", cfg_path, "verify", "--profile", corrupted])
        assert code == 3
        err = capsys.readouterr()
        assert "residual" in err.out + err.err
        # the failing verification still writes its report
        report = json.loads((tmp_path / "bad_verify.json").read_text())
        assert report["invariants"]["residual_ok"] is False
        assert isinstance(report["timings"]["total"], float)

    def test_verify_takes_beta_from_the_model_not_the_sidecar(
            self, profile_run, capsys, tmp_path):
        # xi compressed 1,000-fold makes the profile 1,000 times steeper than
        # the solve's, past the Lipschitz bound beta level / (A c) at the
        # paper's beta; a sidecar beta of 1e300 would pass it, and verify
        # does not read it
        cfg_path, out, _ = profile_run
        cols = reporting.read_csv(out)
        steep = tmp_path / "steep.csv"
        reporting.write_csv(steep, "xi,phi", [cols["xi"] / 1000.0, cols["phi"]])
        sidecar = json.loads(out.with_suffix(".json").read_text())
        sidecar["results"]["beta"] = 1e300
        steep.with_suffix(".json").write_text(json.dumps(sidecar))
        assert run_cli(["--config", cfg_path, "verify", "--profile", steep]) == 3
        assert "lipschitz_ratio" in capsys.readouterr().err
        report = json.loads((tmp_path / "steep_verify.json").read_text())
        assert report["invariants"]["lipschitz_ok"] is False

    def test_verify_rejects_incomplete_sidecar(self, profile_run, capsys,
                                               tmp_path):
        cfg_path, out, _ = profile_run
        copy = tmp_path / "old.csv"
        copy.write_bytes(out.read_bytes())
        sidecar = json.loads(out.with_suffix(".json").read_text())
        del sidecar["results"]["phase_shift"]
        copy.with_suffix(".json").write_text(json.dumps(sidecar))
        assert run_cli(["--config", cfg_path, "verify", "--profile", copy]) == 1
        assert "phase_shift" in capsys.readouterr().err

    def test_nonmonotone_profile_then_verify_roundtrip(self, tmp_path):
        text = DELAYED_MODEL.replace("birth.p = 2.0", "birth.p = 3.0")
        p = write_cfg(tmp_path, text + "\n[profile]\nh = 0.02\nc_factor = 1.3\n")
        out = tmp_path / "band.csv"
        assert run_cli(["--config", p, "--out", out, "profile"]) == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["results"]["mode"] == "nonmonotone"
        assert run_cli(["--config", p, "verify", "--profile", out]) == 0

    @pytest.mark.parametrize("mode", [None, "banded"], ids=["missing", "unknown"])
    def test_verify_requires_a_known_mode(self, profile_run, capsys, tmp_path,
                                          mode):
        # the sidecar's mode picks the membership check: without it, or with
        # a mode no solver writes, verify names the sidecar instead of guessing
        cfg_path, out, _ = profile_run
        copy = tmp_path / "old.csv"
        copy.write_bytes(out.read_bytes())
        sidecar = json.loads(out.with_suffix(".json").read_text())
        if mode is None:
            del sidecar["results"]["mode"]
        else:
            sidecar["results"]["mode"] = mode
        copy.with_suffix(".json").write_text(json.dumps(sidecar))
        assert run_cli(["--config", cfg_path, "verify", "--profile", copy]) == 1
        err = capsys.readouterr().err
        assert str(copy.with_suffix(".json")) in err and "mode" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [
        ("c", -1.0), ("residual_sup", math.nan), ("phase_shift", math.inf),
    ])
    def test_verify_rejects_unusable_sidecar_values(self, profile_run, capsys,
                                                    tmp_path, key, value):
        # each of these ended in a traceback, or passed a check it made vacuous
        cfg_path, out, _ = profile_run
        copy = tmp_path / "old.csv"
        copy.write_bytes(out.read_bytes())
        sidecar = json.loads(out.with_suffix(".json").read_text())
        sidecar["results"][key] = value
        copy.with_suffix(".json").write_text(json.dumps(sidecar))
        assert run_cli(["--config", cfg_path, "verify", "--profile", copy]) == 1
        err = capsys.readouterr().err
        assert f"{copy.with_suffix('.json')}: {key} must be" in err
        assert err.count("\n") == 1

    def test_nonmonotone_right_end_is_checked(self, tmp_path, capsys,
                                              monkeypatch):
        # a right width of 4 cuts the band short of [k, level]: the closed-form
        # lower bound is 0 there, so only the end check stops the run
        widths(monkeypatch, right=4.0)
        text = DELAYED_MODEL.replace("birth.p = 2.0", "birth.p = 3.0")
        p = write_cfg(tmp_path, text + "\n[profile]\nh = 0.02\n")
        assert run_cli(["--config", p, "--out", tmp_path / "x.csv",
                        "profile"]) == 4
        err = capsys.readouterr().err
        assert "the right end" in err and "left end" not in err
        pair = err.strip().rsplit("widths ", 1)[1]
        assert "," not in pair and pair.split("/")[1] == "4"

    @pytest.mark.parametrize("birth_p, max_iters, code", [
        (100.0, 10_000, 0), (120.0, 500, 4)], ids=["100", "120"])
    def test_lower_envelope_passes_b2_past_its_rounding(
            self, tmp_path, capsys, birth_p, max_iters, code):
        # k is 3.9e-13 at p=100 and 3.6e-16 at p=120, where p u exp(-u)
        # rounds to p u on the first points of the B2 grid: both exited 2
        # naming B2.  p=100 now converges (242 iterations); p=120 iterates
        # and exits 4 (the full budget of 10,000 takes about 6 s)
        p = write_cfg(tmp_path, DELAYED_MODEL.replace(
            "birth.p = 2.0", f"birth.p = {birth_p}")
            + f"\n[profile]\nh = 0.02\nmax_iters = {max_iters}\n")
        assert run_cli(["--config", p, "--out", tmp_path / "x.csv",
                        "profile"]) == code
        assert "B2" not in capsys.readouterr().err

    def test_lower_envelope_above_its_tangent_exits_2_naming_b2(
            self, tmp_path, capsys, monkeypatch):
        # the p=100 lower envelope lifted by 1e-4 u^1.5, far more than
        # rounding on [0, k]: B2 fails at the grid's first point
        ricker_envelope = bounds.RickerEnvelope.value
        monkeypatch.setattr(bounds.RickerEnvelope, "value", lambda self, u: (
            ricker_envelope(self, u) + 1e-4 * np.asarray(u, dtype=float)**1.5))
        p = write_cfg(tmp_path, DELAYED_MODEL.replace(
            "birth.p = 2.0", "birth.p = 100.0") + "\n[profile]\nh = 0.02\n")
        assert run_cli(["--config", p, "--out", tmp_path / "x.csv",
                        "profile"]) == 2
        err = capsys.readouterr().err
        assert "lower-envelope model; failed: B2: b(u) >= b'(0)*u at u=3.88" in err

    def test_sidecar_report_fields(self, profile_run):
        _, out, _ = profile_run
        rep = json.loads(out.with_suffix(".json").read_text())
        for key in ("c", "beta", "lambda1", "lambda2", "residual_sup",
                    "iterations"):
            assert key in rep["results"]
        for key in ("sandwich_ok", "lipschitz_ok"):
            assert rep["invariants"][key] is True

    def test_nonconvergence_exits_4(self, tmp_path):
        p = write_cfg(tmp_path, DELAYED_MODEL +
                      "\n[profile]\nh = 0.02\nmax_iters = 3\nc_factor = 1.3\n")
        assert run_cli(["--config", p, "--out", tmp_path / "x.csv",
                        "profile"]) == 4

    def test_subthreshold_speed_exits_2(self, tmp_path, capsys):
        p = write_cfg(tmp_path, DELAYED_MODEL + "\n[profile]\nh = 0.02\n")
        assert run_cli(["--config", p, "--out", tmp_path / "x.csv",
                        "profile", "--c", "0.5"]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        # the message points at commands that exist
        assert "simulate then frontspeed (or sweep)" in err
        for command in ("simulate", "frontspeed", "sweep"):
            assert command in cli.COMMANDS

    def test_failed_hypothesis_names_its_witness(self, tmp_path, capsys):
        # a monotone birth with a steep lag fails A2, which both solvers
        # need: the error names the check and no solver
        text = DELAYED_MODEL.replace("delay.m = 0.2", "delay.m = 0").replace(
            "delay.M = 0.7", "delay.M = 1.5")
        p = write_cfg(tmp_path, text + "\n[profile]\nh = 0.02\n")
        assert run_cli(["--config", p, "--out", tmp_path / "x.csv",
                        "profile"]) == 2
        err = capsys.readouterr().err
        assert "A2: tau'(0) = 1.5 outside [0, 1)" in err
        assert "nonmonotone" not in err and "relaxed" not in err

    def test_verify_solves_the_decay_roots_once(self, profile_run,
                                                monkeypatch):
        # every decay_roots call, whichever module calls it, builds one RootPair
        cfg_path, out, _ = profile_run
        calls = []
        root_pair = dispersion.RootPair

        def counting(**kwargs):
            calls.append(kwargs)
            return root_pair(**kwargs)

        monkeypatch.setattr(dispersion, "RootPair", counting)
        assert run_cli(["--config", cfg_path, "verify", "--profile", out]) == 0
        assert len(calls) == 1

    def test_critical_flag(self, tmp_path, capsys):
        p = write_cfg(tmp_path, DELAYED_MODEL + "\n[profile]\nh = 0.02\n")
        out = tmp_path / "crit.csv"
        assert run_cli(["--config", p, "--json", "--out", out,
                        "profile", "--critical"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert "near-critical" in rep["results"]["note"]
        assert rep["results"]["c"] > rep["results"]["c_star"]
        assert run_cli(["--config", p, "verify", "--profile", out]) == 0


def surrogate_speed(cfg_path):
    model_ = config.build_model(config.load_config(cfg_path))
    ctx = dispersion.CharacteristicContext.from_model(model_)
    return dispersion.critical_speed(ctx).c_star * (1.0 + profile.NEAR_CRITICAL_OFFSET)


class TestSpeedDecision:
    """The near-critical regime belongs to the speed, however it is named."""

    def test_surrogate_speed_solves_as_critical(self, tmp_path):
        # the golden's near-critical run: Ricker p=2 at h = 0.1
        p = write_cfg(tmp_path, DELAYED_MODEL + "\n[profile]\nh = 0.1\n")
        runs = {}
        for label, flags in (("critical", ["--critical"]),
                             ("speed", ["--c", repr(surrogate_speed(p))])):
            out = tmp_path / f"{label}.csv"
            assert run_cli(["--config", p, "--out", out, "profile", *flags]) == 0
            results = json.loads(out.with_suffix(".json").read_text())["results"]
            runs[label] = (out.read_bytes(), [results[key] for key in (
                "c", "iterations", "phase_shift", "residual_sup", "note")])
        assert runs["speed"] == runs["critical"]
        assert "near-critical surrogate" in runs["speed"][1][-1]

    def test_envelope_at_the_critical_speed(self, tmp_path, capsys):
        p = write_cfg(tmp_path, DELAYED_MODEL + "\n[profile]\ncritical = true\n"
                      "\n[output]\ndir = envout\n")
        assert run_cli(["--config", p, "--json", "envelope"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["c"] == reporting.canonical_float(surrogate_speed(p))

    @pytest.mark.parametrize("extra, flags, named", [
        ("", ["--critical", "--c", "2.0"], "--c"),
        ("critical = true\nc = 2.0\n", [], "[profile] c"),
        ("c = 2.0\n", ["--critical"], "[profile] c"),
    ], ids=["flags", "keys", "flag_and_key"])
    def test_critical_and_a_speed_exclude_each_other(self, tmp_path, capsys,
                                                     extra, flags, named):
        p = write_cfg(tmp_path, DELAYED_MODEL + "\n[profile]\nh = 0.1\n" + extra)
        out = tmp_path / "x.csv"
        assert run_cli(["--config", p, "--out", out, "profile", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "exclude each other" in err
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("command, extra, flags, source", [
        ("speed", "", ["--c=-1"], "--c"),
        ("speed", "", ["--c=nan"], "--c"),
        ("speed", "", ["--c", "2.0", "--c=inf"], "--c"),
        ("speed", "[dispersion]\nspeeds = 2.0, -1\n", [], "[dispersion] speeds"),
        ("envelope", "", ["--c=-1"], "--c"),
        ("envelope", "", ["--c=0"], "--c"),
        ("profile", "", ["--c=-inf"], "--c"),
        ("profile", "[profile]\nc = -2.0\n", [], "[profile] c"),
        ("profile", "[profile]\nc_factor = -1.2\n", [], "c_factor"),
        ("envelope", "[profile]\nc_factor = 1.5e308\n", [], "c_factor"),
    ])
    def test_bad_speed_exits_1_naming_its_source(self, tmp_path, capsys, command,
                                                 extra, flags, source):
        p = write_cfg(tmp_path, DELAYED_MODEL + extra + "\n[output]\ndir = out\n")
        assert run_cli(["--config", p, command, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert source in err and "finite positive speed" in err
        assert not (tmp_path / "out").exists()


class TestEnvelopeCommand:
    def test_envelope_outputs(self, tmp_path, capsys):
        text = DELAYED_MODEL.replace("birth.p = 2.0", "birth.p = 3.0")
        p = write_cfg(tmp_path, text + "\n[output]\ndir = envout\n")
        assert run_cli(["--config", p, "--json", "envelope"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["kcal"] == pytest.approx(3.0 / math.e, abs=1e-9)
        assert rep["results"]["k"] == pytest.approx(1.0982, abs=2e-4)
        assert rep["results"]["q"] > 1.0
        out_dir = tmp_path / "envout"  # [output] dir resolves next to the config
        assert (out_dir / "envelopes.csv").exists()
        assert (out_dir / "profile_bounds.csv").exists()


    def test_profile_bounds_are_the_solves_sandwich(self, tmp_path,
                                                    monkeypatch):
        # envelope writes the bounds the profile solve at the same speed
        # iterates in: for the nonmonotone birth, the lower solution of its
        # lower-envelope equation under the upper-envelope exponential
        text = DELAYED_MODEL.replace("birth.p = 2.0", "birth.p = 3.0")
        p = write_cfg(tmp_path, text + "\n[profile]\nh = 0.02\n"
                      "\n[output]\ndir = envout\n")
        built, sandwich = [], profile.sandwich

        def recording(*args):
            built.append(sandwich(*args))
            return built[-1]

        monkeypatch.setattr(profile, "sandwich", recording)
        assert run_cli(["--config", p, "--out", tmp_path / "wave.csv",
                        "profile"]) == 0
        assert run_cli(["--config", p, "envelope"]) == 0
        (up, low, pair), = built
        assert isinstance(pair.lower, bounds.RickerEnvelope)
        assert math.isfinite(pair.lower.floor)
        cols = reporting.read_csv(tmp_path / "envout" / "profile_bounds.csv")
        xi = cols["xi"]
        for col, bound in (("phi_upper", up), ("phi_lower", low)):
            want = bound.value(xi)
            assert np.max(np.abs(cols[col] - want)) <= 1e-12 * np.max(want), col


SIM_SECTION = """
[pde]
x_min = -25
x_max = 55
nx = 401
t_end = 12
initial.kind = step
initial.location = 0
initial.low = 0
initial.high = equilibrium
history.kind = frozen
snapshot_count = 25
"""

COMPARISON_SECTION = """
[comparison]
D1 = 1.0
D2 = 2.0
D3 = 1.0
m = 0.0
x_min = -60
x_max = 60
nx = 401
t_end = 20
initial.kind = bump
initial.center = 0
initial.width = 5
snapshot_count = 21
probe_speed_fraction = 0.6
"""


def test_constant_lag_is_the_rational_lag_with_M_equal_m(tmp_path, monkeypatch):
    # delay.kind = constant builds RationalDelay(m, m): the profile, its
    # sidecar and the simulation are byte for byte those of M = m
    outputs = []
    for kind, lag in (("constant", "delay.m = 0.2\n"),
                      ("saturating_rational", "delay.m = 0.2\ndelay.M = 0.2\n")):
        run = tmp_path / kind
        run.mkdir()
        monkeypatch.chdir(run)
        text = (BASE_MODEL.replace("birth.p = 2.0", "birth.p = 3.0")
                .replace("delay.kind = constant\ndelay.m = 0.0\n",
                         f"delay.kind = {kind}\n{lag}")
                + "\n[profile]\nh = 0.05\n"
                + SIM_SECTION.replace("t_end = 12", "t_end = 4"))
        p = write_cfg(run, text)
        assert run_cli(["--config", p, "--out", "wave.csv", "profile"]) == 0
        assert run_cli(["--config", p, "simulate", "--out-dir", "sim"]) == 0
        sidecar = json.loads((run / "wave.json").read_text())
        del sidecar["timings"], sidecar["config_digest"]
        files = [run / "wave.csv", run / "sim" / "run.json",
                 *sorted((run / "sim").glob("snapshot_t*.csv"))]
        outputs.append((sidecar, [f.read_bytes() for f in files]))
    assert outputs[0] == outputs[1]


class TestSimulateCommands:
    def test_simulate_then_frontspeed(self, tmp_path, capsys):
        p = write_cfg(tmp_path, DELAYED_MODEL + SIM_SECTION)
        out_dir = tmp_path / "rundir"
        assert run_cli(["--config", p, "simulate", "--out-dir", out_dir]) == 0
        capsys.readouterr()  # drain the human-readable simulate output
        assert (out_dir / "run.json").exists()
        snaps = sorted(out_dir.glob("snapshot_t*.csv"))
        assert len(snaps) == 25
        cols = reporting.read_csv(snaps[0])
        assert set(cols) == {"x", "u"}
        assert run_cli(["--config", p, "--json", "frontspeed",
                        "--run", out_dir]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["speed"] > 0.5
        assert rep["results"]["samples"] >= 10

    @pytest.mark.parametrize("kind", ["constant", "saturating_rational"])
    def test_a_negative_datum_reads_the_lag_at_zero(self, tmp_path, capsys, kind):
        # tau(u) = m + (M - m) u / (1 + u) is 0/0 at u = -1
        text = (BASE_MODEL.replace("delay.kind = constant\ndelay.m = 0.0\n",
                                   f"delay.kind = {kind}\ndelay.m = 0.2\n"
                                   "delay.M = 0.7\n")
                + SIM_SECTION.replace("initial.low = 0", "initial.low = -1")
                .replace("t_end = 12", "t_end = 1"))
        p = write_cfg(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["--config", p, "simulate", "--out-dir",
                            tmp_path / "run"]) == 0
        assert capsys.readouterr().err == ""

    def test_frontspeed_level_override(self, tmp_path, capsys):
        p = write_cfg(tmp_path, DELAYED_MODEL + SIM_SECTION)
        out_dir = tmp_path / "rundir2"
        run_cli(["--config", p, "simulate", "--out-dir", out_dir])
        capsys.readouterr()
        assert run_cli(["--config", p, "--json", "frontspeed", "--run", out_dir,
                        "--level", "0.2", "--window", "0.4"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["samples"] >= 10

    @pytest.mark.parametrize("command, key, value, code", [
        ("simulate", "snapshot_count", 0, 1),
        ("simulate", "snapshot_count", -3, 1),
        ("simulate", "snapshot_count", 1, 1),
        ("compare", "snapshot_count", 1, 1),
    ])
    def test_bad_sampling_integer_rejected(self, tmp_path, capsys, command,
                                           key, value, code):
        text = {"simulate": DELAYED_MODEL + SIM_SECTION,
                "compare": BASE_MODEL + COMPARISON_SECTION}[command]
        lines = [ln for ln in text.splitlines() if not ln.startswith(f"{key} =")]
        p = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}", ""]))
        out_dir = tmp_path / "rundir"
        assert run_cli(["--config", p, command, "--out-dir", out_dir]) == code
        assert key in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, value", [
        ("simulate", "abc"), ("simulate", "nan"), ("simulate", "inf"),
        ("simulate", "1e400"), ("compare", "abc"),
    ])
    def test_bad_initial_high_rejected(self, tmp_path, capsys, command, value):
        if command == "simulate":
            section = "pde"
            text = DELAYED_MODEL + SIM_SECTION.replace(
                "initial.high = equilibrium", f"initial.high = {value}")
        else:
            section = "comparison"
            text = BASE_MODEL + COMPARISON_SECTION.replace(
                "initial.kind = bump", f"initial.kind = step\ninitial.high = {value}")
        p = write_cfg(tmp_path, text)
        out_dir = tmp_path / "rundir"
        assert run_cli(["--config", p, command, "--out-dir", out_dir]) == 1
        err = capsys.readouterr().err
        assert f"[{section}] initial.high" in err
        assert len(err.splitlines()) == 1
        assert not out_dir.exists()

    def test_compare_command(self, tmp_path, capsys):
        p = write_cfg(tmp_path, BASE_MODEL + COMPARISON_SECTION)
        out_dir = tmp_path / "cmp"
        assert run_cli(["--config", p, "--json", "compare",
                        "--out-dir", out_dir]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["plateau"] == pytest.approx(1.0)
        assert rep["results"]["spreading_speed"] == pytest.approx(2.0, abs=1e-6)
        assert (out_dir / "run.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_both_sections_take_every_initial_kind(self, tmp_path, command):
        # both sections go through one reader, which takes every kind
        if command == "simulate":
            text = DELAYED_MODEL + SIM_SECTION.replace(
                "initial.kind = step", "initial.kind = bump\ninitial.width = 5")
        else:
            (tmp_path / "datum.csv").write_text("x,u\n-60,1\n0,1\n5,0\n60,0\n")
            text = BASE_MODEL + COMPARISON_SECTION.replace(
                "initial.kind = bump",
                "initial.kind = profile\ninitial.path = datum.csv")
        p = write_cfg(tmp_path, text)
        out_dir = tmp_path / "run"
        assert run_cli(["--config", p, command, "--out-dir", out_dir]) == 0
        assert (out_dir / "run.json").exists()


class TestFrontspeedInputs:
    """A bad stored run or window ends in exit 1 with a one-line message."""

    TRACK = {"times": [0.5 * i for i in range(20)],
             "positions": [1.0 + i for i in range(20)]}

    def run(self, tmp_path, capsys, meta, *extra):
        run_dir = tmp_path / "run"
        run_dir.mkdir(exist_ok=True)
        text = meta if isinstance(meta, str) else json.dumps(meta)
        (run_dir / "run.json").write_text(text)
        cfg = write_cfg(tmp_path, DELAYED_MODEL)
        code = run_cli(["--config", cfg, "--json", "frontspeed", "--run", run_dir,
                        *extra])
        return code, capsys.readouterr()

    def test_good_run_fits_the_track(self, tmp_path, capsys):
        meta = {"times": [], "files": [], "track": self.TRACK}
        code, out = self.run(tmp_path, capsys, meta, "--window", "1")
        assert code == 0
        assert json.loads(out.out)["results"]["speed"] == pytest.approx(2.0)

    @pytest.mark.parametrize("meta, message", [
        ({"times": [], "files": []}, "missing track"),
        ({"files": [], "track": TRACK}, "missing times"),
        ({"times": [], "track": TRACK}, "missing files"),
        ({"times": [], "files": [], "track": {"times": [0.0]}},
         "track must hold times and positions"),
        ({"times": [], "files": [],
          "track": {"times": TRACK["times"], "positions": [1.0, 2.0]}},
         "20 times but 2 positions"),
        ({"times": [], "files": [],
          "track": {"times": TRACK["times"], "positions": ["a"] * 20}},
         "track.positions must be a list of finite numbers"),
        ({"times": [0.0], "files": [], "track": TRACK}, "1 times but 0 files"),
        ("{not json", "not readable JSON"),
        ("[1, 2]", "expected a JSON object"),
    ])
    def test_bad_run_json_exits_1(self, tmp_path, capsys, meta, message):
        code, out = self.run(tmp_path, capsys, meta)
        assert code == 1
        assert out.err.startswith("config error: ") and out.err.count("\n") == 1
        assert message in out.err and "run.json" in out.err

    @pytest.mark.parametrize("window", ["nan", "5", "0", "-0.5", "inf"])
    def test_window_outside_unit_interval_exits_1(self, tmp_path, capsys, window):
        meta = {"times": [], "files": [], "track": self.TRACK}
        code, out = self.run(tmp_path, capsys, meta, "--window", window)
        assert code == 1
        assert out.err.startswith("config error: --window must lie in (0, 1]")
        assert out.err.count("\n") == 1


SWEEP_TEXT = DELAYED_MODEL + """
[profile]
h = 0.02

[sweep]
p = 2.0, 2.4
m = 0.1, 0.3
M = 0.6
c_factor = 1.3
nx = 301
t_end = 10
x_min = -20
x_max = 45

[pde]
x_min = -20
x_max = 45
nx = 301
t_end = 10
initial.kind = step
initial.high = equilibrium
"""


MALFORMED_CSVS = {
    "short_row": ("{x},{u}\n0,0.5\n1\n", "line 3: 1 values"),
    "non_numeric": ("{x},{u}\n0,0.5\n1,half\n", "line 3: not a number"),
    "header_only": ("{x},{u}\n", "no data rows"),
    "wrong_header": ("a,b\n0,0.5\n", "expected"),
}


class TestMalformedCsv:
    """Every CSV a command reads back ends in exit 1 with a one-line message."""

    def setup_csv(self, tmp_path, command, kind):
        """(argv, path of the malformed CSV) for one command."""
        text = MALFORMED_CSVS[kind][0]
        if command == "verify":
            bad = tmp_path / "wave.csv"
            bad.write_text(text.format(x="xi", u="phi"))
            bad.with_suffix(".json").write_text(json.dumps({"results": {
                "c": 2.0, "beta": 5.0, "phase_shift": 0.0,
                "residual_sup": 1e-5, "mode": "monotone"}}))
            cfg = write_cfg(tmp_path, DELAYED_MODEL)
            return ["--config", cfg, "verify", "--profile", bad], bad
        if command == "simulate":
            bad = tmp_path / "initial.csv"
            bad.write_text(text.format(x="xi", u="phi"))
            sim = SIM_SECTION.replace("initial.kind = step",
                                      "initial.kind = profile\n"
                                      f"initial.path = {bad.name}")
            cfg = write_cfg(tmp_path, DELAYED_MODEL + sim)
            return ["--config", cfg, "simulate", "--out-dir",
                    tmp_path / "run"], bad
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        bad = run_dir / "snapshot_t0.csv"
        bad.write_text(text.format(x="x", u="u"))
        (run_dir / "run.json").write_text(json.dumps({
            "times": [0.0], "files": [bad.name],
            "track": {"times": [], "positions": []}}))
        cfg = write_cfg(tmp_path, DELAYED_MODEL)
        return ["--config", cfg, "frontspeed", "--run", run_dir,
                "--level", "0.3"], bad

    @pytest.mark.parametrize("kind", sorted(MALFORMED_CSVS))
    @pytest.mark.parametrize("command", ["verify", "simulate", "frontspeed"])
    def test_exits_1_with_file_and_line(self, tmp_path, capsys, command, kind):
        argv, bad = self.setup_csv(tmp_path, command, kind)
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(bad) in err and MALFORMED_CSVS[kind][1] in err
        assert "Traceback" not in err


def test_every_command_reports_its_total_time(tmp_path, capsys):
    text = (SWEEP_TEXT.replace("p = 2.0, 2.4", "p = 2.0")
            .replace("m = 0.1, 0.3", "m = 0.2")
            + COMPARISON_SECTION + "\n[output]\ndir = out\n")
    p = write_cfg(tmp_path, text)
    wave, run_dir = tmp_path / "wave.csv", tmp_path / "run"
    runs = {"speed": ["speed"], "profile": ["--out", wave, "profile"],
            "verify": ["verify", "--profile", wave], "envelope": ["envelope"],
            "simulate": ["simulate", "--out-dir", run_dir],
            "frontspeed": ["frontspeed", "--run", run_dir],
            "compare": ["compare", "--out-dir", tmp_path / "cmp"],
            "sweep": ["sweep"]}
    assert sorted(runs) == sorted(cli.COMMANDS)
    for command, argv in runs.items():
        assert run_cli(["--config", p, "--json", *argv]) == 0, command
        rep = json.loads(capsys.readouterr().out)
        assert rep["command"] == command
        assert isinstance(rep["timings"]["total"], float), command
        assert rep["timings"]["total"] >= 0.0


@pytest.mark.parametrize("command, argv", [
    ("envelope", []), ("verify", ["--profile", "wave.csv"]), ("simulate", []),
    ("frontspeed", ["--run", "run"]), ("compare", []), ("sweep", [])])
def test_out_is_refused_by_the_commands_that_do_not_read_it(
        tmp_path, capsys, command, argv):
    # only speed and profile write to --out; any other command would write
    # where it always does, so the flag is an error, not ignored
    p = write_cfg(tmp_path, DELAYED_MODEL + "\n[output]\ndir = out\n")
    assert run_cli(["--config", p, "--out", tmp_path / "x.csv", command,
                    *argv]) == 1
    assert capsys.readouterr().err == (
        f"config error: {command} does not read --out; only speed and "
        "profile do\n")
    assert not (tmp_path / "out").exists()


class TestSweepCommand:
    def test_sweep_grid_and_determinism(self, tmp_path):
        p = write_cfg(tmp_path, SWEEP_TEXT + "\n[output]\ndir = " +
                      str(tmp_path / "out1") + "\n")
        assert run_cli(["--config", p, "sweep"]) == 0
        csv1 = (tmp_path / "out1" / "sweep.csv").read_bytes()
        p2 = write_cfg(tmp_path, SWEEP_TEXT + "\n[output]\ndir = " +
                       str(tmp_path / "out2") + "\n", name="run2.cfg")
        assert run_cli(["--config", p2, "sweep"]) == 0
        csv2 = (tmp_path / "out2" / "sweep.csv").read_bytes()
        assert csv1 == csv2
        lines = csv1.decode().splitlines()
        assert lines[0] == "p,m,M,c_star,measured_speed,residual_sup"
        assert len(lines) == 5
        rows = [line.split(",") for line in lines[1:]]
        # threshold speed falls as the lag at zero grows, for each p
        by_p = {}
        for r in rows:
            by_p.setdefault(r[0], []).append((float(r[1]), float(r[3])))
        for p_val, entries in by_p.items():
            entries.sort()
            speeds = [s for _, s in entries]
            assert speeds == sorted(speeds, reverse=True)

    def test_bad_initial_high_fails_the_row(self, tmp_path):
        text = (SWEEP_TEXT.replace("initial.high = equilibrium", "initial.high = abc")
                .replace("p = 2.0, 2.4", "p = 2.0")
                .replace("m = 0.1, 0.3", "m = 0.1"))
        p = write_cfg(tmp_path, text + "\n[output]\ndir = out\n")
        assert run_cli(["--config", p, "sweep"]) == 1
        row, = json.loads((tmp_path / "out" / "sweep.json").read_text())[
            "results"]["rows"]
        assert "[pde] initial.high" in row["error"]
        assert math.isnan(row["measured_speed"])

    def test_overflowing_c_factor_fails_the_row_in_one_line(self, tmp_path, capsys):
        # 1e200 c* is checked like every other speed, before the decay-root
        # solver could see it overflow to inf and nan
        text = (SWEEP_TEXT.replace("c_factor = 1.3", "c_factor = 1e200")
                .replace("p = 2.0, 2.4", "p = 2.0")
                .replace("m = 0.1, 0.3", "m = 0.1"))
        p = write_cfg(tmp_path, text + "\n[output]\ndir = out\n")
        assert run_cli(["--config", p, "sweep"]) == 1
        row, = json.loads((tmp_path / "out" / "sweep.json").read_text())[
            "results"]["rows"]
        assert row["error"].startswith("[sweep] c_factor times c* must be a "
                                       "finite positive speed of at most ")
        assert "\n" not in row["error"] and "nan" not in row["error"]
        assert capsys.readouterr().err == "config error: every sweep row failed\n"

    def test_the_base_model_needs_only_d_and_the_delay_kind(self, tmp_path):
        # every row sets its Ricker p and its lags, so the base [model] names
        # no birth: its rows are those of a base with some other birth
        one_row = (SWEEP_TEXT.replace("p = 2.0, 2.4", "p = 2.0")
                   .replace("m = 0.1, 0.3", "m = 0.1"))
        rows = []
        for name, text in (
                ("bare", one_row.replace("birth.kind = ricker\n", "")
                 .replace("birth.p = 2.0\n", "").replace("delay.m = 0.2\n", "")
                 .replace("delay.M = 0.7\n", "")),
                ("named", one_row.replace("birth.p = 2.0", "birth.p = 5.0"))):
            p = write_cfg(tmp_path, text + f"\n[output]\ndir = {name}\n",
                          name=f"{name}.cfg")
            assert run_cli(["--config", p, "sweep"]) == 0
            rows.append((tmp_path / name / "sweep.csv").read_bytes())
        assert rows[0] == rows[1]

    def test_empty_grid_exits_1(self, tmp_path):
        p = write_cfg(tmp_path, DELAYED_MODEL + "\n[sweep]\np = 2.0\nm =\nM = 0.6\n")
        assert run_cli(["--config", p, "sweep"]) == 1


POOL_GRID = [(p, m, 0.6) for p in (2.0, 0.5, 2.4) for m in (0.1, 0.3)]


@pytest.fixture(scope="module")
def pooled_sweep(tmp_path_factory):
    """A 3 x 2 sweep, more rows than workers, whose p = 0.5 rows fail and
    which leaves no worker behind: (config, sweep.csv bytes, sweep.json
    report)."""
    tmp_path = tmp_path_factory.mktemp("pool")
    text = SWEEP_TEXT.replace("p = 2.0, 2.4", "p = 2.0, 0.5, 2.4")
    p = write_cfg(tmp_path, text + f"\n[output]\ndir = {tmp_path / 'out'}\n")
    assert run_cli(["--config", p, "sweep"]) == 0
    assert multiprocessing.active_children() == []
    return (config.load_config(p), (tmp_path / "out" / "sweep.csv").read_bytes(),
            json.loads((tmp_path / "out" / "sweep.json").read_text()))


class TestSweepPool:
    """Sweep rows run in forked worker processes and change no output."""

    def test_rows_and_csv_match_serial_rows(self, pooled_sweep, tmp_path):
        cfg, csv_bytes, report = pooled_sweep
        serial = [cli._sweep_row(cfg, *point) for point in POOL_GRID]
        keys = ("p", "m", "M", "c_star", "measured_speed", "residual_sup")
        reporting.write_csv(tmp_path / "serial.csv", ",".join(keys),
                            [[float(r[k]) for r in serial] for k in keys])
        assert csv_bytes == (tmp_path / "serial.csv").read_bytes()
        rows = report["results"]["rows"]
        assert reporting.dumps(rows) == reporting.dumps(serial)
        assert [(r["p"], r["m"], r["M"]) for r in rows] == POOL_GRID
        low = "growth at zero must exceed the death rate: b'(0)=0.5 <= d=1.0"
        assert [r["error"] for r in rows] == ["", "", low, low, "", ""]

    def test_report_times_each_row_and_counts_workers(self, pooled_sweep):
        _, _, report = pooled_sweep
        assert set(report["results"]) == {"rows", "csv"}
        timings = report["timings"]
        assert set(timings) == {"rows", "workers", "total"}
        assert len(timings["rows"]) == len(POOL_GRID)
        assert all(isinstance(s, float) and s >= 0.0 for s in timings["rows"])
        assert timings["workers"] == min(len(POOL_GRID),
                                         len(os.sched_getaffinity(0)))

    def test_no_worker_outlives_a_sweep_whose_rows_all_fail(self, tmp_path, capsys):
        text = SWEEP_TEXT.replace("p = 2.0, 2.4", "p = 0.5")
        p = write_cfg(tmp_path, text + "\n[output]\ndir = out\n")
        assert run_cli(["--config", p, "sweep"]) == 1
        assert capsys.readouterr().err == "config error: every sweep row failed\n"
        assert multiprocessing.active_children() == []

    def test_an_unexpected_row_error_reaches_the_caller(self, tmp_path, monkeypatch):
        # the workers are forked after the patch, so every row raises it
        def broken_run(*args, **kwargs):
            raise RuntimeError("simulator broke")

        monkeypatch.setattr(cli.pdesim, "run", broken_run)
        p = write_cfg(tmp_path, SWEEP_TEXT + "\n[output]\ndir = out\n")
        with pytest.raises(RuntimeError, match="simulator broke"):
            run_cli(["--config", p, "sweep"])
        assert multiprocessing.active_children() == []


def set_key(text, section, key, value):
    """`text` with `key = value` as the only `key` of `[section]`."""
    lines, current = [], None
    for line in text.splitlines():
        if line.startswith("["):
            current = line.strip()[1:-1]
        if not (current == section and line.startswith(f"{key} =")):
            lines.append(line)
        if line.strip() == f"[{section}]":
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


class TestGridSizes:
    """A grid size from the config is checked before anything is allocated.

    Without the check each of these values ends in a traceback: from numpy,
    "array is too big" for the two counts and an allocation of 1.46 EiB for
    h = 1e-15, and a division by zero or an empty grid for h <= 0.
    """

    @pytest.mark.parametrize("command, section, key, value", [
        ("simulate", "pde", "nx", 4611686018427387904),
        ("simulate", "pde", "snapshot_count", 4611686018427387904),
        ("compare", "comparison", "nx", 4611686018427387904),
        ("compare", "comparison", "snapshot_count", 4611686018427387904),
        ("sweep", "sweep", "nx", 4611686018427387904),
        ("profile", "profile", "h", 1e-15),
        ("profile", "profile", "h", 0),
        ("profile", "profile", "h", -0.01),
    ])
    def test_out_of_range_size_exits_1_naming_the_key(self, tmp_path, capsys,
                                                      command, section, key,
                                                      value):
        text = {"simulate": DELAYED_MODEL + SIM_SECTION,
                "compare": BASE_MODEL + COMPARISON_SECTION,
                "sweep": SWEEP_TEXT,
                "profile": DELAYED_MODEL + "[profile]\nh = 0.02\n"}[command]
        out = tmp_path / "out"
        p = write_cfg(tmp_path, set_key(text, section, key, value)
                      + f"[output]\ndir = {out}\n")
        assert run_cli(["--config", p, command]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"[{section}] {key}" in err
        assert "1,000,000" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("simulate", DELAYED_MODEL + SIM_SECTION),
        # the comparison ring spans the lag m, which the section sets to 0
        ("compare", BASE_MODEL + set_key(COMPARISON_SECTION, "comparison",
                                         "m", 0.5)),
    ])
    def test_oversized_history_ring_exits_1_naming_nx_and_dt(
            self, tmp_path, capsys, command, text):
        # nx = 900,000 is inside the grid bound, but at the default dt = dx^2
        # the ring would hold about 1e14 values; the check comes before any
        # grid-length array, so the run allocates less than one of them
        section = "pde" if command == "simulate" else "comparison"
        out = tmp_path / "out"
        p = write_cfg(tmp_path, set_key(text, section, "nx", 900_000)
                      + f"[output]\ndir = {out}\n")
        tracemalloc.start()
        try:
            assert run_cli(["--config", p, command]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "nx = 900000 at dt = " in err and "100,000,000" in err
        assert peak < 8 * 900_000
        assert not out.exists()

    def test_a_default_h_too_fine_is_named_as_the_default(self, tmp_path,
                                                           capsys):
        # at ten times c* the default h = 0.01 min(1, 1/lambda2) is 6.7e-4
        # while the left width is 813: the message says the step is the
        # default, from which lambda2, and which key sets it
        out = tmp_path / "out"
        p = write_cfg(tmp_path, DELAYED_MODEL + "[profile]\nc_factor = 10\n"
                      + f"[output]\ndir = {out}\n")
        assert run_cli(["--config", p, "profile"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "1,000,000" in err
        assert ("the default [profile] h = 0.01 min(1, 1/lambda2) = 0.00067044 "
                "at lambda2 = 14.9156 gives 1.809e+06 grid points") in err
        assert err.strip().endswith("; set [profile] h to a coarser step")
        assert not out.exists()

    def test_max_iters_below_1_exits_2(self, tmp_path, capsys):
        p = write_cfg(tmp_path, DELAYED_MODEL + "[profile]\nmax_iters = 0\n")
        assert run_cli(["--config", p, "--out", tmp_path / "p.csv", "profile"]) == 2
        assert capsys.readouterr().err == (
            "model error: [profile] max_iters must be at least 1\n")


LABELS = {1: "config error", 2: "model error", 3: "verification failed",
          4: "solver failed"}
SIM_TEXT = DELAYED_MODEL + SIM_SECTION
CMP_TEXT = BASE_MODEL + COMPARISON_SECTION
TABULATED = DELAYED_MODEL.replace("birth.kind = ricker\nbirth.p = 2.0\n",
                                  "birth.kind = tabulated\n"
                                  "birth.table_path = table.csv\n")
COMPARE = ["compare", "--out-dir", "cmp"]
PROFILE_TEXT = DELAYED_MODEL + "[profile]\nh = 0.04\n"
AFILE = {"afile": "a regular file\n"}
SHORT_TRACK = {"times": [0.5 * i for i in range(12)],
               "positions": [1.0 + i for i in range(12)]}
# a made-up profile whose recorded residual its step cannot meet
FAKE_PROFILE = "xi,phi\n" + "".join(
    f"{x / 10:g},{1.0 if x < 0 else 0.0}\n" for x in range(-100, 101))
FAKE_SIDECAR = json.dumps({"results": {
    "c": 2.5, "beta": 5.0, "phase_shift": 0.0, "residual_sup": 1e-12,
    "mode": "monotone"}})

# (config text or None for none, {file: text}, argv after --config, exit
# code, a fragment of the message)
EXIT_CASES = {
    "pde.x_max_below_x_min": (set_key(SIM_TEXT, "pde", "x_max", -25), {},
                              ["simulate"], 2, "empty spatial domain"),
    "pde.periodic_boundary": (set_key(SIM_TEXT, "pde", "boundary", "periodic"),
                              {}, ["simulate"], 2, "unknown boundary kind"),
    "pde.dt_zero": (set_key(SIM_TEXT, "pde", "dt", 0), {}, ["simulate"], 2,
                    "time step must be positive"),
    "pde.dt_above_lag": (set_key(SIM_TEXT.replace("delay.m = 0.2", "delay.m = 0.01"),
                                 "pde", "dt", 0.05), {}, ["simulate"], 2,
                         "exceeds the shortest lag"),
    "comparison.D2_not_above_D1": (set_key(CMP_TEXT, "comparison", "D2", 1.0), {},
                                   COMPARE, 2, "needs D2 > D1"),
    "comparison.negative_D3": (set_key(CMP_TEXT, "comparison", "D3", -1), {},
                               COMPARE, 2, "must be positive"),
    # ran to a cone of NaNs and exit 0
    "comparison.negative_probe_fraction": (
        set_key(CMP_TEXT, "comparison", "probe_speed_fraction", -1), {}, COMPARE,
        1, "[comparison] probe_speed_fraction must be positive"),
    # the OS refuses a path: each ended in a traceback
    "out_under_a_file_speed": (PROFILE_TEXT, AFILE, ["--out", "afile/x.csv", "speed"],
                               1, "File exists: 'afile'"),
    "out_under_a_file_profile": (PROFILE_TEXT, AFILE,
                                 ["--out", "afile/x.csv", "profile"], 1,
                                 "File exists: 'afile'"),
    "output_dir_under_a_file": (PROFILE_TEXT + "[output]\ndir = afile/out\n", AFILE,
                                ["envelope"], 1, "Not a directory"),
    "config_is_a_directory": (None, {"run.cfg/x": ""}, ["speed"], 1,
                              "Is a directory: 'run.cfg'"),
    "birth.kind_unknown": (DELAYED_MODEL.replace("= ricker", "= logistic"), {},
                           ["speed"], 1, "unknown birth.kind 'logistic'"),
    "delay.kind_unknown": (DELAYED_MODEL.replace("= saturating_rational", "= fixed"),
                           {}, ["speed"], 1, "unknown delay.kind 'fixed'"),
    "ricker_without_p": (DELAYED_MODEL.replace("birth.p = 2.0\n", ""), {},
                         ["speed"], 1, "ricker requires birth.p"),
    "tabulated_without_table": (TABULATED.replace("birth.table_path = table.csv\n",
                                                  ""),
                                {}, ["speed"], 1, "requires birth.table_path"),
    "table_missing": (TABULATED, {}, ["speed"], 1, "birth table not found"),
    "table_wrong_header": (TABULATED, {"table.csv": "x,y\n0,0\n1,1\n2,1\n3,1\n"},
                           ["speed"], 1, "must have header 'u,b'"),
    "table_three_rows": (TABULATED, {"table.csv": "u,b\n0,0\n1,1\n2,1\n"},
                         ["speed"], 2, ">= 4 (u, b) rows"),
    "table_u_not_increasing": (TABULATED,
                               {"table.csv": "u,b\n0,0\n1,1\n1,1.2\n2,1\n"},
                               ["speed"], 2, "abscissae must increase"),
    "birth.p_negative": (DELAYED_MODEL.replace("birth.p = 2.0", "birth.p = -1"), {},
                         ["speed"], 2, "ricker coefficient must be positive"),
    "d_negative": (DELAYED_MODEL.replace("d = 1.0", "d = -1"), {}, ["speed"], 2,
                   "death rate must be positive"),
    "critical_not_boolean": (DELAYED_MODEL + "[profile]\ncritical = maybe\n", {},
                             ["profile"], 1, "[profile] critical"),
    "config_missing": (None, {}, ["speed"], 1, "config file not found"),
    "verify_csv_missing": (DELAYED_MODEL, {}, ["verify", "--profile", "wave.csv"],
                           1, "profile CSV not found"),
    "verify_sidecar_missing": (DELAYED_MODEL, {"wave.csv": FAKE_PROFILE},
                               ["verify", "--profile", "wave.csv"], 1,
                               "sidecar report not found"),
    "initial_profile_without_path": (SIM_TEXT.replace("initial.kind = step",
                                                      "initial.kind = profile"),
                                     {}, ["simulate"], 1, "requires initial.path"),
    "initial_kind_unknown": (SIM_TEXT.replace("initial.kind = step",
                                              "initial.kind = sine"),
                             {}, ["simulate"], 1, "unknown initial.kind 'sine'"),
    "translate_without_speed": (SIM_TEXT.replace("history.kind = frozen",
                                                 "history.kind = translate"),
                                {}, ["simulate"], 1, "requires history.speed"),
    "history_kind_unknown": (SIM_TEXT.replace("history.kind = frozen",
                                              "history.kind = rewind"),
                             {}, ["simulate"], 1, "unknown history.kind 'rewind'"),
    "frontspeed_without_run_json": (DELAYED_MODEL, {"run/x.csv": "x,u\n0,1\n"},
                                    ["frontspeed", "--run", "run"], 1,
                                    "run metadata not found"),
    "frontspeed_files_not_a_list": (
        DELAYED_MODEL, {"run/run.json": json.dumps(
            {"times": [], "files": "a.csv", "track": SHORT_TRACK})},
        ["frontspeed", "--run", "run"], 1, "files must be a list"),
    "frontspeed_short_run": (
        DELAYED_MODEL, {"run/run.json": json.dumps(
            {"times": [], "files": [], "track": SHORT_TRACK})},
        ["frontspeed", "--run", "run"], 1, "needs at least 10 samples"),
    "verify_fails": (BASE_MODEL, {"wave.csv": FAKE_PROFILE,
                                  "wave.json": FAKE_SIDECAR},
                     ["verify", "--profile", "wave.csv"], 3,
                     "profile verification failed"),
    "iteration_budget": (BASE_MODEL + "[profile]\nh = 0.04\nmax_iters = 1\n", {},
                         ["profile"], 4, "no convergence after 1 iterations"),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_each_failure_exits_with_its_code_and_label(tmp_path, capsys,
                                                    monkeypatch, case):
    # cli.main's one handler prints the class's label and returns its code
    text, files, argv, code, fragment = EXIT_CASES[case]
    monkeypatch.chdir(tmp_path)
    for name, body in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(body)
    if text is not None:
        write_cfg(tmp_path, text)
    assert run_cli(["--config", "run.cfg", *argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{LABELS[code]}: ") and err.count("\n") == 1, err
    assert fragment in err and "Traceback" not in err
    assert not (tmp_path / "cmp").exists()      # compare fails before its run


def test_readme_example_config_runs(tmp_path, monkeypatch):
    # the README's example config, as a user would copy it into run.cfg
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    (tmp_path / "run.cfg").write_text(block)
    monkeypatch.chdir(tmp_path)
    assert run_cli(["--config", "run.cfg", "speed"]) == 0
    assert run_cli(["--config", "run.cfg", "--out", "wave.csv", "profile"]) == 0
