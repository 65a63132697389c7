import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdwave import cli, config, model, reporting
from sdwave.errors import ConfigError

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
    def test_unknown_key_rejected(self, tmp_path):
        p = write_cfg(tmp_path, BASE_MODEL + "typo_key = 3\n")
        with pytest.raises(ConfigError, match="typo_key"):
            config.load_config(p)

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
        for kind, cls in (("constant", model.ConstantDelay),
                          ("saturating_rational", model.RationalDelay),
                          ("saturating_exponential", model.ExponentialDelay)):
            text = (f"[model]\nd = 1.0\nbirth.kind = ricker\nbirth.p = 2\n"
                    f"delay.kind = {kind}\ndelay.m = 0.1\ndelay.M = 0.5\n")
            m = config.build_model(config.load_config(write_cfg(tmp_path, text)))
            assert isinstance(m.delay, cls)

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
        assert abs(rep["results"]["c_star"] - 2.0) <= 1e-8

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

    def test_invalid_model_exits_2(self, tmp_path):
        bad = "[model]\nd = 3.0\nbirth.kind = ricker\nbirth.p = 2.0\ndelay.kind = constant\ndelay.m = 0\n"
        p = write_cfg(tmp_path, bad)
        assert run_cli(["--config", p, "speed"]) == 2

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

    def test_unknown_mode_names_the_key(self, tmp_path, capsys):
        p = write_cfg(tmp_path, DELAYED_MODEL + "\n[profile]\nmode = bogus\n")
        assert run_cli(["--config", p, "--out", tmp_path / "x.csv",
                        "profile"]) == 2
        assert "[profile] mode" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

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

    def test_subthreshold_speed_exits_2(self, tmp_path):
        p = write_cfg(tmp_path, DELAYED_MODEL + "\n[profile]\nh = 0.02\n")
        assert run_cli(["--config", p, "--out", tmp_path / "x.csv",
                        "profile", "--c", "0.5"]) == 2

    def test_critical_flag(self, tmp_path, capsys):
        p = write_cfg(tmp_path, DELAYED_MODEL + "\n[profile]\nh = 0.02\n")
        out = tmp_path / "crit.csv"
        assert run_cli(["--config", p, "--json", "--out", out,
                        "profile", "--critical"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert "near-critical" in rep["results"]["note"]
        assert rep["results"]["c"] > rep["results"]["c_star"]
        assert run_cli(["--config", p, "verify", "--profile", out]) == 0


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
        ("simulate", "track_every", 0, 2),
        ("simulate", "track_every", -1, 2),
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

    def test_compare_command(self, tmp_path, capsys):
        p = write_cfg(tmp_path, BASE_MODEL + COMPARISON_SECTION)
        out_dir = tmp_path / "cmp"
        assert run_cli(["--config", p, "--json", "compare",
                        "--out-dir", out_dir]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["plateau"] == pytest.approx(1.0)
        assert rep["results"]["spreading_speed"] == pytest.approx(2.0, abs=1e-6)
        assert (out_dir / "run.json").exists()


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
                "residual_sup": 1e-5}}))
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

    def test_explicit_mode_applies_to_every_row(self, tmp_path):
        text = (SWEEP_TEXT.replace("h = 0.02", "h = 0.02\nmode = monotone")
                .replace("p = 2.0, 2.4", "p = 2.0, 3.0")
                .replace("m = 0.1, 0.3", "m = 0.2"))
        p = write_cfg(tmp_path, text + "\n[output]\ndir = out\n")
        assert run_cli(["--config", p, "sweep"]) == 0
        rows = json.loads((tmp_path / "out" / "sweep.json").read_text())[
            "results"]["rows"]
        assert [r["p"] for r in rows] == [2.0, 3.0]
        assert rows[0]["error"] == ""
        assert "monotone hypothesis set" in rows[1]["error"]
        assert math.isnan(rows[1]["residual_sup"])

    def test_empty_grid_exits_1(self, tmp_path):
        p = write_cfg(tmp_path, DELAYED_MODEL + "\n[sweep]\np = 2.0\nm =\nM = 0.6\n")
        assert run_cli(["--config", p, "sweep"]) == 1
