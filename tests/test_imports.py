"""Start-up pays only for the scipy submodules a command uses.

`scipy.signal`, `scipy.optimize` and `scipy.interpolate` cost more to import
than the rest of the package; each is imported at its first use.  Every
check runs in a fresh interpreter, since this test process may already hold
the modules.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.signal", "scipy.optimize", "scipy.interpolate")

RICKER_CONFIG = """\
[model]
d = 1.0
birth.kind = ricker
birth.p = 2.0
delay.kind = saturating_rational
delay.m = 0.2
delay.M = 0.7

[output]
dir = out
"""


def run_fresh(code, cwd):
    """Run code in a fresh interpreter with sdwave on its path; its JSON line."""
    env = dict(os.environ)
    path = [str(SRC), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_cli_set_up_and_speed_skip_heavy_scipy(tmp_path):
    (tmp_path / "r2.cfg").write_text(RICKER_CONFIG)
    code = f"""
import contextlib, io, json, sys
import sdwave.cli
from sdwave.config import build_model, load_config
heavy = {HEAVY!r}
model = build_model(load_config("r2.cfg"))
after_setup = [m for m in heavy if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = sdwave.cli.main(["--config", "r2.cfg", "speed"])
print(json.dumps({{"setup": after_setup, "code": code,
                   "speed": [m for m in heavy if m in sys.modules]}}))
"""
    got = run_fresh(code, tmp_path)
    assert got == {"setup": [], "code": 0, "speed": []}


def test_lazy_imports_load_at_first_use(tmp_path):
    code = f"""
import json, sys
import numpy as np
from sdwave import bounds, dispersion, model, profile
heavy = {HEAVY!r}
loaded = lambda: [m for m in heavy if m in sys.modules]
out = {{"start": loaded()}}

ricker2 = model.ModelSpec(d=1.0, birth=model.RickerBirth(2.0),
                          delay=model.RationalDelay(0.2, 0.7))
ctx = dispersion.CharacteristicContext.from_model(ricker2)
c = 1.2 * dispersion.critical_speed(ctx).c_star
sol = profile.solve(ricker2, c, profile.SolverConfig(h=0.05))
out["solve"] = loaded()
out["residual"] = float(sol.residual_sup)

u = np.linspace(0.0, 8.0, 81)
birth = model.TabulatedBirth(np.column_stack([u, 2.0 * u / (1.0 + u)]))
out["tabulated"] = loaded()
out["value"] = birth.value(1.0)
tab = model.ModelSpec(d=1.0, birth=birth, delay=model.ConstantDelay(0.0))
out["equilibrium"] = model.equilibrium(tab)

ricker3 = model.ModelSpec(d=1.0, birth=model.RickerBirth(3.0),
                          delay=model.RationalDelay(0.2, 0.7))
out["k"] = bounds.build_envelopes(ricker3).k
out["end"] = loaded()
print(json.dumps(out))
"""
    got = run_fresh(code, tmp_path)
    assert got["start"] == []
    assert "scipy.signal" in got["solve"]
    assert got["residual"] < 1e-2
    assert "scipy.interpolate" in got["tabulated"]
    assert abs(got["value"] - 1.0) < 1e-3
    assert abs(got["equilibrium"] - 1.0) < 1e-10       # 2u/(1+u) = u at u=1
    assert 0.0 < got["k"] <= math.log(3.0) + 1e-9   # k <= K for Ricker p=3
    assert got["end"] == list(HEAVY)
