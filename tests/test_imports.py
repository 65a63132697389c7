"""Start-up and the solvers load no scipy package they do not need.

Start-up loads numpy only.  The two compiled routines the solvers run, the
filter loop of `scipy.signal` and LAPACK's tridiagonal pair of
`scipy.linalg`, are loaded from their extension files at first use, so a
profile solve, `simulate` and `compare` on a Ricker model import no scipy
module at all: none of `scipy.signal`, `scipy.linalg`, `scipy.optimize` or
`scipy.interpolate`.  Only a tabulated birth imports `scipy.interpolate`.
The simulator loads none of the profile route's modules, and only `sweep`
loads the process pool (`multiprocessing`, `concurrent.futures`).  Every
check runs in a fresh interpreter, since this test process may already hold
the modules.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
HEAVY = ("scipy.signal", "scipy.linalg", "scipy.optimize",
         "scipy.interpolate")

RICKER_CONFIG = """\
[model]
d = 1.0
birth.kind = ricker
birth.p = 2.0
delay.kind = saturating_rational
delay.m = 0.2
delay.M = 0.7

[profile]
h = 0.05
c_factor = 1.3

[output]
dir = out
"""

SIM_SECTION = """
[pde]
x_min = -10
x_max = 20
nx = 61
t_end = 1
initial.kind = step
initial.location = 0
initial.low = 0
initial.high = equilibrium
history.kind = frozen
snapshot_count = 3

[comparison]
D1 = 1.0
D2 = 2.0
D3 = 1.0
m = 0.0
x_min = -10
x_max = 10
nx = 41
t_end = 1
initial.kind = bump
initial.center = 0
initial.width = 2
snapshot_count = 3
probe_speed_fraction = 0.6
"""

SWEEP_SECTION = """
[sweep]
p = 2.0
m = 0.2
M = 0.7
x_max = 40
nx = 101
t_end = 8
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
    # nor does any command but sweep load the process pool's modules
    (tmp_path / "r2.cfg").write_text(
        RICKER_CONFIG + SIM_SECTION + SWEEP_SECTION)
    code = f"""
import contextlib, io, json, sys
import sdwave.cli
from sdwave.config import build_model, load_config
loaded = lambda: sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy.")
                        or m in ("multiprocessing", "concurrent.futures"))
model = build_model(load_config("r2.cfg"))
out = {{"setup": loaded()}}
for command, args in (("speed", []), ("profile", []),
                      ("simulate", ["--out-dir", "sim"]),
                      ("compare", ["--out-dir", "cmp"]), ("sweep", [])):
    with contextlib.redirect_stdout(io.StringIO()):
        out[command + "_code"] = sdwave.cli.main(
            ["--config", "r2.cfg", command, *args])
    out[command] = loaded()
print(json.dumps(out))
"""
    got = run_fresh(code, tmp_path)
    assert got == {"setup": [], "speed_code": 0, "speed": [],
                   "profile_code": 0, "profile": [],
                   "simulate_code": 0, "simulate": [],
                   "compare_code": 0, "compare": [], "sweep_code": 0,
                   "sweep": ["concurrent.futures", "multiprocessing"]}


def test_lazy_imports_load_at_first_use(tmp_path):
    code = f"""
import json, sys
import numpy as np
from sdwave import bounds, dispersion, model, profile
heavy = {HEAVY!r}
loaded = lambda: [m for m in heavy if m in sys.modules]
out = {{"start": loaded()}}

ricker3 = model.ModelSpec(d=1.0, birth=model.RickerBirth(3.0),
                          delay=model.RationalDelay(0.2, 0.7))
out["k"] = bounds.build_envelopes(ricker3, False).k
out["envelopes"] = loaded()

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
tab = model.ModelSpec(d=1.0, birth=birth, delay=model.RationalDelay(0.0, 0.0))
before = set(sys.modules)
out["equilibrium"] = model.equilibrium(tab)
out["equilibrium_imports"] = sorted(set(sys.modules) - before)
print(json.dumps(out))
"""
    got = run_fresh(code, tmp_path)
    assert got["start"] == []
    assert 0.0 < got["k"] <= math.log(3.0) + 1e-9   # k <= K for Ricker p=3
    assert got["envelopes"] == []                  # bisection, no scipy root finder
    assert got["solve"] == []                      # the filter loop alone
    assert got["residual"] < 1e-2
    assert "scipy.interpolate" in got["tabulated"]
    assert abs(got["value"] - 1.0) < 1e-3
    assert abs(got["equilibrium"] - 1.0) < 1e-10       # 2u/(1+u) = u at u=1
    assert got["equilibrium_imports"] == []


@pytest.mark.parametrize("fallback", [False, True], ids=["file", "fallback"])
def test_extension_modules_coexist_with_scipy(tmp_path, fallback):
    # sdwave runs both kernels first; then the public scipy imports still
    # work and give the same bits.  With a file lookup that finds nothing,
    # the regular import system supplies the same compiled routines.
    code = f"""
import importlib.machinery, json, sys
import numpy as np
if {fallback!r}:
    importlib.machinery.EXTENSION_SUFFIXES = []
sys.path.insert(0, {str(TESTS)!r})
from sdwave import _kernels
from test_kernels import kernel_inputs, two_pass_conv

H, h, g1, g2, hl, hr = kernel_inputs(n=400, seed=7)
H[100], H[200], H[-5:] = np.nan, np.inf, -0.0
rng = np.random.default_rng(5)
off = rng.uniform(-1.0, -0.1, 59)
diag = 2.0 + rng.uniform(0.5, 1.0, 60)
rhs = rng.uniform(-1.0, 1.0, 60)
with np.errstate(invalid="ignore"):
    conv = _kernels.exp_conv_pair(H, h, g1, g2, hl, hr)
factors = _kernels.factor_tridiagonal(diag, off)
x = _kernels.solve_tridiagonal(*factors, rhs.copy())
out = {{"loaded": [m for m in {HEAVY!r} if m in sys.modules]}}

import scipy.signal
from scipy.linalg import lapack
same = lambda a, b: a.dtype == b.dtype and a.tobytes() == b.tobytes()
out["attribute"] = scipy.signal._sigtools is sys.modules["scipy.signal._sigtools"]
with np.errstate(invalid="ignore"):
    out["lfilter"] = same(conv, two_pass_conv(H, h, g1, g2, hl, hr))
    out["again"] = same(conv, _kernels.exp_conv_pair(H, h, g1, g2, hl, hr))
*public, info = lapack.dpttrf(diag, off)
out["dpttrf"] = info == 0 and all(map(same, factors, public))
out["dpttrs"] = same(x, lapack.dpttrs(*public, rhs)[0])
print(json.dumps(out))
"""
    got = run_fresh(code, tmp_path)
    loaded = got.pop("loaded")
    if fallback:
        assert {"scipy.signal", "scipy.linalg"} <= set(loaded)
    else:
        assert loaded == []
    assert got == {"attribute": True, "lfilter": True, "again": True,
                   "dpttrf": True, "dpttrs": True}


def test_simulator_route_loads_no_profile_route(tmp_path):
    # the two routes to c* stay independent: the simulator loads neither the
    # dispersion relation nor the bounds nor the profile solver
    code = """
import json, sys
import sdwave.pdesim
print(json.dumps([m for m in ("sdwave.dispersion", "sdwave.profile",
                              "sdwave.bounds") if m in sys.modules]))
"""
    assert run_fresh(code, tmp_path) == []
