"""Acceptance suite: one test per criterion, stated tolerances, timed gates.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from sdwave import bounds, dispersion, model, pdesim, profile

GOLDEN_PATH = Path(__file__).parent / "data" / "delay_sensitivity_golden.json"
REGEN_GOLDEN_VAR = "SDWAVE_REGENERATE_GOLDEN"   # "1" rewrites the golden file


def announce(num, text):
    print(f"\nACCEPTANCE {num:2d} PASS: {text}")


@pytest.fixture(scope="module")
def p2(ricker2):
    return ricker2


@pytest.fixture(scope="module")
def p2_setup(ricker2, ricker2_cstar):
    c = 1.2 * ricker2_cstar
    K = model.equilibrium(ricker2)
    rates = dispersion.choose_beta(c, ricker2, range_end=K)
    up = bounds.build_upper(c, ricker2)
    low = bounds.build_lower(c, ricker2)
    roots = dispersion.decay_roots(
        c, dispersion.CharacteristicContext.from_model(ricker2))
    rate = profile._approach_rate(ricker2, c, K)
    h, left, right = profile._grid_geometry(profile.SolverConfig(h=0.01),
                                            roots.lambda1, roots.lambda2, rate)
    xi = profile._make_xi(h, left, right)
    return dict(model=ricker2, c=c, K=K, rates=rates, up=up, low=low, xi=xi, h=h)


def test_criterion_01_kpp_reduction():
    t0 = time.perf_counter()
    cases = [(1.0, 2.0), (1.0, math.e), (0.5, 1.5)]
    for d, bp0 in cases:
        ctx = dispersion.CharacteristicContext(d=d, growth_at_zero=bp0,
                                               lag_at_zero=0.0)
        got = dispersion.critical_speed(ctx).c_star
        want = 2.0 * math.sqrt(bp0 - d)
        assert abs(got - want) <= 1e-8, (d, bp0, got, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(1, f"zero-lag threshold speeds match closed form to 1e-8 "
                f"({elapsed:.2f} s)")


def test_criterion_02_sign_certificate(ricker2, ricker2_cstar):
    ctx = dispersion.CharacteristicContext.from_model(ricker2)
    assert ctx.lag_at_zero == 0.2
    c = 1.1 * ricker2_cstar
    r = dispersion.decay_roots(c, ctx)
    assert abs(dispersion.char_value(r.lambda1, c, ctx)) <= 1e-10
    assert abs(dispersion.char_value(r.lambda2, c, ctx)) <= 1e-10
    mid = 0.5 * (r.lambda1 + r.lambda2)
    assert dispersion.char_value(mid, c, ctx) < -1e-8
    assert dispersion.char_value(1.5 * r.lambda2, c, ctx) > 1e-8
    announce(2, "characteristic sign pattern certified at c = 1.1 c*")


def test_criterion_03_constant_fixed_points(p2_setup):
    s = p2_setup
    zero = profile.ProfileGrid(xi=s["xi"], values=np.zeros_like(s["xi"]),
                               left_limit=0.0, right_limit=0.0)
    F0 = profile.apply_F(zero, s["model"], s["rates"])
    assert np.max(np.abs(F0)) <= 1e-10
    const = profile.ProfileGrid(xi=s["xi"], values=np.full_like(s["xi"], s["K"]),
                                left_limit=s["K"], right_limit=s["K"])
    FK = profile.apply_F(const, s["model"], s["rates"])
    assert np.max(np.abs(FK - s["K"])) <= 1e-10
    announce(3, "discrete operator fixes both constant states to 1e-10")


def test_criterion_04_monotone_existence(ricker2, ricker2_cstar):
    t0 = time.perf_counter()
    c = 1.2 * ricker2_cstar
    sol = profile.solve_monotone(ricker2, c, profile.SolverConfig(h=0.01))
    fine = profile.solve_monotone(ricker2, c, profile.SolverConfig(h=0.005))
    elapsed = time.perf_counter() - t0
    K = model.equilibrium(ricker2)
    assert sol.iterations <= 500
    assert sol.residual_sup <= 5e-4
    assert sol.residual_sup / fine.residual_sup >= 3.0
    assert abs(sol.profile.values[0] - 0.0) <= 1e-4
    assert abs(sol.profile.values[-1] - K) <= 1e-4
    assert sol.membership.member
    assert elapsed < 10.0
    announce(4, f"monotone wave: {sol.iterations} iterations, residual "
                f"{sol.residual_sup:.2e} -> {fine.residual_sup:.2e} at h/2, "
                f"membership ok ({elapsed:.1f} s)")


def test_criterion_05_sandwich_and_order(p2_setup):
    s = p2_setup
    m, rates, up, low, K = s["model"], s["rates"], s["up"], s["low"], s["K"]
    h = s["h"]
    xi = s["xi"]
    mask = np.ones(xi.shape, dtype=bool)
    for t in up.kinks + low.kinks:
        mask &= np.abs(xi - t) > 2 * h
    gu = profile.ProfileGrid(xi=xi, values=up.value(xi), left_limit=0.0,
                             right_limit=K)
    Fu = profile.apply_F(gu, m, rates)
    over = float(np.max((Fu - gu.values)[mask]))
    assert over <= 1e-8
    gl = profile.ProfileGrid(xi=xi, values=low.value(xi), left_limit=0.0,
                             right_limit=0.0)
    Fl = profile.apply_F(gl, m, rates)
    under = float(np.min((Fl - gl.values)[mask]))
    assert under >= -1e-8
    rng = np.random.default_rng(2024)
    lo_v, hi_v = low.value(xi), up.value(xi)
    for trial in range(50):
        if rng.uniform() < 0.5:
            t1, t2 = sorted(rng.uniform(0.0, 1.0, 2))
            v1 = np.maximum.accumulate(t2 * lo_v + (1 - t2) * hi_v)
            v2 = np.maximum.accumulate(t1 * lo_v + (1 - t1) * hi_v)
        else:
            s1, s2 = sorted(rng.uniform(0.0, 8.0, 2))
            v1 = np.maximum.accumulate(np.clip(up.value(xi - s2), lo_v, hi_v))
            v2 = np.maximum.accumulate(np.clip(up.value(xi - s1), lo_v, hi_v))
        g1 = profile.ProfileGrid(xi=xi, values=v1, left_limit=0.0, right_limit=K)
        g2 = profile.ProfileGrid(xi=xi, values=v2, left_limit=0.0, right_limit=K)
        diff = profile.apply_F(g1, m, rates) - profile.apply_F(g2, m, rates)
        assert np.max(diff) <= 1e-12, trial
    announce(5, f"operator respects the sandwich (over {over:.1e}, under "
                f"{under:.1e}) and preserves order on 50 random pairs")


def test_criterion_06_differential_inequalities(ricker2, ricker2_cstar,
                                                ricker3, ricker3_cstar):
    worst = {}
    for name, m, cs in (("monotone", ricker2, ricker2_cstar),
                        ("nonmonotone", ricker3, ricker3_cstar)):
        c = 1.2 * cs
        level = (model.equilibrium(m) if name == "monotone"
                 else bounds.build_envelopes(m).level)
        up = bounds.build_upper(c, m, level=level)
        low = bounds.build_lower(c, m)
        grid_up = bounds.kink_excluded_grid(-60.0, 60.0, 2000, up.kinks)
        grid_lo = bounds.kink_excluded_grid(low.xi0 - 60.0, low.xi0 + 20.0,
                                            2000, low.kinks)
        vu = bounds.verify_upper(up, c, m, grid_up)
        vl = bounds.verify_lower(low, c, m, grid_lo)
        assert vu <= 1e-8, (name, vu)
        assert vl >= -1e-8, (name, vl)
        worst[name] = (vu, vl)
    announce(6, "closed-form bounds satisfy the wave inequalities on "
                f"2000-point grids: {worst}")


def test_criterion_07_front_speed_matches_threshold(ricker2, ricker2_cstar):
    t0 = time.perf_counter()
    K = model.equilibrium(ricker2)
    t_end = 80.0
    runs = {}
    for nx, dt in ((2000, 0.04), (4000, 0.02)):
        cfg = pdesim.SimConfig(x_min=-50.0, x_max=350.0, nx=nx, t_end=t_end,
                               dt=dt, initial=("step", 0.0, 0.0, K),
                               history="frozen", front_level=K / 2.0)
        record = pdesim.run(cfg, ricker2)
        speed, stderr = pdesim.front_speed(record.track)
        runs[nx] = (speed, stderr)
    elapsed = time.perf_counter() - t0
    coarse = abs(runs[2000][0] - ricker2_cstar) / ricker2_cstar
    assert coarse <= 0.05
    # the fitted speed trails the threshold by the pulled-front finite-time
    # correction -3/(2 lambda* t); over the fit window [t_end/2, t_end] the
    # fitted slope picks up its average.  Removing that known physical lag
    # isolates the discretization error, which must shrink under refinement.
    ctx = dispersion.CharacteristicContext.from_model(ricker2)
    lam_star = dispersion.critical_speed(ctx).lambda_star
    lag = (3.0 / (2.0 * lam_star)) * math.log(2.0) / (t_end / 2.0)
    coarse_disc = abs(runs[2000][0] + lag - ricker2_cstar)
    fine_disc = abs(runs[4000][0] + lag - ricker2_cstar)
    assert fine_disc < coarse_disc
    # refinement moves the measurement by well under 1%
    assert abs(runs[2000][0] - runs[4000][0]) <= 0.01 * ricker2_cstar
    assert elapsed < 60.0
    announce(7, f"front speed {runs[2000][0]:.4f} vs threshold "
                f"{ricker2_cstar:.4f} ({100 * coarse:.2f}% raw); lag-corrected "
                f"discrepancy {coarse_disc:.2e} -> {fine_disc:.2e} under "
                f"refinement ({elapsed:.0f} s)")


def test_criterion_08_comparison_spreading():
    params0 = pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0, m=0.0)
    results = {}
    for m_lag, t_end in ((0.0, 150.0), (0.5, 250.0)):
        # the slower delayed front needs a longer run before the trailing
        # edge of the 0.9-speed cone relaxes onto the plateau
        params = pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0, m=m_lag)
        ctx = dispersion.CharacteristicContext(d=params.D1,
                                               growth_at_zero=params.D2,
                                               lag_at_zero=m_lag)
        c_comp = dispersion.critical_speed(ctx).c_star
        cfg = pdesim.SimConfig(
            x_min=-340.0, x_max=340.0, nx=3400, t_end=t_end, dt=0.05,
            initial=lambda x: np.where(np.abs(x) < 5.0, params.plateau, 0.0),
            history="frozen")
        record = pdesim.simulate_comparison(params, None, cfg)
        lo, hi = pdesim.spreading_probe(record, 0.9 * c_comp)
        assert abs(lo - params.plateau) <= 0.02 * params.plateau, (m_lag, lo)
        assert abs(hi - params.plateau) <= 0.02 * params.plateau, (m_lag, hi)
        results[m_lag] = (c_comp, lo, hi)
    # discrete comparison principle: ordered data remain ordered
    x = np.linspace(-60.0, 60.0, 601)
    lower0 = 0.3 * np.exp(-0.05 * x**2)
    upper0 = np.minimum(lower0 + 0.4 * np.exp(-0.02 * x**2), params0.plateau)
    pair = []
    for u0 in (lower0, upper0):
        cfg = pdesim.SimConfig(x_min=-60.0, x_max=60.0, nx=601, t_end=10.0,
                               initial=u0.copy(), history="frozen",
                               snapshot_times=list(np.linspace(0.0, 10.0, 41)))
        pair.append(pdesim.simulate_comparison(
            pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0, m=0.5), None, cfg))
    for ul, uh in zip(pair[0].snapshots, pair[1].snapshots):
        assert np.max(ul - uh) <= 1e-8
    announce(8, f"comparison cones reach the plateau within 2%: {results}; "
                "ordered data stayed ordered to 1e-8")


def test_criterion_09_nonmonotone_wave(ricker3, ricker3_solution):
    sol = ricker3_solution
    pair = bounds.build_envelopes(ricker3)
    xi, v = sol.profile.xi, sol.profile.values
    right = v[xi >= 0.5 * (xi[0] + xi[-1])]
    assert np.min(right) >= pair.k - 1e-3
    assert np.max(right) <= pair.level + 1e-3
    assert sol.residual_sup <= 1e-3
    announce(9, f"nonmonotone wave confined to [{pair.k:.6f}, "
                f"{pair.level:.6f}] band on the right half, residual "
                f"{sol.residual_sup:.2e}")


def test_criterion_10_near_critical_solve(ricker2):
    sol = profile.solve_critical(ricker2, profile.SolverConfig(h=0.005))
    K = model.equilibrium(ricker2)
    ctx = dispersion.CharacteristicContext.from_model(ricker2)
    c_star = dispersion.critical_speed(ctx).c_star
    assert sol.c == pytest.approx(c_star * (1.0 + 1e-6), rel=1e-9)
    assert sol.residual_sup <= 1e-3
    assert abs(float(sol.profile.interp(0.0)) - K / 2.0) <= 1e-6
    announce(10, f"near-critical wave at c*(1+1e-6): residual "
                 f"{sol.residual_sup:.2e}, phase pinned at the half level")


def test_criterion_11_delay_sensitivity_regression():
    tails = {}
    for T in (0.0, 0.1, 0.3, 0.5):
        if T == 0.0:
            delay = model.ConstantDelay(0.2)
        else:
            delay = model.RationalDelay(0.2, 0.2 + T)
        m = model.ModelSpec(d=1.0, birth=model.RickerBirth(3.0), delay=delay)
        ctx = dispersion.CharacteristicContext.from_model(m)
        c = 1.2 * dispersion.critical_speed(ctx).c_star
        sol = profile.solve_nonmonotone(
            m, c, profile.SolverConfig(h=0.01, damping=0.5, mode="nonmonotone"))
        pair = bounds.build_envelopes(m)
        tails[f"{T:g}"] = {"tail": float(sol.profile.values[0]),
                           "fraction": float(sol.profile.values[0] / pair.level),
                           "c": sol.c}
    for T in ("0", "0.1"):
        assert tails[T]["fraction"] < 1e-4, tails[T]
    if os.environ.get(REGEN_GOLDEN_VAR) == "1":
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(tails, indent=2, sort_keys=True))
    if not GOLDEN_PATH.exists():
        pytest.fail(f"golden file {GOLDEN_PATH} is missing; set "
                    f"{REGEN_GOLDEN_VAR}=1 to regenerate it")
    golden = json.loads(GOLDEN_PATH.read_text())
    for T, rec in golden.items():
        assert tails[T]["c"] == pytest.approx(rec["c"], rel=1e-3)
        assert tails[T]["fraction"] <= max(2.0 * rec["fraction"], 1e-6)
    announce(11, "left tails decay below 1e-4 of the level for the two "
                 f"smallest lag slopes; goldens at {GOLDEN_PATH.name}")
