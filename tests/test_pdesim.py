import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import step_datum
from sdwave import _kernels, cli, model, pdesim
from sdwave.errors import ModelInvalidError, NonconvergenceError, SdwaveError


RICKER2 = """\
[model]
d = 1.0
birth.kind = ricker
birth.p = 2.0
delay.kind = saturating_rational
delay.m = 0.2
delay.M = 0.7
"""


def snapshots(t_end, n=41):
    return list(np.linspace(0.0, t_end, n))


def small_config(**over):
    base = dict(x_min=-30.0, x_max=30.0, nx=301, t_end=2.0,
                initial=step_datum(0.0, 0.0, 1.0))
    base.update(over)
    base.setdefault("snapshot_times", snapshots(base["t_end"]))
    return pdesim.SimConfig(**base)


class TestStepping:
    def test_equilibrium_is_fixed(self, ricker2):
        K = model.equilibrium(ricker2)
        cfg = small_config(initial=lambda x: np.full_like(x, K), t_end=1.0)
        sim = pdesim.DelaySim(ricker2, cfg)
        for _ in range(10):
            sim.step()
            assert np.max(np.abs(sim.u - K)) < 1e-12

    def test_zero_stays_zero(self, ricker2):
        cfg = small_config(initial=np.zeros_like, t_end=1.0)
        sim = pdesim.DelaySim(ricker2, cfg)
        for _ in range(10):
            sim.step()
        assert np.max(np.abs(sim.u)) == 0.0

    def test_against_explicit_euler_oracle(self, kpp):
        # zero lag: cross-scheme check against a fine explicit-Euler march
        x = np.linspace(-20.0, 20.0, 161)
        dx = x[1] - x[0]
        u0 = 0.3 * np.exp(-0.25 * x**2)
        dt = 1e-3
        cfg = pdesim.SimConfig(x_min=-20.0, x_max=20.0, nx=161, t_end=1.0,
                               dt=dt, initial=lambda x: u0.copy(),
                               snapshot_times=[])
        sim = pdesim.DelaySim(kpp, cfg)
        n = int(round(1.0 / dt))
        for _ in range(n):
            sim.step()
        dto = dt / 100.0
        u = u0.copy()
        lap = np.empty_like(u)
        for _ in range(100 * n):
            lap[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / dx**2
            lap[0] = 2.0 * (u[1] - u[0]) / dx**2
            lap[-1] = 2.0 * (u[-2] - u[-1]) / dx**2
            u = u + dto * (lap - kpp.d * u + kpp.birth.value(u))
        assert np.max(np.abs(sim.u - u)) <= 1e-4

    def test_band_preserved(self, ricker2):
        K = model.equilibrium(ricker2)
        cfg = small_config(initial=step_datum(0.0, 0.0, K), t_end=3.0)
        record = pdesim.run(cfg, ricker2)
        assert record.warnings["band_violation"] <= 1e-8
        for u in record.snapshots:
            assert np.min(u) >= -1e-8
            assert np.max(u) <= record.level + 1e-8


class TestSetUp:
    def test_callable_initial_is_called_once(self, ricker2):
        calls = []

        def initial(x):
            calls.append(x.shape[0])
            return 0.5 + 0.4 * np.tanh(x)

        sim = pdesim.DelaySim(ricker2, small_config(initial=initial))
        assert calls == [301]
        np.testing.assert_array_equal(sim.u, 0.5 + 0.4 * np.tanh(sim.x))

    @pytest.mark.parametrize("value", [1e200, -1e200, np.nan, np.inf])
    def test_datum_beyond_the_ceiling_is_rejected(self, ricker2, value):
        datum = step_datum(0.0, 0.0, value)
        with pytest.raises(ModelInvalidError, match="initial datum must be finite"):
            pdesim.DelaySim(ricker2, small_config(initial=datum))
        ceiling = step_datum(0.0, 0.0, pdesim.DATUM_CEILING)
        assert pdesim.DelaySim(ricker2, small_config(initial=ceiling)).level > 1e153

    def test_frozen_history_is_translation_at_speed_zero(self, tmp_path):
        # the CLI reads both spellings; the run reaches back before t = 0
        # (the lag is at most M = 0.7), where the history answers
        files = {}
        for name, history in (("frozen", "history.kind = frozen\n"),
                              ("translate", "history.kind = translate\n"
                                            "history.speed = 0\n")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(RICKER2 + "[pde]\nx_min = -30\nx_max = 30\nnx = 301\n"
                           "t_end = 1\ndt = 0.05\ninitial.kind = step\n"
                           "initial.location = 0.5\ninitial.low = 0.1\n" + history)
            out = tmp_path / name
            assert cli.main(["--config", str(cfg), "simulate",
                             "--out-dir", str(out)]) == 0
            files[name] = {f.name: f.read_bytes() for f in out.iterdir()
                           if f.name != "report.json"}
        assert len(files["frozen"]) == 22        # 21 distinct steps + run.json
        assert files["frozen"] == files["translate"]

    @pytest.mark.parametrize("command, section", [
        ("simulate", "[pde]\ninitial.kind = step\n"),
        ("compare", "[comparison]\nD1 = 1.0\nD2 = 2.0\nD3 = 1.0\nm = 0.5\n"
                    "initial.kind = bump\ninitial.width = 5\n"),
    ], ids=["simulate", "compare"])
    def test_one_factorization_per_run(self, tmp_path, monkeypatch, command,
                                        section):
        # the matrix is constant: every step reuses the one set of factors
        calls = []
        factor_tridiagonal = _kernels.factor_tridiagonal

        def factor(*bands):
            calls.append(bands[0].shape[0])
            return factor_tridiagonal(*bands)

        monkeypatch.setattr(_kernels, "factor_tridiagonal", factor)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RICKER2 + section + "x_min = -30\nx_max = 30\nnx = 301\n"
                       "t_end = 1\ndt = 0.05\n")
        assert cli.main(["--config", str(cfg), command,
                         "--out-dir", str(tmp_path / "out")]) == 0
        assert calls == [301]


class TestRun:
    def test_front_advances_monotonically(self, ricker2):
        K = model.equilibrium(ricker2)
        cfg = pdesim.SimConfig(x_min=-30.0, x_max=90.0, nx=601, t_end=15.0,
                               initial=step_datum(0.0, 0.0, K),
                               snapshot_times=snapshots(15.0))
        record = pdesim.run(cfg, ricker2)
        assert record.track.times.shape[0] > 100
        assert np.all(np.diff(record.track.positions) > -1e-9)
        assert record.track.positions[-1] > record.track.positions[0] + 5.0

    def test_zero_run_stays_zero(self, ricker2):
        cfg = small_config(initial=np.zeros_like, t_end=1.0)
        record = pdesim.run(cfg, ricker2)
        for u in record.snapshots:
            assert np.max(np.abs(u)) == 0.0

    def test_traveling_form_preserved(self, ricker2, ricker2_solution):
        prof = ricker2_solution.profile
        c = ricker2_solution.c
        K = model.equilibrium(ricker2)
        cfg = pdesim.SimConfig(
            x_min=-60.0, x_max=110.0, nx=1700, t_end=20.0,
            initial=lambda x: prof.interp(x), snapshot_times=snapshots(20.0),
            history_speed=c, boundary="dirichlet", dirichlet=(0.0, K))
        record = pdesim.run(cfg, ricker2)
        assert record.kind == "delay"
        worst = 0.0
        for t, u in zip(record.times, record.snapshots):
            expected = prof.interp(record.x + c * t)
            worst = max(worst, float(np.max(np.abs(u - expected))))
        assert worst <= 0.02 * K


def scan_front_position(x, u, level):
    """Front position by a scan of every sign change: the reference for the
    shortcut in `pdesim.front_position`."""
    s = u - level
    sign_change = np.nonzero(s[:-1] * s[1:] <= 0)[0]
    sign_change = sign_change[(s[sign_change] != 0) | (s[sign_change + 1] != 0)]
    if sign_change.size == 0:
        return None
    i = int(sign_change[-1])
    x0, x1 = x[i], x[i + 1]
    u0, u1 = u[i], u[i + 1]
    if u1 == u0:
        return float(x0)
    return float(x0 + (x1 - x0) * (level - u0) / (u1 - u0))


def fuzz_profile(rng, level):
    """A short profile: random, monotone or stepwise, then salted with
    values exactly at the level, NaNs and tiny values."""
    n = int(rng.integers(0, 13))
    kind = rng.integers(3)
    spread = 10.0 ** rng.integers(-210, 1)
    if kind == 0:
        u = rng.uniform(-1.0, 1.0, n) * spread + level
    elif kind == 1:
        u = np.sort(rng.uniform(-1.0, 1.0, n) * spread + level)[::-1].copy()
    else:
        u = np.where(np.arange(n) < rng.integers(0, n + 1),
                     level + spread, level - spread)
    for value in (level, np.nan, 1e-200, -1e-200, 1e-170, -1e-170, 0.0):
        if n and rng.random() < 0.2:
            u[rng.integers(n)] = value
    if n and rng.random() < 0.2:
        u[-1] = level + abs(rng.uniform(0.0, 1.0)) * spread
    return u


def same_result(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(np.float64(a), np.float64(b), equal_nan=True)


class TestFrontMeasurements:
    def test_front_position_matches_the_full_scan(self):
        rng = np.random.default_rng(2024)
        levels = (0.0, 1e-200, -1e-200, 1e-100, 0.5, -0.3, 1.0)
        seen = {"none": 0, "last": 0, "nan": 0, "exact": 0}
        for case in range(6000):
            level = float(levels[case % len(levels)])
            if case % 11 == 0:
                level = float(rng.uniform(-1.0, 1.0))
            u = fuzz_profile(rng, level)
            x = np.sort(rng.uniform(-5.0, 5.0, u.shape[0]))
            want = scan_front_position(x, u, level)
            got = pdesim.front_position(x, u, level)
            assert same_result(got, want), (case, level, u.tolist())
            seen["none"] += want is None
            seen["last"] += bool(u.shape[0]) and u[-1] >= level
            seen["nan"] += bool(np.isnan(u).any())
            seen["exact"] += bool((u == level).any())
        assert min(seen.values()) > 300

    def test_front_position_tiny_level_keeps_underflowing_pairs(self):
        # below 1e-100 two small negative differences can multiply to 0,
        # which the scan counts as a crossing; the shortcut must not run
        x = np.arange(4.0)
        u = np.array([1.0, -1e-200, -1e-200, -1e-200])
        assert pdesim.front_position(x, u, 0.0) == scan_front_position(x, u, 0.0) == 2.0


    def test_front_position_symmetric_step(self):
        x = np.linspace(-10.0, 10.0, 201)
        x = x + 0.05  # grid cell straddles 0 symmetrically
        u = np.where(x < 0.05, 1.0, 0.0)
        u[x == 0.05] = 1.0
        # continuum step sits midway through the jump cell
        pos = pdesim.front_position(x, u, 0.5)
        assert pos == pytest.approx(0.1, abs=1e-12)

    def test_front_position_linear_ramp(self):
        x = np.linspace(0.0, 100.0, 101)
        assert pdesim.front_position(x, x / 100.0, 0.25) == pytest.approx(25.0, abs=1e-12)

    def test_front_position_none_without_crossing(self):
        x = np.linspace(0.0, 1.0, 11)
        assert pdesim.front_position(x, np.zeros(11), 0.5) is None

    def test_front_position_at_an_extreme_level_overflows_silently(self):
        # (u - level)^2 overflows to inf, which keeps the pair's sign
        x = np.linspace(0.0, 1.0, 11)
        with np.errstate(over="raise"):
            assert pdesim.front_position(x, np.zeros(11), -1e308) is None
            u = np.linspace(-1.5e308, -0.5e308, 11)
            assert pdesim.front_position(x, u, -1e308) == pytest.approx(0.5)

    def test_front_position_shifts_with_profile(self, ricker2_solution):
        prof = ricker2_solution.profile
        x = np.linspace(-40.0, 40.0, 801)
        h = x[1] - x[0]
        level = 0.3
        a = pdesim.front_position(x, prof.interp(x), level)
        b = pdesim.front_position(x, prof.interp(x - 7.3), level)
        assert b - a == pytest.approx(7.3, abs=h)

    def test_front_speed_recovers_synthetic_slope(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 50.0, 400)
        xf = 2.0 * t + rng.normal(0.0, 1e-3, t.shape)
        speed, stderr = pdesim.front_speed(
            pdesim.FrontTrack(times=t, positions=xf))
        assert speed == pytest.approx(2.0, abs=1e-3)
        assert stderr < 1e-3

    def test_front_speed_needs_samples(self):
        track = pdesim.FrontTrack(times=np.arange(5.0), positions=np.arange(5.0))
        with pytest.raises(SdwaveError):
            pdesim.front_speed(track)

    def test_kpp_pulled_front_speed(self, kpp):
        K = model.equilibrium(kpp)
        cfg = pdesim.SimConfig(x_min=-40.0, x_max=260.0, nx=1500, t_end=60.0,
                               initial=step_datum(0.0, 0.0, K),
                               snapshot_times=snapshots(60.0))
        record = pdesim.run(cfg, kpp)
        speed, _ = pdesim.front_speed(record.track)
        assert abs(speed - 2.0) / 2.0 <= 0.05


class TestComparisonSystem:
    def test_plateau_is_stationary(self):
        params = pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0, m=0.5)
        cfg = small_config(initial=lambda x: np.full_like(x, params.plateau),
                           t_end=1.0)
        record = pdesim.simulate_comparison(params, cfg)
        assert record.kind == "comparison"
        for u in record.snapshots:
            assert np.max(np.abs(u - params.plateau)) < 1e-10

    def test_rejects_history_outside_band(self):
        params = pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0, m=0.5)
        cfg = small_config(initial=lambda x: np.full_like(x, 2.0 * params.plateau))
        with pytest.raises(ModelInvalidError):
            pdesim.ComparisonSim(params, cfg)

    def test_ordered_data_stay_ordered(self):
        params = pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0, m=0.5)
        x = np.linspace(-30.0, 30.0, 301)
        lowd = 0.3 * np.exp(-0.1 * x**2)
        high = np.minimum(lowd + 0.4 * np.exp(-0.05 * x**2), params.plateau)
        snaps = {}
        for name, u0 in (("low", lowd), ("high", high)):
            cfg = small_config(initial=lambda x, u0=u0: u0.copy(), t_end=5.0,
                               snapshot_times=snapshots(5.0, 26))
            snaps[name] = pdesim.simulate_comparison(params, cfg)
        for ul, uh in zip(snaps["low"].snapshots, snaps["high"].snapshots):
            assert np.max(ul - uh) <= 1e-8

    def test_spreading_probe_reaches_plateau(self):
        params = pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0, m=0.0)
        cfg = pdesim.SimConfig(x_min=-100.0, x_max=100.0, nx=1001, t_end=40.0,
                               initial=lambda x: np.where(np.abs(x) < 5.0,
                                                          params.plateau, 0.0),
                               snapshot_times=snapshots(40.0))
        record = pdesim.simulate_comparison(params, cfg)
        lo, hi = pdesim.spreading_probe(record, 0.7 * 2.0)
        assert abs(lo - params.plateau) <= 0.02 * params.plateau
        assert abs(hi - params.plateau) <= 0.02 * params.plateau
        # outside the spreading cone the state is still near zero
        lo_out, _ = pdesim.spreading_probe(record, 1.6 * 2.0)
        assert lo_out < 0.05 * params.plateau

    def test_nan_iterate_raises_the_instability_error(self):
        # the clamp passes a NaN on, and the step's sup|u| check names it
        params = pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0, m=0.5)
        cfg = small_config(initial=lambda x: 0.5 * np.exp(-x * x), dt=0.05)
        sim = pdesim.ComparisonSim(params, cfg)
        sim.step()
        sim.u[150] = np.nan
        with pytest.raises(NonconvergenceError) as info:
            sim.step()
        assert str(info.value) == ("instability detected at t=0.1: sup|u|=nan "
                                   "exceeds 10x level 1")

    def test_probe_on_constant_plateau(self):
        params = pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0, m=0.0)
        cfg = small_config(initial=lambda x: np.full_like(x, params.plateau),
                           t_end=2.0)
        record = pdesim.simulate_comparison(params, cfg)
        lo, hi = pdesim.spreading_probe(record, 1.0)
        assert lo == pytest.approx(params.plateau, abs=1e-10)
        assert hi == pytest.approx(params.plateau, abs=1e-10)


class TestHistoryBuffer:
    def test_eviction_keeps_window(self, ricker2):
        cfg = small_config(t_end=3.0, initial=step_datum(0.0, 0.0, 0.5), dt=0.05)
        sim = pdesim.DelaySim(ricker2, cfg)
        for _ in range(60):
            sim.step()
        assert sim.buffer.oldest <= sim.t - ricker2.delay.M
        assert sim.buffer.count <= sim.buffer.cap


def naive_pointwise(history, spacing, td):
    """Per-point linear interpolation in time over the live (t, u) pairs."""
    t0 = history[0][0]
    out, clamped = np.empty(td.shape[0]), 0
    for i, when in enumerate(td):
        rel = (when - t0) / spacing
        j = min(max(int(rel), 0), len(history) - 2)
        w = rel - j
        if w > 1.0 + 1e-9:
            clamped += 1
        w = min(max(w, 0.0), 1.0)
        out[i] = (1.0 - w) * history[j][1][i] + w * history[j + 1][1][i]
    return out, clamped


class TestHistoryLookup:
    def test_pointwise_across_ring_wrap(self):
        rng = np.random.default_rng(7)
        nx, spacing = 9, 0.1
        buf = pdesim.HistoryBuffer(nx, spacing, window=0.35)
        history, clamped, wrapped = [], 0, 0
        for k in range(40):
            t = k * spacing
            buf.evict(t)
            u = rng.uniform(-1.0, 1.0, nx)
            buf.append(t, u)
            history.append((t, u))
            live = history[-buf.count:]
            if buf.count < 2:         # a lookup needs two rows
                continue
            wrapped += buf.start + buf.count > buf.cap
            # the live window, its two ends and points past the newest
            # snapshot, the one just appended at t
            td = rng.uniform(buf.oldest, t + 0.2 * spacing, nx)
            td[:3] = buf.oldest, t, t + 0.5 * spacing
            want, extra = naive_pointwise(live, spacing, td)
            np.testing.assert_array_equal(buf.lookup_pointwise(td), want)
            clamped += extra
            assert buf.clamp_warnings == clamped
        assert wrapped > 10 and clamped > 30

    def test_both_lookup_paths_across_ring_wrap(self):
        # at every ring position: one td array strictly inside the window
        # (no clamp can fire), then arrays reaching below the oldest, onto
        # the newest and past it (the clamped path).  The ring rows outside
        # the live window hold NaN, so reading one shows; a binary spacing
        # puts the newest snapshot at rel == count - 1 exactly
        rng = np.random.default_rng(11)
        nx, spacing = 7, 0.125
        buf = pdesim.HistoryBuffer(nx, spacing, window=0.55)
        history, clamped, wrapped, inside_runs = [], 0, 0, 0
        for k in range(50):
            t = k * spacing
            buf.evict(t)
            u = rng.uniform(-1.0, 1.0, nx)
            buf.append(t, u)
            history.append((t, u))
            if buf.count < 2:
                continue
            live = history[-buf.count:]
            wrapped += buf.start + buf.count > buf.cap
            dead = (np.arange(buf.cap) - buf.start) % buf.cap >= buf.count
            buf._snaps[dead] = np.nan
            inside = rng.uniform(buf.oldest, t - 1e-6, nx)   # t: the newest
            inside[0] = buf.oldest
            below, onto, past = inside.copy(), inside.copy(), inside.copy()
            below[1] = buf.oldest - 0.3 * spacing
            onto[1] = t
            past[1] = t + 0.25 * spacing
            for td, fast in ((inside, True), (below, False), (onto, False),
                             (past, False)):
                rel = (td - buf.oldest) / buf.spacing
                assert (rel.min() >= 0.0 and rel.max() < buf.count - 1) == fast
                want, extra = naive_pointwise(live, spacing, td)
                np.testing.assert_array_equal(buf.lookup_pointwise(td), want)
                clamped += extra
                assert buf.clamp_warnings == clamped
            inside_runs += 1
        assert wrapped > 10 and inside_runs > 40 and clamped == inside_runs

    def test_pointwise_keeps_signed_zero_weight(self):
        # a -0.0 weight survives the clamp, as under np.clip, so a -0.0
        # history value interpolates to -0.0 rather than +0.0
        history = [(0.0, np.array([-0.0, -0.0])), (0.1, np.array([1.0, 1.0]))]
        buf = pdesim.HistoryBuffer(2, 0.1, window=0.35)
        for t, u in history:
            buf.append(t, u)
        td = np.array([-0.0, 0.0])
        got = buf.lookup_pointwise(td)
        want, _ = naive_pointwise(history, 0.1, td)
        np.testing.assert_array_equal(got, want)
        assert np.signbit(got).tolist() == np.signbit(want).tolist() == [True, False]


def ring_rows(buf):
    """The live (t, snapshot) pairs of a history ring, oldest first."""
    rows = [(buf.start + i) % buf.cap for i in range(buf.count)]
    return [(float(buf._times[r]), buf._snaps[r]) for r in rows]


class TestHistoryRows:
    @pytest.mark.parametrize("speed", [0.0, 1.3, -0.7])
    def test_rows_are_the_translated_datum(self, ricker2, speed):
        # one row per step back to -(ceil(M / dt) + 1) dt, then the datum
        cfg = small_config(dt=0.05, history_speed=speed,
                           initial=lambda x: 0.5 + 0.4 * np.tanh(x))
        sim = pdesim.DelaySim(ricker2, cfg)
        u0 = 0.5 + 0.4 * np.tanh(sim.x)
        rows = ring_rows(sim.buffer)
        back = math.ceil(ricker2.delay.M / sim.dt) + 1
        assert [t for t, _ in rows] == [-k * sim.dt for k in range(back, -1, -1)]
        assert rows[0][0] <= -ricker2.delay.M - sim.dt
        for t, row in rows:
            want = np.interp(sim.x + speed * t, sim.x, u0)
            np.testing.assert_array_equal(row, want)
            if speed == 0.0:
                np.testing.assert_array_equal(row, u0)

    @given(speed=st.floats(-2.0, 2.0), dt=st.floats(0.01, 0.125),
           M=st.floats(0.0, 1.5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_history_values_are_ring_lookups(self, speed, dt, M, seed):
        # td spans the reaction's range [t - M - dt, t] over the steps whose
        # lookups reach back into the history rows, and past them
        spec = model.ModelSpec(d=1.0, birth=model.RickerBirth(2.0),
                               delay=model.RationalDelay(0.0, M))
        cfg = small_config(x_min=-10.0, x_max=10.0, nx=32, dt=dt,
                           t_end=M + 10.0 * dt, history_speed=speed,
                           initial=lambda x: 0.5 + 0.4 * np.tanh(x))
        sim = pdesim.DelaySim(spec, cfg)
        rng = np.random.default_rng(seed)
        for _ in range(int(M / dt) + 5):
            floor = sim.t - M - sim.dt
            td = rng.uniform(floor, sim.t, cfg.nx)
            td[:2] = floor, sim.t
            want, clamped = naive_pointwise(ring_rows(sim.buffer), sim.dt, td)
            np.testing.assert_array_equal(sim.history_values(td), want)
            assert clamped == 0
            sim.step()
        assert sim.buffer.clamp_warnings == 0

    def test_zero_and_one_step_lags_run_without_a_clamp(self, kpp):
        # RationalDelay(0, 0) reads the newest row, a comparison lag m = dt
        # the row one step back: at t = 0 the history row at -dt
        record = pdesim.run(small_config(dt=0.05, t_end=1.0), kpp)
        assert record.warnings["history_clamped"] == 0
        params = pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0, m=0.05)
        cfg = small_config(dt=0.05, t_end=1.0,
                           initial=lambda x: 0.5 * np.exp(-x * x))
        sim = pdesim.ComparisonSim(params, cfg)
        assert [t for t, _ in ring_rows(sim.buffer)] == [-0.1, -0.05, 0.0]
        assert sim.run().warnings["history_clamped"] == 0


def test_dt_validation(ricker2):
    with pytest.raises(ModelInvalidError):
        small_config(dt=10.0).validate(m=0.2, reaction_scale=2.0)
    with pytest.raises(ModelInvalidError):
        small_config(dt=0.3).validate(m=0.2, reaction_scale=2.0)
    dt = small_config().validate(m=0.2, reaction_scale=2.0)
    assert dt <= 0.125 and dt <= 0.1
