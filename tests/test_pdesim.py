import numpy as np
import pytest

from sdwave import model, pdesim
from sdwave.errors import ModelInvalidError, SdwaveError


def small_config(**over):
    base = dict(x_min=-30.0, x_max=30.0, nx=301, t_end=2.0,
                initial=("step", 0.0, 0.0, 1.0), history="frozen")
    base.update(over)
    return pdesim.SimConfig(**base)


class TestStepping:
    def test_equilibrium_is_fixed(self, ricker2):
        K = model.equilibrium(ricker2)
        cfg = small_config(initial=np.full(301, K), t_end=1.0)
        sim = pdesim.DelaySim(ricker2, cfg)
        for _ in range(10):
            sim.step()
            assert np.max(np.abs(sim.u - K)) < 1e-12

    def test_zero_stays_zero(self, ricker2):
        cfg = small_config(initial=np.zeros(301), t_end=1.0)
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
                               dt=dt, initial=u0.copy(), history="frozen")
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
        cfg = small_config(initial=("step", 0.0, 0.0, K), t_end=3.0)
        record = pdesim.run(cfg, ricker2)
        assert record.warnings["band_violation"] <= 1e-8
        for u in record.snapshots:
            assert np.min(u) >= -1e-8
            assert np.max(u) <= record.level + 1e-8


class TestRun:
    def test_front_advances_monotonically(self, ricker2):
        K = model.equilibrium(ricker2)
        cfg = pdesim.SimConfig(x_min=-30.0, x_max=90.0, nx=601, t_end=15.0,
                               initial=("step", 0.0, 0.0, K), history="frozen")
        record = pdesim.run(cfg, ricker2)
        assert record.track.times.shape[0] > 100
        assert np.all(np.diff(record.track.positions) > -1e-9)
        assert record.track.positions[-1] > record.track.positions[0] + 5.0

    def test_zero_run_stays_zero(self, ricker2):
        cfg = small_config(initial=np.zeros(301), t_end=1.0)
        record = pdesim.run(cfg, ricker2)
        for u in record.snapshots:
            assert np.max(np.abs(u)) == 0.0

    def test_traveling_form_preserved(self, ricker2, ricker2_solution):
        prof = ricker2_solution.profile
        c = ricker2_solution.c
        K = model.equilibrium(ricker2)
        cfg = pdesim.SimConfig(
            x_min=-60.0, x_max=110.0, nx=1700, t_end=20.0,
            initial=lambda x: prof.interp(x),
            history=("translate", c),
            boundary="dirichlet", dirichlet=(0.0, K))
        record = pdesim.run(cfg, ricker2, meta={"probe": "traveling form"})
        worst = 0.0
        for t, u in zip(record.times, record.snapshots):
            expected = prof.interp(record.x + c * t)
            worst = max(worst, float(np.max(np.abs(u - expected))))
        assert worst <= 0.02 * K


class TestFrontMeasurements:
    def test_front_position_symmetric_step(self):
        x = np.linspace(-10.0, 10.0, 201)
        x = x + 0.05  # grid cell straddles 0 symmetrically
        u = np.where(x < 0.05, 1.0, 0.0)
        u[x == 0.05] = 1.0
        fld = pdesim.Field(x=x, u=u, t=0.0)
        # continuum step sits midway through the jump cell
        pos = pdesim.front_position(fld, 0.5)
        assert pos == pytest.approx(0.1, abs=1e-12)

    def test_front_position_linear_ramp(self):
        x = np.linspace(0.0, 100.0, 101)
        fld = pdesim.Field(x=x, u=x / 100.0, t=0.0)
        assert pdesim.front_position(fld, 0.25) == pytest.approx(25.0, abs=1e-12)

    def test_front_position_none_without_crossing(self):
        x = np.linspace(0.0, 1.0, 11)
        fld = pdesim.Field(x=x, u=np.zeros(11), t=0.0)
        assert pdesim.front_position(fld, 0.5) is None

    def test_front_position_shifts_with_profile(self, ricker2_solution):
        prof = ricker2_solution.profile
        x = np.linspace(-40.0, 40.0, 801)
        h = x[1] - x[0]
        level = 0.3
        a = pdesim.front_position(pdesim.Field(x=x, u=prof.interp(x), t=0.0), level)
        b = pdesim.front_position(
            pdesim.Field(x=x, u=prof.interp(x - 7.3), t=0.0), level)
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
                               initial=("step", 0.0, 0.0, K), history="frozen")
        record = pdesim.run(cfg, kpp)
        speed, _ = pdesim.front_speed(record.track)
        assert abs(speed - 2.0) / 2.0 <= 0.05


class TestComparisonSystem:
    def test_plateau_is_stationary(self):
        params = pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0, m=0.5)
        cfg = small_config(initial=np.full(301, params.plateau), t_end=1.0)
        record = pdesim.simulate_comparison(params, None, cfg)
        for u in record.snapshots:
            assert np.max(np.abs(u - params.plateau)) < 1e-10

    def test_rejects_history_outside_band(self):
        params = pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0, m=0.5)
        cfg = small_config(initial=np.full(301, 2.0 * params.plateau))
        with pytest.raises(ModelInvalidError):
            pdesim.ComparisonSim(params, cfg)

    def test_ordered_data_stay_ordered(self):
        params = pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0, m=0.5)
        x = np.linspace(-30.0, 30.0, 301)
        lowd = 0.3 * np.exp(-0.1 * x**2)
        high = np.minimum(lowd + 0.4 * np.exp(-0.05 * x**2), params.plateau)
        snaps = {}
        for name, u0 in (("low", lowd), ("high", high)):
            cfg = small_config(initial=u0.copy(), t_end=5.0,
                               snapshot_times=list(np.linspace(0, 5.0, 26)))
            snaps[name] = pdesim.simulate_comparison(params, None, cfg)
        for ul, uh in zip(snaps["low"].snapshots, snaps["high"].snapshots):
            assert np.max(ul - uh) <= 1e-8

    def test_spreading_probe_reaches_plateau(self):
        params = pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0, m=0.0)
        cfg = pdesim.SimConfig(x_min=-100.0, x_max=100.0, nx=1001, t_end=40.0,
                               initial=lambda x: np.where(np.abs(x) < 5.0,
                                                          params.plateau, 0.0),
                               history="frozen")
        record = pdesim.simulate_comparison(params, None, cfg)
        lo, hi = pdesim.spreading_probe(record, 0.7 * 2.0)
        assert abs(lo - params.plateau) <= 0.02 * params.plateau
        assert abs(hi - params.plateau) <= 0.02 * params.plateau
        # outside the spreading cone the state is still near zero
        lo_out, _ = pdesim.spreading_probe(record, 1.6 * 2.0)
        assert lo_out < 0.05 * params.plateau

    def test_probe_on_constant_plateau(self):
        params = pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0, m=0.0)
        cfg = small_config(initial=np.full(301, params.plateau), t_end=2.0)
        record = pdesim.simulate_comparison(params, None, cfg)
        lo, hi = pdesim.spreading_probe(record, 1.0)
        assert lo == pytest.approx(params.plateau, abs=1e-10)
        assert hi == pytest.approx(params.plateau, abs=1e-10)


class TestHistoryBuffer:
    def test_granularity_insensitivity(self, ricker2):
        K = model.equilibrium(ricker2)
        outs = {}
        for se in (1, 4):
            cfg = pdesim.SimConfig(x_min=-30.0, x_max=50.0, nx=401, t_end=5.0,
                                   dt=0.01, initial=("step", 0.0, 0.0, K),
                                   history="frozen", store_every=se)
            sim = pdesim.DelaySim(ricker2, cfg)
            for _ in range(int(round(5.0 / sim.dt))):
                sim.step()
            outs[se] = sim.u
        assert np.max(np.abs(outs[1] - outs[4])) < 1e-4

    def test_eviction_keeps_window(self, ricker2):
        cfg = small_config(t_end=3.0, initial=("step", 0.0, 0.0, 0.5), dt=0.05)
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
            if buf.count == 1:
                np.testing.assert_array_equal(buf.lookup_pointwise(np.full(nx, t)), u)
                continue
            wrapped += buf.start + buf.count > buf.cap
            # the live window, its two ends and points past the newest snapshot
            td = rng.uniform(buf.oldest, buf.newest + 0.2 * spacing, nx)
            td[:3] = buf.oldest, buf.newest, buf.newest + 0.5 * spacing
            want, extra = naive_pointwise(live, spacing, td)
            np.testing.assert_array_equal(buf.lookup_pointwise(td), want)
            clamped += extra
            assert buf.clamp_warnings == clamped
        assert wrapped > 10 and clamped > 30

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


class TestNonexistenceProbe:
    def test_rejects_supercritical_request(self, ricker2, ricker2_cstar):
        cfg = small_config()
        with pytest.raises(ModelInvalidError):
            pdesim.nonexistence_probe(ricker2, 1.5 * ricker2_cstar, cfg)

    def test_front_outruns_subthreshold_speed(self, ricker2, ricker2_cstar):
        cfg = pdesim.SimConfig(x_min=-30.0, x_max=120.0, nx=751, t_end=40.0,
                               initial=None, history="frozen")
        report = pdesim.nonexistence_probe(ricker2, 0.5 * ricker2_cstar, cfg)
        assert report.excess > 0.3 * ricker2_cstar
        assert abs(report.speed - ricker2_cstar) / ricker2_cstar < 0.1


def test_dt_validation(ricker2):
    with pytest.raises(ModelInvalidError):
        small_config(dt=10.0).validate(m=0.2, reaction_scale=2.0)
    with pytest.raises(ModelInvalidError):
        small_config(dt=0.3).validate(m=0.2, reaction_scale=2.0)
    dt = small_config().validate(m=0.2, reaction_scale=2.0)
    assert dt <= 0.125 and dt <= 0.1
