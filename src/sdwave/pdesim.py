"""Method-of-lines simulator for the delayed reaction-diffusion dynamics.

IMEX stepping: diffusion is advanced by an implicit backward-Euler
tridiagonal solve, factored once per run, the (delayed) reaction
explicitly.  A ring buffer of past snapshots serves the state-dependent
delayed lookups, one flat gather per step, with the prescribed
history function answering pre-initial times.  The same machinery runs the
fixed-delay comparison system with a quadratic reaction.  Front positions
are tracked by level crossings and fitted to a speed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels as kernels
from .dispersion import CharacteristicContext, critical_speed
from .errors import ModelInvalidError, SchemeError, SdwaveError
from .model import ModelSpec, birth_peak, equilibrium

BAND_SLACK = 1e-8
COMPARISON_BAND_TOL = 1e-6


@dataclass
class Field:
    """Spatial snapshot of the solution at one time."""

    x: np.ndarray
    u: np.ndarray
    t: float

    @property
    def nx(self) -> int:
        return int(self.x.shape[0])


@dataclass
class ComparisonParams:
    """Fixed-delay comparison dynamics: -D1 u + D2 u(t - m) - D3 u^2."""

    D1: float
    D2: float
    D3: float
    m: float = 0.0

    def __post_init__(self):
        if min(self.D1, self.D2, self.D3) <= 0 or self.m < 0:
            raise ModelInvalidError("comparison coefficients must be positive, m >= 0")
        if self.D2 <= self.D1:
            raise ModelInvalidError("comparison system needs D2 > D1")

    @property
    def plateau(self) -> float:
        return (self.D2 - self.D1) / self.D3


@dataclass
class SimConfig:
    x_min: float
    x_max: float
    nx: int
    t_end: float
    dt: Optional[float] = None
    boundary: str = "neumann"                  # or "dirichlet"
    dirichlet: tuple = (0.0, 0.0)
    initial: object = None                     # ndarray, callable, or ("step", loc, low, high)
    history: object = "frozen"                 # or ("translate", speed)
    snapshot_times: Optional[Sequence[float]] = None
    store_every: int = 1
    track_every: int = 1
    level: Optional[float] = None
    front_level: Optional[float] = None

    def validate(self, m: float, reaction_scale: float) -> float:
        """Resolve and check the time step against the scheme budgets."""
        if self.nx < 8:
            raise ModelInvalidError("need at least 8 grid points")
        if self.x_max <= self.x_min:
            raise ModelInvalidError("empty spatial domain")
        if self.boundary not in ("neumann", "dirichlet"):
            raise ModelInvalidError(f"unknown boundary kind {self.boundary!r}")
        dx = (self.x_max - self.x_min) / (self.nx - 1)
        budget = 0.25 / reaction_scale
        dt = self.dt
        if dt is None:
            dt = min(budget, dx * dx)
            if m > 0:
                dt = min(dt, m / 2.0)
        if dt <= 0:
            raise ModelInvalidError("time step must be positive")
        if dt > budget * (1 + 1e-12):
            raise ModelInvalidError(
                f"dt={dt:g} exceeds the reaction stability budget {budget:g}")
        if m > 0 and dt > m * (1 + 1e-12):
            raise ModelInvalidError(f"dt={dt:g} exceeds the shortest lag {m:g}")
        if self.store_every < 1:
            raise ModelInvalidError("store_every must be >= 1")
        if self.track_every < 1:
            raise ModelInvalidError("track_every must be >= 1")
        return dt


@dataclass
class FrontTrack:
    times: np.ndarray
    positions: np.ndarray


@dataclass
class RunRecord:
    x: np.ndarray
    times: list
    snapshots: list
    track: FrontTrack
    level: float
    dt: float
    warnings: dict
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# history ring buffer

class HistoryBuffer:
    """Ring of (t, snapshot) pairs spanning at least [t - window, t].

    Snapshots are stored every `store_every` steps, so spacing is uniform;
    lookups interpolate linearly in time at fixed x.  Times ahead of the
    newest snapshot fall back to it (counted as warnings); times before the
    first snapshot are the caller's history function's job.
    """

    def __init__(self, nx: int, spacing: float, window: float):
        self.spacing = float(spacing)
        self.window = float(window)
        cap = int(math.ceil(window / spacing)) + 6
        self.cap = cap
        self._times = np.empty(cap)
        self._snaps = np.empty((cap, nx))
        self._cols = np.arange(nx)
        self.start = 0
        self.count = 0
        self.clamp_warnings = 0

    def append(self, t: float, u: np.ndarray):
        if self.count == self.cap:
            raise SchemeError("history ring overflow; eviction failed")
        idx = (self.start + self.count) % self.cap
        self._times[idx] = t
        self._snaps[idx] = u
        self.count += 1

    def evict(self, t_next: float):
        cutoff = t_next - self.window
        while self.count >= 2:
            second = self._times[(self.start + 1) % self.cap]
            if second <= cutoff:
                self.start = (self.start + 1) % self.cap
                self.count -= 1
            else:
                break

    @property
    def oldest(self) -> float:
        return float(self._times[self.start])

    @property
    def newest(self) -> float:
        return float(self._times[(self.start + self.count - 1) % self.cap])

    def lookup_pointwise(self, td: np.ndarray) -> np.ndarray:
        """Per-point temporal interpolation; td must be >= oldest snapshot."""
        if self.count == 1:
            return self._snaps[self.start].copy()
        t0 = self.oldest
        rel = (td - t0) / self.spacing
        # in-place minimum/maximum instead of np.clip, whose Python-level
        # wrapper costs more than the clamp; the bound goes first so that a
        # tie keeps the input, -0.0 included, as np.clip does
        j = rel.astype(np.int64)
        np.minimum(self.count - 2, j, out=j)
        np.maximum(0, j, out=j)
        w = rel - j
        over = w > 1.0 + 1e-9
        if np.any(over):
            self.clamp_warnings += int(np.count_nonzero(over))
        np.minimum(1.0, w, out=w)
        np.maximum(0.0, w, out=w)
        # flat offsets of (ring row start + j, column) and of the next row,
        # each wrapped by one compare-and-subtract (j + 1 < count <= cap)
        nx = self._cols.shape[0]
        row = j + self.start
        row -= self.cap * (row >= self.cap)
        flat = row * nx + self._cols
        flat_next = flat + nx
        flat_next -= (self.cap * nx) * (row == self.cap - 1)
        snaps = self._snaps.reshape(-1)
        return (1.0 - w) * snaps.take(flat) + w * snaps.take(flat_next)

    def lookup_uniform(self, td: float) -> np.ndarray:
        """Whole-snapshot interpolation at a single past time."""
        if self.count == 1:
            return self._snaps[self.start].copy()
        rel = (td - self.oldest) / self.spacing
        j = min(max(math.floor(rel), 0), self.count - 2)
        w = rel - j
        if w > 1.0 + 1e-9:
            self.clamp_warnings += 1
        w = min(max(w, 0.0), 1.0)
        left = self._snaps[(self.start + j) % self.cap]
        right = self._snaps[(self.start + j + 1) % self.cap]
        return (1.0 - w) * left + w * right


# ---------------------------------------------------------------------------
# simulations

def _resolve_initial(config: SimConfig, x: np.ndarray) -> np.ndarray:
    init = config.initial
    if init is None:
        raise ModelInvalidError("no initial datum configured")
    if isinstance(init, np.ndarray):
        if init.shape != x.shape:
            raise ModelInvalidError("initial array does not match the grid")
        return init.astype(float).copy()
    if callable(init):
        return np.asarray(init(x), dtype=float)
    if isinstance(init, tuple) and init[0] == "step":
        _, loc, low, high = init
        return np.where(x <= loc, float(high), float(low))
    raise ModelInvalidError(f"unsupported initial datum spec {init!r}")


class _BaseSim:
    """Shared IMEX stepping machinery; subclasses provide the reaction."""

    def __init__(self, config: SimConfig, m_lag: float, max_lag: float,
                 reaction_scale: float, level: float):
        self.config = config
        self.dt = config.validate(m_lag, reaction_scale)
        self.x = np.linspace(config.x_min, config.x_max, config.nx)
        self.dx = float(self.x[1] - self.x[0])
        self.u = _resolve_initial(config, self.x)
        self.t = 0.0
        self.level = level
        self.band_violation = 0.0
        window = max_lag + 2.0 * self.dt + 2.0 * self.dt * config.store_every
        self.buffer = HistoryBuffer(config.nx, self.dt * config.store_every,
                                    window)
        self.buffer.append(0.0, self.u)
        self._steps_done = 0
        self._init_interp = self.u.copy()
        self._setup_matrix()
        self._setup_history()

    def _setup_matrix(self):
        r = self.dt / self.dx**2
        n = self.config.nx
        lower = np.full(n - 1, -r)
        diag = np.full(n, 1.0 + 2.0 * r)
        upper = np.full(n - 1, -r)
        if self.config.boundary == "neumann":
            upper[0] = -2.0 * r
            lower[-1] = -2.0 * r
        else:
            diag[0] = 1.0
            upper[0] = 0.0
            diag[-1] = 1.0
            lower[-1] = 0.0
        self._factors = kernels.factor_tridiagonal(lower, diag, upper)

    def _setup_history(self):
        hist = self.config.history
        if hist == "frozen":
            self._psi = lambda xq, s: np.interp(xq, self.x, self._init_interp)
        elif isinstance(hist, tuple) and hist[0] == "translate":
            speed = float(hist[1])
            init = self._init_interp

            def psi(xq, s):
                return np.interp(xq + speed * s, self.x, init,
                                 left=init[0], right=init[-1])

            self._psi = psi
        else:
            raise ModelInvalidError(f"unsupported history spec {hist!r}")

    def history_values(self, td: np.ndarray) -> np.ndarray:
        """Delayed values per grid point, splitting buffer and pre-initial times."""
        pre = td < 0.0
        if not np.any(pre):
            return self.buffer.lookup_pointwise(td)
        out = np.empty_like(td)
        out[pre] = self._psi(self.x[pre], td[pre])
        post = ~pre
        if np.any(post):
            vals = self.buffer.lookup_pointwise(np.where(post, td, 0.0))
            out[post] = vals[post]
        return out

    def reaction(self) -> np.ndarray:
        raise NotImplementedError

    def _post_step(self):
        pass

    def step(self):
        rhs = self.u + self.dt * self.reaction()
        if self.config.boundary == "dirichlet":
            rhs[0], rhs[-1] = self.config.dirichlet
        self.u = kernels.solve_tridiagonal(*self._factors, rhs)
        self.t += self.dt
        self._steps_done += 1
        self._post_step()
        # one max/min pair gives sup|u| and both band excesses exactly:
        # rounding is monotone, so max(u - level) == max(u) - level
        hi, lo = float(self.u.max()), float(self.u.min())
        sup = max(hi, -lo)
        if not sup <= 10.0 * self.level:
            raise SchemeError(
                f"instability detected at t={self.t:.6g}: sup|u|={sup:.3g} "
                f"exceeds 10x level {self.level:.3g}")
        self.band_violation = max(self.band_violation, hi - self.level, -lo)
        if self._steps_done % self.config.store_every == 0:
            self.buffer.evict(self.t + self.dt)
            self.buffer.append(self.t, self.u)

    def run(self, meta: Optional[dict] = None) -> RunRecord:
        cfg = self.config
        n_steps = int(round(cfg.t_end / self.dt))
        if cfg.snapshot_times is None:
            snap_times = list(np.linspace(0.0, n_steps * self.dt, 41))
        else:
            snap_times = sorted(float(t) for t in cfg.snapshot_times)
        snap_idx = sorted({min(int(round(t / self.dt)), n_steps) for t in snap_times})
        times, snaps = [], []
        track_t, track_x = [], []
        front_level = cfg.front_level if cfg.front_level is not None else self.level / 2.0

        def record(step_no):
            if step_no in pending:
                times.append(self.t)
                snaps.append(self.u.copy())
            if step_no % cfg.track_every == 0:
                pos = front_position(Field(x=self.x, u=self.u, t=self.t),
                                     front_level)
                if pos is not None:
                    track_t.append(self.t)
                    track_x.append(pos)

        pending = set(snap_idx)
        record(0)
        for k in range(1, n_steps + 1):
            self.step()
            record(k)
        track = FrontTrack(times=np.asarray(track_t), positions=np.asarray(track_x))
        return RunRecord(x=self.x, times=times, snapshots=snaps, track=track,
                         level=self.level, dt=self.dt,
                         warnings={"history_clamped": self.buffer.clamp_warnings,
                                   "band_violation": self.band_violation},
                         meta=meta or {})


class DelaySim(_BaseSim):
    """State-dependent-delay dynamics for a model specification."""

    def __init__(self, model: ModelSpec, config: SimConfig):
        self.model = model
        peak = birth_peak(model)
        x = np.linspace(config.x_min, config.x_max, config.nx)
        u0 = _resolve_initial(config, x)
        level = config.level if config.level is not None else max(
            peak / model.d, peak, float(np.max(u0)))
        scale = max(model.d, model.birth.derivative_at_zero)
        super().__init__(config, m_lag=model.delay.m, max_lag=model.delay.M,
                         reaction_scale=scale, level=level)

    def reaction(self) -> np.ndarray:
        td = self.t - self.model.delay.tau(self.u)
        np.maximum(td, self.t - self.model.delay.M - self.dt, out=td)
        delayed = self.history_values(td)
        return -self.model.d * self.u + self.model.birth.value(np.maximum(delayed, 0.0))


class ComparisonSim(_BaseSim):
    """Fixed-delay quadratic comparison dynamics inside its invariant band."""

    def __init__(self, params: ComparisonParams, config: SimConfig,
                 psi: Optional[Callable] = None):
        self.params = params
        scale = params.D1 + params.D2 + 2.0 * params.D3 * params.plateau
        super().__init__(config, m_lag=params.m, max_lag=params.m,
                         reaction_scale=scale, level=params.plateau)
        if psi is not None:
            self._psi = lambda xq, s: np.asarray(psi(xq, s), dtype=float)
            self._check_history_band()
        if np.any(self.u < -1e-12) or np.any(self.u > params.plateau + 1e-12):
            raise ModelInvalidError("comparison initial datum outside the invariant band")

    def _check_history_band(self):
        for s in np.linspace(-self.params.m, 0.0, 5):
            vals = self._psi(self.x, s)
            if np.any(vals < -1e-12) or np.any(vals > self.params.plateau + 1e-12):
                raise ModelInvalidError(
                    "comparison history must lie in the invariant band")

    def reaction(self) -> np.ndarray:
        p = self.params
        if p.m == 0.0:
            delayed = self.u
        else:
            td = self.t - p.m
            if td < 0.0:
                delayed = self._psi(self.x, td)
            else:
                delayed = self.buffer.lookup_uniform(td)
        return -p.D1 * self.u + p.D2 * delayed - p.D3 * self.u * self.u

    def _post_step(self):
        over = float(self.u.max()) - self.params.plateau
        under = -float(self.u.min())
        if max(over, under) > COMPARISON_BAND_TOL:
            raise SchemeError(
                f"comparison band violated by {max(over, under):.3e} at t={self.t:.6g}")
        np.minimum(self.params.plateau, self.u, out=self.u)
        np.maximum(0.0, self.u, out=self.u)


def run(config: SimConfig, model: ModelSpec, meta: Optional[dict] = None) -> RunRecord:
    """Execute a state-dependent-delay run; deterministic for a fixed config."""
    return DelaySim(model, config).run(meta=meta)


def simulate_comparison(params: ComparisonParams, psi, config: SimConfig,
                        meta: Optional[dict] = None) -> RunRecord:
    """Run the fixed-delay comparison system from history psi(x, s), s in [-m, 0]."""
    sim = ComparisonSim(params, config, psi=psi)
    return sim.run(meta=meta)


# ---------------------------------------------------------------------------
# front measurements

def front_position(field: Field, level: float) -> Optional[float]:
    """Rightmost crossing of the level, linearly interpolated; None if absent."""
    s = field.u - level
    sign_change = np.nonzero(s[:-1] * s[1:] <= 0)[0]
    sign_change = sign_change[(s[sign_change] != 0) | (s[sign_change + 1] != 0)]
    if sign_change.size == 0:
        return None
    i = int(sign_change[-1])
    x0, x1 = field.x[i], field.x[i + 1]
    u0, u1 = field.u[i], field.u[i + 1]
    if u1 == u0:
        return float(x0)
    return float(x0 + (x1 - x0) * (level - u0) / (u1 - u0))


def front_speed(track: FrontTrack, window_fraction: float = 0.5) -> tuple:
    """Least-squares front speed over the trailing window; (speed, stderr)."""
    n = track.times.shape[0]
    keep = max(int(math.ceil(n * window_fraction)), 0)
    if keep < 10:
        raise SdwaveError("front speed fit needs at least 10 samples in the window")
    t = track.times[n - keep:]
    xf = track.positions[n - keep:]
    A = np.vstack([t, np.ones_like(t)]).T
    coef, res_, _, _ = np.linalg.lstsq(A, xf, rcond=None)
    fit = A @ coef
    dof = max(keep - 2, 1)
    sigma2 = float(np.sum((xf - fit) ** 2)) / dof
    tvar = float(np.sum((t - t.mean()) ** 2))
    stderr = math.sqrt(sigma2 / tvar) if tvar > 0 else float("inf")
    return float(coef[0]), stderr


def spreading_probe(record: RunRecord, c_probe: float) -> tuple:
    """Extrema of u over the cone |x| < c_probe * t across late snapshots."""
    if c_probe <= 0:
        raise ModelInvalidError("probe speed must be positive")
    n = len(record.times)
    late = range(int(math.floor(0.75 * n)), n)
    lo, hi = math.inf, -math.inf
    seen = False
    for i in late:
        t = record.times[i]
        mask = np.abs(record.x) < c_probe * t
        if not np.any(mask):
            continue
        seen = True
        u = record.snapshots[i][mask]
        lo = min(lo, float(np.min(u)))
        hi = max(hi, float(np.max(u)))
    if not seen:
        raise SdwaveError("spreading cone empty at every sampled time")
    return lo, hi


@dataclass
class ProbeReport:
    c_test: float
    c_star: float
    speed: float
    stderr: float
    excess: float
    samples: int
    window_fraction: float


def nonexistence_probe(model: ModelSpec, c_test: float, config: SimConfig,
                       window_fraction: float = 0.5) -> ProbeReport:
    """Demonstrate that fronts outrun any subthreshold speed.

    Seeds a front-like datum, measures the realized front speed, and reports
    its excess over the requested speed (expected to be near the threshold
    speed, hence far above c_test).
    """
    ctx = CharacteristicContext.from_model(model)
    c_star = critical_speed(ctx).c_star
    if c_test >= c_star:
        raise ModelInvalidError(
            f"nonexistence probe needs c_test < threshold {c_star:.9g}, "
            f"got {c_test:.9g}")
    if config.initial is None:
        config.initial = ("step", 0.0, 0.0, equilibrium(model))
    record = run(config, model, meta={"probe": "nonexistence", "c_test": c_test})
    speed, stderr = front_speed(record.track, window_fraction)
    return ProbeReport(c_test=c_test, c_star=c_star, speed=speed, stderr=stderr,
                       excess=speed - c_test, samples=record.track.times.shape[0],
                       window_fraction=window_fraction)
