"""Method-of-lines simulator for the delayed reaction-diffusion dynamics.

IMEX stepping: diffusion is advanced by an implicit backward-Euler
tridiagonal solve, the (delayed) reaction explicitly.  The matrix is made
symmetric exactly (end rows halved, or boundary couplings moved to the
right-hand side), so it is factored once per run as LDLᵀ and each step is
one in-place solve.  A ring buffer of past snapshots serves the
state-dependent delayed lookups, one flat gather per step.  Its first rows
are the history on [-M, 0]: the initial datum translated at the history
speed (a frozen history is the translation at speed 0), so every delayed
value is one ring lookup.  The same machinery, with the same history, runs
the fixed-delay comparison system with a quadratic reaction.
Front positions are tracked by level crossings and fitted to a speed.

`SimConfig` holds resolved inputs only: the initial datum is a function of
x, the history a speed and the snapshot times a list.  Reading them from a
config file is the CLI's job.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels as kernels
from .errors import ConfigError, ModelInvalidError, NonconvergenceError
from .model import ModelSpec, birth_peak

COMPARISON_BAND_TOL = 1e-6
# the largest |u(x, 0)|: it keeps the reaction's products and the squared
# distances of the front scan finite
DATUM_CEILING = 0.25 * math.sqrt(np.finfo(float).max)
# the most values the history ring may hold, rows times nx: 800 MB of
# floats, the simulator's counterpart of profile.MAX_GRID_POINTS
MAX_HISTORY_VALUES = 10**8


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
    initial: Callable                          # x -> u(x, 0), called once on the grid
    snapshot_times: Sequence[float]            # each rounded to a step, capped at t_end
    dt: Optional[float] = None
    boundary: str = "neumann"                  # or "dirichlet"
    dirichlet: tuple = (0.0, 0.0)
    history_speed: float = 0.0                 # u(x, s < 0) = u(x + speed s, 0)
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
    kind: str                                  # "delay" or "comparison"


# ---------------------------------------------------------------------------
# history ring buffer

class HistoryBuffer:
    """Ring of (t, snapshot) pairs spanning at least [t - window, t].

    A snapshot is stored every step, so spacing is uniform;
    lookups interpolate linearly in time at fixed x and need at least two
    rows, which the simulators' history rows guarantee.  Times ahead of the
    newest snapshot fall back to it (counted as warnings), times before the
    oldest to the oldest.
    """

    def __init__(self, nx: int, spacing: float, window: float):
        self.spacing = float(spacing)
        self.window = float(window)
        steps = window / spacing
        cap = math.ceil(steps) + 6 if steps <= MAX_HISTORY_VALUES else math.inf
        if cap * nx > MAX_HISTORY_VALUES:            # checked before allocating
            raise ConfigError(
                f"nx = {nx} at dt = {spacing:g} needs a history ring of "
                f"{cap * nx:.4g} values, more than {MAX_HISTORY_VALUES:,}; "
                "lower nx or raise dt")
        self.cap = cap
        self._times = np.empty(cap)
        self._snaps = np.empty((cap, nx))
        self._cols = np.arange(nx)
        self.start = 0
        self.count = 0
        self.clamp_warnings = 0

    def append(self, t: float, u: np.ndarray):
        if self.count == self.cap:
            raise NonconvergenceError("history ring overflow; eviction failed")
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

    def lookup_pointwise(self, td: np.ndarray) -> np.ndarray:
        """Per-point temporal interpolation; td must be >= oldest snapshot."""
        rel = (td - self.oldest) / self.spacing
        j = rel.astype(np.int64)
        if rel.min() >= 0.0 and rel.max() < self.count - 1:
            # every j lies in [0, count - 2] and every weight in [0, 1), so
            # no clamp below could fire; NaN takes the clamped path
            w = np.subtract(rel, j, out=rel)
        else:
            # in-place minimum/maximum instead of np.clip, whose Python-level
            # wrapper costs more than the clamp; the bound goes first so that
            # a tie keeps the input, -0.0 included, as np.clip does
            np.minimum(self.count - 2, j, out=j)
            np.maximum(0, j, out=j)
            w = np.subtract(rel, j, out=rel)
            over = w > 1.0 + 1e-9
            if np.any(over):
                self.clamp_warnings += int(np.count_nonzero(over))
            np.minimum(1.0, w, out=w)
            np.maximum(0.0, w, out=w)
        # flat offsets of (ring row start + j, column) and of the next row;
        # take's wrap mode folds rows past the end back onto the ring
        nx = self._cols.shape[0]
        j += self.start
        j *= nx
        j += self._cols
        snaps = self._snaps.reshape(-1)
        out = snaps.take(j, mode="wrap")
        j += nx
        later = snaps.take(j, mode="wrap")
        # (1 - w) * earlier + w * later, built in the two gathered buffers
        later *= w
        out *= np.subtract(1.0, w, out=w)
        out += later
        return out

    def lookup_uniform(self, td: float) -> np.ndarray:
        """Whole-snapshot interpolation at a single past time."""
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

class _BaseSim:
    """Shared IMEX stepping machinery; subclasses provide `kind`, the
    reaction and the band level."""

    def __init__(self, config: SimConfig, m_lag: float, max_lag: float,
                 reaction_scale: float):
        self.config = config
        self.dt = config.validate(m_lag, reaction_scale)
        # the lag, 2 dt of lookup slack and two ring spacings of dt, summed
        # in this order: max_lag + 4.0 * dt can round to another cutoff;
        # the ring checks its size before any grid-length array exists
        window = max_lag + 2.0 * self.dt + 2.0 * self.dt
        self.buffer = HistoryBuffer(config.nx, self.dt, window)
        self.x = np.linspace(config.x_min, config.x_max, config.nx)
        self.dx = float(self.x[1] - self.x[0])
        self.u = u0 = np.asarray(config.initial(self.x), dtype=float)
        sup = float(np.max(np.abs(u0)))
        if not sup <= DATUM_CEILING:
            raise ModelInvalidError(
                f"the initial datum must be finite with |u| at most "
                f"{DATUM_CEILING:.4g}, not sup|u| = {sup:.4g}")
        self.t = 0.0
        self.band_violation = 0.0
        self.max_lag = max_lag
        self._setup_matrix()
        # the history rows at s = -k dt, back one step past the longest lag
        # (the reaction's floor t - max_lag - dt): the datum translated by
        # speed * s, held at its end values beyond the grid; then the datum
        x, speed = self.x, float(config.history_speed)
        for k in range(math.ceil(max_lag / self.dt) + 1, 0, -1):
            s = -k * self.dt
            self.buffer.append(s, np.interp(x + speed * s, x, u0))
        self.buffer.append(0.0, u0)

    def _setup_matrix(self):
        # backward Euler, (1 + 2r) u_i - r (u_{i-1} + u_{i+1}) = rhs_i, made
        # symmetric positive definite so that LDLᵀ factors it: Neumann end
        # rows couple by -2r to their neighbour and are halved, exactly in
        # binary, to diagonal 0.5 + r and off-diagonal -r; Dirichlet end
        # rows are the identity, and their -r couplings into rows 1 and
        # n - 2 move to the right-hand side (`_symmetric_rhs`)
        r = self.dt / self.dx**2
        n = self.config.nx
        diag = np.full(n, 1.0 + 2.0 * r)
        off = np.full(n - 1, -r)
        if self.config.boundary == "neumann":
            diag[0] = diag[-1] = 0.5 + r
        else:
            diag[0] = diag[-1] = 1.0
            off[0] = off[-1] = 0.0
        self._r = r
        self._factors = kernels.factor_tridiagonal(diag, off)

    def _symmetric_rhs(self, rhs: np.ndarray) -> np.ndarray:
        """The backward-Euler right-hand side, boundary rows included, mapped
        in place to that of the symmetric system `_setup_matrix` factors."""
        if self.config.boundary == "neumann":
            rhs[0] *= 0.5
            rhs[-1] *= 0.5
        else:
            rhs[1] += self._r * rhs[0]
            rhs[-2] += self._r * rhs[-1]
        return rhs

    def history_values(self, td: np.ndarray) -> np.ndarray:
        """Delayed values per grid point at times td >= t - max_lag - dt."""
        return self.buffer.lookup_pointwise(td)

    def _post_step(self) -> tuple:
        """Finish the step on the new `u`; its largest and smallest value."""
        return float(self.u.max()), float(self.u.min())

    def step(self):
        rhs = self.reaction()
        rhs *= self.dt
        rhs += self.u
        if self.config.boundary == "dirichlet":
            rhs[0], rhs[-1] = self.config.dirichlet
        # rhs is a fresh array: the solve overwrites it and returns it
        self.u = kernels.solve_tridiagonal(*self._factors, self._symmetric_rhs(rhs))
        self.t += self.dt
        # one max/min pair gives sup|u| and both band excesses exactly:
        # rounding is monotone, so max(u - level) == max(u) - level
        hi, lo = self._post_step()
        sup = max(hi, -lo)
        if not sup <= 10.0 * self.level:
            raise NonconvergenceError(
                f"instability detected at t={self.t:.6g}: sup|u|={sup:.3g} "
                f"exceeds 10x level {self.level:.3g}")
        self.band_violation = max(self.band_violation, hi - self.level, -lo)
        self.buffer.evict(self.t + self.dt)
        self.buffer.append(self.t, self.u)

    def run(self) -> RunRecord:
        cfg = self.config
        n_steps = int(round(cfg.t_end / self.dt))
        pending = {min(int(round(float(t) / self.dt)), n_steps)
                   for t in cfg.snapshot_times}
        times, snaps = [], []
        track_t, track_x = [], []
        front_level = cfg.front_level if cfg.front_level is not None else self.level / 2.0

        def record(step_no):
            if step_no in pending:
                times.append(self.t)
                snaps.append(self.u.copy())
            pos = front_position(self.x, self.u, front_level)
            if pos is not None:
                track_t.append(self.t)
                track_x.append(pos)

        record(0)
        for k in range(1, n_steps + 1):
            self.step()
            record(k)
        track = FrontTrack(times=np.asarray(track_t), positions=np.asarray(track_x))
        return RunRecord(x=self.x, times=times, snapshots=snaps, track=track,
                         level=self.level, dt=self.dt,
                         warnings={"history_clamped": self.buffer.clamp_warnings,
                                   "band_violation": self.band_violation},
                         kind=self.kind)


class DelaySim(_BaseSim):
    """State-dependent-delay dynamics for a model specification."""

    kind = "delay"

    def __init__(self, model: ModelSpec, config: SimConfig):
        self.model = model
        peak = birth_peak(model)
        scale = max(model.d, model.birth.derivative_at_zero)
        super().__init__(config, m_lag=model.delay.m, max_lag=model.delay.M,
                         reaction_scale=scale)
        self.level = max(peak / model.d, peak, float(np.max(self.u)))

    def reaction(self) -> np.ndarray:
        # the lag, like the birth, is read on u >= 0, where A1-A3 define it
        td = self.t - self.model.delay.tau(np.maximum(self.u, 0.0))
        np.maximum(td, self.t - self.max_lag - self.dt, out=td)
        delayed = self.history_values(td)
        return -self.model.d * self.u + self.model.birth.value(np.maximum(delayed, 0.0))


class ComparisonSim(_BaseSim):
    """Fixed-delay quadratic comparison dynamics inside its invariant band."""

    kind = "comparison"

    def __init__(self, params: ComparisonParams, config: SimConfig):
        self.params = params
        scale = params.D1 + params.D2 + 2.0 * params.D3 * params.plateau
        super().__init__(config, m_lag=params.m, max_lag=params.m,
                         reaction_scale=scale)
        self.level = params.plateau
        # the history translates this datum, so it lies in the band too
        if np.any(self.u < -1e-12) or np.any(self.u > params.plateau + 1e-12):
            raise ModelInvalidError("comparison initial datum outside the invariant band")

    def reaction(self) -> np.ndarray:
        p = self.params
        delayed = self.u if p.m == 0.0 else self.buffer.lookup_uniform(self.t - p.m)
        return -p.D1 * self.u + p.D2 * delayed - p.D3 * self.u * self.u

    def _post_step(self) -> tuple:
        plateau = self.params.plateau
        hi, lo = float(self.u.max()), float(self.u.min())
        over, under = hi - plateau, -lo
        if max(over, under) > COMPARISON_BAND_TOL:
            raise NonconvergenceError(
                f"comparison band violated by {max(over, under):.3e} at t={self.t:.6g}")
        np.minimum(plateau, self.u, out=self.u)
        np.maximum(0.0, self.u, out=self.u)
        # the clamp is monotone, so it maps the extremes to the clamped u's
        # without a second pass; a NaN stays NaN, since min and max keep
        # their first argument when a comparison with NaN fails
        return max(min(hi, plateau), 0.0), max(min(lo, plateau), 0.0)


def run(config: SimConfig, model: ModelSpec) -> RunRecord:
    """Execute a state-dependent-delay run; deterministic for a fixed config."""
    return DelaySim(model, config).run()


def simulate_comparison(params: ComparisonParams, config: SimConfig) -> RunRecord:
    """Run the fixed-delay comparison system from the config's initial datum
    and history."""
    return ComparisonSim(params, config).run()


# ---------------------------------------------------------------------------
# front measurements

def front_position(x: np.ndarray, u: np.ndarray, level: float) -> Optional[float]:
    """Rightmost crossing of the level by u over the nodes x, linearly
    interpolated; None if absent."""
    n = u.shape[0]
    if n >= 2 and 1e-100 <= abs(level) < math.inf:
        # the last point k at or above the level: when a point below the
        # level follows it, no later pair of points can straddle the level
        # (both sit below it, and at this |level| their product of
        # differences cannot underflow to 0), so the crossing is at k; k
        # the last point, or a NaN after it, falls through to the scan
        reach = u >= level
        k = n - 1 - int(np.argmax(reach[::-1]))
        if not reach[k]:
            return None
        if k < n - 1 and u[k + 1] < level:
            return _crossing(x, u, level, k)
    s = u - level
    with np.errstate(over="ignore"):         # an overflow keeps its sign as inf
        sign_change = np.nonzero(s[:-1] * s[1:] <= 0)[0]
    sign_change = sign_change[(s[sign_change] != 0) | (s[sign_change + 1] != 0)]
    if sign_change.size == 0:
        return None
    return _crossing(x, u, level, int(sign_change[-1]))


def _crossing(x: np.ndarray, u: np.ndarray, level: float, i: int) -> float:
    """Linear interpolation of the level crossing between points i and i+1."""
    x0, x1 = x[i], x[i + 1]
    u0, u1 = u[i], u[i + 1]
    if u1 == u0:
        return float(x0)
    return float(x0 + (x1 - x0) * (level - u0) / (u1 - u0))


def front_speed(track: FrontTrack, window_fraction: float = 0.5) -> tuple:
    """Least-squares front speed over the trailing window; (speed, stderr)."""
    n = track.times.shape[0]
    keep = max(int(math.ceil(n * window_fraction)), 0)
    if keep < 10:
        raise ConfigError("front speed fit needs at least 10 samples in the window")
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
    """Extrema of u over the cone |x| < c_probe * t across late snapshots;
    a speed c_probe <= 0 leaves every cone empty."""
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
        raise ConfigError("spreading cone empty at every sampled time")
    return lo, hi
