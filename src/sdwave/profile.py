"""Wave profile solver: integral-operator fixed-point iteration in a sandwich.

The second-order wave equation is recast through the two-sided exponential
resolvent kernel; its fixed points are wave profiles.  Iteration starts from
the closed-form upper profile, clamps each iterate into the (phase-shifted)
sandwich, and re-anchors the phase by whole grid cells so the translation
mode cannot drift.  Convergence is certified a posteriori by an independent
finite-difference residual, never by the iteration metric alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import _kernels as kernels
from .bounds import UpperSolution, build_envelopes, build_lower, build_upper
from .dispersion import (CharacteristicContext, KernelRates, SpeedResult,
                         choose_beta, critical_speed, decay_roots, kernel_rates)
from .errors import ModelInvalidError, NonconvergenceError, NoRootsError
from .model import (HypothesisReport, ModelSpec, equilibrium, sup_delay_slope,
                    validate_hypotheses)

NEAR_CRITICAL_OFFSET = 1e-6
BOUNDARY_FRACTION = 1e-3     # required decay of the profile at the grid ends
ANCHOR_DEAD_ZONE = 0.75      # cells; hysteresis against one-cell flapping
MODES = ("auto", "monotone", "nonmonotone")


@dataclass
class ProfileGrid:
    """Uniform-grid profile with constant extensions beyond both ends."""

    xi: np.ndarray
    values: np.ndarray
    left_limit: float
    right_limit: float

    @property
    def h(self) -> float:
        return float(self.xi[1] - self.xi[0])

    @property
    def n(self) -> int:
        return int(self.xi.shape[0])

    def interp(self, x):
        return np.interp(x, self.xi, self.values,
                         left=self.left_limit, right=self.right_limit)


@dataclass
class SolverConfig:
    c: Optional[float] = None
    tol: float = 1e-8
    max_iters: int = 10_000
    damping: float = 1.0
    phase_level: Optional[float] = None
    mode: str = "auto"                # one of MODES; auto picks by the hypotheses
    h: Optional[float] = None
    left_width: Optional[float] = None
    right_width: Optional[float] = None
    beta: Optional[float] = None
    initial_shift: float = 0.0

    def __post_init__(self):
        if self.tol <= 0:
            raise ModelInvalidError("tol must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ModelInvalidError("damping must lie in (0, 1]")
        if self.mode not in MODES:
            raise ModelInvalidError(
                f"mode must be one of {', '.join(MODES)}, not {self.mode!r}")


@dataclass
class MembershipReport:
    sandwich_ok: bool
    monotone_ok: bool
    lipschitz_ok: bool
    margins: dict
    shift: float

    @property
    def member(self) -> bool:
        return self.sandwich_ok and self.monotone_ok and self.lipschitz_ok


@dataclass
class WaveSolution:
    profile: ProfileGrid
    c: float
    residual_sup: float
    iterations: int
    trace: list
    sandwich_ok: bool
    lipschitz_ok: bool
    monotone_ok: bool
    beta: float
    lambda1: float
    lambda2: float
    shift: float
    clamp_excess: float
    f_consistency: float
    membership: MembershipReport
    mode: str                         # the solver that ran: monotone or nonmonotone
    exact_anchor_from: Optional[int] = None   # first exactly anchored iteration
    note: str = ""


# ---------------------------------------------------------------------------
# operators

def apply_H(phi: ProfileGrid, model: ModelSpec, c: float, beta: float) -> np.ndarray:
    """Pointwise reaction part: beta*phi - d*phi + b(phi at the lagged argument).

    The lagged argument is evaluated by linear interpolation (shape
    preserving, which the comparison structure requires) with the constant
    extensions beyond the grid.
    """
    lag = c * model.delay.tau(phi.values)
    delayed = phi.interp(phi.xi - lag)
    return (beta - model.d) * phi.values + model.birth.value(delayed)


def apply_F(phi: ProfileGrid, model: ModelSpec, rates: KernelRates) -> np.ndarray:
    """Resolvent-kernel smoothing of H with analytic tails.

    Constants are exact fixed points of the discrete scheme: the per-cell
    quadrature integrates the linear interpolant of H exactly against the
    exponential kernels and the tails use the constant extensions.
    """
    H = apply_H(phi, model, rates.c, rates.beta)
    hl = (rates.beta - model.d) * phi.left_limit + model.birth.value(phi.left_limit)
    hr = (rates.beta - model.d) * phi.right_limit + model.birth.value(phi.right_limit)
    return kernels.exp_conv_pair(H, phi.h, rates.gamma1, rates.gamma2, hl, hr)


def residual(phi: ProfileGrid, c: float, model: ModelSpec):
    """Wave-equation residual by central differences, two-cell margin.

    Independent of the fixed-point machinery; this is the a-posteriori
    certificate for a converged profile.
    """
    v, h, xi = phi.values, phi.h, phi.xi
    d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    d1 = (v[2:] - v[:-2]) / (2.0 * h)
    lag = c * model.delay.tau(v[1:-1])
    delayed = phi.interp(xi[1:-1] - lag)
    r = d2 - c * d1 - model.d * v[1:-1] + model.birth.value(delayed)
    r = r[1:-1]  # two-cell margin
    return float(np.max(np.abs(r))), r


def gamma_membership(phi: ProfileGrid, c: float, beta: float, model: ModelSpec,
                     shift: Optional[float] = None,
                     level: Optional[float] = None,
                     require_monotone: bool = True,
                     lower=None, upper=None,
                     sandwich_tol: float = 1e-8) -> MembershipReport:
    """Check the solution-set conditions: sandwich, monotonicity, Lipschitz bound.

    The closed-form bounds are compared at the phase-shifted abscissae; when
    no shift is given it is estimated from the leading-edge amplitude.
    """
    if level is None:
        level = equilibrium(model)
    if upper is None:
        upper = build_upper(c, model, level=level)
    if lower is None:
        lower = build_lower(c, model)
    lam1 = upper.lam1
    if shift is None:
        shift = _leading_edge_shift(phi, lam1, level)
    hi = upper.value(phi.xi + shift)
    lo = lower.value(phi.xi + shift)
    over = float(np.max(phi.values - hi))
    under = float(np.max(lo - phi.values))
    sandwich_ok = max(over, under) <= sandwich_tol
    mono_margin = float(np.min(np.diff(phi.values)))
    monotone_ok = (not require_monotone) or mono_margin >= -1e-12
    T = sup_delay_slope(model, level)
    A = 1.0 + model.birth.derivative_at_zero * level * T
    lip_bound = beta * level / (A * c)
    steep = float(np.max(np.abs(np.diff(phi.values)))) / phi.h
    lipschitz_ok = steep <= lip_bound * (1.0 + 1e-9) + 1e-12
    return MembershipReport(
        sandwich_ok=sandwich_ok, monotone_ok=monotone_ok, lipschitz_ok=lipschitz_ok,
        margins={"sandwich_over": over, "sandwich_under": under,
                 "monotone_min_step": mono_margin,
                 "lipschitz_ratio": steep / lip_bound},
        shift=float(shift))


def _leading_edge_shift(phi: ProfileGrid, lam1: float, level: float) -> float:
    v, xi = phi.values, phi.xi
    mask = (v > 1e-6 * level) & (v < 1e-2 * level)
    if np.count_nonzero(mask) < 3:
        return 0.0
    return float(np.mean(np.log(v[mask]) - lam1 * xi[mask]) / lam1)


# ---------------------------------------------------------------------------
# grid geometry

def _approach_rate(model: ModelSpec, c: float, state: float) -> float:
    """Decay rate of perturbations of the constant state at the right end."""
    slope = model.birth.derivative(state)
    lag = c * model.delay.tau(state)
    fallback = 0.5 * (math.sqrt(c * c + 4.0 * model.d) - c)
    if slope >= model.d:
        return fallback

    def g(mu):
        return mu * mu - c * mu - model.d + slope * math.exp(-mu * lag)

    hi = 0.0
    lo = None
    step = 0.25
    for k in range(1, 81):
        mu = -step * k
        if g(mu) > 0.0:
            lo = mu
            break
        hi = mu
    if lo is None:
        return fallback
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return abs(0.5 * (lo + hi))


def _grid_geometry(config: SolverConfig, lam1: float, lam2: float,
                   rate: float) -> tuple:
    h = config.h if config.h is not None else 0.01 * min(1.0, 1.0 / lam2)
    gap = lam2 - lam1
    if config.left_width is not None:
        left = config.left_width
    else:
        left = max(40.0 / lam1, 40.0 / gap, 20.0)
        left = min(left, max(160.0 / lam1, 120.0))  # near-critical cap
    if config.right_width is not None:
        right = config.right_width
    else:
        right = min(max(40.0 / rate, 20.0), 400.0)
    return float(h), float(left), float(right)


def _make_xi(h: float, left: float, right: float) -> np.ndarray:
    n = int(round((left + right) / h)) + 1
    return -left + h * np.arange(n)


# ---------------------------------------------------------------------------
# the iteration engine

@dataclass
class _IterationResult:
    values: np.ndarray
    xi: np.ndarray
    shift: float
    iterations: int
    trace: list = field(default_factory=list)
    clamp_excess: float = 0.0
    exact_anchor_from: Optional[int] = None   # first exactly anchored iteration


def _project_monotone(v: np.ndarray) -> None:
    """In place running maximum of v, bitwise equal to np.maximum.accumulate.

    Only the part from the first descent on is rewritten: the prefix before
    it is nondecreasing, so the running maximum leaves it (and its last
    value, which starts the tail) unchanged.  A NaN fails the test and so
    takes the accumulate path.
    """
    rising = v[1:] >= v[:-1]
    i = int(rising.argmin())
    if not rising[i]:
        np.maximum.accumulate(v[i:], out=v[i:])


def _clamp(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """In place np.clip(v, lo, hi) for bound arrays, without its Python wrapper."""
    np.maximum(v, lo, out=v)
    np.minimum(v, hi, out=v)


def _translate_subcell(v: np.ndarray, xa: float, h: float,
                       work: np.ndarray) -> None:
    """In place v + xa * np.gradient(v, h), with numpy's uniform first-order
    formula; `work` is a scratch array of v's shape."""
    np.subtract(v[2:], v[:-2], out=work[1:-1])
    work[1:-1] /= 2.0 * h
    work[0] = (v[1] - v[0]) / h
    work[-1] = (v[-1] - v[-2]) / h
    np.multiply(xa, work, out=work)
    np.add(v, work, out=v)       # operand order kept: it decides NaN signs


def _shift_cells(v: np.ndarray, cells: int, left_fill: float, right_fill: float):
    out = np.empty_like(v)
    if cells > 0:
        out[:-cells] = v[cells:]
        out[-cells:] = right_fill
    elif cells < 0:
        out[-cells:] = v[:cells]
        out[:-cells] = left_fill
    else:
        out[:] = v
    return out


def _anchor_crossing(xi: np.ndarray, v: np.ndarray, a: float) -> Optional[float]:
    """Leftmost upcrossing of level a, linearly interpolated."""
    above = v >= a
    if not above.any() or above[0]:
        return None
    j = int(np.argmax(above))
    v0, v1 = v[j - 1], v[j]
    if v1 == v0:
        return float(xi[j])
    return float(xi[j - 1] + (xi[j] - xi[j - 1]) * (a - v0) / (v1 - v0))


def _iterate(xi, model, rates, upper_fn, lower_fn, anchor_level, right_state,
             config: SolverConfig, enforce_monotone: bool,
             dynamic_right_limit: bool) -> _IterationResult:
    h = float(xi[1] - xi[0])
    shift = 0.0
    lo = lower_fn(xi + shift)
    hi = upper_fn(xi + shift)
    v = upper_fn(xi + config.initial_shift)
    scratch = np.empty_like(v)    # work array for reductions and the sub-cell shift
    trace = []
    clamp_excess = 0.0
    omega = config.damping
    anchored = True
    # set when the translation mode stalls the iteration: the first iteration
    # that anchors the phase exactly instead of by whole cells
    exact_from = None
    for it in range(1, config.max_iters + 1):
        right_limit = float(v[-1]) if dynamic_right_limit else right_state
        phi = ProfileGrid(xi=xi, values=v, left_limit=0.0, right_limit=right_limit)
        new = apply_F(phi, model, rates)
        if omega != 1.0:          # (1 - omega) v + omega F(v), in F(v)'s buffer
            kept = (1.0 - omega) * v
            np.add(kept, np.multiply(omega, new, out=new), out=new)
        excess = max(float(np.subtract(new, hi, out=scratch).max()),
                     float(np.subtract(lo, new, out=scratch).max()), 0.0)
        clamp_excess = max(clamp_excess, excess)
        _clamp(new, lo, hi)
        if enforce_monotone:
            _project_monotone(new)
        xa = _anchor_crossing(xi, new, anchor_level)
        if xa is None:
            anchored = False
        else:
            anchored = True
            right_fill = float(new[-1]) if dynamic_right_limit else right_state
            if exact_from is not None:
                cells = int(round(xa / h))
                if cells != 0:
                    new = _shift_cells(new, cells, 0.0, right_fill)
                    shift += cells * h
                    xa -= cells * h
                if abs(xa) > 1e-15:
                    # smooth sub-cell correction: first-order translation;
                    # resampling here would make the phase map nonsmooth and
                    # sustain a cell-boundary limit cycle
                    _translate_subcell(new, xa, h, scratch)
                    shift += xa
                at = xi + shift
                lo = lower_fn(at)
                hi = upper_fn(at)
                _clamp(new, lo, hi)
                if enforce_monotone:
                    _project_monotone(new)
            else:
                cells = int(round(xa / h)) if abs(xa) > ANCHOR_DEAD_ZONE * h else 0
                if cells != 0:
                    new = _shift_cells(new, cells, 0.0, right_fill)
                    shift += cells * h
                    lo = lower_fn(xi + shift)
                    hi = upper_fn(xi + shift)
        np.subtract(new, v, out=scratch)
        diff = float(np.abs(scratch, out=scratch).max())
        trace.append(diff)
        if not math.isfinite(diff):
            raise NonconvergenceError(
                f"non-finite iterate at iteration {it} "
                f"(sup-difference {diff:.3e})", trace=trace)
        prev = v
        v = new
        if diff <= config.tol and anchored:
            return _IterationResult(values=v, xi=xi, shift=shift, iterations=it,
                                    trace=trace, clamp_excess=clamp_excess,
                                    exact_anchor_from=exact_from)
        # near the threshold speed the phase mode is almost neutral and the
        # integer-cell anchor cannot damp it; plateau triggers exact anchoring
        if (exact_from is None and it >= 150 and diff < 1e-3
                and trace[-1] > 0.5 * trace[-51]):
            exact_from = it + 1
        # in the slow regime of the order-preserving iteration the error is
        # dominated by one geometric mode: extrapolate it away now and then.
        # Only there: its linearisation is a positive operator, so that mode
        # is real (Krein-Rutman) and the ratio r below estimates it.  The
        # damped nonmonotone iteration has no such guarantee, and there the
        # jump costs iterations.  Gate on a strictly decreasing window so
        # noise near the floor cannot be amplified; the clamp keeps the step
        # safe either way.
        if (enforce_monotone and exact_from is not None and it % 25 == 0
                and len(trace) >= 26 and diff > config.tol):
            window = np.asarray(trace[-26:])
            if np.all(np.diff(window) < 0.0) and window[0] > 0.0:
                r = (window[-1] / window[0]) ** (1.0 / 25.0)
                if 0.85 < r < 0.9999:
                    factor = min(r / (1.0 - r), 50.0)
                    v = v + factor * (v - prev)
                    _clamp(v, lo, hi)
                    _project_monotone(v)
    raise NonconvergenceError(
        f"no convergence after {config.max_iters} iterations "
        f"(last sup-difference {trace[-1]:.3e})", trace=trace)


def _finalize(res: _IterationResult, model: ModelSpec, rates: KernelRates,
              c: float, lam1: float, lam2: float, anchor_level: float,
              level: float, right_state: float, upper, lower,
              require_monotone: bool, note: str = "") -> WaveSolution:
    xi, v = res.xi, res.values
    xa = _anchor_crossing(xi, v, anchor_level)
    total_shift = res.shift
    if xa is not None:
        xi = xi - xa                      # relabel: anchor sits exactly at 0
        total_shift += xa
    if res.exact_anchor_from is not None:
        note = (note + "; " if note else "") + "exact phase anchoring engaged"
    right_limit = right_state
    phi = ProfileGrid(xi=xi, values=v, left_limit=0.0, right_limit=right_limit)
    res_sup, _ = residual(phi, c, model)
    f_cons = float(np.max(np.abs(apply_F(phi, model, rates) - v)))
    mem = gamma_membership(phi, c, rates.beta, model, shift=total_shift,
                           level=level, require_monotone=require_monotone,
                           lower=lower, upper=upper)
    return WaveSolution(
        profile=phi, c=c, residual_sup=res_sup, iterations=res.iterations,
        trace=res.trace, sandwich_ok=mem.sandwich_ok,
        lipschitz_ok=mem.lipschitz_ok, monotone_ok=mem.monotone_ok,
        beta=rates.beta, lambda1=lam1, lambda2=lam2, shift=total_shift,
        clamp_excess=res.clamp_excess, f_consistency=f_cons, membership=mem,
        mode="monotone" if require_monotone else "nonmonotone",
        exact_anchor_from=res.exact_anchor_from, note=note)


# ---------------------------------------------------------------------------
# public solvers

def _require_supercritical(c: float, ctx: CharacteristicContext,
                           speed: Optional[SpeedResult]) -> SpeedResult:
    """The threshold speed of ctx (computed unless given); rejects c <= c*."""
    if speed is None:
        speed = critical_speed(ctx)
    if c <= speed.c_star:
        raise NoRootsError(
            f"speed {c:.9g} is at or below the threshold {speed.c_star:.9g}: no "
            "profile exists; use the simulator's nonexistence probe instead")
    return speed


def solve_monotone(model: ModelSpec, c: float, config: Optional[SolverConfig] = None,
                   note: str = "", speed: Optional[SpeedResult] = None,
                   hypotheses: Optional[HypothesisReport] = None) -> WaveSolution:
    """Monotone wavefront for a supercritical speed; order-preserving iteration.

    `speed` is the model's threshold speed and `hypotheses` its monotone
    hypothesis report, if the caller already has them.
    """
    config = config or SolverConfig()
    rep = hypotheses or validate_hypotheses(model, "monotone")
    if not rep.all_hold:
        failed = [e.id for e in rep.entries if not e.holds]
        raise ModelInvalidError(
            f"monotone solve requires the monotone hypothesis set; failed: {failed}")
    ctx = CharacteristicContext.from_model(model)
    speed = _require_supercritical(c, ctx, speed)
    roots = decay_roots(c, ctx)
    K = equilibrium(model)
    rates = (choose_beta(c, model, range_end=K, ctx=ctx, speed=speed)
             if config.beta is None else kernel_rates(c, config.beta))
    upper = build_upper(c, model, level=K)
    lower = build_lower(c, model)
    anchor = config.phase_level if config.phase_level is not None else K / 2.0
    rate = _approach_rate(model, c, K)
    h, left, right = _grid_geometry(config, roots.lambda1, roots.lambda2, rate)
    for attempt in range(3):
        xi = _make_xi(h, left, right)
        res = _iterate(xi, model, rates, upper.value, lower.value, anchor, K,
                       config, enforce_monotone=True, dynamic_right_limit=False)
        v = res.values
        left_ok = abs(v[0]) <= BOUNDARY_FRACTION * K
        right_ok = abs(v[-1] - K) <= BOUNDARY_FRACTION * K
        if left_ok and right_ok:
            break
        if not left_ok:
            left *= 2.0
        if not right_ok:
            right *= 2.0
        note = (note + " " if note else "") + "domain doubled after boundary check"
    return _finalize(res, model, rates, c, roots.lambda1, roots.lambda2,
                     anchor, K, K, upper, lower, require_monotone=True, note=note)


def solve_nonmonotone(model: ModelSpec, c: float,
                      config: Optional[SolverConfig] = None, note: str = "",
                      speed: Optional[SpeedResult] = None) -> WaveSolution:
    """Positive wave profile for nonmonotone birth via the envelope sandwich.

    The lower bound is the computed wavefront of the lower-envelope equation,
    translated so its leading edge matches the unit-amplitude exponential;
    the upper bound caps the same exponential at the upper-envelope
    equilibrium.  Damped iteration with clamping; convergence is certified by
    the residual (the operator is not order preserving here).  `speed` is the
    model's threshold speed, if the caller already has it.
    """
    config = config or SolverConfig(damping=0.5, mode="nonmonotone")
    rep = validate_hypotheses(model, "nonmonotone")
    if not rep.all_hold:
        failed = [e.id for e in rep.entries if not e.holds]
        raise ModelInvalidError(
            f"nonmonotone solve requires the relaxed hypothesis set; failed: {failed}")
    ctx = CharacteristicContext.from_model(model)
    speed = _require_supercritical(c, ctx, speed)
    roots = decay_roots(c, ctx)
    K = equilibrium(model)
    pair = build_envelopes(model)
    level, k = pair.level, pair.k

    aux_model = pair.lower_model(model)
    aux_cfg = SolverConfig(tol=config.tol, max_iters=config.max_iters,
                           h=config.h, left_width=config.left_width,
                           right_width=config.right_width)
    same_ctx = CharacteristicContext.from_model(aux_model) == ctx
    aux = solve_monotone(aux_model, c, aux_cfg, note="lower-envelope wavefront",
                         speed=speed if same_ctx else None)
    lower_fn = _normalized_front(aux, roots.lambda1, k)

    upper = UpperSolution(lam1=roots.lambda1, level=level)
    rates = (choose_beta(c, model, range_end=level, ctx=ctx, speed=speed)
             if config.beta is None else kernel_rates(c, config.beta))
    anchor = config.phase_level if config.phase_level is not None else k / 4.0
    rate = _approach_rate(aux_model, c, k)
    h, left, right = _grid_geometry(config, roots.lambda1, roots.lambda2, rate)
    xi = _make_xi(h, left, right)
    res = _iterate(xi, model, rates, upper.value, lower_fn, anchor, K,
                   config, enforce_monotone=False, dynamic_right_limit=True)
    note = (note + "; " if note else "") + "sandwiched between birth-envelope fronts"
    return _finalize(res, model, rates, c, roots.lambda1, roots.lambda2,
                     anchor, level, K, upper,
                     _CallableBound(lower_fn), require_monotone=False, note=note)


class _CallableBound:
    """Adapter so a plain callable can stand in for a closed-form bound."""

    def __init__(self, fn):
        self.value = fn


def _normalized_front(aux: WaveSolution, lam1: float, k: float):
    """Translate a computed front back to its unit-amplitude canonical frame.

    In the frame recorded by the auxiliary solve's anchor shift the clamp
    already guarantees the front sits below exp(lam1 * xi) capped at its own
    plateau, so the translated front is an admissible lower bound without any
    amplitude fitting.  A corrective shift absorbs tiny leading-edge rate
    mismatch when the envelope is tabulated rather than closed form.
    """
    prof = aux.profile
    v, xi = prof.values, prof.xi
    base = aux.shift
    pos = (v > 0.0) & (v < 0.5 * k)
    if np.count_nonzero(pos) >= 3:
        overshoot = float(np.max(np.log(v[pos]) - lam1 * (xi[pos] + base)))
        if overshoot > 0.0:
            base += overshoot / lam1 * (1.0 + 1e-12)

    def fn(x):
        return np.interp(np.asarray(x, dtype=float) - base, xi, v,
                         left=0.0, right=float(v[-1]))

    return fn


def solve_critical(model: ModelSpec, config: Optional[SolverConfig] = None,
                   speed: Optional[SpeedResult] = None) -> WaveSolution:
    """Near-critical solve at c = c* (1 + 1e-6): surrogate for the limit front.

    The leading-edge decay degenerates at the threshold, so the left half of
    the grid is doubled and the tolerance tightened.  Requested speeds below
    the surrogate speed are rejected.  The solver is chosen as in `solve`.
    `speed` is the model's threshold speed, if the caller already has it.
    """
    config = config or SolverConfig()
    ctx = CharacteristicContext.from_model(model)
    sr = speed if speed is not None else critical_speed(ctx)
    c = sr.c_star * (1.0 + NEAR_CRITICAL_OFFSET)
    if config.c is not None:
        if config.c < c:
            raise NoRootsError(
                f"requested speed {config.c:.9g} is below the near-critical "
                f"surrogate {c:.9g}")
        c = config.c
    roots = decay_roots(c, ctx)
    rate = _approach_rate(model, c, equilibrium(model))
    h, left, right = _grid_geometry(config, roots.lambda1, roots.lambda2, rate)
    cfg = replace(config, c=c, tol=min(config.tol, 1e-8),
                  max_iters=2 * config.max_iters, left_width=2.0 * left,
                  right_width=right)
    note = f"near-critical surrogate at c = c*(1+{NEAR_CRITICAL_OFFSET:g})"
    return _dispatch(model, c, cfg, sr, note=note)


def _dispatch(model: ModelSpec, c: float, config: SolverConfig,
              speed: Optional[SpeedResult], note: str = "") -> WaveSolution:
    """Run the solver config.mode names; "auto" picks it by the hypotheses.

    Auto picks monotone when the monotone hypothesis set holds, else
    nonmonotone with damping 0.5 unless a damping was set.
    """
    auto = config.mode == "auto"
    rep = validate_hypotheses(model, "monotone") if auto else None
    if config.mode == "monotone" or auto and rep.all_hold:
        return solve_monotone(model, c, config, note=note, speed=speed,
                              hypotheses=rep)
    if auto and config.damping == 1.0:
        config = replace(config, damping=0.5)
    return solve_nonmonotone(model, c, config, note=note, speed=speed)


def solve(model: ModelSpec, c: float, config: Optional[SolverConfig] = None,
          speed: Optional[SpeedResult] = None) -> WaveSolution:
    """Solve with the configured mode; "auto" picks it by the model's hypotheses.

    `speed` is the model's threshold speed, if the caller already has it.
    """
    return _dispatch(model, c, config or SolverConfig(), speed)
