"""Wave profile solver: integral-operator fixed-point iteration in a sandwich.

The second-order wave equation is recast through the two-sided exponential
resolvent kernel; its fixed points are wave profiles.  One solve serves
monotone and nonmonotone birth functions alike, in one closed-form
sandwich: the bounds of the birth-envelope equations, which for a monotone
birth are its own.  `solve` checks the model's hypotheses once: B1-B4 pick
the monotone solver, else C1-C3 must hold, and a failure of A1-A3 or B,
which both need, is reported as such.  Iteration starts from the upper
profile, clamps each iterate into the (phase-shifted) sandwich, and
re-anchors the phase by whole grid cells so the translation mode cannot
drift.  While the phase is anchored by whole cells, the undamped iteration
is accelerated by Anderson mixing, whose iterates are clamped into the same
sandwich.  Convergence is certified a posteriori by an independent
finite-difference residual, never by the iteration metric alone.  The
near-critical regime is a property of the speed: `solve` tightens the
iteration, on the usual grid, for any speed in (c*, c*(1 + 1e-6)].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import _kernels as kernels
from .bounds import sandwich
from .dispersion import (CharacteristicContext, KernelRates, SpeedResult,
                         choose_beta, critical_speed, decay_roots)
from .errors import ConfigError, ModelInvalidError, NonconvergenceError, NoRootsError
from .model import (MONOTONE_SET, RELAXED_SET, SHARED_SET, HypothesisReport,
                    ModelSpec, _bisect_root, equilibrium, lag_factor,
                    validate_hypotheses)

NEAR_CRITICAL_OFFSET = 1e-6
BOUNDARY_FRACTION = 1e-3     # required decay of the profile at the grid ends
ANCHOR_DEAD_ZONE = 0.75      # cells; hysteresis against one-cell flapping
ANDERSON_DEPTH = 5           # mixed differences kept in the whole-cell phase
MAX_GRID_POINTS = 10**6      # the most points a config may ask of any grid


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

    def interp(self, x):
        return np.interp(x, self.xi, self.values,
                         left=self.left_limit, right=self.right_limit)


@dataclass
class SolverConfig:
    tol: float = 1e-8
    max_iters: int = 10_000
    damping: float = 1.0
    h: Optional[float] = None

    def __post_init__(self):
        if self.tol <= 0:
            raise ModelInvalidError("tol must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ModelInvalidError("damping must lie in (0, 1]")
        if self.max_iters < 1:
            raise ModelInvalidError("max_iters must be at least 1")


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
    beta: float
    lambda1: float
    lambda2: float
    shift: float
    clamp_excess: float
    f_consistency: float
    membership: MembershipReport
    mode: str                         # the solver that ran: monotone or nonmonotone
    exact_anchor_from: Optional[int] = None   # first exactly anchored iteration
    anderson_steps: int = 0           # iterations that took a mixed step
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
                     shift: float, level: float, upper, lower,
                     require_monotone: bool,
                     sandwich_tol: float = 1e-8) -> MembershipReport:
    """Check the solution-set conditions: sandwich, monotonicity, Lipschitz bound.

    `upper` and `lower` are the sandwich's bounds, compared at the abscissae
    shifted by the solve's recorded phase shift; `level` is the plateau of
    the solution set, on which the Lipschitz bound depends.
    """
    hi = upper.value(phi.xi + shift)
    lo = lower.value(phi.xi + shift)
    over = float(np.max(phi.values - hi))
    under = float(np.max(lo - phi.values))
    sandwich_ok = max(over, under) <= sandwich_tol
    mono_margin = float(np.min(np.diff(phi.values)))
    monotone_ok = (not require_monotone) or mono_margin >= -1e-12
    lip_bound = beta * level / (lag_factor(model, level) * c)
    steep = float(np.max(np.abs(np.diff(phi.values)))) / phi.h
    lipschitz_ok = steep <= lip_bound * (1.0 + 1e-9) + 1e-12
    return MembershipReport(
        sandwich_ok=sandwich_ok, monotone_ok=monotone_ok, lipschitz_ok=lipschitz_ok,
        margins={"sandwich_over": over, "sandwich_under": under,
                 "monotone_min_step": mono_margin,
                 "lipschitz_ratio": steep / lip_bound},
        shift=float(shift))


# ---------------------------------------------------------------------------
# grid geometry

def _approach_rate(model: ModelSpec, c: float, state: float) -> float:
    """Decay rate of perturbations of the constant state at the right end.

    It is -mu for the negative root mu of
    g(mu) = mu^2 - c mu - d + s exp(-mu c tau(state)), s = b'(state).  At
    s = 0 that root is mu0 = (c - sqrt(c^2 + 4d)) / 2.  For s in (0, d),
    g(mu0) = s exp(-mu0 c tau(state)) > 0 > s - d = g(0), so the root lies
    in [mu0, 0]; any other s gives -mu0.  Every birth that reaches here (a
    monotone birth or a lower envelope) has s >= 0 by B3.
    """
    slope = model.birth.derivative(state)
    lag = c * model.delay.tau(state)
    mu0 = 0.5 * (c - math.sqrt(c * c + 4.0 * model.d))

    def g(mu):
        return mu * mu - c * mu - model.d + slope * math.exp(-mu * lag)

    # g(mu0) may round to <= 0 when s is tiny: the root is mu0 to rounding
    if not 0.0 < slope < model.d or g(mu0) <= 0.0:
        return -mu0
    return -_bisect_root(g, mu0, 0.0)


def _grid_geometry(h: Optional[float], lam1: float, lam2: float,
                   rate: float, monotone: bool) -> tuple:
    """(h, left, right) of the profile grid, its size checked: h as given or,
    when None, the default 0.01 min(1, 1/lam2); the widths from the decay
    rates at either end."""
    default = h is None
    h = 0.01 * min(1.0, 1.0 / lam2) if default else h
    gap = lam2 - lam1
    left = max(40.0 / lam1, 40.0 / gap, 20.0)
    left = min(left, max(160.0 / lam1, 120.0))  # near-critical cap
    # a monotone front approaches K as exp(-rate xi), so 20/rate leaves a
    # tail of exp(-20) K, below tol; a nonmonotone solve keeps 40/rate
    # until perfbench's band oracle, which reads the grid's right half,
    # reads a fixed xi window instead
    right = min(max((20.0 if monotone else 40.0) / rate, 20.0), 400.0)
    cells = (left + right) / h if h > 0.0 else -1.0
    if not 8 <= cells + 1 <= MAX_GRID_POINTS:      # checked before allocating
        size = (f"gives {cells + 1:.4g} grid points on widths {left:g}/{right:g}, "
                f"not 8 to {MAX_GRID_POINTS:,}")
        if default:
            raise ConfigError(f"the default [profile] h = 0.01 min(1, 1/lambda2) = "
                              f"{h:g} at lambda2 = {lam2:g} {size}; set [profile] h "
                              "to a coarser step")
        raise ConfigError(f"[profile] h = {h:g} {size}")
    return float(h), float(left), float(right)


def _make_xi(h: float, left: float, right: float) -> np.ndarray:
    return -left + h * np.arange(int(round((left + right) / h)) + 1)


# ---------------------------------------------------------------------------
# the iteration engine

@dataclass
class _IterationResult:
    values: np.ndarray
    shift: float
    right_limit: float            # the limit the iteration held the profile at
    iterations: int
    trace: list = field(default_factory=list)
    clamp_excess: float = 0.0
    exact_anchor_from: Optional[int] = None   # first exactly anchored iteration
    anderson_steps: int = 0


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


class _Anderson:
    """Type-II Anderson mixing of a fixed-point map G (Anderson, J. ACM 12
    (1965); Walker & Ni, SIAM J. Numer. Anal. 49 (2011)).

    Given the plain step g = G(v) and its residual f = g - v, the mixed
    iterate is g - dG gamma, where gamma minimises |f - dF gamma| over the
    last ANDERSON_DEPTH differences dF, dG of successive residuals and
    steps.  The differences live in two preallocated rings of ANDERSON_DEPTH
    rows and their Gram matrix is kept up to date one row at a time.  Every
    grid-length product is a ufunc into one work array: BLAS on grid-length
    vectors wakes OpenBLAS's other threads, which then spin.
    """

    def __init__(self, n: int):
        self.dF = np.empty((ANDERSON_DEPTH, n))
        self.dG = np.empty((ANDERSON_DEPTH, n))
        self.f_prev = np.empty(n)
        self.g_prev = np.empty(n)
        self.work = np.empty(n)
        self.gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))
        self.size = 0                 # differences held
        self.head = 0                 # ring slot the next difference takes
        self.has_base = False         # f_prev, g_prev hold the last pair

    def restart(self, f: np.ndarray, g: np.ndarray) -> None:
        """Forget the differences; (f, g) becomes the base of the next one."""
        self.size = self.head = 0
        np.copyto(self.f_prev, f)
        np.copyto(self.g_prev, g)
        self.has_base = True

    def _dot(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.multiply(a, b, out=self.work).sum())

    def mix(self, f: np.ndarray, g: np.ndarray) -> bool:
        """Record the plain step g and its residual f; overwrite g with the
        mixed iterate and return True, or leave g as it is and return False
        when there is no history yet or the least-squares solve is singular
        or not finite."""
        if self.has_base:
            s = self.head
            np.subtract(f, self.f_prev, out=self.dF[s])
            np.subtract(g, self.g_prev, out=self.dG[s])
            self.size = min(self.size + 1, ANDERSON_DEPTH)
            self.head = (s + 1) % ANDERSON_DEPTH
            for j in range(self.size):
                self.gram[s, j] = self.gram[j, s] = self._dot(self.dF[s], self.dF[j])
        np.copyto(self.f_prev, f)
        np.copyto(self.g_prev, g)
        self.has_base = True
        k = self.size
        if k == 0:
            return False
        rhs = np.array([self._dot(self.dF[j], f) for j in range(k)])
        try:
            gamma = np.linalg.solve(self.gram[:k, :k], rhs)
        except np.linalg.LinAlgError:
            return False
        if not np.isfinite(gamma).all():
            return False
        for j in range(k):
            np.subtract(g, np.multiply(gamma[j], self.dG[j], out=self.work), out=g)
        return True


def _iterate(xi, model, rates, upper_fn, lower_fn, anchor_level, right_state,
             config: SolverConfig, monotone: bool) -> _IterationResult:
    """The clamped, phase-anchored fixed-point iteration of F in the sandwich.

    A monotone iteration projects every iterate onto nondecreasing profiles,
    holds the right limit at right_state, and anchors the phase exactly
    once it stalls; a nonmonotone one takes the right limit from the
    iterate's last value and anchors by whole cells throughout.
    """
    h = float(xi[1] - xi[0])
    shift = 0.0
    lo = lower_fn(xi)
    hi = upper_fn(xi)
    v = hi.copy()
    scratch = np.empty_like(v)    # work array for reductions and the sub-cell shift
    trace = []
    clamp_excess = 0.0
    omega = config.damping
    anchored = True
    # set when the translation mode stalls a monotone iteration: the first
    # iteration that anchors the phase exactly instead of by whole cells
    exact_from = None

    def held_limit(w):
        # the right limit the iteration holds: right_state for a monotone
        # front, the iterate's last value for a nonmonotone one
        return right_state if monotone else float(w[-1])

    # Anderson mixing accelerates the whole-cell phase of the undamped step
    # only: a damped step would keep part of each mixed iterate's grid-scale
    # roughness, and in the exact phase mixing reaches the clamp stall
    # sooner but not a better point
    anderson = _Anderson(v.size) if omega == 1.0 else None
    residual_now = scratch if anderson is None else np.empty_like(v)
    anderson_steps = 0
    for it in range(1, config.max_iters + 1):
        phi = ProfileGrid(xi=xi, values=v, left_limit=0.0,
                          right_limit=held_limit(v))
        new = apply_F(phi, model, rates)
        if omega != 1.0:          # (1 - omega) v + omega F(v), in F(v)'s buffer
            kept = (1.0 - omega) * v
            np.add(kept, np.multiply(omega, new, out=new), out=new)
        excess = max(float(np.subtract(new, hi, out=scratch).max()),
                     float(np.subtract(lo, new, out=scratch).max()), 0.0)
        clamp_excess = max(clamp_excess, excess)
        _clamp(new, lo, hi)
        if monotone:
            _project_monotone(new)
        xa = _anchor_crossing(xi, new, anchor_level)
        anchored = xa is not None
        cells = 0
        if anchored:
            # whole cells outside the dead zone; once exact, every whole cell
            # and then the sub-cell rest
            exact = exact_from is not None
            right_fill = held_limit(new)
            if exact or abs(xa) > ANCHOR_DEAD_ZONE * h:
                cells = int(round(xa / h))
            if cells != 0:
                new = _shift_cells(new, cells, 0.0, right_fill)
                shift += cells * h
                xa -= cells * h
            if exact and abs(xa) > 1e-15:
                # smooth sub-cell correction: first-order translation;
                # resampling here would make the phase map nonsmooth and
                # sustain a cell-boundary limit cycle
                _translate_subcell(new, xa, h, scratch)
                shift += xa
            if exact or cells != 0:
                lo = lower_fn(xi + shift)
                hi = upper_fn(xi + shift)
            if exact:
                _clamp(new, lo, hi)
                _project_monotone(new)
        np.subtract(new, v, out=residual_now)
        diff = float(np.abs(residual_now, out=scratch).max())
        trace.append(diff)
        if not math.isfinite(diff):
            raise NonconvergenceError(
                f"non-finite iterate at iteration {it} "
                f"(sup-difference {diff:.3e})", trace=trace)
        if diff <= config.tol and anchored:
            return _IterationResult(values=new, shift=shift,
                                    right_limit=held_limit(new), iterations=it,
                                    trace=trace, clamp_excess=clamp_excess,
                                    exact_anchor_from=exact_from,
                                    anderson_steps=anderson_steps)
        # near the threshold speed the phase mode of the order-preserving
        # iteration is almost neutral and the integer-cell anchor cannot damp
        # it; plateau triggers exact anchoring.  A nonmonotone iteration has
        # no such structure and keeps whole-cell anchoring to the end
        if (monotone and exact_from is None and it >= 150 and diff < 1e-3
                and trace[-1] > 0.5 * trace[-51]):
            exact_from = it + 1
            anderson = None
        prev = v
        v = new
        # the mixed iterate replaces the plain step only as the next point to
        # apply F to, clamped into the sandwich (and projected when the
        # iteration is monotone) so that it stays in the solution set; the
        # stop test above and the returned profile are always a plain step's
        if anderson is not None:
            if cells != 0:
                # the frame moved under the history: restart it from this
                # step, its residual taken against the previous iterate
                # carried into the new frame
                moved = _shift_cells(prev, cells, 0.0, right_fill)
                anderson.restart(np.subtract(v, moved, out=moved), v)
            elif anderson.mix(residual_now, v):
                anderson_steps += 1
                _clamp(v, lo, hi)
                if monotone:
                    _project_monotone(v)
        # in the slow regime of the order-preserving iteration the error is
        # dominated by one geometric mode: extrapolate it away now and then.
        # Its linearisation is a positive operator, so that mode is real
        # (Krein-Rutman) and the ratio r below estimates it.  Gate on a
        # strictly decreasing window so noise near the floor cannot be
        # amplified; the clamp keeps the step safe either way.  Exact
        # anchoring starts after iteration 150, so the window is full, and a
        # strictly decreasing window of sup-norms starts above 0.
        if exact_from is not None and it % 25 == 0 and diff > config.tol:
            window = np.asarray(trace[-26:])
            if np.all(np.diff(window) < 0.0):
                r = (window[-1] / window[0]) ** (1.0 / 25.0)
                if 0.85 < r < 0.9999:
                    factor = min(r / (1.0 - r), 50.0)
                    v = v + factor * (v - prev)
                    _clamp(v, lo, hi)
                    _project_monotone(v)
    raise NonconvergenceError(
        f"no convergence after {config.max_iters} iterations "
        f"(last sup-difference {trace[-1]:.3e})", trace=trace)


# ---------------------------------------------------------------------------
# public solvers

def _solve(model: ModelSpec, c: float, config: SolverConfig, monotone: bool,
           speed: SpeedResult, hypotheses: HypothesisReport,
           note: str = "") -> WaveSolution:
    """Wave profile for a supercritical speed, iterated in `bounds.sandwich`.

    Only the anchor, K/2 or k/4, and the iteration depend on the mode: the
    monotone one preserves order, the nonmonotone one does not, so its
    convergence rests on the residual alone, and its lower bound needs the
    lower-envelope model's A1-A3, B and B1-B4.  The profile's ends must reach
    0 and the band [k, level] (K for a monotone birth).  `speed` is the
    model's threshold speed and `hypotheses` its `validate_hypotheses`
    report: A1-A3, B and B1-B4 or C1-C3 for the mode must hold.
    """
    mode = "monotone" if monotone else "nonmonotone"
    failed = hypotheses.failures(SHARED_SET)
    if failed:
        raise ModelInvalidError(
            f"the delay and sign hypotheses A1-A3 and B must hold; failed: {failed}")
    failed = hypotheses.failures(MONOTONE_SET if monotone else RELAXED_SET)
    if failed:
        wanted = "monotone" if monotone else "relaxed"
        raise ModelInvalidError(
            f"{mode} solve requires the {wanted} hypothesis set; failed: {failed}")
    ctx = CharacteristicContext.from_model(model)
    if c <= speed.c_star:
        raise NoRootsError(
            f"speed {c:.9g} is at or below the threshold {speed.c_star:.9g}: no "
            "profile exists; measure the front with simulate then frontspeed "
            "(or sweep) instead")
    roots = decay_roots(c, ctx)
    upper, lower, pair = sandwich(model, roots)
    lower_model = pair.lower_model(model)
    K = equilibrium(model)
    anchor = K / 2.0 if monotone else pair.k / 4.0
    if not monotone:
        failed = validate_hypotheses(lower_model).failures(SHARED_SET + MONOTONE_SET)
        if failed:
            raise ModelInvalidError(
                "the lower bound needs A1-A3, B and B1-B4 of the lower-envelope "
                f"model; failed: {failed}")
        note = (note + "; " if note else "") + "sandwiched between birth-envelope bounds"
    rate = _approach_rate(lower_model, c, pair.k)
    rates = choose_beta(c, model, range_end=pair.level, speed=speed)
    h, left, right = _grid_geometry(config.h, roots.lambda1, roots.lambda2,
                                    rate, monotone)
    xi = _make_xi(h, left, right)
    res = _iterate(xi, model, rates, upper.value, lower.value, anchor, K,
                   config, monotone)
    # the right end's distance to [k, level]: |v - K| when k = level = K;
    # a NaN distance misses too
    ends = [end for end, miss in (
        ("left", abs(res.values[0])),
        ("right", max(pair.k - res.values[-1], res.values[-1] - pair.level)))
        if not miss <= BOUNDARY_FRACTION * K]
    if ends:
        raise NonconvergenceError(
            f"the {' and '.join(ends)} end of the profile misses its limit by "
            f"more than {BOUNDARY_FRACTION:g} K at left/right widths "
            f"{left:g}/{right:g}", trace=res.trace)

    # relabel so the anchor crossing sits exactly at 0, then certify
    v, shift = res.values, res.shift
    xa = _anchor_crossing(xi, v, anchor)
    if xa is not None:
        xi = xi - xa
        shift += xa
    if res.exact_anchor_from is not None:
        note = (note + "; " if note else "") + "exact phase anchoring engaged"
    phi = ProfileGrid(xi=xi, values=v, left_limit=0.0,
                      right_limit=res.right_limit)
    res_sup, _ = residual(phi, c, model)
    f_cons = float(np.max(np.abs(apply_F(phi, model, rates) - v)))
    mem = gamma_membership(phi, c, rates.beta, model, shift=shift,
                           level=pair.level, upper=upper, lower=lower,
                           require_monotone=monotone)
    return WaveSolution(
        profile=phi, c=c, residual_sup=res_sup, iterations=res.iterations,
        trace=res.trace, beta=rates.beta, lambda1=roots.lambda1,
        lambda2=roots.lambda2, shift=shift, clamp_excess=res.clamp_excess,
        f_consistency=f_cons, membership=mem, mode=mode,
        exact_anchor_from=res.exact_anchor_from,
        anderson_steps=res.anderson_steps, note=note)


def near_critical_speed(speed: SpeedResult) -> float:
    """The near-critical surrogate for the limit front: c*(1 + 1e-6)."""
    return speed.c_star * (1.0 + NEAR_CRITICAL_OFFSET)


def solve(model: ModelSpec, c: float, config: Optional[SolverConfig] = None,
          speed: Optional[SpeedResult] = None) -> WaveSolution:
    """Solve as monotone when the model's monotone hypothesis set holds,
    else as nonmonotone; either runs with config.damping as given.  The
    model's hypotheses are checked once, and a failure of the shared set
    A1-A3 and B is reported before either solver is chosen.

    `speed` is the model's threshold speed, if the caller already has it.
    Near the threshold, c <= near_critical_speed, the leading-edge decay
    degenerates: the tolerance is tightened and the budget doubled.  The
    grid is the one any speed gets, with the capped left width.
    """
    config = config or SolverConfig()
    if speed is None:
        speed = critical_speed(CharacteristicContext.from_model(model))
    note = ""
    if speed.c_star < c <= near_critical_speed(speed):
        config = replace(config, tol=min(config.tol, 1e-8),
                         max_iters=2 * config.max_iters)
        note = f"near-critical surrogate at c = c*(1+{NEAR_CRITICAL_OFFSET:g})"
    rep = validate_hypotheses(model)
    return _solve(model, c, config, not rep.failures(MONOTONE_SET), speed, rep,
                  note=note)
