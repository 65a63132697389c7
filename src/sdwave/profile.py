"""Wave profile solver: integral-operator fixed-point iteration in a sandwich.

The second-order wave equation is recast through the two-sided exponential
resolvent kernel; its fixed points are wave profiles.  One solve serves
monotone and nonmonotone birth functions alike: only the sandwich differs,
closed-form bounds for a monotone birth and birth-envelope fronts for a
nonmonotone one.  Iteration starts from the upper profile, clamps each
iterate into the (phase-shifted) sandwich, and re-anchors the phase by whole
grid cells so the translation mode cannot drift.  While the phase is
anchored by whole cells, the undamped iteration is accelerated by Anderson
mixing, whose iterates are clamped into the same sandwich.  Convergence is
certified a posteriori by an independent finite-difference residual, never
by the iteration metric alone.  The near-critical regime is a property of
the speed: `solve` tightens the iteration, on the usual grid, for any speed
in (c*, c*(1 + 1e-6)], and `solve_critical` is `solve` at that surrogate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import _kernels as kernels
from .bounds import UpperSolution, build_envelopes, build_lower, build_upper
from .dispersion import (CharacteristicContext, KernelRates, SpeedResult,
                         choose_beta, critical_speed, decay_roots)
from .errors import ModelInvalidError, NonconvergenceError, NoRootsError
from .model import (HypothesisReport, ModelSpec, _bisect_root, equilibrium,
                    lag_factor, validate_hypotheses)

NEAR_CRITICAL_OFFSET = 1e-6
BOUNDARY_FRACTION = 1e-3     # required decay of the profile at the grid ends
ANCHOR_DEAD_ZONE = 0.75      # cells; hysteresis against one-cell flapping
ANDERSON_DEPTH = 5           # mixed differences kept in the whole-cell phase
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
    tol: float = 1e-8
    max_iters: int = 10_000
    damping: float = 1.0
    phase_level: Optional[float] = None
    mode: str = "auto"                # one of MODES; auto picks by the hypotheses
    h: Optional[float] = None
    left_width: Optional[float] = None
    right_width: Optional[float] = None
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
                     shift: float, level: Optional[float] = None,
                     require_monotone: bool = True,
                     lower=None, upper=None,
                     sandwich_tol: float = 1e-8) -> MembershipReport:
    """Check the solution-set conditions: sandwich, monotonicity, Lipschitz bound.

    The bounds are compared at the abscissae shifted by the solve's
    recorded phase shift.
    """
    if level is None:
        level = equilibrium(model)
    if upper is None:
        upper = build_upper(c, model, level=level)
    if lower is None:
        lower = build_lower(c, model)
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
    """Decay rate of perturbations of the constant state at the right end."""
    slope = model.birth.derivative(state)
    lag = c * model.delay.tau(state)
    fallback = 0.5 * (math.sqrt(c * c + 4.0 * model.d) - c)
    if slope >= model.d:
        return fallback

    def g(mu):
        return mu * mu - c * mu - model.d + slope * math.exp(-mu * lag)

    hi = 0.0
    step = 0.25
    for k in range(1, 81):
        mu = -step * k
        if g(mu) > 0.0:
            return abs(_bisect_root(g, mu, hi))
        hi = mu
    return fallback


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
    shift: float
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

    A monotone iteration projects every iterate onto nondecreasing profiles
    and holds the right limit at right_state; a nonmonotone one takes the
    right limit from the iterate's last value.
    """
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
    # Anderson mixing accelerates the whole-cell phase of the undamped step
    # only: a damped step would keep part of each mixed iterate's grid-scale
    # roughness, and in the exact phase mixing reaches the clamp stall
    # sooner but not a better point
    anderson = _Anderson(v.size) if omega == 1.0 else None
    residual_now = scratch if anderson is None else np.empty_like(v)
    anderson_steps = 0
    for it in range(1, config.max_iters + 1):
        right_limit = right_state if monotone else float(v[-1])
        phi = ProfileGrid(xi=xi, values=v, left_limit=0.0, right_limit=right_limit)
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
            right_fill = right_state if monotone else float(new[-1])
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
                if monotone:
                    _project_monotone(new)
        np.subtract(new, v, out=residual_now)
        diff = float(np.abs(residual_now, out=scratch).max())
        trace.append(diff)
        if not math.isfinite(diff):
            raise NonconvergenceError(
                f"non-finite iterate at iteration {it} "
                f"(sup-difference {diff:.3e})", trace=trace)
        if diff <= config.tol and anchored:
            return _IterationResult(values=new, shift=shift, iterations=it,
                                    trace=trace, clamp_excess=clamp_excess,
                                    exact_anchor_from=exact_from,
                                    anderson_steps=anderson_steps)
        # near the threshold speed the phase mode is almost neutral and the
        # integer-cell anchor cannot damp it; plateau triggers exact anchoring
        if (exact_from is None and it >= 150 and diff < 1e-3
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
        # Only there: its linearisation is a positive operator, so that mode
        # is real (Krein-Rutman) and the ratio r below estimates it.  The
        # nonmonotone iteration has no such guarantee, and there the jump
        # costs iterations.  Gate on a strictly decreasing window so
        # noise near the floor cannot be amplified; the clamp keeps the step
        # safe either way.  Exact anchoring starts after iteration 150, so
        # the window is full, and a strictly decreasing window of sup-norms
        # starts above 0.
        if (monotone and exact_from is not None and it % 25 == 0
                and diff > config.tol):
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


def _finalize(res: _IterationResult, xi: np.ndarray, model: ModelSpec,
              rates: KernelRates, c: float, lam1: float, lam2: float,
              anchor_level: float, level: float, right_state: float, upper,
              lower, require_monotone: bool, note: str = "") -> WaveSolution:
    v = res.values
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
        trace=res.trace, beta=rates.beta, lambda1=lam1, lambda2=lam2,
        shift=total_shift, clamp_excess=res.clamp_excess, f_consistency=f_cons,
        membership=mem,
        mode="monotone" if require_monotone else "nonmonotone",
        exact_anchor_from=res.exact_anchor_from,
        anderson_steps=res.anderson_steps, note=note)


# ---------------------------------------------------------------------------
# public solvers

class _EnvelopeFront:
    """Lower bound of the nonmonotone sandwich: the lower-envelope wavefront
    translated back to its unit-amplitude canonical frame.

    In the frame recorded by the auxiliary solve's anchor shift the clamp
    already guarantees that the front's nodes sit below exp(lam1 * xi) capped
    at its own plateau, so the translated front is an admissible lower bound
    without any amplitude fitting.  A corrective shift absorbs tiny
    leading-edge rate mismatch when the envelope is tabulated rather than
    closed form, and keeps the linear interpolant under the exponential
    between nodes too, where a sub-cell phase shift evaluates it.
    """

    def __init__(self, aux: WaveSolution, lam1: float, k: float):
        prof = aux.profile
        v, xi = prof.values, prof.xi
        base = aux.shift
        pos = (v > 0.0) & (v < 0.5 * k)
        if np.count_nonzero(pos) >= 3:
            excess = np.log(v[pos]) - lam1 * (xi[pos] + base)
            # between two nodes the linear interpolant can rise above the
            # convex exponential although both nodes lie below it;
            # log L(x) - lam1 x is concave on a cell, with its maximum where
            # L = slope / lam1
            a, b = v[:-1], v[1:]
            t = (b - a) / (prof.h * lam1)
            inner = pos[:-1] & pos[1:] & (t > a) & (t < b)
            if inner.any():
                peak = xi[:-1][inner] + (t[inner] - a[inner]) / (lam1 * t[inner])
                excess = np.concatenate([excess,
                                         np.log(t[inner]) - lam1 * (peak + base)])
            overshoot = float(np.max(excess))
            if overshoot > 0.0:
                base += overshoot / lam1 * (1.0 + 1e-12)
        self.base, self.xi, self.values = base, xi, v
        self.right = float(v[-1])

    def value(self, x):
        return np.interp(np.asarray(x, dtype=float) - self.base, self.xi,
                         self.values, left=0.0, right=self.right)


def _solve(model: ModelSpec, c: float, config: SolverConfig, monotone: bool,
           speed: SpeedResult, note: str = "",
           hypotheses: Optional[HypothesisReport] = None) -> WaveSolution:
    """Wave profile for a supercritical speed, iterated in a sandwich.

    Only the sandwich depends on the mode.  A monotone birth gets the
    closed-form bounds at its equilibrium K and the order-preserving
    iteration.  A nonmonotone one is sandwiched between the computed
    wavefront of its lower-envelope equation, translated so its leading edge
    matches the unit-amplitude exponential, and the same exponential capped
    at the upper-envelope equilibrium; its iteration is not order preserving,
    so convergence rests on the residual alone.  `speed` is the model's
    threshold speed, and `hypotheses` its monotone hypothesis report if the
    caller already has it.
    """
    mode = "monotone" if monotone else "nonmonotone"
    rep = hypotheses or validate_hypotheses(model, mode)
    if not rep.all_hold:
        failed = [e.id for e in rep.entries if not e.holds]
        wanted = "monotone" if monotone else "relaxed"
        raise ModelInvalidError(
            f"{mode} solve requires the {wanted} hypothesis set; failed: {failed}")
    ctx = CharacteristicContext.from_model(model)
    if c <= speed.c_star:
        raise NoRootsError(
            f"speed {c:.9g} is at or below the threshold {speed.c_star:.9g}: no "
            "profile exists; use the simulator's nonexistence probe instead")
    roots = decay_roots(c, ctx)
    K = equilibrium(model)
    if monotone:
        level, anchor = K, K / 2.0
        lower = build_lower(c, model)
        rate = _approach_rate(model, c, K)
    else:
        pair = build_envelopes(model)
        aux_model = pair.lower_model(model)
        aux_cfg = SolverConfig(tol=config.tol, max_iters=config.max_iters,
                               h=config.h, left_width=config.left_width,
                               right_width=config.right_width)
        # the envelopes share b'(0), and the lower model d and the delay,
        # so both equations have the model's threshold speed
        aux = _solve(aux_model, c, aux_cfg, True, note="lower-envelope wavefront",
                     speed=speed)
        level, anchor = pair.level, pair.k / 4.0
        lower = _EnvelopeFront(aux, roots.lambda1, pair.k)
        rate = _approach_rate(aux_model, c, pair.k)
        note = (note + "; " if note else "") + "sandwiched between birth-envelope fronts"
    upper = UpperSolution(lam1=roots.lambda1, level=level)
    rates = choose_beta(c, model, range_end=level, ctx=ctx, speed=speed)
    if config.phase_level is not None:
        anchor = config.phase_level
    h, left, right = _grid_geometry(config, roots.lambda1, roots.lambda2, rate)
    widths = []
    while True:
        xi = _make_xi(h, left, right)
        res = _iterate(xi, model, rates, upper.value, lower.value, anchor, K,
                       config, monotone)
        widths.append(f"{left:g}/{right:g}")
        # only a monotone front has known limits to check the domain against
        left_ok = abs(res.values[0]) <= BOUNDARY_FRACTION * K
        right_ok = abs(res.values[-1] - K) <= BOUNDARY_FRACTION * K
        if not monotone or left_ok and right_ok:
            break
        if len(widths) == 3:
            ends = [end for end, ok in (("left", left_ok), ("right", right_ok))
                    if not ok]
            raise NonconvergenceError(
                f"the {' and '.join(ends)} end of the profile misses its limit "
                f"by more than {BOUNDARY_FRACTION:g} K at left/right widths "
                f"{', '.join(widths)}", trace=res.trace)
        if not left_ok:
            left *= 2.0
        if not right_ok:
            right *= 2.0
        note = (note + " " if note else "") + "domain doubled after boundary check"
    return _finalize(res, xi, model, rates, c, roots.lambda1, roots.lambda2,
                     anchor, level, K, upper, lower, require_monotone=monotone,
                     note=note)


def near_critical_speed(speed: SpeedResult) -> float:
    """The near-critical surrogate for the limit front: c*(1 + 1e-6)."""
    return speed.c_star * (1.0 + NEAR_CRITICAL_OFFSET)


def solve(model: ModelSpec, c: float, config: Optional[SolverConfig] = None,
          speed: Optional[SpeedResult] = None) -> WaveSolution:
    """Solve with the configured mode; "auto" picks it by the model's hypotheses.

    Auto picks monotone when the monotone hypothesis set holds, else
    nonmonotone; either runs with config.damping as given.  `speed` is the
    model's threshold speed, if the caller already has it.  Near the
    threshold, c <= near_critical_speed, the leading-edge decay degenerates:
    the tolerance is tightened and the budget doubled.  The grid is the one
    any speed gets: the capped default left width, or `left_width` as given.
    """
    config = config or SolverConfig()
    ctx = CharacteristicContext.from_model(model)
    if speed is None:
        speed = critical_speed(ctx)
    note = ""
    if speed.c_star < c <= near_critical_speed(speed):
        config = replace(config, tol=min(config.tol, 1e-8),
                         max_iters=2 * config.max_iters)
        note = f"near-critical surrogate at c = c*(1+{NEAR_CRITICAL_OFFSET:g})"
    rep = validate_hypotheses(model, "monotone") if config.mode == "auto" else None
    monotone = config.mode == "monotone" or rep is not None and rep.all_hold
    return _solve(model, c, config, monotone, note=note, speed=speed,
                  hypotheses=rep if monotone else None)


def solve_critical(model: ModelSpec, config: Optional[SolverConfig] = None,
                   speed: Optional[SpeedResult] = None) -> WaveSolution:
    """`solve` at the near-critical surrogate speed.  `speed` is the model's
    threshold speed, if the caller already has it."""
    sr = speed or critical_speed(CharacteristicContext.from_model(model))
    return solve(model, near_critical_speed(sr), config, sr)
