"""Model ingredients: death rate, birth function, and state-dependent delay.

Defines the built-in birth and delay families and the derived constants
used everywhere else: the positive equilibrium K, the quadratic gap
coefficient L, the birth peak and the lag factor A.  One checker,
`validate_hypotheses`, samples every structural hypothesis the solvers rely
on over dense grids, once: A1-A3 on the delay and B on the sign of
b(u) - d*u, which both solvers need, then the monotone-birth set B1-B4 and
the relaxed set C1-C3.  B1-B4 pick the monotone solver, else C1-C3 admit
the nonmonotone one.  A failure records its first witness (u, violated
inequality); the README tables every check and its grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ModelInvalidError

GRID_POINTS = 10_001          # density for hypothesis certification grids
SHARED_SET = ("A1", "A2", "A3", "B")      # needed by both solvers
MONOTONE_SET = ("B1", "B2", "B3", "B4")   # a monotone birth
RELAXED_SET = ("C1", "C2", "C3")          # a nonmonotone birth
GAP_SAFETY = 0.01             # inflation on the quadratic gap supremum
EQUILIBRIUM_TOL = 1e-10


def _finite(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ModelInvalidError(f"{name} must be finite, got {value}")
    return value


def _scalar_or_array(out: np.ndarray):
    """A 0-d result as a Python float; an array result unchanged."""
    return float(out) if out.ndim == 0 else out


def _bisect_root(f, lo: float, hi: float) -> float:
    """Root of the scalar f on [lo, hi], where f changes sign, by bisection.

    Halves the bracket until it is narrower than 1e-16 relative to its
    midpoint, or until the midpoint rounds onto an end: every later midpoint
    would be that same float.  Any finite bracket is narrower than 2^1025
    and floats are at least 2^-1074 apart, so one of the two stops comes
    within 2,100 halvings.  Signs are compared, not multiplied: a product of
    two tiny values underflows to 0, which has no sign.  A NaN fails both
    comparisons, as it failed the product's, and moves the lower end.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0 < fhi) or (flo < 0.0 > fhi):
        raise ModelInvalidError("root bracket does not change sign")
    for _ in range(2100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fm = f(mid)
        if fm == 0.0 or hi - lo < 1e-16 * abs(mid):
            return mid
        if (fm < 0.0 < flo) or (flo < 0.0 < fm):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# birth functions

class RickerBirth:
    """Ricker recruitment b(u) = p * u * exp(-u)."""

    def __init__(self, p: float):
        p = _finite("ricker coefficient p", p)
        if p <= 0:
            raise ModelInvalidError(f"ricker coefficient must be positive, got {p}")
        self.p = p

    def value(self, u):
        u = np.asarray(u, dtype=float)
        out = self.p * u * np.exp(-u)
        return _scalar_or_array(out)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        out = self.p * (1.0 - u) * np.exp(-u)
        return _scalar_or_array(out)

    @property
    def derivative_at_zero(self) -> float:
        return self.p

    @property
    def curvature_at_zero(self) -> float:
        return -2.0 * self.p

    def __repr__(self):
        return f"RickerBirth(p={self.p})"


class TabulatedBirth:
    """Birth function given by (u, b(u)) samples, evaluated monotone-cubically.

    A shape-preserving cubic avoids spurious oscillation that would fabricate
    hypothesis violations.  Beyond the last sample the value is held constant.
    """

    def __init__(self, samples):
        pts = np.asarray(samples, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
            raise ModelInvalidError("tabulated birth needs >= 4 (u, b) rows")
        if not np.all(np.isfinite(pts)):
            raise ModelInvalidError("tabulated birth samples must be finite")
        u, b = pts[:, 0], pts[:, 1]
        if np.any(np.diff(u) <= 0):
            raise ModelInvalidError("tabulated birth abscissae must increase")
        if u[0] != 0.0 or b[0] != 0.0:
            raise ModelInvalidError("tabulated birth must start at (0, 0)")
        from scipy.interpolate import PchipInterpolator

        self.u_max = float(u[-1])
        self._interp = PchipInterpolator(u, b, extrapolate=False)
        self._deriv = self._interp.derivative()

    def value(self, u):
        u = np.clip(np.asarray(u, dtype=float), 0.0, self.u_max)
        out = self._interp(u)
        return _scalar_or_array(out)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        out = np.where(u >= self.u_max, 0.0, self._deriv(np.clip(u, 0.0, self.u_max)))
        return _scalar_or_array(out)

    @property
    def derivative_at_zero(self) -> float:
        return float(self._deriv(0.0))

    @property
    def curvature_at_zero(self) -> float:
        h = self.u_max * 1e-4
        return float((self._deriv(h) - self._deriv(0.0)) / h)

    def __repr__(self):
        return f"TabulatedBirth(u_max={self.u_max})"


# ---------------------------------------------------------------------------
# delay functions

class RationalDelay:
    """tau(u) = m + (M - m) * u / (1 + u): saturates from m at 0 toward M."""

    def __init__(self, m: float, M: float):
        self.m = _finite("delay m", m)
        self.M = _finite("delay M", M)

    def tau(self, u):
        u = np.asarray(u, dtype=float)
        out = self.m + (self.M - self.m) * u / (1.0 + u)
        return _scalar_or_array(out)

    def slope(self, u):
        u = np.asarray(u, dtype=float)
        out = (self.M - self.m) / (1.0 + u) ** 2
        return _scalar_or_array(out)

    def slope_sup(self) -> float:
        # slope is decreasing in u, maximal at u = 0
        return self.M - self.m

    def __repr__(self):
        return f"RationalDelay(m={self.m}, M={self.M})"


class ExponentialDelay:
    """tau(u) = m + (M - m) * (1 - exp(-u))."""

    def __init__(self, m: float, M: float):
        self.m = _finite("delay m", m)
        self.M = _finite("delay M", M)

    def tau(self, u):
        u = np.asarray(u, dtype=float)
        out = self.m + (self.M - self.m) * (-np.expm1(-u))
        return _scalar_or_array(out)

    def slope(self, u):
        u = np.asarray(u, dtype=float)
        out = (self.M - self.m) * np.exp(-u)
        return _scalar_or_array(out)

    def slope_sup(self) -> float:
        return self.M - self.m

    def __repr__(self):
        return f"ExponentialDelay(m={self.m}, M={self.M})"


# ---------------------------------------------------------------------------
# model container

@dataclass
class ModelSpec:
    """Death rate d, birth function, and delay function.

    Construction is permissive so that hypothesis violations can be reported
    rather than thrown; `validate()` enforces the structural requirements.
    """

    d: float
    birth: object
    delay: object

    def __post_init__(self):
        self.d = _finite("death rate d", self.d)
        if self.d <= 0:
            raise ModelInvalidError(f"death rate must be positive, got {self.d}")

    def validate(self) -> None:
        if self.birth.derivative_at_zero <= self.d:
            raise ModelInvalidError(
                "growth at zero must exceed the death rate: "
                f"b'(0)={self.birth.derivative_at_zero} <= d={self.d}")
        equilibrium(self)  # raises if no positive equilibrium exists


def equilibrium(model: ModelSpec) -> float:
    """Unique positive root of b(u) = d*u with b > d*u to its left.

    Analytic for the Ricker family; otherwise a sign-change scan over
    (0, 50] followed by bisection on the first bracket.  The scan starts at
    1e-9, or at the smallest normal float when the root lies below 1e-9.
    """
    b, d = model.birth, model.d
    if b.derivative_at_zero <= d:
        raise ModelInvalidError("no positive equilibrium: b'(0) <= d")
    if isinstance(b, RickerBirth):
        k = float(np.log(b.p / d))
        if not math.isfinite(k):
            raise ModelInvalidError(
                f"equilibrium K = log(p/d) = {k} is not finite; "
                "model coefficients out of numerical range")
        return k
    g = lambda u: b.value(u) - d * u
    grid = np.geomspace(1e-9 if g(1e-9) > 0.0 else np.finfo(float).tiny,
                        50.0, 4000)
    vals = g(grid)
    idx = np.nonzero((vals[:-1] > 0) & (vals[1:] <= 0))[0]
    if idx.size == 0:
        raise ModelInvalidError("no sign change of b(u) - d*u found on (0, 50]")
    i = idx[0]
    root = _bisect_root(g, grid[i], grid[i + 1])
    if abs(g(root)) > EQUILIBRIUM_TOL:
        raise ModelInvalidError("equilibrium root polish failed")
    return float(root)


def quadratic_gap(model: ModelSpec, range_end: float) -> float:
    """Coefficient L certifying 0 <= b'(0)*u - b(u) <= L*u^2 on (0, range_end].

    Supremum of the gap ratio over a dense grid plus the analytic u -> 0
    limit (-b''(0)/2 for smooth birth functions), inflated by 1% so the
    strict form of the inequality holds robustly downstream.
    """
    b = model.birth
    bp0 = b.derivative_at_zero
    u = np.linspace(0.0, range_end, GRID_POINTS)[1:]
    gap = bp0 * u - b.value(u)
    if np.any(gap < -1e-12 * max(1.0, bp0 * range_end)):
        worst = u[int(np.argmin(gap))]
        raise ModelInvalidError(
            f"b(u) exceeds its linearization at u={worst:.6g}; gap hypothesis fails")
    ratio = gap / u**2
    limit = -0.5 * b.curvature_at_zero
    sup = max(float(ratio.max()), float(limit))
    if sup <= 0:
        sup = 1e-12  # linear-at-origin birth: any tiny positive L certifies
    L = (1.0 + GAP_SAFETY) * sup
    if not math.isfinite(L):
        raise ModelInvalidError(f"gap coefficient L = {L} is not finite")
    return L


def birth_peak(model: ModelSpec) -> float:
    """Maximum of the birth function over [0, equilibrium].

    Closed form for Ricker.  Otherwise the grid maximum, refined by the
    sign change of b' between its two neighbours when there is one.
    """
    b = model.birth
    K = equilibrium(model)
    if isinstance(b, RickerBirth):
        return b.value(K) if K <= 1.0 else b.p / np.e
    u = np.linspace(0.0, K, GRID_POINTS)
    vals = b.value(u)
    i = int(np.argmax(vals))
    lo = u[max(i - 1, 0)]
    hi = u[min(i + 1, len(u) - 1)]
    try:
        x = _bisect_root(b.derivative, lo, hi)
    except ModelInvalidError:
        return float(vals[i])
    return float(max(vals[i], b.value(x)))


def lag_factor(model: ModelSpec, level: float) -> float:
    """The constant A = 1 + b'(0) * level * sup tau' of the solution set.

    It enters the kernel parameter beta and the Lipschitz bound that the
    membership certificate checks, for profiles on [0, level].
    """
    return 1.0 + model.birth.derivative_at_zero * level * model.delay.slope_sup()


# ---------------------------------------------------------------------------
# hypothesis validation

@dataclass
class HypothesisCheck:
    id: str
    holds: bool
    witness: Optional[tuple] = None  # (u value, violated inequality)


@dataclass
class HypothesisReport:
    entries: list = field(default_factory=list)

    def add(self, id: str, witness=None):
        """Record `id`: it holds unless the witness of a violation is given."""
        self.entries.append(HypothesisCheck(id, witness is None, witness))

    def failures(self, ids) -> str:
        """'id: violated inequality' of each failed check among ids, joined
        by '; ', or '' when all of them hold."""
        return "; ".join(f"{e.id}: {e.witness[1]}" for e in self.entries
                         if e.id in ids and not e.holds)

    @property
    def monotone(self) -> bool:
        """The verdict that picks the solver and its envelopes: B1-B4 hold."""
        return not self.failures(MONOTONE_SET)


def _check(rep: HypothesisReport, id: str, u, bad, describe) -> None:
    """Record `id` as checked on the grid u: it fails at the first point
    that `bad` flags, with witness (u, describe(u)), and holds if none is."""
    idx = np.flatnonzero(bad)
    if idx.size:
        w = float(u[idx[0]])
        rep.add(id, (w, describe(w)))
    else:
        rep.add(id)


def _check_gap(rep: HypothesisReport, id: str, model: ModelSpec,
               range_end: float) -> None:
    """Record `id` as the quadratic gap bound: it holds when `quadratic_gap`
    finds a finite L, which then bounds the gap on the whole grid."""
    try:
        quadratic_gap(model, range_end)
    except ModelInvalidError as exc:
        rep.add(id, (0.0, str(exc)))
    else:
        rep.add(id)


def validate_hypotheses(model: ModelSpec) -> HypothesisReport:
    """Check the structural hypotheses by dense grid sampling, each once.

    The delay set A1-A3 and the sign structure B come first, then the
    monotone-birth set B1-B4 over [0, K] and the relaxed set C1-C3 up to
    the birth peak.  Violations are reported with witnesses, never thrown.
    """
    rep = HypothesisReport()
    b, delay, d = model.birth, model.delay, model.d
    try:
        K = equilibrium(model)
    except ModelInvalidError:
        K = None
    peak = None if K is None else birth_peak(model)

    # delay hypotheses; built-in kinds are C^1 by construction
    rep.add("A1")
    # capped so that the grid starts at u = 0 even when K or the peak is huge
    span = min(10.0 * max(K or 1.0, peak or 1.0), np.finfo(float).max)
    ug = np.linspace(0.0, span, GRID_POINTS)
    sl = delay.slope(ug)
    _check(rep, "A2", ug, (sl < -1e-14) | (sl >= 1.0),
           lambda w: f"tau'({w:g}) = {float(delay.slope(w)):g} outside [0, 1)")
    if delay.m < 0:
        rep.add("A3", (0.0, f"tau(0) = {delay.m:g} < 0"))
    elif delay.M < delay.m:
        rep.add("A3", (0.0, f"limit {delay.M:g} below tau(0) = {delay.m:g}"))
    else:
        rep.add("A3")

    # base birth hypothesis: sign structure of b(u) - d*u around the equilibrium
    b0 = float(b.value(0.0))
    if abs(b0) > 1e-14:
        rep.add("B", (0.0, f"b(0) = {b0:g} != 0"))
    elif K is None:
        rep.add("B", (0.0, "no positive equilibrium"))
    else:
        inner = np.linspace(0.0, K, GRID_POINTS)[1:-1]
        bad_in = b.value(inner) - d * inner <= 0
        if np.any(bad_in):
            _check(rep, "B", inner, bad_in,
                   lambda w: f"b(u) <= d*u inside (0, K) at u={w:g}")
        else:
            outer = np.linspace(K, 10.0 * K, GRID_POINTS)[1:]
            b_out = b.value(outer)
            _check(rep, "B", outer, (b_out - d * outer >= 0) | (b_out <= 0),
                   lambda w: f"b(u) outside (0, d*u) above K at u={w:g}")

    if K is None:
        for id in MONOTONE_SET + RELAXED_SET:
            rep.add(id, (0.0, "no positive equilibrium"))
        return rep
    # K exists, so b'(0) > d; built-in births are C^1.  Below
    # u = 8 eps b'(0) / |b''(0)| the gap b'(0) u - b(u) ~ -b''(0) u^2 / 2 is
    # under its rounding: a gap within 4 eps b'(0) u of 0 there is no witness
    bp0, eps = b.derivative_at_zero, np.finfo(float).eps
    curvature = abs(b.curvature_at_zero)
    floor = 8.0 * eps * bp0 / curvature if curvature else 0.0
    above_tangent = lambda u: bp0 * u - b.value(u) <= np.where(
        u < floor, -4.0 * eps * bp0 * u, 0.0)
    below_tangent = lambda w: f"b(u) >= b'(0)*u at u={w:g}"

    rep.add("B1")
    u = np.linspace(0.0, K, GRID_POINTS)
    _check(rep, "B2", u[1:], above_tangent(u[1:]), below_tangent)
    der = b.derivative(u)
    falling = der < -1e-12
    if np.any(falling):
        _check(rep, "B3", u, falling,
               lambda w: f"b'({w:g}) = {float(b.derivative(w)):g} < 0")
    else:
        _check(rep, "B3", u, der > bp0 * (1 + 1e-12),
               lambda w: f"b'({w:g}) > b'(0)")
    _check_gap(rep, "B4", model, K)

    rep.add("C1")
    u = np.linspace(0.0, max(10.0 * K, 10.0 * peak), GRID_POINTS)[1:]
    _check(rep, "C2", u, above_tangent(u), below_tangent)
    u = np.linspace(0.0, peak, GRID_POINTS)
    steep = np.abs(b.derivative(u)) > bp0 * (1 + 1e-12)
    if np.any(steep):
        _check(rep, "C3", u, steep, lambda w: f"|b'({w:g})| > b'(0)")
    else:
        _check_gap(rep, "C3", model, peak)
    return rep
