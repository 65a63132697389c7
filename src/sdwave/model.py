"""Model ingredients: death rate, birth function, and state-dependent delay.

Defines the built-in birth and delay families, validates the structural
hypotheses the solvers rely on, and computes the derived constants used
everywhere else (positive equilibrium, quadratic gap coefficient, birth
peak, delay slope supremum).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ModelInvalidError

GRID_POINTS = 10_001          # density for hypothesis certification grids
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


# ---------------------------------------------------------------------------
# birth functions

class RickerBirth:
    """Ricker recruitment b(u) = p * u * exp(-u)."""

    kind = "ricker"

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

    kind = "tabulated"

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


def birth_monotone_on(birth, lo: float, hi: float, n: int = GRID_POINTS) -> bool:
    grid = np.linspace(lo, hi, n)
    return bool(np.all(np.diff(birth.value(grid)) >= -1e-14))


# ---------------------------------------------------------------------------
# delay functions

class ConstantDelay:
    kind = "constant"

    def __init__(self, m: float):
        self.m = _finite("delay m", m)
        self.M = self.m

    def tau(self, u):
        u = np.asarray(u, dtype=float)
        out = np.full_like(u, self.m)
        return _scalar_or_array(out)

    def slope(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        return _scalar_or_array(out)

    def slope_sup(self, range_end: float) -> float:
        return 0.0

    def __repr__(self):
        return f"ConstantDelay(m={self.m})"


class RationalDelay:
    """tau(u) = m + (M - m) * u / (1 + u): saturates from m at 0 toward M."""

    kind = "saturating_rational"

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

    def slope_sup(self, range_end: float) -> float:
        # slope is decreasing in u, maximal at u = 0
        return self.M - self.m

    def __repr__(self):
        return f"RationalDelay(m={self.m}, M={self.M})"


class ExponentialDelay:
    """tau(u) = m + (M - m) * (1 - exp(-u))."""

    kind = "saturating_exponential"

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

    def slope_sup(self, range_end: float) -> float:
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
    (0, 50] followed by a bracketed root solve.
    """
    b, d = model.birth, model.d
    if b.derivative_at_zero <= d:
        raise ModelInvalidError("no positive equilibrium: b'(0) <= d")
    if isinstance(b, RickerBirth):
        return float(np.log(b.p / d))
    from scipy.optimize import brentq

    g = lambda u: b.value(u) - d * u
    grid = np.geomspace(1e-9, 50.0, 4000)
    vals = g(grid)
    idx = np.nonzero((vals[:-1] > 0) & (vals[1:] <= 0))[0]
    if idx.size == 0:
        raise ModelInvalidError("no sign change of b(u) - d*u found on (0, 50]")
    i = idx[0]
    root = brentq(g, grid[i], grid[i + 1], xtol=1e-14, rtol=8.9e-16)
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
    return (1.0 + GAP_SAFETY) * sup


def birth_peak(model: ModelSpec) -> float:
    """Maximum of the birth function over [0, equilibrium].

    Grid scan refined by golden-section; closed form for Ricker.
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
    x = _golden_max(b.value, lo, hi)
    return float(max(vals[i], b.value(x)))


def _golden_max(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, c = lo, hi
    x1 = c - invphi * (c - a)
    x2 = a + invphi * (c - a)
    f1, f2 = f(x1), f(x2)
    while c - a > tol * max(1.0, abs(a) + abs(c)):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (c - a)
            f2 = f(x2)
        else:
            c, x2, f2 = x2, x1, f1
            x1 = c - invphi * (c - a)
            f1 = f(x1)
    return 0.5 * (a + c)


def sup_delay_slope(model: ModelSpec, range_end: float) -> float:
    """Supremum of tau'(u) over [0, range_end]; analytic for built-in kinds."""
    return float(model.delay.slope_sup(range_end))


# ---------------------------------------------------------------------------
# hypothesis validation

@dataclass
class HypothesisCheck:
    id: str
    holds: bool
    witness: Optional[tuple] = None  # (u value, violated inequality)


@dataclass
class HypothesisReport:
    mode: str
    entries: list = field(default_factory=list)

    def add(self, id: str, holds: bool, witness=None):
        if not holds and witness is None:
            witness = (float("nan"), "unspecified")
        self.entries.append(HypothesisCheck(id, bool(holds), witness))

    def holds(self, id: str) -> bool:
        for e in self.entries:
            if e.id == id:
                return e.holds
        raise KeyError(id)

    def witness(self, id: str):
        for e in self.entries:
            if e.id == id:
                return e.witness
        raise KeyError(id)

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries)

    def as_dict(self) -> dict:
        return {
            e.id: {"holds": e.holds,
                   "witness": None if e.witness is None else
                   {"u": e.witness[0], "violated": e.witness[1]}}
            for e in self.entries
        }


def _first_violation(u, mask):
    idx = np.nonzero(mask)[0]
    return None if idx.size == 0 else float(u[idx[0]])


def validate_hypotheses(model: ModelSpec, mode: str = "monotone") -> HypothesisReport:
    """Check the structural hypotheses by dense grid sampling.

    mode "monotone" checks the monotone-birth set over [0, K];
    mode "nonmonotone" checks the relaxed set over [0, peak].
    Violations are reported with witnesses, never thrown.
    """
    if mode not in ("monotone", "nonmonotone"):
        raise ValueError(f"unknown mode {mode!r}")
    rep = HypothesisReport(mode=mode)
    b, delay, d = model.birth, model.delay, model.d
    bp0 = b.derivative_at_zero

    try:
        K = equilibrium(model)
    except ModelInvalidError:
        K = None
    peak = None
    if K is not None:
        peak = birth_peak(model)

    # delay hypotheses (always checked)
    rep.add("A1", True)  # built-in kinds are C^1 by construction
    span = 10.0 * max(K or 1.0, peak or 1.0)
    ug = np.linspace(0.0, span, GRID_POINTS)
    sl = delay.slope(ug)
    bad = (sl < -1e-14) | (sl >= 1.0)
    if delay.slope_sup(span) >= 1.0 or np.any(bad):
        w = _first_violation(ug, bad)
        u0 = 0.0 if w is None else w
        rep.add("A2", False, (u0, f"tau'({u0:g}) = {float(delay.slope(u0)):g} outside [0, 1)"))
    else:
        rep.add("A2", True)
    if delay.m < 0:
        rep.add("A3", False, (0.0, f"tau(0) = {delay.m:g} < 0"))
    elif delay.M < delay.m:
        rep.add("A3", False, (0.0, f"limit {delay.M:g} below tau(0) = {delay.m:g}"))
    else:
        rep.add("A3", True)

    # base birth hypothesis: sign structure of b(u) - d*u around the equilibrium
    if abs(float(b.value(0.0))) > 1e-14:
        rep.add("B", False, (0.0, f"b(0) = {float(b.value(0.0)):g} != 0"))
    elif K is None:
        rep.add("B", False, (0.0, "no positive equilibrium"))
    else:
        inner = np.linspace(0.0, K, GRID_POINTS)[1:-1]
        outer = np.linspace(K, 10.0 * K, GRID_POINTS)[1:]
        below = b.value(inner) - d * inner
        above = b.value(outer) - d * outer
        bad_in = below <= 0
        bad_out = (above >= 0) | (b.value(outer) <= 0)
        if np.any(bad_in):
            w = _first_violation(inner, bad_in)
            rep.add("B", False, (w, f"b(u) <= d*u inside (0, K) at u={w:g}"))
        elif np.any(bad_out):
            w = _first_violation(outer, bad_out)
            rep.add("B", False, (w, f"b(u) outside (0, d*u) above K at u={w:g}"))
        else:
            rep.add("B", True)

    if K is None:
        for id in (("B1", "B2", "B3", "B4") if mode == "monotone" else ("C1", "C2", "C3")):
            rep.add(id, False, (0.0, "no positive equilibrium"))
        return rep

    if mode == "monotone":
        u = np.linspace(0.0, K, GRID_POINTS)
        rep.add("B1", True)  # built-in births are C^1 on [0, K]
        if bp0 <= d:
            rep.add("B2", False, (0.0, f"b'(0) = {bp0:g} <= d = {d:g}"))
        else:
            gap = bp0 * u[1:] - b.value(u[1:])
            bad = gap <= 0
            if np.any(bad):
                w = _first_violation(u[1:], bad)
                rep.add("B2", False, (w, f"b(u) >= b'(0)*u at u={w:g}"))
            else:
                rep.add("B2", True)
        der = b.derivative(u)
        bad = der < -1e-12
        bad_hi = der > bp0 * (1 + 1e-12)
        if np.any(bad):
            w = _first_violation(u, bad)
            rep.add("B3", False, (w, f"b'({w:g}) = {float(b.derivative(w)):g} < 0"))
        elif np.any(bad_hi):
            w = _first_violation(u, bad_hi)
            rep.add("B3", False, (w, f"b'({w:g}) > b'(0)"))
        else:
            rep.add("B3", True)
        _check_gap(rep, "B4", model, K)
    else:
        u_hi = max(10.0 * K, 10.0 * peak)
        u = np.linspace(0.0, u_hi, GRID_POINTS)[1:]
        rep.add("C1", True)
        if bp0 <= d:
            rep.add("C2", False, (0.0, f"b'(0) = {bp0:g} <= d = {d:g}"))
        else:
            gap = bp0 * u - b.value(u)
            bad = gap <= 0
            if np.any(bad):
                w = _first_violation(u, bad)
                rep.add("C2", False, (w, f"b(u) >= b'(0)*u at u={w:g}"))
            else:
                rep.add("C2", True)
        ug2 = np.linspace(0.0, peak, GRID_POINTS)
        der = np.abs(b.derivative(ug2))
        bad = der > bp0 * (1 + 1e-12)
        if np.any(bad):
            w = _first_violation(ug2, bad)
            rep.add("C3", False, (w, f"|b'({w:g})| > b'(0)"))
        else:
            _check_gap(rep, "C3", model, peak)
    return rep


def _check_gap(rep: HypothesisReport, id: str, model: ModelSpec, range_end: float):
    try:
        L = quadratic_gap(model, range_end)
    except ModelInvalidError as exc:
        rep.add(id, False, (0.0, str(exc)))
        return
    u = np.linspace(0.0, range_end, GRID_POINTS)[1:]
    gap = model.birth.derivative_at_zero * u - model.birth.value(u)
    bad = gap >= L * u**2
    if np.any(bad):
        w = _first_violation(u, bad)
        rep.add(id, False, (w, f"gap not below L*u^2 at u={w:g}"))
    else:
        rep.add(id, True)
