"""Closed-form upper/lower profiles and monotone birth envelopes.

The upper profile caps an exponential leading edge at the target level; the
lower profile subtracts a faster exponential and truncates at zero.  Both
satisfy the wave differential inequality away from their single kink, which
`verify_upper` / `verify_lower` certify on kink-excluded grids using exact
derivatives.  For nonmonotone birth functions the running-extrema envelopes
and their equilibria (k, level) sandwich the problem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import CharacteristicContext, char_value, decay_roots
from .errors import ModelInvalidError, NoRootsError
from .model import (GRID_POINTS, ModelSpec, RickerBirth, _scalar_or_array,
                    birth_monotone_on, birth_peak, equilibrium, quadratic_gap)

ETA_DEGENERACY_TOL = 1e-6


# ---------------------------------------------------------------------------
# closed-form profile bounds

class UpperSolution:
    """xi -> min(exp(lam1 * xi), level); kink where the branches meet."""

    def __init__(self, lam1: float, level: float):
        self.lam1 = float(lam1)
        self.level = float(level)
        self.kinks = [math.log(level) / lam1]

    def value(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = np.minimum(np.exp(np.minimum(self.lam1 * xi, 700.0)), self.level)
        return _scalar_or_array(out)

    def d1(self, xi):
        xi = np.asarray(xi, dtype=float)
        exp_branch = self.lam1 * xi < math.log(self.level)
        out = np.where(exp_branch, self.lam1 * np.exp(self.lam1 * xi), 0.0)
        return _scalar_or_array(out)

    def d2(self, xi):
        xi = np.asarray(xi, dtype=float)
        exp_branch = self.lam1 * xi < math.log(self.level)
        out = np.where(exp_branch, self.lam1**2 * np.exp(self.lam1 * xi), 0.0)
        return _scalar_or_array(out)


class LowerSolution:
    """xi -> max(exp(lam1 xi) - q exp(eta lam1 xi), 0); positive left of xi0.

    The printed sign convention with min(..., 0) is nonpositive and cannot
    sit under the upper profile; the construction requires the max form.
    """

    def __init__(self, lam1: float, eta: float, q: float):
        self.lam1 = float(lam1)
        self.eta = float(eta)
        self.q = float(q)
        self.xi0 = -math.log(q) / ((eta - 1.0) * lam1)
        self.kinks = [self.xi0]

    def _branch(self, xi):
        return np.exp(self.lam1 * xi) - self.q * np.exp(self.eta * self.lam1 * xi)

    def value(self, xi):
        # the branch is evaluated only left of the kink: near threshold xi0
        # lies far left of the grid and the bound is zero almost everywhere
        xi = np.asarray(xi, dtype=float)
        left = xi < self.xi0
        out = np.zeros(xi.shape)
        out[left] = np.maximum(self._branch(xi[left]), 0.0)
        return _scalar_or_array(out)

    def d1(self, xi):
        xi = np.asarray(xi, dtype=float)
        lam, eta, q = self.lam1, self.eta, self.q
        out = np.where(xi < self.xi0,
                       lam * np.exp(lam * np.minimum(xi, self.xi0))
                       - q * eta * lam * np.exp(eta * lam * np.minimum(xi, self.xi0)),
                       0.0)
        return _scalar_or_array(out)

    def d2(self, xi):
        xi = np.asarray(xi, dtype=float)
        lam, eta, q = self.lam1, self.eta, self.q
        out = np.where(xi < self.xi0,
                       lam**2 * np.exp(lam * np.minimum(xi, self.xi0))
                       - q * (eta * lam)**2 * np.exp(eta * lam * np.minimum(xi, self.xi0)),
                       0.0)
        return _scalar_or_array(out)


def build_upper(c: float, model: ModelSpec, level: float | None = None) -> UpperSolution:
    """Upper solution for a supercritical speed at the given plateau level."""
    ctx = CharacteristicContext.from_model(model)
    roots = decay_roots(c, ctx)   # raises NoRootsError at or below threshold
    if level is None:
        level = equilibrium(model)
    return UpperSolution(lam1=roots.lambda1, level=level)


def build_lower(c: float, model: ModelSpec) -> LowerSolution:
    """Lower solution with midpoint exponent ratio and the explicit q bound."""
    ctx = CharacteristicContext.from_model(model)
    roots = decay_roots(c, ctx)
    lam1, lam2 = roots.lambda1, roots.lambda2
    ratio = lam2 / lam1
    if ratio < 1.0 + ETA_DEGENERACY_TOL:
        raise NoRootsError(
            f"decay roots nearly coincide (ratio {ratio:.3e}); speed too close "
            "to the threshold for an explicit lower solution")
    eta = 0.5 * (1.0 + min(2.0, ratio))
    depth = -char_value(eta * lam1, c, ctx)
    if depth <= 0:
        raise ModelInvalidError("characteristic value not negative between roots")
    K = equilibrium(model)
    L = quadratic_gap(model, K)
    bp0 = model.birth.derivative_at_zero
    q = (3.0 * lam1 * bp0 + L) / depth + 1.0 + K
    return LowerSolution(lam1=lam1, eta=eta, q=q)


# ---------------------------------------------------------------------------
# differential-inequality verification

def wave_inequality_residuals(prof, c: float, model: ModelSpec, grid):
    """phi'' - c phi' - d phi + b(phi(xi - c tau(phi(xi)))) at the grid points."""
    xi = np.asarray(grid, dtype=float)
    vals = prof.value(xi)
    delayed = prof.value(xi - c * model.delay.tau(vals))
    return (prof.d2(xi) - c * prof.d1(xi) - model.d * vals
            + model.birth.value(delayed))


def verify_upper(prof, c: float, model: ModelSpec, grid) -> float:
    """Max of the wave residual on the grid (<= tolerance for an upper solution)."""
    return float(np.max(wave_inequality_residuals(prof, c, model, grid)))


def verify_lower(prof, c: float, model: ModelSpec, grid) -> float:
    """Min of the wave residual on the grid (>= -tolerance for a lower solution)."""
    return float(np.min(wave_inequality_residuals(prof, c, model, grid)))


def kink_excluded_grid(lo: float, hi: float, n: int, kinks, radius: float | None = None):
    """Uniform grid minus the points within the exclusion radius of any kink.

    Default radius is two grid cells.
    """
    xi = np.linspace(lo, hi, n)
    if radius is None:
        radius = 2.0 * (hi - lo) / (n - 1)
    keep = np.ones(n, dtype=bool)
    for t in kinks:
        keep &= np.abs(xi - t) > radius
    return xi[keep]


# ---------------------------------------------------------------------------
# birth envelopes for the nonmonotone case

class RickerUpperEnvelope:
    """Running maximum of a Ricker birth whose peak sits inside the range."""

    kind = "envelope_upper"

    def __init__(self, base: RickerBirth):
        self.base = base

    def value(self, u):
        u = np.asarray(u, dtype=float)
        out = self.base.p * np.minimum(u, 1.0) * np.exp(-np.minimum(u, 1.0))
        return _scalar_or_array(out)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        out = np.where(u < 1.0, self.base.p * (1.0 - u) * np.exp(-np.minimum(u, 1.0)), 0.0)
        return _scalar_or_array(out)

    @property
    def derivative_at_zero(self):
        return self.base.derivative_at_zero

    @property
    def curvature_at_zero(self):
        return self.base.curvature_at_zero


class RickerLowerEnvelope:
    """Suffix minimum of a Ricker birth over [u, level]."""

    kind = "envelope_lower"

    def __init__(self, base: RickerBirth, level: float):
        self.base = base
        self.level = float(level)
        self.floor = float(base.value(level))

    def value(self, u):
        u = np.asarray(u, dtype=float)
        capped = np.minimum(u, 1.0)
        out = np.minimum(self.base.p * capped * np.exp(-capped), self.floor)
        return _scalar_or_array(out)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        capped = np.minimum(u, 1.0)
        raw = self.base.p * capped * np.exp(-capped)
        active = (u < 1.0) & (raw < self.floor)
        out = np.where(active, self.base.p * (1.0 - capped) * np.exp(-capped), 0.0)
        return _scalar_or_array(out)

    @property
    def derivative_at_zero(self):
        return self.base.derivative_at_zero

    @property
    def curvature_at_zero(self):
        return self.base.curvature_at_zero


class TabularEnvelope:
    """Envelope stored as a dense table, linearly interpolated (shape safe)."""

    kind = "envelope_table"

    def __init__(self, u, vals):
        self.u = np.asarray(u, dtype=float)
        self.vals = np.asarray(vals, dtype=float)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.u, self.vals,
                        left=self.vals[0], right=self.vals[-1])
        return _scalar_or_array(out)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        du = self.u[1] - self.u[0]
        slopes = np.diff(self.vals) / du
        idx = np.clip(((x - self.u[0]) / du).astype(int), 0, len(slopes) - 1)
        out = np.where((x <= self.u[0]) | (x >= self.u[-1]), 0.0, slopes[idx])
        return _scalar_or_array(out)

    @property
    def derivative_at_zero(self):
        return float((self.vals[1] - self.vals[0]) / (self.u[1] - self.u[0]))

    @property
    def curvature_at_zero(self):
        du = self.u[1] - self.u[0]
        return float((self.vals[2] - 2 * self.vals[1] + self.vals[0]) / du**2)


@dataclass
class EnvelopePair:
    """Monotone envelopes of the birth function with their equilibria."""

    upper: object
    lower: object
    k: float
    level: float        # largest root of upper-envelope(u) = d*u
    domain_end: float

    def lower_model(self, model: ModelSpec) -> ModelSpec:
        return ModelSpec(d=model.d, birth=self.lower, delay=model.delay)


def build_envelopes(model: ModelSpec) -> EnvelopePair:
    """Running-max / suffix-min envelopes and their equilibria.

    The upper-envelope equilibrium (the working level) is the largest root
    of running-max(b)(u) = d*u; for d = 1 it coincides with the birth peak.
    The lower-envelope equilibrium k is the largest root of the suffix
    minimum against d*u on (0, level].
    """
    b, d = model.birth, model.d
    K = equilibrium(model)
    peak = birth_peak(model)

    if birth_monotone_on(b, 0.0, K) and peak <= b.value(K) + 1e-12:
        # envelopes of a monotone birth coincide with it
        return EnvelopePair(upper=b, lower=b, k=K, level=K, domain_end=max(K, peak / d))

    if isinstance(b, RickerBirth) and K > 1.0:
        level = b.p / (d * math.e)
        if level < 1.0:
            raise ModelInvalidError(
                "upper-envelope equilibrium falls below the birth peak; "
                "envelope construction not available for this d")
        upper = RickerUpperEnvelope(b)
        lower = RickerLowerEnvelope(b, level)
        k = _largest_root(lambda u: lower.value(u) - d * u, level)
        pair = EnvelopePair(upper=upper, lower=lower, k=k, level=level,
                            domain_end=level)
    else:
        pair = _tabular_envelopes(model, K, peak)

    if not (0.0 < pair.k <= K + 1e-9 and K <= pair.level + 1e-9):
        raise ModelInvalidError(
            f"envelope equilibria out of order: k={pair.k}, K={K}, level={pair.level}")
    return pair


def _largest_root(g, hi: float) -> float:
    u = np.linspace(0.0, hi, GRID_POINTS)[1:]
    vals = g(u)
    sign_change = np.nonzero((vals[:-1] >= 0) & (vals[1:] < 0))[0]
    if sign_change.size == 0:
        raise ModelInvalidError("no envelope equilibrium found in (0, level]")
    i = sign_change[-1]
    if vals[i] == 0.0:
        return float(u[i])
    from scipy.optimize import brentq

    return float(brentq(g, u[i], u[i + 1], xtol=1e-14, rtol=8.9e-16))


def _tabular_envelopes(model: ModelSpec, K: float, peak: float) -> EnvelopePair:
    b, d = model.birth, model.d
    hi = 1.5 * max(K, peak, peak / d)
    for _ in range(7):
        u = np.linspace(0.0, hi, 2 * GRID_POINTS)
        runmax = np.maximum.accumulate(b.value(u))
        if runmax[-1] < d * u[-1]:
            break
        hi *= 2.0
    else:
        raise ModelInvalidError("upper envelope never falls below d*u")
    g = runmax - d * u
    sign_change = np.nonzero((g[:-1] >= 0) & (g[1:] < 0))[0]
    if sign_change.size == 0:
        raise ModelInvalidError("no upper-envelope equilibrium found")
    i = sign_change[-1]
    if runmax[i] > b.value(u[i]) + 1e-12 * max(1.0, peak):
        level = runmax[i] / d      # flat stretch: analytic crossing
    else:
        from scipy.optimize import brentq

        level = brentq(lambda x: b.value(x) - d * x, u[i], u[i + 1],
                       xtol=1e-14, rtol=8.9e-16)
    grid = np.linspace(0.0, level, GRID_POINTS)
    upper_vals = np.maximum.accumulate(b.value(grid))
    lower_vals = np.minimum.accumulate(b.value(grid)[::-1])[::-1]
    upper = TabularEnvelope(grid, upper_vals)
    lower = TabularEnvelope(grid, lower_vals)
    k = _largest_root(lambda x: lower.value(x) - d * x, level)
    return EnvelopePair(upper=upper, lower=lower, k=k, level=float(level),
                        domain_end=float(level))
