"""Closed-form upper/lower profiles and monotone birth envelopes.

The upper profile caps an exponential leading edge at the target level; the
lower profile subtracts a faster exponential and truncates at zero.  Both
satisfy the wave differential inequality away from their single kink; the
tests check it on kink-excluded grids with the exact derivatives of the
closed forms, and no command does.  For nonmonotone birth functions the
running-extrema envelopes and their equilibria (k, level) sandwich the
problem: `sandwich` builds the bounds of the envelope equations, which for
a monotone birth are its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import CharacteristicContext, RootPair, char_value
from .errors import ModelInvalidError
from .model import (GRID_POINTS, ModelSpec, RickerBirth, _bisect_root,
                    _scalar_or_array, birth_peak, equilibrium, quadratic_gap)

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


def build_lower(roots: RootPair, model: ModelSpec) -> LowerSolution:
    """Lower solution at the speed of the decay roots `roots`, with midpoint
    exponent ratio and the explicit q bound."""
    ctx = CharacteristicContext.from_model(model)
    lam1, lam2 = roots.lambda1, roots.lambda2
    ratio = lam2 / lam1
    if ratio < 1.0 + ETA_DEGENERACY_TOL:
        raise ModelInvalidError(
            f"decay roots nearly coincide (ratio {ratio:.3e}); speed too close "
            "to the threshold for an explicit lower solution")
    eta = 0.5 * (1.0 + min(2.0, ratio))
    depth = -char_value(eta * lam1, roots.c, ctx)
    if depth <= 0:
        raise ModelInvalidError("characteristic value not negative between roots")
    K = equilibrium(model)
    L = quadratic_gap(model, K)
    bp0 = model.birth.derivative_at_zero
    q = (3.0 * lam1 * bp0 + L) / depth + 1.0 + K
    return LowerSolution(lam1=lam1, eta=eta, q=q)


# ---------------------------------------------------------------------------
# birth envelopes for the nonmonotone case

class _Envelope:
    """A monotone envelope of the birth `base`: near 0 the envelopes
    coincide with it, so they take its derivative and curvature there."""

    def __init__(self, base):
        self.base = base

    @property
    def derivative_at_zero(self):
        return self.base.derivative_at_zero

    @property
    def curvature_at_zero(self):
        return self.base.curvature_at_zero


class RickerEnvelope(_Envelope):
    """min(b(min(u, 1)), floor) for a Ricker birth b: its running maximum
    with the default floor, its suffix minimum over [u, level] with floor
    b(level)."""

    def __init__(self, base: RickerBirth, floor: float = math.inf):
        super().__init__(base)
        self.floor = float(floor)

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


class TabularEnvelope(_Envelope):
    """Envelope stored as a dense table, linearly interpolated (shape safe).

    It takes b'(0) and b''(0) from the base birth: the table's first secant
    would fall short of b'(0) and fail the strict gap hypothesis on the
    first cell.
    """

    def __init__(self, u, vals, base):
        super().__init__(base)
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


@dataclass
class EnvelopePair:
    """Monotone envelopes of the birth function with their equilibria."""

    upper: object
    lower: object
    k: float
    level: float        # largest root of upper-envelope(u) = d*u

    def lower_model(self, model: ModelSpec) -> ModelSpec:
        return ModelSpec(d=model.d, birth=self.lower, delay=model.delay)


def sandwich(model: ModelSpec, roots: RootPair, monotone: bool) -> tuple:
    """(upper, lower, pair) at the speed of `roots`, `pair` the envelopes:
    the exponential capped at the upper-envelope equilibrium, and the lower
    solution of the lower-envelope equation, whose birth lies under the
    model's (S. Ma, J. Differential Equations 237 (2007)).  A birth that
    `validate_hypotheses` calls `monotone` is its own envelope, k = level =
    K: these are its own bounds.
    """
    pair = build_envelopes(model, monotone)
    return (UpperSolution(roots.lambda1, pair.level),
            build_lower(roots, pair.lower_model(model)), pair)


def build_envelopes(model: ModelSpec, monotone: bool) -> EnvelopePair:
    """Running-max / suffix-min envelopes and their equilibria.

    A birth that `validate_hypotheses` calls `monotone` is its own pair with
    k = level = K.  Otherwise the working level is the largest root of
    running-max(b)(u) = d*u, the birth peak for d = 1, and k the
    equilibrium of the suffix minimum over [u, level] against d*u.
    """
    b, d = model.birth, model.d
    K = equilibrium(model)
    if monotone:
        return EnvelopePair(upper=b, lower=b, k=K, level=K)

    if isinstance(b, RickerBirth):
        # nonmonotone, so K > 1 and level = exp(K - 1) lies past the peak
        level = b.p / (d * math.e)
        upper, lower = RickerEnvelope(b), RickerEnvelope(b, b.value(level))
    else:
        upper, lower, level = _tabular_envelopes(model, K)
    # the root validate_hypotheses finds for the lower-envelope model
    k = equilibrium(ModelSpec(d=d, birth=lower, delay=model.delay))
    pair = EnvelopePair(upper=upper, lower=lower, k=k, level=level)

    if not (0.0 < pair.k <= K + 1e-9 and K <= pair.level + 1e-9):
        raise ModelInvalidError(
            f"envelope equilibria out of order: k={pair.k}, K={K}, level={pair.level}")
    return pair


def _tabular_envelopes(model: ModelSpec, K: float) -> tuple:
    """(upper, lower, level): the running extrema of b tabulated on [0, level]."""
    b, d = model.birth, model.d
    peak = birth_peak(model)
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
        level = _bisect_root(lambda x: b.value(x) - d * x, u[i], u[i + 1])
    grid = np.linspace(0.0, level, GRID_POINTS)
    upper_vals = np.maximum.accumulate(b.value(grid))
    lower_vals = np.minimum.accumulate(b.value(grid)[::-1])[::-1]
    return (TabularEnvelope(grid, upper_vals, b),
            TabularEnvelope(grid, lower_vals, b), float(level))
