"""Characteristic function of the leading-edge linearization and its roots.

The front-edge linearization of the wave equation yields
char(lam, c) = lam^2 - c*lam - d + b'(0) * exp(-lam*c*m), whose threshold
speed (where the minimum over lam first touches zero) separates speeds with
a pair of positive decay roots from speeds with none.  The exponent uses the
moving-frame lag c*m.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelInvalidError, NoRootsError
from .model import (ModelSpec, _bisect_root, _scalar_or_array, equilibrium,
                    sup_delay_slope)

ROOT_RESIDUAL_TOL = 1e-12
BISECTION_TOL = 1e-10
MAX_BRACKET_STEPS = 4000     # cap on golden-section and bisection steps
# Above this, lam^2 overflows on the speed bracket: lam reaches about
# 2^12 * sqrt(d + b'(0)) there.
MAX_RATE_SUM = 1e300
BETA_SAFETY = 1.01
L_BOUND_INFLATION = 1.05


@dataclass(frozen=True)
class CharacteristicContext:
    """Parameters entering the leading-edge characteristic function."""

    d: float
    growth_at_zero: float      # b'(0)
    lag_at_zero: float         # tau(0)

    def __post_init__(self):
        for name in ("d", "growth_at_zero", "lag_at_zero"):
            if not math.isfinite(getattr(self, name)):
                raise ModelInvalidError(
                    f"characteristic context needs a finite {name}, got "
                    f"{getattr(self, name)}")
        if not self.d + self.growth_at_zero < MAX_RATE_SUM:
            raise ModelInvalidError(
                f"characteristic context needs d + b'(0) < {MAX_RATE_SUM:g}, "
                f"got {self.d} + {self.growth_at_zero}")
        if self.growth_at_zero <= self.d:
            raise ModelInvalidError(
                f"characteristic context needs b'(0) > d, got "
                f"{self.growth_at_zero} <= {self.d}")

    @classmethod
    def from_model(cls, model: ModelSpec):
        return cls(d=model.d,
                   growth_at_zero=model.birth.derivative_at_zero,
                   lag_at_zero=model.delay.tau(0.0))


@dataclass(frozen=True)
class SpeedResult:
    c_star: float
    lambda_star: float
    bracket: tuple
    tolerance: float


@dataclass(frozen=True)
class RootPair:
    lambda1: float
    lambda2: float
    c: float


@dataclass(frozen=True)
class KernelRates:
    """Exponents of the two-sided resolvent kernel for a given speed."""

    gamma1: float   # negative
    gamma2: float   # positive
    beta: float
    c: float


def char_value(lam, c: float, ctx: CharacteristicContext):
    """Evaluate the characteristic function at decay exponent lam, speed c."""
    lam = np.asarray(lam, dtype=float)
    lag = ctx.lag_at_zero * c
    out = lam**2 - c * lam - ctx.d + ctx.growth_at_zero * np.exp(-lam * lag)
    return _scalar_or_array(out)


def _char_slope(lam: float, c: float, ctx: CharacteristicContext) -> float:
    lag = ctx.lag_at_zero * c
    return 2.0 * lam - c - ctx.growth_at_zero * lag * math.exp(-lam * lag)


def _lambda_hi(c: float, ctx: CharacteristicContext) -> float:
    return c + 2.0 * math.sqrt(ctx.d + ctx.growth_at_zero)


def char_min(c: float, ctx: CharacteristicContext) -> tuple:
    """Global minimizer of char(., c) over (0, lambda_hi] and its value.

    The function is strictly convex in lam, so golden-section over
    [0, lambda_hi] followed by a Newton polish on the lam-derivative finds
    the unique minimum.  The bracket stops shrinking at 1e-10 or at four
    ulps of its upper end, whichever is larger, so huge coefficients cannot
    make the loop spin forever.
    """
    if c < 0:
        raise ValueError("speed must be nonnegative")
    lo, hi = 0.0, _lambda_hi(c, ctx)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = char_value(x1, c, ctx)
    f2 = char_value(x2, c, ctx)
    for _ in range(MAX_BRACKET_STEPS):
        if hi - lo <= max(1e-10, 4.0 * math.ulp(hi)):
            break
        if f1 > f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = char_value(x2, c, ctx)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = char_value(x1, c, ctx)
    else:
        raise _stalled("characteristic minimum")
    lam = 0.5 * (lo + hi)
    for _ in range(60):
        slope = _char_slope(lam, c, ctx)
        lag = ctx.lag_at_zero * c
        curve = 2.0 + ctx.growth_at_zero * lag * lag * math.exp(-lam * lag)
        step = slope / curve
        if not math.isfinite(step):
            break                  # curvature overflowed: keep the bracket midpoint
        lam_new = lam - step
        if lam_new < 0:
            lam_new = 0.5 * lam
        lam = lam_new
        if abs(step) < 1e-15 * max(1.0, lam):
            break
    return lam, char_value(lam, c, ctx)


def critical_speed(ctx: CharacteristicContext, tol: float = BISECTION_TOL) -> SpeedResult:
    """Threshold speed: bisection on the sign of the characteristic minimum.

    The zero-lag closed form 2*sqrt(b'(0) - d) plus one bounds the initial
    upper bracket; the bracket doubles (up to 2^10 times) if the predicate
    is not yet true there.  Bisection stops at `tol` or at four ulps of the
    upper end, whichever is larger.
    """
    c_lo = 1e-6
    if char_min(c_lo, ctx)[1] <= 0.0:
        raise ModelInvalidError(
            "characteristic minimum nonpositive at near-zero speed; "
            "context invalid")
    c_hi = 2.0 * math.sqrt(ctx.growth_at_zero - ctx.d) + 1.0
    doublings = 0
    while char_min(c_hi, ctx)[1] > 0.0:
        doublings += 1
        if doublings > 10:
            raise ModelInvalidError("no speed with nonpositive characteristic "
                                    "minimum found below bracket limit")
        c_hi = c_lo + 2.0 * (c_hi - c_lo)
    for _ in range(MAX_BRACKET_STEPS):
        if c_hi - c_lo <= max(tol, 4.0 * math.ulp(c_hi)):
            break
        mid = 0.5 * (c_lo + c_hi)
        if char_min(mid, ctx)[1] <= 0.0:
            c_hi = mid
        else:
            c_lo = mid
    else:
        raise _stalled("threshold speed bisection")
    c_star = 0.5 * (c_lo + c_hi)
    lam_star, _ = char_min(c_star, ctx)
    return SpeedResult(c_star=c_star, lambda_star=lam_star,
                       bracket=(c_lo, c_hi), tolerance=c_hi - c_lo)


def _stalled(what: str) -> ModelInvalidError:
    return ModelInvalidError(
        f"{what} did not converge in {MAX_BRACKET_STEPS} steps; "
        "model coefficients out of numerical range")


def decay_roots(c: float, ctx: CharacteristicContext) -> RootPair:
    """The two positive roots 0 < lambda1 < lambda2 for a supercritical speed."""
    lam_min, v_min = char_min(c, ctx)
    if v_min >= 0.0:
        raise NoRootsError(
            f"characteristic function has no positive roots at c={c:.12g} "
            "(speed at or below the threshold)")
    lam1 = _bisect_root(lambda x: char_value(x, c, ctx), 0.0, lam_min)
    hi = _lambda_hi(c, ctx)
    expansions = 0
    while char_value(hi, c, ctx) <= 0.0:
        hi *= 2.0
        expansions += 1
        if expansions > 60:
            raise NoRootsError("upper decay root bracket expansion failed")
    lam2 = _bisect_root(lambda x: char_value(x, c, ctx), lam_min, hi)
    lam1 = _newton_polish(lam1, c, ctx)
    lam2 = _newton_polish(lam2, c, ctx)
    if not (0.0 < lam1 < lam2):
        raise NoRootsError(f"root ordering failed: {lam1}, {lam2}")
    return RootPair(lambda1=lam1, lambda2=lam2, c=c)


def _newton_polish(lam: float, c: float, ctx: CharacteristicContext) -> float:
    for _ in range(100):
        val = char_value(lam, c, ctx)
        if abs(val) <= ROOT_RESIDUAL_TOL:
            break
        slope = _char_slope(lam, c, ctx)
        if slope == 0.0:
            break
        lam -= val / slope
    return lam


def speed_root_bounds(ctx: CharacteristicContext, c_lo: float, c_hi: float,
                      n: int = 200) -> tuple:
    """Inflated suprema of c*lambda1(c) and lambda1(c) over [c_lo, c_hi].

    The speeds are sampled on linspace(c_lo, c_hi, n).  Both suprema sit at
    the first supercritical sample, so the walk solves the roots there only:

    * lambda1 decreases in c.  At fixed lam > 0 the characteristic function
      decreases in c, and it falls through zero at lambda1, so the implicit
      derivative of lambda1 is negative.
    * With mu = c*lambda1 the root equation reads
      lambda1^2 = mu + d - b'(0) exp(-mu m), whose right side increases in
      mu.  So mu rises and falls with lambda1 and decreases in c as well.
    """
    for c in np.linspace(c_lo, c_hi, n):
        try:
            roots = decay_roots(float(c), ctx)
        except NoRootsError:
            continue
        return (L_BOUND_INFLATION * (c * roots.lambda1),
                L_BOUND_INFLATION * roots.lambda1)
    raise NoRootsError("no supercritical speeds in the requested range")


def kernel_rates(c: float, beta: float) -> KernelRates:
    disc = math.sqrt(c * c + 4.0 * beta)
    return KernelRates(gamma1=0.5 * (c - disc), gamma2=0.5 * (c + disc),
                       beta=beta, c=c)


def choose_beta(c: float, model: ModelSpec, range_end: float | None = None,
                ctx: CharacteristicContext | None = None,
                speed: SpeedResult | None = None) -> KernelRates:
    """Kernel rates at speed c with a beta meeting every solver constraint.

    With A = 1 + b'(0) * range_end * sup-slope(tau) over [0, range_end]:
    beta exceeds (by 1%) the largest of the smoothing bound, the
    monotonicity bound, three times the root bound times A, and d + 1.
    The iteration's sandwich and the membership certificate assume these
    bounds, so the solvers take their rates from here only.  `speed` is the
    threshold speed of `ctx`; it is computed when absent.
    """
    if ctx is None:
        ctx = CharacteristicContext.from_model(model)
    if range_end is None:
        range_end = equilibrium(model)
    T = sup_delay_slope(model, range_end)
    bp0 = model.birth.derivative_at_zero
    A = 1.0 + bp0 * range_end * T
    sr = speed if speed is not None else critical_speed(ctx)
    lo = sr.c_star * (1.0 + 1e-9)
    hi = max(c, 2.0 * sr.c_star)
    L1, _ = speed_root_bounds(ctx, lo, hi)
    try:
        beta = BETA_SAFETY * max(
            model.d * A + (A * c) ** 2 / 4.0,
            ((A * c) ** 2 + 4.0 * model.d) / 4.0,
            3.0 * L1 * A,
            model.d + 1.0,
        )
    except OverflowError:
        beta = math.inf
    if not math.isfinite(beta):
        raise ModelInvalidError(f"kernel parameter beta overflows at c={c:.9g}; "
                                "model coefficients out of numerical range")
    return kernel_rates(c, beta)
