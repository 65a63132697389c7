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
from .model import ModelSpec, _bisect_root, _scalar_or_array, lag_factor

# Bound on S = d + b'(0).  The speed bracket ends at 2 sqrt(S) + 1, where
# lambda_hi is at most 4 sqrt(S) + 1, so lam^2 stays below about 16 S.
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
    """Threshold speed c*, the double root lambda* there, and the residuals
    of char = 0 and d char / d lam = 0 at (lambda*, c*)."""

    c_star: float
    lambda_star: float
    char_residual: float
    slope_residual: float


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
    pull = ctx.growth_at_zero * lag * math.exp(-lam * lag)
    if math.isnan(pull):
        # b'(0) lag overflowed where exp(-lam lag) underflowed: add the logs
        x = math.log(ctx.growth_at_zero) + math.log(lag) - lam * lag
        pull = math.inf if x > 709.0 else math.exp(x)
    return 2.0 * lam - c - pull


def _lambda_hi(c: float, ctx: CharacteristicContext) -> float:
    return c + 2.0 * math.sqrt(ctx.d + ctx.growth_at_zero)


def char_min(c: float, ctx: CharacteristicContext) -> tuple:
    """Global minimizer of char(., c) over [0, lambda_hi] and its value.

    char is strictly convex in lam (char'' = 2 + b'(0) L^2 exp(-lam L) with
    L = c tau(0)), so the minimizer is the sign change of the increasing
    slope, or 0 when the slope is nonnegative there.  The slope is positive
    at lambda_hi, since b'(0) L exp(-lam L) <= b'(0) / (e lam).
    """
    if c < 0:
        raise ValueError("speed must be nonnegative")
    slope = lambda lam: _char_slope(lam, c, ctx)
    lam = 0.0 if slope(0.0) >= 0.0 else _bisect_root(slope, 0.0, _lambda_hi(c, ctx))
    return lam, char_value(lam, c, ctx)


def critical_speed(ctx: CharacteristicContext) -> SpeedResult:
    """Threshold speed: the sign change of the characteristic minimum in c.

    The lag term only lowers char, so the minimum is at most its zero-lag
    value b'(0) - d - c^2/4, and c* is at most 2 sqrt(b'(0) - d): the
    bracket [1e-6, 2 sqrt(b'(0) - d) + 1] holds the sign change.  The result
    carries the residuals of char = 0 and d char / d lam = 0 at
    (lambda*, c*).
    """
    c_lo = 1e-6
    minimum = lambda c: char_min(c, ctx)[1]
    if minimum(c_lo) <= 0.0:
        raise ModelInvalidError(
            "characteristic minimum nonpositive at near-zero speed; "
            "context invalid")
    c_hi = 2.0 * math.sqrt(ctx.growth_at_zero - ctx.d) + 1.0
    c_star = _bisect_root(minimum, c_lo, c_hi)
    lam_star, value = char_min(c_star, ctx)
    return SpeedResult(c_star=c_star, lambda_star=lam_star, char_residual=value,
                       slope_residual=_char_slope(lam_star, c_star, ctx))


def decay_roots(c: float, ctx: CharacteristicContext) -> RootPair:
    """The two positive roots 0 < lambda1 < lambda2 for a supercritical speed."""
    lam_min, v_min = char_min(c, ctx)
    if v_min >= 0.0:
        raise NoRootsError(
            f"characteristic function has no positive roots at c={c:.12g} "
            "(speed at or below the threshold)")
    lam1 = _bisect_root(lambda x: char_value(x, c, ctx), 0.0, lam_min)
    # S = d + b'(0): char(lambda_hi) > lambda_hi (lambda_hi - c) - d >= 4S - d
    # > 0, but in floats lambda_hi rounds onto c once c > ~1e16 sqrt(S); then
    # char(2 lambda_hi) > 2 lambda_hi^2 - d > 0, so one doubling suffices
    hi = _lambda_hi(c, ctx)
    if char_value(hi, c, ctx) <= 0.0:
        hi *= 2.0
    lam2 = _bisect_root(lambda x: char_value(x, c, ctx), lam_min, hi)
    if not (0.0 < lam1 < lam2):
        raise NoRootsError(f"root ordering failed: {lam1}, {lam2}")
    return RootPair(lambda1=lam1, lambda2=lam2, c=c)


def kernel_rates(c: float, beta: float) -> KernelRates:
    disc = math.sqrt(c * c + 4.0 * beta)
    return KernelRates(gamma1=0.5 * (c - disc), gamma2=0.5 * (c + disc),
                       beta=beta, c=c)


def choose_beta(c: float, model: ModelSpec, range_end: float,
                speed: SpeedResult) -> KernelRates:
    """Kernel rates at speed c with a beta meeting every solver constraint.

    With A = lag_factor(model, range_end): beta exceeds (by 1%) the largest
    of the smoothing bound, the monotonicity bound, three times the root
    bound L1 times A, and d + 1.  L1 inflates the supremum of c*lambda1(c)
    over supercritical speeds, which is its limit c* lambda* at the
    threshold, because c*lambda1(c) decreases in c:

    * lambda1 decreases in c.  At fixed lam > 0 the characteristic function
      decreases in c, and it falls through zero at lambda1, so the implicit
      derivative of lambda1 is negative.
    * With mu = c*lambda1 the root equation reads
      lambda1^2 = mu + d - b'(0) exp(-mu m), whose right side increases in
      mu.  So mu rises and falls with lambda1 and decreases in c as well.

    The iteration's sandwich and the membership certificate assume these
    bounds, so the solvers take their rates from here only.  `speed` is the
    model's threshold speed.
    """
    A = lag_factor(model, range_end)
    L1 = L_BOUND_INFLATION * speed.c_star * speed.lambda_star
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
