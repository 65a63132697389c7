"""Reference computations the benchmark checks sdwave's outputs against.

Everything here is written apart from sdwave and imports nothing from it:
the threshold speed comes from Newton's method on the double-root system
rather than from sdwave's golden-section/bisection search, and the wave
residual, front-speed fit and spreading cone are recomputed from the files
the CLI writes.
"""
from __future__ import annotations

import math

import numpy as np


def ricker(p, u):
    """Ricker birth b(u) = p u exp(-u)."""
    return p * u * np.exp(-u)


def rational_tau(m, M, u):
    """Saturating rational lag tau(u) = m + (M - m) u / (1 + u)."""
    return m + (M - m) * u / (1.0 + u)


def equilibrium(p, d=1.0):
    """Positive equilibrium of the Ricker model: b(K) = d K."""
    return math.log(p / d)


def envelope_levels(p, d=1.0):
    """(level, k) of the Ricker birth envelopes for a nonmonotone model.

    level is the upper-envelope equilibrium p / (e d); k = b(level) / d is
    where the lower envelope, flat at b(level) past the peak, meets d u.
    """
    level = p / (math.e * d)
    return level, float(ricker(p, level)) / d


def simulation_level(p, d=1.0):
    """Band top of a delay run started from a step at the equilibrium K.

    The larger of K and the peak of b over [0, K], also divided by d: the
    peak is b(1) = p/e when K > 1 and b(K) otherwise.
    """
    K = equilibrium(p, d)
    peak = p / math.e if K > 1.0 else float(ricker(p, K))
    return max(peak / d, peak, K)


def char_value(lam, c, d, growth, lag0):
    """lam^2 - c lam - d + b'(0) exp(-lam c m), with m = tau(0)."""
    return lam * lam - c * lam - d + growth * math.exp(-lam * c * lag0)


def critical_speed(d, growth, lag0, iters=100):
    """Threshold speed c* and double root lam* by Newton on (F, dF/dlam) = 0.

    Starts from the zero-lag closed form c = 2 sqrt(b'(0) - d),
    lam = sqrt(b'(0) - d), which is exact when the lag vanishes.  The
    characteristic function is strictly convex in lam and decreasing in c
    for lam > 0, so a positive double root is the threshold.
    """
    if growth <= d:
        raise ValueError("needs b'(0) > d")
    lam = math.sqrt(growth - d)
    c = 2.0 * lam
    for _ in range(iters):
        e = math.exp(-lam * c * lag0)
        F = lam * lam - c * lam - d + growth * e
        G = 2.0 * lam - c - growth * c * lag0 * e
        F_lam, F_c = G, -lam - growth * lam * lag0 * e
        G_lam = 2.0 + growth * (c * lag0) ** 2 * e
        G_c = -1.0 - growth * lag0 * e + growth * c * lag0 * lam * lag0 * e
        det = F_lam * G_c - F_c * G_lam
        dlam = (F * G_c - F_c * G) / det
        dc = (F_lam * G - F * G_lam) / det
        lam -= dlam
        c -= dc
        if abs(dlam) <= 1e-16 * abs(lam) and abs(dc) <= 1e-16 * abs(c):
            break
    if not (lam > 0.0 and c > 0.0):
        raise ArithmeticError(f"Newton left the positive quadrant: {lam}, {c}")
    return c, lam


def wave_residual(xi, phi, c, p, m, M, d=1.0):
    """Sup-norm residual of phi'' - c phi' - d phi + b(phi(xi - c tau(phi))).

    Central differences on the stored grid; lagged values by linear
    interpolation, with the profile held constant beyond its ends; two
    cells dropped at each end.
    """
    xi = np.asarray(xi, dtype=float)
    phi = np.asarray(phi, dtype=float)
    h = (xi[-1] - xi[0]) / (xi.shape[0] - 1)
    inner = phi[1:-1]
    d2 = (phi[2:] - 2.0 * inner + phi[:-2]) / (h * h)
    d1 = (phi[2:] - phi[:-2]) / (2.0 * h)
    lagged = np.interp(xi[1:-1] - c * rational_tau(m, M, inner), xi, phi,
                       left=phi[0], right=phi[-1])
    r = d2 - c * d1 - d * inner + ricker(p, lagged)
    return float(np.max(np.abs(r[1:-1])))


def trailing_slope(times, positions, window_fraction=0.5):
    """Least-squares slope of positions against times over the trailing window."""
    t = np.asarray(times, dtype=float)
    x = np.asarray(positions, dtype=float)
    keep = int(math.ceil(t.shape[0] * window_fraction))
    t, x = t[-keep:], x[-keep:]
    tc = t - t.mean()
    return float(np.dot(tc, x - x.mean()) / np.dot(tc, tc))


def cone_extrema(x, times, fields, speed):
    """Min and max of the fields over |x| < speed t across the last quarter of times."""
    start = int(math.floor(0.75 * len(times)))
    lo, hi = math.inf, -math.inf
    for t, u in zip(times[start:], fields[start:]):
        inside = np.abs(x) < speed * t
        if inside.any():
            lo = min(lo, float(u[inside].min()))
            hi = max(hi, float(u[inside].max()))
    return lo, hi
