import math

import numpy as np
import pytest

from sdwave import bounds, dispersion, model, profile


@pytest.fixture(scope="session")
def ricker2():
    """Monotone test model: ricker p=2, d=1, saturating rational lag."""
    return model.ModelSpec(d=1.0, birth=model.RickerBirth(2.0),
                           delay=model.RationalDelay(0.2, 0.7))


@pytest.fixture(scope="session")
def ricker3():
    """Nonmonotone test model: ricker p=3, d=1, same lag family."""
    return model.ModelSpec(d=1.0, birth=model.RickerBirth(3.0),
                           delay=model.RationalDelay(0.2, 0.7))


@pytest.fixture(scope="session")
def kpp():
    """Zero-lag reduction: ricker p=2, d=1, tau = 0."""
    return model.ModelSpec(d=1.0, birth=model.RickerBirth(2.0),
                           delay=model.RationalDelay(0.0, 0.0))


@pytest.fixture(scope="session")
def ricker2_ctx(ricker2):
    return dispersion.CharacteristicContext.from_model(ricker2)


@pytest.fixture(scope="session")
def ricker2_speed(ricker2_ctx):
    return dispersion.critical_speed(ricker2_ctx)


@pytest.fixture(scope="session")
def ricker2_cstar(ricker2_speed):
    return ricker2_speed.c_star


@pytest.fixture(scope="session")
def ricker3_cstar(ricker3):
    ctx = dispersion.CharacteristicContext.from_model(ricker3)
    return dispersion.critical_speed(ctx).c_star


@pytest.fixture(scope="session")
def ricker2_solution(ricker2, ricker2_cstar):
    """Converged monotone wave at c = 1.2 c*, h = 0.01 (shared, read-only)."""
    cfg = profile.SolverConfig(h=0.01)
    return profile.solve(ricker2, 1.2 * ricker2_cstar, cfg)


@pytest.fixture(scope="session")
def ricker3_solution(ricker3, ricker3_cstar):
    """Converged nonmonotone wave at c = 1.2 c*, h = 0.01 (shared, read-only)."""
    cfg = profile.SolverConfig(h=0.01)
    return profile.solve(ricker3, 1.2 * ricker3_cstar, cfg)


GRID_GEOMETRY = profile._grid_geometry


def widths(monkeypatch, left=None, right=None):
    """Substitute the profile grid's left and/or right width: the solver's
    own geometry with only the widths given replaced, h and the size check
    as it computes them.  A later call replaces an earlier one."""
    def geometry(*args, **kwargs):
        h, own_left, own_right = GRID_GEOMETRY(*args, **kwargs)
        return (h, own_left if left is None else float(left),
                own_right if right is None else float(right))

    monkeypatch.setattr(profile, "_grid_geometry", geometry)


def closed_form_bounds(c, m, level=None):
    """(upper, lower): the closed-form sandwich of model m at speed c, built
    as the solvers build it from one decay-root solve; the upper bound's
    plateau is `level`, by default the equilibrium K."""
    roots = dispersion.decay_roots(
        c, dispersion.CharacteristicContext.from_model(m))
    if level is None:
        level = model.equilibrium(m)
    return (bounds.UpperSolution(roots.lambda1, level),
            bounds.build_lower(roots, m))


def bound_derivatives(bound, xi):
    """(phi', phi'') of a closed-form bound at xi, exact off its kink: from
    (lam1, level) for the upper bound, from (lam1, eta, q) for the lower."""
    xi = np.asarray(xi, dtype=float)
    lam = bound.lam1
    if isinstance(bound, bounds.UpperSolution):
        exp_branch = lam * xi < math.log(bound.level)
        return (np.where(exp_branch, lam * np.exp(lam * xi), 0.0),
                np.where(exp_branch, lam**2 * np.exp(lam * xi), 0.0))
    eta, q = bound.eta, bound.q
    left = xi < bound.xi0
    x = np.minimum(xi, bound.xi0)
    return (np.where(left, lam * np.exp(lam * x)
                     - q * eta * lam * np.exp(eta * lam * x), 0.0),
            np.where(left, lam**2 * np.exp(lam * x)
                     - q * (eta * lam)**2 * np.exp(eta * lam * x), 0.0))


def wave_inequality_residuals(bound, c, m, xi):
    """phi'' - c phi' - d phi + b(phi(xi - c tau(phi(xi)))) at the points xi:
    at most 0 for an upper solution, at least 0 for a lower one."""
    xi = np.asarray(xi, dtype=float)
    vals = bound.value(xi)
    delayed = bound.value(xi - c * m.delay.tau(vals))
    d1, d2 = bound_derivatives(bound, xi)
    return d2 - c * d1 - m.d * vals + m.birth.value(delayed)


def kink_excluded_grid(lo, hi, n, kinks):
    """n uniform points on [lo, hi] minus those within two cells of a kink."""
    xi = np.linspace(lo, hi, n)
    radius = 2.0 * (hi - lo) / (n - 1)
    keep = np.ones(n, dtype=bool)
    for t in kinks:
        keep &= np.abs(xi - t) > radius
    return xi[keep]


def step_datum(loc, low, high):
    """The initial step: `high` at x <= loc, `low` beyond it."""
    return lambda x: np.where(x <= loc, float(high), float(low))


def bisect(f, lo, hi, n=200):
    """Plain bisection oracle, independent of the library's root solvers."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0, "oracle bracket must change sign"
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def golden_max(f, lo, hi, tol=1e-12):
    """Golden-section maximization oracle."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)
