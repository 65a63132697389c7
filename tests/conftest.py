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
                           delay=model.ConstantDelay(0.0))


@pytest.fixture(scope="session")
def ricker2_ctx(ricker2):
    return dispersion.CharacteristicContext.from_model(ricker2)


@pytest.fixture(scope="session")
def ricker2_cstar(ricker2_ctx):
    return dispersion.critical_speed(ricker2_ctx).c_star


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
    cfg = profile.SolverConfig(h=0.01, damping=0.5)
    return profile.solve(ricker3, 1.2 * ricker3_cstar, cfg)


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
