"""Tests of the benchmark's own reference computations and of its tracer.

    python3 -m pytest perfbench
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import tracing

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("d, growth", [(1.0, 2.0), (1.0, 3.0), (0.5, 4.0), (2.0, 2.1)])
def test_critical_speed_zero_lag_closed_form(d, growth):
    c, lam = oracles.critical_speed(d, growth, 0.0)
    assert c == pytest.approx(2.0 * math.sqrt(growth - d), rel=1e-8)
    assert lam == pytest.approx(math.sqrt(growth - d), rel=1e-8)


@pytest.mark.parametrize("growth, lag0", [(2.0, 0.2), (3.0, 0.2), (2.0, 0.5), (5.0, 1.0)])
def test_critical_speed_is_a_double_root(growth, lag0):
    c, lam = oracles.critical_speed(1.0, growth, lag0)
    assert abs(oracles.char_value(lam, c, 1.0, growth, lag0)) <= 1e-12
    step = 1e-4
    for other in (lam - step, lam + step):   # lam minimises the convex function at c
        assert oracles.char_value(other, c, 1.0, growth, lag0) > 0.0
    assert min(oracles.char_value(x, 0.99 * c, 1.0, growth, lag0)
               for x in np.linspace(0.01, 3.0 * lam, 2001)) > 0.0


def test_residual_vanishes_on_constant_profiles():
    xi = np.linspace(-20.0, 20.0, 401)
    assert oracles.wave_residual(xi, np.zeros_like(xi), 1.7, 2.0, 0.2, 0.7) == 0.0
    K = oracles.equilibrium(2.0)
    assert oracles.wave_residual(xi, np.full_like(xi, K), 1.7, 2.0, 0.2, 0.7) <= 1e-12


def test_residual_sees_a_perturbation():
    xi = np.linspace(-20.0, 20.0, 401)
    phi = np.full_like(xi, oracles.equilibrium(2.0))
    phi[200] += 1e-3
    assert oracles.wave_residual(xi, phi, 1.7, 2.0, 0.2, 0.7) > 1e-2


def test_trailing_slope_recovers_a_line():
    t = np.linspace(0.0, 80.0, 4001)
    x = 1.4848 * t - 3.0 + np.where(t < 40.0, np.sin(t), 0.0)
    assert oracles.trailing_slope(t, x) == pytest.approx(1.4848, rel=1e-12)


def test_cone_extrema_uses_the_last_quarter_inside_the_cone():
    x = np.linspace(-10.0, 10.0, 21)
    times = [0.0, 1.0, 2.0, 3.0]
    fields = [np.full_like(x, 5.0), np.full_like(x, 5.0), np.full_like(x, 5.0),
              np.where(np.abs(x) < 3.0, 1.0, 9.0)]
    assert oracles.cone_extrema(x, times, fields, 1.0) == (1.0, 1.0)


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(SRC))
    try:
        from sdwave import cli, dispersion, profile
    finally:
        sys.path.remove(str(SRC))
    original = dispersion.choose_beta
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.find_wrappers()
        assert profile.choose_beta is dispersion.choose_beta is not original
        ctx = dispersion.CharacteristicContext(d=1.0, growth_at_zero=2.0, lag_at_zero=0.0)
        dispersion.critical_speed(ctx)
    finally:
        tracer.restore()
    assert tracing.find_wrappers() == []
    assert profile.choose_beta is dispersion.choose_beta is original
    assert not getattr(cli._sweep_row, tracing.MARK, False)
    stats = tracer.stats
    assert stats["dispersion.critical_speed"].calls == 1
    assert stats["dispersion.char_min"].calls > 10
    outer = stats["dispersion.critical_speed"]
    assert outer.self <= outer.total
