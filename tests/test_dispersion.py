import math

import numpy as np
import pytest

from sdwave import dispersion, model
from sdwave.errors import ModelInvalidError, NoRootsError
from conftest import bisect


def ctx_of(d, bp0, m, mode="lambda_c_m"):
    return dispersion.CharacteristicContext(d=d, growth_at_zero=bp0,
                                            lag_at_zero=m, exponent_mode=mode)


def test_char_value_at_zero():
    c = ctx_of(1.0, 2.0, 0.7)
    for speed in (0.0, 1.0, 3.0):
        assert dispersion.char_value(0.0, speed, c) == pytest.approx(1.0, abs=1e-14)


def test_char_value_kpp_double_root():
    c = ctx_of(1.0, 2.0, 0.0)
    assert dispersion.char_value(1.0, 2.0, c) == pytest.approx(0.0, abs=1e-14)


def test_char_value_with_lag():
    c = ctx_of(1.0, 2.0, 1.0)
    expected = 1.0 - 2.0 - 1.0 + 2.0 * math.exp(-2.0)   # direct substitution
    got = dispersion.char_value(1.0, 2.0, c)
    assert got == pytest.approx(expected, abs=1e-14)
    assert got == pytest.approx(-1.72933, abs=1e-5)


def test_char_min_parabola_cases():
    c = ctx_of(1.0, 2.0, 0.0)
    lam, val = dispersion.char_min(2.0, c)
    assert lam == pytest.approx(1.0, abs=1e-9)
    assert val == pytest.approx(0.0, abs=1e-12)
    lam, val = dispersion.char_min(1.0, c)
    assert lam == pytest.approx(0.5, abs=1e-9)
    assert val == pytest.approx(0.75, abs=1e-12)


def test_char_min_matches_dense_scan():
    c = ctx_of(1.0, 2.0, 1.0)
    speed = 2.0
    grid = np.linspace(0.0, speed + 2.0 * math.sqrt(3.0), 1_000_001)
    vals = dispersion.char_value(grid, speed, c)
    i = int(np.argmin(vals))
    lam, val = dispersion.char_min(speed, c)
    assert lam == pytest.approx(grid[i], abs=1e-5)
    assert val <= vals[i] + 1e-12


def test_critical_speed_zero_lag_closed_form():
    assert dispersion.critical_speed(ctx_of(1.0, 2.0, 0.0)).c_star == \
        pytest.approx(2.0, abs=1e-8)
    assert dispersion.critical_speed(ctx_of(1.0, math.e, 0.0)).c_star == \
        pytest.approx(2.0 * math.sqrt(math.e - 1.0), abs=1e-8)


def test_lag_strictly_reduces_speed():
    c_star = dispersion.critical_speed(ctx_of(1.0, 2.0, 1.0)).c_star
    assert c_star < 2.0 - 1e-3


def test_zero_lag_reduction_random_contexts():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = rng.uniform(0.2, 3.0)
        bp0 = d + rng.uniform(0.1, 3.0)
        got = dispersion.critical_speed(ctx_of(d, bp0, 0.0)).c_star
        assert abs(got - 2.0 * math.sqrt(bp0 - d)) <= 1e-8


def test_decay_roots_quadratic_case():
    r = dispersion.decay_roots(2.5, ctx_of(1.0, 2.0, 0.0))
    assert r.lambda1 == pytest.approx(0.5, abs=1e-10)
    assert r.lambda2 == pytest.approx(2.0, abs=1e-10)


def test_between_roots_is_negative(ricker2_ctx, ricker2_cstar):
    r = dispersion.decay_roots(1.1 * ricker2_cstar, ricker2_ctx)
    mid = 0.5 * (r.lambda1 + r.lambda2)
    assert dispersion.char_value(mid, 1.1 * ricker2_cstar, ricker2_ctx) < 0


def test_roots_require_supercritical(ricker2_ctx, ricker2_cstar):
    with pytest.raises(NoRootsError):
        dispersion.decay_roots(0.9 * ricker2_cstar, ricker2_ctx)


def test_large_speed_root_limit():
    # c * lambda1(c) approaches the root of bp0 * exp(-m x) = x + d
    d, bp0, m = 1.0, 2.0, 0.4
    ctx = ctx_of(d, bp0, m)
    x_limit = bisect(lambda x: bp0 * math.exp(-m * x) - x - d, 0.0, bp0)
    c_star = dispersion.critical_speed(ctx).c_star
    c = 100.0 * c_star
    r = dispersion.decay_roots(c, ctx)
    assert c * r.lambda1 == pytest.approx(x_limit, abs=1e-3)
    # zero-lag sanity: the limit equation then gives bp0 - d
    assert bisect(lambda x: bp0 - x - d, 0.0, bp0) == pytest.approx(bp0 - d, abs=1e-12)


def test_sign_certificate_at_test_model(ricker2_ctx, ricker2_cstar):
    c = 1.1 * ricker2_cstar
    r = dispersion.decay_roots(c, ricker2_ctx)
    assert abs(dispersion.char_value(r.lambda1, c, ricker2_ctx)) <= 1e-10
    assert abs(dispersion.char_value(r.lambda2, c, ricker2_ctx)) <= 1e-10
    assert dispersion.char_value(0.5 * r.lambda1, c, ricker2_ctx) > 1e-8
    assert dispersion.char_value(0.5 * (r.lambda1 + r.lambda2), c, ricker2_ctx) < -1e-8
    assert dispersion.char_value(1.5 * r.lambda2, c, ricker2_ctx) > 1e-8


def test_min_value_strictly_decreasing_in_speed(ricker2_ctx, ricker2_cstar):
    speeds = np.linspace(0.5 * ricker2_cstar, 2.0 * ricker2_cstar, 100)
    vals = [dispersion.char_min(float(c), ricker2_ctx)[1] for c in speeds]
    assert np.all(np.diff(vals) < 0)


def test_root_monotonicity_in_speed(ricker2_ctx, ricker2_cstar):
    speeds = np.linspace(1.001 * ricker2_cstar, 2.0 * ricker2_cstar, 60)
    roots = [dispersion.decay_roots(float(c), ricker2_ctx) for c in speeds]
    l1 = np.array([r.lambda1 for r in roots])
    l2 = np.array([r.lambda2 for r in roots])
    assert np.all(np.diff(l1) < 0)
    assert np.all(np.diff(l2) > 0)


def test_root_bounds_over_speed_range(ricker2_ctx, ricker2_cstar):
    L1, L2 = dispersion.speed_root_bounds(ricker2_ctx, 1.001 * ricker2_cstar,
                                          10.0 * ricker2_cstar)
    for c in np.linspace(1.002 * ricker2_cstar, 10.0 * ricker2_cstar, 50):
        r = dispersion.decay_roots(float(c), ricker2_ctx)
        assert c * r.lambda1 < L1
        assert r.lambda1 < L2


class TestChooseBeta:
    def test_floor_terms_constant_delay(self):
        m = model.ModelSpec(d=1.0, birth=model.RickerBirth(2.0),
                            delay=model.ConstantDelay(0.0))
        kr = dispersion.choose_beta(2.5, m)
        assert kr.beta >= 2.02  # 1.01 * (d + 1) at the very least
        assert kr.beta > m.d

    def test_vieta_identities(self, ricker2, ricker2_cstar):
        K = model.equilibrium(ricker2)
        for c in (1.1 * ricker2_cstar, 1.7 * ricker2_cstar):
            kr = dispersion.choose_beta(c, ricker2, range_end=K)
            assert kr.gamma1 * kr.gamma2 == pytest.approx(-kr.beta, abs=1e-12 * kr.beta)
            assert kr.gamma1 + kr.gamma2 == pytest.approx(c, abs=1e-12)
            assert kr.gamma2 - kr.gamma1 == pytest.approx(
                math.sqrt(c * c + 4.0 * kr.beta), rel=1e-14)

    def test_beta_formula_floor(self, ricker2, ricker2_cstar):
        K = model.equilibrium(ricker2)
        T = model.sup_delay_slope(ricker2, K)
        A = 1.0 + 2.0 * K * T
        c = 1.2 * ricker2_cstar
        kr = dispersion.choose_beta(c, ricker2, range_end=K)
        assert kr.beta >= 1.01 * (ricker2.d * A + (A * c) ** 2 / 4.0) - 1e-12
        assert kr.beta >= 1.01 * (((A * c) ** 2 + 4.0 * ricker2.d) / 4.0) - 1e-12


def test_exponent_switch_changes_values():
    base = ctx_of(1.0, 2.0, 0.5)
    alt = ctx_of(1.0, 2.0, 0.5, mode="lambda_m")
    assert dispersion.char_value(1.0, 2.0, base) != \
        dispersion.char_value(1.0, 2.0, alt)
    # plain-lag variant at c=1 coincides with moving-frame variant by scaling
    assert dispersion.char_value(1.3, 1.0, base) == \
        pytest.approx(dispersion.char_value(1.3, 1.0, alt), abs=1e-14)


def dense_root_bounds(ctx, c_lo, c_hi, n=200):
    """The full 200-speed scan, kept as the reference for speed_root_bounds."""
    sup_cl = sup_l = 0.0
    for c in np.linspace(c_lo, c_hi, n):
        try:
            roots = dispersion.decay_roots(float(c), ctx)
        except NoRootsError:
            continue
        sup_cl = max(sup_cl, c * roots.lambda1)
        sup_l = max(sup_l, roots.lambda1)
    assert sup_cl > 0.0
    return (dispersion.L_BOUND_INFLATION * sup_cl,
            dispersion.L_BOUND_INFLATION * sup_l)


EXACT_SCAN_MODELS = [
    model.ModelSpec(d=1.0, birth=model.RickerBirth(p), delay=model.ConstantDelay(m))
    for p, m in ((2.0, 0.2), (3.0, 0.2), (2.0, 0.0), (5.0, 1.0))
] + [model.ModelSpec(d=1.0, birth=model.RickerBirth(2.0),
                     delay=model.RationalDelay(0.2, 0.7))]


@pytest.mark.parametrize("m", EXACT_SCAN_MODELS, ids=repr)
def test_root_bounds_equal_dense_scan(m, monkeypatch):
    ctx = dispersion.CharacteristicContext.from_model(m)
    sr = dispersion.critical_speed(ctx)
    lo, hi = sr.c_star * (1.0 + 1e-9), 2.0 * sr.c_star
    reference = dense_root_bounds(ctx, lo, hi)
    assert dispersion.speed_root_bounds(ctx, lo, hi) == reference
    K = model.equilibrium(m)
    for factor in (1.2, 2.0):
        c = factor * sr.c_star
        fast = dispersion.choose_beta(c, m, range_end=K, ctx=ctx)
        with monkeypatch.context() as patch:
            patch.setattr(dispersion, "speed_root_bounds", dense_root_bounds)
            slow = dispersion.choose_beta(c, m, range_end=K, ctx=ctx)
        assert fast.beta == slow.beta


def test_root_bounds_lambda_m_mode_scans_every_speed():
    ctx = ctx_of(1.0, 2.0, 0.5, mode="lambda_m")
    c_star = dispersion.critical_speed(ctx).c_star
    lo, hi = 1.001 * c_star, 3.0 * c_star
    assert dispersion.speed_root_bounds(ctx, lo, hi, n=40) == \
        dense_root_bounds(ctx, lo, hi, n=40)


def test_choose_beta_solves_few_decay_roots(ricker2, ricker2_cstar, monkeypatch):
    calls = []
    original = dispersion.decay_roots

    def counting(c, ctx):
        calls.append(c)
        return original(c, ctx)

    monkeypatch.setattr(dispersion, "decay_roots", counting)
    dispersion.choose_beta(1.2 * ricker2_cstar, ricker2)
    assert 1 <= len(calls) <= 2


def test_choose_beta_reuses_given_speed(ricker2, ricker2_ctx, ricker2_cstar,
                                        monkeypatch):
    sr = dispersion.critical_speed(ricker2_ctx)
    expected = dispersion.choose_beta(1.2 * ricker2_cstar, ricker2)

    def forbidden(*args, **kwargs):
        raise AssertionError("critical_speed recomputed")

    monkeypatch.setattr(dispersion, "critical_speed", forbidden)
    got = dispersion.choose_beta(1.2 * ricker2_cstar, ricker2, speed=sr)
    assert got == expected


def test_scalar_loops_are_capped(monkeypatch):
    ctx = ctx_of(1.0, 2.0, 0.5)
    monkeypatch.setattr(dispersion, "MAX_BRACKET_STEPS", 5)
    with pytest.raises(ModelInvalidError, match="did not converge"):
        dispersion.char_min(2.0, ctx)
    # a stand-in minimum whose sign flips at c = 1: bisection to 1e-10 from
    # the bracket [1e-6, 2 + 1] needs about 35 steps
    monkeypatch.setattr(dispersion, "MAX_BRACKET_STEPS", 20)
    monkeypatch.setattr(dispersion, "char_min", lambda c, ctx: (1.0, 1.0 - c))
    with pytest.raises(ModelInvalidError, match="threshold speed bisection"):
        dispersion.critical_speed(ctx)


def test_huge_brackets_stop_on_ulp_floor():
    # lambda_hi is about 2e15 here: its spacing in floating point exceeds the
    # 1e-10 tolerance, so only the ulp floor can end the golden section
    ctx = ctx_of(1.0, 1e30, 0.0)
    lam, val = dispersion.char_min(1e15, ctx)
    assert lam == pytest.approx(5e14, rel=1e-9)
    assert dispersion.critical_speed(ctx).c_star == pytest.approx(2e15, rel=1e-12)


@pytest.mark.parametrize("field", ["d", "growth_at_zero", "lag_at_zero"])
def test_context_rejects_nonfinite(field):
    values = {"d": 1.0, "growth_at_zero": 2.0, "lag_at_zero": 0.2}
    values[field] = math.nan
    with pytest.raises(ModelInvalidError, match=field):
        dispersion.CharacteristicContext(**values)


def test_context_rejects_overflowing_rates():
    with pytest.raises(ModelInvalidError, match="b'\\(0\\)"):
        ctx_of(1.0, 1e308, 0.0)
