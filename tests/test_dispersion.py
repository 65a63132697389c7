import math
import time

import numpy as np
import pytest

from sdwave import dispersion, model
from sdwave.errors import ModelInvalidError
from conftest import bisect


def ctx_of(d, bp0, m):
    return dispersion.CharacteristicContext(d=d, growth_at_zero=bp0, lag_at_zero=m)


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
    assert dispersion.critical_speed(ctx_of(1.0, 2.0, 0.0)).c_star == 2.0
    want = 2.0 * math.sqrt(math.e - 1.0)
    got = dispersion.critical_speed(ctx_of(1.0, math.e, 0.0)).c_star
    assert abs(got - want) <= math.ulp(want)


def test_lag_strictly_reduces_speed():
    c_star = dispersion.critical_speed(ctx_of(1.0, 2.0, 1.0)).c_star
    assert c_star < 2.0 - 1e-3


def test_zero_lag_reduction_random_contexts():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = rng.uniform(0.2, 3.0)
        bp0 = d + rng.uniform(0.1, 3.0)
        got = dispersion.critical_speed(ctx_of(d, bp0, 0.0)).c_star
        # the sign of char_min is rounding noise within a few ulps of c*
        assert got == pytest.approx(2.0 * math.sqrt(bp0 - d), rel=1e-14)


def test_decay_roots_quadratic_case():
    r = dispersion.decay_roots(2.5, ctx_of(1.0, 2.0, 0.0))
    assert r.lambda1 == pytest.approx(0.5, abs=1e-10)
    assert r.lambda2 == pytest.approx(2.0, abs=1e-10)


def test_between_roots_is_negative(ricker2_ctx, ricker2_cstar):
    r = dispersion.decay_roots(1.1 * ricker2_cstar, ricker2_ctx)
    mid = 0.5 * (r.lambda1 + r.lambda2)
    assert dispersion.char_value(mid, 1.1 * ricker2_cstar, ricker2_ctx) < 0


def test_roots_require_supercritical(ricker2_ctx, ricker2_cstar):
    with pytest.raises(ModelInvalidError, match="no positive roots"):
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


def test_root_bounds_over_speed_range(ricker2_ctx):
    sr = dispersion.critical_speed(ricker2_ctx)
    L1 = dispersion.L_BOUND_INFLATION * sr.c_star * sr.lambda_star
    L2 = dispersion.L_BOUND_INFLATION * sr.lambda_star
    for c in np.linspace(1.002 * sr.c_star, 10.0 * sr.c_star, 50):
        r = dispersion.decay_roots(float(c), ricker2_ctx)
        assert c * r.lambda1 < L1
        assert r.lambda1 < L2


class TestChooseBeta:
    def test_floor_terms_constant_delay(self):
        m = model.ModelSpec(d=1.0, birth=model.RickerBirth(2.0),
                            delay=model.RationalDelay(0.0, 0.0))
        sr = dispersion.critical_speed(
            dispersion.CharacteristicContext.from_model(m))
        kr = dispersion.choose_beta(2.5, m, range_end=model.equilibrium(m),
                                    speed=sr)
        assert kr.beta >= 2.02  # 1.01 * (d + 1) at the very least
        assert kr.beta > m.d

    def test_vieta_identities(self, ricker2, ricker2_speed):
        K = model.equilibrium(ricker2)
        for c in (1.1 * ricker2_speed.c_star, 1.7 * ricker2_speed.c_star):
            kr = dispersion.choose_beta(c, ricker2, range_end=K,
                                        speed=ricker2_speed)
            assert kr.gamma1 * kr.gamma2 == pytest.approx(-kr.beta, abs=1e-12 * kr.beta)
            assert kr.gamma1 + kr.gamma2 == pytest.approx(c, abs=1e-12)
            assert kr.gamma2 - kr.gamma1 == pytest.approx(
                math.sqrt(c * c + 4.0 * kr.beta), rel=1e-14)

    def test_beta_formula_floor(self, ricker2, ricker2_speed):
        K = model.equilibrium(ricker2)
        T = ricker2.delay.slope_sup()
        A = 1.0 + 2.0 * K * T
        c = 1.2 * ricker2_speed.c_star
        kr = dispersion.choose_beta(c, ricker2, range_end=K, speed=ricker2_speed)
        assert kr.beta >= 1.01 * (ricker2.d * A + (A * c) ** 2 / 4.0) - 1e-12
        assert kr.beta >= 1.01 * (((A * c) ** 2 + 4.0 * ricker2.d) / 4.0) - 1e-12


def dense_root_bounds(ctx, c_lo, c_hi, n=200):
    """Inflated suprema of c*lambda1(c) and lambda1(c) over a 200-speed scan,
    the reference that choose_beta's closed-form root bound must cover."""
    sup_cl = sup_l = 0.0
    for c in np.linspace(c_lo, c_hi, n):
        try:
            roots = dispersion.decay_roots(float(c), ctx)
        except ModelInvalidError:
            continue
        sup_cl = max(sup_cl, c * roots.lambda1)
        sup_l = max(sup_l, roots.lambda1)
    assert sup_cl > 0.0
    return (dispersion.L_BOUND_INFLATION * sup_cl,
            dispersion.L_BOUND_INFLATION * sup_l)


EXACT_SCAN_MODELS = [
    model.ModelSpec(d=1.0, birth=model.RickerBirth(p), delay=model.RationalDelay(m, m))
    for p, m in ((2.0, 0.2), (3.0, 0.2), (2.0, 0.0), (5.0, 1.0))
] + [model.ModelSpec(d=1.0, birth=model.RickerBirth(2.0),
                     delay=model.RationalDelay(0.2, 0.7))]


@pytest.mark.parametrize("m", EXACT_SCAN_MODELS, ids=repr)
def test_root_bounds_equal_dense_scan(m):
    # c* lambda* is the supremum that the scan approaches from below, so the
    # closed form is at least the scan's bound, and the scan's first sample
    # c*(1 + 1e-9) already lies within 1e-4 of it
    ctx = dispersion.CharacteristicContext.from_model(m)
    sr = dispersion.critical_speed(ctx)
    lo, hi = sr.c_star * (1.0 + 1e-9), 2.0 * sr.c_star
    ref_cl, ref_l = dense_root_bounds(ctx, lo, hi)
    closed_cl = dispersion.L_BOUND_INFLATION * sr.c_star * sr.lambda_star
    closed_l = dispersion.L_BOUND_INFLATION * sr.lambda_star
    assert ref_cl <= closed_cl <= ref_cl * (1.0 + 1e-4)
    assert ref_l <= closed_l <= ref_l * (1.0 + 1e-4)
    K = model.equilibrium(m)
    A = model.lag_factor(m, K)
    for factor in (1.2, 2.0):
        c = factor * sr.c_star
        kr = dispersion.choose_beta(c, m, range_end=K, speed=sr)
        floor = dispersion.BETA_SAFETY * 3.0 * closed_cl * A
        assert kr.beta >= floor * (1.0 - 1e-15)


def test_choose_beta_solves_few_decay_roots(ricker2, ricker2_speed, monkeypatch):
    calls = []
    original = dispersion.decay_roots

    def counting(c, ctx):
        calls.append(c)
        return original(c, ctx)

    monkeypatch.setattr(dispersion, "decay_roots", counting)
    dispersion.choose_beta(1.2 * ricker2_speed.c_star, ricker2,
                           range_end=model.equilibrium(ricker2),
                           speed=ricker2_speed)
    assert calls == []    # the root bound is the closed form c* lambda*


def test_scalar_loops_are_capped():
    # every scalar search is a capped bisection, so the extreme contexts end
    # in a finite c* or a ModelInvalidError, quickly
    for d, bp0, lag0 in ((1.0, 1e30, 0.0), (1.0, 1e299, 0.0), (1.0, 2.0, 1e6),
                         (1.0, 2.0, 1e12), (1.0, 2.0, 1e300),
                         (1.0, 1e299, 1e300), (1e-300, 1e-299, 5.0)):
        t0 = time.perf_counter()
        try:
            sr = dispersion.critical_speed(ctx_of(d, bp0, lag0))
        except ModelInvalidError:
            pass
        else:
            assert math.isfinite(sr.c_star) and sr.c_star > 0.0
            assert math.isfinite(sr.lambda_star)
        assert time.perf_counter() - t0 < 2.0, (d, bp0, lag0)


@pytest.mark.parametrize("bp0,lag0,c_star", [
    (1e299, 0.2, 58.6372081121), (1e250, 1e-50, 2.14829975877e26)])
def test_huge_growth_with_lag(bp0, lag0, c_star):
    # the brackets span 1e150 and 1e125 around a c* of order 1e2 and 1e26,
    # more than 200 halvings, and b'(0) c tau(0) overflows on them
    sr = dispersion.critical_speed(ctx_of(1.0, bp0, lag0))
    assert sr.c_star == pytest.approx(c_star, rel=1e-11)
    lag = lag0 * sr.c_star
    decay = bp0 * math.exp(-sr.lambda_star * lag)
    scale = sr.lambda_star * (sr.lambda_star + sr.c_star) + 1.0 + decay
    assert abs(sr.char_residual) <= 1e-14 * scale


def test_small_threshold_is_resolved_relative():
    # c* is about 1.9e-6 here: the bisection's width stop is relative, so
    # a small root meets char = 0 as closely as one of order 1
    sr = dispersion.critical_speed(ctx_of(1.0, 2.0, 1e6))
    assert sr.c_star == pytest.approx(1.8989823576e-6, rel=1e-9)
    decay = 2.0 * math.exp(-sr.lambda_star * 1e6 * sr.c_star)
    scale = sr.lambda_star * (sr.lambda_star + sr.c_star) + 1.0 + decay
    assert abs(sr.char_residual) <= 1e-14 * scale


def test_huge_brackets_stop_on_ulp_floor():
    # lambda_hi is about 3e15 here, where floats are 0.5 apart: the
    # bisections end once their brackets reach adjacent floats
    ctx = ctx_of(1.0, 1e30, 0.0)
    lam, val = dispersion.char_min(1e15, ctx)
    assert lam == pytest.approx(5e14, rel=1e-15)
    assert dispersion.critical_speed(ctx).c_star == 2e15


@pytest.mark.parametrize("field", ["d", "growth_at_zero", "lag_at_zero"])
def test_context_rejects_nonfinite(field):
    values = {"d": 1.0, "growth_at_zero": 2.0, "lag_at_zero": 0.2}
    values[field] = math.nan
    with pytest.raises(ModelInvalidError, match=field):
        dispersion.CharacteristicContext(**values)


def test_context_rejects_overflowing_rates():
    with pytest.raises(ModelInvalidError, match="b'\\(0\\)"):
        ctx_of(1.0, 1e308, 0.0)


def full_loop_bisect(f, lo, hi):
    """The bisection as it was before its stuck-bracket exit: the same
    midpoints, stopping only on a zero, the 1e-16 width or 200 steps."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < 1e-16 * max(1.0, abs(mid)):
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_bisection_stops_on_a_stuck_bracket(ricker2_ctx, ricker2_cstar, monkeypatch):
    # lambda2 at 2c* (about 3.19) lies where one ulp exceeds the 1e-16 stop,
    # so the bracket reaches two adjacent floats before it is narrow enough;
    # the full loop then evaluated f up to its 200-step cap (202 calls)
    brackets = []
    original = dispersion._bisect_root

    def recording(f, lo, hi):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        root = original(counted, lo, hi)
        brackets.append((f, lo, hi, root, len(calls)))
        return root

    monkeypatch.setattr(dispersion, "_bisect_root", recording)
    dispersion.decay_roots(2.0 * ricker2_cstar, ricker2_ctx)
    # char_min bisects too, so pick lambda2's bracket by its root
    f, lo, hi, root, evaluations = next(b for b in brackets if 3.0 < b[3] < 3.5)
    assert evaluations <= 70
    assert root == full_loop_bisect(f, lo, hi)
    for f, lo, hi, root, _ in brackets:
        assert root == full_loop_bisect(f, lo, hi)
