import math

import numpy as np
import pytest

from sdwave import model
from sdwave.errors import ModelInvalidError
from conftest import bisect, golden_max


def test_ricker_at_zero_and_one():
    b = model.RickerBirth(2.0)
    assert b.value(0.0) == 0.0
    assert b.value(1.0) == pytest.approx(2.0 / math.e, abs=1e-12)


def test_ricker_maximizer_matches_golden_section_oracle():
    b = model.RickerBirth(3.0)
    u_star = golden_max(b.value, 0.0, 5.0)
    assert u_star == pytest.approx(1.0, abs=1e-6)  # flat peak: sqrt(eps) limit
    assert b.value(u_star) == pytest.approx(3.0 / math.e, abs=1e-12)


def test_equilibrium_matches_bisection_oracle():
    m = model.ModelSpec(d=1.0, birth=model.RickerBirth(2.0),
                        delay=model.ConstantDelay(0.0))
    oracle = bisect(lambda u: 2.0 * math.exp(-u) - 1.0, 1e-9, 50.0)
    K = model.equilibrium(m)
    assert K == pytest.approx(oracle, abs=1e-12)
    assert K == pytest.approx(math.log(2.0), abs=1e-12)


def test_equilibrium_analytic_p_equals_e():
    m = model.ModelSpec(d=1.0, birth=model.RickerBirth(math.e),
                        delay=model.ConstantDelay(0.0))
    assert model.equilibrium(m) == pytest.approx(1.0, abs=1e-12)


def test_equilibrium_rejects_subcritical_growth():
    m = model.ModelSpec(d=2.0, birth=model.RickerBirth(1.5),
                        delay=model.ConstantDelay(0.0))
    with pytest.raises(ModelInvalidError):
        model.equilibrium(m)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_quadratic_gap_matches_grid_oracle(p):
    m = model.ModelSpec(d=1.0, birth=model.RickerBirth(p),
                        delay=model.ConstantDelay(0.0))
    end = model.equilibrium(m) if p == 2.0 else 3.0 / math.e
    u = np.linspace(0.0, end, 10_001)[1:]
    gap = p * u - p * u * np.exp(-u)
    oracle_sup = max(float(np.max(gap / u**2)), p)  # u -> 0 limit is p
    L = model.quadratic_gap(m, end)
    assert L == pytest.approx(1.01 * oracle_sup, rel=1e-9)
    assert L == pytest.approx(1.01 * p, rel=1e-3)
    # certificate: 0 <= gap <= L u^2 across the grid
    assert np.all(gap >= 0)
    assert np.all(gap <= L * u**2)


def test_quadratic_gap_linear_at_origin_table():
    # concave birth u/(1+u): gap u^2/(1+u) is nonnegative with finite ratio
    u = np.linspace(0.0, 2.0, 200)
    samples = np.column_stack([u, u / (1.0 + u)])
    m = model.ModelSpec(d=0.25, birth=model.TabulatedBirth(samples),
                        delay=model.ConstantDelay(0.0))
    end = model.equilibrium(m)
    L = model.quadratic_gap(m, end)
    g = np.linspace(0.0, end, 10_001)[1:]
    gap = m.birth.derivative_at_zero * g - m.birth.value(g)
    assert np.all(gap >= -1e-12)
    assert np.all(gap <= L * g**2 + 1e-12)


def test_birth_peak_values():
    m2 = model.ModelSpec(d=1.0, birth=model.RickerBirth(2.0),
                         delay=model.ConstantDelay(0.0))
    assert model.birth_peak(m2) == pytest.approx(math.log(2.0), abs=1e-12)
    m3 = model.ModelSpec(d=1.0, birth=model.RickerBirth(3.0),
                         delay=model.ConstantDelay(0.0))
    assert model.birth_peak(m3) == pytest.approx(3.0 / math.e, abs=1e-12)


def test_birth_peak_monotone_is_right_endpoint():
    u = np.linspace(0.0, 3.0, 400)
    samples = np.column_stack([u, 2.0 * u / (1.0 + u)])
    m = model.ModelSpec(d=1.0, birth=model.TabulatedBirth(samples),
                        delay=model.ConstantDelay(0.0))
    K = model.equilibrium(m)
    assert model.birth_peak(m) == pytest.approx(m.birth.value(K), rel=1e-8)
    assert model.birth_peak(m) == pytest.approx(m.d * K, rel=1e-8)


def test_sup_delay_slope():
    assert model.sup_delay_slope(
        model.ModelSpec(1.0, model.RickerBirth(2.0), model.ConstantDelay(0.3)),
        1.0) == 0.0
    m = model.ModelSpec(1.0, model.RickerBirth(2.0), model.RationalDelay(0.2, 0.7))
    assert model.sup_delay_slope(m, 5.0) == pytest.approx(0.5, abs=1e-14)
    # grid cross-check: slope is maximal at u = 0
    u = np.linspace(0.0, 5.0, 10_001)
    assert np.max(m.delay.slope(u)) <= 0.5 + 1e-14
    m2 = model.ModelSpec(1.0, model.RickerBirth(2.0), model.ExponentialDelay(0.0, 0.9))
    assert model.sup_delay_slope(m2, 5.0) == pytest.approx(0.9, abs=1e-14)


class TestHypothesisValidation:
    def test_monotone_set_holds_for_p2(self, ricker2):
        rep = model.validate_hypotheses(ricker2, "monotone")
        assert rep.all_hold

    def test_p3_fails_monotone_with_witness_above_one(self, ricker3):
        rep = model.validate_hypotheses(ricker3, "monotone")
        assert not rep.holds("B3")
        u, desc = rep.witness("B3")
        assert u > 1.0
        assert "b'" in desc

    def test_p3_nonmonotone_set_holds(self, ricker3):
        rep = model.validate_hypotheses(ricker3, "nonmonotone")
        assert rep.all_hold

    def test_steep_delay_fails_a2(self):
        m = model.ModelSpec(d=1.0, birth=model.RickerBirth(2.0),
                            delay=model.RationalDelay(0.2, 1.4))
        rep = model.validate_hypotheses(m, "monotone")
        assert not rep.holds("A2")
        u, desc = rep.witness("A2")
        assert u == pytest.approx(0.0, abs=1e-6)
        assert "1.2" in desc

    def test_random_rickers_in_monotone_window(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = rng.uniform(0.3, 2.0)
            ratio = rng.uniform(1.05, math.e)
            m = model.ModelSpec(d=d, birth=model.RickerBirth(ratio * d),
                                delay=model.RationalDelay(0.1, 0.6))
            rep = model.validate_hypotheses(m, "monotone")
            assert rep.all_hold, (d, ratio, rep.as_dict())


class TestModelInvariants:
    def test_single_sign_change(self, ricker2):
        K = model.equilibrium(ricker2)
        u = np.linspace(1e-6, 10.0 * K, 10_001)
        s = np.sign(ricker2.birth.value(u) - ricker2.d * u)
        assert int(np.count_nonzero(np.diff(s) != 0)) == 1

    def test_equilibrium_consistency(self, ricker2, ricker3):
        for m in (ricker2, ricker3):
            K = model.equilibrium(m)
            assert abs(m.birth.value(K) - m.d * K) <= 1e-10

    def test_peak_dominates(self, ricker3):
        K = model.equilibrium(ricker3)
        peak = model.birth_peak(ricker3)
        u = np.linspace(0.0, K, 10_001)
        vals = ricker3.birth.value(u)
        assert np.all(vals <= peak + 1e-12)
        assert np.max(vals) == pytest.approx(peak, abs=1e-7)

    def test_delay_bounds_on_wide_grid(self, ricker2):
        K = model.equilibrium(ricker2)
        peak = model.birth_peak(ricker2)
        u = np.linspace(0.0, 10.0 * max(K, peak), 10_001)
        tau = ricker2.delay.tau(u)
        slope = ricker2.delay.slope(u)
        assert np.all(tau >= ricker2.delay.m - 1e-14)
        assert np.all(tau <= ricker2.delay.M + 1e-14)
        assert np.all(slope >= -1e-14)
        assert np.all(slope < 1.0)


def test_tabulated_birth_requires_origin():
    u = np.linspace(0.1, 2.0, 50)
    with pytest.raises(ModelInvalidError):
        model.TabulatedBirth(np.column_stack([u, u]))


def test_tabulated_matches_ricker_closely():
    u = np.linspace(0.0, 6.0, 2000)
    b = model.RickerBirth(2.0)
    tab = model.TabulatedBirth(np.column_stack([u, b.value(u)]))
    probe = np.linspace(0.0, 5.5, 777)
    assert np.max(np.abs(tab.value(probe) - b.value(probe))) < 5e-7
    assert tab.derivative_at_zero == pytest.approx(2.0, rel=1e-4)


@pytest.mark.parametrize("build, name", [
    (lambda x: model.ModelSpec(d=x, birth=model.RickerBirth(2.0),
                               delay=model.ConstantDelay(0.0)), "death rate d"),
    (lambda x: model.RickerBirth(x), "ricker coefficient p"),
    (lambda x: model.ConstantDelay(x), "delay m"),
    (lambda x: model.RationalDelay(x, 0.7), "delay m"),
    (lambda x: model.ExponentialDelay(0.2, x), "delay M"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_constructors_reject_nonfinite(build, name, value):
    with pytest.raises(ModelInvalidError, match=name):
        build(value)


def test_tabulated_birth_rejects_nonfinite():
    u = np.linspace(0.0, 5.0, 20)
    b = 2.0 * u * np.exp(-u)
    b[7] = math.nan
    with pytest.raises(ModelInvalidError, match="finite"):
        model.TabulatedBirth(np.column_stack([u, b]))
