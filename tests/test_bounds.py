import math

import numpy as np
import pytest

from sdwave import bounds, dispersion, model, profile
from sdwave.errors import NoRootsError
from conftest import (bisect, bound_derivatives, closed_form_bounds,
                      kink_excluded_grid, wave_inequality_residuals)


def test_upper_solution_branches():
    m = model.ModelSpec(d=1.0, birth=model.RickerBirth(2.0),
                        delay=model.ConstantDelay(0.0))
    up, _ = closed_form_bounds(2.5, m)
    K = math.log(2.0)
    assert up.value(-200.0) < 1e-40
    kink = math.log(K) / up.lam1
    assert up.value(kink + 1.0) == K
    assert up.value(kink + 50.0) == K
    # lam1 = 0.5 from the quadratic at zero lag, so value(0) = min(1, K) = K
    assert up.lam1 == pytest.approx(0.5, abs=1e-10)
    assert up.value(0.0) == pytest.approx(K, abs=1e-14)


def test_lower_solution_structure(ricker2, ricker2_cstar):
    c = 1.2 * ricker2_cstar
    ctx = dispersion.CharacteristicContext.from_model(ricker2)
    roots = dispersion.decay_roots(c, ctx)
    low = bounds.build_lower(roots, ricker2)
    K = model.equilibrium(ricker2)
    assert low.q > 1.0 + K
    assert low.value(low.xi0) == 0.0
    assert low.value(low.xi0 + 3.0) == 0.0
    assert low.lam1 == roots.lambda1
    # characteristic value is negative strictly between the decay roots
    assert dispersion.char_value(low.eta * low.lam1, c, ctx) < 0
    assert 1.0 < low.eta < min(2.0, roots.lambda2 / roots.lambda1)


def test_lower_positive_exactly_left_of_kink(ricker2, ricker2_cstar):
    _, low = closed_form_bounds(1.2 * ricker2_cstar, ricker2)
    xi = np.linspace(low.xi0 - 30.0, low.xi0 + 5.0, 20_001)
    vals = low.value(xi)
    assert np.all(vals[xi < low.xi0 - 1e-9] > 0.0)
    assert np.all(vals[xi >= low.xi0] == 0.0)


def _lower_value_full(low, xi):
    """The lower bound with the branch evaluated over the whole input."""
    xi = np.asarray(xi, dtype=float)
    out = np.maximum(np.where(xi < low.xi0,
                              low._branch(np.minimum(xi, low.xi0)), 0.0), 0.0)
    return float(out) if out.ndim == 0 else out


def _assert_bitwise(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestLowerValueBitwise:
    """`LowerSolution.value` evaluates only left of its kink, bit for bit."""

    def test_sorted_grid_across_the_kink(self, ricker2, ricker2_cstar):
        _, low = closed_form_bounds(1.2 * ricker2_cstar, ricker2)
        xi = np.linspace(-80.0, 40.0, 20_001)
        assert xi[0] < low.xi0 < xi[-1]
        got = low.value(xi)
        _assert_bitwise(got, _lower_value_full(low, xi))
        assert np.any(got > 0.0) and np.any(got == 0.0)

    def test_near_critical_grid_is_all_zero(self, ricker2, ricker2_ctx,
                                            ricker2_cstar):
        c = ricker2_cstar * (1.0 + profile.NEAR_CRITICAL_OFFSET)
        roots = dispersion.decay_roots(c, ricker2_ctx)
        low = bounds.build_lower(roots, ricker2)
        rate = profile._approach_rate(ricker2, c, model.equilibrium(ricker2))
        h, left, right = profile._grid_geometry(
            0.02, roots.lambda1, roots.lambda2, rate, monotone=True)
        xi = profile._make_xi(h, left, right)   # as solve at the surrogate
        assert low.xi0 < xi[0]
        got = low.value(xi)
        _assert_bitwise(got, _lower_value_full(low, xi))
        assert not np.any(got)
        assert not np.any(np.signbit(got))

    def test_grid_left_of_the_kink(self, ricker2, ricker2_cstar):
        _, low = closed_form_bounds(1.2 * ricker2_cstar, ricker2)
        xi = np.linspace(low.xi0 - 60.0, low.xi0 - 1e-3, 4_001)
        got = low.value(xi)
        _assert_bitwise(got, _lower_value_full(low, xi))
        assert np.all(got > 0.0)

    def test_unsorted_input(self, ricker2, ricker2_cstar):
        _, low = closed_form_bounds(1.2 * ricker2_cstar, ricker2)
        rng = np.random.default_rng(7)
        xi = rng.uniform(low.xi0 - 40.0, low.xi0 + 40.0, 5_001)
        xi[:4] = [low.xi0, -np.inf, np.inf, np.nan]
        got = low.value(xi)
        _assert_bitwise(got, _lower_value_full(low, xi))
        blocks = low.value(xi.reshape(3, 1_667))
        _assert_bitwise(blocks, _lower_value_full(low, xi.reshape(3, 1_667)))

    def test_scalar_input(self, ricker2, ricker2_cstar):
        _, low = closed_form_bounds(1.2 * ricker2_cstar, ricker2)
        for x in (low.xi0 - 5.0, low.xi0, low.xi0 + 5.0, -np.inf):
            got = low.value(x)
            assert type(got) is float
            _assert_bitwise(np.float64(got), np.float64(_lower_value_full(low, x)))


def test_lower_rejects_near_threshold(ricker2):
    # needs a very sharp threshold value so the root gap is truly degenerate
    ctx = dispersion.CharacteristicContext.from_model(ricker2)
    c_star = dispersion.critical_speed(ctx).c_star
    with pytest.raises(NoRootsError):
        bounds.build_lower(dispersion.decay_roots(c_star * (1.0 + 1e-14), ctx),
                           ricker2)


def _upper_grid(up):
    return kink_excluded_grid(-60.0, 60.0, 2000, up.kinks)


def _lower_grid(low):
    return kink_excluded_grid(low.xi0 - 60.0, low.xi0 + 20.0, 2000, [low.xi0])


class TestDifferentialInequalities:
    def test_exact_derivatives_match_central_differences(self, ricker2,
                                                         ricker2_cstar):
        # the closed forms' derivatives that the inequalities are taken with
        up, low = closed_form_bounds(1.2 * ricker2_cstar, ricker2)
        h = 1e-4
        for bound, grid in ((up, _upper_grid(up)), (low, _lower_grid(low))):
            d1, d2 = bound_derivatives(bound, grid)
            ahead, here, behind = (bound.value(grid + s) for s in (h, 0.0, -h))
            scale = 1.0 + np.abs(here)
            assert np.max(np.abs(d1 - (ahead - behind) / (2 * h)) / scale) < 1e-6
            assert np.max(np.abs(d2 - (ahead - 2 * here + behind) / h**2)
                          / scale) < 1e-5

    def test_upper_plateau_value_is_zero(self, ricker2, ricker2_cstar):
        c = 1.2 * ricker2_cstar
        up, _ = closed_form_bounds(c, ricker2)
        kink = up.kinks[0]
        far = np.array([kink + c * ricker2.delay.M + 5.0, kink + 40.0])
        res = wave_inequality_residuals(up, c, ricker2, far)
        assert np.max(np.abs(res)) < 1e-12

    def test_upper_inequality_monotone_model(self, ricker2, ricker2_cstar):
        c = 1.2 * ricker2_cstar
        up, _ = closed_form_bounds(c, ricker2)
        res = wave_inequality_residuals(up, c, ricker2, _upper_grid(up))
        assert np.max(res) <= 1e-8

    def test_lower_inequality_monotone_model(self, ricker2, ricker2_cstar):
        c = 1.2 * ricker2_cstar
        _, low = closed_form_bounds(c, ricker2)
        res = wave_inequality_residuals(low, c, ricker2, _lower_grid(low))
        assert np.min(res) >= -1e-8

    def test_upper_inequality_nonmonotone_model(self, ricker3, ricker3_cstar):
        c = 1.2 * ricker3_cstar
        pair = bounds.build_envelopes(ricker3)
        up, _ = closed_form_bounds(c, ricker3, level=pair.level)
        res = wave_inequality_residuals(up, c, ricker3, _upper_grid(up))
        assert np.max(res) <= 1e-8

    def test_lower_inequality_nonmonotone_model(self, ricker3, ricker3_cstar):
        c = 1.2 * ricker3_cstar
        _, low = closed_form_bounds(c, ricker3)
        res = wave_inequality_residuals(low, c, ricker3, _lower_grid(low))
        assert np.min(res) >= -1e-8

    def test_truncation_branch_residual_vanishes_where_delayed_is_zero(
            self, ricker2, ricker2_cstar):
        c = 1.2 * ricker2_cstar
        _, low = closed_form_bounds(c, ricker2)
        # right of the kink by more than the largest lag: residual is b(0) = 0
        xi = np.array([low.xi0 + c * ricker2.delay.M + 1.0])
        res = wave_inequality_residuals(low, c, ricker2, xi)
        assert res[0] == pytest.approx(0.0, abs=1e-14)

    def test_lower_slack_decay_rate(self, ricker2, ricker2_cstar):
        # leading-order expansion: the slack decays like exp(eta*lam1*xi)
        c = 1.2 * ricker2_cstar
        _, low = closed_form_bounds(c, ricker2)
        xi = np.linspace(low.xi0 - 40.0, low.xi0 - 30.0, 400)
        slack = wave_inequality_residuals(low, c, ricker2, xi)
        assert np.all(slack > 0)
        rate = np.polyfit(xi, np.log(slack), 1)[0]
        assert rate == pytest.approx(low.eta * low.lam1, rel=0.02)
        assert rate > low.lam1  # a fortiori decays at least like exp(lam1*xi)


class TestEnvelopes:
    def test_monotone_birth_envelopes_coincide(self, ricker2):
        pair = bounds.build_envelopes(ricker2)
        K = model.equilibrium(ricker2)
        assert pair.upper is ricker2.birth
        assert pair.lower is ricker2.birth
        assert pair.k == pytest.approx(K, abs=1e-12)
        assert pair.level == pytest.approx(K, abs=1e-12)
        assert K == pytest.approx(math.log(2.0), abs=1e-12)

    def test_nonmonotone_level_and_k(self, ricker3):
        pair = bounds.build_envelopes(ricker3)
        assert pair.level == pytest.approx(3.0 / math.e, abs=1e-12)
        # suffix-min oracle: lower envelope is min(b, b(level)) up to the peak
        b = ricker3.birth
        floor = b.value(pair.level)
        k_oracle = bisect(lambda u: min(b.value(min(u, 1.0)), floor) - u,
                          0.5, pair.level)
        assert pair.k == pytest.approx(k_oracle, abs=1e-10)
        assert pair.k == pytest.approx(1.0982, abs=2e-4)

    def test_envelope_sandwich_and_monotonicity(self, ricker3):
        pair = bounds.build_envelopes(ricker3)
        u = np.linspace(0.0, pair.level, 10_001)
        bu = ricker3.birth.value(u)
        upper = pair.upper.value(u)
        lower = pair.lower.value(u)
        assert np.all(lower <= bu + 1e-12)
        assert np.all(bu <= upper + 1e-12)
        assert np.all(np.diff(upper) >= -1e-12)
        assert np.all(np.diff(lower) >= -1e-12)

    def test_equilibria_consistency(self, ricker3):
        pair = bounds.build_envelopes(ricker3)
        assert abs(pair.lower.value(pair.k) - ricker3.d * pair.k) <= 1e-10
        assert abs(pair.upper.value(pair.level) - ricker3.d * pair.level) <= 1e-10
        K = model.equilibrium(ricker3)
        assert 0.0 < pair.k <= K <= pair.level

    @pytest.mark.parametrize("d,p", [(1.0, 3.0), (0.8, 10.0)])
    def test_k_is_the_lower_model_equilibrium_bitwise(self, d, p):
        # both roots come from the same bisection, which narrows either
        # bracket to the same pair of adjacent floats around the root
        m = model.ModelSpec(d=d, birth=model.RickerBirth(p),
                            delay=model.RationalDelay(0.2, 0.7))
        pair = bounds.build_envelopes(m)
        assert pair.k == model.equilibrium(pair.lower_model(m))

    def test_tabulated_envelopes_match_closed_form(self, ricker3):
        # generic running-extrema path against the closed Ricker forms
        u = np.linspace(0.0, 8.0, 4000)
        tab_birth = model.TabulatedBirth(
            np.column_stack([u, ricker3.birth.value(u)]))
        m = model.ModelSpec(d=1.0, birth=tab_birth, delay=ricker3.delay)
        got = bounds.build_envelopes(m)
        want = bounds.build_envelopes(ricker3)
        assert got.level == pytest.approx(want.level, abs=1e-5)
        assert got.k == pytest.approx(want.k, abs=1e-4)
        probe = np.linspace(0.0, want.level, 501)
        assert np.max(np.abs(got.upper.value(probe) -
                             want.upper.value(probe))) < 1e-4
        assert np.max(np.abs(got.lower.value(probe) -
                             want.lower.value(probe))) < 1e-4


def test_bound_ordering_pointwise(ricker2, ricker2_cstar):
    c = 1.2 * ricker2_cstar
    up, low = closed_form_bounds(c, ricker2)
    xi = np.linspace(-80.0, 40.0, 20_001)
    lo_vals = low.value(xi)
    hi_vals = up.value(xi)
    assert np.all(lo_vals <= hi_vals + 1e-15)
    inner = (xi > low.xi0 - 20.0) & (xi < low.xi0 - 0.1)
    assert np.all(lo_vals[inner] < hi_vals[inner])


@pytest.mark.parametrize("p", [3.0, 6.0])
@pytest.mark.parametrize("factor", [1.2, 2.0])
def test_sandwich_bounds_its_envelope_equations(p, factor):
    # both solvers iterate in bounds.sandwich: the upper bound is an upper
    # solution of the upper-envelope equation and the lower bound a lower
    # solution of the lower-envelope equation, each residual taken relative
    # to the bound's value as criterion 6 does, the lower one on its positive
    # window; and the lower bound lies under the upper one
    m = model.ModelSpec(d=1.0, birth=model.RickerBirth(p),
                        delay=model.RationalDelay(0.2, 0.7))
    ctx = dispersion.CharacteristicContext.from_model(m)
    c = factor * dispersion.critical_speed(ctx).c_star
    up, low, pair = bounds.sandwich(m, dispersion.decay_roots(c, ctx))
    assert up.level == pair.level
    upper_model = model.ModelSpec(d=m.d, birth=pair.upper, delay=m.delay)
    grid_up = kink_excluded_grid(-60.0, 60.0, 2000, up.kinks)
    vu = wave_inequality_residuals(up, c, upper_model, grid_up) / up.value(grid_up)
    assert np.max(vu) <= 1e-12
    grid_lo = kink_excluded_grid(low.xi0 - 60.0, low.xi0 + 20.0, 2000, [low.xi0])
    lo_vals = low.value(grid_lo)
    window = lo_vals > 0.0
    assert window.sum() > 1000
    vl = wave_inequality_residuals(low, c, pair.lower_model(m),
                                   grid_lo[window]) / lo_vals[window]
    assert np.min(vl) >= 0.0
    xi = np.linspace(low.xi0 - 60.0, up.kinks[0] + 20.0, 20_001)
    assert np.all(low.value(xi) <= up.value(xi))
