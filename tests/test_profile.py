import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sdwave import bounds, dispersion, model, profile
from sdwave.errors import ModelInvalidError, NonconvergenceError, NoRootsError


def make_grid(xi_lo, xi_hi, h, fn, left, right):
    xi = np.arange(xi_lo, xi_hi + 0.5 * h, h)
    return profile.ProfileGrid(xi=xi, values=np.asarray(fn(xi), dtype=float),
                               left_limit=left, right_limit=right)


@pytest.fixture(scope="module")
def setup2(ricker2, ricker2_cstar):
    c = 1.2 * ricker2_cstar
    K = model.equilibrium(ricker2)
    rates = dispersion.choose_beta(c, ricker2, range_end=K)
    up = bounds.build_upper(c, ricker2)
    low = bounds.build_lower(c, ricker2)
    return ricker2, c, K, rates, up, low


class TestOperatorH:
    def test_zero_and_equilibrium(self, setup2):
        m, c, K, rates, up, low = setup2
        zero = make_grid(-20, 20, 0.01, lambda x: 0.0 * x, 0.0, 0.0)
        assert np.max(np.abs(profile.apply_H(zero, m, c, rates.beta))) == 0.0
        const = make_grid(-20, 20, 0.01, lambda x: 0.0 * x + K, K, K)
        H = profile.apply_H(const, m, c, rates.beta)
        assert np.max(np.abs(H - rates.beta * K)) < 1e-12

    def test_bounded_by_beta_k(self, setup2):
        m, c, K, rates, up, low = setup2
        rng = np.random.default_rng(1)
        for _ in range(10):
            theta = rng.uniform(0.0, 1.0)
            fn = lambda x: theta * low.value(x) + (1 - theta) * up.value(x)
            g = make_grid(-60, 60, 0.01, fn, 0.0, K)
            H = profile.apply_H(g, m, c, rates.beta)
            assert np.all(H >= -1e-12)
            assert np.all(H <= rates.beta * K + 1e-12)

    def test_monotone_in_xi_for_members(self, setup2):
        # members are monotone: running max of sandwich combinations
        m, c, K, rates, up, low = setup2
        rng = np.random.default_rng(2)
        xi = np.arange(-60.0, 60.0, 0.01)
        for _ in range(10):
            theta = rng.uniform(0.0, 1.0)
            vals = np.maximum.accumulate(
                theta * low.value(xi) + (1 - theta) * up.value(xi))
            g = profile.ProfileGrid(xi=xi, values=vals, left_limit=0.0,
                                    right_limit=K)
            H = profile.apply_H(g, m, c, rates.beta)
            assert np.min(np.diff(H)) >= -1e-12


class TestOperatorF:
    def test_constant_fixed_points(self, setup2):
        m, c, K, rates, up, low = setup2
        zero = make_grid(-60, 60, 0.01, lambda x: 0.0 * x, 0.0, 0.0)
        assert np.max(np.abs(profile.apply_F(zero, m, rates))) <= 1e-10
        const = make_grid(-60, 60, 0.01, lambda x: 0.0 * x + K, K, K)
        out = profile.apply_F(const, m, rates)
        assert np.max(np.abs(out - K)) <= 1e-10

    def test_order_preservation_on_random_pairs(self, setup2):
        m, c, K, rates, up, low = setup2
        rng = np.random.default_rng(3)
        xi = np.arange(-60.0, 60.0, 0.01)
        lo_v = low.value(xi)
        hi_v = up.value(xi)
        for _ in range(50):
            if rng.uniform() < 0.5:
                t1, t2 = sorted(rng.uniform(0.0, 1.0, 2))
                v1 = np.maximum.accumulate(t2 * lo_v + (1 - t2) * hi_v)
                v2 = np.maximum.accumulate(t1 * lo_v + (1 - t1) * hi_v)
            else:
                s1, s2 = sorted(rng.uniform(0.0, 8.0, 2))
                v1 = np.maximum.accumulate(np.clip(up.value(xi - s2), lo_v, hi_v))
                v2 = np.maximum.accumulate(np.clip(up.value(xi - s1), lo_v, hi_v))
            g1 = profile.ProfileGrid(xi=xi, values=v1, left_limit=0.0, right_limit=K)
            g2 = profile.ProfileGrid(xi=xi, values=v2, left_limit=0.0, right_limit=K)
            F1 = profile.apply_F(g1, m, rates)
            F2 = profile.apply_F(g2, m, rates)
            assert np.all(F1 <= F2 + 1e-12)

    def test_sandwich_preservation(self, setup2):
        m, c, K, rates, up, low = setup2
        h = 0.01
        xi = np.arange(-60.0, 60.0, h)
        kinks = up.kinks + low.kinks
        mask = np.ones(xi.shape, dtype=bool)
        for t in kinks:
            mask &= np.abs(xi - t) > 2 * h
        gu = profile.ProfileGrid(xi=xi, values=up.value(xi), left_limit=0.0,
                                 right_limit=K)
        Fu = profile.apply_F(gu, m, rates)
        assert np.max((Fu - gu.values)[mask]) <= 1e-8
        gl = profile.ProfileGrid(xi=xi, values=low.value(xi), left_limit=0.0,
                                 right_limit=0.0)
        Fl = profile.apply_F(gl, m, rates)
        assert np.min((Fl - gl.values)[mask]) >= -1e-8

    def test_smoothing_bound(self, setup2):
        m, c, K, rates, up, low = setup2
        T = model.sup_delay_slope(m, K)
        bound = rates.beta * K / (1.0 + m.birth.derivative_at_zero * K * T)
        xi = np.arange(-60.0, 60.0, 0.01)
        for theta in (0.0, 0.35, 1.0):
            vals = theta * low.value(xi) + (1 - theta) * up.value(xi)
            g = profile.ProfileGrid(xi=xi, values=vals, left_limit=0.0,
                                    right_limit=K)
            F = profile.apply_F(g, m, rates)
            steep = c * np.max(np.abs(np.diff(F))) / 0.01
            assert steep < bound


class TestResidual:
    def test_equilibria_have_zero_residual(self, ricker2):
        K = model.equilibrium(ricker2)
        zero = make_grid(-10, 10, 0.01, lambda x: 0.0 * x, 0.0, 0.0)
        sup, _ = profile.residual(zero, 2.0, ricker2)
        assert sup == 0.0
        const = make_grid(-10, 10, 0.01, lambda x: 0.0 * x + K, K, K)
        sup, _ = profile.residual(const, 2.0, ricker2)
        assert sup < 1e-12


class TestMonotoneSolve:
    def test_converges_with_certificates(self, ricker2_solution):
        sol = ricker2_solution
        assert sol.iterations <= 500
        assert sol.residual_sup <= 5e-4
        assert sol.membership.member
        assert sol.f_consistency <= 2e-8
        K_gap = abs(sol.profile.values[-1] - sol.profile.right_limit)
        assert sol.profile.values[0] <= 1e-4
        assert K_gap <= 1e-4

    def test_residual_refines_second_order(self, ricker2, ricker2_cstar,
                                           ricker2_solution):
        fine = profile.solve_monotone(ricker2, 1.2 * ricker2_cstar,
                                      profile.SolverConfig(h=0.005))
        assert ricker2_solution.residual_sup / fine.residual_sup >= 3.0
        # order study needs the iteration floor well below the h^2 error
        res = {}
        for h in (0.01, 0.0025):
            sol = profile.solve_monotone(ricker2, 1.2 * ricker2_cstar,
                                         profile.SolverConfig(h=h, tol=1e-10))
            res[h] = sol.residual_sup
        order = 0.5 * np.log2(res[0.01] / res[0.0025])
        assert order >= 1.8

    def test_iterates_decrease_from_upper(self, setup2):
        m, c, K, rates, up, low = setup2
        xi = np.arange(-76.0, 60.0, 0.01)
        g0 = profile.ProfileGrid(xi=xi, values=up.value(xi), left_limit=0.0,
                                 right_limit=K)
        f1 = profile.apply_F(g0, m, rates)
        g1 = profile.ProfileGrid(xi=xi, values=np.minimum(f1, g0.values),
                                 left_limit=0.0, right_limit=K)
        f2 = profile.apply_F(g1, m, rates)
        assert np.max(f1 - g0.values) <= 1e-8          # first step goes down
        assert np.max(f2 - f1) <= 1e-8                 # and keeps going down

    def test_fixed_point_consistency(self, ricker2, ricker2_solution):
        sol = ricker2_solution
        F = profile.apply_F(sol.profile, ricker2,
                            dispersion.kernel_rates(sol.c, sol.beta))
        assert np.max(np.abs(F - sol.profile.values)) <= 2e-8

    def test_translation_covariance(self, ricker2, ricker2_cstar,
                                    ricker2_solution):
        shifted = profile.solve_monotone(
            ricker2, 1.2 * ricker2_cstar,
            profile.SolverConfig(h=0.01, initial_shift=0.13))
        a, b = ricker2_solution.profile, shifted.profile
        xi = np.linspace(-30.0, 30.0, 2001)
        assert np.max(np.abs(a.interp(xi) - b.interp(xi))) <= 1e-7

    def test_rejects_subthreshold_speed(self, ricker2, ricker2_cstar):
        with pytest.raises(NoRootsError, match="probe"):
            profile.solve_monotone(ricker2, 0.5 * ricker2_cstar,
                                   profile.SolverConfig(h=0.02))

    def test_rejects_nonmonotone_model(self, ricker3, ricker3_cstar):
        with pytest.raises(ModelInvalidError):
            profile.solve_monotone(ricker3, 1.2 * ricker3_cstar,
                                   profile.SolverConfig(h=0.02))

    def test_nonconvergence_carries_trace(self, ricker2, ricker2_cstar):
        with pytest.raises(NonconvergenceError) as err:
            profile.solve_monotone(ricker2, 1.2 * ricker2_cstar,
                                   profile.SolverConfig(h=0.02, max_iters=3))
        assert len(err.value.trace) == 3

    def test_nonfinite_iterate_stops_at_once(self, ricker2, ricker2_cstar,
                                            monkeypatch):
        calls = []
        apply_F = profile.apply_F

        def poisoned(phi, m, rates):
            out = apply_F(phi, m, rates)
            calls.append(None)
            if len(calls) == 5:
                out[len(out) // 2] = np.nan
            return out

        monkeypatch.setattr(profile, "apply_F", poisoned)
        with pytest.raises(NonconvergenceError, match="iteration 5 ") as err:
            profile.solve_monotone(ricker2, 1.2 * ricker2_cstar,
                                   profile.SolverConfig(h=0.02, max_iters=2000))
        assert len(err.value.trace) == 5 and len(calls) == 5
        assert np.isnan(err.value.trace[-1])
        assert np.all(np.isfinite(err.value.trace[:-1]))


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


ADVERSARIAL = [
    [0.0, 1.0],                                   # length 2, nondecreasing
    [1.0, 0.0],                                   # length 2, descent at 0
    [0.0, 2.0, 1.0],                              # length 3, descent at the end
    [2.0, 1.0, 3.0],                              # length 3, descent at 0
    [1.0, 1.0, 1.0, 0.5],                         # ties, then the last step down
    [0.0, 1.0, 1.0, 2.0, 2.0, 3.0],               # ties, nondecreasing
    [0.0, -0.0, 0.0, -0.0, 1.0],                  # signed zeros compare equal
    [-0.0, 0.0, -1.0, -0.0, 0.0],                 # signed zeros after a descent
    [-np.inf, 0.0, np.inf, 1.0, np.inf],          # infinities
    [np.inf, -np.inf, 0.0],
    [0.0, 1.0, np.nan, 2.0, 0.5],                 # NaN inside
    [np.nan, 0.0, 1.0],                           # NaN first
    [0.0, 1.0, np.nan],                           # NaN last
    [0.0, np.nan],
]


def adversarial_arrays():
    rng = np.random.default_rng(7)
    arrays = [np.array(a, dtype=float) for a in ADVERSARIAL]
    ramp = np.linspace(0.0, 1.0, 5000)
    arrays.append(ramp)                           # long and nondecreasing
    dip = ramp.copy()
    dip[-1] = 0.25                                # long, descent at the end
    arrays.append(dip)
    noisy = np.round(ramp + 0.01 * rng.standard_normal(5000), 2)
    noisy[::97] = -0.0                            # ties and signed zeros
    arrays.append(noisy)
    arrays.append(rng.choice([-0.0, 0.0, 1.0, np.nan, np.inf, -np.inf], 4001))
    return arrays


class TestIterationHelpers:
    """The engine's in-place helpers equal the numpy calls they replace, bit
    for bit."""

    @pytest.mark.parametrize("v", adversarial_arrays(), ids=lambda a: str(a.size))
    def test_project_monotone_is_running_max(self, v):
        want = np.maximum.accumulate(v)
        got = v.copy()
        profile._project_monotone(got)
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("v", adversarial_arrays(), ids=lambda a: str(a.size))
    def test_clamp_is_clip(self, v):
        rng = np.random.default_rng(v.size)
        pool = [-0.0, 0.0, 0.5, 1.0, np.nan, np.inf, -np.inf]
        lo = rng.choice(pool, v.size)
        hi = rng.choice(pool, v.size)
        for bounds in ((lo, hi), (np.minimum(lo, hi), np.maximum(lo, hi)),
                       (v.copy(), v.copy()), (-np.abs(v), np.abs(v))):
            want = np.clip(v, *bounds)
            got = v.copy()
            profile._clamp(got, *bounds)
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("v", adversarial_arrays(), ids=lambda a: str(a.size))
    @pytest.mark.parametrize("xa,h", [(0.3, 0.01), (-0.0049, 0.02), (0.0, 0.1)])
    def test_translate_subcell_is_gradient_step(self, v, xa, h):
        with np.errstate(invalid="ignore"):
            want = v + xa * np.gradient(v, h)
            got = v.copy()
            profile._translate_subcell(got, xa, h, np.empty_like(v))
        assert np.array_equal(bits(got), bits(want))


def collocation_oracle(m, c, tau0, xi_lo, xi_hi, h):
    """Sparse-Newton collocation solve of the constant-lag wave equation.

    Independent route: nonlinear algebraic system from central differences
    with a fixed delayed-index stencil, Dirichlet ends, Newton iteration.
    """
    K = model.equilibrium(m)
    n = int(round((xi_hi - xi_lo) / h)) + 1
    xi = xi_lo + h * np.arange(n)
    shift = c * tau0 / h
    k = int(math.floor(shift))
    theta = shift - k

    def delayed(v):
        out = np.zeros(n)
        idx = np.arange(n)
        j_hi = idx - k          # interp between j_hi and j_hi - 1
        j_lo = j_hi - 1
        ok_hi = j_hi >= 0
        ok_lo = j_lo >= 0
        out[ok_hi] += (1.0 - theta) * v[j_hi[ok_hi]]
        out[ok_lo] += theta * v[j_lo[ok_lo]]
        return out

    lam1 = dispersion.decay_roots(
        c, dispersion.CharacteristicContext.from_model(m)).lambda1
    v = K / (1.0 + np.exp(-lam1 * xi))
    # pin the left end to the slow-decay amplitude: selects the pulled front
    # (the steep-decay connection also solves the Dirichlet problem)
    v_left = 0.5 * K * math.exp(lam1 * xi_lo)
    v[0], v[-1] = v_left, K

    def residual_vec(v):
        r = np.empty(n)
        r[0] = v[0] - v_left
        r[-1] = v[-1] - K
        d2 = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
        d1 = (v[2:] - v[:-2]) / (2 * h)
        r[1:-1] = d2 - c * d1 - m.d * v[1:-1] + m.birth.value(
            np.maximum(delayed(v), 0.0))[1:-1]
        return r

    for _ in range(60):
        r = residual_vec(v)
        if np.max(np.abs(r)) < 1e-11:
            break
        rows, cols, vals = [], [], []
        rows += [0, n - 1]
        cols += [0, n - 1]
        vals += [1.0, 1.0]
        bp = m.birth.derivative(np.maximum(delayed(v), 0.0))
        for i in range(1, n - 1):
            rows += [i, i, i]
            cols += [i - 1, i, i + 1]
            vals += [1.0 / h**2 + c / (2 * h), -2.0 / h**2 - m.d,
                     1.0 / h**2 - c / (2 * h)]
            if i - k >= 0:
                rows.append(i)
                cols.append(i - k)
                vals.append(bp[i] * (1.0 - theta))
            if i - k - 1 >= 0:
                rows.append(i)
                cols.append(i - k - 1)
                vals.append(bp[i] * theta)
        J = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
        v = v - spla.spsolve(J, r)
    else:
        raise AssertionError("collocation oracle did not converge")
    return xi, v


def test_constant_delay_cross_validation():
    m = model.ModelSpec(d=1.0, birth=model.RickerBirth(2.0),
                        delay=model.ConstantDelay(0.3))
    ctx = dispersion.CharacteristicContext.from_model(m)
    c = 1.2 * dispersion.critical_speed(ctx).c_star
    sol = profile.solve_monotone(m, c, profile.SolverConfig(h=0.01))
    assert sol.residual_sup <= 5e-4
    oxi, ov = collocation_oracle(m, c, 0.3, -40.0, 80.0, 0.01)
    K = model.equilibrium(m)
    # align phases: translate the oracle so its K/2 crossing sits at 0
    j = int(np.argmax(ov >= K / 2))
    xa = oxi[j - 1] + 0.01 * (K / 2 - ov[j - 1]) / (ov[j] - ov[j - 1])
    window = np.linspace(-15.0, 15.0, 1501)
    mine = sol.profile.interp(window)
    oracle = np.interp(window + xa, oxi, ov)
    assert np.max(np.abs(mine - oracle)) < 2e-3


class TestGammaMembership:
    def test_upper_solution_is_member(self, setup2):
        m, c, K, rates, up, low = setup2
        xi = np.arange(-76.0, 60.0, 0.01)
        g = profile.ProfileGrid(xi=xi, values=up.value(xi), left_limit=0.0,
                                right_limit=K)
        rep = profile.gamma_membership(g, c, rates.beta, m, shift=0.0,
                                       lower=low, upper=up)
        assert rep.member

    def test_steepened_profile_fails_lipschitz(self, setup2, ricker2_solution):
        # the chosen beta leaves the bound ~30x slack, so squeeze well past it
        m, c, K, rates, up, low = setup2
        base = ricker2_solution.profile
        squeezed = profile.ProfileGrid(
            xi=base.xi / 100.0, values=base.values, left_limit=0.0,
            right_limit=base.right_limit)
        rep = profile.gamma_membership(squeezed, c, rates.beta, m,
                                       shift=ricker2_solution.shift,
                                       lower=low, upper=up)
        assert not rep.lipschitz_ok
        mild = profile.ProfileGrid(
            xi=base.xi / 10.0, values=base.values, left_limit=0.0,
            right_limit=base.right_limit)
        steep10 = np.max(np.abs(np.diff(mild.values))) / mild.h
        steep1 = np.max(np.abs(np.diff(base.values))) / base.h
        assert steep10 == pytest.approx(10.0 * steep1, rel=1e-9)


class TestCriticalSolve:
    def test_rejects_lower_requested_speed(self, ricker2, ricker2_cstar):
        cfg = profile.SolverConfig(c=0.999 * ricker2_cstar, h=0.02)
        with pytest.raises(NoRootsError):
            profile.solve_critical(ricker2, cfg)


class TestNonmonotoneSolve:
    def test_band_and_residual(self, ricker3, ricker3_solution):
        sol = ricker3_solution
        pair = bounds.build_envelopes(ricker3)
        xi, v = sol.profile.xi, sol.profile.values
        right = v[xi >= 0.5 * (xi[0] + xi[-1])]
        assert np.min(right) >= pair.k - 1e-3
        assert np.max(right) <= pair.level + 1e-3
        assert sol.residual_sup <= 1e-3
        assert sol.membership.sandwich_ok
        assert sol.membership.lipschitz_ok

    def test_monotone_birth_reduces_to_monotone_solver(self, ricker2,
                                                       ricker2_cstar):
        # both routes converge toward the same fixed point; run them deep
        # enough that the stopping slack (tol/(1-rho)) sits under 10x the
        # default tolerance
        c = 1.2 * ricker2_cstar
        K = model.equilibrium(ricker2)
        alt = profile.solve_nonmonotone(
            ricker2, c, profile.SolverConfig(h=0.01, damping=0.5,
                                             mode="nonmonotone", tol=2e-10,
                                             phase_level=K / 2.0))
        ref = profile.solve_monotone(
            ricker2, c, profile.SolverConfig(h=0.01, tol=2e-10))
        xi = np.linspace(-25.0, 25.0, 1001)
        diff = np.max(np.abs(alt.profile.interp(xi) - ref.profile.interp(xi)))
        assert diff <= 1e-7

    def test_residual_refines(self, ricker3, ricker3_cstar, ricker3_solution):
        fine = profile.solve_nonmonotone(
            ricker3, 1.2 * ricker3_cstar,
            profile.SolverConfig(h=0.005, damping=0.5, mode="nonmonotone"))
        assert ricker3_solution.residual_sup / fine.residual_sup >= 3.0


@pytest.mark.parametrize("mode", ["auto", "monotone"])
def test_hypotheses_checked_once_per_solve(ricker2, ricker2_cstar, monkeypatch,
                                           mode):
    modes = []

    def counting(model_, mode_="monotone"):
        modes.append(mode_)
        return validate(model_, mode_)

    validate = profile.validate_hypotheses
    monkeypatch.setattr(profile, "validate_hypotheses", counting)
    sol = profile.solve(ricker2, 1.3 * ricker2_cstar,
                        profile.SolverConfig(h=0.02, mode=mode))
    assert sol.mode == "monotone"
    assert modes == ["monotone"]


def test_auto_dispatch(ricker2, ricker3, ricker2_cstar, ricker3_cstar,
                       monkeypatch):
    assert profile.SolverConfig().mode == "auto"
    s2 = profile.solve(ricker2, 1.3 * ricker2_cstar, profile.SolverConfig(h=0.02))
    assert s2.mode == "monotone" and s2.monotone_ok
    s3 = profile.solve(ricker3, 1.3 * ricker3_cstar, profile.SolverConfig(h=0.02))
    assert s3.mode == "nonmonotone" and "envelope" in s3.note
    # an explicit mode is honoured, not overridden by the hypotheses
    with pytest.raises(ModelInvalidError, match="monotone hypothesis set"):
        profile.solve(ricker3, 1.3 * ricker3_cstar,
                      profile.SolverConfig(h=0.02, mode="monotone"))
    # the near-critical solve dispatches the same way; record the call
    # instead of running the (long) near-critical iteration
    calls = []

    def fake_nonmonotone(model_, c, config=None, note="", speed=None):
        assert "near-critical surrogate" in note
        calls.append((c, config))
        return "nonmonotone ran"

    monkeypatch.setattr(profile, "solve_nonmonotone", fake_nonmonotone)
    assert profile.solve_critical(ricker3) == "nonmonotone ran"
    (c, cfg), = calls
    assert c == pytest.approx(ricker3_cstar * (1.0 + profile.NEAR_CRITICAL_OFFSET))
    assert cfg.damping == 0.5
    with pytest.raises(ModelInvalidError, match="mode"):
        profile.SolverConfig(mode="bogus")
