import inspect
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.interpolate import CubicSpline

from sdwave import bounds, dispersion, model, profile
from sdwave.errors import ModelInvalidError, NonconvergenceError, NoRootsError
from conftest import closed_form_bounds, widths


def make_grid(xi_lo, xi_hi, h, fn, left, right):
    xi = np.arange(xi_lo, xi_hi + 0.5 * h, h)
    return profile.ProfileGrid(xi=xi, values=np.asarray(fn(xi), dtype=float),
                               left_limit=left, right_limit=right)


@pytest.fixture(scope="module")
def setup2(ricker2, ricker2_speed):
    c = 1.2 * ricker2_speed.c_star
    K = model.equilibrium(ricker2)
    rates = dispersion.choose_beta(c, ricker2, range_end=K, speed=ricker2_speed)
    up, low = closed_form_bounds(c, ricker2)
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
        kinks = up.kinks + [low.xi0]
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
        T = m.delay.slope_sup()
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
        fine = profile.solve(ricker2, 1.2 * ricker2_cstar,
                             profile.SolverConfig(h=0.005))
        assert ricker2_solution.residual_sup / fine.residual_sup >= 3.0
        # order study needs the iteration floor well below the h^2 error
        res = {}
        for h in (0.01, 0.0025):
            sol = profile.solve(ricker2, 1.2 * ricker2_cstar,
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

    def test_translation_covariance(self, ricker2, ricker2_cstar, monkeypatch):
        # left widths 10.5 cells apart put every node half a cell off its
        # place in the other grid, relative to the wave; after relabelling
        # to the anchor crossing the profiles agree to the scheme's sub-cell
        # translation error (2.6e-8).  Cubic splines compare them: the chord
        # error of linear interpolation, h^2/8 max|phi''| = 1.2e-7, would
        # swamp it
        c = 1.2 * ricker2_cstar

        def solve(left):
            widths(monkeypatch, left=left)
            return profile.solve(ricker2, c, profile.SolverConfig(h=0.01)).profile

        a, b = solve(80.0), solve(80.105)
        xi = np.linspace(-30.0, 30.0, 2001)
        gap = CubicSpline(a.xi, a.values)(xi) - CubicSpline(b.xi, b.values)(xi)
        assert np.max(np.abs(gap)) <= 1e-7

    def test_rejects_subthreshold_speed(self, ricker2, ricker2_cstar):
        with pytest.raises(NoRootsError, match="simulate then frontspeed"):
            profile.solve(ricker2, 0.5 * ricker2_cstar,
                          profile.SolverConfig(h=0.02))

    def test_rejects_nonmonotone_model(self, ricker3):
        sr = dispersion.critical_speed(
            dispersion.CharacteristicContext.from_model(ricker3))
        with pytest.raises(ModelInvalidError, match="monotone hypothesis set"):
            profile._solve(ricker3, 1.2 * sr.c_star, profile.SolverConfig(h=0.02),
                           monotone=True, speed=sr,
                           hypotheses=model.validate_hypotheses(ricker3))

    def test_nonconvergence_carries_trace(self, ricker2, ricker2_cstar):
        with pytest.raises(NonconvergenceError) as err:
            profile.solve(ricker2, 1.2 * ricker2_cstar,
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
            profile.solve(ricker2, 1.2 * ricker2_cstar,
                          profile.SolverConfig(h=0.02, max_iters=2000))
        assert len(err.value.trace) == 5 and len(calls) == 5
        assert np.isnan(err.value.trace[-1])
        assert np.all(np.isfinite(err.value.trace[:-1]))

    def test_a_too_narrow_end_fails_once(self, ricker2, ricker2_cstar,
                                         monkeypatch):
        # a right width of 3 leaves the right end short of K: the end check
        # fails the solve after its one iteration, naming that end and the
        # one width pair it ran on
        calls = []
        iterate = profile._iterate

        def counted(*args, **kwargs):
            calls.append(None)
            return iterate(*args, **kwargs)

        monkeypatch.setattr(profile, "_iterate", counted)
        widths(monkeypatch, right=3.0)
        with pytest.raises(NonconvergenceError) as err:
            profile.solve(ricker2, 1.3 * ricker2_cstar,
                          profile.SolverConfig(h=0.02))
        message = str(err.value)
        assert "the right end" in message and "left end" not in message
        pair = message.rsplit("widths ", 1)[1]
        assert "," not in pair and pair.split("/")[1] == "3"
        assert len(calls) == 1
        assert err.value.trace


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


class TestApproachRate:
    """The right-end decay rate -mu: the negative root mu of
    mu^2 - c mu - d + b'(K) exp(-mu c tau(K)) = 0."""

    @staticmethod
    def closed_form(c, d=1.0):
        return 0.5 * (math.sqrt(c * c + 4.0 * d) - c)   # the root at b'(K) = 0

    def test_root_for_a_positive_slope(self, ricker2, ricker2_cstar):
        c = 1.2 * ricker2_cstar
        K = model.equilibrium(ricker2)
        rate = profile._approach_rate(ricker2, c, K)
        mu, s, lag = -rate, ricker2.birth.derivative(K), c * ricker2.delay.tau(K)
        assert 0.0 < s < ricker2.d
        assert abs(mu * mu - c * mu - ricker2.d + s * math.exp(-mu * lag)) <= 1e-14
        assert 0.0 < rate < self.closed_form(c)

    @pytest.mark.parametrize("p", [math.e, math.nextafter(math.e, 0.0)])
    def test_zero_slope_gives_the_closed_form(self, p):
        # p = e puts K at 1, where b'(K) = 0; one ulp below, b'(K) is about
        # 2e-16 and the root lies within rounding of the closed form, where
        # the characteristic function can round below zero
        m = model.ModelSpec(d=1.0, birth=model.RickerBirth(p),
                            delay=model.RationalDelay(0.2, 0.7))
        K = model.equilibrium(m)
        for c in (1.5, 3.0, 10.0):
            rate = profile._approach_rate(m, c, K)
            assert rate == pytest.approx(self.closed_form(c), rel=1e-14)


class TestRightWidth:
    """A monotone grid ends 20/rate right of its anchor, a nonmonotone one
    40/rate, where rate is the approach rate to the right-end state."""

    @pytest.mark.parametrize("factor", [1.2, 2.0])
    def test_monotone_cut_leaves_the_wave_unchanged(self, ricker2, ricker2_speed,
                                                    factor, monkeypatch):
        c = factor * ricker2_speed.c_star
        K = model.equilibrium(ricker2)
        right = 20.0 / profile._approach_rate(ricker2, c, K)
        assert 20.0 < right < 200.0                 # neither floor nor cap
        config = profile.SolverConfig(h=0.02)
        cut = profile.solve(ricker2, c, config, speed=ricker2_speed)
        widths(monkeypatch, right=2.0 * right)
        wide = profile.solve(ricker2, c, config, speed=ricker2_speed)
        assert wide.profile.xi.size - cut.profile.xi.size == round(right / 0.02)
        assert cut.iterations == wide.iterations
        assert cut.residual_sup == pytest.approx(wide.residual_sup, rel=1e-3)
        assert cut.f_consistency == pytest.approx(wide.f_consistency, rel=1e-3)
        # both are relabelled so the anchor crossing sits at 0.  On the front
        # the profiles agree to rounding (1.4e-13 at 1.2 c*); at the cut
        # grid's right end they differ by the tail it holds at K, which is
        # K exp(-20) at most (3.1e-10 at 1.2 c*)
        xi, v = cut.profile.xi, cut.profile.values
        gap = np.abs(wide.profile.interp(xi) - v)
        assert np.max(gap[(xi >= -8.0) & (xi <= 12.0)]) <= 1e-10
        assert np.max(gap) <= K * math.exp(-20.0)

    def test_nonmonotone_solve_keeps_40_over_rate(self, ricker3, ricker3_cstar):
        # perfbench's band oracle (`Profiles.check`) reads the nonmonotone
        # profile on the grid's right half, xi >= (xi[0] + xi[-1]) / 2; at
        # 20/rate that midpoint falls on the front and the oracle fails
        c = 1.2 * ricker3_cstar
        config = profile.SolverConfig(h=0.02)
        sol = profile.solve(ricker3, c, config)
        assert sol.mode == "nonmonotone"
        roots = dispersion.decay_roots(
            c, dispersion.CharacteristicContext.from_model(ricker3))
        _, _, pair = bounds.sandwich(ricker3, roots)
        rate = profile._approach_rate(pair.lower_model(ricker3), c, pair.k)
        _, left, _ = profile._grid_geometry(config.h, roots.lambda1,
                                            roots.lambda2, rate, monotone=False)
        span = sol.profile.xi[-1] - sol.profile.xi[0]
        assert span == pytest.approx(left + 40.0 / rate, abs=0.02)


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


class TestAndersonMixing:
    """The whole-cell phase's accelerator on maps with a known fixed point."""

    @staticmethod
    def linear_contraction(n=200):
        # G(v) = x* + A (v - x*) with A symmetric: one mode at 0.99, which
        # sets the plain iteration's pace, and the rest in [-0.5, 0.5]
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eig = np.concatenate([[0.99], rng.uniform(-0.5, 0.5, n - 1)])
        a = (q * eig) @ q.T
        x_star = rng.standard_normal(n)
        return (lambda v: x_star + a @ (v - x_star)), x_star

    @staticmethod
    def steps_to_tol(G, n, mixer=None, tol=1e-10, cap=10_000):
        """Plain steps taken until |G(v) - v| <= tol, mixing when given."""
        v = np.zeros(n)
        for k in range(1, cap + 1):
            g = G(v)
            f = g - v
            if np.max(np.abs(f)) <= tol:
                return k, g
            if mixer is not None:
                mixer.mix(f, g)
            v = g
        raise AssertionError(f"no convergence in {cap} steps")

    def test_reaches_fixed_point_in_a_fraction_of_plain_steps(self):
        G, x_star = self.linear_contraction()
        plain, _ = self.steps_to_tol(G, x_star.size)
        mixed, g = self.steps_to_tol(G, x_star.size,
                                     profile._Anderson(x_star.size))
        assert plain > 1000                    # 1,528 steps
        assert mixed <= 0.05 * plain           # 39 steps
        assert np.max(np.abs(g - x_star)) <= 1e-8

    def test_singular_history_takes_the_plain_step(self):
        rng = np.random.default_rng(12)
        f, g = rng.standard_normal(50), rng.standard_normal(50)
        mixer = profile._Anderson(50)
        step = g.copy()
        assert not mixer.mix(f, step)          # no history yet
        assert not mixer.mix(f, step)          # zero difference: singular
        assert np.array_equal(step, g)
        mixer.restart(f, g)
        assert not mixer.mix(f * np.inf, step)  # not finite
        assert np.array_equal(step, g)

    def test_mixed_step_solves_the_least_squares_problem(self):
        # gamma minimises |f - dF gamma|; the mixed step is g - dG gamma
        rng = np.random.default_rng(13)
        pairs = profile.ANDERSON_DEPTH + 2      # one difference leaves the ring
        fs, gs = rng.standard_normal((pairs, 30)), rng.standard_normal((pairs, 30))
        mixer = profile._Anderson(30)
        for f, g in zip(fs[:-1], gs[:-1]):
            mixer.mix(f, g.copy())
        step = gs[-1].copy()
        assert mixer.mix(fs[-1], step)
        dF, dG = np.diff(fs[1:], axis=0), np.diff(gs[1:], axis=0)
        gamma = np.linalg.lstsq(dF.T, fs[-1], rcond=None)[0]
        assert np.allclose(step, gs[-1] - dG.T @ gamma, rtol=0.0, atol=1e-12)

    def test_counts_mixed_steps_only_when_undamped(self, ricker2_solution,
                                                   ricker3_solution):
        assert ricker2_solution.anderson_steps > 0          # default, damping 1
        assert ricker3_solution.anderson_steps == 0         # damping 0.5


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
    sol = profile.solve(m, c, profile.SolverConfig(h=0.01))
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
                                       level=K, upper=up, lower=low,
                                       require_monotone=True)
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
                                       level=K, upper=up, lower=low,
                                       require_monotone=True)
        assert not rep.lipschitz_ok
        mild = profile.ProfileGrid(
            xi=base.xi / 10.0, values=base.values, left_limit=0.0,
            right_limit=base.right_limit)
        steep10 = np.max(np.abs(np.diff(mild.values))) / mild.h
        steep1 = np.max(np.abs(np.diff(base.values))) / base.h
        assert steep10 == pytest.approx(10.0 * steep1, rel=1e-9)


class TestCriticalSolve:
    def test_near_critical_setup_is_decided_by_the_speed(self, ricker2,
                                                         ricker2_ctx,
                                                         monkeypatch):
        # every speed in (c*, c*(1 + 1e-6)] gets the near-critical tolerance
        # and budget on the config's h; the next speed up gets the config as
        # given.  Record the calls instead of running the long iterations.
        calls = []

        def fake_solve(model_, c, config, monotone, speed, hypotheses,
                       note=""):
            calls.append((config, note))

        monkeypatch.setattr(profile, "_solve", fake_solve)
        sr = dispersion.critical_speed(ricker2_ctx)
        surrogate = sr.c_star * (1.0 + profile.NEAR_CRITICAL_OFFSET)
        given = profile.SolverConfig(h=0.1, tol=1e-6, max_iters=500)
        for c in (0.5 * (sr.c_star + surrogate), surrogate,
                  math.nextafter(surrogate, math.inf)):
            profile.solve(ricker2, c, given, speed=sr)
        (inside, note_in), (at, note_at), (above, note_above) = calls
        assert inside.tol == at.tol == 1e-8
        assert inside.max_iters == at.max_iters == 1000
        assert at.h == given.h
        assert "near-critical surrogate" in note_in and note_at == note_in
        assert above == given and note_above == ""
        assert profile.near_critical_speed(sr) == surrogate

    def test_near_critical_solve_keeps_the_given_left_width(self, ricker2,
                                                            ricker2_ctx):
        # the surrogate solves on the grid every other speed gets: its first
        # node is minus the capped default left width up to the sub-cell
        # phase shift, not twice that
        h = 0.1
        sr = dispersion.critical_speed(ricker2_ctx)
        c = profile.near_critical_speed(sr)
        roots = dispersion.decay_roots(c, ricker2_ctx)
        rate = profile._approach_rate(ricker2, c, model.equilibrium(ricker2))
        _, left, _ = profile._grid_geometry(h, roots.lambda1, roots.lambda2,
                                            rate, monotone=True)
        sol = profile.solve(ricker2, c, profile.SolverConfig(h=h), sr)
        assert abs(sol.profile.xi[0] + left) < h


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

    def test_f_consistency_uses_the_right_limit_the_iteration_held(
            self, ricker3, ricker3_cstar, monkeypatch):
        # a short right width of 20 leaves the last node inside the band
        # [k, level] but 6e-4 below K; the nonmonotone iteration holds the
        # right limit at that node, so F's fixed point is measured against
        # it, not against K
        widths(monkeypatch, right=20.0)
        sol = profile.solve(ricker3, 1.2 * ricker3_cstar,
                            profile.SolverConfig(h=0.02))
        v = sol.profile.values
        assert sol.mode == "nonmonotone"
        assert model.equilibrium(ricker3) - v[-1] > 1e-4
        assert sol.profile.right_limit == v[-1]
        own = profile.ProfileGrid(xi=sol.profile.xi, values=v, left_limit=0.0,
                                  right_limit=float(v[-1]))
        rates = dispersion.kernel_rates(sol.c, sol.beta)
        assert sol.f_consistency == np.max(
            np.abs(profile.apply_F(own, ricker3, rates) - v))

    def test_monotone_birth_reduces_to_monotone_solver(self, ricker2,
                                                       ricker2_ctx):
        # both iterations, in one sandwich on one grid and anchored at the
        # same level K/2, converge toward the same fixed point; run them deep
        # enough that the stopping slack (tol/(1-rho)) sits under 10x the
        # default tolerance
        sr = dispersion.critical_speed(ricker2_ctx)
        c = 1.2 * sr.c_star
        K = model.equilibrium(ricker2)
        roots = dispersion.decay_roots(c, ricker2_ctx)
        upper, lower, pair = bounds.sandwich(ricker2, roots)
        rates = dispersion.choose_beta(c, ricker2, range_end=pair.level, speed=sr)
        xi = profile._make_xi(*profile._grid_geometry(
            0.01, roots.lambda1, roots.lambda2,
            profile._approach_rate(ricker2, c, pair.k), monotone=True))
        runs = {monotone: profile._iterate(
                    xi, ricker2, rates, upper.value, lower.value, K / 2.0, K,
                    profile.SolverConfig(tol=2e-10, damping=1.0 if monotone else 0.5),
                    monotone)
                for monotone in (False, True)}
        alt, ref = runs[False], runs[True]
        assert alt.shift == ref.shift
        assert np.max(np.abs(alt.values - ref.values)) <= 1e-7

    def test_tabulated_birth_solves_like_closed_form(self, ricker3, ricker3_cstar):
        # the same Ricker p=3 birth sampled on a table: its tabulated
        # envelopes take b'(0) from the birth, so the hypotheses hold and
        # the band solve runs as the closed-form one does
        u = np.linspace(0.0, 12.0, 2401)
        table = model.TabulatedBirth(np.column_stack([u, 3.0 * u * np.exp(-u)]))
        tab = model.ModelSpec(d=1.0, birth=table, delay=ricker3.delay)
        tab_cstar = dispersion.critical_speed(
            dispersion.CharacteristicContext.from_model(tab)).c_star
        sol = profile.solve(tab, 1.2 * tab_cstar, profile.SolverConfig(h=0.02))
        ref = profile.solve(ricker3, 1.2 * ricker3_cstar,
                            profile.SolverConfig(h=0.02))
        assert sol.mode == "nonmonotone"
        assert sol.residual_sup <= 1e-3
        assert sol.membership.member
        # the lower bound depends on the gap coefficient L, 3.0091 for the
        # table (its b''(0) is a finite difference) against 3.0300, so the
        # iteration counts may differ; the profiles agree on their common grid
        lo = max(sol.profile.xi[0], ref.profile.xi[0])
        hi = min(sol.profile.xi[-1], ref.profile.xi[-1])
        xi = np.linspace(lo, hi, 4001)
        gap = np.max(np.abs(sol.profile.interp(xi) - ref.profile.interp(xi)))
        assert gap <= 1e-5

    def test_residual_refines(self, ricker3, ricker3_cstar, ricker3_solution):
        fine = profile.solve(
            ricker3, 1.2 * ricker3_cstar,
            profile.SolverConfig(h=0.005, damping=0.5))
        assert ricker3_solution.residual_sup / fine.residual_sup >= 3.0


def _count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list of its positional
    arguments, one tuple per call."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_hypotheses_checked_once_per_solve(ricker2, ricker2_cstar, monkeypatch):
    calls = _count_calls(monkeypatch, profile, "validate_hypotheses")
    sol = profile.solve(ricker2, 1.3 * ricker2_cstar,
                        profile.SolverConfig(h=0.02))
    assert sol.mode == "monotone"
    assert calls == [(ricker2,)]


def test_nonmonotone_solve_checks_each_model_once(ricker3, ricker3_cstar,
                                                  monkeypatch):
    # the model itself, then its lower-envelope model, whose hypotheses make
    # the closed-form lower bound a lower solution
    calls = _count_calls(monkeypatch, profile, "validate_hypotheses")
    sol = profile.solve(ricker3, 1.3 * ricker3_cstar,
                        profile.SolverConfig(h=0.02))
    assert sol.mode == "nonmonotone"
    (first,), (second,) = calls
    assert first is ricker3
    assert second.birth.kind == "envelope_lower"


def test_monotone_solve_solves_the_decay_roots_once(ricker2, ricker2_cstar,
                                                    ricker3, ricker3_cstar,
                                                    monkeypatch):
    # every decay_roots call, whichever module calls it, builds one RootPair;
    # the nonmonotone solve builds both envelope bounds from the same roots
    roots = _count_calls(monkeypatch, dispersion, "RootPair")
    for m, c_star, mode in ((ricker2, ricker2_cstar, "monotone"),
                            (ricker3, ricker3_cstar, "nonmonotone")):
        roots.clear()
        sol = profile.solve(m, 1.3 * c_star, profile.SolverConfig(h=0.02))
        assert sol.mode == mode
        assert len(roots) == 1


def test_auto_dispatch(ricker2, ricker3, ricker2_cstar, ricker3_cstar,
                       monkeypatch):
    s2 = profile.solve(ricker2, 1.3 * ricker2_cstar, profile.SolverConfig(h=0.02))
    assert s2.mode == "monotone" and s2.membership.monotone_ok
    s3 = profile.solve(ricker3, 1.3 * ricker3_cstar, profile.SolverConfig(h=0.02))
    assert s3.mode == "nonmonotone" and "envelope" in s3.note
    # the monotone solver refuses the nonmonotone birth the dispatch avoids
    sr3 = dispersion.critical_speed(
        dispersion.CharacteristicContext.from_model(ricker3))
    with pytest.raises(ModelInvalidError, match="monotone hypothesis set"):
        profile._solve(ricker3, 1.3 * sr3.c_star, profile.SolverConfig(h=0.02),
                       monotone=True, speed=sr3,
                       hypotheses=model.validate_hypotheses(ricker3))
    # the near-critical solve dispatches the same way; record the call
    # instead of running the (long) near-critical iteration
    calls = []

    def fake_solve(model_, c, config, monotone, speed, hypotheses, note=""):
        assert not monotone and "near-critical surrogate" in note
        calls.append((c, config))
        return "nonmonotone ran"

    monkeypatch.setattr(profile, "_solve", fake_solve)
    surrogate = profile.near_critical_speed(sr3)
    assert profile.solve(ricker3, surrogate, speed=sr3) == "nonmonotone ran"
    (c, cfg), = calls
    assert c == pytest.approx(ricker3_cstar * (1.0 + profile.NEAR_CRITICAL_OFFSET))
    assert cfg.damping == 1.0


def test_nonmonotone_solve_hands_its_speed_to_the_lower_envelope(
        ricker3, monkeypatch):
    # the envelopes share b'(0) with the birth, and the lower-envelope model
    # shares d and the delay, so the model's threshold speed and decay roots
    # serve its lower-envelope bound: one solve, and no second c* solve
    sr = dispersion.critical_speed(
        dispersion.CharacteristicContext.from_model(ricker3))
    calls, speeds = [], []

    def counting(*args, **kwargs):
        calls.append(args)
        return critical_speed(*args, **kwargs)

    def recording(*args, **kwargs):
        speeds.append(inspect.signature(solve_).bind(*args, **kwargs)
                      .arguments["speed"])
        return solve_(*args, **kwargs)

    critical_speed, solve_ = dispersion.critical_speed, profile._solve
    monkeypatch.setattr(profile, "critical_speed", counting)
    monkeypatch.setattr(dispersion, "critical_speed", counting)
    monkeypatch.setattr(profile, "_solve", recording)
    sol = profile.solve(ricker3, 1.3 * sr.c_star, profile.SolverConfig(h=0.02),
                        speed=sr)
    assert sol.mode == "nonmonotone"
    assert calls == []
    assert len(speeds) == 1 and speeds[0] is sr
