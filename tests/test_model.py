import math

import numpy as np
import pytest

from sdwave import bounds, model
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
                        delay=model.RationalDelay(0.0, 0.0))
    oracle = bisect(lambda u: 2.0 * math.exp(-u) - 1.0, 1e-9, 50.0)
    K = model.equilibrium(m)
    assert K == pytest.approx(oracle, abs=1e-12)
    assert K == pytest.approx(math.log(2.0), abs=1e-12)


def test_equilibrium_analytic_p_equals_e():
    m = model.ModelSpec(d=1.0, birth=model.RickerBirth(math.e),
                        delay=model.RationalDelay(0.0, 0.0))
    assert model.equilibrium(m) == pytest.approx(1.0, abs=1e-12)


def test_equilibrium_rejects_subcritical_growth():
    m = model.ModelSpec(d=2.0, birth=model.RickerBirth(1.5),
                        delay=model.RationalDelay(0.0, 0.0))
    with pytest.raises(ModelInvalidError):
        model.equilibrium(m)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_quadratic_gap_matches_grid_oracle(p):
    m = model.ModelSpec(d=1.0, birth=model.RickerBirth(p),
                        delay=model.RationalDelay(0.0, 0.0))
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
                        delay=model.RationalDelay(0.0, 0.0))
    end = model.equilibrium(m)
    L = model.quadratic_gap(m, end)
    g = np.linspace(0.0, end, 10_001)[1:]
    gap = m.birth.derivative_at_zero * g - m.birth.value(g)
    assert np.all(gap >= -1e-12)
    assert np.all(gap <= L * g**2 + 1e-12)


def test_birth_peak_values():
    m2 = model.ModelSpec(d=1.0, birth=model.RickerBirth(2.0),
                         delay=model.RationalDelay(0.0, 0.0))
    assert model.birth_peak(m2) == pytest.approx(math.log(2.0), abs=1e-12)
    m3 = model.ModelSpec(d=1.0, birth=model.RickerBirth(3.0),
                         delay=model.RationalDelay(0.0, 0.0))
    assert model.birth_peak(m3) == pytest.approx(3.0 / math.e, abs=1e-12)


def test_birth_peak_monotone_is_right_endpoint():
    u = np.linspace(0.0, 3.0, 400)
    samples = np.column_stack([u, 2.0 * u / (1.0 + u)])
    m = model.ModelSpec(d=1.0, birth=model.TabulatedBirth(samples),
                        delay=model.RationalDelay(0.0, 0.0))
    K = model.equilibrium(m)
    assert model.birth_peak(m) == pytest.approx(m.birth.value(K), rel=1e-8)
    assert model.birth_peak(m) == pytest.approx(m.d * K, rel=1e-8)


def test_birth_peak_tabulated_interior_matches_golden_section_oracle():
    # Ricker p=3 peaks at u = 1 inside (0, K = ln 3); the grid maximum is
    # refined by the sign change of b', whose value the oracle confirms
    u = np.linspace(0.0, 6.0, 97)
    samples = np.column_stack([u, 3.0 * u * np.exp(-u)])
    m = model.ModelSpec(d=1.0, birth=model.TabulatedBirth(samples),
                        delay=model.RationalDelay(0.0, 0.0))
    K = model.equilibrium(m)
    grid = np.linspace(0.0, K, model.GRID_POINTS)
    peak = model.birth_peak(m)
    assert peak >= float(np.max(m.birth.value(grid)))
    want = m.birth.value(golden_max(m.birth.value, 0.9, 1.1))
    assert peak == pytest.approx(want, rel=1e-14)
    assert peak == pytest.approx(3.0 / math.e, rel=1e-5)


def test_sup_delay_slope():
    assert model.RationalDelay(0.3, 0.3).slope_sup() == 0.0
    m = model.ModelSpec(1.0, model.RickerBirth(2.0), model.RationalDelay(0.2, 0.7))
    assert m.delay.slope_sup() == pytest.approx(0.5, abs=1e-14)
    # grid cross-check: slope is maximal at u = 0
    u = np.linspace(0.0, 5.0, 10_001)
    assert np.max(m.delay.slope(u)) <= 0.5 + 1e-14
    m2 = model.ModelSpec(1.0, model.RickerBirth(2.0), model.ExponentialDelay(0.0, 0.9))
    assert m2.delay.slope_sup() == pytest.approx(0.9, abs=1e-14)


ALL_IDS = model.SHARED_SET + model.MONOTONE_SET + model.RELAXED_SET


def checks(rep):
    """id -> check of every entry of a hypothesis report, in order."""
    return {e.id: e for e in rep.entries}


class TestHypothesisValidation:
    def test_monotone_set_holds_for_p2(self, ricker2):
        rep = model.validate_hypotheses(ricker2)
        assert rep.failures(ALL_IDS) == ""
        assert all(e.holds for e in rep.entries)

    def test_p3_fails_monotone_with_witness_above_one(self, ricker3):
        rep = model.validate_hypotheses(ricker3)
        b3 = checks(rep)["B3"]
        assert not b3.holds
        u, desc = b3.witness
        assert u > 1.0
        assert "b'" in desc
        assert rep.failures(model.MONOTONE_SET) == f"B3: {desc}"

    def test_p3_nonmonotone_set_holds(self, ricker3):
        rep = model.validate_hypotheses(ricker3)
        assert rep.failures(model.SHARED_SET + model.RELAXED_SET) == ""

    def test_steep_delay_fails_a2(self):
        m = model.ModelSpec(d=1.0, birth=model.RickerBirth(2.0),
                            delay=model.RationalDelay(0.2, 1.4))
        rep = model.validate_hypotheses(m)
        a2 = checks(rep)["A2"]
        assert not a2.holds
        u, desc = a2.witness
        assert u == pytest.approx(0.0, abs=1e-6)
        assert "1.2" in desc

    def test_random_rickers_in_monotone_window(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = rng.uniform(0.3, 2.0)
            ratio = rng.uniform(1.05, math.e)
            m = model.ModelSpec(d=d, birth=model.RickerBirth(ratio * d),
                                delay=model.RationalDelay(0.1, 0.6))
            rep = model.validate_hypotheses(m)
            assert rep.failures(model.SHARED_SET + model.MONOTONE_SET) == "", (
                d, ratio, rep.failures(ALL_IDS))


def _table(u, b):
    return model.TabulatedBirth(np.column_stack([u, b]))


def _dipping_birth():
    """2u/(1+u) with a narrow dip below u near 0.5032 (d = 1, K = 1).

    The dip falls between two nodes of the geometric scan that locates K,
    so K stays 1 and the dip is a violation inside (0, K).
    """
    u0 = 0.5032
    u = np.linspace(0.0, 4.0, 81)
    u = np.sort(np.concatenate([u[np.abs(u - u0) > 0.01],
                                [u0 - 1e-3, u0, u0 + 1e-3]]))
    b = 2.0 * u / (1.0 + u)
    b[u == u0] = u0 - 0.05
    return _table(u, b)


def _recrossing_birth():
    """b(u) - u changes sign at 1, 2 and 3: above K = 1 it turns positive."""
    u = np.linspace(0.0, 6.0, 61)
    return _table(u, u + 0.3 * u * (1 - u) * (2 - u) * (3 - u) * np.exp(-u))


def _convex_birth():
    u = np.linspace(0.0, 3.0, 31)
    return _table(u, 2.0 * u + 0.5 * u * u)


def _linear_start_birth():
    """2u up to u = 0.5, then 2u exp(0.5 - u): b''(0) = 0, and the first
    cells lie on the tangent up to rounding, which B2 and C2 still flag."""
    u = np.linspace(0.0, 6.0, 601)
    return _table(u, np.where(u <= 0.5, 2.0 * u, 2.0 * u * np.exp(0.5 - u)))


def _fails(u, violated):
    """The witness of a failed check."""
    return (u, violated)


NO_EQUILIBRIUM = _fails(0.0, "no positive equilibrium")
STEEP_LAG = _fails(0.0, "tau'(0) = 1.2 outside [0, 1)")
FALLING_LAG = _fails(0.0, "tau'(0) = -0.5 outside [0, 1)")
FALLING_LIMIT = _fails(0.0, "limit 0.2 below tau(0) = 0.7")
DIP = _fails(0.5029, "b(u) <= d*u inside (0, K) at u=0.5029")
RECROSS = _fails(2.0008, "b(u) outside (0, d*u) above K at u=2.0008")

# the witnesses of one model's failed checks, exactly: the checks both
# solvers need, and the monotone and relaxed sets; every other entry holds
FAILING_ENTRIES = {
    "steep lag": (lambda: model.RickerBirth(2.0),
                  lambda: model.RationalDelay(0.2, 1.4), {"A2": STEEP_LAG}),
    "negative lag": (lambda: model.RickerBirth(2.0),
                     lambda: model.RationalDelay(-0.1, -0.1),
                     {"A3": _fails(0.0, "tau(0) = -0.1 < 0")}),
    "falling lag": (lambda: model.RickerBirth(2.0),
                    lambda: model.RationalDelay(0.7, 0.2),
                    {"A2": FALLING_LAG, "A3": FALLING_LIMIT}),
    "dip": (_dipping_birth, lambda: model.RationalDelay(0.2, 0.7),
            {"B": DIP, "B3": _fails(0.5023, "b'(0.5023) = -116.326 < 0"),
             "C3": _fails(0.5023, "|b'(0.5023)| > b'(0)")}),
    "recrossing": (_recrossing_birth, lambda: model.RationalDelay(0.2, 0.7),
                   {"B": RECROSS}),
    "convex": (_convex_birth, lambda: model.RationalDelay(0.2, 0.7),
               {"B2": _fails(0.00105, "b(u) >= b'(0)*u at u=0.00105"),
                "B3": _fails(0.00105, "b'(0.00105) > b'(0)"),
                "B4": _fails(0.0, "b(u) exceeds its linearization at "
                                  "u=2.99985; gap hypothesis fails"),
                "C2": _fails(0.0105, "b(u) >= b'(0)*u at u=0.0105"),
                "C3": _fails(0.00105, "|b'(0.00105)| > b'(0)")}),
    "linear start": (_linear_start_birth, lambda: model.RationalDelay(0.2, 0.7),
                     {"B2": _fails(0.0001193147263226142,
                                   "b(u) >= b'(0)*u at u=0.000119315"),
                      "B3": _fails(1.0000960360361522,
                                   "b'(1.0001) = -0.000173133 < 0"),
                      "B4": _fails(0.0, "b(u) exceeds its linearization at "
                                        "u=0.496707; gap hypothesis fails"),
                      "C2": _fails(0.0012130613194252667,
                                   "b(u) >= b'(0)*u at u=0.00121306"),
                      "C3": _fails(0.4900767730478078,
                                   "|b'(0.490077)| > b'(0)")}),
    "ricker p=3": (lambda: model.RickerBirth(3.0),
                   lambda: model.RationalDelay(0.2, 0.7),
                   {"B3": _fails(1.0000667663745804,
                                 "b'(1.00007) = -7.3681e-05 < 0")}),
    "no equilibrium": (lambda: model.RickerBirth(0.5),
                       lambda: model.RationalDelay(0.2, 0.7),
                       {id: NO_EQUILIBRIUM for id in ALL_IDS[3:]}),
}
SOLVER_SETS = {"monotone": model.MONOTONE_SET, "nonmonotone": model.RELAXED_SET}


@pytest.mark.parametrize("solver", SOLVER_SETS)
@pytest.mark.parametrize("name", FAILING_ENTRIES)
def test_failing_hypotheses_report_exact_witnesses(name, solver):
    # one report holds every check; a solver's gate reads the shared checks
    # and its own set from it
    birth, delay, expected = FAILING_ENTRIES[name]
    m = model.ModelSpec(d=1.0, birth=birth(), delay=delay())
    rep = model.validate_hypotheses(m)
    entries = checks(rep)
    assert list(entries) == list(ALL_IDS)
    assert all((e.witness is None) == e.holds for e in rep.entries)
    assert {id: e.witness for id, e in entries.items() if not e.holds} == expected
    ids = model.SHARED_SET + SOLVER_SETS[solver]
    assert rep.failures(ids) == "; ".join(
        f"{id}: {expected[id][1]}" for id in ids if id in expected)


@pytest.mark.parametrize("p", [100.0, 120.0])
def test_rounding_to_the_tangent_is_no_witness(p):
    # the lower-envelope model of Ricker p=100, d=1, has k = 3.9e-13 (3.6e-16
    # at p=120); on the first points of its grid [0, k], p u exp(-u) rounds
    # to p u exactly, which failed B2 at u = 3.88e-17 (3.56e-20)
    m = model.ModelSpec(d=1.0, birth=model.RickerBirth(p),
                        delay=model.RationalDelay(0.2, 0.7))
    pair = bounds.build_envelopes(m, False)
    first = np.linspace(0.0, pair.k, model.GRID_POINTS)[1]
    assert pair.lower.value(first) == p * first
    rep = model.validate_hypotheses(pair.lower_model(m))
    assert not rep.failures(model.SHARED_SET + model.MONOTONE_SET)


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
                               delay=model.RationalDelay(0.0, 0.0)), "death rate d"),
    (lambda x: model.RickerBirth(x), "ricker coefficient p"),
    (lambda x: model.ExponentialDelay(x, 0.7), "delay m"),
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
