"""Property test: `critical_speed` returns a double root of the characteristic
function, (lambda*, c*) with char = 0 and d char / d lam = 0 to 1e-14
relative, reports those two residuals, and gives the same c* as the plain
bisection oracle `conftest.bisect` run on the sign of `char_min`, for random
d, b'(0) > d and tau(0) in [0, 5] and for a few fixed contexts, huge b'(0)
among them.  Runs in process, one case at a time."""
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from sdwave import dispersion
from conftest import bisect


def ctx_of(d, growth, lag0):
    return dispersion.CharacteristicContext(d=d, growth_at_zero=growth,
                                            lag_at_zero=lag0)


@st.composite
def contexts(draw):
    d = draw(st.floats(1e-2, 10.0))
    growth = d + draw(st.floats(1e-2, 50.0))
    return ctx_of(d, growth, draw(st.floats(0.0, 5.0)))


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(ctx=contexts())
@example(ctx=ctx_of(1.0, 2.0, 0.2))
@example(ctx=ctx_of(1.0, 3.0, 0.2))
@example(ctx=ctx_of(0.5, 0.7, 1.0))
@example(ctx=ctx_of(1.0, 10.0, 5.0))
@example(ctx=ctx_of(1.0, 1e30, 0.0))
def test_critical_speed_is_the_double_root(ctx):
    sr = dispersion.critical_speed(ctx)
    c, lam = sr.c_star, sr.lambda_star
    lag = ctx.lag_at_zero * c
    decay = ctx.growth_at_zero * math.exp(-lam * lag)
    assert sr.char_residual == dispersion.char_value(lam, c, ctx)
    assert sr.slope_residual == (2.0 * lam - c - ctx.growth_at_zero * lag
                                 * math.exp(-lam * lag))
    # each residual relative to the magnitudes of the terms it sums
    assert abs(sr.char_residual) <= 1e-14 * (lam * lam + c * lam + ctx.d + decay)
    assert abs(sr.slope_residual) <= 1e-14 * (2.0 * lam + c + lag * decay)
    c_hi = 2.0 * math.sqrt(ctx.growth_at_zero - ctx.d) + 1.0
    want = bisect(lambda s: dispersion.char_min(s, ctx)[1], 1e-6, c_hi)
    assert c == pytest.approx(want, rel=1e-12)
