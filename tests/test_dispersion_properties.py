"""Property tests of the characteristic function's roots, for random d,
b'(0) > d and tau(0) in [0, 5] and for a few fixed contexts, huge b'(0) among
them.  Run in process, one case at a time.

`critical_speed` returns a double root, (lambda*, c*) with char = 0 and
d char / d lam = 0 to 1e-14 relative, reports those two residuals, and gives
the same c* as the plain bisection oracle `conftest.bisect` run on the sign
of `char_min`.  `decay_roots` at c = f c*, f in (1 + 1e-6, 100], returns the
bisection's roots 0 < lambda1 < argmin char < lambda2, with char negative
between them and zero at each to 1e-14 relative."""
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


def relative_char(lam, c, ctx):
    """|char(lam, c)| relative to the magnitudes of the terms it sums."""
    decay = ctx.growth_at_zero * math.exp(-lam * ctx.lag_at_zero * c)
    return (abs(dispersion.char_value(lam, c, ctx))
            / (lam * lam + c * lam + ctx.d + decay))


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(ctx=contexts(),
       factor=st.floats(1.0 + 1e-6, 100.0, exclude_min=True))
@example(ctx=ctx_of(1.0, 2.0, 0.2), factor=1.2)
@example(ctx=ctx_of(1.0, 2.0, 0.2), factor=1.0 + 2e-6)
@example(ctx=ctx_of(1.0, 1.8634013749599432, 0.0), factor=100.0)
@example(ctx=ctx_of(0.3, 0.559020412487983, 0.2), factor=100.0)
@example(ctx=ctx_of(2.5, 2.5e6, 1e-3), factor=1.0 + 2e-6)
@example(ctx=ctx_of(1.0, 1e30, 0.0), factor=2.0)
def test_decay_roots_are_the_bisection_roots(ctx, factor):
    c = factor * dispersion.critical_speed(ctx).c_star
    roots = dispersion.decay_roots(c, ctx)
    lam1, lam2 = roots.lambda1, roots.lambda2
    assert 0.0 < lam1 < dispersion.char_min(c, ctx)[0] < lam2
    assert dispersion.char_value(0.5 * (lam1 + lam2), c, ctx) < 0.0
    # the largest measured, over 3,000 derandomized cases, is 4.8e-16
    assert relative_char(lam1, c, ctx) <= 1e-14
    assert relative_char(lam2, c, ctx) <= 1e-14
