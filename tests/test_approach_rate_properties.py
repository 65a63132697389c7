"""Property test: `profile._approach_rate` is the decay root at the right end.

A monotone profile approaches K as exp(-rate xi), and the default right
width of a monotone grid is 20/rate, so the grid resolves its tail only if
rate is that root.  For a monotone Ricker birth (p in [1.05, e), d = 1)
under a rational or an exponential lag, at a speed above c*, rate must be
positive, a root of g(mu) = mu^2 - c mu - d + b'(K) exp(-mu c tau(K)) at
mu = -rate to 1e-12 relative to the magnitudes of its terms, and no larger
than the rate -mu0 = (sqrt(c^2 + 4d) - c) / 2 of the birth-free equation.
Runs in process, one case at a time.
"""
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from sdwave import dispersion, model, profile

DELAYS = {"rational": model.RationalDelay,
          "exponential": model.ExponentialDelay}


def ricker(p, kind, m, M):
    return model.ModelSpec(d=1.0, birth=model.RickerBirth(p),
                           delay=DELAYS[kind](m, M))


@st.composite
def cases(draw):
    # as p falls to 1, K = ln p falls to 0, and the hypothesis checks fail on
    # rounding first: at p = 1 + 2.2e-16, B2 fails at u = 2.2e-20
    p = draw(st.floats(1.05, math.e, exclude_max=True))
    m = draw(st.floats(0.0, 2.0))
    M = m + draw(st.floats(0.0, 3.0))
    factor = draw(st.floats(1.0, 4.0, exclude_min=True))
    return ricker(p, draw(st.sampled_from(sorted(DELAYS))), m, M), factor


@settings(max_examples=120, deadline=2000, derandomize=True, database=None)
@given(case=cases())
@example(case=(ricker(2.0, "rational", 0.2, 0.7), 1.2))
@example(case=(ricker(2.0, "exponential", 0.2, 0.7), 2.0))
@example(case=(ricker(math.nextafter(math.e, 0.0), "rational", 0.2, 0.7), 1.5))
@example(case=(ricker(1.05, "exponential", 0.0, 5.0), 3.0))
def test_approach_rate_is_the_decay_root(case):
    spec, factor = case
    assert not model.validate_hypotheses(spec).failures(model.MONOTONE_SET)
    c_star = dispersion.critical_speed(
        dispersion.CharacteristicContext.from_model(spec)).c_star
    c = factor * c_star
    K = model.equilibrium(spec)
    rate = profile._approach_rate(spec, c, K)
    mu, s, lag = -rate, spec.birth.derivative(K), c * spec.delay.tau(K)
    decay = s * math.exp(-mu * lag)
    assert rate > 0.0
    g = mu * mu - c * mu - spec.d + decay
    assert abs(g) <= 1e-12 * (mu * mu + abs(c * mu) + spec.d + abs(decay))
    assert rate <= 0.5 * (math.sqrt(c * c + 4.0 * spec.d) - c)
