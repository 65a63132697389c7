"""Property test: `exp_conv_pair` gives the bits of the kernel written as two
public `lfilter` sweeps (`test_kernels.two_pass_conv`), for any grid length,
step, rates g1 < 0 < g2, and samples and tail constants with NaN,
infinities and signed zeros among them.  Runs in process, one case at a
time.

A NaN compares by position, not by bits: where both sweeps are NaN, numpy's
loop over the reversed right sweep and the reference's contiguous add may
keep either operand's sign bit (IEEE 754 leaves it open), so the NaN's sign
is not part of the kernel's contract."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import scipy.signal  # noqa: F401  (the reference's import, outside the deadline)
from sdwave import _kernels
from test_kernels import two_pass_conv

SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0)
finite = st.floats(-1e3, 1e3)
samples = finite | st.sampled_from(SPECIALS)


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(2, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = draw(st.floats(1e-3, 1e3)) * rng.uniform(-1.0, 1.0, n)
    for i, value in draw(st.lists(st.tuples(st.integers(0, n - 1), samples),
                                  max_size=8)):
        H[i] = value
    h = draw(st.floats(1e-4, 2.0))
    g1 = -draw(st.floats(1e-3, 50.0))
    g2 = draw(st.floats(1e-3, 50.0))
    return H, h, g1, g2, draw(samples), draw(samples)


@settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@given(case=kernel_cases())
def test_exp_conv_pair_is_the_two_sweep_kernel_bitwise(case):
    with np.errstate(all="ignore"):
        want = two_pass_conv(*case)
        got = _kernels.exp_conv_pair(*case)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
