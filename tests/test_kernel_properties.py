"""Property tests of the two kernels.  Run in process, one case at a time.

`exp_conv_pair` gives the bits of the kernel written as two public
`lfilter` sweeps (`test_kernels.two_pass_conv`), for any grid length,
step, rates g1 < 0 < g2, and samples and tail constants with NaN,
infinities and signed zeros among them.

A NaN compares by position, not by bits: where both sweeps are NaN, numpy's
loop over the reversed right sweep and the reference's contiguous add may
keep either operand's sign bit (IEEE 754 leaves it open), so the NaN's sign
is not part of the kernel's contract.

The simulator's diffusion solve, the symmetric system `_setup_matrix`
factors with the right-hand side mapped by `_symmetric_rhs`, solves the
unsymmetrized backward-Euler system for any r = dt/dx^2 in [1e-4, 1e4],
grid length and boundary kind."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import scipy.signal  # noqa: F401  (the reference's import, outside the deadline)
from sdwave import _kernels, pdesim
from test_kernels import backward_euler_matrix, mapped_solve, two_pass_conv

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


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(r=st.floats(1e-4, 1e4), nx=st.integers(8, 300),
       boundary=st.sampled_from(["neumann", "dirichlet"]),
       seed=st.integers(0, 2**32 - 1))
def test_mapped_diffusion_solve_is_the_dense_solve(r, nx, boundary, seed):
    # dt = 0.01 sits inside the comparison system's reaction budget, 0.05;
    # the grid step gives r = dt/dx^2 up to rounding
    dt = 0.01
    cfg = pdesim.SimConfig(x_min=0.0, x_max=(nx - 1) * np.sqrt(dt / r), nx=nx,
                           t_end=dt, dt=dt, boundary=boundary,
                           initial=np.zeros_like, snapshot_times=[])
    sim = pdesim.ComparisonSim(pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0), cfg)
    rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, nx)
    # the dense solve pivots a Dirichlet identity row under its -r coupling
    # and loses up to r eps (3.5e-12 at r = 1e4, nx = 300); one step of
    # refinement gives the reference back its accuracy
    A = backward_euler_matrix(sim)
    want = np.linalg.solve(A, rhs)
    want += np.linalg.solve(A, rhs - A @ want)
    got = mapped_solve(sim, rhs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
