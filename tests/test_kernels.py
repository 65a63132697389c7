import math

import numpy as np
import pytest

import sdwave
from sdwave import _kernels, pdesim


def kernel_inputs(n=400, seed=0):
    rng = np.random.default_rng(seed)
    H = rng.uniform(0.0, 3.0, n)
    h = 0.02
    g1, g2 = -1.7, 2.9
    return H, h, g1, g2, float(H[0]), float(H[-1])


def brute_force_conv(H, h, g1, g2, h_left, h_right):
    """O(N^2) re-implementation: sum the per-cell closed forms directly."""
    n = H.shape[0]
    out = np.zeros(n)

    def cell(a, near, far):
        em = math.expm1(a * h)
        E = em + 1.0
        c0 = em / a
        c1 = (h * E / a - em / (a * a)) / h
        return c1 * far + (c0 - c1) * near

    for i in range(n):
        left = h_left / (-g1) * math.exp(g1 * h * i)
        for j in range(1, i + 1):
            left += math.exp(g1 * h * (i - j)) * cell(g1, H[j], H[j - 1])
        right = h_right / g2 * math.exp(-g2 * h * (n - 1 - i))
        for j in range(i, n - 1):
            right += math.exp(-g2 * h * (j - i)) * cell(-g2, H[j], H[j + 1])
        out[i] = (left + right) / (g2 - g1)
    return out


def test_constant_is_fixed_point():
    # kernels integrate a constant to constant / beta with beta = -g1*g2
    g1, g2 = -1.25, 3.75
    beta = -g1 * g2
    H = np.full(500, 4.2)
    out = _kernels.exp_conv_pair(H, 0.05, g1, g2, 4.2, 4.2)
    assert np.max(np.abs(out - 4.2 / beta)) < 1e-13


def test_matches_brute_force():
    H, h, g1, g2, hl, hr = kernel_inputs(n=200)
    fast = _kernels.exp_conv_pair(H, h, g1, g2, hl, hr)
    slow = brute_force_conv(H, h, g1, g2, hl, hr)
    assert np.max(np.abs(fast - slow)) < 1e-12


def two_pass_conv(H, h, g1, g2, h_left, h_right):
    """The kernel written as two separate sweeps summed at the end."""
    from scipy.signal import lfilter

    c0, c1 = _kernels._cell_weights(g1, h)
    E1 = np.exp(g1 * h)
    x = c1 * H[:-1] + (c0 - c1) * H[1:]
    i0 = h_left / (-g1)
    body, _ = lfilter([1.0], [1.0, -E1], x, zi=np.array([E1 * i0]))
    i_minus = np.concatenate(([i0], body))
    d0, d1 = _kernels._cell_weights(-g2, h)
    E2 = np.exp(-g2 * h)
    y = (d1 * H[1:] + (d0 - d1) * H[:-1])[::-1]
    j0 = h_right / g2
    body2, _ = lfilter([1.0], [1.0, -E2], y, zi=np.array([E2 * j0]))
    i_plus = np.concatenate((body2[::-1], [j0]))
    return (i_minus + i_plus) / (g2 - g1)


@pytest.mark.parametrize("n", [2, 3, 400, 5000])
def test_matches_two_pass_form_bitwise(n):
    H, h, g1, g2, hl, hr = kernel_inputs(n=n, seed=n)
    if n > 3:
        H[n // 3] = np.nan           # NaN and infinities travel the same way
        H[n // 2] = np.inf
        H[-5:] = -0.0
    with np.errstate(invalid="ignore"):
        want = two_pass_conv(H, h, g1, g2, hl, hr)
        got = _kernels.exp_conv_pair(H, h, g1, g2, hl, hr)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_exponential_profile_analytic():
    # H = exp(lam x) on a long grid: interior values match the analytic
    # transform 1 / ((lam - g1)(g2 - lam)) up to interpolation error O(h^2)
    lam, h = 0.6, 0.005
    g1, g2 = -2.0, 3.1
    x = -40.0 + h * np.arange(12_000)
    H = np.exp(lam * x)
    out = _kernels.exp_conv_pair(H, h, g1, g2, 0.0, float(H[-1]))
    exact = H / ((lam - g1) * (g2 - lam))
    mid = slice(4000, 8000)
    rel = np.max(np.abs(out[mid] - exact[mid]) / exact[mid])
    assert rel < 5e-6


def test_cell_weight_series_branch_continuity():
    # series and expm1 branches agree near the switch point
    for a in (0.9e-3, 1.1e-3, -0.9e-3, -1.1e-3):
        h = 1.0
        c0s, c1s = _kernels._cell_weights(a, h)
        em = np.expm1(a * h)
        E = em + 1.0
        c0 = em / a
        c1 = (h * E / a - em / (a * a)) / h
        assert c0s == pytest.approx(c0, rel=1e-10)
        assert c1s == pytest.approx(c1, rel=1e-8)


def test_tridiagonal_against_dense():
    # a symmetric, strictly diagonally dominant (so positive-definite) matrix;
    # the solve overwrites its right-hand side and returns it
    rng = np.random.default_rng(11)
    n = 50
    off = rng.uniform(-1.0, -0.1, n - 1)
    diag = 2.0 + rng.uniform(0.5, 1.0, n)
    rhs = rng.uniform(-1.0, 1.0, n)
    A = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
    expect = np.linalg.solve(A, rhs)
    factors = _kernels.factor_tridiagonal(diag, off)
    b = rhs.copy()
    got = _kernels.solve_tridiagonal(*factors, b)
    assert np.shares_memory(got, b)
    assert np.max(np.abs(got - expect)) < 1e-11


def backward_euler_matrix(sim):
    """The simulator's backward-Euler matrix as written, before `_setup_matrix`
    makes it symmetric: Neumann end rows couple by -2r, Dirichlet end rows
    are the identity."""
    r = sim.dt / sim.dx**2
    n = sim.config.nx
    A = (np.diag(np.full(n, 1.0 + 2.0 * r)) + np.diag(np.full(n - 1, -r), -1)
         + np.diag(np.full(n - 1, -r), 1))
    if sim.config.boundary == "neumann":
        A[0, 1] = A[-1, -2] = -2.0 * r
    else:
        A[0, :] = A[-1, :] = 0.0
        A[0, 0] = A[-1, -1] = 1.0
    return A


def mapped_solve(sim, rhs):
    """One step's solve: the right-hand side mapped by `_symmetric_rhs`, then
    solved against the factors `_setup_matrix` made once."""
    return _kernels.solve_tridiagonal(*sim._factors, sim._symmetric_rhs(rhs.copy()))


@pytest.mark.parametrize("boundary", ["neumann", "dirichlet"])
def test_factored_simulator_matrix_against_dense(boundary):
    # the symmetric system, factored once and reused, solves the
    # unsymmetrized backward-Euler system
    cfg = pdesim.SimConfig(x_min=-10.0, x_max=10.0, nx=80, t_end=1.0, dt=0.05,
                           boundary=boundary, initial=np.zeros_like,
                           snapshot_times=[])
    sim = pdesim.ComparisonSim(pdesim.ComparisonParams(D1=1.0, D2=2.0, D3=1.0), cfg)
    A = backward_euler_matrix(sim)
    rng = np.random.default_rng(3)
    for _ in range(5):
        rhs = rng.uniform(-1.0, 1.0, cfg.nx)
        expect = np.linalg.solve(A, rhs)
        assert np.max(np.abs(mapped_solve(sim, rhs) - expect)) < 1e-12


def test_factor_rejects_singular_matrix():
    # singular, and nonsingular but indefinite: neither is positive definite
    with pytest.raises(np.linalg.LinAlgError):
        _kernels.factor_tridiagonal(np.zeros(4), np.ones(3))
    with pytest.raises(np.linalg.LinAlgError):
        _kernels.factor_tridiagonal(np.array([1.0, -1.0, 1.0]), np.zeros(2))


def test_kernel_backend_is_numpy():
    # perfbench/run.py reports this name with every run
    assert sdwave.kernel_backend == "numpy"
