"""Hot numerical kernels: the resolvent's exponential convolution and the
simulator's tridiagonal solve.

The recurrences run through scipy's C filter implementation.  Importing
`scipy.signal` costs more than the rest of the package together, so
`exp_conv_pair` imports `lfilter` at its first call: only the commands that
iterate profiles (`profile`, `sweep`) pay for it.  The simulator's matrix is
constant, so its tridiagonal system is factored once per run (LAPACK gttrf)
and each step is one gttrs solve.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs


def _cell_weights(a: float, h: float) -> tuple:
    """Exact integrals of the linear interpolant against exp(a*r) on [0, h].

    Returns (c0, c1) with contribution = c1 * H_near + (c0 - c1) * H_far in
    the recurrence orientation.  Series branch avoids cancellation for small
    |a*h|.
    """
    z = a * h
    if abs(z) < 1e-3:
        c0 = h * (1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0)
        c1 = h * (0.5 + z / 3.0 + z * z / 8.0 + z * z * z / 30.0)
    else:
        em = np.expm1(z)
        E = em + 1.0
        c0 = em / a
        c1 = (h * E / a - em / (a * a)) / h
    return c0, c1


def exp_conv_pair(H, h: float, g1: float, g2: float,
                  h_left: float, h_right: float):
    """Two-sided exponential convolution of grid samples H.

    Computes I_minus(x_i) = integral_{-inf}^{x_i} exp(g1 (x_i - s)) H(s) ds
    and its mirrored right-sided counterpart with rate g2, treating H as its
    linear interpolant on the grid and as the constants h_left / h_right
    beyond it (exact tails).  Returns (I_minus + I_plus) / (g2 - g1).
    Requires g1 < 0 < g2.
    """
    from scipy.signal import lfilter

    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    if n < 2:
        raise ValueError("need at least two grid samples")
    c0, c1 = _cell_weights(g1, h)
    E1 = np.exp(g1 * h)
    far = np.multiply(c0 - c1, H[1:])     # reused for the mirrored pass
    x = np.multiply(c1, H[:-1])
    x += far
    i0 = h_left / (-g1)
    body, _ = lfilter([1.0], [1.0, -E1], x, zi=np.array([E1 * i0]))

    d0, d1 = _cell_weights(-g2, h)
    E2 = np.exp(-g2 * h)
    # the right-sided sweep runs on reversed samples, built in x's buffer
    y = np.multiply(d1, H[:0:-1], out=x)
    y += np.multiply(d0 - d1, H[-2::-1], out=far)
    j0 = h_right / g2
    body2, _ = lfilter([1.0], [1.0, -E2], y, zi=np.array([E2 * j0]))

    # I_minus is (i0, body) and I_plus is (body2 reversed, j0)
    out = np.empty(n)
    out[0] = i0
    out[1:] = body
    out[:-1] += body2[::-1]
    out[-1] += j0
    out /= g2 - g1
    return out


def factor_tridiagonal(lower, diag, upper):
    """LU factors (partial pivoting) of the matrix with the given bands.

    Returns the tuple (dl, d, du, du2, ipiv) that `solve_tridiagonal` takes
    before its right-hand side.
    """
    dl, d, du, du2, ipiv, info = dgttrf(lower, diag, upper)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal matrix (pivot {info})")
    return dl, d, du, du2, ipiv


def solve_tridiagonal(dl, d, du, du2, ipiv, rhs):
    """Solve one right-hand side against the factors of `factor_tridiagonal`."""
    x, _ = dgttrs(dl, d, du, du2, ipiv, rhs)
    return x
