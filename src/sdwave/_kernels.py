"""Hot numerical kernels: the resolvent's exponential convolution and the
simulator's tridiagonal solve.

Both run on compiled scipy extension modules that `_extension` loads at
first use from their files, without the `scipy.signal` and `scipy.linalg`
package imports.  Those would take a process from 27 MB of peak resident
memory (numpy alone) to 103 MB and cost 1.0 s, mostly `scipy.stats`,
`optimize`, `sparse` and `special`, which sdwave does not use; the two
modules alone add 3 MB and 4 ms (2-core VM).
- `exp_conv_pair` runs its two recurrences through
  `scipy.signal._sigtools._linear_filter`, the C loop that
  `scipy.signal.lfilter` calls for a two-tap denominator, so its results
  are the bits `lfilter` gives;
- the simulator's matrix is constant, symmetric and positive definite, so
  it is factored once per run as LDLᵀ (`scipy.linalg._flapack.dpttrf`,
  the LAPACK routine `scipy.linalg.lapack` exports) and each step is one
  `dpttrs` solve, in place.  Unlike the pivoted LU solve `dgttrs`, its
  back substitution keeps the division off the dependency chain: half the
  time per solve at n = 4,000.
Start-up loads numpy only; a profile solve adds the filter module and a
simulation the LAPACK module.
"""
from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


@functools.cache
def _extension(fullname: str):
    """The compiled module `fullname`, loaded from its file alone.

    The file is looked up in its package's directory under scipy's install
    directory, found without running any `__init__`.  The loader's
    `sys.modules` entry is dropped again, so a later regular import of the
    package runs as in a fresh interpreter and binds the module as its
    attribute.  A module already imported, or a file not found, is taken
    from the regular import system: the same compiled code either way.
    """
    spec = None
    if fullname not in sys.modules:
        top, *sub, _ = fullname.split(".")
        root = importlib.util.find_spec(top)
        if root is not None and root.submodule_search_locations:
            finder = importlib.machinery.FileFinder(
                os.path.join(root.submodule_search_locations[0], *sub),
                (importlib.machinery.ExtensionFileLoader,
                 importlib.machinery.EXTENSION_SUFFIXES))
            spec = finder.find_spec(fullname)
    if spec is None:
        return importlib.import_module(fullname)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(fullname, None)
    return module


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
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    if n < 2:
        raise ValueError("need at least two grid samples")
    linear_filter = _extension("scipy.signal._sigtools")._linear_filter
    one = np.ones(1)                      # the recurrences' numerator
    c0, c1 = _cell_weights(g1, h)
    E1 = np.exp(g1 * h)
    far = np.multiply(c0 - c1, H[1:])     # reused for the mirrored pass
    x = np.multiply(c1, H[:-1])
    x += far
    i0 = h_left / (-g1)
    body, _ = linear_filter(one, np.array([1.0, -E1]), x, -1,
                            np.array([E1 * i0]))

    d0, d1 = _cell_weights(-g2, h)
    E2 = np.exp(-g2 * h)
    # the right-sided sweep runs on reversed samples, built in x's buffer
    y = np.multiply(d1, H[:0:-1], out=x)
    y += np.multiply(d0 - d1, H[-2::-1], out=far)
    j0 = h_right / g2
    body2, _ = linear_filter(one, np.array([1.0, -E2]), y, -1,
                             np.array([E2 * j0]))

    # I_minus is (i0, body) and I_plus is (body2 reversed, j0)
    out = np.empty(n)
    out[0] = i0
    out[1:] = body
    out[:-1] += body2[::-1]
    out[-1] += j0
    out /= g2 - g1
    return out


def factor_tridiagonal(diag, off):
    """LDLᵀ factors of the symmetric positive-definite tridiagonal matrix
    with the given diagonal and off-diagonal.

    Returns the pair (d, e) that `solve_tridiagonal` takes before its
    right-hand side; a matrix that is not positive definite raises
    `LinAlgError`.
    """
    dpttrf = _extension("scipy.linalg._flapack").dpttrf
    d, e, info = dpttrf(diag, off)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"tridiagonal matrix not positive definite (minor {info})")
    return d, e


def solve_tridiagonal(d, e, rhs):
    """Solve one right-hand side against the factors of `factor_tridiagonal`.

    A contiguous float64 `rhs` is overwritten with the solution and returned.
    """
    dpttrs = _extension("scipy.linalg._flapack").dpttrs
    x, _ = dpttrs(d, e, rhs, overwrite_b=1)
    return x
