"""Weyl quantization on the grid: kernel assembly, symbol recovery and the
Weyl product of two symbols through their kernels.

The kernel of a^w is K(x, y) = (2 pi)^{-d} int e^{i <x - y, xi>} a((x+y)/2, xi) d xi,
discretized with the symbol sampled on the dual grid.  Symbol recovery
integrates K(x + y/2, x - y/2) e^{-i y xi} over |y| < R; odd multiples of the
grid step need kernel values at half-grid midpoints, obtained by 8-point
polynomial interpolation along lines parallel to the diagonal.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .gabor import Field4D
from .grids import GridSpec, OperatorMatrix, SizeGuardError


def _check_d1(spec: GridSpec):
    if spec.d != 1:
        raise ValueError("dense Weyl operators are implemented for d = 1 only")


def weyl_kernel(a, spec: GridSpec) -> OperatorMatrix:
    """Operator matrix of a^w(x, D) for a symbol callable on R^2, or for
    sampled symbol values (a Field4D), whose splines (_splines) are evaluated
    on the tensor grid at once, not point by point.

    The symbol is evaluated at midpoints (x_k + x_l)/2, which form a grid of
    2n - 1 points, so assembly is O(n^2) evaluations plus one matrix product.
    Refuses with SizeGuardError past MEMORY_CAP_ENTRIES matrix entries.
    """
    _check_d1(spec)
    SizeGuardError.check(spec.size() ** 2)
    n, h, R = spec.n, spec.h, spec.R
    xi = spec.dual_points()
    mids = -R + 0.5 * h * np.arange(2 * n - 1)
    if isinstance(a, Field4D):
        re, im = _splines(a)
        A = re(mids, xi) + 1j * im(mids, xi)  # (2n-1, n)
    else:
        pts = np.stack(np.meshgrid(mids, xi, indexing="ij"), axis=-1)
        A = np.asarray(a(pts), dtype=complex)
    tvals = np.arange(-(n - 1), n)
    E = np.exp(1j * h * np.outer(tvals, xi))  # (2n-1, n)
    B = (spec.dual_h / (2 * np.pi)) * (A @ E.T)
    k = np.arange(n)
    K = B[k[:, None] + k[None, :], k[:, None] - k[None, :] + n - 1]
    return OperatorMatrix(spec, K)


_HALF_NODES = np.arange(-3, 5, dtype=float)
_HALF_WEIGHTS = np.array([
    np.prod([(0.5 - xj) / (xi - xj) for xj in _HALF_NODES if xj != xi])
    for xi in _HALF_NODES
])


def interior_mask(symbol: Field4D) -> np.ndarray:
    """|x| and |xi| both at most half the position extent max |x| (the dual
    axis reaches further, to pi / h): where a symbol recovered from a kernel
    is unaffected by the truncation of the grid."""
    x, xi = symbol.axes
    bound = 0.5 * np.abs(x).max()
    return (np.abs(x)[:, None] <= bound) & (np.abs(xi)[None, :] <= bound)


def _splines(symbol: Field4D) -> tuple:
    """Quintic splines through the real and imaginary parts of symbol
    samples a(x_k, xi_m)."""
    from scipy.interpolate import RectBivariateSpline

    x, xi = symbol.axes
    return (RectBivariateSpline(x, xi, symbol.values.real, kx=5, ky=5),
            RectBivariateSpline(x, xi, symbol.values.imag, kx=5, ky=5))


def _spline_partial(splines, i: int, j: int, z) -> np.ndarray:
    """d_x^i d_xi^j of the splines of _splines at points z of shape (..., 2);
    each order must stay below the spline degree."""
    z = np.asarray(z, dtype=float)
    x, xi = z.reshape(-1, 2).T
    re, im = splines
    out = re(x, xi, dx=i, dy=j, grid=False) + 1j * im(x, xi, dx=i, dy=j, grid=False)
    return out.reshape(z.shape[:-1])


def symbol_from_kernel(K: OperatorMatrix) -> Field4D:
    """Recover the Weyl symbol on the phase-space grid from a kernel matrix:
    samples a(x_k, xi_m) on the axes (points, dual points)."""
    spec = K.spec
    _check_d1(spec)
    n, h = spec.n, spec.h
    xi = spec.dual_points()
    # symmetric difference window with half weight at both Nyquist endpoints,
    # so the discrete orthogonality sum over t is exact for every dual mode
    tvals = np.arange(-n // 2, n // 2 + 1)
    wts = np.ones(len(tvals))
    wts[0] = wts[-1] = 0.5

    def diagonal(p, t):  # K[p, p - t] elementwise, zero off the grid
        valid = (p >= 0) & (p < n) & (p - t >= 0) & (p - t < n)
        return np.where(valid, K.entries[p.clip(0, n - 1), (p - t).clip(0, n - 1)], 0)

    # column t holds K(x_k + t h/2, x_k - t h/2): on the grid for even t, and
    # for odd t interpolated from the nodes along the line of difference t
    odd = tvals % 2 == 1
    p = np.arange(n)[:, None] + tvals // 2
    S = np.where(odd, 0, diagonal(p, tvals))
    for node, w in zip(_HALF_NODES.astype(int), _HALF_WEIGHTS):
        S[:, odd] += w * diagonal(p[:, odd] + node, tvals[odd])
    E = np.exp(-1j * h * np.outer(tvals, xi))
    values = h * ((S * wts) @ E)
    return Field4D((spec.points(), xi), values)


def weyl_product(a, b, spec: GridSpec) -> Field4D:
    """Weyl product a # b extracted from the composed kernel matrices."""
    Ka = weyl_kernel(a, spec)
    Kb = weyl_kernel(b, spec)
    return symbol_from_kernel(Ka.compose(Kb))


def _pullback(a, M: np.ndarray):
    """The symbol z -> a(M z) for a symbol callable a on R^2."""
    return lambda z: np.asarray(a((z.reshape(-1, 2) @ M.T).reshape(z.shape)), dtype=complex)


def symbol_callable(sym) -> callable:
    if isinstance(sym, Field4D):
        return partial(_spline_partial, _splines(sym), 0, 0)
    return sym
