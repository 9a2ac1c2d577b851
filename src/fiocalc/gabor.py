"""FBI-type transforms, wavefront estimation, the chi-twisted kernel field
swept slab by slab into its readers, and decay profiling against
Lagrangian subspaces with its verdict.

T_g u(x, xi) = (2 pi)^{-d/2} (u, T_x M_xi g); the magnitude equals that of the
short-time Fourier transform, and the chi twist multiplies by a unimodular
factor only.  The window g is psi_0 = pi^{-d/4} e^{-|x|^2/2} throughout: any
other fixed Schwartz window gives equivalent estimates, so only
gabor_transform takes one (the FBI covariance check transforms with
mu(chi) psi_0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridFunction, SizeGuardError, gaussian_window, gaussian_window_at
from .symbols import _shell_maxima, shell_slope
from .symplectic import (DimensionError, LagrangianSubspace, SymplecticMatrix,
                         orthogonal_complement)

POINT_CHUNK = 2048  # phase-space points per block of the point evaluator
KERNEL_STRIDE = 2  # decimation of the 4-D kernel field: (n / stride)^4 entries


@dataclass(frozen=True)
class Field4D:
    """Complex samples on a phase-space grid, position axes first.  The
    package builds it with 2 axes (x, xi): the transform of a function on R
    or a Weyl symbol recovered from a kernel.  The 4-axis field of a kernel
    on R^2 is swept (sweep_kernel_field), never held; only tests hold it
    whole in a Field4D."""

    axes: tuple  # 1D coordinate arrays
    values: np.ndarray  # one dimension per axis


@dataclass(frozen=True)
class InteriorBox:
    """The box of a field's grid that profiles and cone checks read
    (_interior_box): the box axes, cut from the whole axes; which box points
    are interior, one boolean array per axis; and the whole field's axis
    steps, which the cut axes do not repeat to the bit.  It holds no values:
    a sweep (_Sweep) passes them to its readers as they arrive."""

    axes: tuple
    inside: tuple
    field_steps: tuple

    @property
    def shape(self) -> tuple:
        return tuple(len(a) for a in self.axes)

    def interior(self, lo: int, hi: int) -> np.ndarray:
        """The interior mask on the layers lo:hi of axis 0."""
        mask = np.ones((hi - lo, *self.shape[1:]), dtype=bool)
        for k in np.meshgrid(self.inside[0][lo:hi], *self.inside[1:], indexing="ij",
                             sparse=True):
            mask &= k
        return mask


def _window_shift_matrix(u: GridFunction, g: GridFunction) -> np.ndarray:
    """W[l, j] = u(x_l) conj(g(x_l - x_j)) with periodic wrap, so the domain
    boundary does not act as an artificial discontinuity."""
    n = u.spec.n
    l = np.arange(n)
    idx = (l[:, None] - l[None, :] + n // 2) % n
    return u.values[:, None] * np.conj(g.values[idx])


def gabor_transform(u: GridFunction, g: GridFunction, stride: int = 1) -> Field4D:
    """T_g u on the phase-space grid (d = 1).  Refuses with SizeGuardError
    past MEMORY_CAP_ENTRIES entries of its n x n window-shift matrix."""
    if u.spec != g.spec:
        raise ValueError("grid specs differ")
    spec = u.spec
    if spec.d != 1:
        raise ValueError("grid transform implemented for d = 1; use the point "
                         "evaluator for kernels")
    SizeGuardError.check(spec.n ** 2)
    if stride < 1 or spec.n % stride:
        raise ValueError(f"stride {stride} must divide n={spec.n}")
    x = spec.points()[::stride]
    xi = spec.dual_points(stride)
    W = _window_shift_matrix(u, g)[:, ::stride]
    A = np.exp(-1j * np.outer(xi, spec.points()))
    vals = (2 * np.pi) ** (-0.5) * spec.h * (A @ W).T
    # (u, T_x M_xi g) carries the phase e^{i <x, xi>} relative to the STFT
    vals = vals * np.exp(1j * np.outer(x, xi))
    return Field4D((x, xi), vals)


def gabor_transform_points(u: GridFunction, points: np.ndarray) -> np.ndarray:
    """T_g u at arbitrary phase-space points; the window is evaluated off the
    grid, so no interpolation enters."""
    spec = u.spec
    if spec.d != 1:
        raise ValueError("point transform implemented for d = 1")
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    xl = spec.points()
    out = np.empty(len(points), dtype=complex)
    for s in range(0, len(points), POINT_CHUNK):
        px = points[s : s + POINT_CHUNK, 0]
        pxi = points[s : s + POINT_CHUNK, 1]
        win = np.conj(gaussian_window_at(xl[None, :] - px[:, None]))
        phase = np.exp(-1j * pxi[:, None] * xl[None, :])
        out[s : s + POINT_CHUNK] = (2 * np.pi) ** (-0.5) * spec.h * \
            np.exp(1j * px * pxi) * ((win * phase) @ u.values)
    return out


# -- wavefront estimation -------------------------------------------------

N_SECTORS = 64  # angular bins of pi/32
WF_R_MIN = 2.0  # sector fits start here; inside, the window's width sets |T_g u|
N_SHELLS = 6  # geometric shells per log-log decay fit


@dataclass(frozen=True)
class SectorReport:
    slopes: np.ndarray  # per-sector fitted decay exponent of |T_g u|
    angles: np.ndarray
    nondecaying: list  # sector indices with slope > -N_max
    status: str


def sector_decay_slopes(field: Field4D) -> tuple:
    """Per-sector log-log decay exponents of the shell maxima of |field|.

    Each sector uses its own radial range: the largest radius at which its
    central direction still lies inside the phase-space box, so sectors along
    a long axis of an anisotropic box keep their full resolving power.  The
    fit uses the outer shells (inner radius at 40 percent of the sector
    range) where the asymptotic behavior dominates.
    """
    x, xi = field.axes
    X, XI = np.meshgrid(x, xi, indexing="ij")
    r = np.hypot(X, XI)
    theta = np.mod(np.arctan2(XI, X), 2 * np.pi)
    sector = np.minimum((theta / (2 * np.pi) * N_SECTORS).astype(int), N_SECTORS - 1)
    Rx = np.abs(x).max()
    Rxi = np.abs(xi).max()
    mag = np.abs(field.values)
    peak = mag.max() or 1.0
    slopes = np.full(N_SECTORS, -np.inf)
    angles = (np.arange(N_SECTORS) + 0.5) * 2 * np.pi / N_SECTORS
    for sct in range(N_SECTORS):
        c, s = np.cos(angles[sct]), np.sin(angles[sct])
        reach = 0.8 * min(Rx / max(abs(c), 1e-12), Rxi / max(abs(s), 1e-12))
        lo = max(WF_R_MIN, 0.4 * reach)
        if reach <= lo * 1.2:
            continue
        edges = np.geomspace(lo, reach, N_SHELLS + 1)
        in_sector = sector == sct
        maxima = _shell_maxima(r[in_sector], mag[in_sector], edges)
        maxima[maxima <= 1e-14 * peak] = 0.0
        slope = shell_slope(np.sqrt(edges[:-1] * edges[1:]), maxima)
        if slope is not None:  # else an all-tiny sector: rapidly decaying
            slopes[sct] = slope
    return slopes, angles


def wavefront_estimate(u: GridFunction, N_max: float) -> SectorReport:
    """Sectors where T_g u is not rapidly decaying (decay exponent < N_max)."""
    field = gabor_transform(u, gaussian_window(u.spec))
    if np.abs(field.values).max() < 1e-250:
        return SectorReport(np.full(N_SECTORS, -np.inf), np.zeros(N_SECTORS),
                            [], "inconclusive")
    slopes, angles = sector_decay_slopes(field)
    bad = [int(i) for i in np.nonzero(slopes > -N_max)[0]]
    return SectorReport(slopes, angles, bad, "pass")


def _kernel_field_slabs(K: GridFunction, stride: int) -> tuple:
    """The axes z, zeta of T_{g tensor g} K on the grid decimated by stride
    (K lives on a d = 2 grid), the field one z1 value at a time and a bound
    on each z1 value's largest |entry|: slab(i) is the slab S with
    S[m, j, p] the field at (z1, z2, zeta1, zeta2) = (z[i], z[j], zeta[m],
    zeta[p]), and bounds[i] is at least the largest |entry| of slab(i) as
    computed.  A slab is whole rows of M K M^T, rows (z1, zeta1) and columns
    (z2, zeta2), so its entries equal those of the whole product to the bit;
    the whole field is never held.  Refuses with SizeGuardError past
    MEMORY_CAP_ENTRIES field entries.

    The bound is Cauchy-Schwarz, max_r |(MK)_r| max_k |M_k| (1 + gamma),
    over the slab's rows r of M K and every row k of M, with
    gamma = 4 n eps, n = K.spec.n the length of each dot product.  An entry
    is a complex dot product of length n, which floating point computes in
    any order to within sqrt(2) gamma_{n+2} sum_l |a_l| |b_l| of the exact
    value, gamma_k = k u / (1 - k u) and u = eps / 2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sections 3.1 and 3.6).  Each
    computed norm, of 2n squares, is off by at most about (n + 1) u
    relative, and |entry| and the product of the bound's three factors by a
    few u more; the sum, about (1.71 n + 6.5) eps, is below 4 n eps for every
    n >= 8, which GridSpec requires.  The norms of M K are taken on M K
    divided by its largest |entry|, which costs 2 u of that sum, so that no
    square overflows whatever the scale of K: only a row far below the
    largest can underflow, and the peak passes such a row."""
    spec = K.spec
    if spec.d != 2:
        raise ValueError("kernel field needs a d = 2 grid function")
    z = spec.points()[::stride]
    zeta = spec.dual_points(stride)
    SizeGuardError.check((len(z) * len(zeta)) ** 2)
    xl = spec.points()
    win = np.conj(gaussian_window_at(xl[None, :] - z[:, None]))  # (nz, n)
    mod = np.exp(-1j * np.outer(zeta, xl))  # (nzeta, n)
    # M[(j, m), l] = h (2 pi)^{-1/2} e^{i z_j zeta_m} conj(g(x_l - z_j))
    #                e^{-i zeta_m x_l}  (the T_x M_xi phase convention)
    row_phase = np.exp(1j * np.outer(z, zeta))
    M = (2 * np.pi) ** (-0.5) * spec.h * (win[:, None, :] * mod[None, :, :])
    M = M * row_phase[:, :, None]
    M = M.reshape(len(z) * len(zeta), spec.n)
    MK = M @ K.reshaped()

    def slab(i: int) -> np.ndarray:
        return (MK[i * len(zeta):(i + 1) * len(zeta)] @ M.T).reshape(
            len(zeta), len(z), len(zeta))

    top = float(np.abs(MK).max()) or 1.0
    rows = np.linalg.norm(MK / top, axis=1) * top
    gamma = 4 * spec.n * np.finfo(float).eps
    bounds = rows.reshape(len(z), len(zeta)).max(axis=1) \
        * (np.linalg.norm(M, axis=1).max() * (1 + gamma))
    return z, zeta, slab, bounds


def chi_twist_field(chi: SymplecticMatrix) -> np.ndarray:
    """The form Q of the twist e^{-i/2 (<z, zeta> + sigma(chi(z2, -zeta2),
    (z1, zeta1)))} on the axes (z1, z2, zeta1, zeta2) of a kernel field, with
    sigma((x, xi), (x', xi')) = <x', xi> - <x, xi'> (d = 1 only)."""
    if chi.d != 1:
        raise DimensionError(f"chi twist needs chi with d = 1, got d = {chi.d}")
    (A, B), (C, D) = chi.entries
    return 0.5 * np.array([[0, C, 1, -D], [0, 0, -A, 1], [0, 0, 0, B], [0, 0, 0, 0]])


OFF_RANGE = (2.0, 8.0)  # distances to the subspace that the off-subspace shells span
OFF_CAP = 3.0  # off-subspace shells count points this close to the transversal
ALONG_CAP = 1.5  # along-subspace shells count points this close to the subspace
INTERIOR_FRAC = 0.7  # points past this fraction of an axis see truncation or aliasing
REL_FLOOR = 2e-2  # derivatives below this fraction of the peak count as decaying
STENCIL_REACH = 2  # layers the derivative stencil reads on each side of a point


def _mask_points(where: np.ndarray) -> tuple:
    """np.nonzero(where), from the flat indices: the same coordinates in the
    same (C) order, several times faster on a 4-D mask."""
    return np.unravel_index(np.flatnonzero(where), where.shape)


def _complement_forms(basis: np.ndarray) -> list:
    """The linear forms whose squares sum to the squared distance to
    span(basis), orthonormal columns (none: the radius): one per column of
    the orthogonal complement, as its (axis, coefficient) pairs with a
    nonzero coefficient, round-off entries included."""
    return [[(a, c) for a, c in enumerate(col) if c != 0.0]
            for col in orthogonal_complement(basis).T]


def _distance(w, forms: list) -> np.ndarray:
    """Distance to the span of _complement_forms at the coordinates w, one
    array per axis: np.ix_ of a layer's axes for every point of the layer,
    or 1-D arrays for a list of points.  Each form is summed in axis order
    and squared, and the squares are summed in form order."""
    sq = np.zeros(np.broadcast_shapes(*(x.shape for x in w)))
    for form in forms:
        sq += sum(c * w[a] for a, c in form) ** 2
    return np.sqrt(sq)


def _interior_box(axes) -> tuple:
    """The grid points within INTERIOR_FRAC of every axis extent lie in a
    box, one slice per axis.  Each slice is widened by the STENCIL_REACH of
    _stencil and clipped at the grid edge, so an interior point is as far
    from the box edge as from the grid edge, or at least STENCIL_REACH.
    Returns the InteriorBox, its interior taken from the whole axes, and the
    slices."""
    slices, inside = [], []
    for a in axes:
        keep = np.abs(a) <= INTERIOR_FRAC * np.abs(a).max()
        hit = np.flatnonzero(keep)  # never empty: every axis holds or straddles 0
        s = slice(max(hit[0] - STENCIL_REACH, 0),
                  min(hit[-1] + 1 + STENCIL_REACH, len(a)))
        slices.append(s)
        inside.append(keep[s])
    box = InteriorBox(tuple(a[s] for a, s in zip(axes, slices)), tuple(inside),
                      tuple(float(a[1] - a[0]) for a in axes))
    return box, tuple(slices)


def _stencil(read, shape: tuple, dtype, here: np.ndarray, directions, steps) -> list:
    """Derivatives along each of directions, by the 4th-order stencil of
    symbols._derivative, at the points with ascending C-order flat indices
    here in a field of the given shape and dtype, whose values at ascending
    flat indices g are read(g): a step along an axis is a fixed step in C
    order.  Each axis's difference is taken once, for every direction with
    a component along it.  Points within STENCIL_REACH layers of an edge of
    a differentiated axis are nan.

    steps are the axis spacings of the whole field, also when the field is a
    box cut from it: the cut axes do not repeat them to the bit."""
    diffs = {}
    for axis in sorted({a for v in directions for a, c in enumerate(v) if abs(c) > 1e-14}):
        stride = math.prod(shape[axis + 1:])
        pos = here // stride % shape[axis]
        ok = (pos >= STENCIL_REACH) & (pos < shape[axis] - STENCIL_REACH)
        d = np.full(len(ok), np.nan, dtype=dtype)
        at = here[ok]
        if len(at):
            f = {s: read(at + s * stride) for s in (-2, -1, 1, 2)}
            d[ok] = (-f[2] + 8 * f[1] - 8 * f[-1] + f[-2]) / (12 * steps[axis])
        diffs[axis] = d
    out = []
    for v in directions:
        dv = np.zeros(len(here), dtype=dtype)
        for axis, c in enumerate(v):
            if abs(c) > 1e-14:
                dv = dv + c * diffs[axis]
        out.append(dv)
    return out


class _Sweep:
    """One pass over the interior box of a field along axis 0 that feeds
    every reader of the field.

    The box's values arrive in blocks of whole layers (push).  Layers are
    read, by each reader in turn, once the STENCIL_REACH layers after them
    have arrived or the box has ended, in runs no longer than the block
    just pushed, and a block is dropped once no layer still to be read is
    within STENCIL_REACH of it, so a sweep pushed one layer at a time holds
    a few layers, never the box.  A reader has three methods: start(box)
    ahead of the first layer; read(lo, hi, sweep, peak) for the layers
    lo:hi, where sweep.layers returns the values of layers held,
    sweep.interior is the interior mask on lo:hi, and sweep.shared and
    sweep.distance give what is taken once per read for all readers and
    dropped once they all have read; and
    finish(peak), whose value is the reader's result.  peak is the largest
    |value| of the field so far: in read, up to the last block pushed, and
    in finish, of the whole field, box or not."""

    def __init__(self, box: InteriorBox, readers: list):
        self.box, self.readers = box, readers
        self.size = math.prod(box.shape[1:])  # entries per layer
        self._w = np.ix_(*box.axes)
        self._blocks = []  # (first layer, C-contiguous values of its layers)
        self._pushed = self._read = 0
        self._shared = {}
        for reader in readers:
            reader.start(box)

    def push(self, layers: np.ndarray, peak: float) -> None:
        """The next layers of the box, axis 0 first, and the running peak;
        an empty block is ignored."""
        if not len(layers):
            return
        self._blocks.append((self._pushed, np.ascontiguousarray(layers)))
        self._pushed += len(layers)
        n = self.box.shape[0]
        ready = n if self._pushed == n else self._pushed - STENCIL_REACH
        while self._read < ready:
            lo, self._read = self._read, min(self._read + len(layers), ready)
            self.interior = self.box.interior(lo, self._read)
            self._layer_axes = [self._w[0][lo:self._read], *self._w[1:]]
            for reader in self.readers:
                reader.read(lo, self._read, self, peak)
            self._shared.clear()
            self._blocks = [(at, b) for at, b in self._blocks
                            if at + len(b) > self._read - STENCIL_REACH] if self._read < n else []

    def finish(self, peak: float) -> list:
        return [reader.finish(peak) for reader in self.readers]

    def shared(self, key, compute):
        """compute(), taken once per read for every reader that asks for
        key."""
        if key not in self._shared:
            self._shared[key] = compute()
        return self._shared[key]

    def distance(self, forms: list) -> np.ndarray:
        """_distance to the span of forms on the layers being read,
        flattened."""
        return self.shared(tuple(map(tuple, forms)),
                           lambda: _distance(self._layer_axes, forms).reshape(-1))

    def layers(self, lo: int, hi: int) -> np.ndarray:
        """The values of the layers lo:hi, all held."""
        parts = [b[max(lo - at, 0):hi - at] for at, b in self._blocks
                 if at < hi and at + len(b) > lo]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def sweep_field(field: Field4D, readers: list) -> list:
    """The readers' results on a field held whole (the d = 1 transform of a
    membership test): its interior box in one block, with its peak."""
    box, slices = _interior_box(field.axes)
    peak = float(np.abs(field.values).max())
    sweep = _Sweep(box, readers)
    sweep.push(field.values[slices], peak)
    return sweep.finish(peak)


def sweep_kernel_field(K: GridFunction, readers: list, stride: int = KERNEL_STRIDE) -> list:
    """The readers' results on the field T_{g tensor g} K of a kernel on a
    d = 2 grid, axes (z1, z2, zeta1, zeta2), decimated by stride: one pass
    over the slabs of _kernel_field_slabs in the interior box, each slab's
    box layer going to every reader as it is pushed (_Sweep), so neither the
    field nor its interior box is held.  The slabs outside the box count
    for the peak alone: they are built afterwards, largest bound first, and
    only where the bound is not below the running peak, so the peak is the
    whole field's to the bit.  Refuses with SizeGuardError past
    MEMORY_CAP_ENTRIES field entries."""
    z, zeta, slab, bounds = _kernel_field_slabs(K, stride)
    box, (s1, s2, s3, s4) = _interior_box((z, z, zeta, zeta))
    sweep = _Sweep(box, readers)
    peak = 0.0
    for i in range(s1.start, s1.stop):
        S = slab(i)
        peak = max(peak, float(np.abs(S).max()))
        # the slab's box layer, reordered to (z1, z2, zeta1, zeta2): a copy,
        # which frees the slab before the readers run
        S = np.ascontiguousarray(S[None, s3, s2, s4].transpose(0, 2, 1, 3))
        sweep.push(S, peak)
        del S  # nothing is held while the next slab is built
    outside = [i for i in range(len(z)) if not s1.start <= i < s1.stop]
    for i in sorted(outside, key=lambda i: -bounds[i]):
        if not bounds[i] < peak:  # a nan bound is not below
            peak = max(peak, float(np.abs(slab(i)).max()))
    return sweep.finish(peak)


def decay_profile(Q: np.ndarray, lam: LagrangianSubspace, vlam: LagrangianSubspace,
                  m: float, rho: float, projected_F: bool | None = None):
    """The reader (see _Sweep) of the off-subspace decay and along-subspace
    growth of a field twisted by e^{-i sum_jk Q_jk w_j w_k}, w the
    coordinates on the field's axes.  Its result is profile_report of the
    slopes against the class of order m.

    Off: shell maxima of |field| binned by distance to lam, restricted to
    points near the origin of lam (distance to vlam below OFF_CAP).
    Along: per derivative order k <= K_MAX, shell maxima of |L^k field| along
    directions in lam, restricted to a strip around lam, binned by the
    distance to the transversal vlam.  Points beyond INTERIOR_FRAC of any
    axis extent are excluded: near the position boundary the field sees
    truncation of the sampled kernel, and near the frequency boundary it
    sees quadrature aliasing, neither of which reflects the kernel itself.
    So the reader reads the untwisted field on its interior box, twists the
    layers it reads and, in the layers around them, only the points the
    derivative stencil reads; the peak that the derivatives are compared
    with is the whole untwisted field's, and they are taken with the whole
    field's steps.  Distances, masks and shell maxima are taken on the
    layers being read alone and folded into maxima of fixed size; the
    along-subspace shells reach out to the interior's largest distance to
    vlam, taken at start (_outer_radius).
    """
    return _ProfileReader(Q, lam, vlam, m, rho, projected_F)


def _outer_radius(box: InteriorBox, forms: list) -> float:
    """The largest _distance to the span of forms over the interior of box,
    taken at the interior's 2^k corners: the distance is the norm of a
    linear map, so convex, and the interior is a product of index
    intervals."""
    ends = [a[np.flatnonzero(k)[[0, -1]]] for a, k in zip(box.axes, box.inside)]
    corners = [c.reshape(-1) for c in np.meshgrid(*ends, indexing="ij")]
    return float(_distance(corners, forms).max())


class _ProfileReader:
    """The reader of decay_profile."""

    def __init__(self, Q, lam, vlam, m, rho, projected_F):
        self.Q, self.lam, self.vlam = Q, lam, vlam
        self.m, self.rho, self.projected_F = m, rho, projected_F

    def start(self, box: InteriorBox) -> None:
        self.box = box
        self.forms_l = _complement_forms(self.lam.basis)
        self.forms_v = _complement_forms(self.vlam.basis)
        w = np.ix_(*box.axes)
        Q = self.Q
        S = np.triu(Q + Q.T, 1) + np.diag(np.diag(Q))  # same form, upper triangle
        # one factor per axis pair, broadcast from the two axes; a point is
        # twisted by the factors at its indices, multiplied in this order
        self.twist = [np.exp(-1j * S[j, k] * (w[j] * w[k])) for j, k in zip(*np.nonzero(S))]
        self.edges = np.geomspace(*OFF_RANGE, N_SHELLS + 1)
        self.maxima = np.zeros(N_SHELLS)
        self.edges_a = np.geomspace(2.0, 0.8 * _outer_radius(box, self.forms_v), N_SHELLS + 1)
        # on the strip, for |field| and, for K_MAX = 1, |derivative| along
        # each basis vector of lam: shell maxima by distance to vlam, and
        # the largest finite value
        self.along_maxima = np.zeros((1 + self.lam.basis.shape[1], N_SHELLS))
        self.along_top = np.zeros(1 + self.lam.basis.shape[1])

    def _twisted(self, sweep: _Sweep, g: np.ndarray, cache: dict) -> np.ndarray:
        """The twisted field at the ascending flat box indices g.  Per
        layer, the points' indices into each factor on a layer and the
        factors that do not vary along axis 0 are looked up in cache, by
        the points' positions in the layer, or stored there."""
        size, parts = sweep.size, [np.zeros(0, complex)]
        for layer in range(g[0] // size, g[-1] // size + 1) if len(g) else ():
            part = g[np.searchsorted(g, layer * size):np.searchsorted(g, (layer + 1) * size)]
            if not len(part):
                continue
            r = part - layer * size  # positions in the layer
            key = (r[0], len(r))
            if key not in cache or not np.array_equal(cache[key][0], r):
                at = np.unravel_index(r, self.box.shape[1:])
                index = [sum(i * math.prod(f.shape[a + 2:]) for a, i in enumerate(at)
                             if f.shape[a + 1] > 1) for f in self.twist]
                fixed = [None if len(f) > 1 else f.reshape(-1)[i]
                         for f, i in zip(self.twist, index)]
                cache[key] = r, index, fixed
            _, index, fixed = cache[key]
            out = sweep.layers(layer, layer + 1).reshape(-1)[r]
            for f, i, c in zip(self.twist, index, fixed):
                out *= f[layer].reshape(-1)[i] if c is None else c
            parts.append(out)
        return np.concatenate(parts)

    def read(self, lo: int, hi: int, sweep: _Sweep, peak: float) -> None:
        # the layers read, twisted whole; the stencil's points in the layers
        # around them are twisted one by one
        twisted = sweep.layers(lo, hi)
        for k, f in enumerate(f[lo:hi] if len(f) > 1 else f for f in self.twist):
            # a new array, then in place: the held layers stay untwisted
            twisted = twisted * f if k == 0 else np.multiply(twisted, f, out=twisted)
        twisted = twisted.reshape(-1)
        first, end = lo * sweep.size, hi * sweep.size  # flat indices of the layers read
        cache = {}

        def read(g):  # the twisted field at the ascending flat indices g
            a, b = np.searchsorted(g, (first, end))
            if a == 0 and b == len(g):
                return twisted[g - first]
            return np.concatenate([self._twisted(sweep, g[:a], cache), twisted[g[a:b] - first],
                                   self._twisted(sweep, g[b:], cache)])

        dist_l = sweep.distance(self.forms_l)
        dist_v = sweep.distance(self.forms_v)
        interior = sweep.interior.reshape(-1)
        sel = np.flatnonzero((dist_v <= OFF_CAP) & interior)
        self.maxima = np.maximum(self.maxima, _shell_maxima(dist_l[sel], np.abs(twisted[sel]),
                                                            self.edges))
        strip = np.flatnonzero((dist_l <= ALONG_CAP) & interior)
        derivatives = _stencil(read, self.box.shape, complex, first + strip, self.lam.basis.T,
                               self.box.field_steps)
        dist_s = dist_v[strip]
        for j, mag in enumerate([np.abs(twisted[strip]), *map(np.abs, derivatives)]):
            good = np.isfinite(mag)
            self.along_top[j] = max(self.along_top[j], mag[good].max(initial=0.0))
            self.along_maxima[j] = np.maximum(self.along_maxima[j],
                                              _shell_maxima(dist_s[good], mag[good], self.edges_a))

    def finish(self, peak: float) -> ProfileReport:
        peak = peak or 1.0
        off_slope = shell_slope(np.sqrt(self.edges[:-1] * self.edges[1:]), self.maxima)
        radii_a = np.sqrt(self.edges_a[:-1] * self.edges_a[1:])
        # a derivative at the discretization noise floor decays faster than
        # measurable: the finite differences cannot resolve anything this
        # small; a slope with too few shells to fit is None
        slopes = [-np.inf if top <= REL_FLOOR * peak else shell_slope(radii_a, maxima)
                  for top, maxima in zip(self.along_top, self.along_maxima)]
        along = {k: None if None in s else max(s) for k, s in ((0, slopes[:1]), (1, slopes[1:]))}
        return profile_report(off_slope, along, self.m, self.rho, self.projected_F)


# Profile thresholds, shared by the kernel characterization and the
# Lagrangian membership test so that both sides of their equivalence read
# the same values: derivatives along the subspace up to order K_MAX are
# profiled, and a profile passes when its off-subspace slope is at most
# -N_MAX and each along-subspace slope at most m - rho k + MARGIN.
K_MAX = 1
N_MAX = 4.0
MARGIN = 0.5


@dataclass(frozen=True)
class ProfileReport:
    """The slopes of a decay profile judged against the bounds of a class
    of order m; off_slope is nan where too few shells held points to fit.

    projected_F is set by the subspace-membership test only (whether the
    parametrizing F had to be projected onto Y) and is left out of the JSON
    form otherwise."""

    off_slope: float
    along_slopes: dict  # derivative order k -> slope
    off_bound: float
    along_bounds: dict
    status: str
    projected_F: bool | None = None

    def to_dict(self) -> dict:
        out = {
            "off_slope": self.off_slope,
            "off_bound": self.off_bound,
            "along_slopes": {str(k): v for k, v in self.along_slopes.items()},
            "along_bounds": {str(k): v for k, v in self.along_bounds.items()},
            "status": self.status,
        }
        if self.projected_F is not None:
            out["projected_F"] = self.projected_F
        return out


def profile_report(off_slope: float | None, along_slopes: dict, m: float, rho: float,
                   projected_F: bool | None = None) -> ProfileReport:
    """Inconclusive if a slope is None (too few shells held points to fit);
    else pass iff the off-subspace slope is at most -N_MAX and the slope of
    the order-k derivatives along the subspace is at most m - rho k + MARGIN
    for every k <= K_MAX."""
    along_bounds = {k: m - rho * k + MARGIN for k in range(K_MAX + 1)}
    if off_slope is None or None in along_slopes.values():
        status = "inconclusive"
    else:
        ok = off_slope <= -N_MAX and all(
            along_slopes[k] <= along_bounds[k] for k in range(K_MAX + 1)
        )
        status = "pass" if ok else "fail"
    return ProfileReport(np.nan if off_slope is None else off_slope, along_slopes,
                         -N_MAX, along_bounds, status, projected_F)
