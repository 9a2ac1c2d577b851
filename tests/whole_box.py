"""Whole-box references for the streamed readers of fiocalc.gabor and
fiocalc.fio.

These are the kernel field held whole or on its interior box, the twist and
the distance field over a whole box, and the decay profile and cone check
taken over a whole field at once: the code that the sweep of a kernel field
(gabor.sweep_kernel_field), which holds a few layers, replaced.  They keep
the arithmetic of the code they replaced, so the tests can compare the
streamed readers with them to the bit.  directional_derivative runs the
profile's derivative stencil on a whole field's values, for the tests of
that stencil.
"""

from dataclasses import dataclass

import numpy as np

from fiocalc.fio import (CONE_ANGLE, CONE_COLLAR, CONE_R_MIN, CONE_REL_THRESHOLD)
from fiocalc.gabor import (ALONG_CAP, INTERIOR_FRAC, K_MAX, N_SHELLS, OFF_CAP, OFF_RANGE,
                           REL_FLOOR, Field4D, _interior_box,
                           _kernel_field_slabs, _stencil, gaussian_window_at)
from fiocalc.symbols import _derivative, _shell_maxima, shell_slope
from fiocalc.symplectic import orthogonal_complement, twisted_graph_lagrangian


def steps(field):
    """The axis spacings of a field."""
    return [float(a[1] - a[0]) for a in field.axes]


@dataclass(frozen=True)
class BoxField(Field4D):
    """A field held on its interior box: the box axes and values, the
    interior mask on the box, and the whole field's axis steps and peak
    |value|."""

    interior: np.ndarray
    field_steps: tuple
    peak: float


def interior_box(field):
    """The field on its interior box (gabor._interior_box), a view, with the
    whole field's steps and peak."""
    box, slices = _interior_box(field.axes)
    return BoxField(box.axes, field.values[slices], box.interior(0, box.shape[0]),
                    tuple(steps(field)), float(np.abs(field.values).max()))


def reference_kernel_field(K, stride):
    """The whole 4-D field of a kernel in one product, M K M^T with rows
    (z1, zeta1) and columns (z2, zeta2), returned on the axes
    (z1, z2, zeta1, zeta2)."""
    spec = K.spec
    z = spec.points()[::stride]
    zeta = spec.dual_points(stride)
    xl = spec.points()
    win = np.conj(gaussian_window_at(xl[None, :] - z[:, None]))
    mod = np.exp(-1j * np.outer(zeta, xl))
    row_phase = np.exp(1j * np.outer(z, zeta))
    M = (2 * np.pi) ** (-0.5) * spec.h * (win[:, None, :] * mod[None, :, :])
    M = M * row_phase[:, :, None]
    M = M.reshape(len(z) * len(zeta), spec.n)
    field = M @ K.reshaped() @ M.T
    field = field.reshape(len(z), len(zeta), len(z), len(zeta))
    return Field4D((z, z, zeta, zeta), np.transpose(field, (0, 2, 1, 3)))


def kernel_fbi_field(K, stride=2):
    """The kernel field held on its interior box, built from the slabs of
    gabor._kernel_field_slabs: the box the sweep streams, for the tests that
    need it whole without the 4-D field (268 MB at n = 128, stride 2)."""
    z, zeta, slab, _ = _kernel_field_slabs(K, stride)
    axes = (z, z, zeta, zeta)
    box, (s1, s2, s3, s4) = _interior_box(axes)
    values = np.empty(box.shape, dtype=complex)
    peak = 0.0
    for i in range(len(z)):
        S = slab(i)
        peak = max(peak, float(np.abs(S).max()))
        if s1.start <= i < s1.stop:
            values[i - s1.start] = S[s3, s2, s4].transpose(1, 0, 2)
    return BoxField(box.axes, values, box.interior(0, box.shape[0]),
                    tuple(float(a[1] - a[0]) for a in axes), peak)


def _quadratic_twist(field, Q):
    """Multiply by e^{-i sum_jk Q_jk w_j w_k}, w the field's coordinates:
    one factor per axis pair, broadcast from the 1D axes."""
    w = np.ix_(*field.axes)
    S = np.triu(Q + Q.T, 1) + np.diag(np.diag(Q))  # same form, upper triangle
    out = field.values.astype(complex)
    for j, k in zip(*np.nonzero(S)):
        out *= np.exp(-1j * S[j, k] * (w[j] * w[k]))
    return Field4D(field.axes, out)


def _span_distance(axes, basis, where=None):
    """Distance to span(basis), orthonormal columns (none: the radius), as the
    norm of the coordinates on the orthogonal complement: at every grid point,
    or as a 1-D array at the points of the boolean mask where."""
    if where is None:
        w = np.ix_(*axes)
    else:
        w = [a[i] for a, i in zip(axes, np.nonzero(where))]
    sq = np.zeros(np.broadcast_shapes(*(x.shape for x in w)))
    for col in orthogonal_complement(basis).T:
        sq += sum(c * wj for c, wj in zip(col, w) if c != 0.0) ** 2
    return np.sqrt(sq)


def directional_derivative(field, direction, where, steps):
    """Derivative of the field along direction at the points of the boolean
    mask where, as a 1-D array in C order: gabor._stencil read by flat index
    from the field's values.  steps are the axis spacings of the whole
    field, also when field is a box cut from it."""
    values = np.ascontiguousarray(field.values)
    flat = values.reshape(-1)
    return _stencil(lambda g: flat[g], values.shape, values.dtype, np.flatnonzero(where),
                    [np.asarray(direction, dtype=float)], steps)[0]


def full_field_derivative(field, direction):
    """The directional derivative over the whole box: the reference that
    the flat-index stencil (gabor._stencil) must match to the bit at the
    points of its mask."""
    direction = np.asarray(direction, dtype=float)
    out = np.zeros_like(field.values)
    for axis, c in enumerate(direction):
        if abs(c) > 1e-14:
            out = out + c * _derivative(field.values, axis, steps(field)[axis])
    return out


def whole_box_interior(axes):
    """Grid points within INTERIOR_FRAC of every axis extent, over the whole
    grid."""
    inside = np.ones([len(a) for a in axes], dtype=bool)
    for a in np.ix_(*axes):
        inside &= np.abs(a) <= INTERIOR_FRAC * np.abs(a).max()
    return inside


@dataclass(frozen=True)
class WholeProfile:
    """full_field_decay_profile's result: the slopes (None where too few
    shells held points to fit), the off-subspace shell maxima, and whether
    the profile is inconclusive."""

    off_slope: float | None
    along_slopes: dict
    off_maxima: np.ndarray
    inconclusive: bool


def full_field_decay_profile(field, Q, lam, vlam):
    """The decay profile over a whole field: the whole field twisted, the
    interior mask and the distances taken at every grid point, the peak read
    from the twisted field, every derivative taken by full_field_derivative
    and only then read on the strip, and the along-subspace shells' outer
    radius the largest distance to vlam over every interior point."""
    field = _quadratic_twist(field, Q)
    dist_l = _span_distance(field.axes, lam.basis)
    dist_v = _span_distance(field.axes, vlam.basis)
    interior = whole_box_interior(field.axes)
    mag0 = np.abs(field.values)
    peak = mag0.max() or 1.0

    edges = np.geomspace(*OFF_RANGE, N_SHELLS + 1)
    radii = np.sqrt(edges[:-1] * edges[1:])
    sel = (dist_v <= OFF_CAP) & interior
    maxima = _shell_maxima(dist_l[sel], mag0[sel], edges)
    off_slope = shell_slope(radii, maxima)

    r_along = float(np.max(dist_v[interior]))
    edges_a = np.geomspace(2.0, 0.8 * r_along, N_SHELLS + 1)
    radii_a = np.sqrt(edges_a[:-1] * edges_a[1:])
    strip = (dist_l <= ALONG_CAP) & interior
    along = {}
    for k in range(K_MAX + 1):
        worst = None
        for j in range(lam.basis.shape[1] if k else 1):
            dfield = field
            for _ in range(k):
                dfield = Field4D(field.axes, full_field_derivative(dfield, lam.basis[:, j]))
            mag = np.abs(dfield.values) if k else mag0
            good = strip & np.isfinite(mag)
            if mag[good].max(initial=0.0) <= REL_FLOOR * peak:
                if worst is None:
                    worst = -np.inf
                continue
            slope = shell_slope(radii_a, _shell_maxima(dist_v[good], mag[good], edges_a))
            if slope is None:
                worst = None
                break
            worst = slope if worst is None else max(worst, slope)
        along[k] = worst

    return WholeProfile(off_slope, along, maxima,
                        off_slope is None or None in along.values())


def whole_box_wf_kernel_check(field, chi):
    """The cone check over a box held whole (a BoxField), with its peak: the
    body of fio.wf_kernel_check before it read the box a layer at a time."""
    lam = twisted_graph_lagrangian(chi)
    peak = field.peak or 1.0
    r = _span_distance(field.axes, np.zeros((len(field.axes), 0)))
    sel = (r > CONE_R_MIN) & (np.abs(field.values) > CONE_REL_THRESHOLD * peak) \
        & field.interior
    if not np.any(sel):
        return {"status": "pass", "worst_excess": 0.0, "points": 0}
    dist = _span_distance(field.axes, lam.basis, sel)
    allowed = CONE_COLLAR + np.sin(CONE_ANGLE) * r[sel]
    worst = float((dist - allowed).max())
    return {
        "status": "pass" if worst <= 0.0 else "fail",
        "worst_excess": worst,
        "points": int(sel.sum()),
    }
