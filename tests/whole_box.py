"""Whole-box references for the layered profile code of fiocalc.gabor.

These are the twist and the distance field over a whole box, every grid
point at once, that decay_profile and wf_kernel_check replaced by one pass
over the layers of axis 0.  They keep the names and arithmetic of the
functions they replaced, so the tests can compare the layered code with
them to the bit.  directional_derivative runs the profile's derivative
stencil on a whole field's values, for the tests of that stencil.
"""

import numpy as np

from fiocalc.gabor import Field4D, _stencil
from fiocalc.symplectic import orthogonal_complement


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
                    np.asarray(direction, dtype=float), steps)
