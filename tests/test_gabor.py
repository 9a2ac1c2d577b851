import dataclasses
import tracemalloc

import numpy as np
import pytest

from fiocalc import fio, gabor, lagdist
from fiocalc.cli import _kernel_heatmap
from fiocalc.fio import FioSpec, fio_kernel, kernel_characterization_check
from fiocalc.gabor import (
    ALONG_CAP,
    INTERIOR_FRAC,
    KERNEL_STRIDE,
    K_MAX,
    N_SHELLS,
    OFF_CAP,
    OFF_RANGE,
    REL_FLOOR,
    DecayProfile,
    Field4D,
    InteriorBox,
    N_SECTORS,
    _complement_forms,
    _distance,
    _interior_box,
    chi_twist_field,
    decay_profile,
    gabor_transform,
    gabor_transform_points,
    gaussian_window_at,
    kernel_fbi_field,
    wavefront_estimate,
)
from fiocalc.grids import GridFunction, GridSpec, gaussian_window, hermite_grid_function
from fiocalc.lagdist import lagrangian_membership_test
from fiocalc.symbols import (_derivative, _shell_maxima, constant_symbol,
                             harmonic_oscillator_symbol, shell_slope)
from fiocalc.symplectic import (
    DimensionError,
    SymplecticMatrix,
    chirp_matrix,
    lagrangian_with_param,
    scaling_matrix,
    standard_j,
    twisted_graph_lagrangian,
)
from whole_box import _quadratic_twist, _span_distance, directional_derivative

def delta(grid):
    vals = np.zeros(grid.n, dtype=complex)
    vals[grid.n // 2] = 1.0 / grid.h
    return GridFunction(grid, vals)


def test_transform_of_gaussian_peaks_at_origin():
    g = GridSpec(1, 128, 10.0)
    gw = gaussian_window(g)
    field = gabor_transform(gw, gw)
    x, xi = field.axes
    i, j = np.unravel_index(np.argmax(np.abs(field.values)), field.values.shape)
    assert abs(x[i]) < g.h and abs(xi[j]) < g.dual_h


def test_transform_agrees_with_point_evaluator():
    g = GridSpec(1, 128, 10.0)
    u = hermite_grid_function(g, [2])
    field = gabor_transform(u, gaussian_window(g))
    # evaluate at points of the discrete phase-space lattice itself so the
    # two routes target the same (x, xi)
    pts = np.array([[0.0, 0.0],
                    [8 * g.h, -6 * g.dual_h],
                    [-20 * g.h, 2 * g.dual_h]])
    ref = gabor_transform_points(u, pts)
    x, xi = field.axes
    for (x0, xi0), r in zip(pts, ref):
        i = int(np.argmin(np.abs(x - x0)))
        j = int(np.argmin(np.abs(xi - xi0)))
        assert abs(field.values[i, j] - r) < 1e-8


def test_gaussian_is_rapidly_decaying_everywhere():
    g = GridSpec(1, 128, 10.0)
    rep = wavefront_estimate(hermite_grid_function(g, [0]), N_max=4.0)
    assert rep.status == "pass" and not rep.nondecaying


def test_point_mass_concentrates_on_frequency_axis():
    g = GridSpec(1, 128, 10.0)
    rep = wavefront_estimate(delta(g), N_max=4.0)
    assert rep.nondecaying == [14, 15, 16, 17, 46, 47, 48, 49]


def test_constant_concentrates_on_position_axis():
    g = GridSpec(1, 128, 10.0)
    one = GridFunction(g, np.ones(g.n, dtype=complex))
    rep = wavefront_estimate(one, N_max=4.0)
    assert rep.nondecaying
    angles = (np.asarray(rep.nondecaying) + 0.5) * 2 * np.pi / N_SECTORS
    assert np.abs(np.sin(angles)).max() < 0.45


def reference_kernel_field(K, stride):
    """The whole 4-D field of a kernel in one product, M K M^T with rows
    (z1, zeta1) and columns (z2, zeta2), returned on the axes
    (z1, z2, zeta1, zeta2): the reference the streamed box must match."""
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


def test_kernel_field_shape_and_steps():
    g2 = GridSpec(2, 64, 8.0)
    K = GridFunction.sample(g2, lambda a, b: np.exp(-a ** 2 - b ** 2))
    field = kernel_fbi_field(K, stride=4)
    whole = reference_kernel_field(K, 4)
    assert whole.values.shape == (16, 16, 16, 16)
    assert isinstance(field, InteriorBox) and field.values.flags.c_contiguous
    assert field.values.shape == whole.values[box_slices(whole, field)].shape
    assert field.interior.shape == field.values.shape
    assert np.isclose(field.field_steps[0], 4 * g2.h)
    assert field.field_steps == tuple(whole.steps())


def test_directional_derivative_of_separable_gaussian():
    ax = np.linspace(-4, 4, 81)
    axes = (ax, ax, ax, ax)
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    vals = np.exp(-0.5 * sum(m ** 2 for m in mesh)).astype(complex)
    field = Field4D(axes, vals)
    # every point is compared, one slab of axis 0 at a time, so the gathered
    # indices never span all 81^4 points at once
    where = np.zeros(vals.shape, dtype=bool)
    err = np.nan
    for i in range(len(ax)):
        where[i] = True
        d0 = directional_derivative(field, np.array([1.0, 0.0, 0.0, 0.0]), where,
                                    field.steps())
        where[i] = False
        ref = -mesh[0][i] * vals[i]
        err = np.fmax(err, np.fmax.reduce(np.abs(d0 - ref.reshape(-1))))
    assert err < 1e-4


def random_field(shape, seed=0):
    rng = np.random.default_rng(seed)
    axes = tuple(np.linspace(-3.0, 3.0, n) for n in shape)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Field4D(axes, vals)


def test_chi_twist_matches_its_closed_form():
    chi = (chirp_matrix(np.array([[0.4]])) @ standard_j(1)
           @ chirp_matrix(np.array([[0.5]])) @ scaling_matrix(np.array([[1.3]])))
    assert np.abs(chi.entries).min() > 0.1
    field = random_field((5, 6, 7, 8))
    out = _quadratic_twist(field, chi_twist_field(chi))
    z1, z2, c1, c2 = np.meshgrid(*field.axes, indexing="ij")
    (A, B), (C, D) = chi.entries
    # chi applied to (z2, -zeta2), paired with (z1, zeta1) by the symplectic form
    wx, wxi = A * z2 - B * c2, C * z2 - D * c2
    ref = field.values * np.exp(-0.5j * (z1 * c1 + z2 * c2 + z1 * wxi - wx * c1))
    assert np.abs(out.values - ref).max() <= 1e-12 * np.abs(ref).max()


def test_chi_twist_refuses_chi_of_another_dimension():
    with pytest.raises(DimensionError):
        chi_twist_field(standard_j(2))


@pytest.mark.parametrize("rank", [2, 0])
def test_span_distance_matches_projection(rank):
    rng = np.random.default_rng(1)
    basis = np.linalg.qr(rng.standard_normal((4, 2)))[0][:, :rank]
    axes = [np.linspace(-2.0, 2.0, n) for n in (4, 5, 6, 7)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    ref = np.linalg.norm(pts - pts @ basis @ basis.T, axis=-1)
    got = _span_distance(axes, basis)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()


@pytest.mark.parametrize("rank", [2, 0])
def test_span_distance_at_mask_points_is_the_box_one(rank):
    rng = np.random.default_rng(2)
    basis = np.linalg.qr(rng.standard_normal((4, 2)))[0][:, :rank]
    axes = [np.linspace(-2.0, 2.0, n) for n in (4, 5, 6, 7)]
    where = rng.random((4, 5, 6, 7)) < 0.2
    got = _span_distance(axes, basis, where)
    assert got.tobytes() == _span_distance(axes, basis)[where].tobytes()


@pytest.mark.parametrize("basis", ["rank2", "rank0", "fourier-graph"])
def test_layer_distances_are_the_whole_box_ones(basis):
    """_distance on each layer of axis 0, at every point and at mask points,
    is the whole-box _span_distance to the bit; the twisted graph of J has
    round-off entries in its complement basis, which must be kept."""
    rng = np.random.default_rng(3)
    basis = {"rank2": np.linalg.qr(rng.standard_normal((4, 2)))[0],
             "rank0": np.zeros((4, 0)),
             "fourier-graph": twisted_graph_lagrangian(standard_j(1)).basis}[basis]
    axes = [np.linspace(-2.0, 2.0 + 0.1 * j, n) for j, n in enumerate((4, 5, 6, 7))]
    where = rng.random((4, 5, 6, 7)) < 0.2
    whole = _span_distance(axes, basis)
    forms = _complement_forms(basis)
    for i in range(len(axes[0])):
        layer = [axes[0][i:i + 1], *axes[1:]]
        assert _distance(np.ix_(*layer), forms).tobytes() == whole[i:i + 1].tobytes()
        points = [a[j] for a, j in zip(layer, np.nonzero(where[i:i + 1]))]
        assert _distance(points, forms).tobytes() == whole[i][where[i]].tobytes()


# -- derivatives at the points a profile reads, against the full box -------


def full_field_derivative(field, direction):
    """The directional derivative over the whole box: the reference that
    the flat-index stencil (gabor._stencil) must match to the bit at the
    points of its mask."""
    direction = np.asarray(direction, dtype=float)
    steps = field.steps()
    out = np.zeros_like(field.values)
    for axis, c in enumerate(direction):
        if abs(c) > 1e-14:
            out = out + c * _derivative(field.values, axis, steps[axis])
    return out


def whole_box_interior(axes):
    """Grid points within INTERIOR_FRAC of every axis extent, over the whole
    grid."""
    inside = np.ones([len(a) for a in axes], dtype=bool)
    for a in np.ix_(*axes):
        inside &= np.abs(a) <= INTERIOR_FRAC * np.abs(a).max()
    return inside


def full_field_decay_profile(field, Q, lam, vlam):
    """decay_profile over the whole box: the whole field twisted, the interior
    mask and the distances taken at every grid point, the peak read from the
    twisted field, and every derivative taken by full_field_derivative and
    only then read on the strip."""
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
    off_shells = [(float(r), float(v)) for r, v in zip(radii, maxima)]

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

    status = "inconclusive" if off_slope is None or None in along.values() else "pass"
    return DecayProfile(off_slope if off_slope is not None else np.nan,
                        along, off_shells, status)


def layouts(shape, seed):
    """A random complex field on uneven axes, C-contiguous and in a
    transposed layout (a view of swapped axes)."""
    rng = np.random.default_rng(seed)
    axes = tuple(np.linspace(-1.0 - j, 2.0 + 0.5 * j, n) for j, n in enumerate(shape))
    order = (0, 2, 1, 3) if len(shape) == 4 else (1, 0)
    stored = tuple(shape[j] for j in order)
    raw = rng.standard_normal(stored) + 1j * rng.standard_normal(stored)
    view = np.transpose(raw, order)
    assert not view.flags.c_contiguous
    return {"contiguous": Field4D(axes, np.ascontiguousarray(view)),
            "transposed": Field4D(axes, view)}


def masks(shape, seed):
    """Masks that reach the two border layers of every axis."""
    rng = np.random.default_rng(seed)
    sparse = rng.random(shape) < 0.3
    border = np.zeros(shape, dtype=bool)
    for axis, n in enumerate(shape):
        for layer in (0, 1, n - 2, n - 1):
            np.moveaxis(border, axis, 0)[layer] = True
    return {"sparse": sparse, "border": border, "all": np.ones(shape, dtype=bool)}


DIRECTIONS = {
    2: [(0.0, 1.0), (0.6, -0.8), (1e-14, 1.0)],
    4: [(0.0, 0.0, -1.0, 0.0), (0.6, 0.0, 0.0, 0.8), (0.5, -0.5, 0.5, 0.5),
        (0.8, -1e-14, 5e-15, -0.6)],
}


@pytest.mark.parametrize("shape", [(9, 12), (6, 7, 8, 9)])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_directional_derivative_is_the_full_field_one_at_the_mask(shape, layout):
    field = layouts(shape, seed=len(shape))[layout]
    for name, where in masks(shape, seed=7).items():
        for direction in DIRECTIONS[len(shape)]:
            got = directional_derivative(field, np.array(direction), where, field.steps())
            ref = full_field_derivative(field, np.array(direction))[where]
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), (name, direction)
            assert np.isnan(got).any()  # every mask reaches the border layers


def test_directional_derivative_skips_negligible_components():
    field = layouts((6, 7, 8, 9), seed=1)["transposed"]
    where = masks((6, 7, 8, 9), seed=2)["border"]
    got = directional_derivative(field, np.array([0.0, 1e-14, 1.0, 0.0]), where,
                                 field.steps())
    ref = directional_derivative(field, np.array([0.0, 0.0, 1.0, 0.0]), where,
                                 field.steps())
    assert got.tobytes() == ref.tobytes()
    # nan only where axis 2 is within two layers of its edge
    i2 = np.nonzero(where)[2]
    assert np.array_equal(np.isnan(got), (i2 < 2) | (i2 >= 6))


def bits(value):
    """A profile field with every float replaced by its bytes."""
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return np.float64(value).tobytes()
    return value


def assert_profiles_bit_equal(cases):
    """Every DecayProfile field of each (box, whole field, Q, lam, vlam) case
    to the bit, decay_profile on the box against full_field_decay_profile
    on the whole field; returns the order-1 slopes."""
    slopes = []
    for box, whole, Q, lam, vlam in cases:
        got = decay_profile(box, Q, lam, vlam)
        ref = full_field_decay_profile(whole, Q, lam, vlam)
        for f in dataclasses.fields(DecayProfile):
            assert bits(getattr(got, f.name)) == bits(getattr(ref, f.name)), f.name
        slopes.append(got.along_slopes[1])
    return slopes


def capture_profile_inputs(monkeypatch, module):
    seen = []

    def spy(field, Q, lam, vlam):
        seen.append((field, Q, lam, vlam))
        return decay_profile(field, Q, lam, vlam)

    monkeypatch.setattr(module, "decay_profile", spy)
    return seen


def test_membership_profile_is_bit_equal_to_the_full_field_loop(monkeypatch):
    seen = capture_profile_inputs(monkeypatch, lagdist)
    wholes = []

    def cut(field):  # the whole field the membership test cuts its box from
        wholes.append(field)
        return _interior_box(field)

    monkeypatch.setattr(lagdist, "_interior_box", cut)
    grid = GridSpec(1, 128, 10.0)
    x = grid.points()
    lam = lagrangian_with_param(np.eye(1), np.array([[1.0]]), 1)
    for amplitude, m in ((np.ones_like(x), 0.0), (x, 1.0)):
        u = GridFunction(grid, amplitude * np.exp(0.5j * x ** 2))
        assert lagrangian_membership_test(u, lam, m).status == "pass"
    assert [len(f.axes) for f, *_ in seen] == [2, 2] and len(wholes) == 2
    # the unit chirp's derivative sits at the noise floor; x times it is fitted
    slopes = assert_profiles_bit_equal([(box, whole, *rest)
                                        for (box, *rest), whole in zip(seen, wholes)])
    assert slopes[0] == -np.inf and np.isfinite(slopes[1])


def test_kernel_profile_is_bit_equal_to_the_full_field_loop(monkeypatch):
    seen = capture_profile_inputs(monkeypatch, fio)
    grid = GridSpec(1, 64, 7.0)
    J = standard_j(1)
    K, _ = fio_kernel(FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=J), grid)
    field = kernel_fbi_field(K)
    kernel_characterization_check(field, J, 0.0, 1.0)
    kernel_characterization_check(field, SymplecticMatrix(1, np.eye(2)), 0.0, 1.0)
    assert [len(f.axes) for f, *_ in seen] == [4, 4]
    whole = reference_kernel_field(K, KERNEL_STRIDE)
    assert all(np.isfinite(assert_profiles_bit_equal([(box, whole, *rest)
                                                      for box, *rest in seen])))


@pytest.mark.parametrize("layers", [1, 2, 3, None])
def test_profile_is_bit_equal_for_every_slab_depth(monkeypatch, layers):
    """Slabs of 1, 2 or 3 whole z1 layers, where the stencil reads across
    slab edges, and the whole box in one slab (None) give the profile of the
    full-field loop to the bit."""
    grid = GridSpec(1, 64, 7.0)
    J = standard_j(1)
    K, _ = fio_kernel(FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=J), grid)
    box = kernel_fbi_field(K)
    layer = box.values[0].size
    monkeypatch.setattr(gabor, "PROFILE_SLAB", layer * (layers or len(box.values)))
    whole = reference_kernel_field(K, KERNEL_STRIDE)
    cases = []
    for chi in (J, SymplecticMatrix(1, np.eye(2))):
        lam = twisted_graph_lagrangian(chi)
        vlam = twisted_graph_lagrangian(SymplecticMatrix(1, -chi.entries))
        cases.append((box, whole, chi_twist_field(chi), lam, vlam))
    assert all(np.isfinite(assert_profiles_bit_equal(cases)))


# -- the interior box a profile reads --------------------------------------


def box_slices(field, view):
    """The slice of each whole axis that the box view covers."""
    box = []
    for a, b in zip(field.axes, view.axes):
        lo = int(np.flatnonzero(a == b[0])[0])
        box.append(slice(lo, lo + len(b)))
    return tuple(box)


@pytest.mark.parametrize("shape", [(23, 7), (11, 7, 13, 30)])
def test_interior_box_holds_the_interior(shape):
    field = layouts(shape, seed=len(shape))["transposed"]
    view = _interior_box(field)
    inside = view.interior
    box = box_slices(field, view)
    whole = whole_box_interior(field.axes)
    assert view.peak == np.abs(field.values).max()
    assert view.field_steps == tuple(field.steps())
    assert np.shares_memory(view.values, field.values)
    assert np.array_equal(view.values, field.values[box])
    assert np.array_equal(inside, whole[box])
    outside = whole.copy()
    outside[box] = False
    assert not outside.any()
    # the interior of the 7-point axis runs from sample 1 to sample 5, so its
    # box is clipped at both grid edges; some box edge keeps the full reach
    inner = np.flatnonzero(whole.any(axis=tuple(j for j in range(len(shape)) if j != 1)))
    assert (inner[0], inner[-1]) == (1, 5) and box[1] == slice(0, 7)
    assert any(s != slice(0, n) for s, n in zip(box, shape))
    for direction in DIRECTIONS[len(shape)]:
        got = directional_derivative(view, np.array(direction), inside, field.steps())
        ref = full_field_derivative(field, np.array(direction))[whole]
        assert got.tobytes() == ref.tobytes(), direction
        assert np.array_equal(np.isnan(got), np.isnan(ref))


def test_clipped_box_profile_is_bit_equal_to_the_whole_box_one():
    # 7 samples over [-10, 10]: the interior starts one sample in, so the box
    # is clipped and the derivatives there are nan; the other axes keep the
    # reach, and on the second the box's first step differs from the whole
    # axis's in the last bit
    shape = (7, 15, 7, 9)
    axes = tuple(np.linspace(-10.0, 9.0 if n == 15 else 10.0, n) for n in shape)
    rng = np.random.default_rng(8)  # a seed whose slope moves with that last bit
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    envelope = np.exp(-0.02 * sum(m ** 2 for m in mesh))
    field = Field4D(axes, envelope * (rng.standard_normal(shape)
                                      + 1j * rng.standard_normal(shape)))
    view = _interior_box(field)
    inside = view.interior
    assert [len(a) for a in view.axes] == [7, 14, 7, 9]
    assert view.steps()[1] != field.steps()[1]
    assert view.field_steps == tuple(field.steps())
    assert whole_box_interior(axes)[1].any()
    J = standard_j(1)
    lam = twisted_graph_lagrangian(J)
    vlam = twisted_graph_lagrangian(SymplecticMatrix(1, -J.entries))
    strip = inside & (_span_distance(view.axes, lam.basis) <= ALONG_CAP)
    assert any(np.isnan(directional_derivative(view, v, strip, field.steps())).any()
               for v in lam.basis.T)
    slopes = assert_profiles_bit_equal([(view, field, chi_twist_field(J), lam, vlam)])
    assert np.isfinite(slopes[0])


# -- the kernel field, streamed in z1 slabs --------------------------------


def ho_fourier_kernel(n):
    """The kernel of HO^w mu(J) on an n-point grid, whose field peaks
    outside its interior box."""
    grid = GridSpec(1, n, 10.0)
    spec = FioSpec("factored", 2.0, 1.0, b=harmonic_oscillator_symbol(2), chi=standard_j(1))
    return fio_kernel(spec, grid)[0]


@pytest.mark.parametrize("n, clipped", [(64, False), (32, True)])
def test_streamed_box_is_the_whole_field_box(n, clipped):
    K = ho_fourier_kernel(n)
    got = kernel_fbi_field(K, 2)
    whole = reference_kernel_field(K, 2)
    ref = _interior_box(whole)
    box = box_slices(whole, got)
    assert any(s.start == 0 or s.stop == len(a) for s, a in zip(box, whole.axes)) == clipped
    assert got.values.flags.c_contiguous
    assert got.values.tobytes() == np.ascontiguousarray(whole.values[box]).tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.axes, ref.axes))
    assert np.array_equal(got.interior, ref.interior)
    assert got.field_steps == ref.field_steps
    assert np.float64(got.peak).tobytes() == np.abs(whole.values).max().tobytes()
    # the peak lies outside the box, so a box peak would be smaller
    assert np.abs(got.values).max() < got.peak


@pytest.mark.parametrize("stride", [4, 2, 1])
def test_kernel_heatmap_is_the_whole_field_one(stride):
    K = ho_fourier_kernel(32)
    whole = reference_kernel_field(K, stride)
    j = int(np.argmin(np.abs(whole.axes[1])))
    ref = np.abs(whole.values[:, j, :, :]).max(axis=2).T[::-1]
    z, zeta, heat = _kernel_heatmap(K, stride)
    assert z.tobytes() == whole.axes[0].tobytes()
    assert zeta.tobytes() == whole.axes[2].tobytes()
    assert heat.tobytes() == np.ascontiguousarray(ref).tobytes()


def test_kernel_field_never_holds_the_whole_field():
    # the whole field at n = 128, stride 2 is 64^4 complex entries, 268 MB.
    # The build holds its 49^4 box (92.2 MB), M and M K (8.4 MB each) and,
    # per slab, 64 SLAB_Z1 rows of 64^3 entries, their magnitudes and the
    # box part: 131.6 MB in slabs of 2 z1 values, 148.3 MB in slabs of 4
    K = ho_fourier_kernel(128)
    tracemalloc.start()
    try:
        field = kernel_fbi_field(K, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert field.values.shape == (49, 49, 49, 49)
    assert peak < 140e6
