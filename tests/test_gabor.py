import dataclasses
import tracemalloc

import numpy as np
import pytest

from fiocalc import acceptance, gabor, lagdist
from fiocalc.cli import _kernel_heatmap
from fiocalc.fio import FioSpec, fio_kernel, kernel_characterization_check, wf_kernel_check
from fiocalc.gabor import (
    ALONG_CAP,
    Field4D,
    N_SECTORS,
    STENCIL_REACH,
    ProfileReport,
    _Sweep,
    _complement_forms,
    _distance,
    _interior_box,
    _outer_radius,
    chi_twist_field,
    decay_profile,
    gabor_transform,
    gabor_transform_points,
    gaussian_window_at,
    profile_report,
    sweep_field,
    sweep_kernel_field,
    wavefront_estimate,
)
from fiocalc.grids import GridFunction, GridSpec, gaussian_window, hermite_grid_function
from fiocalc.lagdist import kernel_membership_check, lagrangian_membership_test
from fiocalc.symbols import constant_symbol, harmonic_oscillator_symbol
from fiocalc.symplectic import (
    DimensionError,
    SymplecticMatrix,
    chirp_matrix,
    lagrangian_with_param,
    scaling_matrix,
    standard_j,
    twisted_graph_lagrangian,
)
from whole_box import (_quadratic_twist, _span_distance, directional_derivative,
                       full_field_decay_profile, full_field_derivative, interior_box,
                       kernel_fbi_field, reference_kernel_field, steps,
                       whole_box_interior, whole_box_wf_kernel_check)


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

class Recorder:
    """A reader that keeps what a sweep gives it: the box, each read's
    layers, interior mask and running peak, and the final peak."""

    def start(self, box):
        self.box, self.reads = box, []

    def read(self, lo, hi, sweep, peak):
        self.reads.append((lo, hi, np.array(sweep.layers(lo, hi)), sweep.interior.copy(), peak))

    def finish(self, peak):
        self.peak = peak
        return self


def test_kernel_field_shape_and_steps():
    g2 = GridSpec(2, 64, 8.0)
    K = GridFunction.sample(g2, lambda a, b: np.exp(-a ** 2 - b ** 2))
    rec, = sweep_kernel_field(K, [Recorder()], stride=4)
    whole = reference_kernel_field(K, 4)
    box, slices = _interior_box(whole.axes)
    assert whole.values.shape == (16, 16, 16, 16)
    assert rec.box.shape == whole.values[slices].shape == box.shape
    assert all(a.tobytes() == b.tobytes() for a, b in zip(rec.box.axes, box.axes))
    assert np.isclose(rec.box.field_steps[0], 4 * g2.h)
    assert rec.box.field_steps == tuple(steps(whole))


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
                                    steps(field))
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
            got = directional_derivative(field, np.array(direction), where, steps(field))
            ref = full_field_derivative(field, np.array(direction))[where]
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), (name, direction)
            assert np.isnan(got).any()  # every mask reaches the border layers


def test_directional_derivative_skips_negligible_components():
    field = layouts((6, 7, 8, 9), seed=1)["transposed"]
    where = masks((6, 7, 8, 9), seed=2)["border"]
    got = directional_derivative(field, np.array([0.0, 1e-14, 1.0, 0.0]), where,
                                 steps(field))
    ref = directional_derivative(field, np.array([0.0, 0.0, 1.0, 0.0]), where,
                                 steps(field))
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
    """For each (profile reader, its report, whole field) case: every
    ProfileReport field to the bit against profile_report of the slopes of
    full_field_decay_profile on the whole field, with the reader's twist,
    subspaces and class, and the reader's off-subspace shell maxima against
    the reference's; returns the order-1 slopes."""
    slopes = []
    for reader, got, whole in cases:
        ref = full_field_decay_profile(whole, reader.Q, reader.lam, reader.vlam)
        want = profile_report(ref.off_slope, ref.along_slopes, reader.m, reader.rho,
                              reader.projected_F)
        for f in dataclasses.fields(ProfileReport):
            assert bits(getattr(got, f.name)) == bits(getattr(want, f.name)), f.name
        assert reader.maxima.tobytes() == ref.off_maxima.tobytes()
        assert (got.status == "inconclusive") == ref.inconclusive
        slopes.append(got.along_slopes[1])
    return slopes


def profile_readers(chis):
    """The kernel test's reader for each chi."""
    return [kernel_characterization_check(chi, 0.0, 1.0) for chi in chis]


def test_membership_profile_is_bit_equal_to_the_full_field_loop(monkeypatch):
    """The d = 1 membership test holds its small field whole and feeds it
    through the same reader in one block."""
    seen = []

    def spy(field, readers):
        seen.append((field, readers))
        return sweep_field(field, readers)

    monkeypatch.setattr(lagdist, "sweep_field", spy)
    grid = GridSpec(1, 128, 10.0)
    x = grid.points()
    lam = lagrangian_with_param(np.eye(1), np.array([[1.0]]), 1)
    reports = []
    for amplitude, m in ((np.ones_like(x), 0.0), (x, 1.0)):
        u = GridFunction(grid, amplitude * np.exp(0.5j * x ** 2))
        reports.append(lagrangian_membership_test(u, lam, m))
        assert reports[-1].status == "pass"
    assert [len(field.axes) for field, _ in seen] == [2, 2]
    # the unit chirp's derivative sits at the noise floor; x times it is fitted
    slopes = assert_profiles_bit_equal([(reader, rep, field)
                                        for rep, (field, [reader]) in zip(reports, seen)])
    assert slopes[0] == -np.inf and np.isfinite(slopes[1])


def test_kernel_profile_is_bit_equal_to_the_full_field_loop():
    grid = GridSpec(1, 64, 7.0)
    J = standard_j(1)
    K, _ = fio_kernel(FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=J), grid)
    readers = profile_readers([J, SymplecticMatrix(1, np.eye(2))])
    reports = sweep_kernel_field(K, readers)
    whole = reference_kernel_field(K, gabor.KERNEL_STRIDE)
    assert all(np.isfinite(assert_profiles_bit_equal(
        [(r, rep, whole) for r, rep in zip(readers, reports)])))


class WindowRecorder(Recorder):
    """A Recorder that also keeps, at each read, the layers the derivative
    stencil reads around it: STENCIL_REACH on each side, within the box."""

    def read(self, lo, hi, sweep, peak):
        super().read(lo, hi, sweep, peak)
        a, b = max(lo - STENCIL_REACH, 0), min(hi + STENCIL_REACH, self.box.shape[0])
        self.reads[-1] += ((a, b, np.array(sweep.layers(a, b))),)


def sweep_box(box, values, peak, readers, block):
    """The readers' results on the box values pushed through a _Sweep in
    blocks of block layers, with an empty block between every two."""
    sweep = _Sweep(box, readers)
    for lo in range(0, box.shape[0], block):
        sweep.push(values[lo:lo + block], peak)
        sweep.push(values[:0], peak)
    return sweep.finish(peak)


@pytest.mark.parametrize("block", [1, 2, 3, None])
def test_profile_is_bit_equal_for_every_slab_depth(block):
    """The whole field's interior box pushed in blocks of 1, 2 or 3 layers,
    or whole (None): no read spans more layers than a block, the layers the
    stencil reads across block edges are held, and the profiles are those
    of the full-field loop to the bit."""
    grid = GridSpec(1, 64, 7.0)
    J = standard_j(1)
    K, _ = fio_kernel(FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=J), grid)
    whole = reference_kernel_field(K, gabor.KERNEL_STRIDE)
    box, slices = _interior_box(whole.axes)
    values = np.ascontiguousarray(whole.values[slices])
    block = block or box.shape[0]
    readers = profile_readers([J, SymplecticMatrix(1, np.eye(2))])
    rec, *reports = sweep_box(box, values, float(np.abs(whole.values).max()),
                              [WindowRecorder(), *readers], block)
    spans = [(lo, hi) for lo, hi, *_ in rec.reads]
    assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
    assert spans[-1][1] == box.shape[0] and max(hi - lo for lo, hi in spans) == block
    crossing = 0
    for *_, (a, b, held) in rec.reads:
        assert held.tobytes() == values[a:b].tobytes()
        crossing += a // block != (b - 1) // block
    assert crossing > 0 if block < box.shape[0] else crossing == 0
    if block == 3:  # reads themselves cross block edges
        assert any(lo // block != (hi - 1) // block for lo, hi in spans)
    assert all(np.isfinite(assert_profiles_bit_equal(
        [(r, rep, whole) for r, rep in zip(readers, reports)])))


def test_sweeps_read_as_they_are_pushed():
    """A kernel sweep reads one layer at a time, its final flush included;
    a field held whole is read in one read of its whole box."""
    K = ho_fourier_kernel(32)
    rec, = sweep_kernel_field(K, [Recorder()])
    box, _ = _interior_box(reference_kernel_field(K, gabor.KERNEL_STRIDE).axes)
    assert [(lo, hi) for lo, hi, *_ in rec.reads] == [(i, i + 1) for i in range(box.shape[0])]
    grid = GridSpec(1, 128, 10.0)
    field = gabor_transform(hermite_grid_function(grid, [3]), gaussian_window(grid))
    rec, = sweep_field(field, [Recorder()])
    box, _ = _interior_box(field.axes)
    assert [(lo, hi) for lo, hi, *_ in rec.reads] == [(0, box.shape[0])]


def test_sweep_ignores_an_empty_block():
    """An empty push reads nothing and leaves the sweep as it was."""
    grid = GridSpec(1, 128, 10.0)
    field = gabor_transform(hermite_grid_function(grid, [3]), gaussian_window(grid))
    box, slices = _interior_box(field.axes)
    values = np.ascontiguousarray(field.values[slices])
    sweep = _Sweep(box, [Recorder()])
    sweep.push(values[:0], 1.0)
    assert sweep.readers[0].reads == []
    sweep.push(values, 1.0)
    got, = sweep.finish(1.0)
    assert [(lo, hi) for lo, hi, *_ in got.reads] == [(0, box.shape[0])]
    assert got.reads[0][2].tobytes() == values.tobytes()


class SharedRecorder:
    """A reader that keeps, at each read, the keys of the values the
    sweep shares among its readers."""

    def start(self, box):
        self.keys = []

    def read(self, lo, hi, sweep, peak):
        self.keys.append(set(sweep._shared))

    def finish(self, peak):
        return self


def test_sweep_holds_no_shared_value_after_a_push():
    """The distances a read shares among its readers are dropped once every
    reader has read them, before push returns."""
    K = ho_fourier_kernel(32)
    whole = reference_kernel_field(K, gabor.KERNEL_STRIDE)
    box, slices = _interior_box(whole.axes)
    values = np.ascontiguousarray(whole.values[slices])
    readers = profile_readers([standard_j(1), SymplecticMatrix(1, np.eye(2))])
    sweep = _Sweep(box, [*readers, SharedRecorder()])
    peak = float(np.abs(whole.values).max())
    for lo in range(box.shape[0]):
        sweep.push(values[lo:lo + 1], peak)
        assert sweep._shared == {}
    *_, rec = sweep.finish(peak)
    # both readers' subspaces, lam and vlam each, were shared at every read
    assert len(rec.keys) == box.shape[0] and all(len(k) == 4 for k in rec.keys)


def interior_max_distance(box, forms):
    """The largest _distance to the span of forms over every interior point
    of box, taken one layer at a time."""
    w = np.ix_(*box.axes)
    layers = (_distance([w[0][i:i + 1], *w[1:]], forms)[box.interior(i, i + 1)]
              for i in range(box.shape[0]))
    return max(float(dist.max(initial=0.0)) for dist in layers)


def test_outer_radius_is_the_interior_maximum(monkeypatch):
    """The along-subspace shells' outer radius, taken at the interior's
    corners, is the largest distance to vlam over every interior point, to
    the bit: for the vlam of every profile read of the full battery's
    kernels and of the d = 1 membership test."""
    cases = {}
    for _, grid, reads in acceptance.kernel_reads(False):
        spec = GridSpec(2, grid.n, grid.R)  # the grid of the kernel
        z, zeta = spec.points()[::gabor.KERNEL_STRIDE], spec.dual_points(gabor.KERNEL_STRIDE)
        box, _ = _interior_box((z, z, zeta, zeta))
        for read in reads:
            if read.kind != "cone":
                vlam = read.reader().vlam
                cases[z.tobytes(), zeta.tobytes(), vlam.basis.tobytes()] = box, vlam
    seen = []

    def spy(field, readers):
        seen.append((field, readers))
        return sweep_field(field, readers)

    monkeypatch.setattr(lagdist, "sweep_field", spy)
    grid = GridSpec(1, 128, 10.0)
    x = grid.points()
    lam = lagrangian_with_param(np.eye(1), np.array([[1.0]]), 1)
    lagrangian_membership_test(GridFunction(grid, np.exp(0.5j * x ** 2)), lam, 0.0)
    (field, [reader]), = seen
    cases["d = 1"] = _interior_box(field.axes)[0], reader.vlam
    assert len(cases) == 7
    for box, vlam in cases.values():
        forms = _complement_forms(vlam.basis)
        assert np.float64(_outer_radius(box, forms)).tobytes() \
            == np.float64(interior_max_distance(box, forms)).tobytes()


# -- the interior box a profile reads --------------------------------------


@pytest.mark.parametrize("shape", [(23, 7), (11, 7, 13, 30)])
def test_interior_box_holds_the_interior(shape):
    field = layouts(shape, seed=len(shape))["transposed"]
    box, slices = _interior_box(field.axes)
    inside = box.interior(0, box.shape[0])
    whole = whole_box_interior(field.axes)
    assert box.field_steps == tuple(steps(field))
    assert all(a.tobytes() == b[s].tobytes() for a, b, s in zip(box.axes, field.axes, slices))
    assert np.array_equal(inside, whole[slices])
    assert all(np.array_equal(box.interior(lo, lo + 2), inside[lo:lo + 2])
               for lo in range(box.shape[0] - 1))
    outside = whole.copy()
    outside[slices] = False
    assert not outside.any()
    # the interior of the 7-point axis runs from sample 1 to sample 5, so its
    # box is clipped at both grid edges; some box edge keeps the full reach
    inner = np.flatnonzero(whole.any(axis=tuple(j for j in range(len(shape)) if j != 1)))
    assert (inner[0], inner[-1]) == (1, 5) and slices[1] == slice(0, 7)
    assert any(s != slice(0, n) for s, n in zip(slices, shape))
    view = Field4D(box.axes, field.values[slices])
    for direction in DIRECTIONS[len(shape)]:
        got = directional_derivative(view, np.array(direction), inside, steps(field))
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
    view = interior_box(field)
    inside = view.interior
    assert [len(a) for a in view.axes] == [7, 14, 7, 9]
    assert steps(view)[1] != steps(field)[1]
    assert view.field_steps == tuple(steps(field))
    assert whole_box_interior(axes)[1].any()
    J = standard_j(1)
    lam = twisted_graph_lagrangian(J)
    vlam = twisted_graph_lagrangian(SymplecticMatrix(1, -J.entries))
    strip = inside & (_span_distance(view.axes, lam.basis) <= ALONG_CAP)
    assert any(np.isnan(directional_derivative(view, v, strip, steps(field))).any()
               for v in lam.basis.T)
    reader = decay_profile(chi_twist_field(J), lam, vlam, 0.0, 1.0)
    got, = sweep_field(field, [reader])
    slopes = assert_profiles_bit_equal([(reader, got, field)])
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
    """The layers a reader sees, in order, are the whole field's interior
    box to the bit, with its interior mask, and the final peak is the whole
    field's."""
    K = ho_fourier_kernel(n)
    rec, = sweep_kernel_field(K, [Recorder()], 2)
    whole = reference_kernel_field(K, 2)
    ref = interior_box(whole)
    _, slices = _interior_box(whole.axes)
    assert any(s.start == 0 or s.stop == len(a) for s, a in zip(slices, whole.axes)) == clipped
    bounds = [(lo, hi) for lo, hi, *_ in rec.reads]
    assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
    got = np.concatenate([layers for _, _, layers, *_ in rec.reads])
    assert got.tobytes() == np.ascontiguousarray(ref.values).tobytes()
    assert np.array_equal(np.concatenate([mask for *_, mask, _ in rec.reads]), ref.interior)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(rec.box.axes, ref.axes))
    assert rec.box.field_steps == ref.field_steps
    assert np.float64(rec.peak).tobytes() == np.abs(whole.values).max().tobytes()
    # running peaks never fall and never pass the final one; the peak lies
    # outside the box, so a box peak would be smaller
    running = [peak for *_, peak in rec.reads]
    assert running == sorted(running) and running[-1] <= rec.peak
    assert np.abs(got).max() < rec.peak


def late_peak_kernel():
    """The mu(J) kernel plus a bump at x = 9 whose field peaks at z1 = 9,
    past the interior box (|z1| <= 7 and the stencil's reach), at five
    times the mu(J) field's peak."""
    grid = GridSpec(1, 64, 10.0)
    K, _ = fio_kernel(FioSpec("factored", 0.0, 1.0, b=constant_symbol(2),
                              chi=standard_j(1)), grid)
    bump = GridFunction.sample(K.spec, lambda a, b: np.exp(-0.5 * ((a - 9.0) ** 2 + b ** 2)))
    scale = np.abs(reference_kernel_field(K, 2).values).max() \
        / np.abs(reference_kernel_field(bump, 2).values).max()
    return GridFunction(K.spec, K.values + 5 * scale * bump.values)


STREAM_KERNELS = {
    "mu-64": lambda: fio_kernel(FioSpec("factored", 0.0, 1.0, b=constant_symbol(2),
                                        chi=standard_j(1)), GridSpec(1, 64, 10.0))[0],
    "ho-64": lambda: ho_fourier_kernel(64),
    "ho-32-clipped": lambda: ho_fourier_kernel(32),
    "late-peak": late_peak_kernel,
}


@pytest.mark.parametrize("kernel", list(STREAM_KERNELS))
def test_streamed_reads_are_the_whole_box_ones(kernel):
    """Every read the battery makes of a kernel (kernel profile, membership
    profile and cone, against J and the identity) in one sweep, each to the
    bit against its whole-field or whole-box reference."""
    K = STREAM_KERNELS[kernel]()
    chis = [standard_j(1), SymplecticMatrix(1, np.eye(2))]
    profiles = [kernel_characterization_check(chi, 0.0, 1.0) for chi in chis] \
        + [kernel_membership_check(chi, 0.0) for chi in chis]
    cones = [wf_kernel_check(chi) for chi in chis]
    rec, *results = sweep_kernel_field(K, [Recorder(), *profiles, *cones])
    whole = reference_kernel_field(K, 2)
    box = interior_box(whole)
    assert_profiles_bit_equal([(r, rep, whole) for r, rep in zip(profiles, results)])
    for got, chi in zip(results[len(profiles):], chis):
        ref = whole_box_wf_kernel_check(box, chi)
        assert got == ref and type(got["points"]) is int
        assert np.float64(got["worst_excess"]).tobytes() \
            == np.float64(ref["worst_excess"]).tobytes()
    if kernel == "mu-64":
        assert [r["status"] for r in results[len(profiles):]] == ["pass", "fail"]
    if kernel == "late-peak":
        # the peak comes after the box, so the running peak at the box's
        # end would admit more points than the final one does
        running = rec.reads[-1][-1]
        assert running < rec.peak
        early = whole_box_wf_kernel_check(dataclasses.replace(box, peak=running), chis[0])
        assert early["points"] > results[len(profiles)]["points"] > 0



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
    # the whole field at n = 128, stride 2 is 64^4 complex entries (268 MB)
    # and its interior box 49^4 (92.2 MB).  The box build alone peaked at
    # 131.6 MB; the sweep holds M and M K (8.4 MB each), one z1 row of the
    # field (4.2 MB), a few box layers (1.9 MB each) and what its six
    # readers take on the layer being read; the readers keep shell maxima
    # of fixed size, no strip
    (source, grid, reads), = acceptance.kernel_reads(True)
    readers = list({read.key: read.reader() for read in reads}.values())
    assert len(readers) == 6
    K = acceptance._kernel(source, grid)
    tracemalloc.start()
    try:
        results = sweep_kernel_field(K, readers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == 6
    assert peak < 50e6
