import numpy as np
import pytest

from fiocalc.gabor import (
    Field4D,
    N_SECTORS,
    OrthogonalWindowError,
    _span_distance,
    chi_twist_field,
    directional_derivative,
    gabor_inverse,
    gabor_transform,
    gabor_transform_points,
    kernel_fbi_field,
    qs_norm,
    schwartz_decay_check,
    wavefront_estimate,
)
from fiocalc.grids import GridFunction, GridSpec, gaussian_window, hermite_grid_function
from fiocalc.symplectic import DimensionError, chirp_matrix, scaling_matrix, standard_j


def delta(grid):
    vals = np.zeros(grid.n, dtype=complex)
    vals[grid.n // 2] = 1.0 / grid.h
    return GridFunction(grid, vals)


def test_transform_of_gaussian_peaks_at_origin():
    g = GridSpec(1, 128, 10.0)
    gw = gaussian_window(g)
    field = gabor_transform(gw, gw)
    i, j = np.unravel_index(np.argmax(np.abs(field.values)), field.values.shape)
    assert abs(field.x[i]) < g.h and abs(field.xi[j]) < g.dual_h


def test_transform_agrees_with_point_evaluator():
    g = GridSpec(1, 128, 10.0)
    u = hermite_grid_function(g, [2])
    gw = gaussian_window(g)
    gc = lambda t: np.pi ** -0.25 * np.exp(-0.5 * np.asarray(t) ** 2)
    field = gabor_transform(u, gw)
    # evaluate at points of the discrete phase-space lattice itself so the
    # two routes target the same (x, xi)
    pts = np.array([[0.0, 0.0],
                    [8 * g.h, -6 * g.dual_h],
                    [-20 * g.h, 2 * g.dual_h]])
    ref = gabor_transform_points(u, gc, pts)
    for (x0, xi0), r in zip(pts, ref):
        i = int(np.argmin(np.abs(field.x - x0)))
        j = int(np.argmin(np.abs(field.xi - xi0)))
        assert abs(field.values[i, j] - r) < 1e-8


def test_inversion_round_trip():
    g = GridSpec(1, 128, 10.0)
    gw = gaussian_window(g)
    u = GridFunction(g, hermite_grid_function(g, [2]).values
                     + 0.5 * hermite_grid_function(g, [5]).values)
    back = gabor_inverse(gabor_transform(u, gw), gw, gw)
    assert (back - u).norm() / u.norm() < 1e-10


def test_inversion_rejects_orthogonal_window_pair():
    g = GridSpec(1, 128, 10.0)
    gw = gaussian_window(g)
    h1 = hermite_grid_function(g, [1])  # orthogonal to the gaussian
    U = gabor_transform(gw, gw)
    with pytest.raises(OrthogonalWindowError):
        gabor_inverse(U, gw, h1)


def test_weighted_norms_increase_with_weight():
    g = GridSpec(1, 128, 10.0)
    gw = gaussian_window(g)
    u = hermite_grid_function(g, [3])
    assert qs_norm(u, 1.0, gw) > qs_norm(u, 0.0, gw) > 0


def test_gaussian_is_rapidly_decaying_everywhere():
    g = GridSpec(1, 128, 10.0)
    gw = gaussian_window(g)
    rep = schwartz_decay_check(hermite_grid_function(g, [0]), gw, N_max=4.0)
    assert rep["rapidly_decaying"]


def test_point_mass_concentrates_on_frequency_axis():
    g = GridSpec(1, 128, 10.0)
    rep = wavefront_estimate(delta(g), gaussian_window(g), N_max=4.0)
    assert rep.nondecaying == [14, 15, 16, 17, 46, 47, 48, 49]


def test_constant_concentrates_on_position_axis():
    g = GridSpec(1, 128, 10.0)
    one = GridFunction(g, np.ones(g.n, dtype=complex))
    rep = wavefront_estimate(one, gaussian_window(g), N_max=4.0)
    assert rep.nondecaying
    angles = (np.asarray(rep.nondecaying) + 0.5) * 2 * np.pi / N_SECTORS
    assert np.abs(np.sin(angles)).max() < 0.45


def test_kernel_field_shape_and_steps():
    g2 = GridSpec(2, 64, 8.0)
    x = g2.points()
    K = GridFunction.sample(g2, lambda a, b: np.exp(-a ** 2 - b ** 2))
    gc = lambda t: np.pi ** -0.25 * np.exp(-0.5 * np.asarray(t) ** 2)
    field = kernel_fbi_field(K, gc, stride=4)
    assert field.values.shape == (16, 16, 16, 16)
    assert len(field.points()) == 16 ** 4
    assert np.isclose(field.steps()[0], 4 * g2.h)


def test_directional_derivative_of_separable_gaussian():
    ax = np.linspace(-4, 4, 81)
    axes = (ax, ax, ax, ax)
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    vals = np.exp(-0.5 * sum(m ** 2 for m in mesh)).astype(complex)
    field = Field4D(axes, vals)
    d0 = directional_derivative(field, np.array([1.0, 0.0, 0.0, 0.0]))
    ref = -mesh[0] * vals
    err = np.nanmax(np.abs(d0.values - ref))
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
    out = chi_twist_field(field, chi)
    z1, z2, c1, c2 = np.meshgrid(*field.axes, indexing="ij")
    (A, B), (C, D) = chi.entries
    # chi applied to (z2, -zeta2), paired with (z1, zeta1) by the symplectic form
    wx, wxi = A * z2 - B * c2, C * z2 - D * c2
    ref = field.values * np.exp(-0.5j * (z1 * c1 + z2 * c2 + z1 * wxi - wx * c1))
    assert np.abs(out.values - ref).max() <= 1e-12 * np.abs(ref).max()


def test_chi_twist_refuses_chi_of_another_dimension():
    with pytest.raises(DimensionError):
        chi_twist_field(random_field((4, 4, 4, 4)), standard_j(2))


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
