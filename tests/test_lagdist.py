import numpy as np
import pytest

from fiocalc.fio import FioSpec, fio_operator
from fiocalc.gabor import Field4D
from fiocalc.grids import GridFunction, GridSpec, hermite_grid_function
from fiocalc.lagdist import (
    LagrangianDistSpec,
    SynthesisError,
    _lambda_twist,
    lagrangian_membership_test,
    lagrangian_param,
    lagrangian_synthesize,
    synthesis_matrix,
)
from fiocalc.metaplectic import mu_general
from fiocalc.symbols import constant_symbol
from fiocalc.symplectic import (
    LagrangianSubspace,
    chirp_matrix,
    lagrangian_with_param,
    orthonormal_basis,
    principal_angles,
    standard_j,
)
from whole_box import _quadratic_twist

GRID = GridSpec(1, 128, 10.0)

COTANGENT_FIBER = lagrangian_with_param(np.zeros((1, 0)), np.array([[0.0]]), 1)
POSITION_AXIS = lagrangian_with_param(np.eye(1), np.array([[0.0]]), 1)
GRAPH_ONE = lagrangian_with_param(np.eye(1), np.array([[1.0]]), 1)


def one_hot_delta(grid=GRID):
    vals = np.zeros(grid.n, dtype=complex)
    vals[grid.n // 2] = 1.0 / grid.h
    return GridFunction(grid, vals)


def unit_chirp(grid=GRID):
    x = grid.points()
    return GridFunction(grid, np.exp(0.5j * x ** 2))


def test_param_recovery_matches_construction():
    lam = GRAPH_ONE
    Y, F = lagrangian_param(lam)
    assert np.allclose(np.abs(Y), np.eye(1))
    assert np.allclose(F, [[1.0]])


def test_synthesis_matrix_maps_position_space_onto_subspace():
    for Fval in (-1.2, 0.0, 0.4, 1.0):
        lam = lagrangian_with_param(np.eye(1), np.array([[Fval]]), 1)
        chi = synthesis_matrix(lam)
        image = orthonormal_basis(chi.entries[:, :1])
        assert principal_angles(image, lam.basis).max() < 1e-8


def test_point_mass_lives_on_the_cotangent_fiber():
    u = one_hot_delta()
    assert lagrangian_membership_test(u, COTANGENT_FIBER, 0.0).status == "pass"
    assert lagrangian_membership_test(u, POSITION_AXIS, 0.0).status == "fail"


def test_unit_chirp_lives_on_its_graph():
    u = unit_chirp()
    assert lagrangian_membership_test(u, GRAPH_ONE, 0.0).status == "pass"
    assert lagrangian_membership_test(u, POSITION_AXIS, 0.0).status == "fail"


def test_gaussian_is_negligible_on_every_subspace():
    u = hermite_grid_function(GRID, [0])
    for lam in (COTANGENT_FIBER, POSITION_AXIS, GRAPH_ONE):
        assert lagrangian_membership_test(u, lam, 0.0).status == "pass"


def test_synthesized_distribution_passes_on_its_own_subspace():
    for Fval in (0.0, 0.7):
        lam = lagrangian_with_param(np.eye(1), np.array([[Fval]]), 1)
        dist = LagrangianDistSpec(lam, constant_symbol(1))
        u = lagrangian_synthesize(dist, GRID)
        assert lagrangian_membership_test(u, lam, 0.0).status == "pass"


def test_synthesized_distribution_fails_on_transverse_subspace():
    lam = lagrangian_with_param(np.eye(1), np.array([[1.0]]), 1)
    other = lagrangian_with_param(np.eye(1), np.array([[-1.0]]), 1)
    assert principal_angles(lam.basis, other.basis).max() > 0.3
    dist = LagrangianDistSpec(lam, constant_symbol(1))
    u = lagrangian_synthesize(dist, GRID)
    assert lagrangian_membership_test(u, other, 0.0).status == "fail"


def test_membership_is_stable_under_scalar_and_tiny_perturbation():
    u = unit_chirp()
    rotated = np.exp(0.7j) * u
    perturbed = GridFunction(GRID, u.values
                             + 1e-6 * hermite_grid_function(GRID, [0]).values)
    for v in (rotated, perturbed):
        assert lagrangian_membership_test(v, GRAPH_ONE, 0.0).status == "pass"
        assert lagrangian_membership_test(v, POSITION_AXIS, 0.0).status == "fail"


def test_chirp_multiplication_preserves_membership():
    # multiplying by the chirp e^{i<Fx,x>/2}, with Y inside the kernel of F,
    # keeps the verdict relative to Y x Y-perp
    for u, lam, F in ((one_hot_delta(), COTANGENT_FIBER, 0.6),
                      (hermite_grid_function(GRID, [0]), POSITION_AXIS, 0.0)):
        v = mu_general(chirp_matrix(np.array([[F]])), GRID).apply(u)
        assert lagrangian_membership_test(v, lam, 0.0).status \
            == lagrangian_membership_test(u, lam, 0.0).status


def test_operator_maps_subspace_distributions_forward():
    # the operator carries a distribution on a subspace into the class of
    # order (operator order + symbol order) on the subspace's image
    op = FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=standard_j(1))
    dist = LagrangianDistSpec(COTANGENT_FIBER, constant_symbol(1))
    v = fio_operator(op, GRID).apply(lagrangian_synthesize(dist, GRID))
    mapped = LagrangianSubspace.from_span(op.chi.entries @ dist.lam.basis)
    order = op.order + dist.symbol.order
    assert order == 0.0
    assert lagrangian_membership_test(v, mapped, order).status == "pass"


def test_spec_rejects_mismatched_synthesis_matrix():
    bad = standard_j(1)  # carries the position axis to the frequency axis
    with pytest.raises(SynthesisError):
        LagrangianDistSpec(POSITION_AXIS, constant_symbol(1), chi_syn=bad)


def test_lambda_twist_matches_its_closed_form():
    rng = np.random.default_rng(4)
    Y = orthonormal_basis(np.array([[1.0], [2.0]]))
    F = np.array([[0.3, -0.7], [-0.7, 1.1]])
    axes = tuple(np.linspace(-3.0, 3.0, n) for n in (5, 6, 7, 8))
    vals = rng.standard_normal((5, 6, 7, 8)) + 1j * rng.standard_normal((5, 6, 7, 8))
    out = _quadratic_twist(Field4D(axes, vals), _lambda_twist(Y, F))
    mesh = np.meshgrid(*axes, indexing="ij")
    x, xi = np.stack(mesh[:2]), np.stack(mesh[2:])
    P = np.eye(2) - Y @ Y.T
    phase = (np.einsum("ij,j...,i...->...", P, x, xi)
             + 0.5 * np.einsum("ij,i...,j...->...", F, x, x))
    ref = vals * np.exp(-1j * phase)
    assert np.abs(out.values - ref).max() <= 1e-12 * np.abs(ref).max()
