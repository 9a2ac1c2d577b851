import numpy as np
import pytest

from fiocalc.symplectic import (
    LagrangianSubspace,
    NotSymplecticError,
    SymplecticMatrix,
    chi_delta,
    chirp_matrix,
    is_free,
    is_symplectic,
    lagrangian_with_param,
    principal_angles,
    random_symplectic,
    rotation_embedding,
    scaling_matrix,
    standard_j,
    standard_j_matrix,
    symplectic_inverse,
    tensor_symplectic,
    twisted_graph_lagrangian,
)


def test_standard_j_squares_to_minus_identity():
    for d in (1, 2, 3):
        J = standard_j(d)
        assert np.allclose((J @ J).entries, -np.eye(2 * d))
        assert is_symplectic(J.entries)


def test_is_symplectic_rejects_non_symplectic():
    assert not is_symplectic(np.diag([2.0, 3.0]))


def test_constructor_rejects_non_symplectic():
    with pytest.raises(NotSymplecticError):
        SymplecticMatrix(1, np.diag([2.0, 3.0]))


def test_blocks_and_apply():
    chi = chirp_matrix(np.array([[0.7]]))
    assert chi.A[0, 0] == 1.0 and chi.C[0, 0] == 0.7 and chi.B[0, 0] == 0.0
    z = np.array([2.0, -1.0])
    assert np.allclose(chi.apply(z), chi.entries @ z)


def test_inverse_formula_matches_lu_inverse():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        for _ in range(20):
            chi = random_symplectic(d, rng)
            assert np.allclose(symplectic_inverse(chi).entries,
                               np.linalg.inv(chi.entries), atol=1e-12)


def test_random_symplectic_is_symplectic_tightly():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3):
        Jm = standard_j_matrix(d)
        for _ in range(20):
            chi = random_symplectic(d, rng)
            assert np.abs(chi.entries.T @ Jm @ chi.entries - Jm).max() < 1e-12


def test_free_detection():
    assert is_free(standard_j(1))
    assert not is_free(chirp_matrix(np.array([[0.5]])))
    assert not is_free(scaling_matrix(np.array([[2.0]])))


def test_generator_matrices_are_symplectic():
    F = np.array([[0.4, 0.1], [0.1, -0.2]])
    U, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((2, 2)))
    A = np.diag([1.5, 0.7])
    for chi in (chirp_matrix(F), rotation_embedding(U), scaling_matrix(A)):
        assert is_symplectic(chi.entries)


def test_tensor_and_delta_matrices_are_symplectic():
    chi = random_symplectic(1, np.random.default_rng(3))
    assert is_symplectic(tensor_symplectic(chi).entries)
    assert is_symplectic(chi_delta(1).entries)


def test_twisted_graph_contains_expected_points():
    lam = twisted_graph_lagrangian(standard_j(1))
    B = lam.basis
    # chi = J sends (y, eta) to (eta, -y); the twisted graph collects
    # (x1, x2, xi1, xi2) = (eta, y, -y, -eta)
    for y, eta in ((1.0, 0.0), (0.0, 1.0), (2.0, -3.0)):
        p = np.array([eta, y, -y, -eta])
        assert np.linalg.norm(p - B @ (B.T @ p)) < 1e-10


def test_param_round_trip_and_small_angles():
    # identical spans must give angle ~ 0 even where arccos loses precision
    lam = lagrangian_with_param(np.eye(1), np.array([[1.0]]), 1)
    Y, F = lam.param
    assert np.allclose(F, [[1.0]])
    a = principal_angles(lam.basis, lam.basis)
    assert a.max() < 1e-12


def test_principal_angles_orthogonal_spans():
    B1 = np.array([[1.0], [0.0]])
    B2 = np.array([[0.0], [1.0]])
    assert np.allclose(principal_angles(B1, B2), [np.pi / 2])


def test_empty_y_parametrizes_conormal_of_origin():
    lam = lagrangian_with_param(np.zeros((1, 0)), np.array([[0.0]]), 1)
    B = lam.basis
    p, q = np.array([0.0, 5.0]), np.array([1.0, 0.0])
    assert np.linalg.norm(p - B @ (B.T @ p)) < 1e-10
    assert np.linalg.norm(q - B @ (B.T @ q)) > 0.9


def test_from_span_rejects_non_lagrangian():
    with pytest.raises(ValueError):
        LagrangianSubspace.from_span(np.array([[1.0, 0.0], [0.0, 0.0],
                                               [0.0, 1.0], [0.0, 0.0]]))
