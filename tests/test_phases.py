import numpy as np
import pytest

from fiocalc.phases import (
    QuadraticPhase,
    check_nondegeneracy,
    chi_from_phase,
    helffer_conditions,
    lagrangian_of_phase,
    phase_from_dict,
    phase_from_free_matrix,
    phase_to_dict,
    pseudodifferential_phase,
    random_nondegenerate_phase,
    reduce_phase,
)
from fiocalc.symplectic import (
    principal_angles,
    random_symplectic,
    is_free,
    standard_j,
    twisted_graph_lagrangian,
)


def test_pseudodifferential_phase_parametrizes_diagonal():
    phi = pseudodifferential_phase(1)
    B = lagrangian_of_phase(phi).basis
    # critical points of (x - y) theta give x = y with momenta (theta, -theta)
    for x, t in ((1.0, 2.0), (-0.5, 1.0)):
        p = np.array([x, x, t, -t])
        assert np.linalg.norm(p - B @ (B.T @ p)) < 1e-10


def test_reduction_eliminates_quadratic_fiber_part():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        N = int(rng.integers(1, 4))
        phi = random_nondegenerate_phase(d, N, rng)
        rec = reduce_phase(phi)
        if rec.reduced.Q.size:
            assert np.abs(rec.reduced.Q).max() == 0.0
        a = principal_angles(lagrangian_of_phase(phi).basis,
                             lagrangian_of_phase(rec.reduced).basis)
        assert a.max() < 1e-9


def test_reduction_record_is_serializable():
    phi = random_nondegenerate_phase(1, 2, np.random.default_rng(6))
    rec = reduce_phase(phi)
    data = rec.to_dict()
    assert data["n"] == rec.n
    assert len(data["eliminated"]) == phi.N - rec.n


def test_degenerate_phase_is_rejected():
    phi = QuadraticPhase(1, 1, np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 1)))
    assert not check_nondegeneracy(phi)
    with pytest.raises(ValueError):
        reduce_phase(phi)


def test_graph_phase_recovers_matrix():
    rng = np.random.default_rng(7)
    for _ in range(5):
        while True:
            chi = random_symplectic(1, rng)
            if is_free(chi) and abs(chi.B[0, 0]) > 0.1:
                break
        phi = phase_from_free_matrix(chi)
        assert principal_angles(lagrangian_of_phase(phi).basis,
                                twisted_graph_lagrangian(chi).basis).max() <= 1e-9
        rec = chi_from_phase(phi)
        assert np.allclose(rec.entries, chi.entries, atol=1e-9)


def test_estimate_matrices_invertible_for_graph_phases():
    phi = phase_from_free_matrix(standard_j(1))
    rep = helffer_conditions(phi)
    assert rep.estimates_hold
    assert rep.left_sigma_min > 1e-8 and rep.right_sigma_min > 1e-8


def test_phase_dict_round_trip():
    phi = random_nondegenerate_phase(2, 3, np.random.default_rng(9))
    back = phase_from_dict(phase_to_dict(phi))
    assert back.d == phi.d and back.N == phi.N
    assert np.allclose(back.F, phi.F)
    assert np.allclose(back.L, phi.L)
    assert np.allclose(back.Q, phi.Q)
